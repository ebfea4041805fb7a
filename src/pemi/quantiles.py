"""Quantile primitives used by every calibration formula in the package.

Every prediction set decides ``p > alpha`` with one rank convention: the
threshold is the rank-``coverage_rank(alpha, ref_size)`` score through
``kth_smallest_or_inf``, which falls back to ``+inf`` when the rank
exceeds the number of scores.  ``ref_size`` counts the test point's own
slot, so the split-conformal quantile over ``n`` scores is the rank
``coverage_rank(alpha, n + 1)``.  The rank is taken on alpha's binary
value, as ``exceeds_level`` compares a count (plus ``u`` times the ties
for the randomized form) with it, so a threshold and a per-label p-value
decide alike at every level.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "kth_smallest_or_inf",
    "weighted_quantile",
    "coverage_rank",
    "exceeds_level",
]


def kth_smallest_or_inf(k: int, values) -> float:
    """k-th smallest of ``values``; ``-inf`` for k <= 0, ``+inf`` for k > len."""
    v = np.asarray(values, dtype=float)
    if k <= 0:
        return -math.inf
    if k > v.size:
        return math.inf
    # partition is O(n); k is 1-based
    return float(np.partition(v, k - 1)[k - 1])


def coverage_rank(alpha: float, ref_size: int) -> int:
    """ceil((1 - alpha) * ref_size), evaluated exactly for the given float.

    Uses rational arithmetic on the binary value of ``alpha`` so that the
    rank never drifts across an integer boundary through rounding; with
    ``exceeds_level`` this makes the closed-form thresholds agree with the
    per-label membership decisions at every level, including levels that
    collide with count ratios.
    """
    if ref_size < 0:
        raise DomainError("ref_size must be >= 0")
    a, b = float(alpha).as_integer_ratio()
    return -(-(b - a) * int(ref_size) // b)


def exceeds_level(count: int, ref_size: int, alpha: float, ties: int = 0, u: float = 0.0) -> bool:
    """Exact test of (count + u * ties) / ref_size > alpha on the binary
    values of alpha and of the tie-break uniform u."""
    if ref_size <= 0:
        raise DomainError("ref_size must be >= 1")
    a, b = float(alpha).as_integer_ratio()
    c, d = float(u).as_integer_ratio()
    return b * (d * count + c * ties) > a * d * ref_size


def weighted_quantile(beta: float, values: Sequence[float], weights: Sequence[float]) -> float:
    """inf{z : sum of weights with value <= z reaches beta of the total}.

    Always returns one of the input values.  Requires equal lengths,
    strictly positive total weight and ``0 < beta <= 1``.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape or v.ndim != 1:
        raise DomainError("values and weights must be 1-d of equal length")
    if np.any(w < 0):
        raise DomainError("weights must be non-negative")
    total = float(w.sum())
    if total <= 0:
        raise DomainError("total weight must be positive")
    if not 0 < beta <= 1:
        raise DomainError(f"quantile level must be in (0, 1], got {beta}")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, beta * total, side="left"))
    idx = min(idx, v.size - 1)  # float slack at beta == 1
    return float(v[order][idx])
