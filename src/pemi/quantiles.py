"""Quantile primitives used by every calibration formula in the package.

Two distinct conventions coexist and are kept separate on purpose:

* the closed-form prediction-set thresholds take the rank
  ``coverage_rank(alpha, ref_size)`` *within* the moved-in scores through
  ``kth_smallest_or_inf``, which falls back to ``+inf`` when the rank
  exceeds their number;
* ``inflated_quantile`` ranks within the multiset *plus one* appended
  ``+inf`` element — the usual split-conformal calibration quantile.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "kth_smallest_or_inf",
    "inflated_quantile",
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
    frac = (1 - Fraction(alpha)) * ref_size
    return -(-frac.numerator // frac.denominator)


def exceeds_level(count: int, ref_size: int, alpha: float) -> bool:
    """Exact test of count / ref_size > alpha on the binary value of alpha."""
    if ref_size <= 0:
        raise DomainError("ref_size must be >= 1")
    frac = Fraction(alpha)
    return count * frac.denominator > frac.numerator * ref_size


def inflated_quantile(beta: float, values) -> float:
    """Quantile of ``values + [+inf]`` at level ``beta`` (rank over n+1)."""
    if beta <= 0:
        raise DomainError(f"quantile level must be > 0, got {beta}")
    v = np.asarray(values, dtype=float)
    frac = Fraction(beta) * (v.size + 1)
    k = -(-frac.numerator // frac.denominator)
    return kth_smallest_or_inf(k, v)


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
