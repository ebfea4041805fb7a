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

import numpy as np

from .errors import DomainError

__all__ = [
    "kth_smallest_or_inf",
    "coverage_rank",
    "exceeds_level",
]


def kth_smallest_or_inf(k: int | np.ndarray, values) -> float | list[float]:
    """k-th smallest of ``values`` along the last axis; ``-inf`` for k <= 0,
    ``+inf`` for k > len (k is 1-based).

    One rank ``k`` (not an array) and an (n,) array give a float, through
    an O(n) partition.  An (R,) array of ranks and an (R, n) array give
    each row's entry at its own rank, as a list: the rows are sorted in
    one call, and a row padded with ``+inf`` reads ``+inf`` past its real
    entries, as a shorter row would.
    """
    v = np.asarray(values, dtype=float)
    if not isinstance(k, np.ndarray):
        if k <= 0:
            return -math.inf
        if k > v.size:
            return math.inf
        return float(np.partition(v, k - 1)[k - 1])
    n = v.shape[-1]
    # each row sorted between a -inf and a +inf end: rank k is entry k, clipped to the ends
    framed = np.empty(v.shape[:-1] + (n + 2,))
    framed[..., 0], framed[..., -1] = -math.inf, math.inf
    framed[..., 1:-1] = v
    framed[..., 1:-1].sort(axis=-1)
    at = np.minimum(np.maximum(k, 0), n + 1)
    return framed[(*np.indices(np.shape(at), sparse=True), at)].tolist()


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
