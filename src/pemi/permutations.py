"""Seeded permutation sampling.

Sampling uses the counter-based Philox generator keyed by ``(seed, domain
size)``, so a sample is a pure function of ``(seed, t, M)`` on every
platform.  Each row consumes a counter-aligned block of uniforms, which
makes row ``i`` reproducible on its own (``row_uniforms``) without
generating rows ``< i`` — permutations can therefore be produced or
verified in parallel.  Shuffling is explicit Fisher-Yates driven by those
uniforms.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .types import PermutationSample

__all__ = [
    "sample_permutations",
    "row_uniforms",
]

_MASK64 = (1 << 64) - 1


def _philox_key(seed: int, n_points: int) -> np.ndarray:
    return np.array([seed & _MASK64, n_points & _MASK64], dtype=np.uint64)


def _uniform_block_len(n_points: int) -> int:
    """Uniform draws per row, padded so rows start on Philox counter blocks."""
    need = max(n_points - 1, 0)
    return -(-need // 4) * 4


def row_uniforms(seed: int, n_points: int, i: int) -> np.ndarray:
    """The uniform draws behind row ``i`` of a sample, generated standalone."""
    k = _uniform_block_len(n_points)
    if k == 0:
        return np.empty(0)
    bg = np.random.Philox(key=_philox_key(seed, n_points))
    bg.advance(i * (k // 4))
    return np.random.Generator(bg).random(k)


def _fisher_yates_rows(uniforms: np.ndarray, n_points: int) -> np.ndarray:
    """Shuffle ``arange(n_points)`` per row; step k uses column n-1-k.

    All swap targets are drawn up front and the shuffle runs slot-major
    (entry ``k * m + r`` holds slot k of row r), so each step swaps one
    contiguous block of ``m`` entries with a gather, then transposes once.
    """
    m = uniforms.shape[0]
    ks = np.arange(n_points - 1, 0, -1)
    swaps = (uniforms[:, : n_points - 1] * (ks + 1)).astype(np.int64)
    np.minimum(swaps, ks, out=swaps)  # guard the u -> 1.0 rounding corner
    targets = swaps.T * m + np.arange(m)
    slots = np.repeat(np.arange(n_points, dtype=np.int64), m)
    for step, k in enumerate(ks.tolist()):
        block = slice(k * m, (k + 1) * m)
        j = targets[step]
        held = slots[block].copy()
        slots[block] = slots[j]
        slots[j] = held
    return np.ascontiguousarray(slots.reshape(n_points, m).T)


def sample_permutations(
    t: int, M: int, seed: int, n_offline: int = 0
) -> PermutationSample:
    """Draw ``M`` i.i.d. uniform permutations of the slot range at time ``t``.

    With an offline block the domain extends to all ``n_offline + t``
    slots.  ``M = 0`` yields an empty sample; ``t < 1`` is a domain error.
    Two calls with equal ``(seed, t, M, n_offline)`` return identical bits.
    """
    if t < 1:
        raise DomainError(f"time index must be >= 1, got {t}")
    if M < 0:
        raise DomainError(f"sample size must be >= 0, got {M}")
    if n_offline < 0:
        raise DomainError(f"offline size must be >= 0, got {n_offline}")
    n_points = n_offline + t
    index_start = 1 - n_offline
    k = _uniform_block_len(n_points)
    if M == 0 or k == 0:
        matrix = np.tile(np.arange(n_points, dtype=np.int64), (M, 1))
    else:
        gen = np.random.Generator(np.random.Philox(key=_philox_key(seed, n_points)))
        uniforms = gen.random((M, k))
        matrix = _fisher_yates_rows(uniforms, n_points)
    return PermutationSample(matrix=matrix, n_points=n_points, index_start=index_start)
