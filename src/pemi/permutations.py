"""Seeded permutation sampling and imputation-aware application.

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
from .types import DataSequence, OrderedSequence, PermutationSample

__all__ = [
    "sample_permutations",
    "permute_with_imputation",
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
    """Shuffle ``arange(n_points)`` per row; step k uses column n-1-k."""
    m = uniforms.shape[0]
    perms = np.tile(np.arange(n_points, dtype=np.int64), (m, 1))
    rows = np.arange(m)
    for k in range(n_points - 1, 0, -1):
        j = (uniforms[:, n_points - 1 - k] * (k + 1)).astype(np.int64)
        np.minimum(j, k, out=j)  # guard the u -> 1.0 rounding corner
        col_k = perms[rows, k].copy()
        perms[rows, k] = perms[rows, j]
        perms[rows, j] = col_k
    return perms


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
    return PermutationSample(matrix=matrix, seed=seed, n_points=n_points, index_start=index_start)


def permute_with_imputation(seq: DataSequence, order: np.ndarray, y: float) -> OrderedSequence:
    """Reorder a sequence by ``order`` with ``y`` imputed for the test label.

    ``order[s]`` is the slot whose point moves to slot ``s``.  The slot
    holding the test point carries ``(test_x, y)`` whenever it lands in a
    labeled position; the final slot exposes covariates only.  Cutoffs
    travel with their points.
    """
    order = np.asarray(order, dtype=np.int64)
    n = seq.n_slots
    if order.shape != (n,):
        raise DomainError(f"permutation domain size {order.shape} != sequence slots {n}")
    full_x = seq.full_x()
    full_y = seq.full_y()
    cut = seq.full_cutoffs()

    head = order[:-1]
    prefix_y = full_y[head]
    test_slot = n - 1
    prefix_y[head == test_slot] = y
    return OrderedSequence(
        prefix_x=full_x[head],
        prefix_y=prefix_y,
        final_x=full_x[order[-1]],
        prefix_cutoffs=None if cut is None else cut[head],
        final_cutoff=None if cut is None else float(cut[order[-1]]),
        n_offline=seq.n_offline,
    )


def identity_sequence(seq: DataSequence, y: float) -> OrderedSequence:
    """The unpermuted sequence with ``y`` imputed (identity application)."""
    return permute_with_imputation(seq, np.arange(seq.n_slots), y)
