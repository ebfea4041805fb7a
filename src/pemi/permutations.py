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

from typing import Callable

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
    return PermutationSample(matrix=matrix, seed=seed, n_points=n_points, index_start=index_start)


def permute_with_imputation(seq: DataSequence, order: np.ndarray, y: float) -> OrderedSequence:
    """Reorder a sequence by ``order`` with ``y`` imputed for the test label.

    ``order[s]`` is the slot whose point moves to slot ``s``.  The slot
    holding the test point carries ``(test_x, y)`` whenever it lands in a
    labeled position; the final slot exposes covariates only.  Cutoffs
    travel with their points.
    """
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (seq.n_slots,):
        raise DomainError(f"permutation domain size {order.shape} != sequence slots {seq.n_slots}")
    head, last = order[:-1], order[-1]
    full_x, cut = seq.full_x(), seq.full_cutoffs()
    return OrderedSequence(
        prefix_x=full_x[head],
        prefix_y=np.append(seq.full_y()[:-1], y)[head],
        final_x=full_x[last],
        prefix_cutoffs=None if cut is None else cut[head],
        final_cutoff=None if cut is None else float(cut[last]),
        n_offline=seq.n_offline,
    )


def _impute_label(seq: DataSequence, y: float, rule) -> Callable[[np.ndarray], tuple]:
    """Impute ``y`` in the test slot and evaluate ``rule``'s point values once;
    the returned function gives the arguments of ``rule.decide`` under one order.

    A point's value depends on that point alone, so the row step only indexes the slot-order
    values, labels and cutoffs; ``order`` must be an int64 permutation of the slots (unchecked).
    """
    cut = seq.full_cutoffs()
    n_offline = seq.n_offline
    values = rule._slot_values(seq.full_x(), cut, n_offline)
    labels = np.append(seq.full_y()[:-1], y)

    def reorder(order: np.ndarray) -> tuple:
        head = order[:-1]
        return values[order], labels[head], None if cut is None else cut[head], n_offline

    return reorder


def identity_sequence(seq: DataSequence, y: float) -> OrderedSequence:
    """The unpermuted sequence with ``y`` imputed (identity application)."""
    return permute_with_imputation(seq, np.arange(seq.n_slots), y)
