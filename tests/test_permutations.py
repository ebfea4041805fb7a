import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.errors import DomainError
from pemi.permutations import (
    permute_with_imputation,
    row_uniforms,
    sample_permutations,
)
from pemi.types import DataSequence

from conftest import make_sequence


def test_t1_all_identity():
    sample = sample_permutations(t=1, M=5, seed=7)
    assert sample.m == 5
    assert np.array_equal(sample.matrix, np.zeros((5, 1), dtype=np.int64))


def test_m0_empty():
    sample = sample_permutations(t=3, M=0, seed=0)
    assert sample.m == 0
    assert sample.matrix.shape == (0, 3)


def test_deterministic_regeneration():
    a = sample_permutations(t=5, M=100, seed=42)
    b = sample_permutations(t=5, M=100, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    c = sample_permutations(t=5, M=100, seed=43)
    assert not np.array_equal(a.matrix, c.matrix)


def test_t0_domain_error():
    with pytest.raises(DomainError):
        sample_permutations(t=0, M=1, seed=0)


@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 2**63 - 1))
def test_rows_are_bijections(t, M, seed):
    sample = sample_permutations(t=t, M=M, seed=seed)
    expect = np.arange(t)
    for row in sample.matrix:
        assert np.array_equal(np.sort(row), expect)


def test_stream_split_rows_standalone():
    """Row i is a pure function of (seed, domain, i): the uniforms behind it
    can be regenerated without generating rows < i."""
    t, M, seed = 6, 37, 991
    sample = sample_permutations(t=t, M=M, seed=seed)
    # regenerate row 29 alone through the documented per-row uniforms
    from pemi.permutations import _fisher_yates_rows  # test-only reach-in

    u = row_uniforms(seed, t, 29)
    row = _fisher_yates_rows(u.reshape(1, -1), t)[0]
    assert np.array_equal(row, sample.matrix[29])


def test_uniformity_t3():
    sample = sample_permutations(t=3, M=60_000, seed=2024)
    codes = sample.matrix[:, 0] * 9 + sample.matrix[:, 1] * 3 + sample.matrix[:, 2]
    _, counts = np.unique(codes, return_counts=True)
    assert counts.shape[0] == 6
    freq = counts / 60_000
    assert np.all(np.abs(freq - 1 / 6) < 0.01)


def test_extended_range_includes_offline():
    sample = sample_permutations(t=3, M=4, seed=5, n_offline=2)
    assert sample.n_points == 5
    assert sample.index_start == -1
    assert sample.matrix.shape == (4, 5)


# -- application with imputation -------------------------------------------


def test_identity_application_roundtrip(rng):
    seq = make_sequence(rng, t=5)
    out = permute_with_imputation(seq, np.arange(5), y=2.5)
    # identity keeps the test point in the final slot: no imputed label in the
    # prefix, and dropping the imputation reproduces the sequence exactly
    assert np.array_equal(out.prefix_x, seq.x)
    assert np.array_equal(out.prefix_y, seq.y)
    assert np.array_equal(out.final_x, seq.test_x)


def test_swap_t2():
    seq = DataSequence(x=[[1.0]], y=[4.0], test_x=[9.0])
    out = permute_with_imputation(seq, np.array([1, 0]), y=-3.0)
    assert out.prefix_x[0, 0] == 9.0 and out.prefix_y[0] == -3.0
    assert out.final_x[0] == 1.0


def test_three_cycle_hand_applied():
    # slot s holds original index order[s]; order = (2, 0, 1) in 0-based slots
    seq = DataSequence(x=[[10.0], [20.0]], y=[1.0, 2.0], test_x=[30.0])
    out = permute_with_imputation(seq, np.array([2, 0, 1]), y=0.5)
    # slot 1 gets the test point with the imputed label, slot 2 exposes x of point 1
    assert out.prefix_x[0, 0] == 30.0 and out.prefix_y[0] == 0.5
    assert out.prefix_x[1, 0] == 10.0 and out.prefix_y[1] == 1.0
    assert out.final_x[0] == 20.0


def test_domain_mismatch_rejected(rng):
    seq = make_sequence(rng, t=4)
    with pytest.raises(DomainError):
        permute_with_imputation(seq, np.arange(3), y=0.0)


def test_cutoffs_travel_with_points(rng):
    seq = make_sequence(rng, t=3, cutoffs=True)
    out = permute_with_imputation(seq, np.array([2, 0, 1]), y=0.0)
    assert out.prefix_cutoffs[0] == seq.test_cutoff
    assert out.final_cutoff == seq.cutoffs[1]


def test_offline_slots_keep_designation(rng):
    seq = make_sequence(rng, t=3, n_offline=2)
    order = np.array([4, 1, 0, 2, 3])
    out = permute_with_imputation(seq, order, y=1.5)
    assert out.n_offline == 2
    assert out.prefix_y[0] == 1.5  # test point moved into the first offline slot
    assert out.length == 5
