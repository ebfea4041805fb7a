import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.engine import reference_mask
from pemi.errors import DomainError
from pemi.permutations import row_uniforms, sample_permutations
from pemi.rules import SelectionRule
from pemi.types import DataSequence, MultiTestData

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


# SHA-256 of the matrix bytes; any change to the Philox stream, the
# uniforms-to-swap map or the matrix layout moves them.
PERMUTATION_DIGESTS = [
    ((1, 5, 3, 0), "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb"),
    ((2, 7, 11, 0), "2325a56545f56707f54787c4c9976ec8153bdd4149d5abb1be513f3a7581590e"),
    ((5, 100, 13, 0), "890323fea74a42ae25c3559087e1d17e93f06386390837c0938ac7f837c48080"),
    ((60, 200, 17, 0), "bc330d76d92786feb6e5a4549a0b789d8ed482d439f34d5ff50e150a33f16bc9"),
    ((60, 200, 19, 20), "6ad1b442d3f1b8fc0e995eb7fa1823ad4e7b9b101af5ffead9a6d2220b32cd66"),
    ((5, 0, 23, 0), hashlib.sha256(b"").hexdigest()),
]


@pytest.mark.parametrize(
    "args, digest", PERMUTATION_DIGESTS, ids=[f"t{a[0]}-M{a[1]}-off{a[3]}" for a, _ in PERMUTATION_DIGESTS]
)
def test_sample_bits_are_pinned(args, digest):
    t, M, seed, n_offline = args
    matrix = sample_permutations(t, M, seed, n_offline).matrix
    assert matrix.dtype == np.int64 and matrix.shape == (M, t + n_offline)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == digest


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


# -- the replay step: slot order, the test label left NaN --------------------


class EchoRule(SelectionRule):
    """A point's value is its first covariate beside its cutoff (NaN without
    cutoffs), so the replayed arguments show where every point went."""

    def point_values(self, X, cutoffs=None):
        return np.column_stack([X[:, 0], np.full(X.shape[0], np.nan) if cutoffs is None else cutoffs])

    def decide(self, values, labels, cutoffs, n_offline):
        return True


def test_identity_application_roundtrip(rng):
    seq = make_sequence(rng, t=5)
    values, labels, cutoffs, n_offline = EchoRule().replay(seq)
    # the observed order keeps the test point in the final slot: no NaN
    # label among the labeled slots, and the sequence comes back unchanged
    assert np.array_equal(values[:, 0], seq.full_x()[:, 0])
    assert np.array_equal(labels, seq.y)
    assert cutoffs is None and n_offline == 0
    values, labels, _, _ = EchoRule().replay(seq, np.arange(5))
    assert np.array_equal(values[:, 0], seq.full_x()[:, 0]) and np.array_equal(labels, seq.y)


def test_swap_t2():
    seq = DataSequence(x=[[1.0]], y=[4.0], test_x=[9.0])
    values, labels, _, _ = EchoRule().replay(seq, np.array([1, 0]))
    assert values[0, 0] == 9.0 and math.isnan(labels[0])
    assert values[1, 0] == 1.0


def test_three_cycle_hand_applied():
    # slot s holds original index order[s]; order = (2, 0, 1) in 0-based slots
    seq = DataSequence(x=[[10.0], [20.0]], y=[1.0, 2.0], test_x=[30.0])
    values, labels, _, _ = EchoRule().replay(seq, np.array([2, 0, 1]))
    # slot 0 gets the test point with its NaN label, the final slot exposes x of point 1
    assert values[0, 0] == 30.0 and math.isnan(labels[0])
    assert values[1, 0] == 10.0 and labels[1] == 1.0
    assert values[2, 0] == 20.0 and labels.shape == (2,)


def test_a_matrix_of_orders_stacks_each_order_s_arguments(rng):
    """An (R, n) matrix of orders gives, row by row, the arguments of each
    order on its own: every value, label and cutoff where its order puts it,
    and the test label NaN wherever it lands."""
    seq = make_sequence(rng, t=4, cutoffs=True, n_offline=2)
    orders = np.array([np.arange(6), [5, 0, 1, 2, 3, 4], [2, 5, 4, 0, 1, 3], [0, 1, 2, 3, 5, 4]])
    values, labels, cutoffs, n_offline = EchoRule().replay(seq, orders)
    assert (values.shape, labels.shape, cutoffs.shape, n_offline) == ((4, 6, 2), (4, 5), (4, 5), 2)
    for r, order in enumerate(orders):
        assert np.array_equal(values[r][:, 0], seq.full_x()[order, 0])
        assert np.array_equal(values[r][:, 1], seq.full_cutoffs()[order])
        assert np.array_equal(cutoffs[r], seq.full_cutoffs()[order[:-1]])
        assert np.array_equal(labels[r], seq.full_y()[order[:-1]], equal_nan=True)
        assert np.isnan(labels[r]).tolist() == (order[:-1] == 5).tolist()
        row = EchoRule().replay(seq, order)
        for a, b in zip(row[:3], (values[r], labels[r], cutoffs[r])):
            assert np.array_equal(a, b, equal_nan=True)


def test_domain_mismatch_rejected(rng):
    seq = make_sequence(rng, t=4)
    with pytest.raises(DomainError):
        reference_mask(0.0, seq, EchoRule(), sample_permutations(3, 2, seed=0))


def test_cutoffs_travel_with_points(rng):
    seq = make_sequence(rng, t=3, cutoffs=True)
    values, _, cutoffs, _ = EchoRule().replay(seq, np.array([2, 0, 1]))
    assert cutoffs[0] == seq.test_cutoff and cutoffs[1] == seq.cutoffs[0]
    assert values[0, 1] == seq.test_cutoff
    assert values[2, 1] == seq.cutoffs[1]  # the final slot's cutoff reaches its value


def test_offline_slots_keep_designation(rng):
    seq = make_sequence(rng, t=3, n_offline=2)
    order = np.array([4, 1, 0, 2, 3])
    values, labels, _, n_offline = EchoRule().replay(seq, order)
    assert n_offline == 2
    assert math.isnan(labels[0])  # test point moved into the first offline slot
    assert values[0, 0] == seq.test_x[0] and values.shape[0] == 5 and labels.shape == (4,)


def test_full_cutoffs_is_read_only_and_checks_the_offline_block():
    seq = DataSequence(x=[[0.0], [1.0]], y=[0.0, 1.0], test_x=[2.0], cutoffs=[0.5, 0.6], test_cutoff=0.7)
    cut = seq.full_cutoffs()
    assert cut.tolist() == [0.5, 0.6, 0.7]
    assert seq.full_cutoffs() is cut
    with pytest.raises(ValueError):
        cut[0] = 1.0
    with pytest.raises(DomainError, match="offline cutoffs missing"):
        DataSequence(
            x=[[0.0]], y=[0.0], test_x=[2.0], cutoffs=[0.5], test_cutoff=0.7,
            offline_x=[[3.0]], offline_y=[3.0],
        )


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "bad",
    [
        dict(x=[[NAN], [1.0]]),
        dict(test_x=[INF]),
        dict(offline_x=[[NAN]], offline_y=[3.0]),
        dict(offline_x=[[3.0]], offline_y=[-INF]),
        dict(cutoffs=[NAN, 0.6], test_cutoff=0.7),
        dict(cutoffs=[0.5, 0.6], test_cutoff=NAN),
        dict(offline_x=[[3.0]], offline_y=[3.0], offline_cutoffs=[NAN], cutoffs=[0.5, 0.6], test_cutoff=0.7),
    ],
)
def test_non_finite_sequence_input_is_rejected(bad):
    kw = dict(x=[[0.0], [1.0]], y=[0.0, 1.0], test_x=[2.0])
    with pytest.raises(DomainError):
        DataSequence(**{**kw, **bad})


@pytest.mark.parametrize(
    "dropped",
    [
        dict(test_cutoff=NAN),
        dict(test_cutoff=0.7),
        dict(offline_x=[[3.0]], offline_y=[3.0], offline_cutoffs=[0.5]),
    ],
)
def test_cutoffs_without_history_cutoffs_are_rejected(dropped):
    # without the history ``cutoffs`` they would be accepted and ignored
    kw = dict(x=[[0.0]], y=[1.0], test_x=[2.0])
    with pytest.raises(DomainError, match="history cutoffs"):
        DataSequence(**{**kw, **dropped})


def test_infinite_cutoffs_are_allowed():
    seq = DataSequence(x=[[0.0], [1.0]], y=[0.0, 1.0], test_x=[2.0], cutoffs=[-INF, 0.6], test_cutoff=INF)
    assert seq.full_cutoffs().tolist() == [-INF, 0.6, INF]


@pytest.mark.parametrize("field", ["calib_x", "calib_y", "test_x"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_non_finite_multi_test_input_is_rejected(field, value):
    kw = dict(calib_x=[[0.0], [1.0]], calib_y=[0.0, 1.0], test_x=[[2.0], [3.0]])
    bad = np.array(kw[field], dtype=float)
    bad.flat[0] = value
    with pytest.raises(DomainError):
        MultiTestData(**{**kw, field: bad})
