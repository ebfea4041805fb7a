import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.errors import DomainError
from pemi.quantiles import (
    coverage_rank,
    kth_smallest_or_inf,
    weighted_quantile,
)


def test_weighted_quantile_examples():
    assert weighted_quantile(1.0, [5, 1, 3], [1, 1, 1]) == 5
    assert weighted_quantile(0.5, [1, 2, 3], [1, 1, 2]) == 2
    assert weighted_quantile(0.25, [7], [3]) == 7


def test_weighted_quantile_errors():
    with pytest.raises(DomainError):
        weighted_quantile(0.5, [1, 2], [0, 0])
    with pytest.raises(DomainError):
        weighted_quantile(0.0, [1], [1])
    with pytest.raises(DomainError):
        weighted_quantile(1.5, [1], [1])
    with pytest.raises(DomainError):
        weighted_quantile(0.5, [1, 2], [1])


def _brute_weighted_quantile(beta, values, weights):
    total = sum(weights)
    best = None
    for z in sorted(values):
        mass = sum(w for v, w in zip(values, weights) if v <= z)
        if mass / total >= beta:
            best = z
            break
    return best


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=10),
    st.floats(0.05, 1.0),
)
def test_weighted_quantile_equal_weights_matches_unweighted(values, beta):
    got = weighted_quantile(beta, values, [1.0] * len(values))
    assert got == _brute_weighted_quantile(beta, values, [1.0] * len(values))


@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 5)), min_size=1, max_size=10),
    st.floats(0.05, 1.0),
)
def test_weighted_quantile_matches_brute_force(pairs, beta):
    values = [float(v) for v, _ in pairs]
    weights = [float(w) for _, w in pairs]
    if sum(weights) == 0:
        weights[0] = 1.0
    assert weighted_quantile(beta, values, weights) == _brute_weighted_quantile(
        beta, values, weights
    )


def test_kth_smallest_bounds():
    assert kth_smallest_or_inf(0, [1, 2]) == -math.inf
    assert kth_smallest_or_inf(3, [1, 2]) == math.inf
    assert kth_smallest_or_inf(2, [5, 1, 9]) == 5


def test_coverage_rank_exact_over_floats():
    # ceil((1-alpha) * n) must never drift across integers through rounding
    assert coverage_rank(0.4, 10) == 6
    assert coverage_rank(0.4, 5) == 3
    assert coverage_rank(0.25, 8) == 6
    assert coverage_rank(0.1, 30) == 27
    for n in range(1, 200):
        assert coverage_rank(0.4, n) == math.ceil(round((1 - 0.4) * n, 9) - 1e-9)
