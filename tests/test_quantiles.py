import math

import numpy as np

from pemi.quantiles import coverage_rank, kth_smallest_or_inf


def test_kth_smallest_bounds():
    assert kth_smallest_or_inf(0, [1, 2]) == -math.inf
    assert kth_smallest_or_inf(3, [1, 2]) == math.inf
    assert kth_smallest_or_inf(2, [5, 1, 9]) == 5


def test_a_rank_per_row_reads_each_row_as_one_rank_does():
    """The stacked sort gives every row the single-rank partition's float,
    ends included, and a row padded with +inf reads as its shorter row."""
    rng = np.random.default_rng(0)
    rows = np.round(rng.normal(size=(6, 9)), 1)  # ties
    rows[1, 3], rows[2, :] = -math.inf, math.inf
    ranks = np.array([-1, 0, 1, 5, 9, 10])
    want = [kth_smallest_or_inf(int(k), row) for k, row in zip(ranks, rows)]
    assert kth_smallest_or_inf(ranks, rows) == want
    assert want[0] == want[1] == -math.inf and want[5] == math.inf
    short = rows[3, :4]
    padded = np.concatenate((short, [math.inf] * 5))
    assert [kth_smallest_or_inf(np.array([k]), padded[None])[0] for k in range(6)] == [
        kth_smallest_or_inf(k, short) for k in range(6)
    ]


def test_coverage_rank_exact_over_floats():
    # ceil((1-alpha) * n) must never drift across integers through rounding
    assert coverage_rank(0.4, 10) == 6
    assert coverage_rank(0.4, 5) == 3
    assert coverage_rank(0.25, 8) == 6
    assert coverage_rank(0.1, 30) == 27
    for n in range(1, 200):
        assert coverage_rank(0.4, n) == math.ceil(round((1 - 0.4) * n, 9) - 1e-9)
