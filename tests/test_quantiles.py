import math

from pemi.quantiles import coverage_rank, kth_smallest_or_inf


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
