import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.scores import AbsoluteResidualScore, LinearModel, QuantileIntervalScore
from pemi.sets import (
    CutoffPiecewiseSet,
    FiniteLabelSet,
    IntervalUnionSet,
    ThresholdSet,
)

MODEL = LinearModel(intercept=0.5, coef=(2.0,))
SCORE = AbsoluteResidualScore(model=MODEL)
X = np.array([1.0])  # prediction = 2.5


@given(st.floats(-20, 20), st.floats(-1, 8))
def test_sublevel_is_exactly_the_sublevel_set(y, tau):
    inside = any(lo <= y <= hi for lo, hi in SCORE.sublevel(X, tau))
    assert inside == (SCORE.of_point(X, y) <= tau)


def test_quantile_interval_score_sublevel():
    score = QuantileIntervalScore(
        lower_model=LinearModel(0.0, (1.0,)), upper_model=LinearModel(1.0, (1.0,))
    )
    x = np.array([2.0])  # band [2, 3]
    assert score.of_point(x, 2.5) == -0.5
    assert score.sublevel(x, 0.5) == ((1.5, 3.5),)
    for y in (1.5, 2.0, 3.49, 3.51):
        inside = any(lo <= y <= hi for lo, hi in score.sublevel(x, 0.5))
        assert inside == (score.of_point(x, y) <= 0.5)


def test_threshold_set_membership_and_measure():
    s = ThresholdSet(1.5)
    assert s.contains(2.5, SCORE, X) and s.contains(4.0, SCORE, X)
    assert not s.contains(4.01, SCORE, X)
    assert s.measure(SCORE, X) == pytest.approx(3.0)
    assert ThresholdSet(math.inf).measure(SCORE, X) == math.inf
    assert ThresholdSet(-math.inf).measure(SCORE, X) == 0.0


def test_exclusive_threshold_boundary():
    s = ThresholdSet(1.5, inclusive=False)
    assert s.contains(3.999, SCORE, X)
    assert not s.contains(4.0, SCORE, X)  # score exactly 1.5
    assert s.measure(SCORE, X) == pytest.approx(3.0)


def test_cutoff_piecewise_set():
    s = CutoffPiecewiseSet(cutoff=2.5, q_above=0.5, q_below=2.0)
    # below the cutoff the radius-2 band applies, above only radius 0.5
    assert s.contains(0.5, SCORE, X)  # v = 2.0 <= q_below
    assert not s.contains(0.4, SCORE, X)
    assert s.contains(3.0, SCORE, X)  # v = 0.5 <= q_above
    assert not s.contains(3.01, SCORE, X)
    # membership switches exactly at the cutoff side
    assert s.contains(2.5, SCORE, X)
    assert s.measure(SCORE, X) == pytest.approx((2.5 - 0.5) + (3.0 - 2.5))
    assert math.isinf(CutoffPiecewiseSet(2.5, math.inf, 1.0).measure(SCORE, X))


def test_interval_union_set():
    s = IntervalUnionSet(
        breakpoints=(2.0, 3.0),
        thresholds=(0.1, math.inf, 0.2),
        boundary_included=(False, True),
    )
    assert not s.contains(2.0, SCORE, X)
    assert s.contains(3.0, SCORE, X)
    assert s.contains(2.5, SCORE, X)  # middle interval has an infinite threshold
    assert s.contains(2.0001, SCORE, X)
    assert not s.contains(1.0, SCORE, X)  # v = 0.5 > 0.1 in the first interval
    # only the middle interval contributes: its whole width under an inf threshold
    assert s.measure(SCORE, X) == pytest.approx(1.0)
    assert math.isinf(IntervalUnionSet((), (math.inf,), ()).measure(SCORE, X))


def test_interval_union_validation():
    with pytest.raises(ValueError):
        IntervalUnionSet((1.0,), (0.1,), (True,))
    with pytest.raises(ValueError):
        IntervalUnionSet((2.0, 1.0), (0.1, 0.1, 0.1), (True, True))


def test_interval_union_measure_clips_to_intervals():
    s = IntervalUnionSet(breakpoints=(2.5,), thresholds=(1.0, 0.0), boundary_included=(False,))
    # sublevel(1.0) = [1.5, 3.5] clipped to (-inf, 2.5); sublevel(0) = {2.5} clipped to (2.5, inf)
    assert s.measure(SCORE, X) == pytest.approx(1.0)


def test_finite_label_set():
    s = FiniteLabelSet(labels=(1.0, 3.0))
    assert s.contains(1.0) and not s.contains(2.0)
    assert s.measure() == 0.0
    assert s.intervals() == ((1.0, 1.0), (3.0, 3.0))
