import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.experiment import ColumnModel, CutoffScoreFromModel
from pemi.generators import GeneratorConfig, TrueMeanModel, generate
from pemi.rules import UncertaintyBudgetRule
from pemi.scores import AbsoluteResidualScore, LinearModel, fit_linear_model
from pemi.sets import (
    CutoffPiecewiseSet,
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


@pytest.mark.parametrize("q", [1.0, math.inf])
def test_no_label_lies_beyond_an_infinite_cutoff(q):
    # every finite label is above a cutoff of -inf and below one of +inf, so
    # the other side's threshold (even an infinite one) adds nothing
    for cutoff, kept in ((-math.inf, "q_above"), (math.inf, "q_below")):
        thresholds = {"q_above": math.inf, "q_below": math.inf, kept: q}
        s = CutoffPiecewiseSet(cutoff=cutoff, **thresholds)
        assert s.intervals(SCORE, X) == ThresholdSet(q).intervals(SCORE, X)
        assert s.measure(SCORE, X) == ThresholdSet(q).measure(SCORE, X)
        assert s.contains(3.5, SCORE, X) and s.contains(3.6, SCORE, X) == math.isinf(q)


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


def test_linear_model_row_does_not_depend_on_its_batch():
    """The closed forms and the engine evaluate the same point in batches of
    different sizes; both must see the same float."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 21))
        model = LinearModel(float(rng.normal()), tuple(float(c) for c in rng.normal(size=d)))
        X = rng.normal(size=(int(rng.integers(2, 10)), d))
        batch = model(X)
        for i in range(X.shape[0]):
            assert batch[i] == model(X[i])[0]


def _reachable_point_values():
    """Every model a config can reach, as a map from rows (and cutoffs) to one value per row."""
    nonlinear = GeneratorConfig("nonlinear_1d", sigma=1.0, offset=5.0)
    setting3 = GeneratorConfig("setting3_20d")
    fitted = fit_linear_model(*generate(setting3, 500, np.random.default_rng(1)))
    budget = UncertaintyBudgetRule(
        models=(TrueMeanModel(setting3), fitted, ColumnModel(3)), gamma=0.5
    )
    return {
        "true_mean_nonlinear_1d": (1, lambda X, c: TrueMeanModel(nonlinear)(X)),
        "true_mean_setting3_20d": (20, lambda X, c: TrueMeanModel(setting3)(X)),
        "column": (20, lambda X, c: ColumnModel(7)(X)),
        "linear_fit": (20, lambda X, c: fitted(X)),
        "cutoff_score": (20, CutoffScoreFromModel(TrueMeanModel(setting3))),
        "uncertainty_budget": (20, lambda X, c: budget.point_values(X)),
    }


@pytest.mark.parametrize("name", sorted(_reachable_point_values()))
def test_reachable_model_row_does_not_depend_on_its_batch(name):
    """The engine indexes point values computed on the whole sequence, while
    ``select`` on a permuted sequence computes them on the permuted rows; a
    row's value must be the same float alone, in its batch and in a permuted
    batch, for every model a config can reach."""
    d, values_of = _reachable_point_values()[name]
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 80))
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        c = rng.normal(size=n)
        batch = values_of(X, c)
        perm = rng.permutation(n)
        assert np.array_equal(values_of(X[perm], c[perm]), batch[perm])
        for i in range(n):
            assert values_of(X[i : i + 1], c[i : i + 1])[0] == batch[i]
