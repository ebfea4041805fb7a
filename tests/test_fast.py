import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pemi import fast
from pemi.crosscheck import FAMILIES, check_instance, draw_instance
from pemi.engine import SelectionPValue, TopPredictionRule, pemi_pvalue, pemi_set_grid, reference_mask
from pemi.errors import ConfigurationError, DomainError, PemiError, PreconditionError
from pemi.oracle import all_orders_sample
from pemi.permutations import sample_permutations
from pemi.quantiles import kth_smallest_or_inf
from pemi.rules import (
    AlwaysSelectRule,
    ConformalPValueRule,
    DecisionDrivenRule,
    EarlierOutcomeRule,
    ELondRule,
    NeverSelectRule,
    SelectionTaxonomy,
    UncertaintyBudgetRule,
    WeightedPredictionRule,
    weighted_pvalue_history,
)
from pemi.scores import AbsoluteResidualScore, LinearModel
from pemi.sets import CutoffPiecewiseSet, IntervalUnionSet
from pemi.thresholds import FixedThreshold
from pemi.types import DataSequence, MultiTestData

from conftest import closed_form_is_the_engine, make_sequence
from oracle_refs import full_pemi_set_grid

MU = LinearModel(intercept=0.0, coef=(1.0, 0.0))
MU1 = LinearModel(intercept=0.0, coef=(1.0,))  # identity on 1-d features


def test_rank_arithmetic_examples():
    # |ref| = 10, |moved| = 7, alpha = 0.4 -> rank 6 -> 6th smallest of 7
    scores = np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5])
    from pemi.quantiles import coverage_rank

    assert coverage_rank(0.4, 10) == 6
    assert kth_smallest_or_inf(6, scores) == 5.5
    # |moved| = 4: rank 6 > 4 -> +inf
    assert kth_smallest_or_inf(6, scores[:4]) == math.inf


def test_covariate_set_requires_selection(rng, residual_score):
    """On every call: a failed reference is not kept for the next one."""
    data = make_sequence(rng, t=4)
    perms = sample_permutations(4, 6, seed=0)
    rule = NeverSelectRule()
    for _ in range(2):
        with pytest.raises(PreconditionError):
            fast.covariate_set(data, rule, residual_score, perms, 0.4)
        with pytest.raises(PreconditionError):
            fast.covariate_set_randomized(data, rule, residual_score, perms, 0.4, 0.5)


def test_covariate_reference_is_built_once_per_argument_identity(rng, residual_score, monkeypatch):
    """The deterministic and randomized sets of one step calibrate one
    reference; an equal but distinct sequence or sample builds it again."""
    data = make_sequence(rng, t=6)
    rule = DecisionDrivenRule(tau0=6.0, tau1=-10.0, mu=MU)
    perms = sample_permutations(6, 20, seed=3)
    built = []
    observed = fast._observed
    monkeypatch.setattr(fast, "_observed", lambda *args: built.append(args) or observed(*args))
    det = fast.covariate_set(data, rule, residual_score, perms, 0.3)
    rand = fast.covariate_set_randomized(data, rule, residual_score, perms, 0.3, 0.5)
    assert len(built) == 1
    assert not fast._covariate_reference(data, rule, residual_score, perms, None).moved_scores.flags.writeable
    twin_data = dataclasses.replace(data)
    twin_perms = sample_permutations(6, 20, seed=3)
    assert np.array_equal(twin_data.full_x(), data.full_x()) and np.array_equal(twin_perms.matrix, perms.matrix)
    for d, p in ((twin_data, perms), (data, twin_perms)):
        assert fast.covariate_set(d, rule, residual_score, p, 0.3) == det
        assert fast.covariate_set_randomized(d, rule, residual_score, p, 0.3, 0.5) == rand
    assert len(built) == 3


def test_covariate_set_m0_is_everything(rng, residual_score):
    """With no sampled permutations the reference is the identity alone, so
    every constructor returns the whole label space."""
    data = make_sequence(rng, t=4)
    perms = sample_permutations(4, 0, seed=0)
    dset = fast.covariate_set(data, AlwaysSelectRule(), residual_score, perms, 0.4)
    assert dset.threshold == math.inf
    # the randomized p-value at M = 0 is u, kept above alpha here
    dset = fast.covariate_set_randomized(
        data, AlwaysSelectRule(), residual_score, perms, 0.4, u=0.9
    )
    assert dset.threshold == math.inf
    for family in ("conformal_fixed", "conformal_adaptive", "elond", "earlier_outcome"):
        inst = draw_instance(family, np.random.default_rng(5), 4)
        empty = sample_permutations(4, 0, seed=0, n_offline=inst.data.n_offline)
        dset = fast._closed_form(inst.data, inst.rule, inst.score, empty, inst.alpha)
        if isinstance(dset, CutoffPiecewiseSet):
            assert dset.q_above == dset.q_below == math.inf
        else:
            assert set(dset.thresholds) == {math.inf} and all(dset.boundary_included)
    calib = rng.normal(size=(4, 2))
    mt = MultiTestData(calib_x=calib, calib_y=calib[:, 0], test_x=rng.normal(size=(2, 2)))
    rule = TopPredictionRule(mu=MU, k=1)
    (j,) = rule.select(mt.calib_x, mt.calib_y, mt.test_x)
    perms = sample_permutations(5, 0, seed=0)
    dset = fast.multi_test_threshold_set(mt, j, rule, residual_score, perms, 0.4)
    assert dset.threshold == math.inf


def test_covariate_threshold_is_a_score_or_inf(rng, residual_score):
    for trial in range(10):
        data = make_sequence(rng, t=6)
        perms = sample_permutations(6, 12, seed=trial)
        dset = fast.covariate_set(data, AlwaysSelectRule(), residual_score, perms, 0.35)
        point_scores = set(residual_score.of_points(data.x, data.y))
        assert dset.threshold in point_scores | {math.inf}


def test_covariate_reference_is_label_free(rng, residual_score):
    """The generic reference mask is literally identical across candidate
    labels for a label-free rule (the closed form's premise)."""
    data = make_sequence(rng, t=6)
    rule = DecisionDrivenRule(tau0=6.0, tau1=0.0, mu=MU)
    perms = sample_permutations(6, 20, seed=3)
    masks = [reference_mask(float(y), data, rule, perms) for y in rng.normal(size=10)]
    for m in masks[1:]:
        assert np.array_equal(m, masks[0])


def test_uncertainty_budget_set_matches_engine_and_enumeration(rng, residual_score):
    models = (LinearModel(0.0, (1.0, 0.0)), LinearModel(0.0, (0.0, 1.0)))
    grid = np.linspace(-4, 4, 31)
    checked = 0
    for trial in range(200):
        t = int(rng.integers(2, 6))
        X = rng.normal(size=(t, 2))
        if trial % 2:
            X = np.round(X)  # tied disagreement values
        data = DataSequence(x=X[:-1], y=rng.normal(size=t - 1), test_x=X[-1])
        rule = UncertaintyBudgetRule(models=models, gamma=float(rng.uniform(0.2, 1.0)))
        if not rule.select(data):
            continue
        perms = sample_permutations(t, 20, seed=trial)
        dset = fast.covariate_set(data, rule, residual_score, perms, 0.4)
        generic = pemi_set_grid(grid, data, rule, residual_score, perms, 0.4)
        assert np.array_equal(generic, [dset.contains(float(y), residual_score, data.test_x) for y in grid])
        full = fast.covariate_set(data, rule, residual_score, all_orders_sample(t, skip_identity=True), 0.4)
        enumerated = full_pemi_set_grid(grid, data, rule, residual_score, 0.4)
        assert np.array_equal(enumerated, [full.contains(float(y), residual_score, data.test_x) for y in grid])
        checked += 1
        if checked >= 10:
            return
    pytest.fail("not enough selected instances drawn")


def test_randomized_u1_no_ties_equals_deterministic(rng, residual_score):
    """m = 19, 29 and 39 make reference sizes of 20, 30 and 40 when every row
    re-selects, where ``0.3 * ref_size`` rounds onto an integer."""
    for trial, m in itertools.product(range(10), (15, 19, 29, 39)):
        data = make_sequence(rng, t=6)
        for rule in (WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.5), AlwaysSelectRule()):
            if not rule.select(data):
                continue
            perms = sample_permutations(6, m, seed=trial)
            det = fast.covariate_set(data, rule, residual_score, perms, 0.3)
            rand = fast.covariate_set_randomized(data, rule, residual_score, perms, 0.3, u=1.0)
            assert rand.threshold == det.threshold


def test_randomized_u1_decides_exactly_where_alpha_times_ref_size_rounds():
    """0.3 * 10 rounds to 3.0, but 3 exceedances of 10 lie above alpha's
    binary value: at u = 1 the randomized form keeps the deterministic 8.0."""
    detail = fast.CalibrationDetail(10, np.arange(1.0, 10.0))
    assert detail.threshold(0.3).threshold == 8.0
    assert detail.threshold(0.3, u=1.0) == detail.threshold(0.3)
    assert SelectionPValue(0.3, ref_size=10, exceed_count=2, tie_count=1, u=1.0).exceeds(0.3)


def test_randomized_all_scores_equal_structure(rng):
    # constant residuals: model == labels
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    Y = X[:, 0] + 1.0  # every residual is exactly 1 under mu(x) = x1
    data = DataSequence(x=X, y=Y, test_x=[4.0, 0.0])
    score = AbsoluteResidualScore(model=MU)
    perms = sample_permutations(4, 30, seed=2)
    ref = 1 + perms.m
    moved = int((perms.matrix[:, -1] != 3).sum())
    alpha = 0.4
    for u in (0.05, 0.5, 0.95):
        dset = fast.covariate_set_randomized(data, AlwaysSelectRule(), score, perms, alpha, u)
        # the common score survives iff u * ref > alpha * ref
        if u > alpha:
            assert dset.threshold == 1.0 or dset.threshold == math.inf
        else:
            # only the region strictly below the common value can survive
            assert dset.threshold in (-math.inf, 1.0)
            if dset.threshold == 1.0:
                assert not dset.inclusive


def test_randomized_engine_and_closed_form_agree_where_u_times_ties_meets_the_level(rng, residual_score):
    """Two ties (the identity and the row keeping the test point in place) in
    a reference of six: at these corners ``u * 2`` and ``alpha * 6`` meet in
    floating point, and the engine and the closed form make one comparison."""
    data = make_sequence(rng, t=3)
    rule = AlwaysSelectRule()
    perms = all_orders_sample(3, skip_identity=True)
    y = 100.0
    assert residual_score.of_point(data.test_x, y) > residual_score.of_points(data.x, data.y).max()
    for alpha, u in ((0.1, 0.30000000000000004), (0.2, 0.6000000000000001), (0.3, 0.9)):
        dset = fast.covariate_set_randomized(data, rule, residual_score, perms, alpha, u)
        generic = pemi_set_grid([y], data, rule, residual_score, perms, alpha, u=u)
        assert generic[0] == dset.contains(y, residual_score, data.test_x), (alpha, u)


# -- cutoff rules -------------------------------------------------------------


def _conformal_instance(rng, t=5, q=0.5):
    data = make_sequence(rng, t=t, cutoffs=True)
    rule = ConformalPValueRule(
        f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), engine=FixedThreshold(q)
    )
    return data, rule


def test_conformal_reference_constant_within_sides(rng, residual_score):
    for trial in range(20):
        data, rule = _conformal_instance(rng)
        if not rule.select(data):
            continue
        perms = sample_permutations(5, 15, seed=trial)
        c = data.test_cutoff
        below = [reference_mask(c - abs(rng.normal()) - 1e-6, data, rule, perms) for _ in range(5)]
        above = [reference_mask(c + abs(rng.normal()) + 1e-6, data, rule, perms) for _ in range(5)]
        below.append(reference_mask(c, data, rule, perms))  # the cutoff itself counts as below
        for m in below[1:]:
            assert np.array_equal(m, below[0])
        for m in above[1:]:
            assert np.array_equal(m, above[0])
        break
    else:
        pytest.fail("never drew a selected conformal instance")


def test_conformal_set_structure_and_empty_side(rng, residual_score):
    for trial in range(50):
        data, rule = _conformal_instance(rng, q=0.6)
        if not rule.select(data):
            continue
        perms = sample_permutations(5, 10, seed=trial)
        dset = fast.conformal_pvalue_set(data, rule, residual_score, perms, alpha=0.4)
        assert isinstance(dset, CutoffPiecewiseSet)
        assert dset.cutoff == data.test_cutoff
        return
    pytest.fail("never drew a selected conformal instance")


def test_conformal_pvalue_no_exceedances_floor():
    # weights equal, test score strictly largest: p = w_t / sum(w) at the last slot
    fhat = np.array([1.0, 2.0, 5.0])
    p = weighted_pvalue_history(fhat, np.ones(3), np.ones(3))
    assert p[-1] == pytest.approx(1 / 3)


# -- earlier outcomes ---------------------------------------------------------


def test_earlier_outcome_t2_full_enumeration(rng, residual_score):
    """t = 2: two orderings in total; hand-check both interval thresholds."""
    for trial in range(50):
        data = make_sequence(rng, t=2)
        rule = EarlierOutcomeRule(mu=MU, beta_sel=0.5)
        if not rule.select(data):
            continue
        perms = all_orders_sample(2, skip_identity=True)
        dset = fast.earlier_outcome_set(data, rule, residual_score, perms, alpha=0.4)
        assert isinstance(dset, IntervalUnionSet)
        assert len(dset.breakpoints) == 1 and len(dset.thresholds) == 2
        grid = np.sort(np.concatenate([np.linspace(-4, 4, 41), dset.breakpoints]))
        generic = pemi_set_grid(grid, data, rule, residual_score, perms, 0.4)
        mine = [dset.contains(float(y), residual_score, data.test_x) for y in grid]
        assert np.array_equal(generic, mine)
        return
    pytest.fail("never drew a selected instance")


def test_earlier_outcome_uninformative_selection_collapses(rng, residual_score):
    """When selection carries no information (every permutation re-selects on
    both sides), all interval thresholds coincide: one plain threshold."""
    for trial in range(100):
        data = make_sequence(rng, t=5)
        rule = EarlierOutcomeRule(mu=MU, beta_sel=0.97)
        if not rule.select(data):
            continue
        perms = sample_permutations(5, 20, seed=trial)
        y_lo = float(min(data.y.min(), -10.0) - 5.0)
        y_hi = float(max(data.y.max(), 10.0) + 5.0)
        lo_mask = reference_mask(y_lo, data, rule, perms)
        hi_mask = reference_mask(y_hi, data, rule, perms)
        if not (lo_mask.all() and hi_mask.all()):
            continue  # selection still binds somewhere; try another draw
        dset = fast.earlier_outcome_set(data, rule, residual_score, perms, alpha=0.4)
        assert len(set(dset.thresholds)) == 1
        return
    pytest.skip("no fully uninformative draw found")


def test_earlier_outcome_selection_compares_like_the_rule():
    """62 of 90 past labels above the test prediction with beta_sel = 0.7:
    a moved-in row counting 63 of 90 re-selects under the rule's
    ``63 <= 0.7 * 90`` but not under ``63 / 90 <= 0.7``, which rounds the
    other way.  The closed form must decide as the rule does; the labels
    sit inside the open intervals between the past predictions, where it
    decides from its two side masks, not per label."""
    mu = LinearModel(intercept=0.0, coef=(1.0,))
    score = AbsoluteResidualScore(model=mu)
    data = DataSequence(
        x=np.arange(90, dtype=float).reshape(-1, 1),
        y=np.where(np.arange(90) < 28, -100.0, 100.0),
        test_x=np.array([0.0]),
    )
    rule = EarlierOutcomeRule(mu=mu, beta_sel=0.7)
    perms = sample_permutations(91, 2000, seed=5)
    grid = np.arange(0.5, 100.0, 4.0)
    dset = fast.earlier_outcome_set(data, rule, score, perms, alpha=0.4)
    generic = pemi_set_grid(grid, data, rule, score, perms, 0.4)
    mine = [dset.contains(float(y), score, data.test_x) for y in grid]
    assert np.array_equal(generic, mine)


@pytest.mark.parametrize(
    "seed, hi, rule",
    [
        (3, 60, EarlierOutcomeRule(mu=MU1, beta_sel=0.6731891498405229, decay=0.9)),
        (80, 120, WeightedPredictionRule(mu=MU1, mode="quantile", q_sel=0.12944999462830953, decay=0.9)),
    ],
    ids=["earlier_outcome", "weighted_quantile"],
)
def test_decayed_closed_form_matches_engine(seed, hi, rule):
    """Under geometric decay a closed form that sums the rule's weighted
    statistic in another order than the engine disagrees with it on 1 and 3
    grid labels of these two instances."""
    score = AbsoluteResidualScore(model=LinearModel(0.3, (0.8,)))
    rng = np.random.default_rng(seed)
    t = int(rng.integers(20, hi))  # points, the last one the test point
    X = rng.normal(size=(t, 1))
    Y = X[:, 0] + rng.normal(size=t)
    data = DataSequence(x=X[:-1], y=Y[:-1], test_x=X[-1])
    perms = sample_permutations(t, 200, seed=seed)
    grid = np.linspace(Y.min() - 2, Y.max() + 2, 200)
    if isinstance(rule, EarlierOutcomeRule):  # the partition boundaries too
        grid = np.sort(np.concatenate([grid, MU1(data.x)]))
    dset = fast._closed_form(data, rule, score, perms, 0.3)
    generic = pemi_set_grid(grid, data, rule, score, perms, 0.3)
    assert np.array_equal(generic, [dset.contains(float(y), score, data.test_x) for y in grid])


def test_earlier_outcome_t1_everything(residual_score):
    data = DataSequence(x=np.zeros((0, 2)), y=np.zeros(0), test_x=[1.0, 2.0])
    rule = EarlierOutcomeRule(mu=MU, beta_sel=0.3)
    perms = sample_permutations(1, 7, seed=0)
    dset = fast.earlier_outcome_set(data, rule, residual_score, perms, alpha=0.4)
    assert dset.thresholds == (math.inf,)


@pytest.mark.parametrize("decay", [None, 0.9])
@pytest.mark.parametrize("ties", [False, True], ids=["plain", "tie_heavy"])
@pytest.mark.parametrize("t", [20, 60])
def test_earlier_outcome_closed_form_is_the_engine_at_workload_sizes(t, ties, decay):
    """At the benchmark's horizons and sample size (``M=200``), far past
    the battery's ``t <= 7, M <= 20``, every interval's threshold decides
    as the engine does, also where rounded covariates and labels tie the
    predictions and the scores."""
    rng = np.random.default_rng(1000 * t + 10 * ties + (decay is None))
    score = AbsoluteResidualScore(model=LinearModel(0.3, (0.8,)))
    for _ in range(100):
        X = rng.normal(size=(t, 1))
        Y = X[:, 0] + rng.normal(size=t)
        if ties:
            X, Y = np.round(X * 2) / 2, np.round(Y * 2) / 2
        data = DataSequence(x=X[:-1], y=Y[:-1], test_x=X[-1])
        rule = EarlierOutcomeRule(mu=MU1, beta_sel=float(rng.uniform(0.3, 0.7)), decay=decay)
        if rule.select(data):
            break
    else:
        pytest.fail("no selected draw")
    perms = sample_permutations(t, 200, seed=t)
    for alpha in (0.1, 0.2, 0.35):
        assert closed_form_is_the_engine(data, rule, score, perms, alpha, None, float(Y[-1])), alpha


# -- e-LOND -------------------------------------------------------------------


def test_elond_identity_in_both_side_references(rng):
    inst = draw_instance("elond", np.random.default_rng(7), 4)
    perms = sample_permutations(4, 10, seed=1, n_offline=inst.data.n_offline)
    dset = fast.elond_set(inst.data, inst.rule, inst.score, perms, inst.alpha)
    assert isinstance(dset, CutoffPiecewiseSet)
    # both side thresholds exist (identity guarantees non-degenerate references)
    assert dset.q_above >= -math.inf and dset.q_below >= -math.inf


@pytest.mark.parametrize("n_offline", [0, 2])
def test_taxonomy_restricted_fast_path_matches_generic(rng, residual_score, n_offline):
    """The trajectory-pinned reference (FCR construction) and a predicate
    taxonomy must agree with the generic engine's taxonomy route on a label
    grid, with and without sampled permutations; with an offline block the
    trajectory covers the online steps only."""
    checked = 0
    grid = np.linspace(-4, 4, 31)
    for trial in range(60):
        data = make_sequence(rng, t=int(rng.integers(3, 7)), n_offline=n_offline)
        rule = DecisionDrivenRule(tau0=20.0, tau1=-0.5, mu=MU)
        traj = rule.trajectory(data)
        if traj[-1] != 1:
            continue
        taxonomies = (
            SelectionTaxonomy.singleton(traj),
            SelectionTaxonomy(predicate=lambda tr, k=int(sum(traj)): sum(tr) == k),
        )
        for taxonomy in taxonomies:
            for m in (0, 15):
                perms = sample_permutations(data.t, m, seed=trial, n_offline=n_offline)
                dset = fast.covariate_set(data, rule, residual_score, perms, 0.4, taxonomy)
                generic = pemi_set_grid(
                    grid, data, rule, residual_score, perms, 0.4, taxonomy=taxonomy
                )
                mine = [dset.contains(float(y), residual_score, data.test_x) for y in grid]
                assert np.array_equal(generic, mine)
        checked += 1
        if checked >= 8:
            return
    pytest.fail("not enough selected instances drawn")


def test_singleton_taxonomy_of_another_length_keeps_the_identity_alone(rng, residual_score):
    """A pinned trajectory of another length than the step's matches no
    permuted trajectory (``SelectionTaxonomy.mask``), so the closed form,
    like the engine, calibrates on the identity alone."""
    data = make_sequence(rng, t=3)
    rule = DecisionDrivenRule(tau0=20.0, tau1=-10.0, mu=MU)  # selects every point
    perms = sample_permutations(3, 15, seed=4)
    taxonomy = SelectionTaxonomy.singleton([1, 1])
    assert pemi_pvalue(0.0, data, rule, residual_score, perms, taxonomy).ref_size == 1
    grid = np.linspace(-4, 4, 31)
    for u in (None, 0.3):
        dset = fast._closed_form(data, rule, residual_score, perms, 0.4, u, taxonomy)
        generic = pemi_set_grid(grid, data, rule, residual_score, perms, 0.4, u=u, taxonomy=taxonomy)
        assert np.array_equal(generic, [dset.contains(float(y), residual_score, data.test_x) for y in grid])


# -- rule needs --------------------------------------------------------------


def _cutoff_score(X, c):
    return np.asarray(X[:, 0]) - np.asarray(c)


NEEDS_CASES = {
    "conformal without cutoffs": (
        lambda rng: make_sequence(rng, t=4),
        ConformalPValueRule(f_score=_cutoff_score, engine=FixedThreshold(0.5)),
        ConfigurationError,
    ),
    "conformal with an offline block": (
        lambda rng: make_sequence(rng, t=4, cutoffs=True, n_offline=3),
        ConformalPValueRule(f_score=_cutoff_score, engine=FixedThreshold(0.5)),
        ConfigurationError,
    ),
    "earlier outcome with an offline block": (
        lambda rng: make_sequence(rng, t=4, n_offline=3),
        EarlierOutcomeRule(mu=MU, beta_sel=0.5),
        ConfigurationError,
    ),
    "elond without an offline block": (
        lambda rng: make_sequence(rng, t=4, cutoffs=True),
        ELondRule(f_score=_cutoff_score, alpha=0.5),
        ConfigurationError,
    ),
}


@pytest.mark.parametrize("case", NEEDS_CASES)
def test_closed_form_rejects_a_sequence_like_the_engine(rng, residual_score, case):
    make, rule, expected = NEEDS_CASES[case]
    data = make(rng)
    perms = sample_permutations(data.t, 5, seed=0, n_offline=data.n_offline)
    with pytest.raises(PemiError) as closed:
        fast._closed_form(data, rule, residual_score, perms, 0.4)
    with pytest.raises(PemiError) as engine:
        pemi_pvalue(0.0, data, rule, residual_score, perms)
    assert type(closed.value) is type(engine.value) is expected


def test_a_sequence_without_its_offline_cutoffs_never_reaches_a_rule(rng):
    """History cutoffs beside an offline block that has none are rejected
    where the sequence is built, before a closed form or the engine runs."""
    data = make_sequence(rng, t=4, cutoffs=True, n_offline=3)
    with pytest.raises(DomainError, match="offline cutoffs missing"):
        dataclasses.replace(data, offline_cutoffs=None)


# -- the one-stop consistency battery ----------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_family_grid_equivalence_small(family):
    rng = np.random.default_rng(FAMILIES.index(family))
    for i in range(4):
        t = int(rng.integers(3, 7))
        inst = draw_instance(family, rng, t)
        perms = sample_permutations(
            t, int(rng.choice([0, 5, 20])), seed=i, n_offline=inst.data.n_offline
        )
        assert check_instance(inst, perms, grid_points=40) == 0


@pytest.mark.parametrize("test_cutoff", [-math.inf, math.inf], ids=["-inf", "+inf"])
@pytest.mark.parametrize("family", ["conformal_fixed", "conformal_adaptive", "elond"])
def test_cutoff_closed_form_matches_engine_at_an_infinite_test_cutoff(family, test_cutoff):
    """A test cutoff of ±inf puts every finite candidate label on one side
    of it and an infinite one of the same sign on the other: the two-sided
    form still equals the engine label by label, ±inf labels included."""
    rng = np.random.default_rng(FAMILIES.index(family))
    checked = 0
    for i in range(30):
        t = int(rng.integers(2, 8))
        inst = draw_instance(family, rng, t)
        data = dataclasses.replace(inst.data, test_cutoff=test_cutoff)
        if not inst.rule.select(data):
            continue
        perms = sample_permutations(t, 20, seed=i, n_offline=data.n_offline)
        grid = np.concatenate([[-math.inf], np.linspace(data.y.min() - 3, data.y.max() + 3, 40), [math.inf]])
        closed = fast._closed_form(data, inst.rule, inst.score, perms, inst.alpha)
        generic = pemi_set_grid(grid, data, inst.rule, inst.score, perms, inst.alpha)
        assert [closed.contains(float(y), inst.score, data.test_x) for y in grid] == generic.tolist()
        checked += 1
    assert checked >= 5  # +inf lifts the test point's p-value, so fewer draws are selected


@pytest.mark.parametrize("test_cutoff", [-math.inf, math.inf])
def test_the_battery_checks_an_instance_at_an_infinite_test_cutoff(test_cutoff):
    """The battery's label grid spans the finite labels and cutoffs only, so
    an infinite test cutoff is checked like any other."""
    rng = np.random.default_rng(21)
    for _ in range(100):
        inst = draw_instance("conformal_fixed", rng, 5)
        inst = dataclasses.replace(inst, data=dataclasses.replace(inst.data, test_cutoff=test_cutoff))
        if inst.rule.select(inst.data):
            break
    else:
        pytest.fail("no selected instance")
    assert check_instance(inst, sample_permutations(5, 20, seed=3)) == 0


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40)
@given(t=st.integers(2, 6), m=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
@example(t=2, m=2, seed=17229)  # a label on a breakpoint that batch-dependent model rounding split
def test_closed_form_matches_engine_property(family, t, m, seed):
    """Closed form = engine on small instances; a failure shrinks to the
    smallest t and M that shows it."""
    inst = draw_instance(family, np.random.default_rng(seed), t)
    perms = sample_permutations(t, m, seed=seed, n_offline=inst.data.n_offline)
    assert check_instance(inst, perms, grid_points=30) == 0
