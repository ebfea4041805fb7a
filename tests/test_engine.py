import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi import engine
from pemi.crosscheck import FAMILIES, _label_grid, draw_instance
from pemi.engine import (
    MultiTestRule,
    TopPredictionRule,
    _single_test,
    multi_test_pvalue,
    pemi_pvalue,
    pemi_set_grid,
    reference_mask,
)
from pemi.errors import ConfigurationError, DomainError, PreconditionError
from pemi.fast import covariate_set, earlier_outcome_set, multi_test_threshold_set
from pemi.oracle import all_orders_sample
from pemi.permutations import sample_permutations
from pemi.rules import (
    AlwaysSelectRule,
    DecisionDrivenRule,
    EarlierOutcomeRule,
    SelectionTaxonomy,
    UncertaintyBudgetRule,
    WeightedPredictionRule,
)
from pemi.scores import AbsoluteResidualScore, ConformityScore, LinearModel
from pemi.types import DataSequence, MultiTestData, PermutationSample

from conftest import NeverSelectRule, make_sequence, permuted
from oracle_refs import jomi_multi_test_set

MU = LinearModel(intercept=0.0, coef=(1.0, 0.0))


def test_m0_reference_is_identity_only(rng, residual_score):
    data = make_sequence(rng, t=4)
    perms = sample_permutations(4, 0, seed=0)
    p = pemi_pvalue(1.0, data, AlwaysSelectRule(), residual_score, perms)
    assert p.value == 1.0 and p.ref_size == 1


def test_never_reselecting_rule_gives_p_one(rng, residual_score):
    data = make_sequence(rng, t=4)
    perms = sample_permutations(4, 12, seed=3)
    p = pemi_pvalue(0.0, data, NeverSelectRule(), residual_score, perms)
    assert p.value == 1.0 and p.ref_size == 1


def test_always_rule_full_enumeration_matches_rank_pvalue(rng, residual_score):
    """With no selection effect and a symmetric last-point score, the exact
    permutation p-value collapses to (1 + #{v_i >= v_t}) / t."""
    data = make_sequence(rng, t=3)
    perms = all_orders_sample(3, skip_identity=True)
    for y in (-1.0, 0.2, 3.3):
        p = pemi_pvalue(y, data, AlwaysSelectRule(), residual_score, perms)
        scores = residual_score.of_points(data.x, data.y)
        v_t = residual_score.of_point(data.test_x, y)
        # each of the 3 last-slot assignments appears in 2 of the 6 orderings
        assert p.value == pytest.approx((1 + int(np.sum(scores >= v_t))) / 3)


def test_pvalue_bounds_and_determinism(rng, residual_score):
    data = make_sequence(rng, t=6)
    rule = WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.4)
    perms = sample_permutations(6, 25, seed=9)
    for y in np.linspace(-3, 3, 7):
        p = pemi_pvalue(float(y), data, rule, residual_score, perms)
        assert 0 < p.value <= 1
        assert p.value >= 1 / p.ref_size
        again = pemi_pvalue(float(y), data, rule, residual_score, perms)
        assert again == p


def test_randomized_u1_equals_deterministic(rng, residual_score):
    data = make_sequence(rng, t=5)
    rule = AlwaysSelectRule()
    perms = sample_permutations(5, 30, seed=4)
    for y in (-0.5, 0.8):
        det = pemi_pvalue(y, data, rule, residual_score, perms)
        rand = pemi_pvalue(y, data, rule, residual_score, perms, u=1.0)
        assert rand.value == pytest.approx(det.value)


def test_randomized_all_ties_gives_u():
    # constant score: every comparison ties
    class ConstScore(ConformityScore):
        def of_sequence(self, xs, ys):
            return 1.0

    data = DataSequence(x=[[0.0], [1.0]], y=[0.0, 1.0], test_x=[2.0])
    perms = sample_permutations(3, 10, seed=1)
    p = pemi_pvalue(0.0, data, AlwaysSelectRule(), ConstScore(), perms, u=0.37)
    assert p.value == pytest.approx(0.37)
    with pytest.raises(DomainError):
        pemi_pvalue(0.0, data, AlwaysSelectRule(), ConstScore(), perms, u=1.2)


def test_finite_set_alpha_zero_keeps_all(rng, residual_score):
    data = make_sequence(rng, t=4)
    perms = sample_permutations(4, 8, seed=2)
    got = pemi_set_grid([-1.0, 0.0, 1.0], data, AlwaysSelectRule(), residual_score, perms, 0.0)
    assert got.tolist() == [True, True, True]


def test_finite_set_monotone_in_alpha(rng, residual_score):
    data = make_sequence(rng, t=5)
    rule = WeightedPredictionRule(mu=MU, mode="average")
    perms = sample_permutations(5, 20, seed=6)
    labels = list(np.linspace(-4, 4, 9))
    sizes = []
    for alpha in (0.1, 0.3, 0.5, 0.8):
        got = pemi_set_grid(labels, data, rule, residual_score, perms, alpha)
        sizes.append(int(got.sum()))
    assert sizes == sorted(sizes, reverse=True)


def test_grid_alpha_one_empty(rng, residual_score):
    data = make_sequence(rng, t=4)
    perms = sample_permutations(4, 8, seed=2)
    mask = pemi_set_grid(np.linspace(-2, 2, 11), data, AlwaysSelectRule(), residual_score, perms, 1.0)
    assert not mask.any()


def test_offline_degenerate_matches_base(rng, residual_score):
    data = make_sequence(rng, t=5)  # no offline block
    perms = sample_permutations(5, 16, seed=13, n_offline=0)
    rule = WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.4)
    for y in (-1.0, 0.5):
        a = pemi_pvalue(y, data, rule, residual_score, perms)
        b = pemi_pvalue(y, data, rule, residual_score, perms)  # same call, same domain
        assert a == b
    # mismatched domain is rejected
    wide = sample_permutations(5, 16, seed=13, n_offline=2)
    with pytest.raises(DomainError):
        pemi_pvalue(0.0, data, rule, residual_score, wide)


def test_offline_swap_membership_hand_check(residual_score):
    """A permutation swapping the test point with an offline point enters the
    reference set exactly when the rule re-selects the permuted sequence."""
    data = DataSequence(
        x=[[1.0, 0.0]],
        y=[1.0],
        test_x=[5.0, 0.0],
        offline_x=[[3.0, 0.0], [-2.0, 0.0]],
        offline_y=[3.0, -2.0],
    )
    rule = DecisionDrivenRule(tau0=100.0, tau1=2.5, mu=LinearModel(0.0, (1.0, 0.0)))
    # identity selects: mu_t = 5 >= 2.5 + (selected among 3, -2, 1)/100 = 2.51
    # swap test (slot 3) with offline slot 0: final x becomes 3 -> still selected
    order_swap = np.array([3, 1, 2, 0])
    assert rule.select(permuted(data, order_swap, y=0.0))
    # swap with offline slot 1: final x becomes -2 -> not selected
    order_swap2 = np.array([0, 3, 2, 1])
    assert not rule.select(permuted(data, order_swap2, y=0.0))
    matrix = np.stack([order_swap, order_swap2])
    from pemi.types import PermutationSample
    from pemi.engine import reference_mask

    perms = PermutationSample(matrix=matrix, n_points=4, index_start=-1)
    assert reference_mask(0.0, data, rule, perms).tolist() == [True, False]


def _loop_mask(y, data, rule, perms, taxonomy=None):
    """reference_mask spelled out one row at a time, each permuted sequence
    built anew so that the rule evaluates its model on the permuted points."""
    out = []
    for order in perms.matrix:
        seq = permuted(data, order, y)
        if taxonomy is None:
            out.append(bool(rule.select(seq)))
        else:
            traj = rule.trajectory(seq)
            members = taxonomy.trajectories
            inside = traj in members if members is not None else taxonomy.predicate(traj)
            out.append(traj[-1] == 1 and bool(inside))
    return np.array(out, dtype=bool)


def _random_linear(rng, d=2):
    return LinearModel(float(rng.normal()), tuple(float(c) for c in rng.normal(size=d)))


# the battery's families plus the reachable rules they leave out
CASES = FAMILIES + ("uncertainty_budget", "weighted_average_decay", "always", "multi_test")


def _draw_case(case, rng, t):
    """A sequence and a rule for ``case``; selection of the observed point is not required."""
    if case in FAMILIES:
        inst = draw_instance(case, rng, t)
        return inst.data, inst.rule
    if case == "uncertainty_budget":
        models = tuple(_random_linear(rng) for _ in range(3))
        return make_sequence(rng, t, n_offline=2), UncertaintyBudgetRule(models, gamma=0.4)
    if case == "weighted_average_decay":
        rule = WeightedPredictionRule(mu=_random_linear(rng), mode="average", decay=0.7)
        return make_sequence(rng, t, n_offline=1), rule
    if case == "always":
        return make_sequence(rng, t), AlwaysSelectRule()
    # a label-reading, order-dependent multi-test rule seen from test index 1
    return _single_test(_mt_data(rng, n=t - 1, m=3), 1, _LabelWeightedBarRule())


@pytest.mark.parametrize("family", CASES)
def test_reference_mask_equals_a_loop_over_the_public_helper(family):
    rng = np.random.default_rng(500 + CASES.index(family))
    for t in (2, 4, 6):
        data, rule = _draw_case(family, rng, t)
        n = data.n_slots
        sampled = sample_permutations(t, 30, seed=int(rng.integers(2**31)), n_offline=data.n_offline)
        # every row that swaps the test point with another slot, offline slots included
        swaps = np.tile(np.arange(n), (n - 1, 1))
        for s in range(n - 1):
            swaps[s, [s, n - 1]] = [n - 1, s]
        perms = PermutationSample(
            matrix=np.concatenate([sampled.matrix, swaps]), n_points=n,
            index_start=sampled.index_start,
        )
        labels = [float(v) for v in rng.normal(size=3)]
        if isinstance(rule, EarlierOutcomeRule):  # the partition boundaries
            labels += [float(v) for v in rule.point_values(data.x)]
        observed = SelectionTaxonomy.singleton(rule.trajectory(data))
        odd = SelectionTaxonomy(predicate=lambda tr: sum(tr) % 2 == 1)
        for y in labels:
            for taxonomy in (None, observed, odd):
                want = _loop_mask(y, data, rule, perms, taxonomy)
                assert np.array_equal(reference_mask(y, data, rule, perms, taxonomy), want)


# -- taxonomy -----------------------------------------------------------------


def test_taxonomy_everything_equals_plain(rng, residual_score):
    data = make_sequence(rng, t=5)
    rule = DecisionDrivenRule(tau0=5.0, tau1=-1.0, mu=MU)
    perms = sample_permutations(5, 24, seed=8)
    for y in (-0.7, 0.0, 1.3):
        plain = pemi_pvalue(y, data, rule, residual_score, perms)
        tax = pemi_pvalue(y, data, rule, residual_score, perms, SelectionTaxonomy())
        # the everything-taxonomy only adds the constraint S_t = 1, already there
        assert tax == plain


def test_taxonomy_excluding_everything_gives_identity_only(rng, residual_score):
    data = make_sequence(rng, t=4)
    rule = AlwaysSelectRule()
    perms = sample_permutations(4, 10, seed=5)
    tax = SelectionTaxonomy(predicate=lambda s: False)
    p = pemi_pvalue(0.0, data, rule, residual_score, perms, tax)
    assert p.ref_size == 1 and p.value == 1.0


def test_taxonomy_mask_of_an_empty_sample_is_empty(rng):
    data = make_sequence(rng, t=4)
    rule = DecisionDrivenRule(tau0=5.0, tau1=-1.0, mu=MU)
    perms = sample_permutations(4, 0, seed=3)
    observed = SelectionTaxonomy.singleton(rule.trajectory(data))
    for tax in (observed, SelectionTaxonomy(predicate=lambda s: True)):
        assert reference_mask(0.0, data, rule, perms, tax).shape == (0,)


def test_taxonomy_singleton_filters_trajectories(rng, residual_score):
    data = make_sequence(rng, t=5)
    rule = DecisionDrivenRule(tau0=3.0, tau1=0.0, mu=MU)
    obs = rule.trajectory(data)
    perms = sample_permutations(5, 40, seed=21)
    tax = SelectionTaxonomy.singleton(obs)
    p_tax = pemi_pvalue(0.3, data, rule, residual_score, perms, tax)
    p_plain = pemi_pvalue(0.3, data, rule, residual_score, perms)
    assert p_tax.ref_size <= p_plain.ref_size


# -- the label-free replay memo ------------------------------------------------


def _cold(monkeypatch):
    """Empty the engine's memo slots: the next call builds from scratch."""
    for memo in (engine._replayed, engine._written, engine._test_point, engine._carried):
        monkeypatch.setattr(memo, "last", None)


def _counts(p):
    return p.value, p.ref_size, p.exceed_count, p.tie_count


def test_label_free_replay_is_built_once_per_argument_identity(monkeypatch):
    """A grid of labels replays the rule, scores the labeled points and
    evaluates the test point's score once; an equal but distinct sequence,
    rule, sample or score builds again (the labeled points are scored per
    sample, with the scores each row carries)."""
    inst = draw_instance("earlier_outcome", np.random.default_rng(3), 6)
    data, rule, score = inst.data, inst.rule, inst.score
    perms = sample_permutations(6, 30, seed=4)
    _cold(monkeypatch)
    replays, scorings, test_points = [], [], []
    point_values, of_points = EarlierOutcomeRule.point_values, AbsoluteResidualScore.of_points
    at = AbsoluteResidualScore.at
    monkeypatch.setattr(EarlierOutcomeRule, "point_values", lambda *a: replays.append(a) or point_values(*a))
    monkeypatch.setattr(AbsoluteResidualScore, "of_points", lambda *a: scorings.append(a) or of_points(*a))
    monkeypatch.setattr(AbsoluteResidualScore, "at", lambda *a: test_points.append(a) or at(*a))
    pemi_set_grid(np.linspace(-3.0, 3.0, 20), data, rule, score, perms, inst.alpha)
    assert (len(replays), len(scorings), len(test_points)) == (1, 1, 1)
    args = dict(data=data, rule=rule, score=score, perms=perms)
    p = pemi_pvalue(0.5, **args)
    twins = {
        "data": (dataclasses.replace(data), (1, 1, 1)),
        "rule": (dataclasses.replace(rule), (1, 0, 0)),
        "perms": (sample_permutations(6, 30, seed=4), (1, 1, 0)),
        "score": (dataclasses.replace(score), (0, 1, 1)),
    }
    for name, (twin, rebuilt) in twins.items():
        pemi_pvalue(0.5, **args)
        for calls in (replays, scorings, test_points):
            calls.clear()
        assert pemi_pvalue(0.5, **{**args, name: twin}) == p
        assert (len(replays), len(scorings), len(test_points)) == rebuilt, name


def test_interleaved_rules_and_scores_each_match_a_fresh_evaluation(monkeypatch):
    """Two rules and two scores on one sequence and sample take turns in the
    slots; every warm p-value equals the one built from empty slots."""
    data = make_sequence(np.random.default_rng(11), t=6)
    perms = sample_permutations(6, 40, seed=2)
    other = LinearModel(intercept=0.5, coef=(-0.3, 1.2))
    rules = (EarlierOutcomeRule(mu=MU, beta_sel=0.5), EarlierOutcomeRule(mu=other, beta_sel=0.5))
    scores = (AbsoluteResidualScore(MU), AbsoluteResidualScore(other))
    pairs = [(rule, score) for rule in rules for score in scores]
    grid = np.linspace(-3.0, 3.0, 15)
    warm = [_counts(pemi_pvalue(y, data, r, s, perms)) for y in grid for r, s in pairs]
    cold = []
    for y in grid:
        for r, s in pairs:
            _cold(monkeypatch)
            cold.append(_counts(pemi_pvalue(y, data, r, s, perms)))
    assert warm == cold
    # each rule and score pair gives its own p-values, so a slot read for the wrong one shows
    assert len({tuple(cold[k :: len(pairs)]) for k in range(len(pairs))}) == len(pairs)


def test_label_free_replay_is_read_only_and_keeps_no_failed_build(monkeypatch):
    inst = draw_instance("elond", np.random.default_rng(5), 4)
    perms = sample_permutations(4, 10, seed=1, n_offline=inst.data.n_offline)
    _cold(monkeypatch)
    pemi_pvalue(0.0, inst.data, inst.rule, inst.score, perms)
    values, labels, cutoffs, _, at_test = engine._replayed(inst.data, inst.rule, perms)
    for a in (values, labels, cutoffs, at_test, *engine._carried(inst.data, inst.score, perms)):
        assert not a.flags.writeable
    # e-LOND needs cutoffs and an offline block: a plain sequence raises on every call
    plain = make_sequence(np.random.default_rng(6), t=4)
    plain_perms = sample_permutations(4, 10, seed=1)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            pemi_pvalue(0.0, plain, inst.rule, inst.score, plain_perms)
    assert engine._replayed.last[0] == (inst.data, inst.rule, perms)


def test_carried_scores_are_built_once_per_sequence_score_and_sample(monkeypatch):
    """A grid of labels builds the carried scores once; an equal but distinct
    sequence, score or sample builds them again, another rule does not."""
    inst = draw_instance("earlier_outcome", np.random.default_rng(8), 6)
    perms = sample_permutations(6, 30, seed=4)
    args = dict(data=inst.data, rule=inst.rule, score=inst.score, perms=perms)
    _cold(monkeypatch)
    builds = []
    build = engine._carried.__wrapped__
    monkeypatch.setattr(engine, "_carried", engine._one_slot_memo(lambda *a: builds.append(a) or build(*a)))
    grid = np.linspace(-3.0, 3.0, 20)
    want = [_counts(pemi_pvalue(float(y), **args, u=u)) for y in grid for u in (None, 0.4)]
    assert builds == [(inst.data, inst.score, perms)]
    twins = {
        "data": dataclasses.replace(inst.data),
        "score": dataclasses.replace(inst.score),
        "perms": sample_permutations(6, 30, seed=4),
        "rule": dataclasses.replace(inst.rule),
    }
    for name, twin in twins.items():
        pemi_pvalue(0.5, **args)
        builds.clear()
        got = [_counts(pemi_pvalue(float(y), **{**args, name: twin}, u=u)) for y in grid for u in (None, 0.4)]
        assert got == want
        assert len(builds) == (name != "rule"), name
    carried, moved = engine._carried(inst.data, inst.score, perms)
    assert not (carried.flags.writeable or moved.flags.writeable)


def test_labels_tied_with_carried_scores_count_as_written_out():
    """Halves make every score exact, so labels at ``mu ± s`` for a labeled
    score ``s`` tie the test point's score with the scores that rows carry
    into the test slot.  The counts equal a count over each member row's
    permuted last point, written out here."""
    mu = LinearModel(intercept=0.0, coef=(1.0,))
    score = AbsoluteResidualScore(mu)
    rng = np.random.default_rng(31)
    x = rng.integers(-6, 7, size=(9, 1)) / 2
    y = rng.integers(-6, 7, size=9) / 2
    data = DataSequence(x=x[:-1], y=y[:-1], test_x=x[-1])
    rule = EarlierOutcomeRule(mu=mu, beta_sel=0.5)
    perms = sample_permutations(9, 200, seed=3)
    test_mu = float(x[-1, 0])
    labeled = np.abs(y[:-1] - x[:-1, 0])
    tied_moved = 0
    for label in sorted({test_mu + s for s in labeled} | {test_mu - s for s in labeled}):
        v0 = abs(label - test_mu)
        mask = reference_mask(label, data, rule, perms)
        lasts = [last for last, m in zip(perms.matrix[:, -1].tolist(), mask) if m]
        # a member that keeps the test point in the last slot (slot 8) scores v0
        members = [labeled[last] if last < labeled.size else v0 for last in lasts]
        tied_moved += sum(1 for last in lasts if last < labeled.size and labeled[last] == v0)
        ref_size = 1 + len(members)
        at_least = 1 + sum(v0 <= s for s in members)
        strict = sum(v0 < s for s in members)
        ties = 1 + sum(v0 == s for s in members)
        det = pemi_pvalue(label, data, rule, score, perms)
        rand = pemi_pvalue(label, data, rule, score, perms, u=0.25)
        assert (det.ref_size, det.exceed_count, det.tie_count) == (ref_size, at_least, None)
        assert (rand.ref_size, rand.exceed_count, rand.tie_count) == (ref_size, strict, ties)
        assert rand.value == (strict + 0.25 * ties) / ref_size
    assert tied_moved > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_a_label_written_in_place_leaves_nothing_for_the_next(monkeypatch, family):
    """Labels decided one after another on the warm working copy, in a
    shuffled order with ±inf, repeats, the past labels and the rule's point
    values among them, each give the mask and p-value of that label decided
    from empty slots: without a taxonomy, with the observed trajectory's
    singleton, and with a tie-break ``u``."""
    rng = np.random.default_rng(90 + FAMILIES.index(family))
    inst = draw_instance(family, rng, 6)
    data, rule, score = inst.data, inst.rule, inst.score
    perms = sample_permutations(6, 40, seed=13, n_offline=data.n_offline)
    past = data.full_y()[:-1].tolist()
    values = rule.point_values(data.full_x(), data.full_cutoffs()).tolist()
    labels = [-math.inf, math.inf, 0.0, 0.0, math.inf, *past, *past[:2], *values]
    rng.shuffle(labels)
    observed = SelectionTaxonomy.singleton(rule.trajectory(data))
    for taxonomy, u in ((None, None), (observed, None), (None, inst.u)):
        masks = [reference_mask(y, data, rule, perms, taxonomy) for y in labels]
        counts = [_counts(pemi_pvalue(y, data, rule, score, perms, taxonomy, u)) for y in labels]
        for y, mask, count in zip(labels, masks, counts):
            _cold(monkeypatch)
            assert np.array_equal(reference_mask(y, data, rule, perms, taxonomy), mask), (y, taxonomy)
            _cold(monkeypatch)
            assert _counts(pemi_pvalue(y, data, rule, score, perms, taxonomy, u)) == count, (y, taxonomy, u)


class _Scribbler(EarlierOutcomeRule):
    """Decides as its parent after writing into the labels it was given."""

    def decide_rows(self, values, labels, cutoffs, n_offline):
        labels[..., :1] = 0.0
        return super().decide_rows(values, labels, cutoffs, n_offline)


def test_a_rule_that_writes_into_its_labels_raises():
    data = make_sequence(np.random.default_rng(17), t=5)
    rule = _Scribbler(mu=MU, beta_sel=0.5)
    perms = sample_permutations(5, 20, seed=2)
    observed = SelectionTaxonomy.singleton(EarlierOutcomeRule(mu=MU, beta_sel=0.5).trajectory(data))
    for taxonomy in (None, observed):
        with pytest.raises(ValueError, match="read-only"):
            reference_mask(0.5, data, rule, perms, taxonomy)


WARM_CASES = [*FAMILIES, "taxonomy", "earlier_outcome_tie_break"]


@pytest.mark.parametrize("case", WARM_CASES)
def test_a_warm_memo_gives_the_same_bits_as_a_cold_one(monkeypatch, case):
    family = {"taxonomy": "covariate", "earlier_outcome_tie_break": "earlier_outcome"}.get(case, case)
    inst = draw_instance(family, np.random.default_rng(40 + WARM_CASES.index(case)), 5)
    data = inst.data
    perms = sample_permutations(5, 30, seed=9, n_offline=data.n_offline)
    u = inst.u if case in ("covariate_randomized", "earlier_outcome_tie_break") else None
    taxonomy = SelectionTaxonomy.singleton(inst.rule.trajectory(data)) if case == "taxonomy" else None
    args = (data, inst.rule, inst.score, perms, taxonomy, u)
    grid = _label_grid(inst, 25)
    warm = [_counts(pemi_pvalue(float(y), *args)) for y in grid]
    cold = []
    for y in grid:
        _cold(monkeypatch)
        cold.append(_counts(pemi_pvalue(float(y), *args)))
    assert warm == cold


@pytest.mark.parametrize("family", FAMILIES)
def test_a_nan_label_is_a_domain_error_where_it_enters(family):
    inst = draw_instance(family, np.random.default_rng(60), 4)
    perms = sample_permutations(4, 10, seed=0, n_offline=inst.data.n_offline)
    args = (inst.data, inst.rule, inst.score, perms)
    for u in (None, 0.5):
        with pytest.raises(DomainError, match="NaN"):
            pemi_pvalue(math.nan, *args, u=u)
    for grid in ([0.0, math.nan, 1.0], [math.nan]):
        with pytest.raises(DomainError, match="NaN"):
            pemi_set_grid(grid, *args, inst.alpha)
    with pytest.raises(DomainError, match="NaN"):
        reference_mask(math.nan, inst.data, inst.rule, perms)
    # labels below and above every other stay candidates
    for y in (-math.inf, math.inf):
        assert reference_mask(y, inst.data, inst.rule, perms).shape == (perms.m,)


# -- non-finite model outputs ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class NanAboveOne:
    """The first covariate, NaN where it exceeds 1."""

    def __call__(self, X):
        x = np.asarray(X, dtype=float).reshape(-1, 2)[:, 0]
        return np.where(x > 1, np.nan, x)


def _with_outputs_above_one(t=30, seed=80):
    data = make_sequence(np.random.default_rng(seed), t=t)
    assert (data.x[:, 0] > 1).any()
    return data, sample_permutations(t, 50, seed=seed)


def test_a_nan_score_model_output_is_a_domain_error():
    data, perms = _with_outputs_above_one()
    score = AbsoluteResidualScore(NanAboveOne())
    with pytest.raises(DomainError, match="score's model output"):
        covariate_set(data, AlwaysSelectRule(), score, perms, 0.3)
    with pytest.raises(DomainError, match="score's model output"):
        pemi_pvalue(0.0, data, AlwaysSelectRule(), score, perms)


def test_a_nan_covariate_rule_model_output_is_a_domain_error():
    data, perms = _with_outputs_above_one()
    rule = WeightedPredictionRule(mu=NanAboveOne(), q_sel=0.3)
    with pytest.raises(DomainError, match="model output"):
        rule.select(data)
    with pytest.raises(DomainError, match="model output"):
        pemi_pvalue(0.0, data, rule, AbsoluteResidualScore(MU), perms)


def test_a_nan_earlier_outcome_model_output_is_named_as_one():
    data, perms = _with_outputs_above_one()
    rule = EarlierOutcomeRule(mu=NanAboveOne(), beta_sel=0.5)
    with pytest.raises(DomainError, match="model output") as caught:
        earlier_outcome_set(data, rule, AbsoluteResidualScore(MU), perms, 0.3)
    assert "candidate label" not in str(caught.value)


# -- multiple test points -----------------------------------------------------


def _mt_data(rng, n=5, m=3):
    X = rng.normal(size=(n, 2))
    Y = X @ np.array([1.0, -0.5]) + rng.normal(size=n)
    return MultiTestData(calib_x=X, calib_y=Y, test_x=rng.normal(size=(m, 2)))


def test_multi_test_requires_selected_index(rng, residual_score):
    data = _mt_data(rng)
    rule = TopPredictionRule(mu=MU, k=1)
    perms = sample_permutations(data.n + 1, 10, seed=3)
    picked = rule.select(data.calib_x, data.calib_y, data.test_x)
    (j,) = picked
    pemi_pvalue_ok = multi_test_pvalue(0.0, data, j, rule, residual_score, perms)
    assert 0 < pemi_pvalue_ok.value <= 1
    other = next(i for i in range(data.m) if i != j)
    with pytest.raises(PreconditionError):
        multi_test_pvalue(0.0, data, other, rule, residual_score, perms)


def test_multi_test_m1_reduces_to_always(rng, residual_score):
    """One test point and a rule selecting everything: the multi-test p-value
    equals the single-sequence p-value with no selection effect."""

    class AllRule(MultiTestRule):
        covariate_only = True
        symmetric_in_calibration = True

        def select(self, calib_x, calib_y, test_x):
            return frozenset(range(test_x.shape[0]))

    data = _mt_data(rng, n=4, m=1)
    perms = sample_permutations(5, 15, seed=10)
    seq = DataSequence(x=data.calib_x, y=data.calib_y, test_x=data.test_x[0])
    for y in (-0.5, 0.9):
        a = multi_test_pvalue(y, data, 0, AllRule(), residual_score, perms)
        b = pemi_pvalue(y, seq, AlwaysSelectRule(), residual_score, perms)
        assert a == b


class _LabelWeightedBarRule(MultiTestRule):
    """Select the test rows whose first covariate clears a bar built from the
    calibration labels with weights that fall with position: the decision
    reads labels and depends on the calibration order."""

    def select(self, calib_x, calib_y, test_x):
        bar = float(np.sum(0.5 ** np.arange(calib_y.shape[0]) * calib_y)) / 2
        return frozenset(int(i) for i in np.flatnonzero(test_x[:, 0] >= bar))


def _loop_multi_test_pvalue(y, data, j, rule, score, perms):
    """The multi-test p-value spelled out row by row: slot ``n`` of each order
    is test point ``j``, slots ``0..n-1`` the calibration points, and the
    other test rows stay where they are."""
    n = data.n
    pool_x = np.concatenate([data.calib_x, data.test_x[j : j + 1]])
    pool_y = np.append(data.calib_y, y)
    point_scores = np.append(score.of_points(data.calib_x, data.calib_y), score.of_point(data.test_x[j], y))
    kept = []
    for order in perms.matrix:
        test_x = data.test_x.copy()
        test_x[j] = pool_x[order[n]]
        if j in rule.select(pool_x[order[:n]], pool_y[order[:n]], test_x):
            kept.append(point_scores[order[n]])
    exceed = 1 + sum(point_scores[n] <= v for v in kept)
    return exceed / (1 + len(kept)), 1 + len(kept), exceed


def test_multi_test_pvalue_matches_a_loop_over_the_slot_mapping(residual_score):
    rng = np.random.default_rng(71)
    rule = _LabelWeightedBarRule()
    for n in (0, 1, 3, 5):
        for m in (1, 3):
            data = _mt_data(rng, n=n, m=m)
            for M in (0, 9):
                perms = sample_permutations(n + 1, M, seed=int(rng.integers(2**31)))
                for j in range(m):
                    for y in rng.normal(size=3):
                        p = multi_test_pvalue(
                            float(y), data, j, rule, residual_score, perms, require_selected=False
                        )
                        want = _loop_multi_test_pvalue(float(y), data, j, rule, residual_score, perms)
                        assert (p.value, p.ref_size, p.exceed_count) == want


def test_a_multi_test_label_grid_replays_once_and_scores_each_point_once(monkeypatch):
    data = _mt_data(np.random.default_rng(72), n=6, m=3)
    assert not any(a.flags.writeable for a in (data.calib_x, data.calib_y, data.test_x))
    rule = TopPredictionRule(mu=MU, k=1)
    (j,) = rule.select(data.calib_x, data.calib_y, data.test_x)
    perms = sample_permutations(data.n + 1, 25, seed=8)
    builds, model_calls = [], []
    build = engine._replayed.__wrapped__
    monkeypatch.setattr(engine, "_replayed", engine._one_slot_memo(lambda *a: builds.append(1) or build(*a)))
    score = AbsoluteResidualScore(lambda X: model_calls.append(1) or MU(X))
    grid = np.linspace(-3.0, 3.0, 20)
    got = [multi_test_pvalue(float(y), data, j, rule, score, perms) for y in grid]
    assert (len(builds), len(model_calls)) == (1, 2)
    for y, p in zip(grid, got):
        assert (p.value, p.ref_size, p.exceed_count) == _loop_multi_test_pvalue(float(y), data, j, rule, score, perms)


def test_multi_test_threshold_matches_grid(rng, residual_score):
    data = _mt_data(rng, n=5, m=2)
    rule = TopPredictionRule(mu=MU, k=1)
    (j,) = rule.select(data.calib_x, data.calib_y, data.test_x)
    perms = sample_permutations(data.n + 1, 30, seed=17)
    dset = multi_test_threshold_set(data, j, rule, residual_score, perms, alpha=0.3)
    grid = np.linspace(-4, 4, 41)
    mask = [multi_test_pvalue(float(y), data, j, rule, residual_score, perms).exceeds(0.3) for y in grid]
    fast_mask = [dset.contains(float(y), residual_score, data.test_x[j]) for y in grid]
    assert np.array_equal(mask, fast_mask)


def test_multi_test_sets_reject_an_index_outside_the_tests(rng, residual_score):
    data = _mt_data(rng, n=4, m=2)
    rule = TopPredictionRule(mu=MU, k=1)
    perms = sample_permutations(data.n + 1, 10, seed=2)
    for j in (-1, data.m):
        with pytest.raises(DomainError):
            multi_test_threshold_set(data, j, rule, residual_score, perms, alpha=0.3)
        with pytest.raises(DomainError):
            jomi_multi_test_set(data, j, rule, residual_score, alpha=0.3)


def test_multi_test_full_enum_matches_swap_construction(rng, residual_score):
    """Symmetric label-free rule, all orderings: the permutation set equals
    the calibration-point swap construction."""
    for trial in range(5):
        data = _mt_data(rng, n=4, m=2)
        rule = TopPredictionRule(mu=MU, k=1)
        (j,) = rule.select(data.calib_x, data.calib_y, data.test_x)
        full = all_orders_sample(data.n + 1, skip_identity=True)
        mine = multi_test_threshold_set(data, j, rule, residual_score, full, alpha=0.35)
        swap = jomi_multi_test_set(data, j, rule, residual_score, alpha=0.35)
        assert mine.threshold == swap.threshold
