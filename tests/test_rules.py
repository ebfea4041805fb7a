import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.crosscheck import FAMILIES, GeometricGamma, draw_instance
from pemi.errors import ConfigurationError
from pemi.permutations import sample_permutations
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
    _weighted_sum,
    elond_selection_profile,
    recency_weights,
    weighted_pvalue_history,
)
from pemi.scores import LinearModel
from pemi.thresholds import FixedThreshold, LondEngine, default_gamma
from pemi.types import DataSequence

from conftest import make_sequence, prefix, weighted_quantile

MU = LinearModel(intercept=0.0, coef=(1.0,))  # identity on 1-d features


def cutoff_score(X, c):
    return np.asarray(X[:, 0]) - np.asarray(c)


def seq_from_mu(past_mu, test_mu, ys=None):
    past_mu = np.asarray(past_mu, dtype=float)
    ys = past_mu if ys is None else np.asarray(ys, dtype=float)
    return DataSequence(x=past_mu.reshape(-1, 1), y=ys, test_x=np.array([test_mu]))


# -- decision driven ---------------------------------------------------------


def test_decision_driven_first_step_example():
    rule = DecisionDrivenRule(tau0=200, tau1=5.5, mu=MU)
    assert int(rule.select(seq_from_mu([], 6.0))) == 1
    assert int(rule.select(seq_from_mu([], 5.4))) == 0


def test_decision_driven_counts_past_selections():
    rule = DecisionDrivenRule(tau0=10, tau1=1.0, mu=MU)
    # past values 2, 2 both select, raising the bar to 1.2
    assert int(rule.select(seq_from_mu([2.0, 2.0], 1.1))) == 0
    assert int(rule.select(seq_from_mu([2.0, 2.0], 1.2))) == 1


@given(st.lists(st.floats(-3, 3), min_size=0, max_size=12), st.floats(-3, 3))
def test_decision_driven_depends_only_on_count_and_test_value(past, test_mu):
    rule = DecisionDrivenRule(tau0=7.0, tau1=0.3, mu=MU)
    seq = seq_from_mu(past, test_mu)
    traj = rule.trajectory(seq)
    picked = sum(traj[:-1])
    direct = test_mu >= 0.3 + picked / 7.0
    assert traj[-1] == int(direct)


def test_trajectory_prefix_consistency(rng):
    rule = DecisionDrivenRule(tau0=5.0, tau1=0.0, mu=LinearModel(0.0, (1.0, 0.5)))
    seq = make_sequence(rng, t=8)
    traj = rule.trajectory(seq)
    for i in range(1, 9):
        assert rule.trajectory(prefix(seq, i)) == traj[:i]


def test_always_and_never():
    assert int(AlwaysSelectRule().select(seq_from_mu([1.0], 0.0))) == 1
    assert int(NeverSelectRule().select(seq_from_mu([1.0], 0.0))) == 0
    assert NeverSelectRule().trajectory(seq_from_mu([1.0, 2.0], 0.0)) == (0, 0, 0)


# -- weighted prediction ------------------------------------------------------


def test_weighted_average_boundary_is_strict():
    rule = WeightedPredictionRule(mu=MU, mode="average")
    assert int(rule.select(seq_from_mu([3.0, 3.0, 3.0], 3.0))) == 0
    assert int(rule.select(seq_from_mu([3.0, 3.0, 3.0], 3.0001))) == 1


def test_weighted_quantile_matches_wq_primitive(rng):
    rule = WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.25, decay=0.5)
    for _ in range(50):
        past = rng.normal(size=6)
        test_mu = float(rng.normal())
        w = recency_weights(6, 0.5)
        expect = test_mu > weighted_quantile(0.75, past, w)
        assert int(rule.select(seq_from_mu(past, test_mu))) == int(expect)


def test_weighted_rules_never_select_first_step():
    for mode in ("quantile", "average"):
        rule = WeightedPredictionRule(mu=MU, mode=mode)
        assert int(rule.select(seq_from_mu([], 100.0))) == 0


# -- capability tags ----------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
def test_covariate_only_rules_ignore_labels(seed):
    rng = np.random.default_rng(seed)
    seq = make_sequence(rng, t=int(rng.integers(2, 9)))
    relabeled = dataclasses.replace(seq, y=rng.normal(size=seq.y.shape[0]))
    for rule in (
        DecisionDrivenRule(tau0=5.0, tau1=0.0, mu=LinearModel(0.0, (1.0, -1.0))),
        WeightedPredictionRule(mu=LinearModel(0.0, (1.0, -1.0)), mode="quantile", q_sel=0.3),
        WeightedPredictionRule(mu=LinearModel(0.0, (1.0, -1.0)), mode="average", decay=0.5),
        UncertaintyBudgetRule(
            models=(LinearModel(0.0, (1.0, 0.0)), LinearModel(0.0, (0.0, 1.0))), gamma=0.5
        ),
    ):
        assert rule.covariate_only
        assert rule.select(seq) == rule.select(relabeled)


@pytest.mark.parametrize(
    "rule, n_offline",
    [
        (ConformalPValueRule(f_score=cutoff_score, engine=FixedThreshold(0.5)), 0),
        (ELondRule(f_score=cutoff_score, alpha=0.9, gamma=lambda j: 0.5), 3),
    ],
    ids=["conformal", "elond"],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_cutoff_binary_rules_see_labels_only_through_sides(rule, n_offline, seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 8))
    base = make_sequence(rng, t=t, cutoffs=True, n_offline=n_offline)
    # move each label, offline ones included, anywhere on the same side of its own cutoff
    labels, cutoffs = base.full_y()[:-1], base.full_cutoffs()[:-1]
    n = labels.shape[0]
    shifted = np.where(labels <= cutoffs, cutoffs - rng.uniform(0.1, 3.0, n),
                       cutoffs + rng.uniform(0.1, 3.0, n))
    offline = {"offline_y": shifted[:n_offline]} if n_offline else {}
    moved = dataclasses.replace(base, y=shifted[n_offline:], **offline)
    assert rule.select(base) == rule.select(moved)
    assert rule.trajectory(base) == rule.trajectory(moved)


# -- conformal p-value rules --------------------------------------------------


def test_weighted_pvalue_history_examples():
    # equal weights, all indicators 1: p_t = (1 + #{F_i >= F_t}) / t
    fhat = np.array([3.0, 1.0, 2.0, 2.5])
    ind = np.ones(4)
    p = weighted_pvalue_history(fhat, ind, np.ones(4))
    assert p[-1] == pytest.approx((1 + 1) / 4)
    assert p[0] == 1.0  # no history
    # no clipped exceedances: w_t / sum w
    p2 = weighted_pvalue_history(np.array([1.0, 2.0, 5.0]), np.zeros(3), np.ones(3))
    assert p2[-1] == pytest.approx(1 / 3)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.one_of(st.none(), st.floats(0.05, 3.0)),
    st.booleans(),
)
def test_last_pvalue_is_at_least_one_over_the_total_weight(seed, n, decay, ties):
    """The floor a LOND config is checked against: p_n >= w_n / sum(w) =
    1 / sum(w), reached when the last score is the row's strict maximum."""
    rng = np.random.default_rng(seed)
    fhat = rng.integers(-2, 3, size=(5, n)).astype(float) if ties else rng.normal(size=(5, n))
    ind = (rng.random((5, n)) < 0.7).astype(float)
    w = recency_weights(n, decay)
    floor = 1 / np.cumsum(w)[-1]  # the total as the p-value's denominator accumulates it
    assert (weighted_pvalue_history(fhat, ind, w)[:, -1] >= floor).all()
    fhat[:, -1] = fhat.max() + 1
    assert (weighted_pvalue_history(fhat, ind, w)[:, -1] == floor).all()


@pytest.mark.parametrize("decay", [0.0, -0.5, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda decay: WeightedPredictionRule(mu=MU, decay=decay),
        lambda decay: ConformalPValueRule(f_score=cutoff_score, engine=FixedThreshold(0.5), decay=decay),
        lambda decay: EarlierOutcomeRule(mu=MU, beta_sel=0.5, decay=decay),
    ],
    ids=["weighted", "conformal", "earlier_outcome"],
)
def test_a_decay_that_is_not_positive_is_rejected_when_the_rule_is_built(build, decay):
    with pytest.raises(ConfigurationError, match="decay must be positive"):
        build(decay)


@given(st.integers(0, 2**32 - 1))
def test_fixed_threshold_rule_matches_direct_count(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 9))
    data = make_sequence(rng, t=t, cutoffs=True)
    rule = ConformalPValueRule(
        f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), engine=FixedThreshold(0.5)
    )
    fhat = np.concatenate([data.x[:, 0] - data.cutoffs, [data.test_x[0] - data.test_cutoff]])
    clipped = (data.y <= data.cutoffs) & (fhat[:-1] >= fhat[-1])
    p_direct = (1 + clipped.sum()) / t
    assert rule.select(data) == (p_direct <= 0.5)


@pytest.mark.parametrize("decay", [None, 0.99])
@pytest.mark.parametrize("R", [None, 1, 200])
@pytest.mark.parametrize("T", [1, 2, 7, 60, 80])
def test_fixed_level_reads_the_last_history_column_bit_for_bit(T, R, decay):
    from pemi.rules import _pvalue_column, _pvalue_operands  # test-only reach-in

    rng = np.random.default_rng(T * 1000 + (R or 0))
    shape = (T,) if R is None else (R, T)
    fhat = np.round(rng.normal(size=shape), 1)  # a coarse grid gives ties
    ind = (rng.random(shape) < 0.6).astype(float)
    w = recency_weights(T, decay)
    last = weighted_pvalue_history(fhat, ind, w)[..., -1]
    assert np.array_equal(_pvalue_column(*_pvalue_operands(fhat, ind, w), T - 1), last)
    # a level placed exactly on a p-value decides like the full history
    for q in np.unique(last[last < 1])[:5]:
        rule = ConformalPValueRule(f_score=None, engine=FixedThreshold(float(q)), decay=decay)
        assert np.array_equal(rule.selects_last(fhat, ind, 0), last <= q)


@pytest.mark.parametrize(
    "engine", [None, LondEngine(alpha=0.5, gamma=lambda j: 0.9**j)], ids=["fixed", "lond"]
)
def test_conformal_trajectory_is_select_on_each_prefix(engine):
    T, decay = 30, 0.99
    rng = np.random.default_rng(8)
    X = rng.normal(size=(T, 1))
    c = rng.normal(size=T)
    seq = DataSequence(
        x=X[:-1], y=X[:-1, 0] + rng.normal(size=T - 1), test_x=X[-1], cutoffs=c[:-1], test_cutoff=float(c[-1])
    )
    f_score = lambda X, c: np.asarray(X[:, 0]) - np.asarray(c)
    if engine is None:
        # a fixed level on each p-value of the whole-sequence history: the
        # length-T recency weights round some steps' p-values differently
        # from the length-i weights that step i uses
        fhat = np.asarray(X[:, 0]) - c
        ind = np.append((seq.y <= seq.cutoffs).astype(float), 0.0)
        levels = weighted_pvalue_history(fhat, ind, recency_weights(T, decay))[1:]
        engines = [FixedThreshold(float(q)) for q in levels if q < 1]
    else:
        engines = [engine]
    for eng in engines:
        rule = ConformalPValueRule(f_score=f_score, engine=eng, decay=decay)
        traj = rule.trajectory(seq)
        assert traj == tuple(int(rule.select(prefix(seq, i))) for i in range(1, T + 1))


def test_conformal_rule_requires_cutoffs(rng):
    rule = ConformalPValueRule(
        f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), engine=FixedThreshold(0.5)
    )
    with pytest.raises(ConfigurationError):
        rule.select(make_sequence(rng, t=4))


# -- uncertainty budget -------------------------------------------------------


def test_uncertainty_budget_threshold_is_order_statistic():
    rule = UncertaintyBudgetRule(
        models=(LinearModel(0.0, (1.0,)), LinearModel(0.0, (-1.0,))), gamma=0.5
    )
    # variance of (v, -v) is v^2
    past = np.array([1.0, 2.0, 3.0, 4.0])  # variances 1,4,9,16
    # budget floor(0.5*4) = 2 -> admit top 2 -> threshold 9
    assert rule.select_values(np.concatenate([past**2, [9.0]]))
    assert not rule.select_values(np.concatenate([past**2, [8.9]]))
    # tied past values are admitted as a group: with past (4, 4, 1, 1, 1, 0),
    # #{>= 4} = 2, #{>= 1} = 5 and #{>= 0} = 6
    ties = np.array([4.0, 1.0, 4.0, 0.0, 1.0, 1.0])
    for gamma, threshold in ((0.5, 4.0), (0.8, 4.0), (5 / 6, 1.0), (1.0, 0.0)):
        tied = dataclasses.replace(rule, gamma=gamma)
        rows = np.array([np.append(ties, threshold), np.append(ties, np.nextafter(threshold, -1.0))])
        assert [tied.select_values(row) for row in rows] == [True, False]
        assert tied.select_values_batch(rows).tolist() == [True, False]
    # floor(0.2 * 6) = 1 admits neither tied group
    assert not dataclasses.replace(rule, gamma=0.2).select_values(np.append(ties, 100.0))


def test_uncertainty_budget_no_budget_early():
    rule = UncertaintyBudgetRule(
        models=(LinearModel(0.0, (1.0,)), LinearModel(0.0, (-1.0,))), gamma=0.3
    )
    assert not rule.select_values(np.array([100.0]))  # t=1: floor(0) admits nobody
    # ties: admitting the tied group would blow the budget, so move up
    vals = np.array([4.0, 4.0, 4.0, 1.0, 4.0])
    assert not rule.select_values(vals)  # budget floor(0.3*4)=1 < 3 tied at 4


# -- earlier outcomes ---------------------------------------------------------


def test_earlier_outcome_example():
    rule = EarlierOutcomeRule(mu=MU, beta_sel=0.1)
    ys = np.arange(1.0, 10.0)
    assert int(rule.select(seq_from_mu(ys, 10.0, ys=ys))) == 1
    assert int(rule.select(seq_from_mu(ys, 8.9, ys=ys))) == 0


@given(st.integers(0, 2**32 - 1))
def test_earlier_outcome_matches_weighted_quantile_form(seed):
    """The rule's kernel, on one history and on a batch, against the weighted
    quantile primitive, which shares no code with it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    # real rows, then small-integer rows whose ties put labels on the prediction
    ys = np.concatenate([rng.normal(size=(4, n)), rng.integers(0, 4, size=(4, n))]).astype(float)
    mu_t = np.concatenate([rng.normal(size=4), rng.integers(0, 4, size=4)]).astype(float)
    values = np.zeros((8, n + 1))
    values[:, -1] = mu_t
    for decay in (None, 0.5):
        rule = EarlierOutcomeRule(mu=MU, beta_sel=0.3, decay=decay)
        w = recency_weights(n, decay)
        expect = [bool(m >= weighted_quantile(0.7, y, w)) for y, m in zip(ys, mu_t)]
        assert [rule.select(seq_from_mu(np.zeros(n), m, ys=y)) for y, m in zip(ys, mu_t)] == expect
        assert rule.decide_rows(values, ys, None, 0).tolist() == expect


# -- e-value rule -------------------------------------------------------------


def test_elond_needs_offline_block(rng):
    rule = ELondRule(f_score=lambda X, c: X[:, 0] - c, alpha=0.5)
    with pytest.raises(ConfigurationError):
        rule.select(make_sequence(rng, t=4, cutoffs=True))


def test_elond_first_step_reduction(rng):
    # t=1: selection iff the e-value clears 1/(alpha*gamma_1)
    data = make_sequence(rng, t=1, cutoffs=True, n_offline=4)
    gamma = lambda t: 0.5**t
    rule = ELondRule(f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), alpha=0.9, gamma=gamma)
    fhat_off = data.offline_x[:, 0] - data.offline_cutoffs
    f_t = data.test_x[0] - data.test_cutoff
    cnt = int(((data.offline_y <= data.offline_cutoffs) & (fhat_off >= f_t)).sum())
    p_plus = (1 + cnt) / 5
    lvl = 0.9 * 0.5
    expect = (p_plus <= lvl) / lvl >= 1 / lvl
    assert rule.select(data) == bool(expect)


# -- taxonomy -----------------------------------------------------------------


def test_taxonomy_membership():
    rows = np.array([[1, 0, 1], [1, 1, 1], [1, 0, 0], [0, 0, 1]], dtype=bool)
    assert SelectionTaxonomy.singleton((1, 0, 1)).mask(rows).tolist() == [True, False, False, False]
    # a member of another length admits no row
    assert not SelectionTaxonomy.singleton((1, 1)).mask(rows).any()
    several = SelectionTaxonomy(trajectories=frozenset({(1, 0, 1), (0, 0, 1), (1, 0, 0)}))
    assert several.mask(rows).tolist() == [True, False, False, True]
    # the everything-taxonomy keeps the rows that select their last step
    assert SelectionTaxonomy().mask(rows).tolist() == [True, True, False, True]
    odd = SelectionTaxonomy(predicate=lambda s: sum(s) % 2 == 1)
    assert odd.mask(rows).tolist() == [False, True, False, True]
    assert SelectionTaxonomy().mask(np.zeros((0, 3), dtype=bool)).shape == (0,)


def test_recency_weights():
    assert np.allclose(recency_weights(3, None), [1, 1, 1])
    assert np.allclose(recency_weights(3, 0.5), [0.25, 0.5, 1.0])
    with pytest.raises(ConfigurationError):
        recency_weights(3, -1.0)


def test_recency_weights_are_shared_read_only_and_checked_on_every_call():
    a, b = recency_weights(5, 0.5), recency_weights(5, 0.5)
    assert np.array_equal(a, b)
    for w in (a, b, recency_weights(4, None)):
        with pytest.raises(ValueError):
            w[0] = 2.0
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            recency_weights(3, -1.0)


def _elond_profile_by_broadcast(rule, fhat, labels, cutoffs, n_offline):
    """e-LOND decisions at every online step of one row, each step's count
    taken over all offline slots in one broadcast comparison."""
    ind_off = labels[:n_offline] <= cutoffs[:n_offline]
    counts = (ind_off[None, :] * (fhat[None, :n_offline] >= fhat[n_offline:, None])).sum(axis=1)
    p_minus, p_plus = counts / (n_offline + 1), (counts + 1) / (n_offline + 1)
    return elond_selection_profile(p_minus, p_plus, rule.alpha, rule.gamma)


@pytest.mark.parametrize("R", [1, 200])
@pytest.mark.parametrize("t", [1, 2, 7, 60])
@pytest.mark.parametrize("n_offline", [1, 3, 20])
def test_elond_batch_and_trajectory_decide_like_each_row_bit_for_bit(n_offline, t, R):
    rng = np.random.default_rng(n_offline * 1000 + t * 10 + R)
    n = n_offline + t
    rule = ELondRule(f_score=cutoff_score, alpha=0.9, gamma=lambda j: 0.6 / j)
    fhat = np.round(rng.normal(size=(R, n)), 1)  # a coarse grid gives ties
    labels = rng.normal(size=(R, n - 1))
    cutoffs = rng.normal(size=(R, n - 1))
    # the test slot's side bit is never read: random here, 0 in ``decide``
    ind = np.concatenate([labels <= cutoffs, rng.random((R, 1)) < 0.5], axis=1).astype(float)
    batch = rule.selects_last(fhat, ind, n_offline)
    rows = [rule.decide(fhat[r], labels[r], cutoffs[r], n_offline) for r in range(R)]
    assert np.array_equal(batch, rows)
    for r in range(min(R, 3)):
        traj = rule.decide_trajectory(fhat[r], labels[r], cutoffs[r], n_offline)
        prefixes = [
            int(rule.decide(fhat[r, : k + 1], labels[r, :k], cutoffs[r, :k], n_offline))
            for k in range(n_offline, n)
        ]
        assert np.array_equal(traj, prefixes)
        reference = _elond_profile_by_broadcast(rule, fhat[r], labels[r], cutoffs[r], n_offline)
        assert np.array_equal(traj, reference)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0])
def test_elond_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(ConfigurationError):
        ELondRule(f_score=lambda X, c: X[:, 0] - c, alpha=alpha)


def test_elond_negative_gamma_rejected_like_lond():
    def gamma(t):
        return -0.1

    with pytest.raises(ConfigurationError):
        LondEngine(alpha=0.5, gamma=gamma).alphas(np.full(3, 0.9))
    with pytest.raises(ConfigurationError):
        elond_selection_profile([0.9] * 3, [0.95] * 3, 0.5, gamma)


# -- batch/scalar agreement ---------------------------------------------------


@pytest.mark.parametrize("M", [0, 1, 20])
@pytest.mark.parametrize("family", FAMILIES)
def test_decide_rows_is_decide_on_each_row_bit_for_bit(family, M):
    """The engine decides all sampled rows of a label in one ``decide_rows``
    call; ``decide`` on each row is the reference it must reproduce.  The
    replay leaves the test label NaN, so each candidate label is written
    where a row holds it, as the engine does."""
    rng = np.random.default_rng(700 + 10 * FAMILIES.index(family) + M)
    for t in (2, 5, 7):
        inst = draw_instance(family, rng, t)
        data, rule = inst.data, inst.rule
        perms = sample_permutations(t, M, seed=int(rng.integers(2**31)), n_offline=data.n_offline)
        candidates = [float(v) for v in rng.normal(size=3)]
        if data.test_cutoff is not None:  # the imputed label on its own cutoff
            candidates.append(data.test_cutoff)
        values, labels, cutoffs, n_offline = rule.replay(data, perms.matrix)
        singles = [rule.replay(data, order) for order in perms.matrix]
        for y in candidates:
            rows = rule.decide_rows(values, np.where(np.isnan(labels), y, labels), cutoffs, n_offline)
            assert rows.dtype == bool and rows.shape == (M,)
            expect = [rule.decide(v, np.where(np.isnan(lab), y, lab), c, n) for v, lab, c, n in singles]
            assert np.array_equal(rows, expect)


@pytest.mark.parametrize("R", [1, 200])
@pytest.mark.parametrize("decay", [None, 0.99, 2.0])
@pytest.mark.parametrize("gamma", [default_gamma, GeometricGamma(0.6)], ids=["default", "geometric"])
def test_lond_decide_rows_is_decide_on_each_row_bit_for_bit(gamma, decay, R):
    rng = np.random.default_rng(R)
    rule = ConformalPValueRule(f_score=cutoff_score, engine=LondEngine(alpha=0.9, gamma=gamma), decay=decay)
    picked = 0
    for n in (1, 2, 7, 60):
        # a coarse grid gives tied scores and labels on their cutoffs
        values = np.round(rng.normal(size=(R, n)), 1)
        labels = np.round(rng.normal(size=(R, n - 1)), 1)
        cutoffs = np.round(rng.normal(size=(R, n - 1)), 1)
        rows = rule.decide_rows(values, labels, cutoffs, 0)
        assert np.array_equal(rows, [rule.decide(values[r], labels[r], cutoffs[r], 0) for r in range(R)])
        picked += int(rows.sum())
    if decay == 2.0 and R > 1:  # heavy old points let LOND select at all
        assert 0 < picked < 4 * R


def _nudged(x, level, target):
    """``x`` moved by at most 8 ulps towards ``level(x) == target``; ``level`` increases with ``x``."""
    for _ in range(8):
        if level(x) == target:
            break
        x = np.nextafter(x, np.inf if level(x) < target else -np.inf)
    return float(x)


@given(
    n=st.integers(1, 200),
    rows=st.integers(100, 150),
    decay=st.sampled_from([None, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_statistics_decide_a_row_alike_alone_and_in_a_batch(n, rows, decay, seed):
    """Each rule's level sits on one row's weighted sum, where a row summed in
    another order inside a batch than on its own would flip."""
    rng = np.random.default_rng(seed)
    w = recency_weights(n, decay)
    total = w.sum()
    values = rng.normal(size=(rows, n + 1))  # n earlier slots, then the test slot
    labels = rng.normal(size=(rows, n))
    r = int(rng.integers(rows))
    above = float(((labels[r] > values[r, -1]) * w).sum())
    below = float(((values[r, :-1] < values[r, -1]) * w).sum())
    beta = _nudged(above / total, lambda b: b * total, above)
    q = _nudged(1 - below / total, lambda q: -(1 - q) * total, -below)
    values_avg = values.copy()  # row r's prediction on its own weighted average
    values_avg[r, -1] = float((values[r, :-1] * w).sum()) / total
    earlier = EarlierOutcomeRule(mu=MU, beta_sel=beta if 0 < beta < 1 else 0.5, decay=decay)
    rows_at_once = earlier.decide_rows(values, labels, None, 0).tolist()
    assert rows_at_once == [earlier.decide(values[i], labels[i], None, 0) for i in range(rows)]
    for rule, vals in (
        (WeightedPredictionRule(mu=MU, mode="quantile", q_sel=q if 0 < q < 1 else 0.5, decay=decay), values),
        (WeightedPredictionRule(mu=MU, mode="average", decay=decay), values_avg),
    ):
        batch = rule.select_values_batch(vals)
        assert batch.tolist() == [rule.select_values(vals[i]) for i in range(rows)]


def _tie_heavy(rng, shape):
    """Halves in [-2, 2], many of them tied, with a few ``±inf`` mixed in."""
    x = rng.integers(-4, 5, size=shape) / 2
    x[rng.random(shape) < 0.03] = math.inf
    x[rng.random(shape) < 0.03] = -math.inf
    return x


@pytest.mark.parametrize("n", [1, 2, 7, 60, 200])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # a row holding both infinities sums to NaN
def test_unit_weights_are_counted_with_the_bits_of_the_product(n):
    """``decay=None`` sums without multiplying by the weights; ``decay=1.0``
    multiplies by weights that are exactly 1.0.  Both give the same bits,
    in ``_weighted_sum`` itself and in every decision built on it, on
    batches and on single rows."""
    rng = np.random.default_rng(n)
    rows = 300
    values = _tie_heavy(rng, (rows, n + 1))  # n earlier slots, then the test slot
    labels = _tie_heavy(rng, (rows, n))
    ones = np.ones(n)
    for x in (values[0, :-1], np.ascontiguousarray(values[:, :-1]), values[:, :-1]):
        assert _weighted_sum(x, None).tobytes() == (x * ones).sum(axis=-1).tobytes()
    indicators = labels > values[:, -1:]
    assert np.array_equal(_weighted_sum(indicators, None), (indicators * ones).sum(axis=-1))
    pairs = [
        (EarlierOutcomeRule(mu=MU, beta_sel=0.5, decay=d) for d in (None, 1.0)),
        (WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.5, decay=d) for d in (None, 1.0)),
        (WeightedPredictionRule(mu=MU, mode="average", decay=d) for d in (None, 1.0)),
    ]
    for counted, multiplied in pairs:
        if isinstance(counted, EarlierOutcomeRule):
            batch = [r.decide_rows(values, labels, None, 0).tolist() for r in (counted, multiplied)]
            single = [[r.decide(values[i], labels[i], None, 0) for i in range(rows)] for r in (counted, multiplied)]
        else:
            batch = [r.select_values_batch(values).tolist() for r in (counted, multiplied)]
            single = [[r.select_values(values[i]) for i in range(rows)] for r in (counted, multiplied)]
        assert batch[0] == batch[1] == single[0] == single[1]


@given(st.integers(0, 2**32 - 1))
def test_covariate_batch_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 9))
    # real rows, then small-integer rows whose many ties stress the order statistics
    vals = np.concatenate([rng.normal(size=(5, t)), rng.integers(0, 4, size=(5, t)).astype(float)])
    models = (LinearModel(0.0, (1.0,)), LinearModel(0.0, (-1.0,)))
    for rule in (
        DecisionDrivenRule(tau0=9.0, tau1=0.1, mu=MU),
        WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.3, decay=0.5),
        WeightedPredictionRule(mu=MU, mode="average"),
        UncertaintyBudgetRule(models=models, gamma=float(rng.uniform(0.05, 1.0))),
        UncertaintyBudgetRule(models=models, gamma=1.0),
    ):
        batch = rule.select_values_batch(vals)
        traj = rule.trajectory_values_batch(vals)
        for r in range(vals.shape[0]):
            assert batch[r] == rule.select_values(vals[r])
            assert traj[r].tolist() == [rule.select_values(vals[r, : j + 1]) for j in range(t)]
    # closed-form-sized rows (M=200, T up to 60) whose values sit exactly on the
    # decision-driven bars tau1 + k / tau0, slot j on the bar of a pick count in 0..j
    rule = DecisionDrivenRule(tau0=float(rng.uniform(0.5, 50.0)), tau1=float(rng.normal()), mu=MU)
    t = int(rng.integers(1, 61))
    bars = np.array([rule.tau1 + k / rule.tau0 for k in range(t)])
    on_bars = bars[(rng.random((200, t)) * np.arange(1, t + 1)).astype(int)]
    batch = rule.select_values_batch(on_bars)
    traj = rule.trajectory_values_batch(on_bars)
    for r in range(on_bars.shape[0]):
        assert batch[r] == rule.select_values(on_bars[r])
        assert traj[r].tolist() == [rule.select_values(on_bars[r, : j + 1]) for j in range(t)]
