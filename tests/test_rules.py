import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemi.errors import ConfigurationError
from pemi.permutations import identity_sequence, permute_with_imputation, sample_permutations
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
    recency_weights,
    weighted_pvalue_history,
)
from pemi.quantiles import weighted_quantile
from pemi.scores import LinearModel
from pemi.thresholds import FixedThreshold, LondEngine
from pemi.types import DataSequence, OrderedSequence

from conftest import make_sequence

MU = LinearModel(intercept=0.0, coef=(1.0,))  # identity on 1-d features


def seq_from_mu(past_mu, test_mu, ys=None):
    past_mu = np.asarray(past_mu, dtype=float)
    ys = past_mu if ys is None else np.asarray(ys, dtype=float)
    return OrderedSequence(
        prefix_x=past_mu.reshape(-1, 1), prefix_y=ys, final_x=np.array([test_mu])
    )


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
    seq = identity_sequence(make_sequence(rng, t=8), y=0.0)
    traj = rule.trajectory(seq)
    for i in range(1, 9):
        assert rule.trajectory(seq.prefix(i)) == traj[:i]


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
    seq = identity_sequence(make_sequence(rng, t=int(rng.integers(2, 9))), y=0.0)
    relabeled = OrderedSequence(
        prefix_x=seq.prefix_x,
        prefix_y=rng.normal(size=seq.prefix_y.shape[0]),
        final_x=seq.final_x,
    )
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


@given(st.integers(0, 2**32 - 1))
def test_cutoff_binary_rules_see_labels_only_through_sides(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 8))
    seq_data = make_sequence(rng, t=t, cutoffs=True)
    rule = ConformalPValueRule(
        f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c),
        engine=FixedThreshold(0.5),
    )
    base = identity_sequence(seq_data, y=0.0)
    # move each label anywhere on the same side of its own cutoff
    side = base.prefix_y <= base.prefix_cutoffs
    shifted = np.where(side, base.prefix_cutoffs - rng.uniform(0.1, 3.0, t - 1),
                       base.prefix_cutoffs + rng.uniform(0.1, 3.0, t - 1))
    moved = OrderedSequence(
        prefix_x=base.prefix_x,
        prefix_y=shifted,
        final_x=base.final_x,
        prefix_cutoffs=base.prefix_cutoffs,
        final_cutoff=base.final_cutoff,
    )
    assert rule.select(base) == rule.select(moved)


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


@given(st.integers(0, 2**32 - 1))
def test_fixed_threshold_rule_matches_direct_count(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 9))
    data = make_sequence(rng, t=t, cutoffs=True)
    rule = ConformalPValueRule(
        f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), engine=FixedThreshold(0.5)
    )
    seq = identity_sequence(data, y=0.0)
    fhat = np.concatenate([seq.prefix_x[:, 0] - seq.prefix_cutoffs, [seq.final_x[0] - seq.final_cutoff]])
    clipped = (seq.prefix_y <= seq.prefix_cutoffs) & (fhat[:-1] >= fhat[-1])
    p_direct = (1 + clipped.sum()) / t
    assert rule.select(seq) == (p_direct <= 0.5)


def test_conformal_rule_requires_cutoffs(rng):
    rule = ConformalPValueRule(
        f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), engine=FixedThreshold(0.5)
    )
    with pytest.raises(ConfigurationError):
        rule.select(identity_sequence(make_sequence(rng, t=4), y=0.0))


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
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    ys = rng.normal(size=n)
    mu_t = float(rng.normal())
    for decay in (None, 0.5):
        rule = EarlierOutcomeRule(mu=MU, beta_sel=0.3, decay=decay)
        w = recency_weights(n, decay)
        expect = mu_t >= weighted_quantile(0.7, ys, w)
        got = int(rule.select(seq_from_mu(np.zeros(n), mu_t, ys=ys)))
        assert got == int(expect)


# -- e-value rule -------------------------------------------------------------


def test_elond_needs_offline_block(rng):
    rule = ELondRule(f_score=lambda X, c: X[:, 0] - c, alpha=0.5)
    with pytest.raises(ConfigurationError):
        rule.select(identity_sequence(make_sequence(rng, t=4, cutoffs=True), y=0.0))


def test_elond_first_step_reduction(rng):
    # t=1: selection iff the e-value clears 1/(alpha*gamma_1)
    data = make_sequence(rng, t=1, cutoffs=True, n_offline=4)
    gamma = lambda t: 0.5**t
    rule = ELondRule(f_score=lambda X, c: np.asarray(X[:, 0]) - np.asarray(c), alpha=0.9, gamma=gamma)
    seq = identity_sequence(data, y=0.0)
    fhat_off = data.offline_x[:, 0] - data.offline_cutoffs
    f_t = data.test_x[0] - data.test_cutoff
    cnt = int(((data.offline_y <= data.offline_cutoffs) & (fhat_off >= f_t)).sum())
    p_plus = (1 + cnt) / 5
    lvl = 0.9 * 0.5
    expect = (p_plus <= lvl) / lvl >= 1 / lvl
    assert rule.select(seq) == bool(expect)


# -- taxonomy -----------------------------------------------------------------


def test_taxonomy_membership():
    tax = SelectionTaxonomy.singleton((1, 0, 1))
    assert tax.contains((1, 0, 1)) and not tax.contains((1, 1, 1))
    assert SelectionTaxonomy.everything().contains((0, 0))
    odd = SelectionTaxonomy(predicate=lambda s: sum(s) % 2 == 1)
    assert odd.contains((1, 0)) and not odd.contains((1, 1))


def test_recency_weights():
    assert np.allclose(recency_weights(3, None), [1, 1, 1])
    assert np.allclose(recency_weights(3, 0.5), [0.25, 0.5, 1.0])
    assert np.allclose(recency_weights(2, None, weight_fn=lambda i, n: i), [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        recency_weights(3, -1.0)


# -- batch/scalar agreement ---------------------------------------------------


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
