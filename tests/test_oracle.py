import itertools
import math

import numpy as np
import pytest

from pemi.engine import pemi_pvalue
from pemi.errors import GuardError, PreconditionError
from pemi.oracle import (
    all_orders_sample,
    full_pemi_pvalue,
    full_pemi_set_grid,
    iter_all_orders,
    jomi_reference,
    jomi_set_symmetric,
    permutation_fcp_pvalue,
)
from pemi.permutations import sample_permutations
from pemi.quantiles import inflated_quantile
from pemi.rules import AlwaysSelectRule, DecisionDrivenRule, EarlierOutcomeRule, WeightedPredictionRule
from pemi.scores import AbsoluteResidualScore, ConformityScore, LinearModel
from pemi.types import DataSequence

from conftest import make_sequence, permuted

MU = LinearModel(intercept=0.0, coef=(1.0, 0.0))


def test_enumeration_is_lexicographic_and_complete():
    orders = list(iter_all_orders(4))
    assert len(orders) == 24
    assert orders == sorted(orders)
    assert len(set(orders)) == 24


def test_guard_error():
    with pytest.raises(GuardError):
        list(iter_all_orders(9))
    with pytest.raises(GuardError):
        all_orders_sample(9)


def test_t1_pvalue_is_one(residual_score):
    data = DataSequence(x=np.zeros((0, 2)), y=np.zeros(0), test_x=[1.0, 0.5])
    assert full_pemi_pvalue(0.4, data, AlwaysSelectRule(), residual_score).value == 1.0
    assert permutation_fcp_pvalue(0.4, data, residual_score) == 1.0


def test_fcp_symmetric_reduction(rng, residual_score):
    data = make_sequence(rng, t=4)
    for y in (-0.8, 0.1, 2.0):
        scores = residual_score.of_points(data.x, data.y)
        v_t = residual_score.of_point(data.test_x, y)
        rank_form = (1 + int(np.sum(scores >= v_t))) / 4
        assert permutation_fcp_pvalue(y, data, residual_score) == pytest.approx(rank_form)


def test_full_pemi_equals_fcp_under_always(rng, residual_score):
    data = make_sequence(rng, t=4)
    for y in np.linspace(-2, 2, 9):
        a = full_pemi_pvalue(float(y), data, AlwaysSelectRule(), residual_score)
        b = permutation_fcp_pvalue(float(y), data, residual_score)
        assert a.value == pytest.approx(b)


def test_fcp_handles_order_sensitive_scores(rng):
    class OrderScore(ConformityScore):
        def of_sequence(self, xs, ys):
            # position-weighted signal: genuinely order-sensitive
            w = np.arange(1, ys.shape[0] + 1)
            return float(np.dot(w, ys))

    data = make_sequence(rng, t=3)
    p = permutation_fcp_pvalue(0.5, data, OrderScore())
    count = 0
    ys = np.append(data.y, 0.5)
    w = np.arange(1, 4)
    v0 = float(np.dot(w, ys))
    for order in itertools.permutations(range(3)):
        count += float(np.dot(w, ys[list(order)])) >= v0
    assert p == pytest.approx(count / 6)


def test_monte_carlo_converges_to_full_enumeration(rng, residual_score):
    data = make_sequence(rng, t=5)
    rule = DecisionDrivenRule(tau0=10.0, tau1=-0.5, mu=MU)
    y = 0.3
    exact = full_pemi_pvalue(y, data, rule, residual_score).value
    perms = sample_permutations(5, 10_000, seed=77)
    approx = pemi_pvalue(y, data, rule, residual_score, perms).value
    assert abs(approx - exact) < 0.02


def test_symmetric_rule_invariant_to_prefix_relabeling(rng, residual_score):
    data = make_sequence(rng, t=5)
    rule = WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.5)  # equal weights: symmetric
    y = 0.1
    base = full_pemi_pvalue(y, data, rule, residual_score).value
    for _ in range(5):
        idx = rng.permutation(4)
        shuffled = DataSequence(x=data.x[idx], y=data.y[idx], test_x=data.test_x)
        assert full_pemi_pvalue(y, shuffled, rule, residual_score).value == pytest.approx(base)


# -- swap construction --------------------------------------------------------


def test_jomi_always_rule_uses_all_points(rng, residual_score):
    data = make_sequence(rng, t=5)
    assert jomi_reference(0.0, data, AlwaysSelectRule()) == [0, 1, 2, 3]
    got = jomi_set_symmetric(data, AlwaysSelectRule(), residual_score, alpha=0.3)
    scores = residual_score.of_points(data.x, data.y)
    assert got.threshold == inflated_quantile(0.7, scores)


def test_swap_reference_is_the_swaps_that_reselect(rng):
    """The swap reference keeps exactly the labeled slots whose swap with the
    test point re-selects the sequence rebuilt in the swapped order, with the
    imputed label travelling to the swapped-in slot."""
    rules = (
        AlwaysSelectRule(),
        WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.5),
        DecisionDrivenRule(tau0=2.0, tau1=-0.5, mu=MU),
        EarlierOutcomeRule(mu=MU, beta_sel=0.5),
    )
    for rule in rules:
        for t in (1, 2, 6):
            data = make_sequence(rng, t=t)
            n = data.n_slots
            for y in (-1.0, 0.7):
                want = []
                for i in range(n - 1):
                    order = np.arange(n)
                    order[[i, n - 1]] = [n - 1, i]
                    if rule.select(permuted(data, order, y)):
                        want.append(i)
                assert jomi_reference(y, data, rule, check_symmetry=False) == want


def test_jomi_t2_single_swap(rng, residual_score):
    data = make_sequence(rng, t=2)
    got = jomi_set_symmetric(data, AlwaysSelectRule(), residual_score, alpha=0.5)
    score = residual_score.of_points(data.x, data.y)[0]
    # one swap candidate: rank ceil(0.5 * 2) = 1 -> that score
    assert got.threshold == score
    strict = jomi_set_symmetric(data, AlwaysSelectRule(), residual_score, alpha=0.05)
    assert strict.threshold == math.inf


def test_jomi_matches_full_enumeration_for_symmetric_covariate_rule(rng, residual_score):
    for _ in range(5):
        data = make_sequence(rng, t=5)
        rule = WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.5)
        if not rule.select(data):
            continue
        alpha = 0.35
        jomi = jomi_set_symmetric(data, rule, residual_score, alpha)
        grid = np.linspace(-4, 4, 60)
        full_mask = full_pemi_set_grid(grid, data, rule, residual_score, alpha)
        jomi_mask = [jomi.contains(float(y), residual_score, data.test_x) for y in grid]
        assert np.array_equal(full_mask, jomi_mask)


def test_jomi_rejects_asymmetric_rules(rng, residual_score):
    data = make_sequence(rng, t=6)
    asymmetric = WeightedPredictionRule(mu=MU, mode="quantile", q_sel=0.5, decay=0.3)
    with pytest.raises(PreconditionError):
        jomi_set_symmetric(data, asymmetric, residual_score, alpha=0.4)


def test_oracle_is_pure(rng, residual_score):
    data = make_sequence(rng, t=4)
    rule = DecisionDrivenRule(tau0=8.0, tau1=-1.0, mu=MU)
    a = full_pemi_pvalue(0.0, data, rule, residual_score)
    b = full_pemi_pvalue(0.0, data, rule, residual_score)
    assert a == b
