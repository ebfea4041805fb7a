"""The cutoff rules against plain transcriptions of their documented definitions.

The generic engine, the closed forms and the enumeration oracle all decide a
cutoff rule through its one kernel, ``selects_last``, so comparing them with
each other checks that kernel against itself.  The functions below transcribe
the definitions from the docstrings instead, with loops over Python floats
and ints; they import no kernel from ``pemi.rules``, and the LOND level is
``thresholds.lond_threshold``.  Every decision and every LOND level is
compared exactly, on random and on tie-heavy inputs (integer scores and
labels, repeated cutoffs, p-values placed on their levels).
"""

import math

import numpy as np
import pytest

from pemi.rules import ConformalPValueRule, ELondRule, weighted_pvalue_history
from pemi.thresholds import FixedThreshold, LondEngine, default_gamma, lond_threshold


def score(X, c):
    return X[:, 0] - c


GAMMAS = {
    "default": default_gamma,
    "harmonic": lambda j: 0.6 / j,
    "geometric": lambda j: 0.5**j,
    "flat": lambda j: 0.4,
}


def weights(T, decay):
    """Slot weights w_1..w_T: equal without decay, else w_i = decay^(T-i)."""
    return [1.0 if decay is None else decay ** (T - i) for i in range(1, T + 1)]


def pvalue_history(fhat, sides, w):
    """p_j = (w_j + sum_{i<j} w_i * ind_i * 1{fhat_i >= fhat_j}) / sum_{i<=j} w_i."""
    out = []
    for j in range(len(fhat)):
        clipped = 0.0
        for i in range(j):
            if sides[i] and fhat[i] >= fhat[j]:
                clipped += w[i]
        total = 0.0
        for i in range(j + 1):
            total += w[i]
        out.append((w[j] + clipped) / total)
    return out


def lond_levels(pvals, alpha, gamma):
    """Level j is lond_threshold(alpha, gamma_j, #{i < j : p_i <= level_i})."""
    levels, discoveries = [], 0
    for j, p in enumerate(pvals, start=1):
        levels.append(lond_threshold(alpha, gamma(j), discoveries))
        discoveries += p <= levels[-1]
    return levels


def conformal_selects_last(fhat, sides, engine, decay):
    """The last slot is selected when its p-value is at most its level."""
    p = pvalue_history(fhat, sides, weights(len(fhat), decay))
    if isinstance(engine, FixedThreshold):
        return p[-1] <= engine.q
    return p[-1] <= lond_levels(p, engine.alpha, engine.gamma)[-1]


def elond_profile(fhat, sides, n_offline, alpha, gamma):
    """e-LOND's selections at every online step.

    Step j counts the offline slots whose label clears its cutoff and whose
    score reaches step j's: p_minus = count / (n_offline + 1) and
    p_plus = (count + 1) / (n_offline + 1).  Each stream sets its own LOND
    levels; the e-value is 1{p_plus_j <= level_plus_j} / level_minus_j, and
    step j is selected when it reaches 1 / (alpha * gamma_j * (picks + 1)).
    """
    p_minus, p_plus = [], []
    for k in range(n_offline, len(fhat)):
        count = sum(1 for i in range(n_offline) if sides[i] and fhat[i] >= fhat[k])
        p_minus.append(count / (n_offline + 1))
        p_plus.append((count + 1) / (n_offline + 1))
    lvl_minus, lvl_plus = lond_levels(p_minus, alpha, gamma), lond_levels(p_plus, alpha, gamma)
    picks, out = 0, []
    for j in range(len(p_plus)):
        evalue = (1.0 if p_plus[j] <= lvl_plus[j] else 0.0) / lvl_minus[j]
        selected = evalue >= 1 / (alpha * gamma(j + 1) * (picks + 1))
        out.append(selected)
        picks += selected
    return out


def draw_rows(rng, R, n, ties):
    """(R, n) scores and (R, n - 1) labels and cutoffs of the labeled slots.

    Tie-heavy rows take small integer scores and labels and cutoffs from a
    short list, so scores tie and labels land on their cutoffs."""
    if ties:
        fhat = rng.integers(-2, 3, size=(R, n)).astype(float)
        labels = rng.integers(-1, 2, size=(R, n - 1)).astype(float)
        cutoffs = rng.choice([-1.0, 0.0, 0.0, 0.5], size=(R, n - 1))
    else:
        fhat, labels, cutoffs = rng.normal(size=(R, n)), rng.normal(size=(R, n - 1)), rng.normal(size=(R, n - 1))
    return fhat, labels, cutoffs


def sides_of(labels, cutoffs):
    """Side indicators 1{y_i <= c_i} of the labeled slots, then a 1 for the
    test slot, which no decision reads (``decide`` passes a 0 there)."""
    return [float(v) for v in labels <= cutoffs] + [1.0]


@pytest.mark.parametrize("decay", [None, 0.5, 0.9])
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
def test_weighted_pvalue_history_is_its_docstring(ties, decay):
    rng = np.random.default_rng(11 + 10 * ties + int(100 * (decay or 0)))
    for n in (1, 2, 5, 12, 30):
        fhat, labels, cutoffs = draw_rows(rng, 6, n, ties)
        ind = np.array([sides_of(labels[r], cutoffs[r]) for r in range(6)], dtype=float)
        batch = weighted_pvalue_history(fhat, ind, weights(n, decay))
        for r in range(6):
            expected = pvalue_history(fhat[r].tolist(), ind[r].tolist(), weights(n, decay))
            row = weighted_pvalue_history(fhat[r], ind[r], weights(n, decay))
            # equal weights sum integers exactly; decayed ones may differ in summation order
            tol = 0.0 if decay is None else 1e-12
            assert row.tolist() == pytest.approx(expected, rel=tol, abs=0)
            assert batch[r].tolist() == row.tolist()


@pytest.mark.parametrize("gamma", GAMMAS.values(), ids=GAMMAS.keys())
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_lond_levels_are_the_discovery_count_replay(alpha, gamma):
    rng = np.random.default_rng(int(alpha * 10))
    engine = LondEngine(alpha=alpha, gamma=gamma)
    for T in (1, 2, 7, 40):
        rows = []
        for _ in range(8):
            # each p-value is random, on its own level or one ulp above it
            p, discoveries = [], 0
            for j in range(1, T + 1):
                level = lond_threshold(alpha, gamma(j), discoveries)
                p.append([float(rng.uniform(0, 2 * level)), level, math.nextafter(level, 2.0)][rng.integers(3)])
                discoveries += p[-1] <= level
            rows.append(p)
        batch = engine.alphas(np.array(rows))
        assert batch.shape == (8, T)
        for r, p in enumerate(rows):
            assert engine.alphas(np.array(p)).tolist() == lond_levels(p, alpha, gamma)
            assert batch[r].tolist() == lond_levels(p, alpha, gamma)


ENGINES = {
    "fixed_0.2": FixedThreshold(0.2),
    "fixed_0.5": FixedThreshold(0.5),
    "lond_default": LondEngine(alpha=0.5),
    "lond_harmonic": LondEngine(alpha=0.9, gamma=GAMMAS["harmonic"]),
    "lond_flat": LondEngine(alpha=0.6, gamma=GAMMAS["flat"]),
}


@pytest.mark.parametrize("decay", [None, 0.5, 0.9])
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
def test_conformal_rule_decides_by_its_definition(engine, ties, decay):
    rule = ConformalPValueRule(f_score=score, engine=engine, decay=decay)
    rng = np.random.default_rng(list(ENGINES.values()).index(engine) * 100 + 10 * ties + int(10 * (decay or 0)))
    for n in (1, 2, 3, 8, 20):
        fhat, labels, cutoffs = draw_rows(rng, 40, n, ties)
        ind = np.array([sides_of(labels[r], cutoffs[r]) for r in range(40)], dtype=float)
        expected = [conformal_selects_last(fhat[r].tolist(), ind[r].tolist(), engine, decay) for r in range(40)]
        assert rule.selects_last(fhat, ind, 0).tolist() == expected
        for r in range(40):
            assert rule.decide(fhat[r], labels[r], cutoffs[r], 0) == expected[r]
            assert bool(rule.selects_last(fhat[r], ind[r], 0)) == expected[r]
        for r in range(4):
            trajectory = [
                int(conformal_selects_last(fhat[r, : k + 1].tolist(), ind[r, : k + 1].tolist(), engine, decay))
                for k in range(n)
            ]
            assert rule.decide_trajectory(fhat[r], labels[r], cutoffs[r], 0) == tuple(trajectory)


@pytest.mark.parametrize("n_offline", [1, 3, 20])
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("gamma", GAMMAS.values(), ids=GAMMAS.keys())
@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_elond_rule_decides_by_its_definition(alpha, gamma, ties, n_offline):
    rule = ELondRule(f_score=score, alpha=alpha, gamma=gamma)
    rng = np.random.default_rng(int(alpha * 10) * 1000 + list(GAMMAS.values()).index(gamma) * 100 + 10 * ties + n_offline)
    for t in (1, 2, 5, 20):
        n = n_offline + t
        fhat, labels, cutoffs = draw_rows(rng, 40, n, ties)
        ind = np.array([sides_of(labels[r], cutoffs[r]) for r in range(40)], dtype=float)
        profiles = [elond_profile(fhat[r].tolist(), ind[r].tolist(), n_offline, alpha, gamma) for r in range(40)]
        assert rule.selects_last(fhat, ind, n_offline).tolist() == [p[-1] for p in profiles]
        for r in range(40):
            assert rule.decide(fhat[r], labels[r], cutoffs[r], n_offline) == profiles[r][-1]
            assert bool(rule.selects_last(fhat[r], ind[r], n_offline)) == profiles[r][-1]
            trajectory = rule.decide_trajectory(fhat[r], labels[r], cutoffs[r], n_offline)
            assert trajectory == tuple(int(v) for v in profiles[r])
