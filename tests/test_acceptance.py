"""The acceptance gate: nine checks, one test each, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the simulation checks use frozen seeds so reruns are
deterministic.  The two large simulations are shared across the checks
that read them (criteria 2+3 share one run).
"""

import math
import time

import numpy as np
import pytest

from pemi.crosscheck import run_crosscheck
from pemi.engine import (
    TopPredictionRule,
    multi_test_pvalue,
    pemi_pvalue,
)
from pemi.experiment import ExperimentConfig, run_experiment, write_outputs
from pemi.fast import CalibrationDetail, multi_test_threshold_set
from pemi.generators import GeneratorConfig, TrueMeanModel, generate
from pemi.oracle import all_orders_sample
from pemi.permutations import sample_permutations
from pemi.rules import AlwaysSelectRule, weighted_pvalue_history
from pemi.scores import AbsoluteResidualScore
from pemi.thresholds import lond_threshold
from pemi.types import DataSequence, MultiTestData

from oracle_refs import jomi_multi_test_set


@pytest.fixture
def report(capsys):
    """One PASS line per criterion, emitted through the capture guard so it
    shows under any pytest invocation."""

    def _report(criterion: int, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE CRITERION {criterion}: PASS — {detail}")

    return _report


# ---------------------------------------------------------------------------
# criterion 1: closed form == generic engine == full enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(report):
    t0 = time.time()
    battery = run_crosscheck(
        instances=50,
        seed=20250810,
        grid_points=100,
        full_enum=True,
    )
    elapsed = time.time() - t0
    assert battery.mismatches == 0, battery.lines
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds 2 minutes"
    report(1, f"0 mismatches across {len(battery.lines)} rule families in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 2 + 3: selection-conditional coverage, decision-driven rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def decision_run():
    cfg = ExperimentConfig.from_dict(
        dict(
            T=60,
            N=5000,
            alpha=0.4,
            M=200,
            seed=20250803,
            rule={
                "name": "decision_driven",
                "tau0": 200,
                "tau1": 5.5,
                "model": {"name": "true_mean"},
            },
            score={"name": "abs_residual", "model": {"name": "true_mean"}},
            methods=["pemi_det", "pemi_rand"],
            generator={"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0},
        )
    )
    t0 = time.time()
    result = run_experiment(cfg)
    return result, time.time() - t0


def test_criterion_2_scc_lower_bound_deterministic(decision_run, report):
    result, elapsed = decision_run
    rows = [r for r in result.rows if r.method == "pemi_det" and r.selected >= 300]
    assert rows, "no time point accumulated 300 selection events"
    worst = math.inf
    for r in rows:
        bound = 0.6 - 2 * math.sqrt(0.24 / r.selected)
        worst = min(worst, r.coverage - bound)
        assert r.coverage >= bound, f"t={r.t}: coverage {r.coverage:.4f} < bound {bound:.4f}"
    assert elapsed < 600, f"runtime {elapsed:.0f}s exceeds 10 minutes"
    report(
        2,
        f"{len(rows)} time points with >=300 selections, worst margin "
        f"{worst:+.4f}, runtime {elapsed:.0f}s",
    )


def test_criterion_3_exact_scc_randomized(decision_run, report):
    result, _ = decision_run
    events = [e.covered for e in result.events if e.method == "pemi_rand"]
    assert len(events) >= 10_000, f"only {len(events)} randomized selection events"
    pooled = float(np.mean(events))
    assert abs(pooled - 0.6) <= 0.02, f"pooled randomized coverage {pooled:.4f}"
    report(3, f"pooled randomized coverage {pooled:.4f} over {len(events)} events")


# ---------------------------------------------------------------------------
# criterion 4: no-selection validity of the p-values
# ---------------------------------------------------------------------------


def test_criterion_4_no_selection_validity(report):
    gen = GeneratorConfig(setting="nonlinear_1d", sigma=1.0)
    score = AbsoluteResidualScore(model=TrueMeanModel(gen))
    rule = AlwaysSelectRule()
    t, M, reps = 20, 50, 10_000
    det = np.empty(reps)
    rand = np.empty(reps)
    for rep in range(reps):
        ss = np.random.SeedSequence((41, rep))
        d_child, p_child, u_child = ss.spawn(3)
        X, Y = generate(gen, t, np.random.default_rng(d_child))
        data = DataSequence(x=X[:-1], y=Y[:-1], test_x=X[-1])
        perms = sample_permutations(
            t, M, seed=int(np.random.default_rng(p_child).integers(2**63))
        )
        u = float(np.random.default_rng(u_child).random())
        det[rep] = pemi_pvalue(float(Y[-1]), data, rule, score, perms).value
        rand[rep] = pemi_pvalue(float(Y[-1]), data, rule, score, perms, u=u).value
    worst_det, worst_rand = -math.inf, 0.0
    for alpha in np.arange(0.1, 0.91, 0.1):
        se = math.sqrt(alpha * (1 - alpha) / reps)
        excess = float(np.mean(det <= alpha)) - (alpha + 2 * se)
        worst_det = max(worst_det, excess)
        assert excess <= 0, f"alpha={alpha:.1f}: P(p<=a) exceeds a + 2SE by {excess:.4f}"
        dev = abs(float(np.mean(rand <= alpha)) - alpha)
        worst_rand = max(worst_rand, dev)
        assert dev <= 0.015, f"alpha={alpha:.1f}: randomized CDF off by {dev:.4f}"
    report(
        4,
        f"{reps} replications; det CDF stays {-worst_det:.4f} under the bound, "
        f"randomized CDF within {worst_rand:.4f} of the diagonal",
    )


# ---------------------------------------------------------------------------
# criterion 5: FCR control with the trajectory-pinned reference
# ---------------------------------------------------------------------------


def test_criterion_5_fcr_control(report):
    cfg = ExperimentConfig.from_dict(
        dict(
            T=40,
            N=2000,
            alpha=0.4,
            M=100,
            seed=20250805,
            rule={
                "name": "decision_driven",
                "tau0": 200,
                "tau1": 5.5,
                "model": {"name": "true_mean"},
            },
            score={"name": "abs_residual", "model": {"name": "true_mean"}},
            methods=["pemi_det"],
            taxonomy_fcr=True,
            generator={"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0},
        )
    )
    result = run_experiment(cfg)
    (fcr,) = result.fcr
    assert fcr.fcr <= 0.42, f"FCR {fcr.fcr:.4f} exceeds 0.42"
    report(5, f"empirical FCR {fcr.fcr:.4f} <= 0.42 over {cfg.N} runs of horizon {cfg.T}")


# ---------------------------------------------------------------------------
# criterion 6: vanilla miscoverage vs PEMI under prediction-quantile selection
# ---------------------------------------------------------------------------


def test_criterion_6_vanilla_miscoverage_pattern(report):
    model = {"name": "linear_fit", "train_n": 8, "train_seed": 2}
    cfg = ExperimentConfig.from_dict(
        dict(
            T=60,
            N=8000,
            alpha=0.4,
            M=50,
            seed=20250806,
            rule={"name": "weighted_quantile", "q_sel": 0.1, "decay": 0.5, "model": model},
            score={"name": "abs_residual", "model": model},
            methods=["pemi_det", "vanilla"],
            generator={"setting": "nonlinear_1d", "sigma": 1.0},
        )
    )
    result = run_experiment(cfg)
    vanilla = {r.t: r for r in result.rows if r.method == "vanilla"}
    pemi = {r.t: r for r in result.rows if r.method == "pemi_det"}
    window = [t for t in range(20, 61) if t in vanilla and vanilla[t].selected > 0]
    assert window, "no selections in the evaluation window"
    below = [t for t in window if vanilla[t].coverage < 0.55]
    assert len(below) > len(window) / 2, (
        f"vanilla under 0.55 at only {len(below)}/{len(window)} window points"
    )
    pemi_min = min(pemi[t].coverage for t in window)
    assert pemi_min >= 0.58, f"PEMI dipped to {pemi_min:.4f} inside the window"
    report(
        6,
        f"vanilla < 0.55 at {len(below)}/{len(window)} of t in [20,60]; "
        f"PEMI stays >= {pemi_min:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: multiple test points
# ---------------------------------------------------------------------------


def test_criterion_7_multi_test_coverage_and_swap_oracle(report):
    gen = GeneratorConfig(setting="nonlinear_1d", sigma=1.0)
    score = AbsoluteResidualScore(model=TrueMeanModel(gen))
    rule = TopPredictionRule(mu=TrueMeanModel(gen), k=1)
    n, m, M, alpha, reps = 8, 3, 100, 0.4, 3000
    covered = np.zeros(m)
    selected = np.zeros(m)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((52, rep)))
        X, Y = generate(gen, n + m, rng)
        data = MultiTestData(calib_x=X[:n], calib_y=Y[:n], test_x=X[n:])
        (j,) = rule.select(data.calib_x, data.calib_y, data.test_x)
        perms = sample_permutations(n + 1, M, seed=int(rng.integers(2**63)))
        p = multi_test_pvalue(float(Y[n + j]), data, j, rule, score, perms)
        covered[j] += p.value > alpha
        selected[j] += 1
    worst = math.inf
    for j in range(m):
        bound = 1 - alpha - 2 * math.sqrt(alpha * (1 - alpha) / selected[j])
        cov_j = covered[j] / selected[j]
        worst = min(worst, cov_j - bound)
        assert cov_j >= bound, f"j={j}: coverage {cov_j:.4f} < bound {bound:.4f}"

    # swap-oracle equality on 20 random instances (full enumeration, n=4, m=2)
    for trial in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((53, trial)))
        X, Y = generate(gen, 6, rng)
        data = MultiTestData(calib_x=X[:4], calib_y=Y[:4], test_x=X[4:])
        (j,) = rule.select(data.calib_x, data.calib_y, data.test_x)
        full = all_orders_sample(5, skip_identity=True)
        mine = multi_test_threshold_set(data, j, rule, score, full, alpha)
        swap = jomi_multi_test_set(data, j, rule, score, alpha)
        assert mine.threshold == swap.threshold
    report(
        7,
        f"per-index coverage margin {worst:+.4f} over {reps} replications; "
        "swap-oracle sets identical on 20 enumerated instances",
    )


# ---------------------------------------------------------------------------
# criterion 8: unit exactness against brute force
# ---------------------------------------------------------------------------


def test_criterion_8_unit_exactness(report):
    rng = np.random.default_rng(808)
    checks = 0
    # closed-form threshold: n moved-in scores in a reference of n + 2, every
    # rank against explicit sorting, n <= 10.  Levels sit strictly inside
    # rank cells (1 - (k - 1/2)/(n + 2)) so the binary float value of the
    # level cannot straddle an integer rank boundary.
    for n in range(1, 11):
        values = rng.integers(-20, 20, size=n).astype(float)
        ordered = sorted(values)
        detail = CalibrationDetail(ref_size=n + 2, moved_scores=values)
        for k in range(1, n + 3):
            got = detail.threshold(1 - (k - 0.5) / (n + 2)).threshold
            expect = ordered[k - 1] if k <= n else math.inf
            assert got == expect
            checks += 1
    # dyadic levels have one exact reading; check the rank formula literally
    four = np.array([3.0, 1.0, 2.0, 4.0])
    assert CalibrationDetail(ref_size=4, moved_scores=four).threshold(0.25).threshold == 3.0
    assert CalibrationDetail(ref_size=8, moved_scores=four).threshold(0.25).threshold == math.inf
    assert CalibrationDetail(ref_size=4, moved_scores=four).threshold(0.5).threshold == 2.0
    checks += 3
    # weighted clipped conformal p-value: double-loop enumeration, exact
    for n in range(1, 11):
        fhat = rng.integers(-5, 5, size=n).astype(float)
        ind = rng.integers(0, 2, size=n).astype(float)
        weights = rng.integers(1, 4, size=n).astype(float)
        got = weighted_pvalue_history(fhat, ind, weights)
        for j in range(n):
            num = weights[j] + sum(
                weights[i] * ind[i] for i in range(j) if fhat[i] >= fhat[j]
            )
            assert got[j] == num / weights[: j + 1].sum()
            checks += 1
    # discovery-scaled threshold: direct product over enumerated counts
    for alpha in (0.05, 0.1, 0.4):
        for gamma in (0.01, 0.5, 1.0):
            for rej in range(10):
                assert lond_threshold(alpha, gamma, rej) == alpha * gamma * (rej + 1)
                checks += 1
    report(8, f"{checks} exact brute-force comparisons, zero tolerance")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical outputs
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path, report):
    cfg = ExperimentConfig.from_dict(
        dict(
            T=6,
            N=5,
            alpha=0.4,
            M=20,
            seed=909,
            rule={
                "name": "decision_driven",
                "tau0": 200,
                "tau1": 5.5,
                "model": {"name": "true_mean"},
            },
            score={"name": "abs_residual", "model": {"name": "true_mean"}},
            methods=["pemi_det", "pemi_rand", "vanilla"],
            generator={"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0},
        )
    )
    a = write_outputs(run_experiment(cfg), tmp_path / "a")
    b = write_outputs(run_experiment(cfg), tmp_path / "b")
    for key in ("events", "metrics", "summary"):
        assert a[key].read_bytes() == b[key].read_bytes(), f"{key} files differ"
    report(9, "events.csv, metrics.csv, summary.json byte-identical across reruns")
