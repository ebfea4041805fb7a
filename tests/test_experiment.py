import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from pemi import experiment, fast
from pemi.cli import main
from pemi.errors import ConfigurationError
from pemi.experiment import (
    ExperimentConfig,
    recompute_metrics,
    resolve_experiment,
    run_experiment,
    vanilla_set,
    write_outputs,
)
from pemi.oracle import all_orders_sample
from pemi.permutations import sample_permutations
from pemi.rules import CovariateRule, SelectionTaxonomy
from pemi.types import DataSequence

from conftest import closed_form_is_the_engine, prefix


def test_vanilla_set_rank_examples():
    assert math.isinf(vanilla_set(np.empty(0), 0.4).threshold)  # t = 1
    assert vanilla_set(np.array([1.0, 2.0, 3.0]), 0.5).threshold == 2.0  # rank 2 of t = 4
    assert math.isinf(vanilla_set(np.array([1.0, 2.0, 3.0]), 0.1).threshold)


def test_vanilla_set_takes_the_closed_form_rank_at_every_level():
    """n past scores calibrate like a closed-form reference of size n + 1,
    including the levels where (1 - alpha) * (n + 1) is an integer."""
    scores = np.random.default_rng(0).permutation(399).astype(float)
    for k in range(1, 100):
        alpha = k / 100
        for n in range(400):
            want = fast.CalibrationDetail(n + 1, scores[:n]).threshold(alpha).threshold
            assert vanilla_set(scores[:n], alpha).threshold == want, (alpha, n)


def _tiny_config(**overrides):
    base = dict(
        T=4,
        N=3,
        alpha=0.4,
        M=6,
        seed=99,
        rule={"name": "always"},
        score={"name": "abs_residual", "model": {"name": "true_mean"}},
        methods=("pemi_det", "pemi_rand", "vanilla"),
        generator={"setting": "nonlinear_1d", "sigma": 1.0},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_always_rule_t1_m0_full_set():
    cfg = _tiny_config(T=1, N=1, M=0, methods=("pemi_det",))
    result = run_experiment(cfg)
    assert len(result.events) == 1
    e = result.events[0]
    assert e.covered == 1 and math.isinf(e.size)
    assert result.rows[0].coverage == 1.0


def test_every_configured_method_logs_at_selected_steps():
    cfg = _tiny_config()
    result = run_experiment(cfg)
    # the always-rule selects each of N*T steps once per method
    assert len(result.events) == 3 * 4 * 3
    methods = {e.method for e in result.events}
    assert methods == {"pemi_det", "pemi_rand", "vanilla"}


def test_oracle_method_small_horizon():
    cfg = _tiny_config(T=3, N=2, methods=("pemi_det", "oracle"))
    result = run_experiment(cfg)
    assert {e.method for e in result.events} == {"pemi_det", "oracle"}


def test_oracle_method_guard():
    with pytest.raises(Exception):
        resolve_experiment(_tiny_config(T=40, methods=("oracle",)))


def test_decision_driven_run_and_fcr():
    cfg = _tiny_config(
        T=6,
        N=4,
        rule={"name": "decision_driven", "tau0": 50, "tau1": 0.0, "model": {"name": "true_mean"}},
        methods=("pemi_det",),
        taxonomy_fcr=True,
    )
    result = run_experiment(cfg)
    (fcr,) = result.fcr
    assert 0.0 <= fcr.fcr <= 1.0


@pytest.mark.parametrize(
    "methods, taxonomy_fcr",
    [
        (("pemi_det", "pemi_rand"), False),
        (("pemi_det", "pemi_rand"), True),
        (("pemi_det", "oracle", "pemi_rand"), False),  # the oracle's reference evicts the shared one
    ],
)
def test_methods_sharing_a_reference_log_what_they_log_apart(monkeypatch, methods, taxonomy_fcr):
    """pemi_det and pemi_rand calibrate one reference per step, and each
    method's events equal those of a run with that method alone."""
    cfg = functools.partial(
        _tiny_config,
        T=6,
        N=4,
        M=20,
        rule={"name": "decision_driven", "tau0": 3, "tau1": 0.0, "model": {"name": "true_mean"}},
        taxonomy_fcr=taxonomy_fcr,
    )
    built = []
    observed = fast._observed
    monkeypatch.setattr(fast, "_observed", lambda *args: built.append(args) or observed(*args))
    together = run_experiment(cfg(methods=methods)).events
    steps = sum(e.method == "pemi_det" for e in together)
    assert steps and len(built) == steps * (3 if "oracle" in methods else 1)
    for m in methods:
        assert [e for e in together if e.method == m] == run_experiment(cfg(methods=(m,))).events


def test_byte_identical_reruns(tmp_path):
    cfg = _tiny_config(out=str(tmp_path / "a"))
    p1 = write_outputs(run_experiment(cfg), tmp_path / "a")
    p2 = write_outputs(run_experiment(cfg), tmp_path / "b")
    for key in ("events", "metrics", "summary"):
        assert p1[key].read_bytes() == (p2[key]).read_bytes()


def test_report_recomputes_metrics(tmp_path):
    cfg = _tiny_config()
    result = run_experiment(cfg)
    paths = write_outputs(result, tmp_path)
    rows = recompute_metrics(paths["events"], tmp_path / "again.csv")
    assert rows == result.rows
    assert (tmp_path / "again.csv").read_bytes() == paths["metrics"].read_bytes()


def test_summary_contains_config_and_fcr(tmp_path):
    cfg = _tiny_config()
    paths = write_outputs(run_experiment(cfg), tmp_path)
    payload = json.loads(paths["summary"].read_text())
    assert payload["config"]["alpha"] == 0.4
    assert set(payload["fcr"]) == {"pemi_det", "pemi_rand", "vanilla"}


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        _tiny_config(alpha=1.5)
    with pytest.raises(ConfigurationError):
        _tiny_config(methods=("nope",))
    with pytest.raises(ConfigurationError):
        _tiny_config(generator=None)  # neither generator nor dataset
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"T": 2})
    with pytest.raises(ConfigurationError):
        _tiny_config(extra_key=1)


def test_rand_method_needs_covariate_rule():
    cfg = _tiny_config(
        rule={"name": "earlier_outcome", "beta_sel": 0.5, "model": {"name": "true_mean"}},
        methods=("pemi_det", "pemi_rand"),
    )
    with pytest.raises(ConfigurationError):
        resolve_experiment(cfg)


def test_earlier_outcome_end_to_end():
    cfg = _tiny_config(
        T=5,
        N=3,
        rule={"name": "earlier_outcome", "beta_sel": 0.6, "model": {"name": "true_mean"}},
        methods=("pemi_det", "vanilla"),
    )
    result = run_experiment(cfg)
    assert any(e.method == "pemi_det" for e in result.events)


def test_conformal_rule_end_to_end():
    cfg = _tiny_config(
        T=5,
        N=3,
        rule={"name": "conformal_pvalue", "q": 0.5, "model": {"name": "true_mean"}},
        cutoff={"quantile": 0.5},
        methods=("pemi_det",),
    )
    result = run_experiment(cfg)
    assert all(e.method == "pemi_det" for e in result.events)


def test_conformal_trajectory_is_the_rules_per_step_decision():
    # q is the step-9 p-value computed with the length-40 weights; the rule at
    # step 9 uses length-9 weights, which give 0.2223269540437226 (one ulp
    # above q).  A trajectory built from the length-40 weights selects step 9
    # and the closed form then finds the observed point unselected.
    cfg = _tiny_config(
        T=40,
        N=1,
        M=20,
        seed=7,
        rule={
            "name": "conformal_pvalue",
            "q": 0.22232695404372255,
            "decay": 0.99,
            "model": {"name": "true_mean"},
        },
        cutoff={"quantile": 0.7},
        methods=("pemi_det",),
    )
    result = run_experiment(cfg)
    assert 9 not in {e.t for e in result.events}


TRUE_MEAN = {"name": "true_mean"}
# rule spec and extra config entries of every family a config can name
FAMILY_CONFIGS = {
    "always": ({"name": "always"}, {}),
    "decision_driven": ({"name": "decision_driven", "tau0": 10, "tau1": 5.0, "model": TRUE_MEAN}, {}),
    "weighted_quantile": ({"name": "weighted_quantile", "q_sel": 0.3, "model": TRUE_MEAN}, {}),
    "weighted_average": ({"name": "weighted_average", "decay": 0.9, "model": TRUE_MEAN}, {}),
    "uncertainty_budget": (
        {"name": "uncertainty_budget", "gamma": 0.3, "models": [TRUE_MEAN, {"name": "linear_fit"}]},
        {"offline_n": 4},
    ),
    "conformal_fixed": (
        {"name": "conformal_pvalue", "q": 0.4, "decay": 0.99, "model": TRUE_MEAN},
        {"cutoff": {"quantile": 0.7}},
    ),
    "conformal_lond": (
        {"name": "conformal_pvalue", "test_alpha": 0.9, "decay": 2.0, "model": TRUE_MEAN},
        {"cutoff": {"quantile": 0.7}},
    ),
    "elond": (
        {"name": "elond", "test_alpha": 0.9, "model": TRUE_MEAN},
        {"cutoff": {"quantile": 0.4}, "offline_n": 5},
    ),
    "earlier_outcome": ({"name": "earlier_outcome", "beta_sel": 0.5, "model": TRUE_MEAN}, {}),
}


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_observed_trajectory_evaluates_the_model_once_and_decides_like_the_rule(monkeypatch, family):
    rule_spec, extra = FAMILY_CONFIGS[family]
    generator = {"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0}
    cfg = _tiny_config(T=25, N=1, rule=rule_spec, generator=generator, methods=("pemi_det",), **extra)
    res = resolve_experiment(cfg)
    X, Y, cuts = experiment._stream_for_rep(res, 0, np.random.default_rng(5))
    calls = []
    point_values = type(res.rule).point_values
    monkeypatch.setattr(
        type(res.rule), "point_values", lambda rule, *args: calls.append(1) or point_values(rule, *args)
    )
    traj = experiment._observed_trajectory(res, X, Y, cuts)
    monkeypatch.undo()
    assert len(calls) == 1
    n_off = cfg.offline_n
    kw = dict(offline_x=X[:n_off], offline_y=Y[:n_off]) if n_off else {}
    if cuts is not None:
        kw.update(cutoffs=cuts[n_off:-1], test_cutoff=float(cuts[-1]))
        if n_off:
            kw.update(offline_cutoffs=cuts[:n_off])
    seq = DataSequence(x=X[n_off:-1], y=Y[n_off:-1], test_x=X[-1], **kw)
    assert tuple(int(v) for v in traj) == res.rule.trajectory(seq)
    # each step decided on its own prefix, with the model evaluated on that prefix alone
    assert traj.tolist() == [res.rule.select(prefix(seq, i)) for i in range(1, cfg.T + 1)]


def test_the_config_examples_name_every_rule_in_the_table():
    assert sorted({spec["name"] for spec, _ in FAMILY_CONFIGS.values()}) == sorted(experiment._RULES)


def _example_config(family: str) -> ExperimentConfig:
    rule_spec, extra = FAMILY_CONFIGS[family]
    generator = {"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0}
    return _tiny_config(T=12, N=1, M=30, rule=rule_spec, generator=generator, methods=("pemi_det",), **extra)


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_every_config_rule_has_a_closed_form_equal_to_the_engine(family):
    """On the first selected steps of each example, for sampled and (at
    small t) all-orderings references; label-free rules also with a
    tie-breaking uniform."""
    cfg = _example_config(family)
    res = resolve_experiment(cfg)
    uniforms = (None, 0.37) if isinstance(res.rule, CovariateRule) else (None,)
    checked = 0
    for seed in range(4):
        X, Y, cuts = experiment._stream_for_rep(res, 0, np.random.default_rng(seed))
        traj = experiment._observed_trajectory(res, X, Y, cuts)
        for t in [t for t in range(1, cfg.T + 1) if traj[t - 1]][:5]:
            data = experiment._data_at(res, X, Y, cuts, t)
            refs = [sample_permutations(t, cfg.M, seed=seed * 100 + t, n_offline=cfg.offline_n)]
            if data.n_slots <= 5:
                refs.append(all_orders_sample(data.n_slots, 1 - cfg.offline_n, skip_identity=True))
            for perms in refs:
                for u in uniforms:
                    y_obs = float(Y[cfg.offline_n + t - 1])
                    assert closed_form_is_the_engine(data, res.rule, res.score, perms, cfg.alpha, u, y_obs), (seed, t, u)
                    checked += 1
    assert checked, "the example selects no step"


# options a section cannot do without; every other one has a default
REQUIRED_OPTIONS = {"name", "tau0", "tau1", "models", "gamma", "beta_sel", "quantile"}
# one value just outside the range of each option that has one
OUT_OF_RANGE = {
    "tau0": 0, "q_sel": 1.0, "gamma": 0, "q": 1.0,
    "test_alpha": 1.0, "beta_sel": 0, "decay": -1, "quantile": 1.5,
}


def _mutations(section: dict):
    """``section`` with an unknown option, each option set to a string, NaN,
    infinity or a value outside its range, and each required option dropped."""
    yield {**section, "bogus": 1}
    for key in section:
        for value in ("abc", math.nan, math.inf):
            yield {**section, key: value}
        if key in OUT_OF_RANGE:
            yield {**section, key: OUT_OF_RANGE[key]}
        if key in REQUIRED_OPTIONS:
            yield {k: v for k, v in section.items() if k != key}


def test_every_out_of_range_value_meets_an_example_option():
    keys = {key for spec, extra in FAMILY_CONFIGS.values() for key in (*spec, *extra.get("cutoff", {}))}
    assert set(OUT_OF_RANGE) <= keys


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_every_mutated_config_option_is_one_config_error(tmp_path, capsys, monkeypatch, family):
    monkeypatch.setattr(experiment, "_run_replication", lambda *args: pytest.fail("a replication ran"))
    raw = _example_config(family).to_dict()
    cases = [(key, bad) for key in ("rule", "cutoff") if raw[key] for bad in _mutations(raw[key])]
    assert len(cases) >= 5
    cfg = tmp_path / "cfg.yaml"
    for key, bad in cases:
        cfg.write_text(yaml.safe_dump({**raw, key: bad}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2, (key, bad)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), (key, bad, lines)


def test_elond_rule_end_to_end():
    cfg = _tiny_config(
        T=4,
        N=2,
        M=10,
        rule={"name": "elond", "test_alpha": 0.9, "model": {"name": "true_mean"}},
        cutoff={"quantile": 0.4},
        offline_n=5,
        methods=("pemi_det",),
    )
    result = run_experiment(cfg)  # selection may be rare; the run must not error
    for e in result.events:
        assert e.method == "pemi_det"


def test_dataset_run(tmp_path):
    path = tmp_path / "stream.csv"
    rows = ["mu_hat,y"] + [f"{v},{v + 0.1}" for v in np.linspace(0, 1, 12)]
    path.write_text("\n".join(rows) + "\n")
    cfg = ExperimentConfig.from_dict(
        dict(
            T=6,
            N=2,
            alpha=0.3,
            M=5,
            seed=5,
            rule={"name": "weighted_average", "model": {"name": "column", "index": 0}},
            score={"name": "abs_residual", "model": {"name": "column", "index": 0}},
            methods=["pemi_det", "vanilla"],
            dataset=str(path),
        )
    )
    result = run_experiment(cfg)
    assert result.rows  # something was selected and logged


def test_workers_do_not_change_results():
    cfg1 = _tiny_config(N=4)
    cfg2 = _tiny_config(N=4, workers=2)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert r1.events == r2.events


def test_oracle_method_honours_the_taxonomy(tmp_path):
    """With ``taxonomy_fcr`` the oracle sets pin the observed trajectory
    like the sampled ones: each equals the all-orderings covariate set
    under the singleton taxonomy, which here differs from the plain one."""
    mu = [2.5, 2.6, 0.7, 0.7, 1.5, 2.3]
    y = [4.0, 1.4, 1.5, 2.6, 1.9, 3.9]
    path = tmp_path / "stream.csv"
    path.write_text("mu_hat,y\n" + "".join(f"{m},{v}\n" for m, v in zip(mu, y)))
    model = {"name": "column", "index": 0}
    cfg = ExperimentConfig.from_dict(
        dict(
            T=6,
            N=1,  # the first replication reads the dataset in file order
            alpha=0.3,
            M=5,
            seed=3,
            rule={"name": "decision_driven", "tau0": 2, "tau1": 0.5, "model": model},
            score={"name": "abs_residual", "model": model},
            methods=["oracle"],
            dataset=str(path),
            taxonomy_fcr=True,
        )
    )
    res = resolve_experiment(cfg)
    X, Y = res.stream.X, res.stream.y
    traj = [res.rule.select_values(res.rule.point_values(X[:t])) for t in range(1, 7)]
    events = run_experiment(cfg).events
    assert [e.t for e in events] == [t for t in range(1, 7) if traj[t - 1]]
    differs = 0
    for e in events:
        data = DataSequence(x=X[: e.t - 1], y=Y[: e.t - 1], test_x=X[e.t - 1])
        full = all_orders_sample(e.t, 1, skip_identity=True)
        taxonomy = SelectionTaxonomy.singleton(traj[: e.t])
        want = fast.covariate_set(data, res.rule, res.score, full, cfg.alpha, taxonomy)
        assert e.covered == int(want.contains(float(Y[e.t - 1]), res.score, X[e.t - 1]))
        assert e.size == want.measure(res.score, X[e.t - 1])
        plain = fast.covariate_set(data, res.rule, res.score, full, cfg.alpha)
        differs += plain.measure(res.score, X[e.t - 1]) != e.size
    assert differs
