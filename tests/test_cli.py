import json
from pathlib import Path

import numpy as np
import pytest

from pemi import experiment, fast
from pemi.cli import main
from pemi.errors import PreconditionError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))

CONFIG = """
T: 4
N: 2
alpha: 0.4
M: 5
seed: 11
rule: {name: always}
score: {name: abs_residual, model: {name: true_mean}}
methods: [pemi_det, vanilla]
generator: {setting: nonlinear_1d, sigma: 1.0}
"""


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    out = tmp_path / "results"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "events.csv").exists()
    assert (out / "metrics.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["seed"] == 11


INFINITE_CUTOFF = """
T: 8
N: 30
M: 30
alpha: 0.3
seed: 1
methods: [pemi_det]
dataset: {data}
rule: {{name: conformal_pvalue, q: 0.5, model: {{name: column, index: 0}}}}
score: {{name: abs_residual, model: {{name: column, index: 0}}}}
"""


def _infinite_cutoff_config(tmp_path: Path) -> Path:
    """A conformal run on a dataset whose cutoff is -inf on about a fifth of its rows."""
    rng = np.random.default_rng(0)
    mu = rng.normal(size=400)
    y, c = mu + rng.normal(size=400), rng.normal(size=400)
    c[rng.random(400) < 0.2] = -np.inf
    data = tmp_path / "stream.csv"
    rows = zip(mu.tolist(), y.tolist(), c.tolist())
    data.write_text("mu_hat,y,c\n" + "".join(f"{a!r},{b!r},{d!r}\n" for a, b, d in rows))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(INFINITE_CUTOFF.format(data=data))
    return cfg


@pytest.mark.parametrize("config", [*CONFIGS, "infinite_cutoff"], ids=lambda p: getattr(p, "stem", p))
def test_every_shipped_config_runs(tmp_path, config):
    """Each run's files pass its own audit: ``pemi report`` reads its event log
    and writes the same ``metrics.csv``."""
    out = tmp_path / "out"
    if config == "infinite_cutoff":
        args = ["--config", str(_infinite_cutoff_config(tmp_path))]
    else:
        args = ["--config", str(config), "--N", "2", "--T", "5", "--M", "5"]
    assert main(["run", *args, "--out", str(out)]) == 0
    for name in ("events.csv", "metrics.csv", "summary.json"):
        assert (out / name).exists()
    assert main(["report", "--events", str(out / "events.csv"), "--out", str(tmp_path / "audit.csv")]) == 0
    assert (tmp_path / "audit.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_cli_overrides_win(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    out = tmp_path / "r2"
    rc = main(["run", "--config", str(cfg), "--seed", "77", "--alpha", "0.3", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["seed"] == 77
    assert payload["config"]["alpha"] == 0.3


def test_a_method_that_issues_no_set_is_warned_about(tmp_path, capsys):
    # a bar above every prediction: the rule can select but selects no step
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        CONFIG.replace("T: 4\nN: 2", "T: 60\nN: 3").replace("M: 5", "M: 50").replace(
            "rule: {name: always}",
            "rule: {name: decision_driven, tau0: 10, tau1: 100.0, model: {name: true_mean}}",
        )
    )
    out = tmp_path / "none"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "events.csv").read_text() == "rep,t,method,covered,size\n"
    warnings = ["method pemi_det issued no prediction sets", "method vanilla issued no prediction sets"]
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)
    assert json.loads((out / "summary.json").read_text())["warnings"] == warnings
    # a run that issues sets warns about nothing and writes no ``warnings`` key
    cfg.write_text(CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "some")]) == 0
    assert capsys.readouterr().err == ""
    assert "warnings" not in json.loads((tmp_path / "some" / "summary.json").read_text())


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("T: 3\n")  # missing everything else
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        CONFIG.replace("generator: {setting: nonlinear_1d, sigma: 1.0}", "dataset: missing.csv")
    )
    assert main(["run", "--config", str(cfg)]) == 3


def test_unselected_observed_point_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def unselected(*args, **kwargs):
        raise PreconditionError("the observed point was not selected")

    monkeypatch.setattr(fast, "covariate_set", unselected)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "internal error: the observed point was not selected\n"


def test_report_subcommand(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    out = tmp_path / "r3"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rc = main(["report", "--events", str(out / "events.csv"), "--out", str(out / "m2.csv")])
    assert rc == 0
    assert (out / "m2.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_oracle_check_subcommand(capsys):
    rc = main(["oracle-check", "--instances", "2", "--seed", "3", "--grid", "15"])
    assert rc == 0
    output = capsys.readouterr().out
    assert "all consistent" in output


@pytest.mark.parametrize("bad_row", ["0.5,nan", "nan,0.5", "0.5,inf"])
def test_non_finite_dataset_cell_is_a_data_error(tmp_path, capsys, bad_row):
    rows = [f"{v},{v + 0.1}" for v in range(6)]
    rows[3] = bad_row
    data = tmp_path / "stream.csv"
    data.write_text("mu_hat,y\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        CONFIG.replace("generator: {setting: nonlinear_1d, sigma: 1.0}", f"dataset: {data}")
        .replace("{name: true_mean}", "{name: column}")
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "stream.csv:5:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "events.csv").exists()


@pytest.mark.parametrize(
    "entry",
    [
        "cutoff: {quantle: 0.7}",
        "cutoff: {value: 1.0, quantile: 0.3}",
        "cutoff: {quantile: 0.3, sampel_n: 10}",
        "score: {name: abs_residual, model: {name: true_mean}, scale: 2}",
        "rule: {name: weighted_average, q_sel: 0.3}",
    ],
)
def test_unknown_or_missing_option_is_a_config_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.yaml"
    key = entry.split(":")[0]
    lines = [line for line in CONFIG.splitlines() if not line.startswith(f"{key}:")]
    cfg.write_text("\n".join(lines + [entry]) + "\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("rule: {name: conformal_pvalue, q: 0.3}", "this rule needs cutoffs"),
        ("rule: {name: elond}\ncutoff: {value: 5.0}", "the e-value rule needs offline_n >= 1"),
        (
            "rule: {name: conformal_pvalue, q: 0.9}\ncutoff: {quantile: 0.7}\noffline_n: 3",
            "this rule runs on online slots only: offline_n must be 0",
        ),
    ],
)
def test_rule_input_missing_from_the_config_is_a_config_error(tmp_path, capsys, entry, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG.replace("rule: {name: always}", entry))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("offline_n", [15, 16])
def test_an_elond_rule_that_can_never_select_is_a_config_error(tmp_path, capsys, monkeypatch, offline_n):
    # the largest level is test_alpha * gamma(1) * 1 = 0.1 * 6 / pi^2 ~ 0.0608, and no
    # e-LOND p-value lies below 1 / (offline_n + 1): 1/16 is out of its reach, 1/17 is not
    entry = f"rule: {{name: elond, test_alpha: 0.1}}\ncutoff: {{quantile: 0.5}}\noffline_n: {offline_n}"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG.replace("rule: {name: always}", entry).replace("T: 4\nN: 2", "T: 60\nN: 5"))
    out = tmp_path / "out"
    if offline_n == 15:
        monkeypatch.setattr(experiment, "_run_replication", lambda *args: pytest.fail("a replication ran"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: this e-LOND rule never selects: "
            "test_alpha * gamma(t) * t < 1 / (offline_n + 1) at every t <= T\n"
        )
    else:
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len((out / "events.csv").read_text().splitlines()) > 1


@pytest.mark.parametrize("methods", ["[vanilla]", "[pemi_det]"])
def test_offline_block_for_an_online_only_rule_fails_before_any_replication(
    tmp_path, capsys, monkeypatch, methods
):
    # earlier_outcome's closed form runs on plain online sequences; an offline
    # block is a config error up front, whichever methods run
    monkeypatch.setattr(experiment, "_run_replication", lambda *args: pytest.fail("a replication ran"))
    cfg = tmp_path / "cfg.yaml"
    entry = "rule: {name: earlier_outcome, beta_sel: 0.9}\noffline_n: 3"
    cfg.write_text(CONFIG.replace("rule: {name: always}", entry).replace("[pemi_det, vanilla]", methods))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: this rule runs on online slots only: offline_n must be 0" in capsys.readouterr().err
    assert not (out / "events.csv").exists()


@pytest.mark.parametrize(
    "entry, named",
    [
        ("cutoff: 0.7", "'cutoff'"),
        ("rule: always", "'rule'"),
        ("cutoff: {value: abc}", "'value'"),
        ("rule: {name: weighted_quantile, q_sel: high}", "'q_sel'"),
        ("T: abc", "'T'"),
        ("generator: {setting: nonlinear_1d, sigmaa: 1.0}", "'sigmaa'"),
        ("score: {name: abs_residual, model: {name: column, index: 5}}", "column 5"),
        ("rule: {name: decision_driven, tau0: 200, tau1: .nan}", "'tau1'"),
        ("rule: {name: weighted_quantile, decay: .nan}", "'decay'"),
        ("rule: {name: conformal_pvalue, test_alpha: .nan}", "'test_alpha'"),
        ("cutoff: {quantile: 1.5}", "'quantile'"),
        ("cutoff: {quantile: 0.5, sample_n: 2000}", "unknown options for cutoff: ['sample_n']"),
        ("rule: {name: conformal_pvalue, test_alpha: 5.0}\ncutoff: {value: 0.0}", "alpha"),
        ("rule: {name: elond, test_alpha: 5.0}\ncutoff: {value: 0.0}\noffline_n: 5", "alpha"),
        ("score: {name: abs_residual, model: {name: linear_fit, train_n: 0}}", "'train_n'"),
        ("methods: [pemi_det, vanilla, pemi_det]", "duplicate methods ['pemi_det']"),
        ("methods: []", "'methods'"),
        ("workers: 0", "'workers'"),
        ("workers: -3", "'workers'"),
        ("score: {name: abs_residual, model: {name: column, index: 0.9}}", "'index'"),
        ("score: {name: abs_residual, model: {name: linear_fit, train_n: 10.9}}", "'train_n'"),
        ("score: {name: abs_residual, model: {name: linear_fit, train_seed: 1.5}}", "'train_seed'"),
        ("cutoff: {quantile: 0.5, seed: 7}", "unknown options for cutoff: ['seed']"),
        ("rule: {name: weighted_quantile, decay: 0}\nT: 1", "decay must be positive"),
        ("rule: {name: conformal_pvalue}\ncutoff: {quantile: 0.7}", "LOND rule never selects"),
    ],
)
def test_wrong_type_or_non_finite_option_is_a_config_error(tmp_path, capsys, monkeypatch, entry, named):
    monkeypatch.setattr(experiment, "_run_replication", lambda *args: pytest.fail("a replication ran"))
    cfg = tmp_path / "cfg.yaml"
    keys = tuple(f"{line.split(':')[0]}:" for line in entry.splitlines())
    lines = [line for line in CONFIG.splitlines() if not line.startswith(keys)]
    cfg.write_text("\n".join(lines + [entry]) + "\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


@pytest.mark.parametrize(
    "entry, flag",
    [
        ("rule: always", ["--rule", "decision_driven"]),
        ("rule:", ["--rule", "always"]),
    ],
)
def test_name_flag_over_a_non_mapping_section_is_a_config_error(tmp_path, capsys, entry, flag):
    cfg = tmp_path / "cfg.yaml"
    key = entry.split(":")[0]
    lines = [line for line in CONFIG.splitlines() if not line.startswith(f"{key}:")]
    cfg.write_text("\n".join(lines + [entry]) + "\n")
    assert main(["run", "--config", str(cfg), *flag, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: config key '{key}' has the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "log, where",
    [
        ("rep,t,method,covered\n0,1,pemi_det,1\n", "events.csv:2:"),
        ("rep,t,method,covered,size\n0,1,pemi_det,1,2.5\n0,2,pemi_det,0,abc\n", "events.csv:3:"),
        ("rep,t,method,covered,size\n0,1,pemi_det,7,2.5\n", "events.csv:2:"),
        ("rep,t,method,covered,size\n0,1,pemi_det,1,inf\n0,2,pemi_det,1,nan\n", "events.csv:3:"),
        ("rep,t,method,covered,size\n0,1,pemi_det,0,-3.0\n", "events.csv:2:"),
        ("rep,t,method,covered,size\n0,1,pemi_det,1,2.5\n0,-2,bogus,1,2.5\n", "events.csv:3:"),
        ("rep,t,method,covered,size\n0,0,pemi_det,1,2.5\n", "events.csv:2:"),
        ("rep,t,method,covered,size\n-1,1,pemi_det,1,2.5\n", "events.csv:2:"),
        ("rep,t,method,covered,size\n0,1,pemi_bogus,1,2.5\n", "events.csv:2:"),
    ],
    ids=[
        "no size column", "size cell abc", "covered 7", "size nan", "size negative",
        "t -2 and method bogus", "t 0", "rep negative", "method bogus",
    ],
)
def test_malformed_event_log_is_a_data_error(tmp_path, capsys, log, where):
    events = tmp_path / "events.csv"
    events.write_text(log)
    assert main(["report", "--events", str(events), "--out", str(tmp_path / "m.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and where in err
    assert not (tmp_path / "m.csv").exists()
