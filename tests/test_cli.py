import json
import os
from pathlib import Path

import pytest

from pemi.cli import main


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


def test_cli_overrides_win(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    out = tmp_path / "r2"
    rc = main(["run", "--config", str(cfg), "--seed", "77", "--alpha", "0.3", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["seed"] == 77
    assert payload["config"]["alpha"] == 0.3


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    target = tmp_path / "env-out"
    monkeypatch.setenv("PEMI_OUT_DIR", str(target))
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    assert (target / "events.csv").exists()


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
    ],
)
def test_unknown_or_missing_option_is_a_config_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.yaml"
    key = entry.split(":")[0]
    lines = [line for line in CONFIG.splitlines() if not line.startswith(f"{key}:")]
    cfg.write_text("\n".join(lines + [entry]) + "\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
