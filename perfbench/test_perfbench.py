"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

The simulations shrink to T=12, M=20 and the battery to a 20-point
grid; ``--seconds 0`` runs exactly one unit per pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from pemi import fast  # noqa: E402
from pemi.sets import ThresholdSet  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
OTHER_SEED = 7


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(bench_workloads.SIM_BASE, "T", 12)
    monkeypatch.setitem(bench_workloads.SIM_BASE, "M", 20)
    for name, (_, families) in list(bench_workloads.SIMULATIONS.items()):
        monkeypatch.setitem(bench_workloads.SIMULATIONS, name, (4, families))
    monkeypatch.setattr(bench_workloads, "BATTERY_SETUP_INSTANCES", 6)
    monkeypatch.setattr(bench_workloads, "BATTERY_GRID_POINTS", 20)


def bench(capsys, workload: str, seed: int = OTHER_SEED, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed_units(lines: list[str]) -> dict[str, str]:
    units = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ")
            units[name] = rest.rsplit(" ", 1)[1]
    return units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_every_documented_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = bench(capsys, workload, trace=trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {e["name"]: e["unit"] for e in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = printed_units(lines)
    assert {name: printed.get(name) for name in want} == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_digest_gate_trips_on_a_corrupted_digest(tiny, capsys, monkeypatch):
    seed = bench_workloads.DEFAULT_SEED
    workload = bench_workloads.make_workload("label_free", seed, run.OUT_ROOT)
    run.OUT_ROOT.mkdir(exist_ok=True)
    good = workload.run_unit(0)[0]
    recorded = {"label_free": {good.family: {"0": good.digest}}}
    monkeypatch.setattr(bench_workloads, "load_digests", lambda: recorded)
    code, _, result = bench(capsys, "label_free", seed=seed)
    assert code == 0 and result["correct"]

    corrupted = {"label_free": {good.family: {"0": "0" * 64}}}
    monkeypatch.setattr(bench_workloads, "load_digests", lambda: corrupted)
    code, _, result = bench(capsys, "label_free", seed=seed)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["label_free", "battery"])
def test_gate_trips_on_an_injected_wrong_set(tiny, capsys, monkeypatch, workload):
    # an empty set: never covers, and disagrees with the engine wherever p > alpha
    monkeypatch.setattr(fast, "covariate_set", lambda *args, **kwargs: ThresholdSet(-math.inf))
    code, _, result = bench(capsys, workload)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_zero_set_guard_trips_when_a_family_issues_too_few_sets(tiny, capsys, monkeypatch):
    monkeypatch.setattr(bench_workloads, "MIN_SETS_PER_FAMILY", 10**9)
    code, _, result = bench(capsys, "cutoff")
    assert code == 1 and not result["correct"]


@pytest.mark.parametrize("workload", ["label_free", "earlier_outcome", "battery"])
def test_same_seed_gives_identical_counts(tiny, capsys, workload):
    originals = {name: getattr(fast, name) for name in bench_trace.FAST_SET_FUNCTIONS}
    counts = []
    for _ in range(2):
        code, _, result = bench(capsys, workload, trace=1)
        assert code == 0
        m = result["metrics"]
        keys = ["permutations.rows", "engine.pvalue_calls", "fast.set_ms_n", "crosscheck.check_ms_n"]
        keys += [k for k in m if k.startswith("experiment.") and k.endswith(".sets")]
        counts.append({k: m[k]["value"] for k in keys})
    assert counts[0] == counts[1]
    assert counts[0]["engine.pvalue_calls" if workload != "label_free" else "permutations.rows"] > 0
    # the tracer put every function back
    assert {name: getattr(fast, name) for name in originals} == originals


def test_fails_without_a_result_when_the_sources_are_missing():
    bare = run.OUT_ROOT / "bare-checkout"  # only BENCHMARK.json and the benchmark's files
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "label_free", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
