"""pemi benchmark: prediction-set throughput per workload, plus a traced per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload label_free --seed 1 --seconds 25 --trace 0

Workloads: label_free, cutoff, earlier_outcome, battery (see
perfbench/README.md).  ``--trace 0`` measures for ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` measures
untraced for half of ``--seconds``, replays the same units with every
pemi layer wrapped, and reports the per-layer metrics.  Every metric is
printed as ``metric <name> = <value> <unit>``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when a
check failed and 2 when the pemi sources are missing.
"""

from __future__ import annotations

import os

# One caller, one core per BLAS call: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Set-up is measured in fresh interpreters; the median of these is setup_s.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The host's speed drifts by up to 1.6x over tens of seconds, for pemi and
# for this reference task alike.  sets_per_s and setup_s are wall-clock
# figures rescaled to a reference-task time of REF_NOMINAL_MS, a typical
# reading on the 2-core VM the benchmark was written on.
REF_TABLE = np.random.default_rng(20251017).permuted(np.tile(np.arange(60), (64, 1)), axis=1)
REF_REPEATS = 5
REF_NOMINAL_MS = 1.5
REF_INTERVAL_S = 0.5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


def reference_task() -> float:
    """Fixed work with pemi's mix of interpreter and small-array numpy cost."""
    a = np.arange(60.0)
    s = 0.0
    for i in range(200):
        b = a[REF_TABLE[i % len(REF_TABLE)]]
        s += float(np.cumsum(b)[-1]) + float((b[:-1] > b[-1]).sum()) + sum(range(30))
    return s


def reference_ms() -> float:
    """The machine's current speed, as the median time of the reference task."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


class SpeedSampler:
    """Times the reference task every REF_INTERVAL_S seconds while active.

    The readings come from a SIGALRM handler, so they are spread evenly over
    the timed work even when one unit runs for many seconds.  ``clock``
    leaves out the time the readings took.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _read(self, *_signal) -> None:
        start = time.perf_counter()
        self.readings.append(reference_ms())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()

    @property
    def ref_ms(self) -> float:
        return statistics.mean(self.readings)


@dataclass
class Pass:
    """Units run back to back, and the reference time while they ran."""

    units: int
    records: list
    ref_ms: float

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def sets(self) -> int:
        return sum(r.sets for r in self.records)


def measure(
    workload,
    budget_s: float | None = None,
    units: int | None = None,
    sampler: SpeedSampler | None = None,
) -> Pass:
    """Run units back to back: for ``budget_s`` seconds (at least one unit)
    or exactly ``units`` of them, sampling the machine's speed throughout."""
    sampler = sampler or SpeedSampler()
    records = []
    unit = 0
    with sampler:
        start = sampler.clock()
        while True:
            if units is not None and unit >= units:
                break
            if units is None and unit > 0 and sampler.clock() - start >= budget_s:
                break
            records.extend(workload.run_unit(unit, sampler.clock))
            unit += 1
    return Pass(unit, records, sampler.ref_ms)


def percentiles(samples: list[float]) -> tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    p50, p90 = np.percentile(np.asarray(samples), [50, 90])
    return float(p50), float(p90)


def end_to_end(workload, seconds: float, outcome: Outcome, digests: dict) -> None:
    measured = measure(workload, budget_s=seconds)
    outcome.attempted += measured.sets
    outcome.failures += workload.failures(measured.records, digests)
    wall_rate = measured.sets / measured.seconds
    outcome.values["sets_per_s"] = wall_rate * measured.ref_ms / REF_NOMINAL_MS
    print(f"wall-clock sets/s = {wall_rate!r}, reference task = {measured.ref_ms!r} ms")
    report_family_sets(workload, measured.records)


def report_family_sets(workload, records) -> None:
    for family in workload.families:
        sets = sum(r.sets for r in records if r.family == family)
        print(f"sets issued: {family} = {sets}")


class TracedUnits:
    """A workload whose units tell the tracer which unit their spans belong to."""

    def __init__(self, workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer

    def run_unit(self, unit: int, clock):
        self.tracer.unit = unit
        return self.workload.run_unit(unit, clock)


def per_layer(workload, seconds: float, outcome: Outcome, digests: dict) -> None:
    import bench_trace
    import bench_workloads

    untraced = measure(workload, budget_s=seconds / 2)
    sampler = SpeedSampler()
    tracer = bench_trace.Tracer(clock=sampler.clock)
    with tracer:
        traced_pass = measure(TracedUnits(workload, tracer), units=untraced.units, sampler=sampler)
    plain, traced = untraced.records, traced_pass.records
    outcome.attempted += untraced.sets + traced_pass.sets
    outcome.failures += workload.failures(plain, digests)
    changed = [
        (a.family, a.unit) for a, b in zip(plain, traced) if (a.digest, a.mismatches) != (b.digest, b.mismatches)
    ]
    if changed:
        outcome.failures.append(f"tracing changed the outputs of {changed}")
    report_family_sets(workload, plain)

    OUT_ROOT.mkdir(exist_ok=True)
    tracer.write_spans(OUT_ROOT / f"spans-{workload.name}-seed{workload.seed}.csv")

    v = outcome.values
    wall = traced_pass.seconds
    total_self = 0.0
    for layer, st in tracer.layers.items():
        v[f"{layer}.calls"] = st.calls
        v[f"{layer}.busy_s"] = st.busy
        v[f"{layer}.self_s"] = st.self_time
        v[f"{layer}.self_share"] = st.self_time / wall
        total_self += st.self_time
    counts = tracer.counts
    sets_traced = sum(r.sets for r in traced)
    v["permutations.rows"] = counts["permutation_rows"]
    v["permutations.apply_calls"] = counts["engine_apply_calls"]
    v["types.validate_s"] = tracer.times["validate"]
    v["rules.select_calls"] = counts["select_calls"]
    v["scores.model_calls"] = counts["model_calls"]
    v["scores.model_calls_per_set"] = counts["model_calls"] / sets_traced
    v["engine.pvalue_calls"] = counts["pvalue_calls"]
    v["engine.ref_accept_ratio"] = (
        counts["ref_reselected"] / counts["ref_sampled"] if counts["ref_sampled"] else 0.0
    )
    for key, name in (("fast_set_ms", "fast.set_ms"), ("check_ms", "crosscheck.check_ms")):
        samples = tracer.samples[key]
        v[f"{name}_p50"], v[f"{name}_p90"] = percentiles(samples)
        v[f"{name}_n"] = len(samples)
    simulated = isinstance(workload, bench_workloads.SimulationWorkload)
    for family in bench_workloads.SIM_FAMILIES:
        mine = [r for r in plain if simulated and r.family == family]
        sets = sum(r.sets for r in mine)
        v[f"experiment.{family}.sets"] = sets
        v[f"experiment.{family}.ms_per_set"] = 1e3 * sum(r.experiment_s for r in mine) / sets if sets else 0.0
    v["experiment.write_s"] = sum(r.write_s for r in plain)
    v["experiment.bytes_written"] = sum(r.bytes_written for r in plain)
    v["trace.ref_ms"] = untraced.ref_ms
    # both passes rescaled to the same machine speed before comparing
    v["trace.overhead_frac"] = (wall / traced_pass.ref_ms) / (untraced.seconds / untraced.ref_ms) - 1
    v["trace.unattributed_share"] = 1 - total_self / wall


def setup_probe(args: argparse.Namespace) -> int:
    """Set the workload up, say so, and exit; the parent times this."""
    import bench_workloads

    bench_workloads.make_workload(args.workload, args.seed, OUT_ROOT).setup()
    print("ready", flush=True)
    return 0


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from starting a fresh interpreter to a finished set-up,
    rescaled to the reference speed like sets_per_s."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    times = []
    refs = [reference_ms()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(ready - start)
        refs.append(reference_ms())
    wall, ref = statistics.median(times), statistics.mean(refs)
    print(f"wall-clock setup = {wall!r} s, reference task = {ref!r} ms")
    return wall * REF_NOMINAL_MS / ref


def run(args: argparse.Namespace) -> Outcome:
    import bench_workloads

    outcome = Outcome()
    try:
        if args.workload not in bench_workloads.WORKLOADS:
            raise ValueError(f"unknown workload {args.workload!r}; choose from {bench_workloads.WORKLOADS}")
        if not args.trace:
            outcome.values["setup_s"] = measure_setup(args)
        OUT_ROOT.mkdir(exist_ok=True)
        workload = bench_workloads.make_workload(args.workload, args.seed, OUT_ROOT)
        workload.setup()
        digests = bench_workloads.load_digests()
        if args.trace:
            per_layer(workload, args.seconds, outcome, digests)
        else:
            end_to_end(workload, args.seconds, outcome, digests)
            outcome.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:  # the run itself failed: report it as a failed run
        outcome.failures.append(traceback.format_exc())
        outcome.attempted = max(outcome.attempted, 1)
    return outcome


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pemi" / "__init__.py").is_file():
        print(f"pemi sources not found: expected {SRC / 'pemi'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    outcome = run(args)
    section = spec["per_layer" if args.trace else "end_to_end"]
    missing = [e["name"] for e in section if e["name"] not in outcome.values and e["name"] != "failed_frac"]
    if missing and outcome.correct:
        outcome.failures.append(f"metrics not measured: {missing}")
    failed = 0 if outcome.correct else outcome.attempted
    outcome.values["failed_frac"] = failed / outcome.attempted if outcome.attempted else 0.0

    units = {e["name"]: e["unit"] for e in section}
    units.setdefault("failed_frac", "fraction")
    metrics = {}
    for name, unit in units.items():
        if name in outcome.values:
            value = float(outcome.values[name])
            print(f"metric {name} = {value!r} {unit}")
            if name in {e["name"] for e in section}:
                metrics[name] = {"value": value, "unit": unit}
    for problem in outcome.failures:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.correct, "attempted": outcome.attempted, "failed": failed, "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
