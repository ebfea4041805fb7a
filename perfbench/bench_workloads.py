"""The benchmark's workloads: inputs built from a seed, timed units, output checks.

A workload is run as a closed loop with one caller: unit ``k + 1`` starts
only after unit ``k`` has finished.  A simulation unit runs
``run_experiment`` plus ``write_outputs`` once per rule family, which is
what ``pemi run`` does; a battery unit checks 30 instances of the
consistency battery.  Unit ``k`` of seed ``s`` always gets the same
inputs, so a traced pass can replay exactly the units an untraced pass
measured.  A unit times its calls with the clock it is given, which
leaves out the time the benchmark spends reading the machine's speed.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pemi
from pemi import crosscheck, experiment, oracle, permutations

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
DEFAULT_SEED = 1

# A family that issues fewer sets than this in one run cannot be timed.
MIN_SETS_PER_FAMILY = 10

SIM_BASE = {
    "T": 60,
    "alpha": 0.4,
    "M": 200,
    "generator": {"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0},
    "score": {"name": "abs_residual", "model": {"name": "true_mean"}},
    "workers": 1,
}
TRUE_MEAN = {"name": "true_mean"}

# workload -> (replications per family per unit, {family: config entries})
SIMULATIONS = {
    "label_free": (
        8,
        {
            "decision_driven": {
                "rule": {"name": "decision_driven", "tau0": 200, "tau1": 5.5, "model": TRUE_MEAN},
                "methods": ["pemi_det", "pemi_rand"],
            },
            "weighted_quantile": {
                "rule": {"name": "weighted_quantile", "q_sel": 0.3, "model": TRUE_MEAN},
                "methods": ["pemi_det", "pemi_rand"],
            },
        },
    ),
    "cutoff": (
        6,
        {
            "conformal_pvalue": {
                "rule": {"name": "conformal_pvalue", "q": 0.3, "decay": 0.99, "model": TRUE_MEAN},
                "cutoff": {"quantile": 0.7},
                "methods": ["pemi_det"],
            },
            "elond": {
                "rule": {"name": "elond", "test_alpha": 0.5, "model": TRUE_MEAN},
                "cutoff": {"quantile": 0.3},
                "offline_n": 20,
                "methods": ["pemi_det"],
            },
        },
    ),
    "earlier_outcome": (
        1,
        {
            "earlier_outcome": {
                "rule": {"name": "earlier_outcome", "beta_sel": 0.9, "model": TRUE_MEAN},
                "methods": ["pemi_det"],
            },
        },
    ),
}
SIM_FAMILIES = tuple(f for _, fams in SIMULATIONS.values() for f in fams)

# Criterion-1 battery settings, with every (t, M) cell visited in turn
# instead of drawn.  Instance i has family i % 6 and cell (i // 6) % 15;
# cell j has t = BATTERY_T[j % 5], so each unit of 30 instances checks every
# family at every t.  Cells differ in cost by up to 30x (all-orderings
# enumeration at t + n_offline <= 5), and whole units keep a run's mix of
# them the same wherever its time runs out.
BATTERY_GRID_POINTS = 100
BATTERY_T = (3, 4, 5, 6, 7)
BATTERY_M = (0, 5, 20)
BATTERY_FULL_ENUM_MAX_T = 5
BATTERY_CELLS = tuple((BATTERY_T[j % 5], BATTERY_M[j % 3]) for j in range(15))
BATTERY_UNIT = len(crosscheck.FAMILIES) * len(BATTERY_T)
# Instances drawn during set-up: one pass over every (family, cell) pair.
BATTERY_SETUP_INSTANCES = len(crosscheck.FAMILIES) * len(BATTERY_CELLS)

WORKLOADS = (*SIMULATIONS, "battery")


@dataclass
class Record:
    """One timed call: a family's simulation or one battery instance."""

    unit: int
    family: str
    seconds: float
    sets: int
    experiment_s: float = 0.0
    write_s: float = 0.0
    bytes_written: int = 0
    det_sets: int = 0
    det_covered: int = 0
    digest: str = ""
    mismatches: int = 0


def unit_seed(seed: int, unit: int) -> int:
    return seed * 1_000_000 + unit


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class SimulationWorkload:
    """Seeded ``run_experiment`` + ``write_outputs`` calls, one per family per unit."""

    def __init__(self, name: str, seed: int, out_root: Path) -> None:
        self.name = name
        self.seed = seed
        self.out_root = out_root
        self.reps, self.families = SIMULATIONS[name]

    def config(self, family: str, unit: int) -> experiment.ExperimentConfig:
        raw = dict(SIM_BASE, N=self.reps, seed=unit_seed(self.seed, unit), **self.families[family])
        return experiment.ExperimentConfig.from_dict(raw)

    def setup(self) -> None:
        for family in self.families:
            experiment.resolve_experiment(self.config(family, 0))

    def run_unit(self, unit: int, clock=time.perf_counter) -> list[Record]:
        records = []
        for family in self.families:
            config = self.config(family, unit)
            with tempfile.TemporaryDirectory(dir=self.out_root) as out:
                t0 = clock()
                result = experiment.run_experiment(config)
                t1 = clock()
                paths = experiment.write_outputs(result, out)
                t2 = clock()
                events_bytes = Path(paths["events"]).read_bytes()
                written = sum(Path(p).stat().st_size for p in paths.values())
            det = [e for e in result.events if e.method == "pemi_det"]
            records.append(
                Record(
                    unit=unit,
                    family=family,
                    seconds=t2 - t0,
                    sets=len(result.events),
                    experiment_s=t1 - t0,
                    write_s=t2 - t1,
                    bytes_written=written,
                    det_sets=len(det),
                    det_covered=sum(e.covered for e in det),
                    digest=hashlib.sha256(events_bytes).hexdigest(),
                )
            )
        return records

    def failures(self, records: list[Record], digests: dict) -> list[str]:
        problems = []
        recorded = digests.get(self.name, {}) if self.seed == DEFAULT_SEED else {}
        for r in records:
            want = recorded.get(r.family, {}).get(str(r.unit))
            if want is not None and r.digest != want:
                problems.append(
                    f"{r.family} unit {r.unit}: events.csv digest {r.digest[:12]} != recorded {want[:12]}"
                )
        for family in self.families:
            mine = [r for r in records if r.family == family]
            sets = sum(r.sets for r in mine)
            if sets < MIN_SETS_PER_FAMILY:
                problems.append(f"{family}: issued {sets} sets, fewer than {MIN_SETS_PER_FAMILY} to time")
                continue
            n = sum(r.det_sets for r in mine)
            covered = sum(r.det_covered for r in mine)
            alpha = SIM_BASE["alpha"]
            floor = 1 - alpha - 4 * math.sqrt(alpha * (1 - alpha) / n)
            if covered / n < floor:
                problems.append(f"{family}: pemi_det coverage {covered}/{n} below {floor:.4f}")
        return problems


class BatteryWorkload:
    """The criterion-1 consistency battery, BATTERY_UNIT instances per unit."""

    families = crosscheck.FAMILIES

    def __init__(self, seed: int) -> None:
        self.name = "battery"
        self.seed = seed
        self.items: dict[int, tuple[crosscheck.Instance, pemi.PermutationSample]] = {}

    def item(self, i: int) -> tuple[crosscheck.Instance, pemi.PermutationSample]:
        if i not in self.items:
            family = self.families[i % len(self.families)]
            t, M = BATTERY_CELLS[(i // len(self.families)) % len(BATTERY_CELLS)]
            rng = np.random.default_rng((self.seed, i))
            inst = crosscheck.draw_instance(family, rng, t)
            perms = permutations.sample_permutations(
                t, M, seed=int(rng.integers(2**63)), n_offline=inst.data.n_offline
            )
            self.items[i] = (inst, perms)
        return self.items[i]

    def setup(self) -> None:
        for i in range(BATTERY_SETUP_INSTANCES):
            self.item(i)

    def run_unit(self, unit: int, clock=time.perf_counter) -> list[Record]:
        records = []
        for i in range(unit * BATTERY_UNIT, (unit + 1) * BATTERY_UNIT):
            inst, perms = self.item(i)
            t0 = clock()
            bad = crosscheck.check_instance(inst, perms, BATTERY_GRID_POINTS)
            if inst.data.n_slots <= BATTERY_FULL_ENUM_MAX_T:
                full = oracle.all_orders_sample(inst.data.n_slots, 1 - inst.data.n_offline, skip_identity=True)
                bad += crosscheck.check_instance(inst, full, BATTERY_GRID_POINTS)
            t1 = clock()
            records.append(Record(unit=unit, family=inst.family, seconds=t1 - t0, sets=1, mismatches=bad))
        return records

    def failures(self, records: list[Record], digests: dict) -> list[str]:
        bad = sum(r.mismatches for r in records)
        return [f"battery: {bad} mismatches between closed form, engine and enumeration"] if bad else []


def make_workload(name: str, seed: int, out_root: Path):
    if name == "battery":
        return BatteryWorkload(seed)
    return SimulationWorkload(name, seed, out_root)
