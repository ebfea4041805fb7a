"""One-line mutants of ``src/``: which of them the tests kill.

Each entry of ``MUTANTS`` replaces one exact text of one source file with
another and names the error it stands for.  For every mutant the script
copies this checkout (the files ``git ls-files -co --exclude-standard``
lists) into a temporary directory, applies the mutant there, and runs the
quick suite, ``tests/`` without ``tests/test_acceptance.py``, with ``-x``.
A mutant that the quick suite lets pass is run against the rest of tier-1
(``tests/test_acceptance.py`` and ``perfbench/``) and ``perfbench/run.py
--seed 1`` on every workload, whose seed-1 units check recorded output
digests.  Mutants run two at a time, each in its own copy.  It prints,
per mutant in table order, ``killed`` with the first failing check or
``survived``, and whether that is the outcome the table expects.  The
checkout itself is never written.

From the root of a checkout:

    python3 scripts/mutants.py              # the whole table
    python3 scripts/mutants.py --only memo_first_argument,label_first_place_only

The exit code is 1 when some outcome differs from its expectation.
``tests/test_mutants.py`` checks, without running any mutant, that every
old text still occurs exactly once in ``src/``; the runs here leave that
file out, since an applied mutant removes its old text.  Standard library
only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py fails on every applied mutant by design: it checks the table against src/
TABLE_CHECK = "--ignore=tests/test_mutants.py"
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
QUICK = [*PYTEST, "tests", "--ignore=tests/test_acceptance.py", TABLE_CHECK]
REST_OF_TIER1 = [*PYTEST, "tests/test_acceptance.py", "perfbench"]
JOBS = 2
WORKLOADS = ("label_free", "cutoff", "earlier_outcome", "battery")
BENCH_SECONDS = "3"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    old: str  # occurs exactly once in src/, in ``path``
    new: str
    stands_for: str
    expect: str = "killed"  # or "survives", with the reason in ``stands_for``


MUTANTS = (
    Mutant(
        "calibration_all_moved", "src/pemi/fast.py",
        "moved_scores=scores[sel & moved])", "moved_scores=scores[sel])",
        "_calibration counts every selected row as moved, the rows that keep the test point included",
    ),
    Mutant(
        "earlier_outcome_ge", "src/pemi/rules.py",
        "_weighted_sum(labels > values[..., -1:], w)", "_weighted_sum(labels >= values[..., -1:], w)",
        "EarlierOutcomeRule.decide_rows counts labels that tie the prediction",
    ),
    Mutant(
        "randomized_tie_walk", "src/pemi/fast.py",
        "if exceeds(strictly_above, stay + count):", "if exceeds(strictly_above, stay + count - 1):",
        "_randomized_threshold's tie walk misses one tie of each score class",
    ),
    Mutant(
        "cutoff_side_lt", "src/pemi/sets.py",
        "q = self.q_below if y <= self.cutoff else self.q_above",
        "q = self.q_below if y < self.cutoff else self.q_above",
        "CutoffPiecewiseSet.contains puts a label at the cutoff on the side above",
    ),
    Mutant(
        "decision_driven_gt", "src/pemi/rules.py",
        "selected = v >= self.tau1 + picked / self.tau0", "selected = v > self.tau1 + picked / self.tau0",
        "DecisionDrivenRule.select_values needs the prediction strictly above its bar",
    ),
    Mutant(
        "coverage_rank_above_50", "src/pemi/quantiles.py",
        "return -(-(b - a) * int(ref_size) // b)", "return -(-(b - a) * int(ref_size) // b) + (ref_size > 50)",
        "coverage_rank one too high above 50 references",
    ),
    Mutant(
        "lond_levels_lt", "src/pemi/thresholds.py",
        "d += p[..., j] <= out[..., j]", "d += p[..., j] < out[..., j]",
        "_lond_levels misses a discovery at its level",
    ),
    Mutant(
        "uncertainty_budget_ge", "src/pemi/rules.py",
        "np.any((past > kth_largest) & (past <= v_t), axis=1)",
        "np.any((past >= kth_largest) & (past <= v_t), axis=1)",
        "the uncertainty-budget kernel admits the (k+1)-th largest past value",
    ),
    Mutant(
        "taxonomy_any_last_step", "src/pemi/rules.py",
        "return (traj[:, -1] == 1) & inside", "return inside",
        "SelectionTaxonomy.mask keeps trajectories that do not select their last step",
    ),
    Mutant(
        "cutoff_sides_lt", "src/pemi/rules.py",
        "indicators[..., :-1] = labels <= cutoffs", "indicators[..., :-1] = labels < cutoffs",
        "_sides puts a label equal to its cutoff above it",
    ),
    Mutant(
        "memo_first_argument", "src/pemi/engine.py",
        "all(map(operator.is_, last[0], args))", "all(map(operator.is_, last[0][:1], args))",
        "_one_slot_memo compares only its first argument",
    ),
    Mutant(
        "elond_offline_count_gt", "src/pemi/rules.py",
        "(i_off * (f_off >= f_on[..., j : j + step, :]))", "(i_off * (f_off > f_on[..., j : j + step, :]))",
        "e-LOND's offline count leaves out offline scores that tie the step's",
    ),
    Mutant(
        "weighted_quantile_le", "src/pemi/rules.py",
        "return _weighted_sum(past < v_t, w) >= (1 - self.q_sel) * total",
        "return _weighted_sum(past <= v_t, w) >= (1 - self.q_sel) * total",
        "the weighted-quantile kernel counts past predictions that tie the test point's",
    ),
    Mutant(
        "recency_weights_ulp", "src/pemi/rules.py",
        "decay ** np.arange(n - 1, -1, -1, dtype=float)", "decay ** np.arange(n - 1, -1, -1, dtype=float) * (1 + 1e-15)",
        "recency weights off by a relative 1e-15",
    ),
    Mutant(
        "decision_driven_bar_capped", "src/pemi/rules.py",
        "np.greater_equal(cols[j], bars[picked], out=out[j])",
        "np.greater_equal(cols[j], bars[np.minimum(picked, 25)], out=out[j])",
        "the decision-driven kernel's bar stops rising after 25 picks",
    ),
    Mutant(
        "lond_discoveries_capped", "src/pemi/thresholds.py",
        "out[..., j] = alpha * g[j] * (d + 1)", "out[..., j] = alpha * g[j] * (np.minimum(d, 6) + 1)",
        "LOND's levels stop rising after 6 discoveries",
    ),
    Mutant(
        "weighted_average_shift", "src/pemi/rules.py",
        "return _weighted_sum(past, w) / total < v_t[:, 0]",
        "return _weighted_sum(past, w) / total - 1e-9 * (past.shape[1] > 30) < v_t[:, 0]",
        "the weighted-average kernel selects a prediction within 1e-9 below the average beyond 30 past points",
    ),
    Mutant(
        "weighted_average_shift_up", "src/pemi/rules.py",
        "return _weighted_sum(past, w) / total < v_t[:, 0]",
        "return _weighted_sum(past, w) / total + 1e-9 * (past.shape[1] > 30) < v_t[:, 0]",
        "the weighted-average kernel skips a prediction within 1e-9 above the average beyond 30 past points",
    ),
    Mutant(
        "test_point_score_previous_row", "src/pemi/experiment.py",
        "at = _test_point(data, res.score)", "at = res.score.at(X[n_off + t - 2])",
        "a step's sets read the score at the previous row's covariates, not the test point's",
    ),
    Mutant(
        "permutation_seed_shift", "src/pemi/experiment.py",
        "seed=(perm_base + t) & ((1 << 64) - 1)", "seed=(perm_base + t + 1) & ((1 << 64) - 1)",
        "another per-step permutation seed: every set stays valid, the output bits move",
    ),
    Mutant(
        "stay_count_above_60", "src/pemi/fast.py",
        "stay = int(ref_size) - scores_moved.shape[0]",
        "stay = int(ref_size) - scores_moved.shape[0] + (ref_size > 60)",
        "_randomized_threshold's stay count one too high above 60 references",
    ),
    Mutant(
        "breakpoint_dropped_late", "src/pemi/fast.py",
        "breakpoints = np.sort(mu_points[: t - 1])", "breakpoints = np.sort(mu_points[: t - 1])[(t > 40) :]",
        "earlier_outcome_set drops its smallest breakpoint when t > 40.  Close to equivalent: it "
        "matters only where a row whose last slot holds the smallest prediction is selected, "
        "which the drawn sequences do not give",
        expect="survives",
    ),
    # the per-label path: a label written in place into the engine's working labels
    Mutant(
        "label_first_place_only", "src/pemi/engine.py",
        "flat[at_test] = y", "flat[at_test[:1]] = y",
        "reference_mask writes a label into only the first of its places, leaving the last label's in the others",
    ),
    Mutant(
        "label_leaks", "src/pemi/engine.py",
        "flat[at_test] = y", "flat[at_test[: at_test.size // 2 + (y > 0) * at_test.size]] = y",
        "a label at or below 0 is written into half of its places, the rest keep the last positive label",
    ),
    Mutant(
        "working_labels_writable", "src/pemi/engine.py",
        "read.setflags(write=False)", "read.setflags(write=True)",
        "the rule may write into the engine's working labels",
    ),
    Mutant(
        "rule_reads_replayed_labels", "src/pemi/engine.py",
        "return values, read, cutoffs, n_offline, at_test, work.reshape(-1)",
        "return values, labels, cutoffs, n_offline, at_test, work.reshape(-1)",
        "the rule reads the replay's labels, the test label NaN, not the written copy",
    ),
    Mutant(
        "unit_count_drops_one", "src/pemi/rules.py",
        "return x @ recency_weights(x.shape[-1], None) if x.dtype == bool else x.sum(axis=-1)",
        "return x[..., 1:] @ recency_weights(x.shape[-1] - 1, None) if x.dtype == bool else x.sum(axis=-1)",
        "_weighted_sum counts all bool indicators but the first",
    ),
)


def copy_checkout(dest: Path) -> None:
    """This checkout's tracked and untracked, not ignored files, copied into ``dest``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-co", "--exclude-standard", "-z"],
        capture_output=True, check=True,
    ).stdout
    for name in filter(None, listed.split(b"\0")):
        src = ROOT / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted from the working tree is listed too
            (dest / os.fsdecode(name)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / os.fsdecode(name))


def first_failure(output: str) -> str:
    """The first ``FAILED``/``ERROR`` line of pytest's summary, or the last line."""
    lines = output.strip().splitlines()
    return next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), lines[-1] if lines else "")


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=1800)


def verdict(tree: Path) -> str | None:
    """The first check that fails on ``tree``, or None when every check passes."""
    for args in (QUICK, REST_OF_TIER1):
        proc = run([sys.executable, *args], tree)
        if proc.returncode != 0:
            return first_failure(proc.stdout)
    for workload in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", BENCH_SECONDS, "--trace", "0"]
        proc = run(cmd, tree)
        if proc.returncode != 0:
            return f"perfbench/run.py --workload {workload} --seed 1: exit {proc.returncode}"
    return None


def apply(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_mutant(mutant: Mutant) -> str | None:
    """``verdict`` on a fresh copy of this checkout with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        apply(mutant, tree)
        return verdict(tree)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="comma-separated mutant names (default: all)")
    args = parser.parse_args(argv)
    chosen = MUTANTS
    if args.only:
        names = args.only.split(",")
        unknown = set(names) - {m.name for m in MUTANTS}
        if unknown:
            parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
        chosen = tuple(m for m in MUTANTS if m.name in names)
    unexpected = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for mutant, failure in zip(chosen, pool.map(run_mutant, chosen)):
            outcome = "survives" if failure is None else "killed"
            unexpected += outcome != mutant.expect
            mark = "as expected" if outcome == mutant.expect else f"UNEXPECTED (expected: {mutant.expect})"
            detail = "survived" if failure is None else f"killed by {failure}"
            print(f"{mutant.name}: {detail}; {mark}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} with an unexpected outcome")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
