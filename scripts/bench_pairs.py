"""Paired benchmark runs: a parent checkout against this working tree.

Runs the unchanged ``perfbench/run.py`` of each side, alternately, for a
number of pairs per workload.  The change side runs from a copy of this
working tree (the files ``git ls-files -co --exclude-standard`` lists) in
a temporary directory beside the parent checkout, deleted when the script
exits, so both sides run from sibling directories of the same kind and
not one of them from a long-used working tree.  Both runs of a pair use
the same seed, and the side that runs first alternates from pair to
pair, so a drift in the machine's speed does not favour one side.  Each
run's last line of standard output is its JSON result.  For every
end-to-end metric of ``BENCHMARK.json`` the script prints the per-pair
values, each side's median and quartiles, and how many pairs the change
won, and it writes everything to ``BENCH_<number>.json`` at the root of
the repository.  Every run lasts the ``run_seconds`` of
``BENCHMARK.json`` on both sides.

Make the parent checkout with ``git worktree add ../parent HEAD~1`` (or
``git archive``), then, from the root of this checkout:

    python3 scripts/bench_pairs.py --parent ../parent --number 4 \\
        --workloads earlier_outcome --pairs 10 --seed 31

An existing ``BENCH_<number>.json`` keeps the workloads this call does
not run, so workloads can be measured in separate calls.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = float(SPEC["run_seconds"])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--number", required=True, type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=31, help="seed of the first pair; pair i uses seed + i")
    return parser.parse_args(argv)


def git_rev(path: Path) -> str | None:
    proc = subprocess.run(
        ["git", "-C", str(path), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def copy_tree_beside(parent: Path) -> Path:
    """This checkout's tracked and untracked, not ignored files, copied into a
    new temporary directory next to ``parent``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-co", "--exclude-standard", "-z"],
        capture_output=True, check=True,
    ).stdout
    dest = Path(tempfile.mkdtemp(prefix="bench-change-", dir=parent.parent))
    for name in filter(None, listed.split(b"\0")):
        src = ROOT / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted from the working tree is listed too
            (dest / os.fsdecode(name)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / os.fsdecode(name))
    return dest


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run from ``root``; its JSON result plus the exit code."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=20 * SECONDS + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    return {
        "exit": proc.returncode,
        "correct": bool(result.get("correct")),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        rows = [p for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not rows:
            continue
        parent = [p["parent"]["metrics"][name] for p in rows]
        change = [p["change"]["metrics"][name] for p in rows]
        wins = sum((c > a) if higher else (c < a) for a, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": before,
            "change": after,
            "median_ratio": after["median"] / before["median"] if before["median"] else None,
            "wins": wins,
            "pairs": len(rows),
        }
    return summary


def report(workload: str, pairs: list[dict], summary: dict) -> None:
    for name, s in summary.items():
        print(f"{workload} {name} ({s['unit']}, {s['better']} is better)")
        for p in pairs:
            a, c = p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)
            print(f"  seed {p['seed']:>4} ({p['first']} first): parent {a!r}  change {c!r}")
        for side in ("parent", "change"):
            q = s[side]
            print(f"  {side}: median {q['median']:.6g}  quartiles [{q['q1']:.6g}, {q['q3']:.6g}]")
        print(f"  change won {s['wins']} of {s['pairs']} pairs; median ratio {s['median_ratio']:.4g}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    parent = args.parent.resolve()
    out_path = ROOT / f"BENCH_{args.number}.json"
    bench = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
    bench.update(
        {
            "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds "
            f"{SECONDS!r} --trace 0",
            "parent": git_rev(parent) or "parent",
            "change": f"working tree on {git_rev(ROOT) or 'unknown'}, run from a copy in a "
            "temporary directory beside the parent, deleted after the runs",
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
        }
    )
    workloads = bench.setdefault("workloads", {})
    all_correct = True
    change = copy_tree_beside(parent)
    try:
        for workload in args.workloads.split(","):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                first = "parent" if i % 2 == 0 else "change"
                runs = {}
                for side in (first, "change" if first == "parent" else "parent"):
                    runs[side] = run_once(parent if side == "parent" else change, workload, seed)
                    all_correct &= runs[side]["correct"] and runs[side]["exit"] == 0
                pairs.append({"seed": seed, "first": first, **runs})
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            summary = summarize(pairs)
            workloads[workload] = {"pairs": pairs, "summary": summary}
            report(workload, pairs, summary)
    finally:
        shutil.rmtree(change)
    out_path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path.name}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
