"""Record the events.csv digests that the benchmark checks on its default seed.

Run from the root of a checkout, only in a change that is meant to alter
pemi's outputs (and say so in that change):

    python3 perfbench/record_digests.py

For every simulation workload this runs the first units of the default
seed, as many as a run of the configured length gets through with room
to spare, and writes their SHA-256 digests to perfbench/digests.json.
"""

from __future__ import annotations

import json
import sys

import run

# Units recorded per workload; a benchmark run checks those it reaches.
DIGEST_UNITS = {"label_free": 48, "cutoff": 48, "earlier_outcome": 4}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import bench_workloads

    run.OUT_ROOT.mkdir(exist_ok=True)
    digests: dict = {}
    for name, units in DIGEST_UNITS.items():
        workload = bench_workloads.make_workload(name, bench_workloads.DEFAULT_SEED, run.OUT_ROOT)
        for r in run.measure(workload, units=units).records:
            digests.setdefault(name, {}).setdefault(r.family, {})[str(r.unit)] = r.digest
        print(f"{name}: {units} units recorded", flush=True)
    with open(bench_workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
