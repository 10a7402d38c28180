"""Record reference outputs and counts for a range of seeds.

Run from the root of a checkout, only when outputs change on purpose:

    python3 perfbench/record.py --workload sim-coop --seeds 0-11

For each seed it runs one unit untraced and one traced, requires both to
produce the same outputs with no failed operation, and writes their output
digests and machine-independent counts to ``perfbench/refs/<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import run


def record(workload: str, seeds: list[int]) -> None:
    run.prepare_imports()
    import workloads
    path = os.path.join(run.REFS_DIR, f"{workload}.json")
    data = {"seeds": {}}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    for seed in seeds:
        workdir = run.workdir_for(workload, "record")
        try:
            w = workloads.make(workload, seed, workdir)
            w.setup()
            (_, plain), (_, traced), tracer = run.measure_traced(w)
        finally:
            run.remove_workdir(workdir)
        if plain.failures or traced.outputs != plain.outputs:
            raise SystemExit(f"seed {seed}: failed operations or traced outputs differ: "
                             f"{sorted(plain.failures.items())[:3]}")
        data["seeds"][str(seed)] = {
            "outputs": plain.outputs,
            "counts": plain.counts,
            "traced_counts": run.traced_counts(tracer, traced),
            "quality": plain.quality(),
        }
        print(f"{workload} seed {seed}: {len(plain.outputs)} outputs, counts {plain.counts}",
              flush=True)
    os.makedirs(run.REFS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record benchmark references")
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-11")
    args = parser.parse_args(argv)
    record(args.workload, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
