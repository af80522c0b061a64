"""Write the reference CSVs the correctness check compares against.

Usage (from the repository root): python3 benchmarks/make_reference.py [WORKLOAD ...]

For each workload, runs one untraced operation per simulation seed
0..REFERENCE_SEEDS-1 and stores every leg's CSV in reference/<workload>.json
together with the commit that wrote it and the legs' argv. Regenerate only
when a workload's definition changes; a program change is judged against
the stored reference, never by rewriting it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, BENCH, child_env, git_commit, run_operation
from workloads import REFERENCE_SEEDS, WORKLOADS, write_specs


def main(names) -> int:
    env = child_env(len(os.sched_getaffinity(0)))
    for workload in names or sorted(WORKLOADS):
        legs = WORKLOADS[workload]
        run_dir = OUT / f"reference-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        write_specs(workload, run_dir)
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            op_dir = run_dir / f"seed{seed}"
            result = run_operation(legs, seed, False, op_dir, env)
            if "error" in result:
                print(f"{workload} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {leg.figure: (op_dir / f"{leg.figure}.csv").read_text(
                encoding="utf-8") for leg in legs}
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        shutil.rmtree(run_dir)
        ref = {"commit": git_commit(), "argv": {leg.figure: list(leg.argv) for leg in legs},
               "seeds": seeds}
        (BENCH / "reference" / f"{workload}.json").write_text(
            json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
