"""Run the benchmark over several seeds, print spreads, optionally record an entry.

Usage (from the repository root):

    python3 benchmarks/trajectory.py [--workloads a,b] [--seeds 0-9] [--trace-seeds 2]
                                     [--crosscheck] [--append LABEL]

Each (workload, seed) is one `run.py` run of BENCHMARK.json's run_seconds.
For every end-to-end metric it prints the median over seeds and the spread,
(q3 - q1) / median, against the metric's bound. The first --trace-seeds seeds
also get a traced run. --crosscheck also times the full fig12 preset once, as
the ROADMAP baseline quotes it. --append adds the summary to trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from run import BENCH, OUT, ROOT, child_env, git_commit, machine_facts, run_operation
from workloads import Leg

# ROADMAP baseline at the reference commit, on a 2-core x86-64 KVM guest
ROADMAP_BASELINE = {"fig12_s": 23.4, "fig4_s": 3.8, "pf_5000_slots_ms": 35.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = sorted((OUT / "results").glob(f"{workload}-seed{seed}-*-trace{trace}.json"),
                     key=lambda p: p.stat().st_mtime)
    result["record"] = json.loads(records[-1].read_text(encoding="utf-8"))
    return result


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def full_fig12_wall() -> float:
    run_dir = OUT / f"crosscheck-{time.time_ns()}"
    try:
        result = run_operation((Leg("fig12", ("preset", "fig12")),), 12, False,
                               run_dir / "op", child_env(len(os.sched_getaffinity(0))))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if "error" in result:
        raise SystemExit(f"full fig12: {result['error']}")
    return sum(c["end"] - c["start"] for c in result["calls"])


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's workloads")
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--trace-seeds", type=int, default=2)
    p.add_argument("--crosscheck", action="store_true")
    p.add_argument("--append", metavar="LABEL")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        traced = [run_once(workload, s, bench["run_seconds"], 1)
                  for s in seeds[:args.trace_seeds]]
        entry = {"runs": len(runs) + len(traced),
                 "operations": sum(r["attempted"] for r in runs + traced),
                 "failed": sum(r["failed"] for r in runs + traced),
                 "end_to_end": {}, "per_layer": {}, "top_self_time": {}}
        for name in bounds:
            s = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:11s} {name:16s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f} (bound {bounds[name]}){flag}", file=sys.stderr)
        if traced:
            for name in traced[0]["metrics"]:
                entry["per_layer"][name] = statistics.median(
                    r["metrics"][name]["value"] for r in traced)
            first_op = next(op for op in traced[0]["record"]["ops"] if op.get("legs"))
            entry["top_self_time"] = first_op["legs"]
        print(f"{workload:11s} operations {entry['operations']}, failed {entry['failed']}",
              file=sys.stderr)
        summary[workload] = entry

    record = {"label": args.append, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "commit": git_commit(), "run_seconds": bench["run_seconds"], "seeds": seeds,
              "machine": machine_facts(len(os.sched_getaffinity(0))),
              "workloads": summary}
    if args.crosscheck:
        pf = summary.get("pf_snr", {}).get("per_layer", {})
        record["crosscheck"] = {
            "roadmap": ROADMAP_BASELINE,
            "fig12_s": full_fig12_wall(),
            "fig4_s (sub6_sweep wall_s, same slots per point)":
                summary.get("sub6_sweep", {}).get("end_to_end", {}).get("wall_s", {}).get("median"),
            "pf_5000_slots_ms (pf_snr schedule_rates.pf self time per slot x 5000)":
                1e3 * 5000 * pf["engine.schedule_rates.pf.s"] / pf["engine.schedule_rates.slots"]
                if pf else None,
        }
        print(json.dumps(record["crosscheck"], indent=1), file=sys.stderr)
    if args.append:
        path = BENCH / "trajectory.json"
        entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        entries.append(record)
        path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
