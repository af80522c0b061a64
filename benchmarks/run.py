"""irsoob benchmark harness.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs operations of one workload back to back for about S seconds. Each
operation is a fresh Python process (child.py) that calls `irsoob.cli.main`
for every leg of the workload, writing into its own output directory under
`.bench_out/`. Every operation's outputs are checked against the reference
CSVs (check.py). With --trace 0 the last stdout line reports the medians of
the end-to-end metrics over the operations; with --trace 1 operations
alternate traced and untraced, and it reports the per-layer metrics of the
traced ones (medians) plus the tracing overhead. Metric names and units come
from BENCHMARK.json. The full record of the run, machine facts included,
goes to `.bench_out/results/`.
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
import time
from importlib import metadata
from pathlib import Path

from check import check_operation
from tracer import layer_metrics, leg_breakdown
from workloads import REFERENCE_SEEDS, WORKLOADS, leg_argv, write_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
OP_TIMEOUT_S = 60         # one operation takes a few seconds on a 2-core machine
RUN_LIMIT_S = 100         # start no operation expected to end later; a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts(threads: int) -> dict:
    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "blas_threads": {var: str(threads) for var in THREAD_VARS},
             "python": platform.python_version(),
             "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
             "cpu_model": None, "l2_cache": None, "l3_cache": None,
             "git_commit": git_commit()}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                               env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    keys = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            facts[keys[key.strip()]] = value.strip()
    return facts


def git_commit() -> str | None:
    """HEAD of the repository, or None in a checkout without git metadata."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def child_env(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def load_reference(workload: str, legs) -> dict:
    ref = json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    made_for = {leg.figure: list(leg.argv) for leg in legs}
    if ref["argv"] != made_for:
        raise SystemExit(f"reference/{workload}.json was made for {ref['argv']}, "
                         f"the workload now runs {made_for}")
    return ref


def run_operation(legs, seed: int, trace: bool, op_dir: Path, env: dict) -> dict:
    """Run one child process; return its raw result, or an error string."""
    op_dir.mkdir(parents=True)
    job = {"trace": trace, "result": str(op_dir / "result.json"),
           "legs": [{"figure": leg.figure, "variants": leg.variants,
                     "argv": leg_argv(leg, op_dir.parent, op_dir, seed)} for leg in legs]}
    job_path = op_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    result_path = op_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["spawn"] = spawn
    return result


def measure(result: dict, op_dir: Path, reference: dict[str, str]) -> dict:
    """End-to-end figures, correctness and (when traced) layer metrics of one operation."""
    wall = sum(c["end"] - c["start"] for c in result["calls"])
    record = {
        "wall_s": wall,
        "setup_s": result["t_ready"] - result["spawn"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "sim_slots_per_s": result["slot_trials"] / wall,
        "slot_trials": result["slot_trials"],
    }
    problems, identical = check_operation(op_dir, reference, result["spec_sha256"],
                                          result["trials"])
    record.update(problems=problems, csv_identical=identical)
    if "spans" in result:
        layers = layer_metrics(result["spans"], result["counts"])
        layers["experiments.csv_bytes"] = sum(
            (op_dir / f"{figure}.csv").stat().st_size for figure in reference
            if (op_dir / f"{figure}.csv").exists())
        record.update(layers=layers, legs=leg_breakdown(result["spans"]))
    return record


def quartiles(values) -> dict:
    values = list(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one irsoob benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "irsoob" / "__init__.py").is_file():
        print(f"error: no irsoob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    legs = WORKLOADS[args.workload]
    reference = load_reference(args.workload, legs)
    sim_seed = args.seed % REFERENCE_SEEDS
    ref_csv = reference["seeds"][str(sim_seed)]

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    facts = machine_facts(threads)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        write_specs(args.workload, run_dir)
        # untimed: compile bytecode and bring the libraries into the page cache
        subprocess.run([sys.executable, "-c", "import irsoob.cli"], cwd=ROOT, env=env,
                       check=True, timeout=OP_TIMEOUT_S)
        start = time.monotonic()
        deadline = start + args.seconds
        min_ops = 4 if args.trace else 3
        ops, durations = [], []
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 0
            op_dir = run_dir / f"op{len(ops)}"
            t0 = time.monotonic()
            result = run_operation(legs, sim_seed, traced, op_dir, env)
            if "error" in result:
                op = {"traced": traced, "problems": [result["error"]]}
            else:
                op = {"traced": traced, **measure(result, op_dir, ref_csv)}
            shutil.rmtree(op_dir)
            durations.append(time.monotonic() - t0)
            ops.append(op)
            print(f"op {len(ops)}{' traced' if traced else ''}: "
                  + (f"wall {op['wall_s']:.3f} s, setup {op['setup_s']:.3f} s, "
                     f"rss {op['peak_rss_mib']:.0f} MiB, " if "wall_s" in op else "")
                  + ("ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"][:5])),
                  file=sys.stderr)
            now = time.monotonic()
            est = statistics.median(durations)
            if now + est > start + RUN_LIMIT_S or (len(ops) >= min_ops and now + est > deadline):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [op for op in ops if "wall_s" in op]
    untraced = [op for op in timed if not op["traced"]]
    traced_ops = [op for op in timed if op["traced"]]
    failed = sum(1 for op in ops if op["problems"])
    if not untraced or (args.trace and not traced_ops):
        print("error: no operation completed", file=sys.stderr)
        return 1

    e2e = {name: quartiles(op[name] for op in untraced)
           for name in ("wall_s", "setup_s", "peak_rss_mib", "sim_slots_per_s")}
    values = {name: q["median"] for name, q in e2e.items()}
    layers = {}
    if args.trace:
        for name in traced_ops[0]["layers"]:
            layers[name] = statistics.median(op["layers"][name] for op in traced_ops)
        layers["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced_ops)
                                      - values["wall_s"])
        layers["check.csv_identical"] = sum(1 for op in timed if op["csv_identical"])
        values = layers
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    record = {"workload": args.workload, "seed": args.seed, "sim_seed": sim_seed,
              "seconds": args.seconds, "trace": args.trace,
              "reference_commit": reference["commit"], "machine": facts,
              "end_to_end": e2e, "per_layer": layers, "ops": ops}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_dir.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
