"""One benchmark operation, in a fresh Python process.

Usage: python3 child.py JOB_JSON

The job names the CLI argv of each leg and whether to trace. The process
imports irsoob, resolves every leg's spec (the end of set-up), then calls
`irsoob.cli.main` once per leg and writes its timings, peak RSS, spec
hashes and, when traced, spans and counts to the job's result file. Times
are time.monotonic(), which on Linux reads the system-wide CLOCK_MONOTONIC,
so the parent can subtract its own spawn time from them.
"""

import dataclasses
import json
import resource
import sys
import time

from irsoob import cli, config, experiments


def resolve_spec(argv):
    """The ExperimentSpec a CLI argv runs, resolved the way `cli.main` resolves it."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "preset":
        spec = experiments.PRESETS[args.name].spec
        if args.override:
            spec = dataclasses.replace(spec, **dict(args.override))
    else:
        spec = config.load_spec(args.spec_file)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    specs = [resolve_spec(leg["argv"]) for leg in job["legs"]]
    t_ready = time.monotonic()
    hashes = {leg["figure"]: config.spec_hash(spec) for leg, spec in zip(job["legs"], specs)}
    usage = resource.getrusage(resource.RUSAGE_SELF)

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    for leg in job["legs"]:
        start = time.monotonic()
        if tracer:
            rc = tracer.call("leg." + leg["figure"], cli.main, leg["argv"])
        else:
            rc = cli.main(leg["argv"])
        calls.append({"figure": leg["figure"], "start": start, "end": time.monotonic(),
                      "rc": rc})

    end = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_ready": t_ready,
        "calls": calls,
        "cpu_s": (end.ru_utime + end.ru_stime) - (usage.ru_utime + usage.ru_stime),
        "peak_rss_kib": end.ru_maxrss,
        "spec_sha256": hashes,
        "trials": {leg["figure"]: spec.trials for leg, spec in zip(job["legs"], specs)},
        "slot_trials": sum(leg["variants"] * len(spec.n_sweep) * spec.trials * spec.slots
                           for leg, spec in zip(job["legs"], specs)),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(c["rc"] == 0 for c in calls) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
