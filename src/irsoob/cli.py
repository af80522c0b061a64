"""Command-line front end: run a config file or a named figure preset."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import load_spec, read_json_object
from .experiments import PRESETS, preset_spec, run_spec, save_run


def _parse_override(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"override must look like key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw   # bare strings (e.g. scheduler=mr) need no quoting
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsoob",
        description="Simulate two operators sharing one reconfigurable reflector "
                    "and compare against closed-form predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a JSON config file")
    p_run.add_argument("spec_file", help="JSON config; an empty file means all defaults")
    _common_flags(p_run)

    p_preset = sub.add_parser("preset", help="run a named figure preset")
    p_preset.add_argument("name", help="preset name, e.g. fig4 (see list-presets)")
    p_preset.add_argument("--override", action="append", default=[],
                          type=_parse_override, metavar="KEY=VALUE",
                          help="replace a config field; values are parsed as JSON "
                               "when possible (e.g. --override n_sweep=[16,64])")
    _common_flags(p_preset)

    sub.add_parser("list-presets", help="list preset names with one-line descriptions")
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="results", metavar="DIR",
                   help="output directory for CSV and manifest (default: results)")
    p.add_argument("--seed", type=int, default=None,
                   help="replace the config's seed")
    p.add_argument("--analytic-only", action="store_true",
                   help="skip simulation; emit only the closed-form columns")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-presets":
        for name, preset in PRESETS.items():
            print(f"{name:8s} {preset.note}")
        return 0

    # a spec that cannot be resolved is a usage error; failures past that point propagate
    try:
        if args.command == "preset":
            figure = args.name
            spec = preset_spec(figure, dict(args.override), args.seed)
            variants = PRESETS[figure].variants
        else:
            figure = Path(args.spec_file).stem or "run"
            spec = load_spec(args.spec_file)
            variants = ({},)
            if args.seed is not None:
                spec = dataclasses.replace(spec, seed=args.seed)
        if (Path(args.out) / "manifest.json").exists():   # the run merges into it: check it first
            read_json_object(Path(args.out) / "manifest.json")
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    rows, runs = run_spec(spec, figure, args.analytic_only, variants)
    save_run(args.out, figure, spec, rows, runs)
    print(f"{figure}: {len(rows)} rows -> {Path(args.out) / (figure + '.csv')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
