"""The benchmark's workloads: which CLI calls one operation makes.

An operation is one fresh Python process that runs every leg of a workload
back to back through `irsoob.cli.main`, each leg with `--out <dir>` and
`--seed <seed>` appended. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Reference CSVs exist for simulation seeds 0..REFERENCE_SEEDS-1; a
# benchmark seed maps onto them modulo this count.
REFERENCE_SEEDS = 16

# The config the pf_snr workload writes and runs through `irsoob run`.
PF_SNR_SPEC = {
    "regime": "sub6",
    "scheduler": "pf",
    "n_sweep": [8],
    "gamma_db_sweep": [110.0, 120.0, 130.0, 140.0, 150.0, 160.0],
    "slots": 20000,
    "trials": 4,
    "outputs": ["sumse", "outage"],
}


@dataclass(frozen=True)
class Leg:
    """One CLI call: its argv without --out/--seed and the CSV stem it writes.

    `variants` counts how many times the preset's runner repeats its element
    sweep (the Q list of fig12, the l2 lists of fig9 and fig10), so that
    simulated slots can be counted from the resolved spec. A `run` leg
    carries the config it writes to `<figure>.json`.
    """

    figure: str
    argv: tuple[str, ...]
    variants: int = 1
    spec: dict | None = field(default=None, compare=False, hash=False)


def _preset(name: str, variants: int = 1, **overrides) -> Leg:
    argv = ["preset", name]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    return Leg(name, tuple(argv), variants)


# Overrides keep each preset's element sweep and its total slots per sweep
# point where possible, and trade slots for trials so that every empirical
# cell's stderr rests on at least four trials (see check.py).
WORKLOADS: dict[str, tuple[Leg, ...]] = {
    "sub6_sweep": (_preset("fig4", trials=6, slots=1000),),
    "sched_bf": (_preset("fig12", variants=2, trials=4, slots=128),),
    "pf_snr": (Leg("pf_snr", ("run", "pf_snr.json"), spec=PF_SNR_SPEC),),
    "mmwave": (_preset("fig8", trials=6, slots=1000),
               _preset("fig9", variants=2, trials=4, slots=500),
               _preset("fig10", variants=3)),
}


def leg_argv(leg: Leg, spec_dir: Path, out_dir: Path, seed: int) -> list[str]:
    """Full CLI argv of a leg; a `run` leg's spec file lives in spec_dir."""
    argv = list(leg.argv)
    if argv[0] == "run":
        argv[1] = str(spec_dir / argv[1])
    return argv + ["--out", str(out_dir), "--seed", str(seed)]


def write_specs(workload: str, spec_dir: Path) -> None:
    """Write the config files the workload's `run` legs read."""
    for leg in WORKLOADS[workload]:
        if leg.spec is not None:
            (spec_dir / leg.argv[1]).write_text(json.dumps(leg.spec, indent=2) + "\n",
                                                encoding="utf-8")
