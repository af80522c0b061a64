"""Correctness check of one operation's outputs against the reference CSVs.

The reference for each (workload, seed) was written by the program at the
commit recorded in the reference file. A run passes when, for every leg:

- the CSV header and every row's coordinates equal the reference;
- every analytic cell matches the reference (blank where it is blank);
- every empirical cell with a stderr agrees with the reference within the
  combined stderr, at a family-wise false-alarm rate of ALPHA per leg, so a
  sampler that changes the random stream but not the law passes and one
  that changes the law fails; cells without a stderr must match in presence;
- the manifest entry carries the hash of the spec that ran.

Byte-identity of the CSV with the reference is reported separately.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from scipy import stats

ALPHA = 1e-3
COORDINATES = ("figure", "statistic", "scheduler", "n_elements", "gamma_db",
               "l_paths", "q_ues", "x")
# Statistics whose stderr is the spread of per-trial means (irsoob's
# _mean_and_stderr); the rest are binomial or DKW bounds over pooled samples.
PER_TRIAL = ("sumse_inband", "sumse_oob", "pf_gap")
# Coordinates and analytic cells are printed at 9 significant digits.
COORDINATE_RTOL = 1e-8
ANALYTIC_RTOL = 1e-6


def _num(text: str):
    return None if text == "" else float(text)


def _close(a: str, b: str, rtol: float) -> bool:
    if a == "" or b == "":
        return a == b
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=1e-300)


def _threshold(stat: str, se_a: float, se_b: float, trials: int, cells: int) -> float:
    """Two-sided critical value for |diff| / combined stderr, Bonferroni over cells."""
    tail = ALPHA / (2 * cells)
    if stat not in PER_TRIAL or trials < 2:
        return float(stats.norm.isf(tail))
    # Welch-Satterthwaite degrees of freedom, trials - 1 on each side
    a, b = se_a ** 2, se_b ** 2
    dof = (a + b) ** 2 / ((a * a + b * b) / (trials - 1))
    return float(stats.t.isf(tail, dof))


def check_leg(csv_text: str, ref_text: str, trials: int) -> list[str]:
    """Problems found in one leg's CSV; empty when it passes."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    ref = list(csv.DictReader(io.StringIO(ref_text)))
    header, ref_header = csv_text.split("\n", 1)[0], ref_text.split("\n", 1)[0]
    if header != ref_header:
        return [f"header {header!r} != reference {ref_header!r}"]
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    cells = sum(1 for r in ref if r["stderr"] != "") or 1
    problems = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        where = f"row {i + 2} ({want['statistic']})"
        for col in COORDINATES:
            same = (row[col] == want[col] if col in ("figure", "statistic", "scheduler")
                    else _close(row[col], want[col], COORDINATE_RTOL))
            if not same:
                problems.append(f"{where}: {col} {row[col]!r} != {want[col]!r}")
        if not _close(row["analytic"], want["analytic"], ANALYTIC_RTOL):
            problems.append(f"{where}: analytic {row['analytic']!r} != {want['analytic']!r}")
        if want["stderr"] == "":
            if (row["empirical"] == "") != (want["empirical"] == ""):
                problems.append(f"{where}: empirical {row['empirical']!r} vs {want['empirical']!r}")
            continue
        if row["empirical"] == "" or row["stderr"] == "":
            problems.append(f"{where}: empirical or stderr missing")
            continue
        diff = abs(_num(row["empirical"]) - _num(want["empirical"]))
        se_a, se_b = _num(row["stderr"]), _num(want["stderr"])
        combined = math.hypot(se_a, se_b)
        if combined == 0.0:
            ok = diff == 0.0
        else:
            ok = diff <= _threshold(want["statistic"], se_a, se_b, trials, cells) * combined
        if not ok:
            problems.append(f"{where}: empirical {row['empirical']} vs reference "
                            f"{want['empirical']} exceeds combined stderr {combined:.3g}")
    return problems


def check_operation(out_dir: Path, reference: dict[str, str], spec_hashes: dict[str, str],
                    trials: dict[str, int]) -> tuple[list[str], bool]:
    """(problems, csv_identical) for one operation's output directory."""
    problems = []
    identical = True
    manifest_path = out_dir / "manifest.json"
    manifest = (json.loads(manifest_path.read_text(encoding="utf-8"))
                if manifest_path.exists() else {})
    for figure, ref_text in reference.items():
        path = out_dir / f"{figure}.csv"
        if not path.exists():
            problems.append(f"{figure}: no CSV written")
            identical = False
            continue
        text = path.read_text(encoding="utf-8")
        identical = identical and text == ref_text
        problems += [f"{figure}: {p}" for p in check_leg(text, ref_text, trials[figure])]
        entry = manifest.get(figure, {})
        if entry.get("spec_sha256") != spec_hashes.get(figure):
            problems.append(f"{figure}: manifest spec_sha256 {entry.get('spec_sha256')!r} "
                            f"!= hash of the spec that ran")
    return problems, identical
