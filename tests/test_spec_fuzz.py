"""Seeded fuzz of the spec space: every spec that validates runs clean, every other one is refused.

Specs are drawn with stdlib `random` at a fixed seed, over ranges that reach
the edges the closed forms and the simulator must agree on: sub6 N = 0 and
1, fewer elements than cascaded paths, 0 and 210 dB, one OOB UE, pf_tau = 1,
one slot and one trial. Geometry and path loss stay at their defaults. Sizes
stay small, so the whole gate runs in a few seconds.
"""

import math
import random
import warnings

import pytest

from irsoob.config import (MMWAVE_OUTPUTS, OUTPUT_KINDS, REGIMES, SCHEDULERS, SUB6_OUTPUTS,
                           spec_from_dict)
from irsoob.experiments import emit_csv, run_spec

SPECS = 40
# PF at pf_tau = 1 over rates that round to 0 at 0 dB: each once read 0/0
FIXED = (
    {"regime": "mmwave_los", "scheduler": "pf", "pf_tau": 1, "gamma_db_sweep": [0, 180]},
    {"regime": "mmwave_los", "scheduler": "pf", "pf_tau": 1, "gamma_db_sweep": [130, 0]},
    {"regime": "sub6", "outputs": ["pf_gap"], "pf_tau": 1, "gamma_db_sweep": [130, 0]},
)
FIXED_SIZE = {"n_sweep": [4, 16], "k_ues": 3, "q_ues": 4, "slots": 50, "trials": 2, "seed": 1}
PROBABILITIES = ("outage_oob", "outage_inband", "outage_inband_bound", "offset_ccdf",
                 "gain_ccdf", "gain_ccdf_noirs", "offset_ccdf_inband")


def draw_spec(rng: random.Random) -> tuple[dict, bool]:
    """A config dict over small sizes, and whether it breaks a rule: a quarter break one."""
    regime = rng.choice(REGIMES)
    sub6 = regime == "sub6"
    kinds = [k for k in OUTPUT_KINDS if k not in (MMWAVE_OUTPUTS if sub6 else SUB6_OUTPUTS)]
    config = {
        "regime": regime,
        "scheduler": rng.choice(SCHEDULERS),
        "n_sweep": rng.sample([0, 1, 2, 5, 16, 64] if sub6 else [2, 4, 8, 16, 64],
                              rng.randint(1, 2)),
        "gamma_db_sweep": rng.sample([0, 30, 130, 180, 210], rng.randint(1, 2)),
        "l1": rng.randint(1, 2),
        "l2": rng.randint(1, 4),
        "k_ues": rng.randint(1, 5),
        "q_ues": rng.randint(1, 5),
        "slots": rng.choice([1, 2, 7, 50]),
        "trials": rng.randint(1, 3),
        "seed": rng.randrange(1000),
        "pf_tau": rng.choice([1, 2.5, 1000]),
        "iid_ues": rng.random() < 0.5,
        "outputs": rng.sample(kinds, rng.randint(1, 3)),
    }
    broken = rng.random() < 0.25
    if broken:
        key, value = rng.choice([
            ("n_sweep", [-1] if sub6 else [3]), ("gamma_db_sweep", [211]), ("pf_tau", 0.5),
            ("trials", 0), ("outputs", [(MMWAVE_OUTPUTS if sub6 else SUB6_OUTPUTS)[0]])])
        config[key] = value
    return config, broken


def edges(spec) -> set:
    """The edge cases a validated spec reaches."""
    l_paths = spec.l1 * spec.l2
    hit = {"N < L"} if spec.regime != "sub6" and min(spec.n_sweep) < l_paths else set()
    hit |= {f"sub6 N={n}" for n in (0, 1) if spec.regime == "sub6" and n in spec.n_sweep}
    hit |= {f"{g:g} dB" for g in (0, 210) if g in spec.gamma_db_sweep}
    for name, value in (("q_ues", 1), ("pf_tau", 1), ("slots", 1), ("trials", 1)):
        if getattr(spec, name) == value:
            hit.add(f"{name}={value}")
    return hit


def coordinates(row) -> tuple:
    return (row.statistic, row.scheduler, row.n_elements, row.gamma_db, row.l_paths,
            row.q_ues, row.x)


def check_rows(full, analytic_only) -> None:
    for row in full:
        cells = (row.n_elements, row.gamma_db, row.l_paths, row.q_ues, row.x, row.empirical,
                 row.analytic, row.stderr)
        assert all(math.isfinite(c) for c in cells if c is not None), row
        if row.statistic in PROBABILITIES:
            assert all(0.0 <= c <= 1.0 for c in (row.empirical, row.analytic)
                       if c is not None), row
    forms = {coordinates(row): row.analytic for row in full}
    assert len(forms) == len(full), "two rows share one coordinate"
    only = {coordinates(row): row.analytic for row in analytic_only}
    assert len(only) == len(analytic_only), "two analytic-only rows share one coordinate"
    assert all(key in forms and forms[key] == form for key, form in only.items())
    assert all(key in only for key, form in forms.items() if form is not None)


def test_every_valid_spec_runs_clean_and_every_other_is_refused(tmp_path):
    rng = random.Random(11)
    draws = [({**FIXED_SIZE, **case}, False) for case in FIXED]
    draws += [draw_spec(rng) for _ in range(SPECS)]
    reached = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (config, broken) in enumerate(draws):
            if broken:
                with pytest.raises(ValueError):
                    spec_from_dict(config)
                continue
            spec = spec_from_dict(config)
            reached |= edges(spec)
            full, _ = run_spec(spec, "fuzz")
            analytic_only, _ = run_spec(spec, "fuzz", analytic_only=True)
            check_rows(full, analytic_only)
            emit_csv(full, tmp_path / f"{i}a.csv")
            emit_csv(run_spec(spec, "fuzz")[0], tmp_path / f"{i}b.csv")
            assert (tmp_path / f"{i}a.csv").read_bytes() == (tmp_path / f"{i}b.csv").read_bytes()
    assert 5 <= sum(broken for _, broken in draws) <= 15
    assert reached == {"sub6 N=0", "sub6 N=1", "N < L", "0 dB", "210 dB", "q_ues=1",
                       "pf_tau=1", "slots=1", "trials=1"}
