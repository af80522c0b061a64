"""Seeded fuzz of the spec space: every spec that validates runs clean, every other one is refused.

Specs are drawn with stdlib `random` at a fixed seed, over ranges that reach
the edges the closed forms and the simulator must agree on: sub6 N = 0 and
1, fewer elements than cascaded paths, 0 and 210 dB, one OOB UE, pf_tau = 1,
one slot and one trial, and a one-point UE region that pins every UE at
(1000, 1000). Path loss and the rest of the geometry stay at their defaults.
Sizes stay small, so the whole gate runs in a few seconds.
"""

import math
import random
import warnings

import pytest

from irsoob.config import OUTPUT_KINDS, REGIMES, SCHEDULERS, SUB6_OUTPUTS, spec_from_dict
from irsoob.experiments import emit_csv
from oracles import PINNED_UES, spec_rows

SPECS = 40
FIXED = (
    # PF at pf_tau = 1 over rates that round to 0 at 0 dB: each once read 0/0
    {"regime": "mmwave_los", "scheduler": "pf", "pf_tau": 1, "gamma_db_sweep": [0, 180]},
    {"regime": "mmwave_los", "scheduler": "pf", "pf_tau": 1, "gamma_db_sweep": [130, 0]},
    {"regime": "sub6", "outputs": ["pf_gap"], "pf_tau": 1, "gamma_db_sweep": [130, 0]},
    # the reflector-free gain CCDF, whose rows alone leave n_elements blank
    {"regime": "sub6", "outputs": ["ccdf"], "n_sweep": [0, 4]},
)
FIXED_SIZE = {"n_sweep": [4, 16], "k_ues": 3, "q_ues": 4, "slots": 50, "trials": 2, "seed": 1}
PROBABILITIES = ("outage_oob", "outage_inband", "outage_inband_bound", "offset_ccdf",
                 "gain_ccdf", "gain_ccdf_noirs", "offset_ccdf_inband")


def draw_spec(rng: random.Random) -> tuple[dict, bool]:
    """A config dict over small sizes, and whether it breaks a rule: a quarter break one."""
    regime = rng.choice(REGIMES)
    sub6 = regime == "sub6"
    kinds = [k for k in OUTPUT_KINDS if sub6 or k not in SUB6_OUTPUTS]
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
        "geometry": {"ue_region": PINNED_UES.ue_region} if rng.random() < 0.5 else {},
        "outputs": rng.sample(kinds, rng.randint(1, 3)),
    }
    broken = rng.random() < 0.25
    if broken:
        key, value = rng.choice([
            ("n_sweep", [-1] if sub6 else [3]), ("gamma_db_sweep", [211]), ("pf_tau", 0.5),
            ("trials", 0),
            # an unknown kind in sub6, a Rayleigh-only kind in mmWave
            ("outputs", ["correlation_response"] if sub6 else [SUB6_OUTPUTS[0]])])
        config[key] = value
    return config, broken


def edges(spec) -> set:
    """The edge cases a validated spec reaches."""
    l_paths = spec.l1 * spec.l2
    hit = {"N < L"} if spec.regime != "sub6" and min(spec.n_sweep) < l_paths else set()
    hit |= {f"sub6 N={n}" for n in (0, 1) if spec.regime == "sub6" and n in spec.n_sweep}
    hit |= {f"{g:g} dB" for g in (0, 210) if g in spec.gamma_db_sweep}
    if spec.geometry.ue_region[0] == spec.geometry.ue_region[1]:
        hit.add("one-point ue_region")
    for name, value in (("q_ues", 1), ("pf_tau", 1), ("slots", 1), ("trials", 1)):
        if getattr(spec, name) == value:
            hit.add(f"{name}={value}")
    return hit


def coordinates(row) -> tuple:
    return (row.statistic, row.scheduler, row.n_elements, row.gamma_db, row.l_paths,
            row.q_ues, row.x)


def check_rows(spec, full, analytic_only) -> None:
    # every row carries its point's coordinates: N (blank on the reflector-free
    # CCDF) and, in mmWave only, the cascaded path count
    l_paths = spec.l1 * spec.l2 if spec.regime != "sub6" else None
    for row in full + analytic_only:
        assert row.l_paths == l_paths, row
        if row.statistic == "gain_ccdf_noirs":
            assert row.n_elements is None, row
        else:
            assert row.n_elements in spec.n_sweep, row
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
    assert only == forms


def test_every_valid_spec_runs_clean_and_every_other_is_refused():
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
            full, _ = spec_rows(spec)
            analytic_only, _ = spec_rows(spec, analytic_only=True)
            check_rows(spec, full, analytic_only)
            assert emit_csv(full, "fuzz") == emit_csv(spec_rows(spec)[0], "fuzz")
    assert 5 <= sum(broken for _, broken in draws) <= 15
    assert reached == {"sub6 N=0", "sub6 N=1", "N < L", "0 dB", "210 dB", "q_ues=1",
                       "pf_tau=1", "slots=1", "trials=1", "one-point ue_region"}
