"""Experiment runner tests: CSV emission, manifests, presets, reproducibility."""

import dataclasses
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import irsoob.experiments as experiments
from irsoob import analytics as an
from irsoob.config import OUTPUT_KINDS, SUB6_OUTPUTS, ExperimentSpec, spec_hash
import irsoob.engine as engine
from irsoob.engine import _aligned_gain, budgets_for, run_trial, schedule_rates, spawn_rngs
from irsoob.cli import main
from irsoob.experiments import (CSV_COLUMNS, PRESETS, ResultRow, emit_csv,
                                operator_params, preset_spec)
from irsoob.kernels import db_to_linear
from oracles import PINNED_UES, oob_gain_samples, preset_argv, spec_rows

# enough slots for a smoke run, small enough to keep the suite fast
FAST = {"slots": 200, "trials": 2}
# two OOB populations, swept the way fig11 and fig12 sweep theirs
Q_SWEEP = ({"q_ues": 2}, {"q_ues": 3})


# ---------------------------------------------------------------------------
# CSV emission

def test_csv_empty_rows_is_header_only():
    text = emit_csv([], "f")
    assert text.splitlines() == [",".join(CSV_COLUMNS)]
    assert text.endswith("\n")


def test_csv_cell_formatting():
    text = emit_csv([ResultRow(statistic="s", n_elements=64, gamma_db=130.0,
                               x=1234567891.23, empirical=0.123456789123, analytic=None)], "f")
    header, line = text.splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    assert cells["n_elements"] == "64"          # integers stay integers
    assert cells["empirical"] == "0.123456789"  # 9 significant digits
    assert cells["x"] == "1.23456789e+09"
    assert cells["analytic"] == ""              # blank, not "nan"
    assert cells["gamma_db"] == "130"


def test_csv_rows_come_out_sorted():
    rows = [ResultRow(statistic=s, n_elements=n, gamma_db=g)
            for s in ("oob", "inband") for n in (256, 4, 64) for g in (150.0, 110.0)]
    coords = [line.split(",")[1:5] for line in emit_csv(rows, "f").splitlines()[1:]]
    keys = [(c[0], int(c[2]), float(c[3])) for c in coords]
    assert keys == sorted(keys)
    assert keys[0] == ("inband", 4, 110.0)


# ---------------------------------------------------------------------------
# presets and manifests

def test_unknown_preset_and_bad_override():
    with pytest.raises(ValueError, match="unknown preset"):
        preset_spec("fig99")
    with pytest.raises(ValueError, match="bad override for fig3: unknown field 'bogus'"):
        preset_spec("fig3", overrides={"bogus": 1})
    # the scheduler comparison is sub6-only, which the spec itself enforces
    with pytest.raises(ValueError, match="needs regime 'sub6'"):
        preset_spec("fig11", overrides={"regime": "mmwave_los"})


def test_list_presets_covers_all_figures():
    assert set(PRESETS) == {f"fig{i}" for i in range(3, 13)}
    assert all(preset.note for preset in PRESETS.values())


def test_preset_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert main(preset_argv("fig3", tmp_path / sub, 17, FAST)) == 0
    assert (tmp_path / "a/fig3.csv").read_bytes() == (tmp_path / "b/fig3.csv").read_bytes()
    assert ((tmp_path / "a/manifest.json").read_bytes()
            == (tmp_path / "b/manifest.json").read_bytes())


def test_manifest_records_provenance(tmp_path):
    assert main(preset_argv("fig3", tmp_path, 17, FAST)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    entry = manifest["fig3"]

    expected = dataclasses.replace(PRESETS["fig3"].spec, **FAST, seed=17)
    assert entry["spec_sha256"] == spec_hash(expected)
    assert entry["seed"] == 17
    assert entry["spec"]["slots"] == 200
    assert set(entry["versions"]) == {"python", "numpy", "irsoob"}
    (run,) = entry["variants"]
    assert run["overrides"] == {} and run["seed"] == 17
    assert np.asarray(run["ue_positions_inband"]).shape == (expected.k_ues, 2)
    assert np.asarray(run["ue_positions_oob"]).shape == (expected.q_ues, 2)


def test_manifest_records_each_variant(tmp_path):
    """A swept preset's entry names every variant in run order, the seed it
    drew from (seed + 7919·Q for a Q variant, the spec's seed otherwise) and
    the positions it drew, which are those of a single run at that seed."""
    small = dict(n_sweep=(4,), slots=40, trials=2)
    assert main(preset_argv("fig11", tmp_path, 3, small, analytic_only=True)) == 0
    assert main(preset_argv("fig9", tmp_path, 3, dict(small, n_sweep=(4, 8)),
                            analytic_only=True)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    fig11 = manifest["fig11"]["variants"]
    assert [v["overrides"] for v in fig11] == [{"q_ues": q} for q in (1, 10, 100)]
    assert [v["seed"] for v in fig11] == [3 + 7919 * q for q in (1, 10, 100)]
    for v in fig11:
        q = v["overrides"]["q_ues"]
        spec = dataclasses.replace(PRESETS["fig11"].spec, **small, q_ues=q, seed=v["seed"])
        _, (run,) = spec_rows(spec, analytic_only=True)
        np.testing.assert_array_equal(v["ue_positions_oob"], run.positions[1])
        assert np.asarray(v["ue_positions_oob"]).shape == (q, 2)
    fig9 = manifest["fig9"]["variants"]
    assert [(v["overrides"], v["seed"]) for v in fig9] == [({"l2": 4}, 3), ({"l2": 8}, 3)]


def test_manifest_merges_multiple_figures(tmp_path):
    assert main(preset_argv("fig3", tmp_path, 1, FAST)) == 0
    assert main(preset_argv("fig4", tmp_path, 1, dict(FAST, n_sweep=(64, 128)))) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"fig3", "fig4"}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_analytic_only_blanks_empirical_columns(name):
    tiny = {"slots": 40, "trials": 2}
    spec, variants = preset_spec(name, {**tiny, "seed": 17}), PRESETS[name].variants
    full, _ = spec_rows(spec, False, variants)
    bare, _ = spec_rows(spec, True, variants)
    assert all(r.empirical is None and r.stderr is None for r in bare)
    assert any(r.analytic is not None for r in bare)

    # the rows and their analytic column must not depend on whether the simulation ran
    def keyed(rows):
        return {tuple(getattr(r, col) for col in CSV_COLUMNS[1:8]): r.analytic for r in rows}

    full_vals, bare_vals = keyed(full), keyed(bare)
    assert set(bare_vals) == set(full_vals)
    for key, val in bare_vals.items():
        assert val == full_vals[key]


def test_outage_without_a_reflector_is_the_direct_path_law():
    """At N = 0 the sub6 OOB gain is the direct path's Exp(beta_d), so the
    outage row's closed form reads 1 - exp(-rho/beta_d)."""
    spec = ExperimentSpec(n_sweep=(0,), slots=50, trials=2, seed=5, outputs=("outage",))
    (row,) = spec_rows(spec)[0]
    _, _, budget_y = budgets_for(spec, spawn_rngs(spec.seed, 1)[0])
    assert (row.statistic, row.n_elements) == ("outage_oob", 0)
    assert row.analytic == pytest.approx(1.0 - math.exp(-row.x / budget_y.beta_d[0]),
                                         rel=1e-12)
    assert 0.0 < row.empirical < 1.0


# ---------------------------------------------------------------------------
# the scheduler comparison, Q variants and the in-band offset rows

def test_pf_gap_rr_row_is_the_sumse_outputs_value():
    """The comparison schedules the point's one set of gains three ways, so
    its rr row carries the sumse output's OOB value bit for bit."""
    spec = ExperimentSpec(n_sweep=(4, 16), k_ues=2, q_ues=3, slots=80, trials=3, seed=5,
                          outputs=("sumse", "pf_gap"))
    rows, _ = spec_rows(spec)
    for n in spec.n_sweep:
        oob = [r for r in rows if r.statistic == "sumse_oob" and r.n_elements == n]
        (plain,) = [r for r in oob if r.q_ues is None]
        (tagged,) = [r for r in oob if r.q_ues == spec.q_ues and r.scheduler == "rr"]
        assert plain.empirical is not None
        assert (tagged.empirical, tagged.stderr, tagged.analytic) == \
            (plain.empirical, plain.stderr, plain.analytic)
        assert {r.scheduler for r in oob if r.q_ues == spec.q_ues} == {"rr", "pf", "mr"}
    assert sum(r.statistic == "pf_gap" for r in rows) == len(spec.n_sweep)


def test_a_q_variant_draws_from_seed_plus_7919_q():
    """Each Q of a sweep draws from seed + 7919·Q with trials + 1 generators
    per point, so its rows are those of a single-Q run at that seed."""
    spec = ExperimentSpec(n_sweep=(4, 8), k_ues=2, slots=60, trials=2, seed=5, outputs=("pf_gap",))
    rows, runs = spec_rows(spec, variants=Q_SWEEP)
    for q, run in zip((2, 3), runs):
        single, (single_run,) = spec_rows(
            dataclasses.replace(spec, q_ues=q, seed=spec.seed + 7919 * q))
        assert single and [r for r in rows if r.q_ues == q] == single
        assert (run.overrides, run.seed) == ({"q_ues": q}, single_run.seed)
        for got, want in zip(run.positions, single_run.positions):
            np.testing.assert_array_equal(got, want)


def test_mr_over_one_ue_takes_the_rr_form():
    """Max-rate over a single UE is round-robin, so mr at Q = 1 gets the rr
    closed form in the sumse and the comparison rows alike; pf stays blank."""
    spec = ExperimentSpec(n_sweep=(16,), q_ues=1, outputs=("sumse", "pf_gap"))

    def oob_forms(**fields):
        rows, _ = spec_rows(dataclasses.replace(spec, **fields), analytic_only=True)
        return {(r.scheduler, r.q_ues): r.analytic for r in rows if r.statistic == "sumse_oob"}

    rr = oob_forms(outputs=("sumse",))[("rr", None)]
    assert rr is not None
    mr = oob_forms(scheduler="mr")
    assert mr == {("mr", None): rr, ("rr", 1): rr, ("pf", 1): None, ("mr", 1): rr}
    assert oob_forms(scheduler="pf", outputs=("sumse",)) == {("pf", None): None}


def _point_trials(spec):
    """Each sweep point's trials, run one by one on the generators sweep_points
    spawns for them (trials + 1 children per point, the last unused) and
    stacked on a leading trials axis: (budget_x, budget_y, [(gain_irs,
    (E, S)) per point])."""
    per_point = spec.trials + 1
    rngs = spawn_rngs(spec.seed, 1 + len(spec.n_sweep) * per_point)
    _, bx, by = budgets_for(spec, rngs[0])
    points = []
    for i, n in enumerate(spec.n_sweep):
        datas = [run_trial(spec, rng, n, bx, by, paired=experiments._pairs_oob_gains(spec))
                 for rng in rngs[1 + i * per_point: i * per_point + per_point]]
        points.append((np.stack([d.gain_irs for d in datas]),
                       tuple(np.stack([d.aligned[j] for d in datas]) for j in (0, 1))))
    return bx, by, points


def test_inband_rows_read_the_trials_aligned_draws(monkeypatch):
    """The in-band offset CCDF and outage rows are the pooled aligned-gain law,
    with in-band UE 0's betas, on the (E, S) that the point's trials drew,
    and asking for both outputs changes neither. _aligned_draws reads each
    trial generator once and never a point's unused last child. An
    analytic-only run keeps the offset bound."""
    spec = ExperimentSpec(n_sweep=(2, 4), k_ues=2, q_ues=2, slots=300, trials=2, seed=7,
                          outputs=("inband_offset",))
    bx, _, points = _point_trials(spec)
    per_point = spec.trials + 1
    rngs = spawn_rngs(spec.seed, 1 + len(spec.n_sweep) * per_point)
    trial_states = [rng.bit_generator.state for i, rng in enumerate(rngs[1:]) if i % per_point
                    != spec.trials]
    unused_states = [rngs[(i + 1) * per_point].bit_generator.state
                  for i in range(len(spec.n_sweep))]
    draws = []
    real = engine._aligned_draws

    def record(rng, *args):
        draws.append(rng.bit_generator.state)
        return real(rng, *args)

    monkeypatch.setattr(engine, "_aligned_draws", record)
    rows, _ = spec_rows(spec)
    assert sorted(map(repr, draws)) == sorted(map(repr, trial_states))
    assert not any(state in unused_states for state in draws)
    assert len(rows) == 10 * len(spec.n_sweep)
    assert all(r.statistic == "offset_ccdf_inband" and r.analytic is not None for r in rows)

    beta_d, beta_r = float(bx.beta_d[0]), float(bx.beta_r[0])
    outage, _ = spec_rows(dataclasses.replace(spec, outputs=("outage",)))
    inner, outages = 0, []   # grid points whose CCDF lies strictly inside (0, 1)
    for n, (_, (exp_direct, shape)) in zip(spec.n_sweep, points):
        gain = _aligned_gain(exp_direct, shape, beta_d, beta_r)
        offset = (gain - beta_d * exp_direct).ravel()
        ccdf = [r for r in rows if r.n_elements == n]
        assert [r.empirical for r in ccdf] == pytest.approx(
            [np.mean(offset > r.x) for r in ccdf], rel=0, abs=1e-12)
        inner += sum(0.0 < r.empirical < 1.0 for r in ccdf)
        (row,) = [r for r in outage if r.statistic == "outage_inband" and r.n_elements == n]
        assert row.x == pytest.approx((math.pi ** 2 / 16.0) * beta_r, rel=1e-15)
        assert row.empirical == np.mean(gain < row.x)
        outages.append(row.empirical)
    assert inner >= 5 and max(outages) > 0.0

    both, _ = spec_rows(dataclasses.replace(spec, outputs=("outage", "inband_offset")))
    by_coords = experiments._sort_key
    assert sorted(both, key=by_coords) == sorted(rows + outage, key=by_coords)

    draws.clear()
    bare, _ = spec_rows(spec, analytic_only=True)
    assert draws == []
    assert [(r.x, r.analytic) for r in bare] == [(r.x, r.analytic) for r in rows]
    assert all(r.empirical is None and r.stderr is None for r in bare)


def test_pf_gap_is_the_ceiling_on_the_trials_aligned_draws():
    """pf_gap is, per trial, the mean over slots and UEs of log2(1 + snr c),
    with c the aligned-gain law of the trial's (E, S) under each OOB UE's
    betas, less PF's mean served SE; the row holds its mean over trials."""
    spec = ExperimentSpec(n_sweep=(4, 16), k_ues=2, q_ues=3, slots=80, trials=3, seed=5,
                          outputs=("pf_gap",))
    _, by, points = _point_trials(spec)
    rows, _ = spec_rows(spec)
    snr = float(db_to_linear(spec.gamma_db_sweep[0]))
    for n, (gain_irs, (exp_direct, shape)) in zip(spec.n_sweep, points):
        ceiling = _aligned_gain(exp_direct[..., None], shape[..., None], by.beta_d, by.beta_r)
        rates = np.log2(1.0 + gain_irs * snr)
        served = schedule_rates(rates, "pf", spec.pf_tau)
        pf_se = np.take_along_axis(rates, served[..., None], axis=-1).mean(axis=(1, 2))
        gap = np.log2(1.0 + ceiling * snr).mean(axis=(1, 2)) - pf_se
        (row,) = [r for r in rows if r.statistic == "pf_gap" and r.n_elements == n]
        assert row.empirical == pytest.approx(gap.mean(), rel=1e-12)
        assert row.stderr == pytest.approx(gap.std(ddof=1) / math.sqrt(spec.trials), rel=1e-9)


def _variant_spec(spec, variant):
    """A variant's spec as sweep_points builds it, q_ues variants on their own seed."""
    sub = dataclasses.replace(spec, **variant)
    if "q_ues" in variant:
        sub = dataclasses.replace(sub, seed=spec.seed + 7919 * sub.q_ues)
    return sub


def _trial_stats(per_trial):
    return float(per_trial.mean()), float(per_trial.std(ddof=1) / math.sqrt(per_trial.size))


def _pf_rows_one_point_at_a_time(spec, variants):
    """Each PF row's (empirical, stderr) with one schedule_rates call per
    (point, SNR) on that point's own gains, keyed by (statistic, q_ues tag,
    N, gamma): the served SE for sumse_oob, the ceiling's mean less it for
    pf_gap. sumse's row carries no q_ues tag; pf_gap's rows carry Q."""
    want = {}
    for variant in variants:
        sub = _variant_spec(spec, variant)
        _, by, points = _point_trials(sub)
        for n, (gain_irs, (exp_direct, shape)) in zip(sub.n_sweep, points):
            ceiling = _aligned_gain(exp_direct[..., None], shape[..., None], by.beta_d, by.beta_r)
            for gamma in sub.gamma_db_sweep:
                snr = float(db_to_linear(gamma))
                rates = np.log2(1.0 + gain_irs * snr)
                served = schedule_rates(rates, "pf", sub.pf_tau)
                pf_se = np.take_along_axis(rates, served[..., None], axis=-1)[..., 0].mean(axis=1)
                if "sumse" in sub.outputs and sub.scheduler == "pf":
                    want["sumse_oob", None, n, gamma] = _trial_stats(pf_se)
                if "pf_gap" in sub.outputs:
                    want["sumse_oob", sub.q_ues, n, gamma] = _trial_stats(pf_se)
                    gap = np.log2(1.0 + ceiling * snr).mean(axis=(1, 2)) - pf_se
                    want["pf_gap", sub.q_ues, n, gamma] = _trial_stats(gap)
    return want


def _run_pf_rows(monkeypatch, spec, variants):
    """run_spec's PF rows as {(statistic, q_ues tag, N, gamma): (empirical,
    stderr)}, and the shape of each schedule_rates call it made, listed
    under its scheduler: (batch, slots, Q) for pf, (trials, slots, Q) for
    rr and mr."""
    calls = {sched: [] for sched in ("rr", "pf", "mr")}

    def spy(rates, scheduler, tau=1000.0):
        calls[scheduler].append(rates.shape)
        return schedule_rates(rates, scheduler, tau)

    monkeypatch.setattr(experiments, "schedule_rates", spy)
    rows, _ = spec_rows(spec, variants=variants)
    got = {}
    for r in rows:
        if r.scheduler == "pf":
            key = (r.statistic, r.q_ues, r.n_elements, r.gamma_db)
            assert key not in got
            got[key] = (r.empirical, r.stderr)
    return got, calls


def test_pf_gap_rows_equal_one_schedule_per_point(monkeypatch):
    """Two q_ues variants and two N: every pf sumse_oob and pf_gap row equals,
    bit for bit, what one schedule_rates call per point gives on the same
    gains, though the run made one PF call per Q, each over all its points."""
    spec = ExperimentSpec(n_sweep=(4, 16), gamma_db_sweep=(120.0, 140.0), k_ues=2,
                          slots=150, trials=3, seed=21, outputs=("pf_gap",))
    got, calls = _run_pf_rows(monkeypatch, spec, Q_SWEEP)
    assert got == _pf_rows_one_point_at_a_time(spec, Q_SWEEP)
    assert len(got) == 2 * 2 * 2 * 2
    assert calls["pf"] == [(12, 150, 2), (12, 150, 3)]


def test_pf_sumse_rows_equal_one_schedule_per_point(monkeypatch):
    """sumse under scheduler pf at three SNRs and two N: one PF call serves
    all six (point, SNR) rate sets, and each row equals its own call's."""
    spec = ExperimentSpec(scheduler="pf", n_sweep=(4, 8),
                          gamma_db_sweep=(110.0, 130.0, 150.0), q_ues=4, slots=200,
                          trials=2, seed=22, outputs=("sumse",))
    got, calls = _run_pf_rows(monkeypatch, spec, ({},))
    assert got == _pf_rows_one_point_at_a_time(spec, ({},))
    assert len(got) == 6
    assert calls["pf"] == [(12, 200, 4)]


def test_sumse_and_pf_gap_share_each_schedule(monkeypatch):
    """sumse under scheduler pf beside pf_gap: each (point, SNR)'s rates are
    scheduled once per scheduler, so the one PF call holds one rate set per
    (point, SNR), rr and mr run once per (point, SNR), and sumse's pf row
    equals pf_gap's Q-tagged one bit for bit."""
    spec = ExperimentSpec(scheduler="pf", n_sweep=(4, 16), gamma_db_sweep=(120.0, 140.0),
                          k_ues=2, q_ues=3, slots=150, trials=3, seed=25,
                          outputs=("sumse", "pf_gap"))
    got, calls = _run_pf_rows(monkeypatch, spec, ({},))
    assert got == _pf_rows_one_point_at_a_time(spec, ({},))
    assert len(got) == 3 * 2 * 2
    assert calls["pf"] == [(2 * 2 * 3, 150, 3)]
    assert calls["rr"] == calls["mr"] == [(3, 150, 3)] * (2 * 2)
    for n in spec.n_sweep:
        for gamma in spec.gamma_db_sweep:
            assert got["sumse_oob", None, n, gamma] == got["sumse_oob", 3, n, gamma]


def test_pf_tau_one_rows_equal_one_schedule_per_point(monkeypatch):
    """pf_tau = 1 leaves every unserved average at 0, so the PF metric reads
    inf there; a zero-rate column padding Q = 1 up to 3 would read 0/0 = NaN,
    which np.argmax serves. Each Q keeps its own loop, so there is no such
    column: Q = 1 and Q = 3 both equal their per-point schedules."""
    spec = ExperimentSpec(n_sweep=(4, 16), k_ues=2, slots=120, trials=2, seed=23,
                          pf_tau=1.0, outputs=("pf_gap",))
    variants = ({"q_ues": 1}, {"q_ues": 3})
    with np.errstate(divide="ignore", invalid="ignore"):
        got, calls = _run_pf_rows(monkeypatch, spec, variants)
        want = _pf_rows_one_point_at_a_time(spec, variants)
    assert got == want and len(got) == 2 * 2 * 2
    assert calls["pf"] == [(4, 120, 1), (4, 120, 3)]


def test_pf_rows_do_not_depend_on_what_shares_their_loop(monkeypatch):
    """Dropping a variant whose rates share a PF loop with another's changes
    that loop's batch, and the other variant's pf rows keep every bit."""
    spec = ExperimentSpec(n_sweep=(4, 16), k_ues=2, slots=150, trials=2, seed=24,
                          outputs=("pf_gap",))
    kept = {"q_ues": 3, "gamma_db_sweep": (125.0,)}
    both, calls_both = _run_pf_rows(monkeypatch, spec, ({"q_ues": 3}, kept))
    alone, calls_alone = _run_pf_rows(monkeypatch, spec, (kept,))
    assert calls_both["pf"] == [(8, 150, 3)] and calls_alone["pf"] == [(4, 150, 3)]
    assert alone == {key: value for key, value in both.items() if key[3] == 125.0}
    assert len(alone) == 2 * 2


# ---------------------------------------------------------------------------
# parameter mapping and sample helpers

def test_operator_params_path_counts_per_regime():
    """Both operators' bundles carry l_paths = l1·l2 in every regime, and every
    in-band form gives the same value at one path and at six, so no form
    needs a per-operator path count."""
    _, bx, by = budgets_for(ExperimentSpec(), np.random.default_rng(0))
    for regime in ("sub6", "mmwave_los", "mmwave_nlos"):
        spec = ExperimentSpec(regime=regime, l1=2, l2=3)
        for budget in (bx, by):
            params = operator_params(spec, budget, 16)
            assert params.l_paths == 6
            np.testing.assert_allclose(params.beta_r, budget.beta_f * budget.beta_g, rtol=1e-15)
            np.testing.assert_allclose(params.beta_d, budget.beta_d, rtol=1e-15)

    one, six = (dataclasses.replace(operator_params(ExperimentSpec(), bx, 16), l_paths=l)
                for l in (1, 6))
    for form in (an.sumse_inband_sub6, an.sumse_inband_mmwave_los, an.sumse_inband_mmwave_nlos):
        for snr in (1e13, 1e20):
            assert form(one, snr) == form(six, snr)
    assert an.inband_outage_bound(one) == an.inband_outage_bound(six)
    grid = np.linspace(-1e-15, 1e-13, 7)
    np.testing.assert_array_equal(an.inband_offset_ccdf_bound(grid, one),
                                  an.inband_offset_ccdf_bound(grid, six))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_grid_inversions_round_trip_their_laws(n):
    """Two grids are placed by inverting an analytics law in experiments: the
    OOB offset CCDF rows' by the large-N limit ccdf_offset_sub6
    (_invert_offset_ccdf), the in-band offset rows' by
    inband_offset_ccdf_bound. Each law on its rows' grid gives back the
    probabilities the grid was placed at, to 1e-12 relative."""
    spec = ExperimentSpec(n_sweep=(n,), k_ues=2, q_ues=2, outputs=("ccdf", "inband_offset"))
    _, bx, by = budgets_for(spec, np.random.default_rng(14))
    params_x, params_y = operator_params(spec, bx, n), operator_params(spec, by, n)
    offset = [row.x for row in experiments._ccdf_rows(spec, {}, None, params_y)]
    np.testing.assert_allclose(an.ccdf_offset_sub6(np.array(offset), params_y),
                               np.linspace(0.995, 0.005, experiments._GRID_POINTS), rtol=1e-12)
    inband = [row.x for row in experiments._inband_offset_rows({}, params_x, None)]
    np.testing.assert_allclose(an.inband_offset_ccdf_bound(inband, params_x),
                               np.linspace(0.95, 0.05, 10), rtol=1e-12)


def test_sample_helpers_are_seed_deterministic():
    sub6 = ExperimentSpec()
    with_a, without_a, params_a = oob_gain_samples(41, sub6, 8, 500)
    with_b, without_b, params_b = oob_gain_samples(41, sub6, 8, 500)
    assert np.array_equal(with_a - without_a, with_b - without_b)
    assert with_a.shape == without_a.shape == (500,)
    assert params_a.n_elements == params_b.n_elements == 8
    assert np.array_equal(params_a.beta_r, params_b.beta_r)

    spec = ExperimentSpec(regime="mmwave_los", l1=1, l2=5)
    with_a, without_a, _ = oob_gain_samples(42, spec, 16, 400)
    with_b, without_b, _ = oob_gain_samples(42, spec, 16, 400)
    assert np.array_equal(with_a, with_b) and np.array_equal(without_a, without_b)
    assert with_a.shape == (400,) and np.all(with_a >= 0.0)
    assert np.all(without_a >= 0.0)


# ---------------------------------------------------------------------------
# the trial pool

def _sweep_point(spec, seed):
    rngs = spawn_rngs(seed, 1 + spec.trials)
    _, bx, by = budgets_for(spec, rngs[0])
    return rngs[1:], bx, by


# fig3, fig8 and fig9 cut to a few slots and points: one preset per regime
_REDUCED_PRESETS = {"fig3": {"slots": 60, "trials": 2},
                    "fig8": {"n_sweep": [4, 16], "slots": 60, "trials": 2},
                    "fig9": {"n_sweep": [16, 64], "slots": 60, "trials": 2}}


@pytest.mark.parametrize("kind", OUTPUT_KINDS)
def test_only_outputs_that_compare_the_direct_gain_draw_it(kind):
    """The runner pairs the OOB gain with the direct-only gain exactly for a
    spec that asks for ccdf or dominance, which compare the two: its point
    replays run_trial(paired=True) bit for bit. Every other spec's point
    holds gain_noirs None and replays run_trial(paired=False) bit for bit.
    Either way the gains with the reflector, the in-band gains and the
    aligned draws are the same bits. So asking for dominance, and in sub6
    also for ccdf, leaves every row of a spec's own output the same bytes:
    on fig3, fig8 and fig9 at reduced sizes, with `kind` as their output
    where the regime allows it."""
    spec = ExperimentSpec(n_sweep=(8, 0), k_ues=2, q_ues=3, slots=60, trials=2, seed=13,
                          outputs=(kind,))
    paired = kind in ("ccdf", "dominance")
    assert experiments._pairs_oob_gains(spec) == paired
    points, _ = experiments.sweep_points(spec)
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(experiments.sweep_gains(pool, points))

    def replay(want_paired):
        """Each point's trials, one by one on fresh copies of its generators."""
        return [[run_trial(spec, rng, n, bx, by, paired=want_paired) for rng in rngs]
                for _, n, rngs, bx, by in experiments.sweep_points(spec)[0]]

    for data, want, other in zip(got, replay(paired), replay(not paired), strict=True):
        if paired:
            np.testing.assert_array_equal(data.gain_noirs, [w.gain_noirs for w in want])
        else:
            assert data.gain_noirs is None
        for trials in (want, other):
            for field in ("gain_irs", "inband_gain"):
                np.testing.assert_array_equal(getattr(data, field),
                                              [getattr(w, field) for w in trials])
            for j in (0, 1):
                np.testing.assert_array_equal(data.aligned[j], [w.aligned[j] for w in trials])

    for name, overrides in _REDUCED_PRESETS.items():
        base = preset_spec(name, overrides)
        if kind in SUB6_OUTPUTS and base.regime != "sub6":
            continue
        added = [out for out in ("dominance", "ccdf")[:1 + (base.regime == "sub6")] if out != kind]
        own, _ = spec_rows(dataclasses.replace(base, outputs=(kind,)))
        more, _ = spec_rows(dataclasses.replace(base, outputs=(kind, *added)))
        own_statistics = {row.statistic for row in own}
        assert emit_csv([row for row in more if row.statistic in own_statistics], name) \
            == emit_csv(own, name)


@pytest.mark.parametrize("regime,extra", [("sub6", {}), ("mmwave_los", {"l2": 5}),
                                          ("mmwave_nlos", {"l1": 2, "l2": 2})])
def test_sweep_gains_is_independent_of_the_worker_count(regime, extra):
    """Each trial reads only its own generator and every point's trials are
    stacked in generator order, so one worker, the default and one worker per
    trial stack the same bits, with the second point's trials running while
    the first point is read. Every sub6 trial also returns its aligned
    draws (E, S), stacked to (trials, slots), and no mmWave trial does."""
    sub6 = regime == "sub6"
    spec = ExperimentSpec(regime=regime, n_sweep=(64, 32), k_ues=3, q_ues=4, slots=1100, trials=3,
                          seed=5, **extra)

    def gains(workers):
        points = [(spec, n, *_sweep_point(spec, 31 + i)) for i, n in enumerate(spec.n_sweep)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(experiments.sweep_gains(pool, points))

    runs = [gains(workers) for workers in (experiments._worker_count(spec.trials), 1,
                                           spec.trials)]
    fields = ["inband_gain", "gain_irs"]
    for run in runs[1:]:
        assert len(run) == len(spec.n_sweep)
        for got, want in zip(run, runs[0]):
            assert got.gain_irs.shape == (spec.trials, spec.slots, spec.q_ues)
            for field in fields:
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            if sub6:
                assert [draws.shape for draws in got.aligned] == [(spec.trials, spec.slots)] * 2
                for got_draws, want_draws in zip(got.aligned, want.aligned):
                    np.testing.assert_array_equal(got_draws, want_draws)
    assert all(data.aligned is None for data in runs[0]) != sub6


@pytest.mark.parametrize("spec,variants", [
    (ExperimentSpec(regime="mmwave_nlos", l1=1, l2=4, n_sweep=(4, 8, 16), k_ues=3, q_ues=4,
                    slots=60, trials=3, seed=5, outputs=("sumse", "outage", "ccdf", "dominance")),
     ({},)),
    (ExperimentSpec(regime="sub6", n_sweep=(8, 16, 32), k_ues=3, q_ues=4, slots=60, trials=3,
                    seed=5, outputs=("sumse", "pf_gap")), ({},)),
    (ExperimentSpec(regime="sub6", n_sweep=(8, 16), k_ues=3, slots=60, trials=3, seed=5,
                    geometry=PINNED_UES, outputs=("pf_gap",)), Q_SWEEP),
], ids=["nlos", "sub6_pf_gap", "scheduler_grid"])
def test_runner_rows_are_independent_of_the_worker_count(monkeypatch, spec, variants):
    """With the next point's trials running while a point's rows are built,
    one worker, the default and one worker per trial still give equal rows."""
    default = experiments._worker_count
    results = []
    for workers in (1, None, spec.trials):
        monkeypatch.setattr(experiments, "_worker_count",
                            default if workers is None else lambda trials, w=workers: w)
        results.append(spec_rows(spec, variants=variants))
    rows, runs = results[0]
    assert rows
    for other_rows, other_runs in results[1:]:
        assert other_rows == rows
        for other, run in zip(other_runs, runs):
            for got, want in zip(other.positions, run.positions):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("regime,variants", [
    ("sub6", ({},)),
    ("mmwave_los", ({"l2": 2}, {"l2": 3})),
    ("sub6", Q_SWEEP),
], ids=["run_spec", "l2_sweep", "q_sweep"])
def test_runners_submit_one_point_ahead(monkeypatch, regime, variants):
    """Trials see at most two sweep points submitted but not yet read by the
    runner, and each point's rows are built while the next point's trials
    are already submitted, across a variant boundary too."""
    submitted = []          # sweep points in order of their first trial's submission
    consumed = []           # submitted points, counted when the runner reads each
    seen = []               # points in flight, as seen by each submission and each trial
    lock = threading.Lock()

    def in_flight():
        return len(submitted) - len(consumed)

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, spec, rng, n, *args, **kwargs):
            with lock:
                if (spec.q_ues, spec.l2, n) not in submitted:
                    submitted.append((spec.q_ues, spec.l2, n))
                seen.append(in_flight())
            return super().submit(fn, spec, rng, n, *args, **kwargs)

    real = experiments.run_trial

    def run_trial(*args, **kwargs):
        with lock:
            seen.append(in_flight())
        return real(*args, **kwargs)

    real_rows = experiments._point_rows
    ahead_at_read = []

    def read(*args, **kwargs):
        with lock:
            consumed.append(len(consumed))
            ahead_at_read.append(in_flight())
        return real_rows(*args, **kwargs)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(experiments, "run_trial", run_trial)
    monkeypatch.setattr(experiments, "_point_rows", read)
    spec = ExperimentSpec(regime=regime, n_sweep=(4, 8, 16, 32), k_ues=2, q_ues=2, slots=40,
                          trials=3, seed=5, outputs=("sumse",))
    spec_rows(spec, variants=variants)
    points = len(submitted)
    assert points == len(consumed) == len(spec.n_sweep) * len(variants)
    assert len(seen) == 2 * points * spec.trials
    assert max(seen) == 2
    # every point but the last is read with the next one's trials submitted
    assert ahead_at_read == [1] * (points - 1) + [0]


def test_a_runner_starts_one_trial_pool_for_all_its_sweep_points(monkeypatch):
    """Thread start-up is paid once per run: three sweep points, and the
    points of two l2 variants or of two Q variants, share one pool each."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
    spec = ExperimentSpec(n_sweep=(4, 8, 16), k_ues=2, q_ues=2, slots=40, trials=2, seed=5,
                          outputs=("sumse",))
    spec_rows(spec)
    assert len(pools) == 1
    spec_rows(dataclasses.replace(spec, regime="mmwave_los"),
             variants=({"l2": 2}, {"l2": 3}))
    assert len(pools) == 2
    spec_rows(dataclasses.replace(spec, outputs=("pf_gap",)), variants=Q_SWEEP)
    assert len(pools) == 3


def test_sweep_gains_propagates_a_trial_error(monkeypatch):
    spec = ExperimentSpec(n_sweep=(4,), k_ues=2, q_ues=2, slots=50, trials=3, seed=5)
    trial_rngs, bx, by = _sweep_point(spec, 32)
    real = experiments.run_trial

    def run_trial(spec, rng, *args, **kwargs):
        if rng is trial_rngs[1]:
            raise ArithmeticError("second trial failed")
        return real(spec, rng, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_trial", run_trial)
    with ThreadPoolExecutor(max_workers=spec.trials) as pool, \
            pytest.raises(ArithmeticError, match="second trial failed"):
        list(experiments.sweep_gains(pool, [(spec, 4, trial_rngs, bx, by)]))


def test_a_failed_point_cancels_the_next_points_unstarted_trials(monkeypatch):
    """Point 0's trials fail while point 1's are queued behind them on one
    worker. The error reaches the caller, and of point 1's trials at most the
    one the worker had already picked up runs; the rest are cancelled."""
    spec = ExperimentSpec(n_sweep=(4, 8), k_ues=2, q_ues=2, slots=50, trials=3, seed=5)
    futures = {4: [], 8: []}
    started = []

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, spec, rng, n, *args, **kwargs):
            future = super().submit(fn, spec, rng, n, *args, **kwargs)
            futures[n].append(future)
            return future

    def run_trial(spec, rng, n, *args, **kwargs):
        if n == 4:
            raise ArithmeticError("point 0 failed")
        started.append(n)
        # hold the worker until the caller has cancelled every queued trial
        deadline = time.monotonic() + 10.0
        while (time.monotonic() < deadline
               and not all(f.running() or f.cancelled() for f in futures[8])):
            time.sleep(0.001)
        return None

    monkeypatch.setattr(experiments, "run_trial", run_trial)
    points = [(spec, n, *_sweep_point(spec, 40 + n)) for n in spec.n_sweep]
    with Pool(max_workers=1) as pool:
        with pytest.raises(ArithmeticError, match="point 0 failed"):
            list(experiments.sweep_gains(pool, points))
    assert len(futures[8]) == spec.trials
    assert len(started) <= 1
    assert sum(f.cancelled() for f in futures[8]) == spec.trials - len(started)
