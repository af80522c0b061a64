"""Preset experiments and their CSV / manifest outputs.

Each preset is data: a default ExperimentSpec, a note, and the spec variants
it sweeps. `sweep_points` places each variant's UEs, before any trial, and
`run_spec` runs the points into ResultRow records: a statistic name, its
sweep coordinates, and empirical / analytic / stderr values. Each stderr
rule has one row builder (`_per_trial_row`, `_pooled_rows`,
`_dominance_row`). `emit_csv` turns the rows into one figure's CSV text, the
only place its label is written, and `manifest_entry` builds the figure's
manifest entry: the spec hash, seed, package versions, and each variant's
overrides, seed and UE placement, so a run can be reproduced or compared byte
for byte. This module reads and writes no file; `cli.main` does.

Preset defaults are sized for a laptop (a few thousand slots, a handful of
trials). Scaling up is a matter of overriding `slots` and `trials`; the model
itself never changes with scale.

Distribution-style statistics (outage, CCDFs, dominance) always track the
first OOB UE; sum-SE statistics average over all of them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytics
from .analytics import AnalyticParams
from .channels import NodeGeometry, PathLossParams
from .config import SCHEDULERS, ExperimentSpec, spec_from_dict, spec_hash, spec_to_dict
from .engine import (TrialData, _aligned_gain, budgets_for, dominance_test, empirical_ccdf,
                     empirical_outage, run_trial, schedule_rates, spawn_rngs)
from .kernels import db_to_linear

CSV_COLUMNS = ("figure", "statistic", "scheduler", "n_elements", "gamma_db",
               "l_paths", "q_ues", "x", "empirical", "analytic", "stderr")


@dataclass
class ResultRow:
    """One CSV line: a statistic evaluated at one sweep coordinate."""

    statistic: str
    scheduler: str = ""
    n_elements: int | None = None
    gamma_db: float | None = None
    l_paths: int | None = None
    q_ues: int | None = None
    x: float | None = None
    empirical: float | None = None
    analytic: float | None = None
    stderr: float | None = None


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _sort_key(row: ResultRow):
    def num(v):
        return -math.inf if v is None else float(v)

    return (row.statistic, row.scheduler, num(row.n_elements), num(row.gamma_db),
            num(row.l_paths), num(row.q_ues), num(row.x))


def emit_csv(rows, figure: str) -> str:
    """The CSV text of rows sorted by coordinates, 9 significant digits, each labelled `figure`.

    The ordering and formatting are locale-independent, so two runs with the
    same spec and seed produce identical bytes. The csv module writes the
    lines, so a label holding a comma or a quote is quoted, not split.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([figure, *(_format_cell(getattr(row, col)) for col in CSV_COLUMNS[1:])]
                     for row in sorted(rows, key=_sort_key))
    return buf.getvalue()


@dataclass(frozen=True)
class VariantRun:
    """One variant of a run: its spec overrides, the seed it drew from and its UE positions."""

    overrides: dict
    seed: int
    positions: tuple[np.ndarray, np.ndarray]


def manifest_entry(spec: ExperimentSpec, runs) -> dict:
    """The manifest entry recording what produced a figure's CSV.

    `runs` holds one VariantRun per variant, in run order; each keeps its
    overrides, seed and UE positions, so a swept run can be rebuilt from its
    entry alone.
    """
    from . import __version__

    return {
        "spec_sha256": spec_hash(spec),
        "seed": spec.seed,
        "spec": spec_to_dict(spec),
        "variants": [{"overrides": dict(run.overrides), "seed": run.seed,
                      "ue_positions_inband": np.asarray(run.positions[0]).tolist(),
                      "ue_positions_oob": np.asarray(run.positions[1]).tolist()}
                     for run in runs],
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "irsoob": __version__,
        },
    }


# ---------------------------------------------------------------------------
# shared machinery

_GRID_POINTS = 21       # x points of the gain CCDF and dominance grids

_SUMSE_FORMS = {
    ("sub6", "inband"): analytics.sumse_inband_sub6,
    ("sub6", "oob"): analytics.sumse_oob_sub6,
    ("mmwave_los", "inband"): analytics.sumse_inband_mmwave_los,
    ("mmwave_los", "oob"): analytics.sumse_oob_mmwave_los,
    ("mmwave_nlos", "inband"): analytics.sumse_inband_mmwave_nlos,
    ("mmwave_nlos", "oob"): analytics.sumse_oob_mmwave_nlos,
}


def operator_params(spec: ExperimentSpec, budget, n_elements: int) -> AnalyticParams:
    """Closed-form parameter bundle for one operator at one sweep point, for every SNR.

    Both operators carry the spec's cascaded path count l1*l2. Only the
    sparse OOB forms read it: the in-band and Rayleigh forms do not.
    """
    return AnalyticParams(n_elements=n_elements, beta_r=budget.beta_r, beta_d=budget.beta_d,
                          l_paths=spec.l1 * spec.l2)


def _worker_count(trials: int) -> int:
    """Threads of a run's trial pool: one per usable CPU, at most one per trial."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, trials)


def _stack(futures) -> TrialData:
    """One sweep point's trial results stacked, in submission order, on a leading trials axis."""
    datas = [f.result() for f in futures]
    return TrialData(
        inband_gain=np.stack([d.inband_gain for d in datas]),
        gain_irs=np.stack([d.gain_irs for d in datas]),
        gain_noirs=np.stack([d.gain_noirs for d in datas]),
        aligned=datas[0].aligned and tuple(map(np.stack, zip(*(d.aligned for d in datas)))))


def sweep_gains(pool: ThreadPoolExecutor, points):
    """Yield each sweep point's gains, one TrialData per point, in sweep order.

    A point is (spec, n_elements, trial_rngs, budget_x, budget_y):
    one trial per generator, stacked in generator order on a leading trials
    axis. Gains are SNR-free, so one point's gains serve every gamma. Every
    trial draws the same gains whatever outputs its spec asks for, OOB UE 0's
    direct-only gain included (`run_trial`).

    The trials run on `pool` (numpy's draws, ufuncs and FFTs release the
    GIL). Before point i's gains are yielded, point i+1's trials are
    submitted, so the workers run them while the caller builds point i's
    rows; no point runs further ahead than that. `run_spec` hands one pool
    to all of its points, variants included, so its threads start once per
    run. Each trial reads only its own generator and the engine's chunk
    widths depend on N alone, so the gains do not depend on the worker
    count. A trial's error is raised when its point is reached, and the
    trials that have not started yet are cancelled.
    """
    pending = []    # each submitted point's futures, oldest first
    try:
        for spec, n_elements, trial_rngs, budget_x, budget_y in points:
            pending.append([pool.submit(run_trial, spec, rng, n_elements, budget_x, budget_y)
                            for rng in trial_rngs])
            if len(pending) == 2:
                yield _stack(pending[0])
                del pending[0]
        if pending:
            yield _stack(pending[0])
    finally:
        for futures in pending:
            for future in futures:
                future.cancel()


def _per_trial_row(statistic, per_trial, form, **coords) -> ResultRow:
    """A per-trial statistic's mean, with its stderr over trials, beside a form that may be blank.

    Without per-trial values (analytic only, or a PF row that the run's
    `_PFQueue` fills after the last point) the empirical and stderr cells
    stay blank; with one trial the stderr does.
    """
    row = ResultRow(statistic, analytic=form, **coords)
    if per_trial is not None:
        _set_trial_stats(row, per_trial)
    return row


def _set_trial_stats(row: ResultRow, per_trial: np.ndarray) -> None:
    row.empirical = float(per_trial.mean())
    if per_trial.size >= 2:
        row.stderr = float(per_trial.std(ddof=1) / math.sqrt(per_trial.size))


def _pooled_rows(statistic, grid, samples, forms, fraction, **coords) -> list[ResultRow]:
    """One row per grid point: the fraction of the samples pooled across slots
    and trials (`empirical_ccdf` or `empirical_outage`), with its binomial stderr.

    `forms` holds the closed form at each grid point, or is None where the
    statistic has none; `samples` is None when nothing was simulated.
    """
    emp = None if samples is None else fraction(samples, grid)
    rows = []
    for j, x in enumerate(grid):
        row = ResultRow(statistic, x=float(x), analytic=None if forms is None else float(forms[j]),
                        **coords)
        if emp is not None:
            row.empirical = float(emp[j])
            row.stderr = math.sqrt(max(row.empirical * (1.0 - row.empirical), 0.0) / samples.size)
        rows.append(row)
    return rows


def _invert_offset_ccdf(p_target: float, params: AnalyticParams) -> float:
    """Gain offset z at which OOB UE 0's large-N limit CCDF (ccdf_offset_sub6) equals p_target."""
    beta_d = float(params.beta_d[0])
    nbt = params.n_elements * float(params.beta_tilde[0])
    knee = (nbt + 1.0) / (nbt + 2.0)   # CCDF value at z = 0
    if p_target <= knee:
        return -beta_d * (1.0 + nbt) * math.log(p_target / knee)
    return beta_d * math.log((1.0 - p_target) * (nbt + 2.0))


def _served_se(rates: np.ndarray, served: np.ndarray) -> np.ndarray:
    """Per-trial mean SE of the served UEs, from (trials, slots, Q) rates and (trials, slots) picks."""
    return np.take_along_axis(rates, served[..., None], axis=-1)[..., 0].mean(axis=1)


# ---------------------------------------------------------------------------
# the sweep runner

def _oob_schedulers(spec: ExperimentSpec) -> tuple[str, ...]:
    """The schedulers each (point, SNR) of `spec` runs on its OOB rates: the
    spec's own for sumse's row, and all three for pf_gap's rows."""
    return tuple(sched for sched in SCHEDULERS if "pf_gap" in spec.outputs
                 or ("sumse" in spec.outputs and sched == spec.scheduler))


class _PFQueue:
    """A run's PF rates and the rows they fill, scheduled after the last sweep point.

    PF is a sequential loop over slots whose cost per slot hardly depends on
    how many schedules it serves, so one `schedule_rates` call per
    (slots, Q, pf_tau) serves every (point, SNR) of that shape; each
    (point, SNR) puts one rate set, whichever outputs read it. The rates are
    copied as they arrive into one slot-major (slots, batch, Q) block per
    shape, sized by `_oob_schedulers` before the first point, which
    `schedule_rates` reads in place, so the run holds them once. A schedule
    is the same bits whatever else is batched with it, so every row is as if
    its point had been scheduled alone.
    """

    def __init__(self, specs):
        sizes = {}
        for sub in specs:
            if "pf" in _oob_schedulers(sub):
                key = (sub.slots, sub.q_ues, sub.pf_tau)
                sizes[key] = sizes.get(key, 0) + sub.trials * len(sub.gamma_db_sweep)
        self._blocks = {key: np.empty((key[0], size, key[1])) for key, size in sizes.items()}
        self._sets = {key: [] for key in self._blocks}   # (trial slice, targets) per set

    def put(self, spec: ExperimentSpec, rates: np.ndarray, targets: list) -> None:
        """Set aside a (trials, slots, Q) rate set and the (row, ceiling) pairs it
        fills, where a row's per-trial value is the served SE, or ceiling less it."""
        key = (spec.slots, spec.q_ues, spec.pf_tau)
        sets = self._sets[key]
        start = sets[-1][0].stop if sets else 0
        trials = slice(start, start + len(rates))
        self._blocks[key][:, trials] = rates.transpose(1, 0, 2)
        sets.append((trials, targets))

    def schedule(self) -> None:
        """Run each shape's one PF loop and fill every set-aside row."""
        for key, block in self._blocks.items():
            assert self._sets[key][-1][0].stop == block.shape[1], "a PF rate set never came"
            rates = block.transpose(1, 0, 2)
            served = schedule_rates(rates, "pf", key[2])
            for trials, targets in self._sets[key]:
                served_se = _served_se(rates[trials], served[trials])
                for row, ceiling in targets:
                    _set_trial_stats(row, served_se if ceiling is None else ceiling - served_se)


_Q_SEED_STRIDE = 7919   # a variant that sets q_ues draws from seed + 7919·Q


def sweep_points(spec: ExperimentSpec, variants=({},)):
    """Each variant's UE placement and sweep points, before any trial: (points, runs).

    `variants` holds spec field overrides, one dict per sub-run; the presets
    sweep l2 and q_ues this way. A variant that sets q_ues draws from
    seed + 7919·Q, so each OOB population keeps its own stream; the others
    draw from the spec's seed. Each (variant, element count) sweep point gets
    its own trials + 1 generator children, so results at one point do not
    depend on which others were run. The trials read the first `trials` of
    them; the last is unused, kept because a child depends only on its
    index, so dropping it would move every later point's trial generators.
    A point is (spec, N, trial generators, budget_x, budget_y), as
    `sweep_gains` takes it; `runs` holds one VariantRun per variant. Raises
    `draw_ue_positions`' ValueError when d0 leaves a variant's region no room
    for its UEs, so `cli.main` reports that before any trial runs.
    """
    points, runs = [], []
    for variant in variants:
        sub = dataclasses.replace(spec, **variant)
        if "q_ues" in variant:
            sub = dataclasses.replace(sub, seed=spec.seed + _Q_SEED_STRIDE * sub.q_ues)
        per_point = sub.trials + 1   # the last child of each point is unused
        rngs = spawn_rngs(sub.seed, 1 + len(sub.n_sweep) * per_point)
        positions, budget_x, budget_y = budgets_for(sub, rngs[0])
        runs.append(VariantRun(variant, sub.seed, positions))
        for i, n in enumerate(sub.n_sweep):
            block = rngs[1 + i * per_point: 1 + (i + 1) * per_point]
            points.append((sub, n, block[:-1], budget_x, budget_y))
    return points, runs


def run_spec(points, analytic_only: bool = False) -> list[ResultRow]:
    """Every requested output's rows at a spec's sweep points, as `sweep_points` builds them.

    Every point goes to one `sweep_gains` call on one pool, so the trials run
    one point ahead across variant boundaries too. Each point's rows are
    built as its gains arrive, except that each (point, SNR) that runs PF
    sets its one rate set aside in a `_PFQueue`, whether sumse, pf_gap or
    both read it: after the last point, one slot loop per (slots, Q, pf_tau)
    schedules all of them and fills their rows. With analytic_only,
    simulation is skipped and the full run's rows come back with blank
    empirical/stderr columns, on the same grids and placements.
    """
    rows: list[ResultRow] = []
    pf = None if analytic_only else _PFQueue(sub for sub, *_ in points)
    with ThreadPoolExecutor(max_workers=_worker_count(max(p[0].trials for p in points))) as pool:
        gains = itertools.repeat(None) if analytic_only else sweep_gains(pool, points)
        for (sub, n, _, budget_x, budget_y), data in zip(points, gains):
            rows += _point_rows(sub, n, data, operator_params(sub, budget_x, n),
                                operator_params(sub, budget_y, n), pf)
    if pf is not None:
        pf.schedule()
    return rows


def _point_rows(spec, n, data, params_x, params_y, pf):
    """Every requested output's rows at one sweep point; PF rows are filled by `pf` later.

    Every row carries the point's coordinates: N, and l1*l2 in mmWave.
    """
    coords = {"n_elements": n, "l_paths": spec.l1 * spec.l2 if spec.regime != "sub6" else None}
    inband = None   # in-band UE 0's (gain, direct gain) on the trials' (E, S), where read
    if data is not None and data.aligned is not None and not {
            "outage", "inband_offset"}.isdisjoint(spec.outputs):
        exp_direct, shape = data.aligned
        beta_d, beta_r = float(params_x.beta_d[0]), float(params_x.beta_r[0])
        inband = (_aligned_gain(exp_direct, shape, beta_d, beta_r), beta_d * exp_direct)
    rows = []
    if _oob_schedulers(spec):
        # each OOB UE's matched-reflector ceiling on the trials' (E, S), read by pf_gap
        ceiling_gain = None
        if "pf_gap" in spec.outputs and data is not None:
            ceiling_gain = _aligned_gain(*(d[..., None] for d in data.aligned),
                                         params_y.beta_d, params_y.beta_r)
        for gamma in spec.gamma_db_sweep:
            rows += _snr_rows(spec, gamma, coords, data, params_x, params_y, ceiling_gain, pf)
    if "outage" in spec.outputs:
        rows += _outage_rows(spec, coords, data, params_x, params_y, inband)
    if "ccdf" in spec.outputs:
        rows += _ccdf_rows(spec, coords, data, params_y)
    if "dominance" in spec.outputs and n > 0:
        rows.append(_dominance_row(data, params_y, **coords))
    if "inband_offset" in spec.outputs:
        rows += _inband_offset_rows(coords, params_x, inband)
    return rows


def _oob_form(spec, scheduler, params, snr):
    """The OOB sum-SE closed form under one scheduler, or None where there is none.

    Max-rate over a single UE is round-robin, so it takes the rr form.
    """
    if scheduler == "rr" or (scheduler == "mr" and spec.q_ues == 1):
        return float(_SUMSE_FORMS[(spec.regime, "oob")](params, snr))
    if scheduler == "mr" and spec.regime == "sub6":
        return float(analytics.mr_asymptotic_se(spec.q_ues, params, snr))
    return None


def _snr_rows(spec, gamma, coords, data, params_x, params_y, ceiling_gain, pf):
    """sumse's and pf_gap's rows at one (point, SNR), all from one set of OOB rates.

    sumse writes the in-band sum-SE and the OOB one under the spec's
    scheduler; pf_gap writes the OOB sum-SE under every scheduler, tagged
    with q_ues, and PF's gap to the per-UE matched-reflector SE ceiling. Each
    scheduler runs at most once, so a row both outputs write has the same
    bits in each. rr and mr rows are filled here; with gains, the rates go to
    `pf` once, with every PF row they fill. Without gains (analytic only)
    every row is written with its empirical and stderr cells blank.
    """
    snr = float(db_to_linear(gamma))
    rates = None if data is None else np.log2(1.0 + data.gain_irs * snr)
    rows, pf_targets = [], []
    if "sumse" in spec.outputs:
        # in-band scheduling is always round-robin
        per_trial = None if data is None else np.log2(1.0 + data.inband_gain * snr).mean(axis=1)
        rows.append(_per_trial_row("sumse_inband", per_trial,
                                   float(_SUMSE_FORMS[(spec.regime, "inband")](params_x, snr)),
                                   gamma_db=gamma, **coords))
    for sched in _oob_schedulers(spec):
        served = None
        if rates is not None and sched != "pf":
            served = _served_se(rates, schedule_rates(rates, sched))
        form = _oob_form(spec, sched, params_y, snr)
        sched_rows = []
        if "sumse" in spec.outputs and sched == spec.scheduler:
            sched_rows.append(_per_trial_row("sumse_oob", served, form, scheduler=sched,
                                             gamma_db=gamma, **coords))
        if "pf_gap" in spec.outputs:
            sched_rows.append(_per_trial_row("sumse_oob", served, form, scheduler=sched,
                                             gamma_db=gamma, q_ues=spec.q_ues, **coords))
        if sched == "pf":
            pf_targets += [(row, None) for row in sched_rows]
        rows += sched_rows
    if "pf_gap" in spec.outputs:
        gap = _per_trial_row("pf_gap", None, None, scheduler="pf", gamma_db=gamma,
                             q_ues=spec.q_ues, **coords)
        if data is not None:
            pf_targets.append((gap, np.log2(1.0 + ceiling_gain * snr).mean(axis=(1, 2))))
        rows.append(gap)
    if rates is not None and pf_targets:
        pf.put(spec, rates, pf_targets)
    return rows


def _outage_rows(spec, coords, data, params_x, params_y, inband):
    ref_n = 64 if 64 in spec.n_sweep else spec.n_sweep[-1]
    ref = dataclasses.replace(params_y, n_elements=max(ref_n, 1))
    rho = 0.1 * analytics._mu1(ref)
    forms = None
    if spec.regime == "sub6":
        forms = [analytics.outage_oob_sub6(rho, params_y)]
    elif spec.regime == "mmwave_los":
        forms = [analytics.cdf_oob_mmwave_los(rho, params_y)]
    rows = _pooled_rows("outage_oob", [rho], None if data is None else data.gain_irs[:, :, 0],
                        forms, empirical_outage, **coords)
    if spec.regime == "sub6" and params_x.n_elements > 0:
        rho_ib = (math.pi ** 2 / 16.0) * float(params_x.beta_r[0])
        rows += _pooled_rows("outage_inband", [rho_ib], None if inband is None else inband[0],
                             None, empirical_outage, **coords)
        bound = float(analytics.inband_outage_bound(params_x))
        rows.append(ResultRow("outage_inband_bound", x=rho_ib, analytic=bound, **coords))
    return rows


def _ccdf_rows(spec, coords, data, params_y):
    n = params_y.n_elements
    beta_d0 = float(params_y.beta_d[0])
    p_grid = np.linspace(0.995, 0.005, _GRID_POINTS)
    if n == 0:
        # no reflector: the gain with it is the direct-path gain, its N left blank
        grid = -beta_d0 * np.log(p_grid)
        return _pooled_rows("gain_ccdf_noirs", grid,
                            None if data is None else data.gain_irs[:, :, 0],
                            [math.exp(-x / beta_d0) for x in grid], empirical_ccdf)
    if spec.regime == "sub6":
        grid = np.array([_invert_offset_ccdf(p, params_y) for p in p_grid])
        samples = None
        if data is not None:
            samples = data.gain_irs[:, :, 0] - data.gain_noirs
        return _pooled_rows("offset_ccdf", grid, samples,
                            analytics.ccdf_offset_sub6_finite_n(grid, params_y), empirical_ccdf,
                            **coords)
    # spans the direct-path floor up to a few times the fully aligned gain
    hi = 3.0 * (n * n / max(params_y.l_bar, 1) * float(params_y.beta_r[0]) + beta_d0)
    grid = np.geomspace(1e-2 * beta_d0, hi, _GRID_POINTS)
    forms = None
    if spec.regime == "mmwave_los":
        forms = 1.0 - analytics.cdf_oob_mmwave_los(grid, params_y)
    return _pooled_rows("gain_ccdf", grid,
                        None if data is None else data.gain_irs[:, :, 0], forms,
                        empirical_ccdf, **coords)


def _dominance_row(data, params_y, **coords):
    if data is None:
        return ResultRow("dominance_min_diff", **coords)
    beta_d0 = float(params_y.beta_d[0])
    grid = np.geomspace(1e-2 * beta_d0, 10.0 * analytics._mu1(params_y), _GRID_POINTS)
    min_diff, eps_stat = dominance_test(data.gain_irs[:, :, 0], data.gain_noirs, grid)
    return ResultRow("dominance_min_diff", empirical=min_diff, stderr=eps_stat, **coords)


def _inband_offset_rows(coords, params_x, inband):
    """The served in-band UE's gain offset CCDF against its closed-form lower bound."""
    beta_d0 = float(params_x.beta_d[0])
    alpha, eta = analytics.decay_bound_terms(params_x)
    # invert the bound so the grid tracks its transition region
    base = 0.5 * math.log((beta_d0 + alpha) / beta_d0) + eta ** 2 / (beta_d0 + alpha)
    grid = np.array([beta_d0 * (math.log(1.0 - p) + base)
                     for p in np.linspace(0.95, 0.05, 10)])
    samples = None if inband is None else inband[0] - inband[1]
    return _pooled_rows("offset_ccdf_inband", grid, samples,
                        analytics.inband_offset_ccdf_bound(grid, params_x), empirical_ccdf,
                        **coords)


# ---------------------------------------------------------------------------
# presets

_MMWAVE_LOSS = PathLossParams(c0_db=-60.0)
_IID_UES = NodeGeometry(ue_region=((1000.0, 1000.0), (1000.0, 1000.0)))   # one loss for all UEs


@dataclass(frozen=True)
class Preset:
    """A figure: its default spec, a one-line note, and the spec variants it sweeps."""

    spec: ExperimentSpec
    note: str
    variants: tuple[dict, ...] = ({},)


PRESETS: dict[str, Preset] = {
    "fig3": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(64,),
                       gamma_db_sweep=(110.0, 120.0, 130.0, 140.0, 150.0, 160.0),
                       slots=2000, trials=3, seed=3, outputs=("sumse",)),
        "sum-SE of both operators vs transmit SNR, Rayleigh fading"),
    "fig4": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(64, 128, 256, 512), gamma_db_sweep=(150.0,),
                       slots=2000, trials=3, seed=4, outputs=("sumse",)),
        "sum-SE vs element count at high SNR; slopes 2 (in-band) and 1 (OOB)"),
    "fig5": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(0, 4, 16, 64), gamma_db_sweep=(130.0,),
                       slots=5000, trials=4, seed=5, outputs=("ccdf", "dominance")),
        "CCDF of the OOB gain offset; reflector-free gain as reference"),
    "fig6": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(2, 4, 6, 8, 16, 32, 64, 128),
                       gamma_db_sweep=(130.0,), slots=5000, trials=4, seed=6,
                       outputs=("outage",)),
        "outage of both operators vs element count"),
    "fig7": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(8, 16, 32), gamma_db_sweep=(130.0,),
                       slots=5000, trials=4, seed=7, outputs=("inband_offset",)),
        "in-band offset CCDF against its closed-form lower bound"),
    "fig8": Preset(
        ExperimentSpec(regime="mmwave_los", path_loss=_MMWAVE_LOSS,
                       n_sweep=(4, 8, 16, 32, 64, 128, 256),
                       gamma_db_sweep=(150.0, 200.0),
                       l1=1, l2=8, slots=2000, trials=3, seed=8, outputs=("sumse",)),
        "sparse single-path regime: sum-SE of both operators vs element count"),
    "fig9": Preset(
        ExperimentSpec(regime="mmwave_nlos", path_loss=_MMWAVE_LOSS,
                       n_sweep=(4, 8, 16, 32, 64, 128, 256, 512, 1024),
                       gamma_db_sweep=(200.0,), l1=1, l2=4, slots=1000, trials=2, seed=9,
                       outputs=("sumse",)),
        "sparse multipath regime: sum-SE vs element count for two path counts",
        ({"l2": 4}, {"l2": 8})),
    "fig10": Preset(
        ExperimentSpec(regime="mmwave_los", path_loss=_MMWAVE_LOSS,
                       n_sweep=(64,), gamma_db_sweep=(200.0,),
                       l1=1, l2=5, slots=5000, trials=4, seed=10,
                       outputs=("ccdf", "dominance")),
        "sparse regime gain CCDFs for several OOB path counts",
        ({"l2": 5}, {"l2": 20}, {"l2": 50})),
    "fig11": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(4, 16), gamma_db_sweep=(130.0,),
                       slots=5000, trials=4, seed=11, geometry=_IID_UES, outputs=("pf_gap",)),
        "OOB SE under rr/pf/mr vs OOB population size",
        ({"q_ues": 1}, {"q_ues": 10}, {"q_ues": 100})),
    "fig12": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(64, 128, 256, 512), gamma_db_sweep=(150.0,),
                       slots=2000, trials=4, seed=12, geometry=_IID_UES, outputs=("pf_gap",)),
        "OOB SE under rr/pf/mr vs element count",
        ({"q_ues": 10}, {"q_ues": 100})),
}


def preset_spec(name: str, overrides: dict | None = None) -> ExperimentSpec:
    """A preset's spec with the overrides applied.

    Raises ValueError for an unknown preset, an unknown field or a value the
    spec rejects.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    spec = PRESETS[name].spec
    if overrides:
        # an override replaces the whole field, as a config file's field would
        try:
            spec = spec_from_dict({**spec_to_dict(spec), **overrides})
        except ValueError as err:
            raise ValueError(f"bad override for {name}: {err}") from err
    return spec

