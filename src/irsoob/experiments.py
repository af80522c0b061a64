"""Preset experiments and their CSV / manifest outputs.

Each preset is data: a default ExperimentSpec, a note, and the spec variants
it sweeps. One runner, `run_spec`, turns any of them into ResultRow records:
a statistic name, its sweep coordinates, and empirical / analytic / stderr
values. Rows are written as one CSV per figure plus a manifest recording the
spec hash, seed, package versions, and each variant's overrides, seed and UE
placement, so a run can be reproduced or compared byte for byte.

Preset defaults are sized for a laptop (a few thousand slots, a handful of
trials). Scaling up is a matter of overriding `slots` and `trials`; the model
itself never changes with scale.

Distribution-style statistics (outage, CCDFs, dominance) always track the
first OOB UE; sum-SE statistics average over all of them.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics
from .analytics import AnalyticParams
from .channels import PathLossParams
from .config import (SCHEDULERS, ExperimentSpec, read_json_object, spec_from_dict, spec_hash,
                     spec_to_dict)
from .engine import (TrialData, _aligned_gain, budgets_for, dominance_test, empirical_ccdf,
                     empirical_outage, run_trial, schedule_rates, spawn_rngs)
from .irs import correlation_response
from .kernels import db_to_linear, principal_sine_wrap, resolvable_angles

CSV_COLUMNS = ("figure", "statistic", "scheduler", "n_elements", "gamma_db",
               "l_paths", "q_ues", "x", "empirical", "analytic", "stderr")


@dataclass
class ResultRow:
    """One CSV line: a statistic evaluated at one sweep coordinate."""

    figure: str
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


def emit_csv(rows, path) -> None:
    """Write rows sorted by coordinates, 9 significant digits, UTF-8.

    The ordering and formatting are locale-independent, so two runs with the
    same spec and seed produce identical bytes.
    """
    ordered = sorted(rows, key=_sort_key)
    lines = [",".join(CSV_COLUMNS)]
    for row in ordered:
        lines.append(",".join(_format_cell(getattr(row, col)) for col in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class VariantRun:
    """One variant of a run: its spec overrides, the seed it drew from and its UE positions."""

    overrides: dict
    seed: int
    positions: tuple[np.ndarray, np.ndarray]


def write_manifest(path, figure: str, spec: ExperimentSpec, runs) -> None:
    """Record what produced a figure's CSV; merges into an existing manifest.

    `runs` holds one VariantRun per variant, in run order; each keeps its
    overrides, seed and UE positions, so a swept run can be rebuilt from its
    entry alone.
    """
    from . import __version__

    entry = {
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
    target = Path(path)
    manifest = read_json_object(target) if target.exists() else {}
    manifest[figure] = entry
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


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
    axis. Gains are SNR-free, so one point's gains serve every gamma.

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


def _per_trial_row(figure, statistic, per_trial, form, **coords) -> ResultRow:
    """A per-trial statistic's mean, with its stderr over trials, beside a form that may be blank.

    Without per-trial values (analytic only, or a PF row that the run's
    `_PFQueue` fills after the last point) the empirical and stderr cells
    stay blank; with one trial the stderr does.
    """
    row = ResultRow(figure, statistic, analytic=form, **coords)
    if per_trial is not None:
        _set_trial_stats(row, per_trial)
    return row


def _set_trial_stats(row: ResultRow, per_trial: np.ndarray) -> None:
    row.empirical = float(per_trial.mean())
    if per_trial.size >= 2:
        row.stderr = float(per_trial.std(ddof=1) / math.sqrt(per_trial.size))


def _binom_err(p_hat: float, count: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / count)


def _pooled_outage_row(figure, statistic, rho, samples, form, **coords) -> ResultRow:
    """P(gain < rho) over samples pooled across slots and trials, with its binomial stderr."""
    emp = err = None
    if samples is not None:
        emp = float(empirical_outage(samples, rho))
        err = _binom_err(emp, samples.size)
    return ResultRow(figure, statistic, x=rho, empirical=emp, analytic=form, stderr=err,
                     **coords)


def _pooled_ccdf_rows(figure, statistic, grid, samples, forms, **coords) -> list[ResultRow]:
    """One row per grid point: the pooled samples' CCDF with its binomial stderr.

    `forms` holds the closed form at each grid point, or is None where the
    statistic has none; `samples` is None when nothing was simulated.
    """
    emp = None if samples is None else empirical_ccdf(samples, grid)
    rows = []
    for j, x in enumerate(grid):
        e = None if emp is None else float(emp[j])
        rows.append(ResultRow(figure, statistic, x=float(x), empirical=e,
                              analytic=None if forms is None else float(forms[j]),
                              stderr=None if e is None else _binom_err(e, samples.size),
                              **coords))
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


def _ccdf_grid_mmwave(params: AnalyticParams) -> np.ndarray:
    # spans the direct-path floor up to a few times the fully aligned gain
    beta_d = float(params.beta_d[0])
    n = params.n_elements
    l_bar = max(params.l_bar, 1)
    hi = 3.0 * (n * n / l_bar * float(params.beta_r[0]) + beta_d)
    return np.geomspace(1e-2 * beta_d, hi, _GRID_POINTS)


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


# the outputs computed from the trials' gains or in-band draws;
# correlation_response draws from each point's auxiliary generator instead
_GAIN_OUTPUTS = frozenset({"sumse", "outage", "ccdf", "dominance", "pf_gap", "inband_offset"})
_Q_SEED_STRIDE = 7919   # a variant that sets q_ues draws from seed + 7919·Q


def run_spec(spec: ExperimentSpec, figure: str = "run", analytic_only: bool = False,
             variants=({},)):
    """Run one spec over its variants and sweeps and produce rows for each requested output.

    `variants` holds spec field overrides, one dict per sub-run; the presets
    sweep l2 and q_ues this way. A variant that sets q_ues draws from
    seed + 7919·Q, so each OOB population keeps its own stream; the others
    draw from the spec's seed. Each (variant, element count) sweep point gets
    its own trials + 1 generator children, the last of them auxiliary (read
    only by correlation_response rows), so results at one point do not
    depend on which others were run. Every point goes to one `sweep_gains`
    call on one pool, so the trials run one point ahead across variant
    boundaries too. Each point's rows are built as its gains arrive, except
    that each (point, SNR) that runs PF sets its one rate set aside in a
    `_PFQueue`, whether sumse, pf_gap or both read it: after the last point,
    one slot loop per (slots, Q, pf_tau) schedules all of them and fills
    their rows.

    Returns (rows, one VariantRun per variant). With analytic_only,
    simulation is skipped and the empirical/stderr columns stay blank; grids
    and placements are identical to a full run. Trials run only when an
    output reads their gains.
    """
    points = []     # (spec, N, trial generators, auxiliary generator, budget_x, budget_y)
    runs = []
    for variant in variants:
        sub = dataclasses.replace(spec, **variant)
        if "q_ues" in variant:
            sub = dataclasses.replace(sub, seed=spec.seed + _Q_SEED_STRIDE * sub.q_ues)
        per_point = sub.trials + 1
        rngs = spawn_rngs(sub.seed, 1 + len(sub.n_sweep) * per_point)
        positions, budget_x, budget_y = budgets_for(sub, rngs[0])
        runs.append(VariantRun(variant, sub.seed, positions))
        for i, n in enumerate(sub.n_sweep):
            block = rngs[1 + i * per_point: 1 + (i + 1) * per_point]
            points.append((sub, n, block[:-1], block[-1], budget_x, budget_y))
    simulate = not analytic_only and not _GAIN_OUTPUTS.isdisjoint(spec.outputs)
    rows: list[ResultRow] = []
    pf = _PFQueue(sub for sub, *_ in points) if simulate else None

    with ThreadPoolExecutor(max_workers=_worker_count(spec.trials)) as pool:
        gains = itertools.repeat(None)
        if simulate:
            gains = sweep_gains(pool, [(sub, n, trial_rngs, budget_x, budget_y)
                                       for sub, n, trial_rngs, _, budget_x, budget_y in points])
        for (sub, n, _, aux_rng, budget_x, budget_y), data in zip(points, gains):
            rows += _point_rows(sub, figure, n, data, aux_rng, budget_x, budget_y,
                                analytic_only, pf)
    if pf is not None:
        pf.schedule()
    return rows, runs


def _point_rows(spec, figure, n, data, aux_rng, budget_x, budget_y, analytic_only, pf):
    """Every requested output's rows at one sweep point; PF rows are filled by `pf` later."""
    l_tag = spec.l1 * spec.l2 if spec.regime != "sub6" else None
    params_x = operator_params(spec, budget_x, n)
    params_y = operator_params(spec, budget_y, n)
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
                                         budget_y.beta_d, budget_y.beta_r)
        for gamma in spec.gamma_db_sweep:
            rows += _snr_rows(spec, figure, n, gamma, l_tag, data, params_x, params_y,
                              ceiling_gain, pf)
    if "outage" in spec.outputs:
        rows += _outage_rows(spec, figure, n, l_tag, data, params_x, params_y, inband)
    if "ccdf" in spec.outputs:
        rows += _ccdf_rows(spec, figure, n, l_tag, data, params_y)
    if "dominance" in spec.outputs and data is not None and n > 0:
        rows.append(_dominance_row(figure, n, l_tag, data, params_y))
    if "inband_offset" in spec.outputs:
        rows += _inband_offset_rows(figure, n, params_x, inband)
    if "correlation_response" in spec.outputs:
        rows += _response_rows(spec, figure, n, l_tag, aux_rng, analytic_only)
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


def _snr_rows(spec, figure, n, gamma, l_tag, data, params_x, params_y, ceiling_gain, pf):
    """sumse's and pf_gap's rows at one (point, SNR), all from one set of OOB rates.

    sumse writes the in-band sum-SE and the OOB one under the spec's
    scheduler; pf_gap writes the OOB sum-SE under every scheduler, tagged
    with q_ues, and PF's gap to the per-UE matched-reflector SE ceiling. Each
    scheduler runs at most once, so a row both outputs write has the same
    bits in each. rr and mr rows are filled here; with gains, the rates go to
    `pf` once, with every PF row they fill. Without gains (analytic only)
    sumse keeps its blank pf row; pf_gap writes only rows with a closed form.
    """
    snr = float(db_to_linear(gamma))
    rates = None if data is None else np.log2(1.0 + data.gain_irs * snr)
    rows, pf_targets = [], []
    if "sumse" in spec.outputs:
        # in-band scheduling is always round-robin
        per_trial = None if data is None else np.log2(1.0 + data.inband_gain * snr).mean(axis=1)
        rows.append(_per_trial_row(figure, "sumse_inband", per_trial,
                                   float(_SUMSE_FORMS[(spec.regime, "inband")](params_x, snr)),
                                   n_elements=n, gamma_db=gamma, l_paths=l_tag))
    for sched in _oob_schedulers(spec):
        served = None
        if rates is not None and sched != "pf":
            served = _served_se(rates, schedule_rates(rates, sched))
        form = _oob_form(spec, sched, params_y, snr)
        sched_rows = []
        if "sumse" in spec.outputs and sched == spec.scheduler:
            sched_rows.append(_per_trial_row(figure, "sumse_oob", served, form, scheduler=sched,
                                             n_elements=n, gamma_db=gamma, l_paths=l_tag))
        if "pf_gap" in spec.outputs and (data is not None or form is not None):
            sched_rows.append(_per_trial_row(figure, "sumse_oob", served, form, scheduler=sched,
                                             n_elements=n, gamma_db=gamma, q_ues=spec.q_ues))
        if sched == "pf":
            pf_targets += [(row, None) for row in sched_rows]
        rows += sched_rows
    if "pf_gap" in spec.outputs and data is not None:
        gap = _per_trial_row(figure, "pf_gap", None, None, scheduler="pf", n_elements=n,
                             gamma_db=gamma, q_ues=spec.q_ues)
        pf_targets.append((gap, np.log2(1.0 + ceiling_gain * snr).mean(axis=(1, 2))))
        rows.append(gap)
    if rates is not None and pf_targets:
        pf.put(spec, rates, pf_targets)
    return rows


def _outage_rows(spec, figure, n, l_tag, data, params_x, params_y, inband):
    ref_n = 64 if 64 in spec.n_sweep else spec.n_sweep[-1]
    ref = dataclasses.replace(params_y, n_elements=max(ref_n, 1))
    rho = 0.1 * analytics._mu1(ref)
    analytic = None
    if spec.regime == "sub6":
        analytic = float(analytics.outage_oob_sub6(rho, params_y))
    elif spec.regime == "mmwave_los":
        analytic = float(analytics.cdf_oob_mmwave_los(rho, params_y))
    samples = None if data is None else data.gain_irs[:, :, 0]
    rows = [_pooled_outage_row(figure, "outage_oob", rho, samples, analytic,
                               n_elements=n, l_paths=l_tag)]
    if spec.regime == "sub6" and n > 0:
        rho_ib = (math.pi ** 2 / 16.0) * float(params_x.beta_r[0])
        rows.append(_pooled_outage_row(figure, "outage_inband", rho_ib,
                                       None if inband is None else inband[0], None,
                                       n_elements=n))
        bound = float(analytics.inband_outage_bound(params_x))
        rows.append(ResultRow(figure, "outage_inband_bound", n_elements=n, x=rho_ib,
                              analytic=bound))
    return rows


def _ccdf_rows(spec, figure, n, l_tag, data, params_y):
    beta_d0 = float(params_y.beta_d[0])
    p_grid = np.linspace(0.995, 0.005, _GRID_POINTS)
    if n == 0:
        # no reflector: the plain direct-path gain distribution
        grid = -beta_d0 * np.log(p_grid)
        return _pooled_ccdf_rows(figure, "gain_ccdf_noirs", grid,
                                 None if data is None else data.gain_noirs[:, :, 0],
                                 [math.exp(-x / beta_d0) for x in grid])
    if spec.regime == "sub6":
        grid = np.array([_invert_offset_ccdf(p, params_y) for p in p_grid])
        samples = None
        if data is not None:
            samples = (data.gain_irs[:, :, 0] - data.gain_noirs[:, :, 0]).ravel()
        return _pooled_ccdf_rows(figure, "offset_ccdf", grid, samples,
                                 analytics.ccdf_offset_sub6_finite_n(grid, params_y),
                                 n_elements=n, l_paths=l_tag)
    grid = _ccdf_grid_mmwave(params_y)
    forms = None
    if spec.regime == "mmwave_los":
        forms = 1.0 - analytics.cdf_oob_mmwave_los(grid, params_y)
    return _pooled_ccdf_rows(figure, "gain_ccdf", grid,
                             None if data is None else data.gain_irs[:, :, 0].ravel(), forms,
                             n_elements=n, l_paths=l_tag)


def _dominance_row(figure, n, l_tag, data, params_y):
    beta_d0 = float(params_y.beta_d[0])
    grid = np.geomspace(1e-2 * beta_d0, 10.0 * analytics._mu1(params_y), _GRID_POINTS)
    report = dominance_test(data.gain_irs[:, :, 0], data.gain_noirs[:, :, 0], grid)
    return ResultRow(figure, "dominance_min_diff", n_elements=n, l_paths=l_tag,
                     empirical=report.min_diff, analytic=None, stderr=report.eps_stat)


def _inband_offset_rows(figure, n, params_x, inband):
    """The served in-band UE's gain offset CCDF against its closed-form lower bound."""
    beta_d0 = float(params_x.beta_d[0])
    alpha, eta = analytics.decay_bound_terms(params_x)
    # invert the bound so the grid tracks its transition region
    base = 0.5 * math.log((beta_d0 + alpha) / beta_d0) + eta ** 2 / (beta_d0 + alpha)
    grid = np.array([beta_d0 * (math.log(1.0 - p) + base)
                     for p in np.linspace(0.95, 0.05, 10)])
    return _pooled_ccdf_rows(figure, "offset_ccdf_inband", grid,
                             None if inband is None else inband[0] - inband[1],
                             analytics.inband_offset_ccdf_bound(grid, params_x), n_elements=n)


def _response_rows(spec, figure, n, l_tag, aux_rng, analytic_only):
    """The RMS response at each source angle, with form 1/sqrt(L), then at two off-peak probes.

    Analytic only, the source angles are drawn as in a full run and only the
    Monte Carlo response is skipped, so the probe rows carry no value.
    """
    grid = resolvable_angles(n)
    source = np.sort(aux_rng.choice(grid, size=min(spec.l1 * spec.l2, n), replace=False))
    # off-peak probes: half a bin either side of the grid point farthest, in
    # circular distance, from every source angle
    gap = np.abs(grid[:, None] - source[None, :])
    far = grid[np.argmax(np.minimum(gap, 2.0 - gap).min(axis=1))]
    probes = [(nu, 1.0 / math.sqrt(len(source))) for nu in source]
    probes += [(nu, None) for nu in principal_sine_wrap(far + np.array([-1.0, 1.0]) / n)]
    return [ResultRow(figure, "response", n_elements=n, l_paths=l_tag, x=float(nu), analytic=form,
                      empirical=None if analytic_only else float(
                          correlation_response(aux_rng, n, source, float(nu), trials=400)))
            for nu, form in probes]


# ---------------------------------------------------------------------------
# presets

_MMWAVE_LOSS = PathLossParams(c0_db=-60.0)


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
                       slots=5000, trials=4, seed=11, iid_ues=True, outputs=("pf_gap",)),
        "OOB SE under rr/pf/mr vs OOB population size",
        ({"q_ues": 1}, {"q_ues": 10}, {"q_ues": 100})),
    "fig12": Preset(
        ExperimentSpec(regime="sub6", n_sweep=(64, 128, 256, 512), gamma_db_sweep=(150.0,),
                       slots=2000, trials=4, seed=12, iid_ues=True, outputs=("pf_gap",)),
        "OOB SE under rr/pf/mr vs element count",
        ({"q_ues": 10}, {"q_ues": 100})),
}


def preset_spec(name: str, overrides: dict | None = None,
                seed: int | None = None) -> ExperimentSpec:
    """A preset's spec with the overrides and seed applied.

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
    if seed is not None:
        spec = dataclasses.replace(spec, seed=int(seed))
    return spec


def save_run(out_dir, figure: str, spec: ExperimentSpec, rows, runs) -> None:
    """Write a figure's CSV and its manifest entry into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(rows, out / f"{figure}.csv")
    write_manifest(out / "manifest.json", figure, spec, runs)


def run_preset(name: str, overrides: dict | None = None, seed: int | None = None,
               out_dir=None, analytic_only: bool = False) -> list[ResultRow]:
    """Run one figure preset, optionally writing its CSV and manifest entry."""
    spec = preset_spec(name, overrides, seed)
    rows, runs = run_spec(spec, name, analytic_only, PRESETS[name].variants)
    if out_dir is not None:
        save_run(out_dir, name, spec, rows, runs)
    return rows
