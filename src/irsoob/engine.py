"""Slot-level Monte Carlo of two operators sharing one reflector.

Each trial runs `slots` time slots: fading is redrawn every slot, the in-band
base station serves its UEs round-robin and points the reflector at whichever
UE it is serving, and the out-of-band (OOB) base station schedules its own
UEs over the effective channels that result. The OOB side never influences
the reflector.

Trials are vectorized over slots. Only channels that can influence an output
are materialized (the in-band side draws just the served UE's fading each
slot, which is distribution-identical to drawing everyone's). Independent
trials take independent generators from spawn_rngs, so results do not depend
on execution order.

The sub6 OOB gains are drawn from their exact reduced law. The reflector's
phases are set by the in-band channels alone, so theta_n f_n has the law of
f_n, and given G = ||f||^2 / beta_f ~ Gamma(N, 1) each UE's reflected sum is
CN(0, beta_r,q G), independently across UEs. One Gamma draw per slot (shared
by every UE, which is what correlates them) and two complex normals per UE
replace the N per-element channels of each UE. Only a caller that asks for
the matched-reflector ceiling (`want_bf`) gets the dense per-element path,
because that ceiling needs every |f_n||g_qn|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (LinkBudget, complex_normal, draw_ue_positions, link_budget,
                       sample_mmwave, sample_sub6)
from .config import ExperimentSpec
from .irs import unit_phase
from .kernels import grid_index

# slot-chunk sizing so scratch arrays stay around tens of MB
_CHUNK_ELEMS = 1 << 21

# UE location used when a spec asks for statistically identical UEs
IID_UE_POINT = (1000.0, 1000.0)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent generators for trials 0..count-1, reproducible for a given seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _chunk_slices(slots: int, width: int):
    width = max(64, width)
    for start in range(0, slots, width):
        yield slice(start, min(start + width, slots))


@dataclass
class TrialData:
    """Per-slot records from one trial, before any scheduling decision on the OOB side."""

    se_inband: np.ndarray           # (slots,) SE of the round-robin-served in-band UE
    inband_gain: np.ndarray         # (slots,) channel gain behind se_inband
    rates_oob: np.ndarray           # (slots, Q) per-UE OOB SE
    gain_irs: np.ndarray            # (slots, Q) OOB channel gain, reflector present
    gain_noirs: np.ndarray          # (slots, Q) OOB channel gain, direct path only
    bf_gain: np.ndarray | None = None   # (slots, Q) OOB gain if the reflector were matched per UE
    theta: np.ndarray | None = None     # (slots, N) reflector configs, kept on request


def sub6_trial(rng: np.random.Generator, n_elements: int, budget_x: LinkBudget,
               budget_y: LinkBudget, tx_snr: float, slots: int,
               want_bf: bool = False, keep_theta: bool = False) -> TrialData:
    """One Rayleigh-fading trial.

    The in-band gain uses the coherent identity (|h_d| + sum_n |f_n g_n|)^2,
    which is exactly what the phase-aligned reflector achieves.

    The OOB side draws, per slot, G ~ Gamma(N, 1) and then, per UE,
    h_d ~ CN(0, beta_d) and the reflected sum ~ CN(0, beta_r G): the exact
    law of h_d + sum_n theta_n f_n g_qn, because theta depends on the
    in-band channels only. With want_bf the per-element OOB channels are
    drawn instead and the in-band phases applied to them, since the matched
    ceiling (|h_d| + sum_n |f_n||g_qn|)^2 needs each element. theta is only
    built when want_bf or keep_theta asks for it.
    """
    k_ues = budget_x.n_ues
    k_served = np.arange(slots) % k_ues

    h_dx = complex_normal(rng, budget_x.beta_d[k_served], (slots,))
    f_x = complex_normal(rng, budget_x.beta_f, (slots, n_elements))
    g_x = complex_normal(rng, budget_x.beta_g[k_served][:, None], (slots, n_elements))

    amp_x = np.abs(h_dx) + np.abs(f_x * g_x).sum(axis=1)
    inband_gain = amp_x ** 2
    se_inband = np.log2(1.0 + inband_gain * tx_snr)
    theta = None
    if want_bf or keep_theta:
        theta = np.exp(1j * (np.angle(h_dx)[:, None] - np.angle(f_x) - np.angle(g_x)))

    q_ues = budget_y.n_ues
    if want_bf:
        gain_irs = np.empty((slots, q_ues))
        gain_noirs = np.empty((slots, q_ues))
        bf_amp = np.empty((slots, q_ues))
        width = _CHUNK_ELEMS // max(1, q_ues * max(n_elements, 1))
        for sl in _chunk_slices(slots, width):
            y = sample_sub6(rng, n_elements, budget_y, slots=sl.stop - sl.start)
            eff = y.h_d + np.einsum("sn,sqn->sq", theta[sl] * y.f, y.g)
            gain_irs[sl] = np.abs(eff) ** 2
            gain_noirs[sl] = np.abs(y.h_d) ** 2
            bf_amp[sl] = np.abs(y.h_d) + np.einsum("sn,sqn->sq", np.abs(y.f), np.abs(y.g))
        bf_gain = bf_amp ** 2
    else:
        power = rng.standard_gamma(n_elements, size=slots)   # ||f||^2 / beta_f
        h_d = complex_normal(rng, budget_y.beta_d, (slots, q_ues))
        reflected = complex_normal(rng, budget_y.beta_r * power[:, None], (slots, q_ues))
        gain_irs = np.abs(h_d + reflected) ** 2
        gain_noirs = np.abs(h_d) ** 2
        bf_gain = None
    rates_oob = np.log2(1.0 + gain_irs * tx_snr)
    return TrialData(se_inband=se_inband, inband_gain=inband_gain, rates_oob=rates_oob,
                     gain_irs=gain_irs, gain_noirs=gain_noirs, bf_gain=bf_gain,
                     theta=theta if keep_theta else None)


def mmwave_los_trial(rng: np.random.Generator, n_elements: int, budget_x: LinkBudget,
                     budget_y: LinkBudget, tx_snr: float, slots: int, l_oob: int,
                     keep_theta: bool = False) -> TrialData:
    """One sparse-channel trial with single-path in-band UEs.

    The reflector steers its whole aperture at the served UE's cascaded
    angle. On the resolvable grid, an OOB path contributes only when it sits
    exactly on the steered angle, so the OOB sum collapses to the matched
    paths.
    """
    x = sample_mmwave(rng, n_elements, 1, 1, budget_x, slots=slots)
    y = sample_mmwave(rng, n_elements, 1, l_oob, budget_y, slots=slots)

    k_ues = budget_x.n_ues
    rows = np.arange(slots)
    k_served = rows % k_ues
    g_x = x.cascade_gains[rows, k_served, 0]
    h_dx = x.h_d[rows, k_served]

    amp_x = np.abs(h_dx) + n_elements * np.abs(g_x)
    inband_gain = amp_x ** 2
    se_inband = np.log2(1.0 + inband_gain * tx_snr)
    u = unit_phase(h_dx * np.conj(g_x))

    idx_x = grid_index(x.cascade_angles[:, 0], n_elements)  # (K,)
    idx_y = grid_index(y.cascade_angles, n_elements)        # (Q, L)
    match = idx_y[None, :, :] == idx_x[k_served][:, None, None]
    l_paths = y.l_paths
    eff = y.h_d + (n_elements / math.sqrt(l_paths)) * u[:, None] \
        * np.where(match, y.cascade_gains, 0.0).sum(axis=2)
    gain_irs = np.abs(eff) ** 2
    gain_noirs = np.abs(y.h_d) ** 2
    theta = None
    if keep_theta:
        steer = np.exp(-1j * np.pi * np.outer(x.cascade_angles[:, 0][k_served], np.arange(n_elements)))
        theta = u[:, None] * steer
    return TrialData(se_inband=se_inband, inband_gain=inband_gain,
                     rates_oob=np.log2(1.0 + gain_irs * tx_snr),
                     gain_irs=gain_irs, gain_noirs=gain_noirs, theta=theta)


def mmwave_nlos_trial(rng: np.random.Generator, n_elements: int, budget_x: LinkBudget,
                      budget_y: LinkBudget, tx_snr: float, slots: int, l1: int, l2: int,
                      keep_theta: bool = False) -> TrialData:
    """One sparse-channel trial with the reflector phase-matched to all of the served UE's paths.

    The per-element matched sum v and the responses at every grid angle are
    FFT pairs, so each slot costs O(N log N) regardless of path count.
    """
    x = sample_mmwave(rng, n_elements, l1, l2, budget_x, slots=slots)
    y = sample_mmwave(rng, n_elements, l1, l2, budget_y, slots=slots)
    l_x = x.l_paths
    l_y = y.l_paths

    k_ues = budget_x.n_ues
    rows = np.arange(slots)
    k_served = rows % k_ues
    g_x = x.cascade_gains[rows, k_served]    # (slots, L_X)
    h_dx = x.h_d[rows, k_served]
    idx_x = grid_index(x.cascade_angles, n_elements)[k_served]  # (slots, L_X)
    idx_y = grid_index(y.cascade_angles, n_elements)            # (Q, L_Y)

    sgn = 1.0 - 2.0 * (np.arange(n_elements) % 2)
    q_ues = budget_y.n_ues
    inband_gain = np.empty(slots)
    gain_irs = np.empty((slots, q_ues))
    gain_noirs = np.empty((slots, q_ues))
    theta_all = np.empty((slots, n_elements), dtype=complex) if keep_theta else None

    width = _CHUNK_ELEMS // max(1, n_elements)
    for sl in _chunk_slices(slots, width):
        span = sl.stop - sl.start
        sub = np.arange(span)
        # scatter conj gains onto the angle grid; on-grid angles make this exact
        s = np.zeros((span, n_elements), dtype=complex)
        np.add.at(s, (sub[:, None], idx_x[sl]), np.conj(g_x[sl]))
        v = sgn * np.fft.fft(s, axis=1)
        theta = np.exp(1j * np.angle(h_dx[sl]))[:, None] * unit_phase(v)
        if keep_theta:
            theta_all[sl] = theta
        resp = np.fft.ifft(sgn * theta, axis=1)   # adot(grid angle m)^H theta, all m at once

        eff_x = h_dx[sl] + (n_elements / math.sqrt(l_x)) \
            * (g_x[sl] * resp[sub[:, None], idx_x[sl]]).sum(axis=1)
        inband_gain[sl] = np.abs(eff_x) ** 2
        # OOB responses: gather each UE path's grid response
        pick = resp[sub[:, None, None], idx_y[None, :, :]]
        eff_y = y.h_d[sl] + (n_elements / math.sqrt(l_y)) \
            * (y.cascade_gains[sl] * pick).sum(axis=2)
        gain_irs[sl] = np.abs(eff_y) ** 2
        gain_noirs[sl] = np.abs(y.h_d[sl]) ** 2
    se_inband = np.log2(1.0 + inband_gain * tx_snr)
    return TrialData(se_inband=se_inband, inband_gain=inband_gain,
                     rates_oob=np.log2(1.0 + gain_irs * tx_snr),
                     gain_irs=gain_irs, gain_noirs=gain_noirs, theta=theta_all)


def inband_gain_samples_sub6(rng: np.random.Generator, n_elements: int, beta_r: float,
                             beta_d: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Channel gains a phase-aligned reflector gives one Rayleigh UE.

    Returns (gain, gain_direct): the aligned gain (|h_d| + sum_n |f_n g_n|)^2
    and the reflector-free gain |h_d|^2 from the same draws. Only the product
    of the two per-hop variances matters for |f_n g_n|, so a single beta_r
    parametrizes the cascaded hop.
    """
    gain = np.empty(count)
    gain_direct = np.empty(count)
    width = _CHUNK_ELEMS // max(1, n_elements)
    for sl in _chunk_slices(count, width):
        m = sl.stop - sl.start
        h_d = np.abs(complex_normal(rng, beta_d, (m,)))
        f = np.abs(complex_normal(rng, beta_r, (m, n_elements)))
        g = np.abs(complex_normal(rng, 1.0, (m, n_elements)))
        amp = h_d + (f * g).sum(axis=1)
        gain[sl] = amp ** 2
        gain_direct[sl] = h_d ** 2
    return gain, gain_direct


# ---------------------------------------------------------------------------
# scheduling

def schedule_rates(rates: np.ndarray, scheduler: str, tau: float = 1000.0) -> np.ndarray:
    """Served-UE index per slot for a (slots, Q) rate matrix.

    PF warm-starts its averages from the first slot's rates (any positive
    start works; this one makes slot 0 a fair tie) and uses the standard
    R_q/T_q metric. After each slot every average decays by 1 - 1/tau and
    only the served UE banks rate/tau. MR serves the highest rate; ties go
    to the lowest index, in MR and PF alike.
    """
    slots, q_ues = rates.shape
    if scheduler == "rr":
        return np.arange(slots) % q_ues
    if scheduler == "mr":
        return np.argmax(rates, axis=1)
    if scheduler != "pf":
        raise ValueError(f"unknown scheduler {scheduler!r}")
    decay = 1.0 - 1.0 / tau
    averages = np.maximum(rates[0], 1e-300)
    served = np.empty(slots, dtype=int)
    for t in range(slots):
        q_star = int(np.argmax(rates[t] / averages))
        served[t] = q_star
        averages *= decay
        averages[q_star] += rates[t, q_star] / tau
    return served


# ---------------------------------------------------------------------------
# empirical distributions

def empirical_ccdf(samples, x):
    """Fraction of samples strictly above x; vectorized in x."""
    s = np.sort(np.asarray(samples).ravel())
    out = 1.0 - np.searchsorted(s, x, side="right") / len(s)
    return float(out) if np.ndim(x) == 0 else out


def empirical_outage(samples, rho):
    """Fraction of samples strictly below rho; vectorized in rho."""
    s = np.sort(np.asarray(samples).ravel())
    out = np.searchsorted(s, rho, side="left") / len(s)
    return float(out) if np.ndim(rho) == 0 else out


@dataclass(frozen=True)
class DominanceReport:
    """Grid comparison of two empirical tails: does `with` dominate `without`?"""

    min_diff: float
    ks_one_sided: float
    eps_stat: float
    passed: bool


def dominance_test(samples_with, samples_without, grid) -> DominanceReport:
    """Check CCDF_with >= CCDF_without on the grid, up to two-sample binomial noise.

    The noise floor is the sum of the two one-sample DKW deviations at 99.7%
    confidence, so a PASS means no violation larger than ~3 sigma of the
    estimator.
    """
    grid = np.asarray(grid, dtype=float)
    cw = empirical_ccdf(samples_with, grid)
    cwo = empirical_ccdf(samples_without, grid)
    diff = cw - cwo
    delta = 0.003
    eps = (math.sqrt(math.log(2.0 / delta) / (2 * len(np.ravel(samples_with))))
           + math.sqrt(math.log(2.0 / delta) / (2 * len(np.ravel(samples_without)))))
    min_diff = float(diff.min())
    return DominanceReport(min_diff=min_diff,
                           ks_one_sided=float(max(0.0, -min_diff)),
                           eps_stat=eps, passed=min_diff >= -eps)


# ---------------------------------------------------------------------------
# one protocol trial

def budgets_for(spec: ExperimentSpec, rng: np.random.Generator,
                 ue_positions: tuple[np.ndarray, np.ndarray] | None):
    if spec.iid_ues:
        pos_x = np.tile(IID_UE_POINT, (spec.k_ues, 1))
        pos_y = np.tile(IID_UE_POINT, (spec.q_ues, 1))
    elif ue_positions is not None:
        pos_x, pos_y = ue_positions
    else:
        pos_x = draw_ue_positions(rng, spec.geometry, spec.k_ues, spec.path_loss.d0)
        pos_y = draw_ue_positions(rng, spec.geometry, spec.q_ues, spec.path_loss.d0)
    budget_x = link_budget(spec.geometry, spec.path_loss, spec.geometry.bs_inband, pos_x)
    budget_y = link_budget(spec.geometry, spec.path_loss, spec.geometry.bs_oob, pos_y)
    return (pos_x, pos_y), budget_x, budget_y


def run_trial(spec: ExperimentSpec, rng: np.random.Generator, n_elements: int,
              tx_snr: float, budget_x: LinkBudget, budget_y: LinkBudget,
              want_bf: bool = False, keep_theta: bool = False) -> TrialData:
    """One trial in the spec's regime at explicit sweep coordinates.

    Aborts on any non-finite gain, so no run can write inf or NaN cells.
    """
    if spec.regime == "sub6":
        data = sub6_trial(rng, n_elements, budget_x, budget_y, tx_snr, spec.slots,
                          want_bf=want_bf, keep_theta=keep_theta)
    elif spec.regime == "mmwave_los":
        data = mmwave_los_trial(rng, n_elements, budget_x, budget_y, tx_snr, spec.slots,
                                l_oob=spec.l1 * spec.l2, keep_theta=keep_theta)
    elif spec.regime == "mmwave_nlos":
        data = mmwave_nlos_trial(rng, n_elements, budget_x, budget_y, tx_snr, spec.slots,
                                 spec.l1, spec.l2, keep_theta=keep_theta)
    else:
        raise ValueError(f"unknown regime {spec.regime!r}")
    if not (np.all(np.isfinite(data.inband_gain)) and np.all(np.isfinite(data.gain_irs))):
        raise ArithmeticError("non-finite channel gain in simulation")
    return data
