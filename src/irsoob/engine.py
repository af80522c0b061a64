"""Slot-level Monte Carlo of two operators sharing one reflector.

Each trial runs `slots` time slots: fading is redrawn every slot, the in-band
base station serves its UEs round-robin and points the reflector at whichever
UE it is serving, and the out-of-band (OOB) base station schedules its own
UEs over the effective channels that result. The OOB side never influences
the reflector.

A trial's TrialData holds channel gains only. Every statistic downstream
(sum-SE, outage, gain CCDFs, dominance) depends on the SNR only through
log2(1 + snr * gain), so the experiment layer applies each SNR of a sweep to
one set of gains.

Trials are vectorized over slots. Independent trials take independent
generators from spawn_rngs, so results do not depend on execution order, and
the experiment layer runs a sweep point's trials concurrently on a thread
pool. The nlos trial and the aligned-gain sampler run their slot loops in the
chunks of one rule, whose width depends on N only, never on the worker count,
so every output is the same for any number of workers; each reuses one chunk
scratch. The nlos trial draws nothing inside its loop, so its chunk width
moves no bit of any output. The aligned-gain sampler draws chunk by chunk, so
the width decides which row an exponential lands in, but not how many are
drawn: no later draw moves. The sub6 and nlos in-band sides draw just the
served UE's fading each slot, which is distribution-identical to drawing
everyone's; sub6 draws it only as exponential magnitudes, since its aligned
gain discards every phase. The LOS trial still draws every in-band UE's
complex normals each slot and keeps the served UE's: its out-of-band angles
are drawn after them, so dropping the unserved UEs' draws would move those
angles. The sparse path angles are drawn as integer bins of the resolvable
grid, so matching a path to the steered beam, or gathering its response, is
an integer compare or index.

A sub6 trial also returns its in-band magnitude draws (E, S). The experiment
layer applies the aligned-gain law to them: with each OOB UE's betas for
pf_gap's matched-reflector ceiling, with UE 0's for the in-band outage and
offset rows. The draws are i.i.d. over slots and independent of every OOB
gain, so the joint law of (mean ceiling, PF-served SE) is a separate draw's.

Every regime's OOB gains follow one rule. The reflector's phases are set by
the in-band side alone, so given them the reflected sum R that reaches OOB UE
q is CN(0, v_q), independent across slots and of the direct link h_d, and
circular: dropping h_d's phase keeps the joint law of |h_d + R|^2 and
|h_d|^2. Each trial returns (in-band gain, v, (E, S) or None in mmWave),
with v its variance (slots, Q), and `run_trial` then draws that law once, as
the trial generator's last draw, with `_oob_gains`. Given v, h_d + R is
CN(0, beta_d + v), so the gain with the reflector is exactly
(beta_d + v) Exp(1): one exponential per (slot, UE). Then, given OOB UE 0's
gain, `_oob_gains` draws UE 0's direct-only gain on the same channel, the
one UE whose offset the experiment layer compares; drawn last, that moves no
bit of the gain with the reflector, of an angle or of the in-band side.
Every trial makes both draws, whatever outputs its spec asks for.
`run_trial` builds the trial's one TrialData. Each regime's v:
- sub6: beta_r,q G, with G = ||f||^2 / beta_f ~ Gamma(N, 1) drawn per slot
  and shared by the UEs, which is what correlates them; it replaces the N
  per-element channels of each UE.
- mmWave LOS: the reflector responds only on the steered grid angle, so of
  UE q's L cascaded paths just the m[k, q] on in-band UE k's angle reach an
  output, and v = (N^2 / L) beta_f X m beta_g,q with one feeder power
  X = |gamma_1|^2 / beta_f ~ Exp(1) per slot, shared by the UEs. An
  unmatched UE has v = 0, and there UE 0's two gains are the same bits.
- nlos: a phase-matched configuration responds on every grid angle, but the
  UE-side path gains are i.i.d., so given the shared feeder gains gamma_1
  and the responses, v = (N^2 / L) beta_g,q P_q, where P_q sums over the
  UE's paths j the power |sum_i gamma_1,i r_ij|^2 that reaches it. The
  served UE's direct phase only turns theta by a global phase, which no gain
  and no P_q sees, so its direct link is drawn as a magnitude too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import LinkBudget, complex_normal, draw_ue_positions, link_budget, mmwave_angle_bins
from .config import ExperimentSpec
from .irs import unit_phase

# slot-chunk sizing: a chunk holds about this many per-element entries, so a
# trial's scratch stays at a few MB and concurrent trials (one per worker)
# add little to the peak
_CHUNK_ELEMS = 1 << 17


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent generators for trials 0..count-1, reproducible for a given seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _chunk_slices(rows: int, n_elements: int) -> list[slice]:
    """Row chunks of a (rows, N) draw or loop, the last one maybe short: each
    holds about _CHUNK_ELEMS entries, a width set by N alone."""
    width = max(1, _CHUNK_ELEMS // max(1, n_elements))
    return [slice(start, min(start + width, rows)) for start in range(0, rows, width)]


@dataclass
class TrialData:
    """Per-slot channel gains from one trial, before any scheduling decision on the OOB side.

    Every rate, outage and distribution statistic is a function of these
    gains, so the trials take no SNR. The experiment layer stacks a sweep
    point's trials into one TrialData whose arrays carry a leading trials
    axis: (trials, slots) and (trials, slots, Q). gain_noirs is OOB UE 0's
    direct-only gain, drawn given its gain_irs (`_oob_gains`).
    """

    inband_gain: np.ndarray         # (slots,) gain of the round-robin-served in-band UE
    gain_irs: np.ndarray            # (slots, Q) OOB channel gain, reflector present
    gain_noirs: np.ndarray          # (slots,) OOB UE 0's channel gain, direct path only
    aligned: tuple[np.ndarray, np.ndarray] | None = None   # (E, S) per slot, sub6 only


def _aligned_draws(rng: np.random.Generator, rows: int,
                   n_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the magnitudes behind a phase-aligned reflector's gain: (E, S), one of each per row.

    |h_d|^2 = beta_d E and |f_n g_n|^2 = beta_r E_1 E_2 with E ~ Exp(1), and
    S = sum_n sqrt(E_1 E_2). Drawn per chunk of _chunk_slices: E, then the
    (span, N) E_1 and E_2 into one scratch block that every chunk reuses.
    """
    chunks = _chunk_slices(rows, n_elements)
    exp_direct, shape = np.empty((2, rows))
    scratch = np.empty((2, chunks[0].stop, n_elements))
    for sl in chunks:
        e_1, e_2 = scratch[:, :sl.stop - sl.start]
        rng.standard_exponential(out=exp_direct[sl])
        rng.standard_exponential(out=e_1)
        rng.standard_exponential(out=e_2)
        shape[sl] = np.sqrt(np.multiply(e_1, e_2, out=e_1), out=e_1).sum(axis=-1)
    return exp_direct, shape


def _aligned_gain(exp_direct, shape, beta_d, beta_r):
    """The aligned gain (sqrt(beta_d E) + sqrt(beta_r) S)^2 of drawn (E, S); broadcasts."""
    return (np.sqrt(beta_d * exp_direct) + np.sqrt(beta_r) * shape) ** 2


def _oob_gains(rng: np.random.Generator, beta_d,
               variance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw the OOB gains given the reflected variance: (gain_irs, UE 0's gain_noirs).

    gain_irs = (beta_d + variance) Exp(1) over variance's (slots, Q) shape.
    Then UE 0's |h_d|^2, drawn given its gain_irs = |y|^2, y = h_d + R: h_d
    is CN(a y, a v) with v its variance and a = beta_d,0 / (beta_d,0 + v),
    and y's phase drops out, so gain_noirs = |a sqrt(gain_irs) + w|^2,
    w ~ CN(0, a v), two normals per slot whatever v is. Where v is 0, h_d is
    all of y, and gain_noirs is gain_irs selected bit for bit, not its
    rounded |sqrt|^2.
    """
    gain_irs = (beta_d + variance) * rng.standard_exponential(variance.shape)
    gain_0, variance_0 = gain_irs[:, 0], variance[:, 0]
    share = beta_d[0] / (beta_d[0] + variance_0)
    h_d = complex_normal(rng, share * variance_0, len(variance_0))
    h_d.real += share * np.sqrt(gain_0)
    return gain_irs, np.where(variance_0 > 0, h_d.real ** 2 + h_d.imag ** 2, gain_0)


def sub6_trial(rng: np.random.Generator, n_elements: int, budget_x: LinkBudget,
               budget_y: LinkBudget, slots: int):
    """One Rayleigh-fading trial: per slot (E, S), then G ~ Gamma(N, 1).

    Returns (in-band gain, variance, (E, S)). The in-band gain is the aligned
    gain of (E, S) with the served UE's betas, and the variance is the OOB
    reflected variance beta_r G (slots, Q), from which `run_trial` then
    draws the OOB gains (module docstring).
    """
    k_served = np.arange(slots) % budget_x.n_ues
    exp_direct, shape = _aligned_draws(rng, slots, n_elements)
    inband_gain = _aligned_gain(exp_direct, shape, budget_x.beta_d[k_served],
                                budget_x.beta_r[k_served])
    power = rng.standard_gamma(n_elements, size=slots)   # ||f||^2 / beta_f
    return inband_gain, budget_y.beta_r * power[:, None], (exp_direct, shape)


def mmwave_los_trial(rng: np.random.Generator, n_elements: int, budget_x: LinkBudget,
                     budget_y: LinkBudget, slots: int, l_oob: int):
    """One sparse-channel trial with single-path in-band UEs: (in-band gain, variance, None).

    The reflector steers its whole aperture at the served UE's cascaded
    angle, so the in-band gain is (|h_d| + N |gamma_1 gamma_2|)^2. Draws, in
    order: the in-band angle bins; per slot the feeder gain and every in-band
    UE's UE-side gain and direct link, of which only the served UE's are
    kept; the OOB angle bins.

    On the resolvable grid an OOB path contributes only when it sits exactly
    on the steered angle, so UE q's sum collapses to its m[k, q] paths on
    in-band UE k's angle (each copy of a duplicated path counts). Then the
    feeder power X ~ Exp(1) per slot, and the reflected variance
    (N^2 / L) beta_f X m beta_g,q, from which `run_trial` then draws the OOB
    gains (module docstring): the aligning phasor u rotates out of R's
    circular law like h_d's phase.
    """
    k_ues = budget_x.n_ues
    k_served = np.arange(slots) % k_ues
    bins_x = mmwave_angle_bins(rng, n_elements, 1, 1, k_ues)[:, 0]        # (K,)
    served = (np.arange(slots), k_served)
    feeder_x = complex_normal(rng, budget_x.beta_f, slots)
    g_x = feeder_x * complex_normal(rng, budget_x.beta_g, (slots, k_ues))[served]
    h_dx = complex_normal(rng, budget_x.beta_d, (slots, k_ues))[served]
    bins_y = mmwave_angle_bins(rng, n_elements, 1, l_oob, budget_y.n_ues)      # (Q, L)
    inband_gain = (np.abs(h_dx) + n_elements * np.abs(g_x)) ** 2

    matches = (bins_y[None, :, :] == bins_x[:, None, None]).sum(axis=2)  # (K, Q)
    # R's variance per unit feeder power, for each (served UE k, OOB UE q)
    weight = (n_elements ** 2 / l_oob) * budget_y.beta_f * matches * budget_y.beta_g
    feeder_power = rng.standard_exponential(slots)                       # X
    return inband_gain, feeder_power[:, None] * weight[k_served], None


def mmwave_nlos_trial(rng: np.random.Generator, n_elements: int, budget_x: LinkBudget,
                      budget_y: LinkBudget, slots: int, l1: int, l2: int):
    """One sparse-channel trial with the reflector phase-matched to all of the served UE's paths.

    Returns (in-band gain, variance, None). The per-element matched sum v
    and the responses r at every grid angle are FFT pairs, so each slot
    costs O(N log N) regardless of path count. The chunk loop draws nothing.
    Before it: both operators' angle bins; per slot the served in-band UE's
    feeder (l1,) and UE-side (l2,) gains and its direct power
    |h_d|^2 = beta_d Exp(1), so theta = v / |v|; the OOB feeder gains
    gamma_1 (l1,), shared by the UEs. It yields the reflected variance
    (N^2 / L) beta_g,q P_q, from which `run_trial` then draws the OOB gains
    (module docstring), where P_q = sum_j |sum_i gamma_1,i r[m_qij]|^2; a
    duplicated grid angle counts once per copy.

    When the served UE's bins lie on one coset m0 + gZ (g = gcd of their
    differences with N, g > 1), theta is a tone times a sequence of period
    N / g, so r vanishes off that coset, and an OOB UE whose bins all lie off
    it has P_q = 0 in the model, which the FFTs return as exact 0.0 or as a
    rounding residue. `_oob_gains` draws as many values either way.
    """
    bins_x = mmwave_angle_bins(rng, n_elements, l1, l2, budget_x.n_ues)      # (K, L)
    bins_y = mmwave_angle_bins(rng, n_elements, l1, l2, budget_y.n_ues)      # (Q, L)
    l_paths = l1 * l2
    k_served = np.arange(slots) % budget_x.n_ues
    bs_x = complex_normal(rng, budget_x.beta_f, (slots, l1))
    ue_x = complex_normal(rng, budget_x.beta_g[k_served, None], (slots, l2))
    direct_x = budget_x.beta_d[k_served] * rng.standard_exponential(slots)
    g_x = (bs_x[:, :, None] * ue_x[:, None, :]).reshape(slots, l_paths)
    q_ues = budget_y.n_ues
    gamma_1 = complex_normal(rng, budget_y.beta_f, (slots, l1))

    idx_x = bins_x[k_served]                                    # (slots, L)
    # UE q's path (i, j) sits in column q * l2 + j of feeder path i's block
    cols_y = bins_y.reshape(q_ues, l1, l2).transpose(1, 0, 2).reshape(l1, q_ues * l2)
    scale = n_elements / math.sqrt(l_paths)
    inband_gain = np.empty(slots)
    power = np.empty((slots, q_ues))    # P_q

    chunks = _chunk_slices(slots, n_elements)
    # per-trial scratch, reused by every chunk: grid holds the scatter, then
    # theta; spectrum holds the FFT, then the responses. One block, not two
    # arrays: once a block this size has been freed, glibc serves the next
    # trial's from pages its heap kept, while two half-size arrays would go
    # back to the OS after every trial and fault in again
    grid, spectrum = np.empty((2, chunks[0].stop, n_elements), dtype=complex)
    for sl in chunks:
        span = sl.stop - sl.start
        # scatter conj gains onto the angle grid; on-grid angles make this exact
        s = grid[:span]
        s.fill(0)
        np.add.at(s, (np.arange(span)[:, None], idx_x[sl]), np.conj(g_x[sl]))
        # v and the responses both carry the grid offset's sign (-1)^n; sign
        # flips are exact, so the two cancel and theta (-1)^n = v / |v|
        v = np.fft.fft(s, axis=1, out=spectrum[:span])
        # the served UE's sum_l g_l r[m_l] is (1/N) sum_n theta_n conj(v_n) = mean |v|
        inband_gain[sl] = (np.sqrt(direct_x[sl]) + scale * np.abs(v).mean(axis=1)) ** 2
        theta = unit_phase(v, out=s)
        # adot(grid angle m)^H theta, all m at once
        resp = np.fft.ifft(theta, axis=1, out=spectrum[:span])
        a = gamma_1[sl, 0, None] * resp[:, cols_y[0]]          # (span, Q * l2)
        for i in range(1, l1):
            a += gamma_1[sl, i, None] * resp[:, cols_y[i]]
        power[sl] = (np.abs(a) ** 2).reshape(span, q_ues, l2).sum(axis=2)
    return inband_gain, scale ** 2 * budget_y.beta_g * power, None


# ---------------------------------------------------------------------------
# scheduling

def schedule_rates(rates: np.ndarray, scheduler: str, tau: float = 1000.0) -> np.ndarray:
    """Served-UE index per slot for a (..., slots, Q) rate array, one schedule per leading index.

    PF warm-starts its averages from the first slot's rates (any positive
    start works; this one makes slot 0 a fair tie) and uses the standard
    R_q/T_q metric. After each slot every average decays by 1 - 1/tau and
    only the served UE banks rate/tau. MR serves the highest rate; ties go
    to the lowest index, in MR and PF alike, and with one UE both return
    zeros without a loop. PF runs one loop over slots for every schedule at
    once, each with its own averages, so a schedule is the same bits
    whatever else is batched with it; the experiment layer batches a whole
    run's PF rates of one (slots, Q, tau) shape, one rate set per
    (sweep point, SNR) whichever outputs read it. The loop reads a
    slot-major (slots, batch, Q) copy of the rates, made only if `rates` is
    not already a view of one, reuses its metric and index buffers, and
    banks each served rate through one flat index. At tau = 1 every unserved
    average decays to 0, so its metric is inf by design; a UE that offers
    rate 0 there reads 0/0, which the metric sets to 0, since it banks
    nothing. Neither division warns.
    """
    *lead, slots, q_ues = rates.shape
    if scheduler == "rr":
        return np.broadcast_to(np.arange(slots) % q_ues, (*lead, slots))
    if scheduler not in ("mr", "pf"):
        raise ValueError(f"unknown scheduler {scheduler!r}")
    if q_ues == 1:
        return np.zeros((*lead, slots), dtype=np.intp)
    if scheduler == "mr":
        return np.argmax(rates, axis=-1)
    by_slot = np.ascontiguousarray(np.moveaxis(rates.reshape(-1, slots, q_ues), 1, 0))
    batch = by_slot.shape[1]
    decay = 1.0 - 1.0 / tau
    averages = np.maximum(by_slot[0], 1e-300)
    flat_averages = averages.reshape(-1)
    metric = np.empty_like(averages)
    row_start = np.arange(batch) * q_ues
    pick = np.empty(batch, dtype=np.intp)
    served = np.empty((slots, batch), dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, offered in enumerate(by_slot):
            np.divide(offered, averages, out=metric)
            np.fmax(metric, 0.0, out=metric)   # a 0/0 NaN reads 0, not argmax's first pick
            metric.argmax(axis=1, out=served[t])
            averages *= decay
            np.add(row_start, served[t], out=pick)
            flat_averages[pick] += offered.reshape(-1)[pick] / tau
    return np.ascontiguousarray(served.T).reshape(*lead, slots)


# ---------------------------------------------------------------------------
# empirical distributions

def empirical_ccdf(samples, x):
    """Fraction of samples strictly above x; vectorized in x."""
    s = np.sort(np.asarray(samples).ravel())
    return 1.0 - np.searchsorted(s, x, side="right") / len(s)


def empirical_outage(samples, rho):
    """Fraction of samples strictly below rho; vectorized in rho."""
    s = np.sort(np.asarray(samples).ravel())
    return np.searchsorted(s, rho, side="left") / len(s)


def dominance_test(samples_with, samples_without, grid) -> tuple[float, float]:
    """(min_diff, eps_stat): the smallest CCDF_with - CCDF_without on the grid, and its noise floor.

    The floor is the sum of the two one-sample DKW deviations at 99.7%
    confidence, so min_diff >= -eps_stat means `with` dominates `without` up
    to ~3 sigma of the estimator.
    """
    grid = np.asarray(grid, dtype=float)
    cw = empirical_ccdf(samples_with, grid)
    cwo = empirical_ccdf(samples_without, grid)
    diff = cw - cwo
    delta = 0.003
    eps = (math.sqrt(math.log(2.0 / delta) / (2 * len(np.ravel(samples_with))))
           + math.sqrt(math.log(2.0 / delta) / (2 * len(np.ravel(samples_without)))))
    return float(diff.min()), eps


# ---------------------------------------------------------------------------
# one protocol trial

def budgets_for(spec: ExperimentSpec, rng: np.random.Generator):
    pos_x = draw_ue_positions(rng, spec.geometry, spec.k_ues, spec.path_loss.d0)
    pos_y = draw_ue_positions(rng, spec.geometry, spec.q_ues, spec.path_loss.d0)
    budget_x = link_budget(spec.geometry, spec.path_loss, spec.geometry.bs_inband, pos_x)
    budget_y = link_budget(spec.geometry, spec.path_loss, spec.geometry.bs_oob, pos_y)
    return (pos_x, pos_y), budget_x, budget_y


def run_trial(spec: ExperimentSpec, rng: np.random.Generator, n_elements: int,
              budget_x: LinkBudget, budget_y: LinkBudget) -> TrialData:
    """One trial in the spec's regime, then its OOB gains, the trial generator's last draw.

    The OOB gains are every UE's gain with the reflector and UE 0's
    direct-only gain on the same channel (`_oob_gains`). Aborts on a
    non-finite in-band gain or reflected variance, before any OOB
    arithmetic, so no run writes inf or NaN.
    """
    if spec.regime == "sub6":
        trial = sub6_trial(rng, n_elements, budget_x, budget_y, spec.slots)
    elif spec.regime == "mmwave_los":
        trial = mmwave_los_trial(rng, n_elements, budget_x, budget_y, spec.slots,
                                 l_oob=spec.l1 * spec.l2)
    elif spec.regime == "mmwave_nlos":
        trial = mmwave_nlos_trial(rng, n_elements, budget_x, budget_y, spec.slots,
                                  spec.l1, spec.l2)
    else:
        raise ValueError(f"unknown regime {spec.regime!r}")
    inband_gain, variance, aligned = trial
    if not (np.all(np.isfinite(inband_gain)) and np.all(np.isfinite(variance))):
        raise ArithmeticError("non-finite channel gain in simulation")
    return TrialData(inband_gain, *_oob_gains(rng, budget_y.beta_d, variance), aligned)
