"""Reference forms and sample pools the test modules share.

The package never calls these. They are the independent forms the tests hold
the package to: the spectral efficiency of a channel gain, the two-pass
unit phasor, the aligned reflector gain built from complex Rayleigh
channels, the dense per-element Rayleigh channels of the sub6 model, the
float grid index of an on-grid angle, the sparse path angles as floats and
every UE's per-path gains (`sample_mmwave`), and the dense array-response
form of the sparse channel model. `oob_gain_samples` pools the package's own
OOB gains at the sample sizes the distribution-level checks need.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from irsoob.channels import LinkBudget, complex_normal, mmwave_angle_bins
from irsoob.config import ExperimentSpec
from irsoob.engine import budgets_for, spawn_rngs
from irsoob.experiments import _worker_count, operator_params, sweep_gains
from irsoob.kernels import principal_sine_wrap, resolvable_angles


def spectral_efficiency(gain, snr):
    """log2(1 + snr * gain): the rate, in bits/s/Hz, a channel gain supports at a linear SNR."""
    return np.log2(1.0 + gain * snr)


def unit_phase_where(values):
    """values/|values| elementwise, zero magnitudes resolved to 1, in two np.where passes."""
    mag = np.abs(values)
    safe = np.where(mag > 0, mag, 1.0)
    return np.where(mag > 0, values / safe, 1.0)


def aligned_gain_complex(rng, beta_d, beta_r, rows, n_elements):
    """(|h_d| + sum_n |f_n g_n|)^2 and |h_d|^2 from complex channels, one per row.

    h_d ~ CN(0, beta_d), f_n ~ CN(0, beta_r) and g_n ~ CN(0, 1), each drawn as
    sqrt(beta/2) (x + iy) from standard normals x, y.
    """
    def draw(beta, size):
        return np.sqrt(beta / 2.0) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    h_d = draw(beta_d, rows)
    f = draw(beta_r, (rows, n_elements))
    g = draw(1.0, (rows, n_elements))
    return (np.abs(h_d) + np.abs(f * g).sum(axis=-1)) ** 2, np.abs(h_d) ** 2


@dataclass
class Sub6Channels:
    """Rayleigh-fading realizations for one operator and its UEs, one per slot.

    Shapes: h_d (slots, n_ues), f (slots, n), g (slots, n_ues, n).
    """

    h_d: np.ndarray
    f: np.ndarray
    g: np.ndarray


def sample_sub6(rng: np.random.Generator, n_elements: int, budget: LinkBudget,
                slots: int) -> Sub6Channels:
    """I.i.d. Rayleigh draws: each entry CN(0, beta) with beta from the link budget.

    E|f_n|^2 = beta_f and E|f_n| = sqrt(pi*beta_f/4), the moments the sum-SE
    formulas are built on.
    """
    if n_elements < 0:
        raise ValueError(f"n_elements must be >= 0, got {n_elements}")
    q = budget.n_ues
    h_d = complex_normal(rng, budget.beta_d, (slots, q))
    f = complex_normal(rng, budget.beta_f, (slots, n_elements))
    g = complex_normal(rng, budget.beta_g[:, None], (slots, q, n_elements))
    return Sub6Channels(h_d=h_d, f=f, g=g)


def grid_index(angle, n_elements: int):
    """Index i of a grid angle within resolvable_angles(n_elements).

    Inverse of resolvable_angles; inputs must already sit on the grid (within
    float rounding). Vectorized over `angle`.
    """
    idx = np.rint((np.asarray(angle) + 1.0) * n_elements / 2.0).astype(np.int64)
    return idx % n_elements


@dataclass
class MmwaveChannels:
    """Sparse multipath realization for one operator and its UEs.

    Angles sit on the resolvable grid and stay fixed across slots; complex
    gains are redrawn per slot. The cascade combines every (feeder path i,
    UE path j) pair: angle wrap(phi_i + psi_j), gain gamma1_i * gamma2_j,
    giving L = l1 * l2 entries ordered with j fastest.

    Gain shapes: bs_gains (slots, l1), ue_gains (slots, n_ues, l2),
    cascade_gains (slots, n_ues, L), h_d (slots, n_ues). The angle arrays
    carry no slot axis.
    """

    l1: int
    l2: int
    bs_angles: np.ndarray
    ue_angles: np.ndarray
    bs_gains: np.ndarray
    ue_gains: np.ndarray
    cascade_angles: np.ndarray
    cascade_gains: np.ndarray
    h_d: np.ndarray


def mmwave_angles(rng: np.random.Generator, n_elements: int, l1: int, l2: int, n_ues: int):
    """The draws of `mmwave_angle_bins` as sine-domain angles: (feeder (l1,),
    per-UE (n_ues, l2), cascade (n_ues, L)), the cascade angle
    wrap(phi_i + psi_j) built in floats, apart from the package's integer
    cascade bins."""
    bs_bins, ue_bins, _ = mmwave_angle_bins(rng, n_elements, l1, l2, n_ues)
    grid = resolvable_angles(n_elements)
    bs_angles, ue_angles = grid[bs_bins], grid[ue_bins]
    cascade_angles = principal_sine_wrap(
        bs_angles[:, None] + ue_angles[:, None, :]).reshape(n_ues, l1 * l2)
    return bs_angles, ue_angles, cascade_angles


def sample_mmwave(rng: np.random.Generator, n_elements: int, l1: int, l2: int,
                  budget: LinkBudget, slots: int) -> MmwaveChannels:
    """Dense sparse-multipath draw: the angles of `mmwave_angles`, fixed across
    slots, then the per-slot path gains of every UE (feeder, UE side, direct
    link, in that order)."""
    q = budget.n_ues
    bs_angles, ue_angles, cascade_angles = mmwave_angles(rng, n_elements, l1, l2, q)

    # per-path variances: feeder paths carry beta_f, UE-side paths beta_g
    bs_gains = complex_normal(rng, budget.beta_f, (slots, l1))
    ue_gains = complex_normal(rng, budget.beta_g[:, None], (slots, q, l2))
    h_d = complex_normal(rng, budget.beta_d, (slots, q))
    cascade_gains = (bs_gains[:, None, :, None]
                     * ue_gains[:, :, None, :]).reshape(slots, q, l1 * l2)
    return MmwaveChannels(l1=l1, l2=l2, bs_angles=bs_angles, ue_angles=ue_angles,
                          bs_gains=bs_gains, ue_gains=ue_gains,
                          cascade_angles=cascade_angles, cascade_gains=cascade_gains,
                          h_d=h_d)


def steering_vector(n_elements, angle):
    """Unit-norm N-element ULA response at a sine-domain angle: entry n is exp(-1j*pi*n*angle)/sqrt(N)."""
    return np.exp(-1j * np.pi * np.arange(n_elements) * angle) / np.sqrt(n_elements)


def mmwave_vector(n_elements, angles, gains):
    """The length-N channel vector sqrt(N/L) * sum_i gains_i * conj(steering(angles_i))."""
    vec = sum(gain * np.conj(steering_vector(n_elements, ang))
              for ang, gain in zip(angles, gains))
    return np.sqrt(n_elements / len(angles)) * vec


def oob_gain_samples(seed: int, spec: ExperimentSpec, n_elements: int, count: int):
    """Pooled OOB gains (with and without reflector) for the first OOB UE.

    Draws whole trials of the two-operator protocol until `count` samples
    exist, at sample sizes the figure presets do not need. Returns
    (with, without, params); with - without is the UE's gain offset.
    """
    trials = math.ceil(count / spec.slots)
    rngs = spawn_rngs(seed, 1 + trials)
    _, budget_x, budget_y = budgets_for(spec, rngs[0])
    with ThreadPoolExecutor(max_workers=_worker_count(trials)) as pool:
        (data,) = sweep_gains(pool, [(spec, n_elements, rngs[1:], budget_x, budget_y)])
    params = operator_params(spec, budget_y, n_elements)
    return (data.gain_irs[:, :, 0].ravel()[:count], data.gain_noirs[:, :, 0].ravel()[:count],
            params)
