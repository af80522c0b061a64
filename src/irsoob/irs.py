"""Reflector phase control: SNR-optimal configurations and effective channels.

Only the in-band operator runs these optimizers; the out-of-band operator just
experiences whatever configuration results. All configurations are length-N
complex vectors with unit-modulus entries.
"""

from __future__ import annotations

import numpy as np

from .channels import complex_normal


def unit_phase(values, out=None):
    """values/|values| elementwise, with the zero-magnitude tie resolved to 1.

    One division pass that skips the zero entries, then the ties set to 1.
    The result goes into `out` when given, which may be `values` itself.
    """
    values = np.asarray(values)
    mag = np.abs(values)
    nonzero = mag > 0
    if out is None:
        out = np.empty(values.shape, dtype=np.result_type(values, 1.0))
    np.divide(values, mag, out=out, where=nonzero)
    np.copyto(out, 1.0, where=~nonzero)
    return out


def _phase_ref(h_d: complex) -> float:
    # Convention: a vanishing direct channel contributes phase 0. The overall
    # SNR is invariant to this global phase, so any choice would do.
    return float(np.angle(h_d)) if h_d != 0 else 0.0


def optimize_sub6(h_d: complex, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Co-phase every reflected path with the direct one: theta_n = exp(i(ang(h_d) - ang(f_n) - ang(g_n))).

    The resulting effective channel magnitude is |h_d| + sum_n |f_n g_n|,
    which no unit-modulus configuration can beat.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError(f"f and g must be 1-D with equal length, got {f.shape} and {g.shape}")
    return np.exp(1j * (_phase_ref(h_d) - np.angle(f) - np.angle(g)))


def optimize_mmwave_los(h_d: complex, gamma: complex, omega1: float,
                        n_elements: int) -> np.ndarray:
    """Steer the full aperture at the single cascaded angle omega1.

    theta_n = u * exp(-i*pi*n*omega1) with the unit phasor u chosen so the
    reflected path adds coherently with the direct one; the effective channel
    magnitude becomes |h_d| + N|gamma|.
    """
    n = np.arange(n_elements)
    return unit_phase(h_d * np.conj(gamma)) * np.exp(-1j * np.pi * n * omega1)


def optimize_mmwave_nlos(h_d: complex, cascade_angles: np.ndarray, cascade_gains: np.ndarray,
                         n_elements: int) -> np.ndarray:
    """Per-element phase matching against all L cascaded paths at once.

    theta_n = exp(i*ang(h_d)) * v_n/|v_n| with
    v_n = sum_l conj(gain_l) * exp(-i*pi*n*angle_l). Paths sharing an angle
    merge by complex gain addition inside the sum, so clustered cascades need
    no special casing. Elements where the sum vanishes exactly (a
    measure-zero tie) fall back to exp(i*ang(h_d)).
    """
    angles = np.asarray(cascade_angles, dtype=float)
    gains = np.asarray(cascade_gains)
    if angles.shape != gains.shape or angles.ndim != 1 or len(angles) < 1:
        raise ValueError("cascade_angles and cascade_gains must be equal-length 1-D arrays")
    n = np.arange(n_elements)
    v = np.exp(-1j * np.pi * np.outer(n, angles)) @ np.conj(gains)
    return np.exp(1j * _phase_ref(h_d)) * unit_phase(v)


def effective_channel_sub6(h_d: complex, f: np.ndarray, g: np.ndarray,
                           theta: np.ndarray) -> complex:
    """h_d + sum_n g_n * theta_n * f_n (empty sum for N = 0)."""
    return complex(h_d + np.sum(np.asarray(g) * np.asarray(theta) * np.asarray(f)))


def effective_channel_mmwave(h_d: complex, cascade_angles: np.ndarray,
                             cascade_gains: np.ndarray, theta: np.ndarray) -> complex:
    """h_d + (N/sqrt(L)) * sum_l gain_l * adot(angle_l)^H theta.

    adot is the steering vector normalized by N instead of sqrt(N), so
    adot(w)^H theta = (1/N) * sum_n exp(i*pi*n*w) * theta_n.
    """
    theta = np.asarray(theta)
    n_elements = len(theta)
    angles = np.asarray(cascade_angles, dtype=float)
    gains = np.asarray(cascade_gains)
    l_paths = len(gains)
    n = np.arange(n_elements)
    resp = np.exp(1j * np.pi * np.outer(angles, n)) @ theta / n_elements
    return complex(h_d + n_elements / np.sqrt(l_paths) * np.sum(gains * resp))


def correlation_response(rng: np.random.Generator, n_elements: int, source_angles,
                         nu: float, trials: int) -> float:
    """Monte Carlo RMS directional response of the optimized reflector at probe angle nu.

    The ensemble draws unit-variance complex Gaussian gains on the given
    source angles (the angles the optimizer matches), builds the phase-only
    configuration, and returns sqrt(mean |adot(nu)^H theta|^2) over trials.
    The normalized response lies in [0, 1]: about 1/sqrt(L) when nu is one
    of the L source angles and near 0 elsewhere for large N.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100 for a usable estimate, got {trials}")
    angles = np.atleast_1d(np.asarray(source_angles, dtype=float))
    n = np.arange(n_elements)
    probe = np.exp(1j * np.pi * n * float(nu)) / n_elements  # adot(nu)^H, entrywise

    # gains (trials, L) -> v (trials, N) -> unit-modulus configs
    gains = complex_normal(rng, 1.0, (trials, len(angles)))
    basis = np.exp(-1j * np.pi * np.outer(angles, n))  # (L, N)
    theta = unit_phase(np.conj(gains) @ basis)
    return float(np.sqrt(np.mean(np.abs(theta @ probe) ** 2)))
