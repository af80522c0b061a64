"""Reflector phase control: the co-phasing rule and the effective channel.

Every UE, in-band or out-of-band, sub-6 GHz or mmWave, sees the channel
h_d + sum_n c_n theta_n, where c_n is the per-element cascade through the
reflector: f_n g_n in sub6, and the sum of the sparse paths'
steering vectors in mmWave (`sparse_cascade`). Only the in-band operator
configures the reflector, by co-phasing each c_n with its own h_d
(`align`); the out-of-band operator just experiences whatever
configuration results. Configurations are unit-modulus complex vectors over
the last axis. These scalar rules are the references the engine's vectorized
trials are tested against.
"""

from __future__ import annotations

import numpy as np


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


def align(h_d, cascade) -> np.ndarray:
    """The SNR-optimal configuration theta_n = unit_phase(h_d) * unit_phase(conj(c_n)).

    Every reflected term c_n theta_n then adds in phase with h_d, so the
    effective channel magnitude is |h_d| + sum_n |c_n|, which no
    unit-modulus configuration can beat. A vanishing h_d or c_n takes
    unit_phase's tie, phase 1.
    """
    return unit_phase(h_d) * unit_phase(np.conj(cascade))


def effective_channel(h_d, cascade, theta):
    """h_d + sum_n c_n theta_n over the last axis (an empty sum for N = 0); broadcasts."""
    return h_d + np.sum(np.asarray(cascade) * np.asarray(theta), axis=-1)


def sparse_cascade(angles, gains, n_elements: int) -> np.ndarray:
    """The cascade of L sparse paths: c_n = (1/sqrt(L)) sum_l gain_l exp(i*pi*n*angle_l).

    gains has the L paths on its last axis and may carry leading axes, which
    the result keeps before its element axis. Paths sharing an angle merge by
    complex gain addition, so clustered cascades need no special casing.
    """
    angles = np.asarray(angles, dtype=float)
    gains = np.asarray(gains)
    if angles.ndim != 1 or len(angles) < 1 or gains.shape[-1:] != angles.shape:
        raise ValueError("angles must be a non-empty 1-D array matching the last axis of gains")
    steering = np.exp(1j * np.pi * np.outer(angles, np.arange(n_elements)))   # (L, N)
    return gains @ steering / np.sqrt(len(angles))

