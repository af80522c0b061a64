"""Low-level math kernels shared by the channel and experiment layers.

Propagation directions are handled in the sine domain throughout the package:
a physical angle phi enters as x = sin(phi) in [-1, 1). Conversion from degrees
or radians happens once, at the geometry layer, never here.
"""

from __future__ import annotations

import numpy as np


def db_to_linear(x_db):
    """dB -> linear power ratio. The single conversion point for the package."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def resolvable_angles(n_elements: int) -> np.ndarray:
    """The N sine-domain angles {-1 + 2i/N : i = 0..N-1} resolvable by an N-element ULA.

    Array responses exp(-1j*pi*n*angle), n = 0..N-1, at two distinct grid
    angles are exactly orthogonal, which the reflector-control layer relies
    on. Returned in increasing order.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    return -1.0 + 2.0 * np.arange(n_elements) / n_elements


def cascade_bin(a, b, n_elements: int):
    """Grid index of wrap(angle_a + angle_b) for grid indices a and b, even n_elements.

    With angle_i = -1 + 2i/N the sum is -2 + 2(a + b)/N, which the wrap moves
    by a multiple of 2, that is, by a multiple of N bins: index
    (a + b - N/2) mod N. Exact in integers, so no angle is built or rounded.
    Vectorized over a and b.
    """
    return (np.asarray(a) + b - n_elements // 2) % n_elements


def principal_sine_wrap(x):
    """Wrap a sine-domain angle into the principal interval [-1, 1).

    Sums of on-grid angles land in [-2, 2); the wrap is a single +/-2 shift:
    x - 2 if x >= 1, x + 2 if x < -1, unchanged otherwise. Vectorized.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("principal_sine_wrap requires finite input")
    out = np.where(arr >= 1.0, arr - 2.0, arr)
    out = np.where(arr < -1.0, out + 2.0, out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
