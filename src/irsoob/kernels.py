"""Low-level math kernels shared by the channel and experiment layers.

The package draws every sparse path angle as an integer bin i of the
N-element sine-domain grid angle_i = -1 + 2i/N, on which the array responses
of distinct bins are orthogonal, and combines bins in integers
(`cascade_bin`), so a simulation builds no float angle.
"""

from __future__ import annotations

import numpy as np


def db_to_linear(x_db):
    """dB -> linear power ratio. The single conversion point for the package."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def cascade_bin(a, b, n_elements: int):
    """Grid index of wrap(angle_a + angle_b) for grid indices a and b, even n_elements.

    With angle_i = -1 + 2i/N the sum is -2 + 2(a + b)/N, which the wrap moves
    by a multiple of 2, that is, by a multiple of N bins: index
    (a + b - N/2) mod N. Exact in integers, so no angle is built or rounded.
    Vectorized over a and b.
    """
    return (np.asarray(a) + b - n_elements // 2) % n_elements

