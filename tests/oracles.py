"""Reference forms the test modules share.

The package never calls these. They are the independent forms the tests hold
the package to: the spectral efficiency of a channel gain, the aligned
reflector gain built from complex Rayleigh channels, and the dense
array-response form of the sparse channel model.
"""

import numpy as np


def spectral_efficiency(gain, snr):
    """log2(1 + snr * gain): the rate, in bits/s/Hz, a channel gain supports at a linear SNR."""
    return np.log2(1.0 + gain * snr)


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


def steering_vector(n_elements, angle):
    """Unit-norm N-element ULA response at a sine-domain angle: entry n is exp(-1j*pi*n*angle)/sqrt(N)."""
    return np.exp(-1j * np.pi * np.arange(n_elements) * angle) / np.sqrt(n_elements)


def mmwave_vector(n_elements, angles, gains):
    """The length-N channel vector sqrt(N/L) * sum_i gains_i * conj(steering(angles_i))."""
    vec = sum(gain * np.conj(steering_vector(n_elements, ang))
              for ang, gain in zip(angles, gains))
    return np.sqrt(n_elements / len(angles)) * vec
