"""Reference forms the test modules share.

The package never calls these. They are the independent forms the tests hold
the package to: the spectral efficiency of a channel gain, and the dense
array-response form of the sparse channel model.
"""

import numpy as np


def spectral_efficiency(gain, snr):
    """log2(1 + snr * gain): the rate, in bits/s/Hz, a channel gain supports at a linear SNR."""
    return np.log2(1.0 + gain * snr)


def steering_vector(n_elements, angle):
    """Unit-norm N-element ULA response at a sine-domain angle: entry n is exp(-1j*pi*n*angle)/sqrt(N)."""
    return np.exp(-1j * np.pi * np.arange(n_elements) * angle) / np.sqrt(n_elements)


def mmwave_vector(n_elements, angles, gains):
    """The length-N channel vector sqrt(N/L) * sum_i gains_i * conj(steering(angles_i))."""
    vec = sum(gain * np.conj(steering_vector(n_elements, ang))
              for ang, gain in zip(angles, gains))
    return np.sqrt(n_elements / len(angles)) * vec
