"""Closed-form performance expressions for both operators.

Everything here is a pure function of an AnalyticParams bundle describing one
operator's UE population: ergodic sum spectral efficiencies, outage
probabilities, gain-offset distributions, beam-alignment combinatorics, and
the in-band exponential-decay bounds (one constant _C2, one (alpha, eta) rule).
The bundle holds no SNR: only the sum-SE forms take one, as an argument.
Spectral efficiency is bits/s/Hz (log base 2) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PI = math.pi


def __getattr__(name):
    # `analytics.integrate` was scipy.integrate while the tail integral used
    # scipy's quad; tools that wrap it still find it, imported on first use.
    # The package never reads it, so importing irsoob loads no scipy.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AnalyticParams:
    """Inputs the closed forms need for one operator.

    beta_r is the per-UE cascade loss product (feeder loss times reflector-UE
    loss) and beta_d the per-UE direct loss. l_paths is the cascaded path
    count of the sparse-channel regimes (irrelevant for the Rayleigh regime).
    The linear transmit SNR P/sigma^2 is an argument of the sum-SE forms.
    """

    n_elements: int
    beta_r: np.ndarray
    beta_d: np.ndarray
    l_paths: int = 1

    def __post_init__(self):
        object.__setattr__(self, "beta_r", np.atleast_1d(np.asarray(self.beta_r, dtype=float)))
        object.__setattr__(self, "beta_d", np.atleast_1d(np.asarray(self.beta_d, dtype=float)))
        if self.beta_r.shape != self.beta_d.shape:
            raise ValueError("beta_r and beta_d must have one entry per UE")
        if np.any(self.beta_r <= 0) or np.any(self.beta_d <= 0):
            raise ValueError("path losses must be positive")
        if self.n_elements < 0:
            raise ValueError(f"n_elements must be >= 0, got {self.n_elements}")

    @property
    def l_bar(self) -> int:
        return min(self.l_paths, self.n_elements)

    @property
    def beta_tilde(self) -> np.ndarray:
        return self.beta_r / self.beta_d


def _positive(snr: float) -> float:
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    return snr


def _mean_se(snr_terms) -> float:
    return float(np.mean(np.log2(1.0 + snr_terms)))


def sumse_inband_sub6(p: AnalyticParams, snr: float) -> float:
    """Ergodic sum-SE upper bound for the operator that phase-aligns the reflector, Rayleigh fading.

    The coherent sum of N reflected paths gives the N^2 * (pi^2/16) * beta_r
    leading term; the linear-in-N terms collect the per-path variance and the
    direct/reflected cross term.
    """
    n, g = p.n_elements, _positive(snr)
    quad = n * n * (_PI ** 2 / 16.0) * p.beta_r
    lin = n * (p.beta_r * (1.0 - _PI ** 2 / 16.0)
               + (_PI ** 1.5 / 4.0) * np.sqrt(p.beta_d * p.beta_r))
    return _mean_se((quad + lin + p.beta_d) * g)


def sumse_oob_sub6(p: AnalyticParams, snr: float) -> float:
    """Ergodic sum-SE upper bound for the oblivious operator: incoherent power pile-up, slope 1 in log2(N)."""
    return _mean_se((p.n_elements * p.beta_r + p.beta_d) * _positive(snr))


def _mu1(p: AnalyticParams) -> float:
    """UE 0's mean OOB gain N*beta_r + beta_d."""
    return float(p.n_elements * p.beta_r[0] + p.beta_d[0])


def outage_oob_sub6(rho, p: AnalyticParams):
    """P(UE 0's OOB channel gain < rho) = 1 - exp(-rho/(N*beta_r + beta_d)); ~ rho/(N*beta_r) for small rho."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    out = 1.0 - np.exp(-rho / _mu1(p))
    return float(out) if out.ndim == 0 else out


def ccdf_offset_sub6(z, p: AnalyticParams):
    """Large-N tail probability P(gain offset > z) for OOB UE 0.

    The offset is the UE's channel gain with the (randomly-configured, from
    its point of view) reflector minus the gain without it. Piecewise in z
    with beta_tilde = beta_r/beta_d:
      z < 0:  1 - exp(z/beta_d) / (N*beta_tilde + 2)
      z >= 0: (N*beta_tilde + 1)/(N*beta_tilde + 2) * exp(-z/(beta_d*(1 + N*beta_tilde)))
    This is the large-N limit of ccdf_offset_sub6_finite_n, the exact law at
    any N.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    bt = float(p.beta_tilde[0])
    bd = float(p.beta_d[0])
    nbt = p.n_elements * bt
    neg = z < 0
    out = np.empty_like(z)
    out[neg] = 1.0 - np.exp(z[neg] / bd) / (nbt + 2.0)
    out[~neg] = (nbt + 1.0) / (nbt + 2.0) * np.exp(-z[~neg] / (bd * (1.0 + nbt)))
    return float(out[0]) if scalar else out


_GAMMA_NODES = 60


def _gamma_quadrature(shape: float):
    """Nodes and weights of generalized Gauss-Laguerre quadrature for E[h(G)], G ~ Gamma(shape, 1).

    Golub-Welsch on the Jacobi matrix of the Laguerre(shape - 1)
    polynomials: the nodes are its eigenvalues and the weights the squared
    first eigenvector components. The weights sum to one without forming
    Gamma(shape), which overflows (and takes the textbook weights to NaN)
    beyond shape ~ 171.
    """
    k = np.arange(_GAMMA_NODES, dtype=float)
    a = shape - 1.0
    off = np.sqrt(k[1:] * (k[1:] + a))
    jacobi = np.diag(2.0 * k + a + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x, v = np.linalg.eigh(jacobi)
    return x, v[0] ** 2


def _offset_ccdf_given_power(u, t):
    """P(|h + r|^2 - |h|^2 > u) for independent h ~ CN(0, 1), r ~ CN(0, t); broadcasts.

    The offset is lam_plus*E1 - lam_minus*E2 with E1, E2 i.i.d. Exp(1) and
    lam_plus, -lam_minus = (sqrt(t(t+4)) +- t)/2, the eigenvalues of the
    quadratic form; lam_minus is taken as 2t/(t + root) to avoid cancellation.
    """
    root = np.sqrt(t * (t + 4.0))
    lam_plus = 0.5 * (t + root)
    lam_minus = 2.0 * t / (t + root)
    pos = lam_plus / root * np.exp(-np.maximum(u, 0.0) / lam_plus)
    neg = 1.0 - lam_minus / root * np.exp(np.minimum(u, 0.0) / lam_minus)
    return np.where(u >= 0.0, pos, neg)


def ccdf_offset_sub6_finite_n(z, p: AnalyticParams):
    """Exact finite-N tail P(gain offset > z) for OOB UE 0 under Rayleigh fading.

    Given the feeder channel f, the reflected sum sum_n theta_n f_n g_n is
    CN(0, beta_g*||f||^2) whatever the (independent) phases theta, and
    ||f||^2/beta_f = G ~ Gamma(N, 1). So the offset law is the given-power law
    (_offset_ccdf_given_power) at reflected-to-direct power ratio
    G*beta_tilde, averaged over G by 60-node generalized Gauss-Laguerre
    quadrature. As N grows G/N -> 1, so it closes on the given-power law at
    the mean ratio N*beta_tilde, and it tends to ccdf_offset_sub6 in the
    large-N limit.
    """
    if p.n_elements < 1:
        raise ValueError("degenerate offset distribution: requires N >= 1")
    scalar = np.ndim(z) == 0
    u = np.atleast_1d(np.asarray(z, dtype=float)) / float(p.beta_d[0])
    g_nodes, weights = _gamma_quadrature(p.n_elements)
    out = _offset_ccdf_given_power(u[:, None], g_nodes * float(p.beta_tilde[0])) @ weights
    return float(out[0]) if scalar else out


def sumse_inband_mmwave_los(p: AnalyticParams, snr: float) -> float:
    """In-band ergodic sum-SE, aperture steered at one cascaded path (l_paths does not enter): N^2 scaling."""
    n, g = p.n_elements, _positive(snr)
    return _mean_se((n * n * p.beta_r + n * (_PI ** 1.5 / 4.0) * np.sqrt(p.beta_d * p.beta_r)
                     + p.beta_d) * g)


def sumse_oob_mmwave_los(p: AnalyticParams, snr: float) -> float:
    """OOB ergodic sum-SE under single-beam steering: alignment with probability l_bar/N.

    With L cascaded paths at the UE and one active beam, the beam hits a UE
    path a fraction l_bar/N of the time, contributing an (N^2/l_bar)*beta_r
    SNR term; otherwise only the direct path is left.
    """
    n, g = p.n_elements, _positive(snr)
    lb = p.l_bar
    if lb < 1:
        raise ValueError("sparse-channel SE needs n_elements >= 1 and l_paths >= 1")
    hit = np.log2(1.0 + ((n * n / lb) * p.beta_r + p.beta_d) * g)
    miss = np.log2(1.0 + p.beta_d * g)
    return float(np.mean((lb / n) * hit + (1.0 - lb / n) * miss))


# The tail integral is certified when its error estimate is below this
# fraction of the result.
_QUAD_REL_TOL = 1e-8
# Nested trapezoid levels of the exp-sinh rule: the finest step is
# 2**-_DE_LEVELS in t, and the error estimate is its difference to the
# next-coarser level.
_DE_LEVELS = 7
_DE_T_MAX = 4.0


def _exp_scaled_gamma1(a, b):
    """exp(a) * int_a^inf exp(-t - b/t) dt, computed without forming exp(a); broadcasts.

    Substituting t = a + s gives int_0^inf exp(-s - b/(a+s)) ds, stable for
    any a >= 0. This is the tail integral I0 of the mmWave outage forms:
    int_c1^inf exp(-t/c2 - x/t) dt = c2 * exp(-c1/c2) * _exp_scaled_gamma1(c1/c2, x/c2).

    Evaluated by the exp-sinh double-exponential rule (Takahasi & Mori,
    1974): s = c * exp(pi/2 * sinh(t)) maps t in [-4, 4] onto s in
    [c * 2.4e-19, c * 4e18], and the transformed integrand decays double
    exponentially at both ends, so the trapezoid rule in t converges
    geometrically. The mass scale c = max(1, sqrt(b)) centres the rule on
    the integrand's peak, which sits near s = sqrt(b) - a for large b. The
    result is the trapezoid sum at step 2**-7; its difference to the sum at
    step 2**-6 (every other node) is the error estimate. Every (a, b) is
    evaluated on the same nodes, so a vector call equals the elementwise
    scalar calls. Raises ArithmeticError, naming the first failing (a, b),
    if the estimate exceeds 1e-8 of the result.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    h = 2.0 ** -_DE_LEVELS
    t = np.arange(-_DE_T_MAX, _DE_T_MAX + h / 2.0, h)
    s_unit = np.exp(0.5 * _PI * np.sinh(t))
    ds_unit = 0.5 * _PI * np.cosh(t) * s_unit
    c = np.maximum(1.0, np.sqrt(b))[..., None]
    s = c * s_unit
    terms = np.exp(-s - b[..., None] / (a[..., None] + s)) * (c * ds_unit)
    value = h * np.sum(terms, axis=-1)
    coarse = 2.0 * h * np.sum(terms[..., ::2], axis=-1)
    failed = np.abs(value - coarse) > _QUAD_REL_TOL * np.abs(value)
    if np.any(failed):
        first = np.argwhere(failed)[0]
        fa, fb, fv, fc = (float(x[tuple(first)]) for x in (a, b, value, coarse))
        raise ArithmeticError(
            f"quadrature error {abs(fv - fc):.3e} exceeds {_QUAD_REL_TOL:.0e} relative "
            f"tolerance at a={fa!r}, b={fb!r}")
    return float(value) if value.ndim == 0 else value


_CDF_CLAMP_TOL = 1e-9


def cdf_oob_mmwave_los(rho, p: AnalyticParams):
    """P(UE 0's OOB channel gain < rho) under single-beam steering with L UE-side paths.

    Mixture of the aligned event (probability l_bar/N, double-Rayleigh
    reflected term) and the misaligned one (direct path only). Evaluated in
    an exp-scaled form so the exp(l_bar*beta_d/(N^2*beta_r)) factor never
    overflows; the result is clamped to [0, 1] after checking the residual.
    """
    br = float(p.beta_r[0])
    bd = float(p.beta_d[0])
    n, lb = p.n_elements, p.l_bar
    if lb < 1:
        raise ValueError("needs n_elements >= 1 and at least one cascaded path")
    a = lb * bd / (n * n * br)
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    direct = 1.0 - np.exp(-rho_arr / bd)
    aligned = _exp_scaled_gamma1(a, lb * rho_arr / (n * n * br))
    out = direct - (lb / n) * (aligned - np.exp(-rho_arr / bd))
    if np.any(out < -_CDF_CLAMP_TOL) or np.any(out > 1.0 + _CDF_CLAMP_TOL):
        raise ArithmeticError("mmWave outage CDF left [0,1] beyond the numerical tolerance")
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out


def matching_paths_pmf(l_paths: int, n_elements: int, i: int) -> float:
    """P(exactly i of the L reflector beams land on the L UE path angles), angles distinct on an N-grid.

    Hypergeometric: C(L, i) * C(N - L, L - i) / C(N, L), supported on
    max(0, 2L - N) <= i <= L. Computed in log-gamma space so large N is safe.
    """
    if not (0 < l_paths < n_elements):
        raise ValueError(f"requires 0 < L < N, got L={l_paths}, N={n_elements}")
    if i != int(i):
        raise ValueError(f"i must be an integer, got {i}")
    i = int(i)
    if i < max(0, 2 * l_paths - n_elements) or i > l_paths:
        return 0.0

    def log_binom(n, k):
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    log_p = (log_binom(l_paths, i) + log_binom(n_elements - l_paths, l_paths - i)
             - log_binom(n_elements, l_paths))
    return math.exp(log_p)


def sumse_inband_mmwave_nlos(p: AnalyticParams, snr: float) -> float:
    """In-band ergodic sum-SE with the reflector matched to all L cascaded paths."""
    n, g = p.n_elements, _positive(snr)
    return _mean_se((n * n * p.beta_r + n * np.sqrt(_PI * p.beta_d * p.beta_r) + p.beta_d) * g)


def sumse_oob_mmwave_nlos(p: AnalyticParams, snr: float) -> float:
    """OOB ergodic sum-SE with an L-beam reflector: alignment count is hypergeometric.

    For L < N, i matched beams contribute i*(N^2/L^2)*beta_r of SNR; for
    L >= N every resolvable direction is lit and the incoherent N*beta_r
    form applies. This describes an ideal L-beam pattern, with zero response
    off the L matched angles. It is not the engine's unit-modulus
    configuration, which for L >= 2 leaves part of the reflected power on
    the other grid angles; no closed form of that model exists here yet.
    """
    n, g = p.n_elements, _positive(snr)
    l = p.l_paths
    if n < 1:
        raise ValueError("needs n_elements >= 1")
    if l >= n:
        return _mean_se((p.beta_d + n * p.beta_r) * g)
    i = np.arange(max(0, 2 * l - n), l + 1)
    pmf = np.array([matching_paths_pmf(l, n, int(ii)) for ii in i])
    # (n_i, n_ues) grid of log terms, pmf-weighted per UE
    se = np.log2(1.0 + (p.beta_d[None, :] + i[:, None] * (n * n / l ** 2) * p.beta_r[None, :]) * g)
    return float(np.mean(pmf @ se))


def mr_asymptotic_se(q_ues: int, p: AnalyticParams, snr: float) -> float:
    """Large-Q max-rate OOB SE over i.i.d. UEs: log2(1 + ln(Q) * (N*beta_r + beta_d) * snr), UE 0's losses."""
    if q_ues < 1:
        raise ValueError(f"q_ues must be >= 1, got {q_ues}")
    return float(np.log2(1.0 + math.log(q_ues) * _mu1(p) * _positive(snr)))


# c2 of the Gaussian surrogate for in-band UE 0's coherent gain sum
_C2 = _PI / math.sqrt(16.0 - _PI ** 2)


def decay_bound_terms(p: AnalyticParams) -> tuple[float, float]:
    """UE 0's (alpha, eta): the variance and mean terms of the in-band decay bounds' surrogate."""
    br = float(p.beta_r[0])
    n = p.n_elements
    return 2.0 * n * (1.0 - _PI ** 2 / 16.0) * br, n * _PI * math.sqrt(br) / 4.0


def inband_outage_bound(p: AnalyticParams) -> float:
    """Large-N upper bound 2*Q(c2*sqrt(N)) on in-band UE 0's outage probability; decays as O(e^-N).

    Evaluated as erfc(c2*sqrt(N)/sqrt(2)). The outage threshold drops out of
    this large-N form, which does not bound small N: fig6's N = 2 row reads
    0.0915 ± 0.0020 (seed 6) and 0.147 ± 0.0025 (seed 3), above 0.0727.
    """
    return math.erfc(_C2 * math.sqrt(p.n_elements) / math.sqrt(2.0))


def inband_offset_ccdf_bound(rho, p: AnalyticParams):
    """Lower bound on P(in-band gain offset > rho): 1 - sqrt(bd/(bd+alpha)) * exp(rho/bd - eta^2/(bd+alpha)).

    For in-band UE 0; approaches 1 as O(e^-N). Clamped at 0 where the closed form
    goes negative (far tail, where any nonnegative number is a valid lower bound).
    """
    alpha, eta = decay_bound_terms(p)
    bd = float(p.beta_d[0])
    rho = np.asarray(rho, dtype=float)
    expo = np.clip(rho / bd - eta ** 2 / (bd + alpha), None, 700.0)
    out = np.clip(1.0 - math.sqrt(bd / (bd + alpha)) * np.exp(expo), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out
