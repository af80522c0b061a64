"""Closed-form evaluators against hand reductions and seeded Monte Carlo oracles.

The Monte Carlo channels here are written from the channel definitions
directly (direct path plus per-element cascade, or direct path plus sparse
on-grid paths), independent of the engine's vectorized trial code, except
where a test explicitly exercises the engine as the stated oracle.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from irsoob import analytics as an
from irsoob.analytics import AnalyticParams, DecayBoundParams
from oracles import spectral_efficiency

# Reference-UE losses from the default geometry (see test_channels.py for the
# arithmetic): sub-6 carrier and the sparse-carrier variant at 75 m.
BETA_R_SUB6 = 3.9975015615240465e-16
BETA_D_SUB6 = 7.439084686698022e-18
BETA_F_MM = 1e-6 / 1414.6554350795109 ** 2
BETA_G_MM = 1e-6 / 75.0 ** 2
BETA_R_MM = BETA_F_MM * BETA_G_MM
BETA_D_MM = 7.43908468669802e-21

GAMMA_130 = 10.0 ** 13.0


def params_sub6(n):
    return AnalyticParams(n_elements=n, beta_r=BETA_R_SUB6, beta_d=BETA_D_SUB6)


def params_mm(n, l_paths=1):
    return AnalyticParams(n_elements=n, beta_r=BETA_R_MM, beta_d=BETA_D_MM, l_paths=l_paths)


def rayleigh_offset_samples(rng, n, count, beta_r=BETA_R_SUB6, beta_d=BETA_D_SUB6):
    """Gain pair (with reflector at arbitrary phases, without) for one OOB UE."""
    h_d = np.sqrt(beta_d / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    r = np.zeros(count, dtype=complex)
    for _ in range(n):
        f = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2)
        g = np.sqrt(beta_r / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
        r += f * g * np.exp(2j * np.pi * rng.random(count))
    return np.abs(h_d + r) ** 2, np.abs(h_d) ** 2


def offset_correlation(p):
    """Correlation of the with- and without-reflector gains at UE 0: 1/(1 + N beta_r/beta_d)."""
    return 1.0 / (1.0 + p.n_elements * float(p.beta_tilde[0]))


def ks_distance(sorted_samples, ccdf_values):
    m = len(sorted_samples)
    lo = 1.0 - np.arange(1, m + 1) / m
    hi = 1.0 - np.arange(0, m) / m
    return max(np.max(np.abs(ccdf_values - lo)), np.max(np.abs(ccdf_values - hi)))


# ---------------------------------------------------------------------------
# parameter bundle

def test_params_validation():
    p = AnalyticParams(n_elements=8, beta_r=[1.0, 2.0], beta_d=[0.5, 0.5], l_paths=6)
    assert p.l_paths == 6 and p.l_bar == 6
    assert p.beta_tilde[0] == pytest.approx(2.0)
    assert [f.name for f in dataclasses.fields(AnalyticParams)] == [
        "n_elements", "beta_r", "beta_d", "l_paths"]
    with pytest.raises(ValueError):
        AnalyticParams(n_elements=8, beta_r=[1.0, 2.0], beta_d=0.5)
    with pytest.raises(ValueError):
        AnalyticParams(n_elements=8, beta_r=-1.0, beta_d=0.5)
    with pytest.raises(ValueError):
        AnalyticParams(n_elements=-1, beta_r=1.0, beta_d=0.5)
    # the SNR is an argument of the sum-SE forms, each of which refuses a nonpositive one
    q = AnalyticParams(n_elements=8, beta_r=1.0, beta_d=0.5, l_paths=2)
    for form in (an.sumse_inband_sub6, an.sumse_oob_sub6, an.sumse_inband_mmwave_los,
                 an.sumse_oob_mmwave_los, an.sumse_inband_mmwave_nlos, an.sumse_oob_mmwave_nlos,
                 lambda p, snr: an.mr_asymptotic_se(10, p, snr)):
        for snr in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="snr must be positive"):
                form(q, snr)
        assert form(q, 1.0) > 0.0


def test_l_bar_caps_at_element_count():
    p = AnalyticParams(n_elements=4, beta_r=1.0, beta_d=1.0, l_paths=15)
    assert p.l_paths == 15 and p.l_bar == 4


# ---------------------------------------------------------------------------
# Rayleigh-regime ergodic sum-SE

def test_rayleigh_inband_reduces_without_reflector():
    p = AnalyticParams(n_elements=0, beta_r=[BETA_R_SUB6, 2 * BETA_R_SUB6],
                       beta_d=[BETA_D_SUB6, 3 * BETA_D_SUB6])
    expect = np.mean([math.log2(1.0 + b * GAMMA_130) for b in p.beta_d])
    np.testing.assert_allclose(an.sumse_inband_sub6(p, GAMMA_130), expect, rtol=1e-12)
    np.testing.assert_allclose(an.sumse_oob_sub6(p, GAMMA_130), expect, rtol=1e-12)


def test_rayleigh_sumse_element_gaps():
    # quadrupling N adds ~4 bits in-band (N^2 SNR scaling) and ~2 bits OOB
    gamma = 10.0 ** 16.0
    gap_x = an.sumse_inband_sub6(params_sub6(256), gamma) - an.sumse_inband_sub6(params_sub6(64), gamma)
    gap_y = an.sumse_oob_sub6(params_sub6(256), gamma) - an.sumse_oob_sub6(params_sub6(64), gamma)
    assert abs(gap_x - 4.0) < 0.5   # measured 3.984
    assert abs(gap_y - 2.0) < 0.3   # measured 1.996


def test_rayleigh_inband_sumse_bounds_monte_carlo():
    """The closed form is a mean-gain bound, so it sits above the sample mean."""
    rng = np.random.default_rng(64)
    count = 200_000
    h_d = np.abs(np.sqrt(BETA_D_SUB6 / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    amp = h_d.copy()
    for _ in range(64):
        f = np.abs(rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2)
        g = np.abs(np.sqrt(BETA_R_SUB6 / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
        amp += f * g
    mc = float(np.mean(np.log2(1.0 + amp ** 2 * GAMMA_130)))
    ana = an.sumse_inband_sub6(params_sub6(64), GAMMA_130)
    assert ana >= mc
    assert ana - mc < 0.3   # measured 0.024 at this seed


def test_rayleigh_oob_sumse_bounds_monte_carlo():
    rng = np.random.default_rng(65)
    gain, _ = rayleigh_offset_samples(rng, 64, 200_000)
    mc = float(np.mean(np.log2(1.0 + gain * GAMMA_130)))
    ana = an.sumse_oob_sub6(params_sub6(64), GAMMA_130)
    assert ana >= mc
    assert ana - mc < 0.2   # measured 0.025


# ---------------------------------------------------------------------------
# Rayleigh-regime OOB outage and gain offset

def test_oob_outage_zero_threshold():
    assert an.outage_oob_sub6(0.0, params_sub6(16)) == 0.0


def test_oob_outage_halves_when_elements_double():
    mu = 64 * BETA_R_SUB6 + BETA_D_SUB6
    for frac in (0.05, 0.1):
        rho = frac * mu
        ratio = an.outage_oob_sub6(rho, params_sub6(128)) / an.outage_oob_sub6(rho, params_sub6(64))
        assert abs(ratio - 0.5) < 0.025   # 0.506 and 0.513


def test_oob_outage_matches_empirical():
    rng = np.random.default_rng(63)
    gain, _ = rayleigh_offset_samples(rng, 128, 100_000)
    mu = 128 * BETA_R_SUB6 + BETA_D_SUB6
    p = params_sub6(128)
    for frac in (0.3, 0.5, 1.0):
        emp = float(np.mean(gain < frac * mu))
        assert abs(emp - an.outage_oob_sub6(frac * mu, p)) < 0.005


def test_offset_ccdf_knee_and_tails():
    p = params_sub6(16)
    nbt = 16 * float(p.beta_tilde[0])
    np.testing.assert_allclose(an.ccdf_offset_sub6(0.0, p), 1.0 - 1.0 / (nbt + 2.0), rtol=1e-12)
    assert an.ccdf_offset_sub6(-50.0 * BETA_D_SUB6, p) > 1.0 - 1e-9
    assert an.ccdf_offset_sub6(1e4 * BETA_D_SUB6 * nbt, p) < 1e-6
    grid = np.linspace(-20 * BETA_D_SUB6, 30 * BETA_D_SUB6 * nbt, 1000)
    vals = an.ccdf_offset_sub6(grid, p)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-15)


def test_offset_ccdf_matches_empirical():
    rng = np.random.default_rng(61)
    with_r, without_r = rayleigh_offset_samples(rng, 16, 100_000)
    zs = np.sort(with_r - without_r)
    ks = ks_distance(zs, an.ccdf_offset_sub6(zs, params_sub6(16)))
    assert ks <= 0.02   # measured 0.0174


def test_offset_ccdf_dominance_in_elements():
    z = np.linspace(-10 * BETA_D_SUB6, 500 * BETA_D_SUB6, 1000)
    prev = an.ccdf_offset_sub6(z, params_sub6(1))
    for n in (2, 4, 16, 64, 256):
        cur = an.ccdf_offset_sub6(z, params_sub6(n))
        assert np.all(cur >= prev - 1e-15)
        prev = cur


# ---------------------------------------------------------------------------
# small-N offset law at a fixed reflected power (secondary evaluator): the
# exact law of a fixed-variance Gaussian pair, which the engine does not sample

given_power = an._offset_ccdf_given_power


def given_power_sub6(z, n):
    """The sub6 reference UE's offset CCDF with the reflected power fixed at its mean N*beta_r."""
    return given_power(np.asarray(z) / BETA_D_SUB6, n * BETA_R_SUB6 / BETA_D_SUB6)


def test_offset_exact_fields_and_knee():
    # with beta_r = beta_d and N = 4 (power ratio t = 4) the knee works out
    # to (2 + sqrt 2)/4: the MGF pole quadratic
    # mu1 mu2 (1-rho) s^2 - (mu2-mu1) s - 1 with mu1 = 5, mu2 = 1, rho = 1/5
    # has roots (sqrt2 -+ 1)/2, and the positive-side mass is 1/(4 - 2 sqrt2).
    p = AnalyticParams(n_elements=4, beta_r=1.0, beta_d=1.0)
    assert an._mu1(p) == pytest.approx(5.0)
    assert offset_correlation(p) == pytest.approx(0.2)
    np.testing.assert_allclose(given_power(0.0, 4.0), (2 + math.sqrt(2)) / 4, rtol=1e-12)
    # continuity at the knee and the far tails
    assert abs(given_power(-1e-9, 4.0) - given_power(0.0, 4.0)) < 1e-8
    assert given_power(-40.0, 4.0) > 1.0 - 1e-9
    assert given_power(200.0, 4.0) < 1e-6
    grid = np.linspace(-30.0, 80.0, 1000)
    vals = given_power(grid, 4.0)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0) and np.all(np.diff(vals) <= 1e-15)


def test_offset_exact_is_the_correlated_pair_law():
    """2e6 samples of the jointly-Gaussian gain pair sit on the closed form.

    The pair (|h_d + r|^2, |h_d|^2) with Gaussian r is exactly the correlated
    exponential pair the small-N form describes, so the KS distance must sit
    at the sampling floor (DKW at 2e6 is ~0.001), unlike the wide-limit form.
    """
    rng = np.random.default_rng(7)
    count = 2_000_000
    n, beta = 4, 1.0
    h_d = np.sqrt(beta / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    r = np.sqrt(n * beta / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    zs = np.sort(np.abs(h_d + r) ** 2 - np.abs(h_d) ** 2)
    p = AnalyticParams(n_elements=n, beta_r=beta, beta_d=beta)
    assert ks_distance(zs, given_power(zs, n * 1.0)) < 0.0015   # measured 0.00051
    assert ks_distance(zs, an.ccdf_offset_sub6(zs, p)) > 0.015  # measured 0.021


def test_offset_exact_approaches_limit_form():
    p = params_sub6(16)
    nbt = 16 * float(p.beta_tilde[0])
    z = np.linspace(-8 * BETA_D_SUB6, 40 * BETA_D_SUB6 * (1 + nbt), 2001)
    gap = np.max(np.abs(given_power_sub6(z, 16) - an.ccdf_offset_sub6(z, p)))
    assert gap < 1e-5   # correlation ~1e-3 here; measured 1.3e-6
    # at order-one correlation the two genuinely differ
    p_small = AnalyticParams(n_elements=4, beta_r=1.0, beta_d=1.0)
    z = np.linspace(-8.0, 60.0, 2001)
    gap = np.max(np.abs(given_power(z, 4.0) - an.ccdf_offset_sub6(z, p_small)))
    assert gap > 0.01   # measured 0.0215


@pytest.mark.parametrize("n", [1, 2, 4])
def test_offset_finite_n_matches_reflected_cascade(n):
    """4e5 direct draws of h_d, f, g and random unit-modulus theta sit on the
    finite-N form at the sampling floor (DKW 99.9% at 4e5 is ~0.003), while
    the fixed-power form misses the spread of ||f||^2."""
    p = AnalyticParams(n_elements=n, beta_r=1.0, beta_d=1.0)
    with_r, without_r = rayleigh_offset_samples(np.random.default_rng(64), n, 400_000,
                                                beta_r=1.0, beta_d=1.0)
    zs = np.sort(with_r - without_r)
    assert ks_distance(zs, an.ccdf_offset_sub6_finite_n(zs, p)) < 0.003   # 0.0018/0.0016/0.0012
    assert ks_distance(zs, given_power(zs, n * 1.0)) > 0.03              # 0.090/0.058/0.038


def test_offset_finite_n_edges():
    # finite, within [0, 1] and non-increasing at max_elements, where the
    # textbook Gauss-Laguerre weights overflow
    p = params_sub6(1024)
    nbt = 1024 * float(p.beta_tilde[0])
    z = np.linspace(-8 * BETA_D_SUB6, 40 * BETA_D_SUB6 * (1 + nbt), 2001)
    vals = an.ccdf_offset_sub6_finite_n(z, p)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-15)
    # G/N concentrates as N grows, so the mixture closes on the fixed-power form
    gaps = []
    for n in (16, 64, 256, 1024):
        p = params_sub6(n)
        nbt = n * float(p.beta_tilde[0])
        z = np.linspace(-8 * BETA_D_SUB6, 40 * BETA_D_SUB6 * (1 + nbt), 2001)
        gaps.append(np.max(np.abs(an.ccdf_offset_sub6_finite_n(z, p)
                                  - given_power_sub6(z, n))))
    assert all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-3   # 1.4e-2 ... 2.3e-4
    with pytest.raises(ValueError):
        an.ccdf_offset_sub6_finite_n(0.0, params_sub6(0))


@pytest.mark.parametrize("shape", [1, 4, 64, 1024])
def test_gamma_quadrature_matches_tridiagonal_solver(shape):
    # the dense Jacobi matrix gives the Golub-Welsch pairs of scipy's
    # tridiagonal eigensolver
    from scipy.linalg import eigh_tridiagonal
    k = np.arange(an._GAMMA_NODES, dtype=float)
    want_x, want_v = eigh_tridiagonal(2.0 * k + shape, np.sqrt(k[1:] * (k[1:] + shape - 1.0)))
    x, w = an._gamma_quadrature(shape)
    np.testing.assert_allclose(x, want_x, rtol=1e-12)
    np.testing.assert_allclose(w, want_v[0] ** 2, rtol=0.0, atol=1e-14)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


def test_offset_correlation_reductions():
    assert offset_correlation(params_sub6(0)) == 1.0
    ratio = offset_correlation(params_sub6(128)) / offset_correlation(params_sub6(64))
    assert abs(ratio - 0.5) < 0.05


def test_offset_correlation_matches_sample():
    rng = np.random.default_rng(62)
    with_r, without_r = rayleigh_offset_samples(rng, 16, 1_000_000)
    sample = float(np.corrcoef(with_r, without_r)[0, 1])
    assert abs(sample - offset_correlation(params_sub6(16))) < 0.01


# ---------------------------------------------------------------------------
# sparse single-path regime

def test_sparse_inband_reduction_and_slope():
    p0 = params_mm(0)
    np.testing.assert_allclose(an.sumse_inband_mmwave_los(p0, 1e17),
                               math.log2(1.0 + BETA_D_MM * 1e17), rtol=1e-12)
    ns = np.array([1024, 2048, 4096, 8192])
    se = [an.sumse_inband_mmwave_los(params_mm(int(n)), 1e20) for n in ns]
    slope = np.polyfit(np.log2(ns), se, 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_sparse_inband_bounds_monte_carlo():
    # moderate SNR: the mean-gain bound on the double-Rayleigh product is
    # tight here and drifts open (toward 2*gamma_E/ln2 bits) at high SNR
    rng = np.random.default_rng(66)
    count, gamma = 400_000, 10.0 ** 17.0
    h_d = np.abs(np.sqrt(BETA_D_MM / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    a1 = np.abs(np.sqrt(BETA_F_MM / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    a2 = np.abs(np.sqrt(BETA_G_MM / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    mc = float(np.mean(np.log2(1.0 + (h_d + 64 * a1 * a2) ** 2 * gamma)))
    ana = an.sumse_inband_mmwave_los(params_mm(64), gamma)
    assert ana >= mc
    assert ana - mc < 0.3   # measured 0.0024


def test_sparse_oob_mixture_single_term_when_paths_cover_grid():
    p = params_mm(64, l_paths=128)
    np.testing.assert_allclose(an.sumse_oob_mmwave_los(p, 1e17),
                               math.log2(1.0 + (BETA_D_MM + 64 * BETA_R_MM) * 1e17),
                               rtol=1e-12)


def test_sparse_oob_mixture_bounds_trial_mean():
    """One round-robin engine trial lands just under the two-term mixture."""
    from irsoob.engine import budgets_for, run_trial, spawn_rngs
    from irsoob.channels import PathLossParams
    from irsoob.config import ExperimentSpec
    from irsoob.experiments import operator_params
    from irsoob.kernels import db_to_linear

    spec = ExperimentSpec(regime="mmwave_los", path_loss=PathLossParams(c0_db=-60.0),
                          n_sweep=(64,), gamma_db_sweep=(170.0,), l1=1, l2=8, slots=5000,
                          seed=77)
    rngs = spawn_rngs(77, 2)
    _, budget_x, budget_y = budgets_for(spec, rngs[0])
    snr = float(db_to_linear(170.0))
    data = run_trial(spec, rngs[1], 64, budget_x, budget_y)
    mc = float(np.mean(spectral_efficiency(data.gain_irs, snr)))
    ana = an.sumse_oob_mmwave_los(operator_params(spec, budget_y, 64), snr)
    assert abs(ana - mc) < 0.3   # measured gap 1.4e-4


def test_sparse_oob_low_snr_increment_doubles():
    # the reflector-attributable SE increment isolates the O(N) scaling the
    # direct path otherwise masks (beta_d ~ 64 beta_r in this geometry)
    for gamma in (1e14, 1e15):
        direct = math.log2(1.0 + BETA_D_MM * gamma)
        inc = [an.sumse_oob_mmwave_nlos(params_mm(n, l_paths=4), gamma) - direct
               for n in (64, 128)]
        assert abs(inc[1] / inc[0] - 2.0) < 0.01


def test_sparse_gain_cdf_zero_and_direct_dominance():
    p = params_mm(64, l_paths=5)
    assert an.cdf_oob_mmwave_los(0.0, p) == 0.0
    rho = np.geomspace(1e-2 * BETA_D_MM, 3.0 * (64 ** 2 / 5 * BETA_R_MM + BETA_D_MM), 1000)
    vals = an.cdf_oob_mmwave_los(rho, p)
    direct = 1.0 - np.exp(-rho / BETA_D_MM)
    assert np.all(vals <= direct + 1e-12)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-12)


def test_sparse_gain_cdf_matches_fresh_angle_ensemble():
    """1e5 draws with the angle sets redrawn every sample.

    Redrawing angles matters: the alignment weight is a per-geometry event,
    so pooling slots inside fixed-angle trials leaves too few effective
    draws of it for a distribution-level comparison.
    """
    rng = np.random.default_rng(46)
    n, l, count = 64, 5, 100_000
    idx_x = rng.integers(0, n, count)
    keys = rng.random((count, n))
    idx_y = np.argpartition(keys, l - 1, axis=1)[:, :l]
    match = np.any(idx_y == idx_x[:, None], axis=1)
    h_d = np.sqrt(BETA_D_MM / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    a1 = np.sqrt(BETA_F_MM / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    a2 = np.sqrt(BETA_G_MM / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    phase = np.exp(2j * np.pi * rng.random(count))
    gain = np.abs(h_d + np.where(match, (n / math.sqrt(l)) * a1 * a2 * phase, 0.0)) ** 2
    zs = np.sort(gain)
    # evaluating the quadrature CDF on sample quantiles keeps this fast; the
    # grid spacing adds at most 1/2000 to the reported distance
    pick = np.unique(np.linspace(0, count - 1, 2001).astype(int))
    theo = an.cdf_oob_mmwave_los(zs[pick], params_mm(n, l_paths=l))
    ks = max(np.max(np.abs(theo - pick / count)), np.max(np.abs(theo - (pick + 1) / count)))
    assert ks <= 0.02   # measured 0.0022


# ---------------------------------------------------------------------------
# matching-path counting

def test_matching_pmf_hand_case():
    np.testing.assert_allclose(an.matching_paths_pmf(2, 4, 0), 1 / 6, rtol=1e-12)
    np.testing.assert_allclose(an.matching_paths_pmf(2, 4, 1), 4 / 6, rtol=1e-12)
    np.testing.assert_allclose(an.matching_paths_pmf(2, 4, 2), 1 / 6, rtol=1e-12)
    assert an.matching_paths_pmf(2, 4, 3) == 0.0
    assert an.matching_paths_pmf(2, 4, -1) == 0.0


def test_matching_pmf_against_enumeration():
    # count overlaps of every L-subset of the grid with one fixed L-subset
    for l, n in ((2, 4), (3, 8), (4, 9)):
        fixed = set(range(l))
        total = math.comb(n, l)
        counts = {}
        for subset in itertools.combinations(range(n), l):
            i = len(fixed.intersection(subset))
            counts[i] = counts.get(i, 0) + 1
        for i in range(0, l + 1):
            np.testing.assert_allclose(an.matching_paths_pmf(l, n, i),
                                       counts.get(i, 0) / total, rtol=0, atol=1e-12)


def test_matching_pmf_normalization_and_sparse_limit():
    for l, n in ((2, 4), (5, 12), (64, 4096)):
        s = sum(an.matching_paths_pmf(l, n, i) for i in range(0, l + 1))
        np.testing.assert_allclose(s, 1.0, rtol=1e-9)
    # one matched path dominates when L << N and its odds are ~L^2/N
    assert abs(an.matching_paths_pmf(2, 1000, 1) - 4 / 1000) < 1e-4


def test_matching_pmf_matches_scipy_hypergeometric():
    from scipy.stats import hypergeom
    for l, n in ((1, 2), (2, 4), (3, 5), (5, 12), (8, 64), (64, 4096), (300, 512)):
        i = np.arange(0, l + 1)
        got = np.array([an.matching_paths_pmf(l, n, int(ii)) for ii in i])
        np.testing.assert_allclose(got, hypergeom.pmf(i, n, l, l), rtol=1e-10, atol=1e-300)


# ---------------------------------------------------------------------------
# sparse multipath regime

def test_sparse_multipath_branch_continuity():
    # the path-count branch at L = N: the counting sum collapses to a single
    # term that must equal the covered-grid closed form
    n = l = 8
    gamma = 1e17
    expect = sum(math.comb(l, i) * math.comb(n - l, l - i) / math.comb(n, l)
                 * math.log2(1.0 + (BETA_D_MM + i * (n * n / l / l) * BETA_R_MM) * gamma)
                 for i in range(max(0, 2 * l - n), l + 1))
    got = an.sumse_oob_mmwave_nlos(params_mm(n, l_paths=l), gamma)
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_sparse_multipath_single_path_consistency():
    # both sparse OOB forms describe the same law when only one path exists
    for n in (8, 32, 128):
        p = params_mm(n, l_paths=1)
        assert abs(an.sumse_oob_mmwave_nlos(p, 1e17) - an.sumse_oob_mmwave_los(p, 1e17)) < 0.1


def test_sparse_multipath_beats_no_reflector():
    for n in (4, 16, 64, 256):
        direct = math.log2(1.0 + BETA_D_MM * 1e17)
        for l in (1, 2, 4, 8):
            assert an.sumse_oob_mmwave_nlos(params_mm(n, l_paths=l), 1e17) >= direct - 1e-12


def test_sparse_multipath_peak_near_squared_path_count():
    # a budget where the aligned term dominates shows the interior optimum
    for l in (4, 8):
        gamma = 1e9 / l ** 2
        ses = {n: an.sumse_oob_mmwave_nlos(
                   AnalyticParams(n_elements=n, beta_r=1e-6, beta_d=1e-12, l_paths=l), gamma)
               for n in (2, 4, 8, 16, 32, 64, 128, 256, 512)}
        peak = max(ses, key=ses.get)
        assert l * l / 2 <= peak <= 2 * l * l


def test_sparse_multipath_inband_form():
    p = params_mm(32, l_paths=4)
    expect = math.log2(1.0 + (32 ** 2 * BETA_R_MM
                              + 32 * math.sqrt(math.pi * BETA_D_MM * BETA_R_MM)
                              + BETA_D_MM) * 1e17)
    np.testing.assert_allclose(an.sumse_inband_mmwave_nlos(p, 1e17), expect, rtol=1e-12)
    p0 = AnalyticParams(n_elements=0, beta_r=BETA_R_MM, beta_d=BETA_D_MM, l_paths=4)
    np.testing.assert_allclose(an.sumse_inband_mmwave_nlos(p0, 1e17),
                               math.log2(1.0 + BETA_D_MM * 1e17), rtol=1e-12)


# ---------------------------------------------------------------------------
# max-rate scheduling limit

def test_max_rate_reduces_at_q_e():
    p = params_sub6(64)
    np.testing.assert_allclose(an.mr_asymptotic_se(math.e, p, GAMMA_130),
                               an.sumse_oob_sub6(p, GAMMA_130), rtol=1e-12)
    with pytest.raises(ValueError):
        an.mr_asymptotic_se(0, p, GAMMA_130)


def test_max_rate_slope_and_monte_carlo():
    ses = [an.mr_asymptotic_se(100, params_sub6(n), 1e15) for n in (256, 512, 1024, 2048)]
    slope = np.polyfit([8, 9, 10, 11], ses, 1)[0]
    assert abs(slope - 1.0) < 0.05   # measured 0.9991

    # 100 i.i.d. UEs sharing the reference losses, best SE per slot
    rng = np.random.default_rng(52)
    slots, q_ues, n = 4000, 100, 64
    h_d = np.sqrt(BETA_D_SUB6 / 2) * (rng.standard_normal((slots, q_ues))
                                      + 1j * rng.standard_normal((slots, q_ues)))
    r = np.zeros((slots, q_ues), dtype=complex)
    for _ in range(n):
        f = (rng.standard_normal(slots) + 1j * rng.standard_normal(slots)) / math.sqrt(2)
        g = np.sqrt(BETA_R_SUB6 / 2) * (rng.standard_normal((slots, q_ues))
                                        + 1j * rng.standard_normal((slots, q_ues)))
        r += (f * np.exp(2j * np.pi * rng.random(slots)))[:, None] * g
    mc = float(np.mean(np.log2(1.0 + np.abs(h_d + r) ** 2 * GAMMA_130).max(axis=1)))
    assert abs(an.mr_asymptotic_se(100, params_sub6(64), GAMMA_130) - mc) < 0.3   # measured 0.075


# ---------------------------------------------------------------------------
# in-band decay bounds

def test_decay_bound_constants():
    p = AnalyticParams(n_elements=32, beta_r=1.0, beta_d=0.5)
    d = DecayBoundParams.from_params(p)
    np.testing.assert_allclose(d.c2, math.pi / math.sqrt(16.0 - math.pi ** 2), rtol=1e-12)
    np.testing.assert_allclose(d.alpha, 2 * 32 * (1.0 - math.pi ** 2 / 16.0), rtol=1e-12)
    np.testing.assert_allclose(d.eta, 32 * math.pi / 4.0, rtol=1e-12)


def test_inband_outage_bound_decays_and_holds():
    rho = (0.05 * math.sqrt(BETA_R_SUB6)) ** 2
    bounds = [an.inband_outage_bound(params_sub6(int(n))) for n in np.arange(4, 65, 4)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    slope = np.polyfit(np.arange(4, 65, 4), np.log(bounds), 1)[0]
    assert slope < 0

    for n in (16, 32, 64):
        rng = np.random.default_rng(40 + n)
        h_d = np.abs(np.sqrt(BETA_D_SUB6 / 2) * (rng.standard_normal(100_000)
                                                 + 1j * rng.standard_normal(100_000)))
        amp = h_d.copy()
        for _ in range(n):
            f = np.abs(rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) / math.sqrt(2)
            g = np.abs(np.sqrt(BETA_R_SUB6 / 2) * (rng.standard_normal(100_000)
                                                   + 1j * rng.standard_normal(100_000)))
            amp += f * g
        emp = float(np.mean(amp ** 2 <= rho))
        assert an.inband_outage_bound(params_sub6(n)) >= emp


def test_inband_offset_bound_grows_and_lower_bounds():
    vals = [an.inband_offset_ccdf_bound(2.0, AnalyticParams(n_elements=n, beta_r=1.0,
                                                            beta_d=0.5))
            for n in (8, 16, 32)]
    assert vals[0] > 0.9
    assert vals[0] < vals[1] < vals[2] <= 1.0
    assert vals[2] > 1.0 - 1e-6

    rng = np.random.default_rng(48)
    count, n = 20_000, 32
    h_d = np.abs(np.sqrt(0.5 / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    amp = h_d.copy()
    for _ in range(n):
        f = np.abs(rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2)
        g = np.abs(np.sqrt(1.0 / 2) * (rng.standard_normal(count) + 1j * rng.standard_normal(count)))
        amp += f * g
    offset = amp ** 2 - h_d ** 2
    p = AnalyticParams(n_elements=n, beta_r=1.0, beta_d=0.5)
    for rho in (0.5, 2.0, 10.0):
        emp = float(np.mean(offset > rho))
        assert an.inband_offset_ccdf_bound(rho, p) <= emp + 1e-12
    grid = np.linspace(0.0, 50.0, 1000)
    vals = an.inband_offset_ccdf_bound(grid, p)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
