"""Math-kernel tests: the integer cascade bin, tail integrals.

The steering-vector, grid and wrap checks pin the float angle oracles in
oracles.py that the cascade-bin check and the channel tests build on.

The tail integrals are the mmWave outage forms' I0 and its generalized upper
incomplete gamma at alpha = 1, both computed by analytics._exp_scaled_gamma1,
the package's one guarded quadrature. Their expected values were frozen from
independent brute-force trapezoid quadrature (recipes inline below), not from
the implementation under test; the exp-sinh rule is also held to the Bessel
closed form at a = 0 and to scipy's adaptive quadrature.
"""

import numpy as np
import pytest
from scipy import integrate, special

from irsoob import analytics
from irsoob.analytics import AnalyticParams, _exp_scaled_gamma1, cdf_oob_mmwave_los
from irsoob.kernels import cascade_bin, db_to_linear
from oracles import grid_index, principal_sine_wrap, resolvable_angles, steering_vector

# frozen oracle: np.trapezoid(exp(-(1/t + t)), t=arange(1, 60+1e-4, 1e-4));
# truncation tail below exp(-60)
I0_ORACLE_111 = 0.2075335234348288
# frozen oracle: np.trapezoid(exp(-t - 0.2/t), t=arange(0.5, 80, 1e-5))
GAMMA_ORACLE_1_05_02 = 0.5065426399037094


def i0_integral(x, c1, c2):
    """I0(x; c1, c2) = int_{c1}^inf exp(-t/c2 - x/t) dt, through its exp-scaled form."""
    return c2 * np.exp(-c1 / c2) * _exp_scaled_gamma1(c1 / c2, x / c2)


def gamma1(x, b):
    """Gamma(1, x; b) = int_x^inf exp(-t - b/t) dt."""
    return np.exp(-x) * _exp_scaled_gamma1(x, b)


def test_db_round_trip():
    assert db_to_linear(130.0) == pytest.approx(1e13)
    assert 10.0 * np.log10(db_to_linear(-27.3)) == pytest.approx(-27.3)


def test_steering_zero_angle():
    v = steering_vector(4, 0.0)
    np.testing.assert_allclose(v, np.full(4, 0.5 + 0j))


def test_steering_half_wavelength_alternation():
    v = steering_vector(2, -1.0)
    np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)


def test_steering_direct_formula():
    # entry n is exp(-i*pi*n*phi)/sqrt(N), evaluated by hand for N=3, phi=2/3
    expected = np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(-4j * np.pi / 3)]) / np.sqrt(3)
    np.testing.assert_allclose(steering_vector(3, 2.0 / 3.0), expected, atol=1e-15)


def test_steering_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        phi = float(rng.uniform(-1.0, 1.0 - 1e-9))
        assert np.linalg.norm(steering_vector(n, phi)) == pytest.approx(1.0, abs=1e-12)


def test_grid_steering_orthonormal():
    # distinct grid angles give exactly cancelling geometric sums
    for n in (2, 3, 8, 17, 64):
        angles = resolvable_angles(n)
        mat = np.stack([steering_vector(n, a) for a in angles])
        gram = np.abs(mat.conj() @ mat.T)
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)


def test_grid_index_inverts_grid():
    for n in (2, 5, 16, 501):
        angles = resolvable_angles(n)
        np.testing.assert_array_equal(grid_index(angles, n), np.arange(n))


@pytest.mark.parametrize("n", [2, 4, 64, 1024])
def test_cascade_bin_is_the_wrapped_sum_of_two_grid_angles(n):
    """For every pair of grid bins (a, b), the integer bin (a + b - N/2) mod N
    is the grid index of wrap(angle_a + angle_b), built in floats."""
    grid = resolvable_angles(n)
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    want = grid_index(principal_sine_wrap(grid[a] + grid[b]), n)
    np.testing.assert_array_equal(cascade_bin(a, b, n), want)


def test_wrap_branches():
    assert principal_sine_wrap(1.3) == pytest.approx(-0.7)
    assert principal_sine_wrap(0.0) == 0.0
    assert principal_sine_wrap(-1.5) == pytest.approx(0.5)


def test_wrap_idempotent_and_in_range():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2.0, 2.0 - 1e-12, 1000)
    w = principal_sine_wrap(x)
    assert np.all(w >= -1.0) and np.all(w < 1.0)
    np.testing.assert_array_equal(principal_sine_wrap(w), w)


def test_wrap_rejects_nonfinite():
    with pytest.raises(ValueError):
        principal_sine_wrap(np.nan)
    with pytest.raises(ValueError):
        principal_sine_wrap(np.inf)


def test_i0_zero_offset_closed_form():
    assert i0_integral(0.0, 2.0, 3.0) == pytest.approx(3.0 * np.exp(-2.0 / 3.0), rel=1e-12)


def test_i0_against_trapezoid_oracle():
    assert i0_integral(1.0, 1.0, 1.0) == pytest.approx(I0_ORACLE_111, rel=1e-7)
    assert _exp_scaled_gamma1(1.0, 1.0) == pytest.approx(np.e * I0_ORACLE_111, rel=1e-7)


def test_i0_decreasing_in_x():
    assert i0_integral(2.0, 1.0, 1.0) < i0_integral(1.0, 1.0, 1.0)


def test_i0_rejects_bad_domain():
    # the integral's one caller guards its domain: rho >= 0 and N >= 1
    p = AnalyticParams(n_elements=8, beta_r=1.0, beta_d=1.0, l_paths=2)
    with pytest.raises(ValueError):
        cdf_oob_mmwave_los(-1.0, p)
    with pytest.raises(ValueError):
        cdf_oob_mmwave_los(1.0, AnalyticParams(n_elements=0, beta_r=1.0, beta_d=1.0))


def test_quadrature_failure_names_its_arguments(monkeypatch):
    # two levels (steps 1/2 and 1/4) cannot certify 1e-8 relative accuracy
    monkeypatch.setattr(analytics, "_DE_LEVELS", 2)
    with pytest.raises(ArithmeticError, match=r"a=0\.5, b=0\.25"):
        _exp_scaled_gamma1(0.5, 0.25)
    # a vector call names its first failing pair
    with pytest.raises(ArithmeticError, match=r"a=0\.5, b=0\.25"):
        _exp_scaled_gamma1(0.5, np.array([0.25, 1.0, 4.0]))


def test_gamma_exponential_case():
    for x in (0.1, 0.5, 2.0, 7.0):
        assert gamma1(x, 0.0) == pytest.approx(np.exp(-x), rel=1e-12)


def test_gamma_against_trapezoid_oracle():
    got = gamma1(0.5, 0.2)
    assert got == pytest.approx(GAMMA_ORACLE_1_05_02, rel=1e-8)
    assert _exp_scaled_gamma1(0.5, 0.2) == pytest.approx(
        np.exp(0.5) * GAMMA_ORACLE_1_05_02, rel=1e-8)


def test_i0_gamma_change_of_variables():
    # the exp-scaled form substitutes t = a + s; undo it against a direct
    # quadrature of the unscaled integrand on [a, inf)
    for a, b in ((2.0 / 3.0, 0.7 / 3.0), (0.05, 1e-4), (2.0, 8.0)):
        direct, _ = integrate.quad(lambda t: np.exp(-t - b / t), a, np.inf, epsabs=0.0,
                                   epsrel=1e-12, limit=200)
        assert np.exp(-a) * _exp_scaled_gamma1(a, b) == pytest.approx(direct, rel=1e-8)


def test_gamma_derivative_in_b():
    # d/db Gamma(1, x; b) = -Gamma(0, x; b) = -int_x^inf exp(-t - b/t) / t dt
    x, b, h = 0.8, 0.4, 1e-5
    want, _ = integrate.quad(lambda t: -np.exp(-t - b / t) / t, x, np.inf, epsabs=0.0,
                             epsrel=1e-12, limit=200)
    assert (gamma1(x, b + h) - gamma1(x, b - h)) / (2 * h) == pytest.approx(want, rel=1e-5)


def test_exp_sinh_rule_against_bessel_closed_form():
    # int_0^inf exp(-s - b/s) ds = 2 sqrt(b) K1(2 sqrt(b)); k1e(z) = K1(z) e^z
    b = np.logspace(-14, 4, 73)
    z = 2.0 * np.sqrt(b)
    exact = z * special.k1e(z) * np.exp(-z)
    np.testing.assert_allclose(_exp_scaled_gamma1(0.0, b), exact, rtol=1e-12)
    assert _exp_scaled_gamma1(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_exp_sinh_rule_against_adaptive_quadrature():
    for a in np.logspace(-8, 8, 9):
        for b in np.logspace(-8, 4, 7):
            want, _ = integrate.quad(lambda s: np.exp(-s - b / (a + s)), 0.0, np.inf,
                                     epsabs=0.0, epsrel=1e-12, limit=200)
            assert _exp_scaled_gamma1(a, b) == pytest.approx(want, rel=1e-10), (a, b)


def test_exp_sinh_vector_call_equals_scalar_calls():
    a = np.array([0.0, 1e-6, 0.3, 2.0, 1e5])[:, None]
    b = np.concatenate([[0.0], np.logspace(-9, 6, 16)])[None, :]
    vector = _exp_scaled_gamma1(a, b)
    assert vector.shape == (5, 17)
    scalar = np.array([[_exp_scaled_gamma1(float(x), float(y)) for y in b[0]] for x in a[:, 0]])
    np.testing.assert_array_equal(vector, scalar)
    assert isinstance(_exp_scaled_gamma1(0.3, 2.0), float)


def test_exp_sinh_rule_certifies_the_whole_domain():
    a = np.concatenate([[0.0], np.logspace(-300, 300, 61)])[:, None]
    b = np.concatenate([[0.0], np.logspace(-300, 8, 45)])[None, :]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        values = _exp_scaled_gamma1(a, b)
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    assert np.all(values <= 1.0 + 1e-14)
    # b -> 0 or a -> inf leaves the exponential integral, which is 1
    np.testing.assert_allclose(values[:, 1], 1.0, rtol=1e-14)
    np.testing.assert_allclose(values[-1], 1.0, rtol=1e-14)
