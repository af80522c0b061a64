"""Reflector-control tests: optimal phases, effective channels, directional response."""

import warnings

import numpy as np
import pytest

from irsoob.channels import LinkBudget
from irsoob.irs import (
    correlation_response,
    effective_channel_mmwave,
    effective_channel_sub6,
    optimize_mmwave_los,
    optimize_mmwave_nlos,
    optimize_sub6,
    unit_phase,
)
from irsoob.kernels import resolvable_angles
from oracles import sample_sub6, unit_phase_where


def test_sub6_aligned_case():
    theta = optimize_sub6(1.0, np.ones(4), np.ones(4))
    np.testing.assert_allclose(theta, np.ones(4))
    h = effective_channel_sub6(1.0, np.ones(4), np.ones(4), theta)
    assert abs(h) == pytest.approx(5.0)


def test_sub6_hand_case():
    # h_d = i, f = [1], g = [-1]: phase correction pi/2 - 0 - pi = -pi/2
    theta = optimize_sub6(1j, np.array([1.0]), np.array([-1.0]))
    assert theta[0] == pytest.approx(np.exp(-1j * np.pi / 2))
    h = effective_channel_sub6(1j, np.array([1.0]), np.array([-1.0]), theta)
    assert abs(h) == pytest.approx(2.0)


def test_sub6_coherent_sum_identity():
    # optimizer achieves |h_d| + sum |f_n g_n| exactly, not just approximately
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        h_d = complex(rng.standard_normal(), rng.standard_normal())
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = effective_channel_sub6(h_d, f, g, optimize_sub6(h_d, f, g))
        want = abs(h_d) + np.sum(np.abs(f * g))
        assert abs(h) == pytest.approx(want, rel=1e-12)


def test_sub6_beats_random_search():
    rng = np.random.default_rng(22)
    n = 6
    h_d = complex(rng.standard_normal(), rng.standard_normal())
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    best = abs(effective_channel_sub6(h_d, f, g, optimize_sub6(h_d, f, g)))
    rand_theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (10_000, n)))
    rand = np.abs(h_d + rand_theta @ (f * g))
    assert best >= rand.max()


def test_matched_gain_upper_bounds_any_configuration():
    """Triangle inequality: on the same channels, the matched amplitude
    |h_d| + sum |f_n||g_qn| (the ceiling the engine reports as bf_gain) is at
    least the effective channel of any unit-modulus configuration."""
    rng = np.random.default_rng(26)
    budget = LinkBudget(beta_f=0.7, beta_g=np.array([2.0, 0.3, 1.0]),
                        beta_d=np.array([1.1, 0.05, 3.0]))
    ch = sample_sub6(rng, 8, budget, slots=200)
    thetas = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (200, 8)))
    for s in range(200):
        for q in range(budget.n_ues):
            h_d, f, g = ch.h_d[s, q], ch.f[s], ch.g[s, q]
            matched = abs(h_d) + np.sum(np.abs(f) * np.abs(g))
            assert matched >= abs(effective_channel_sub6(h_d, f, g, thetas[s])) * (1.0 - 1e-12)


def test_sub6_zero_direct_convention():
    f = np.array([1j, -1.0])
    g = np.array([1.0, 1j])
    theta = optimize_sub6(0.0, f, g)
    h = effective_channel_sub6(0.0, f, g, theta)
    assert abs(h) == pytest.approx(np.sum(np.abs(f * g)), rel=1e-12)


def test_sub6_shape_validation():
    with pytest.raises(ValueError):
        optimize_sub6(1.0, np.ones(3), np.ones(4))


def test_los_aligned_case():
    n = 8
    theta = optimize_mmwave_los(1.0, 1.0, 0.0, n)
    np.testing.assert_allclose(theta, np.ones(n))
    h = effective_channel_mmwave(1.0, np.array([0.0]), np.array([1.0]), theta)
    assert abs(h) == pytest.approx(1.0 + n)


def test_los_gain_identity_random():
    # |h_eff| = |h_d| + N|gamma| for any single-path realization
    rng = np.random.default_rng(23)
    n = 32
    grid = resolvable_angles(n)
    for _ in range(10):
        h_d = complex(rng.standard_normal(), rng.standard_normal())
        gamma = complex(rng.standard_normal(), rng.standard_normal())
        omega = grid[rng.integers(n)]
        theta = optimize_mmwave_los(h_d, gamma, omega, n)
        np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
        h = effective_channel_mmwave(h_d, np.array([omega]), np.array([gamma]), theta)
        assert abs(h) == pytest.approx(abs(h_d) + n * abs(gamma), rel=1e-12)


def test_los_beats_codebook_steering():
    rng = np.random.default_rng(24)
    n = 8
    grid = resolvable_angles(n)
    h_d = complex(rng.standard_normal(), rng.standard_normal())
    gamma = complex(rng.standard_normal(), rng.standard_normal())
    omega = grid[3]
    best = abs(effective_channel_mmwave(
        h_d, np.array([omega]), np.array([gamma]),
        optimize_mmwave_los(h_d, gamma, omega, n)))
    for steer in grid:
        alt = np.exp(-1j * np.pi * np.arange(n) * steer)
        got = abs(effective_channel_mmwave(h_d, np.array([omega]), np.array([gamma]), alt))
        assert best >= got - 1e-12


def test_nlos_single_path_reduces_to_los():
    rng = np.random.default_rng(25)
    n = 16
    grid = resolvable_angles(n)
    for _ in range(10):
        h_d = complex(rng.standard_normal(), rng.standard_normal())
        gamma = complex(rng.standard_normal(), rng.standard_normal())
        omega = grid[rng.integers(n)]
        a = optimize_mmwave_nlos(h_d, np.array([omega]), np.array([gamma]), n)
        b = optimize_mmwave_los(h_d, gamma, omega, n)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_nlos_symmetric_pair_is_real_pattern():
    # equal gains at +/- omega: the matching sum is 2*cos(pi*n*omega), so the
    # configuration is the real sign pattern with ties falling back to +1
    n = 8
    theta = optimize_mmwave_nlos(1.0, np.array([0.25, -0.25]), np.array([1.0, 1.0]), n)
    np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
    np.testing.assert_allclose(theta.imag, 0.0, atol=1e-12)
    want = np.sign(np.cos(np.pi * np.arange(n) * 0.25))
    want[want == 0] = 1.0
    np.testing.assert_allclose(theta.real, want, atol=1e-12)


def test_nlos_beats_random_search():
    rng = np.random.default_rng(26)
    n, l_paths = 16, 3
    grid = resolvable_angles(n)
    angles = grid[rng.choice(n, l_paths, replace=False)]
    gains = rng.standard_normal(l_paths) + 1j * rng.standard_normal(l_paths)
    h_d = complex(rng.standard_normal(), rng.standard_normal())
    theta = optimize_mmwave_nlos(h_d, angles, gains, n)
    best = abs(effective_channel_mmwave(h_d, angles, gains, theta))
    rand_theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (10_000, n)))
    phases = np.exp(1j * np.pi * np.outer(angles, np.arange(n)))
    rand = np.abs(h_d + n / np.sqrt(l_paths) * (rand_theta @ phases.T / n) @ gains)
    assert best >= rand.max()


def test_nlos_input_validation():
    with pytest.raises(ValueError):
        optimize_mmwave_nlos(1.0, np.array([0.0, 0.5]), np.array([1.0]), 8)
    with pytest.raises(ValueError):
        optimize_mmwave_nlos(1.0, np.array([]), np.array([]), 8)


def test_effective_gain_matches_coherent_square():
    rng = np.random.default_rng(27)
    budget = LinkBudget(beta_f=1.0, beta_g=np.array([1.0]), beta_d=np.array([1.0]))
    ch = sample_sub6(rng, 12, budget, slots=1)
    h_d, f, g = ch.h_d[0, 0], ch.f[0], ch.g[0, 0]
    theta = optimize_sub6(h_d, f, g)
    eff = effective_channel_sub6(h_d, f, g, theta)
    want = (abs(h_d) + np.sum(np.abs(f * g))) ** 2
    assert abs(eff) ** 2 == pytest.approx(want, rel=1e-12)


def test_effective_no_reflector_gain():
    h = effective_channel_sub6(0.3 - 0.4j, np.empty(0), np.empty(0), np.empty(0))
    assert abs(h) ** 2 == pytest.approx(0.25)


def test_effective_orthogonal_paths_drop_out():
    # steering at path 1 leaves grid-orthogonal paths with exactly zero response
    n = 64
    grid = resolvable_angles(n)
    angles = grid[[10, 30, 50]]
    gains = np.array([1.0 + 0.5j, -2.0, 0.7j])
    h_d = 0.2 + 0.1j
    theta = optimize_mmwave_los(h_d, gains[0], angles[0], n)
    got = effective_channel_mmwave(h_d, angles, gains, theta)
    # same channel with paths 2,3 deleted; gain rescaled for the L=1 prefactor
    only_first = effective_channel_mmwave(h_d, angles[:1], gains[:1] / np.sqrt(3.0), theta)
    assert got == pytest.approx(only_first, rel=1e-10)


def test_unit_phase_resolves_zero_to_one():
    v = np.array([3.0 - 4.0j, 0.0, -2.0, 1e-300j])
    np.testing.assert_allclose(unit_phase(v), [0.6 - 0.8j, 1.0, -1.0, 1j], rtol=0, atol=1e-15)
    assert unit_phase(v)[1] == 1.0
    assert unit_phase(0j) == 1.0
    # a zero matched sum falls back to the direct path's phase
    theta = optimize_mmwave_los(1j, 0.0, 0.5, 4)
    np.testing.assert_allclose(theta, np.exp(-1j * np.pi * np.arange(4) * 0.5), atol=1e-15)


def test_unit_phase_equals_the_two_pass_form_bit_for_bit():
    """The one-division form gives the same bits as the np.where form of
    oracles.py, planted exact zeros (of either sign) included: into a fresh
    array, into a caller's buffer and in place over its input, and with no
    warning from the zero entries."""
    rng = np.random.default_rng(41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in [(128, 1024), (7,), (3, 5, 9)]:
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            v.flat[::5] = 0.0
            v.flat[2::11] = complex(-0.0, -0.0)
            v.real.flat[1::7] = -0.0
            for values in (v, v.real):
                want = unit_phase_where(values)
                buffer = np.full_like(want, np.nan)
                aliased = values.copy()
                for got in (unit_phase(values), unit_phase(values, out=buffer),
                            unit_phase(aliased, out=aliased)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                assert unit_phase(values, out=buffer) is buffer
        for out in (None, np.full((), np.nan, dtype=complex)):
            got, want = unit_phase(0j, out=out), unit_phase_where(0j)
            assert got.shape == want.shape == ()
            assert got.tobytes() == want.tobytes()


def test_response_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        correlation_response(rng, 64, (0.0,), 0.0, trials=99)


def test_response_single_path_peak_is_one():
    rng = np.random.default_rng(29)
    r = correlation_response(rng, 500, (0.54,), 0.54, trials=300)
    assert r == pytest.approx(1.0, abs=0.02)


def test_response_two_path_peaks():
    # peaks of the root-mean-square response sit near 1/sqrt(2)
    rng = np.random.default_rng(1)
    for nu in (-0.23, 0.54):
        r = correlation_response(rng, 500, (-0.23, 0.54), nu, trials=1000)
        assert r == pytest.approx(1.0 / np.sqrt(2.0), abs=0.05)


def test_response_off_peak_floor():
    rng = np.random.default_rng(11)
    angles = (-0.6, 0.06, 0.54)
    for nu in (0.3, -0.9):
        a = correlation_response(rng, 500, angles, nu, trials=400)
        assert a <= 0.05


def test_unit_modulus_everywhere():
    rng = np.random.default_rng(31)
    n = 24
    grid = resolvable_angles(n)
    for _ in range(10):
        h_d = complex(rng.standard_normal(), rng.standard_normal())
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(np.abs(optimize_sub6(h_d, f, g)), 1.0, atol=1e-12)
        angles = grid[rng.choice(n, 4, replace=False)]
        gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(
            np.abs(optimize_mmwave_nlos(h_d, angles, gains, n)), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(optimize_mmwave_los(h_d, gains[0], angles[0], n)), 1.0, atol=1e-12)
