"""Reflector-control tests: the co-phasing rule, effective channels, directional response."""

import warnings

import numpy as np
import pytest

from irsoob.channels import LinkBudget
from irsoob.irs import align, effective_channel, sparse_cascade, unit_phase
from oracles import correlation_response, resolvable_angles, sample_sub6, unit_phase_where


def _random_complex(rng, shape=()):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _cascade(kind, rng, n):
    """A random cascade of N elements: sub6 f * g, one on-grid LOS path, or
    L = 1..5 nlos paths on distinct grid angles."""
    if kind == "sub6":
        return _random_complex(rng, n) * _random_complex(rng, n)
    grid = resolvable_angles(n)
    l_paths = 1 if kind == "los" else int(rng.integers(1, min(n, 5) + 1))
    angles = grid[rng.choice(n, l_paths, replace=False)]
    return sparse_cascade(angles, _random_complex(rng, l_paths), n)


@pytest.mark.parametrize("kind", ["sub6", "los", "nlos"])
def test_aligned_channel_reaches_the_matched_magnitude(kind):
    """|effective_channel(h_d, c, align(h_d, c))| = |h_d| + sum_n |c_n|, the
    triangle-inequality ceiling of any unit-modulus configuration, exactly
    (rel 1e-12) and not just approximately, for each regime's cascade."""
    rng = np.random.default_rng({"sub6": 21, "los": 23, "nlos": 25}[kind])
    for _ in range(20):
        n = int(rng.integers(1, 40)) if kind == "sub6" else int(rng.choice([4, 16, 32, 64]))
        h_d = complex(_random_complex(rng))
        c = _cascade(kind, rng, n)
        want = abs(h_d) + np.sum(np.abs(c))
        assert abs(effective_channel(h_d, c, align(h_d, c))) == pytest.approx(want, rel=1e-12)


def test_sub6_aligned_case():
    c = np.ones(4) * np.ones(4)
    theta = align(1.0, c)
    np.testing.assert_allclose(theta, np.ones(4))
    assert abs(effective_channel(1.0, c, theta)) == pytest.approx(5.0)


def test_sub6_hand_case():
    # h_d = i, f = [1], g = [-1]: phase correction pi/2 - 0 - pi = -pi/2
    c = np.array([1.0]) * np.array([-1.0])
    theta = align(1j, c)
    assert theta[0] == pytest.approx(np.exp(-1j * np.pi / 2))
    assert abs(effective_channel(1j, c, theta)) == pytest.approx(2.0)


def test_sub6_beats_random_search():
    rng = np.random.default_rng(22)
    n = 6
    h_d = complex(rng.standard_normal(), rng.standard_normal())
    c = _random_complex(rng, n) * _random_complex(rng, n)
    best = abs(effective_channel(h_d, c, align(h_d, c)))
    rand_theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (10_000, n)))
    rand = np.abs(effective_channel(h_d, c, rand_theta))
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
            assert matched >= abs(effective_channel(h_d, f * g, thetas[s])) * (1.0 - 1e-12)


def test_sub6_zero_direct_convention():
    c = np.array([1j, -1.0]) * np.array([1.0, 1j])
    theta = align(0.0, c)
    assert abs(effective_channel(0.0, c, theta)) == pytest.approx(np.sum(np.abs(c)), rel=1e-12)


def test_sub6_shape_validation():
    # mismatched f and g, or a configuration of another length, are refused
    with pytest.raises(ValueError):
        align(1.0, np.ones(3) * np.ones(4))
    with pytest.raises(ValueError):
        effective_channel(1.0, np.ones(3), np.ones(4))


def test_los_aligned_case():
    n = 8
    c = sparse_cascade([0.0], [1.0], n)
    theta = align(1.0, c)
    np.testing.assert_allclose(theta, np.ones(n))
    assert abs(effective_channel(1.0, c, theta)) == pytest.approx(1.0 + n)


def test_los_beats_codebook_steering():
    rng = np.random.default_rng(24)
    n = 8
    grid = resolvable_angles(n)
    h_d = complex(rng.standard_normal(), rng.standard_normal())
    c = sparse_cascade([grid[3]], [complex(rng.standard_normal(), rng.standard_normal())], n)
    best = abs(effective_channel(h_d, c, align(h_d, c)))
    for steer in grid:
        alt = np.exp(-1j * np.pi * np.arange(n) * steer)
        assert best >= abs(effective_channel(h_d, c, alt)) - 1e-12


def test_nlos_symmetric_pair_is_real_pattern():
    # equal gains at +/- omega: the cascade is sqrt(2) cos(pi*n*omega), so the
    # configuration is the real sign pattern with ties falling back to +1
    n = 8
    theta = align(1.0, sparse_cascade([0.25, -0.25], [1.0, 1.0], n))
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
    c = sparse_cascade(angles, _random_complex(rng, l_paths), n)
    h_d = complex(rng.standard_normal(), rng.standard_normal())
    best = abs(effective_channel(h_d, c, align(h_d, c)))
    rand_theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (10_000, n)))
    assert best >= np.abs(effective_channel(h_d, c, rand_theta)).max()


def test_nlos_input_validation():
    with pytest.raises(ValueError):
        sparse_cascade(np.array([0.0, 0.5]), np.array([1.0]), 8)
    with pytest.raises(ValueError):
        sparse_cascade(np.array([]), np.array([]), 8)
    with pytest.raises(ValueError):
        sparse_cascade(np.array([0.0]), 1.0, 8)


def test_sparse_cascade_is_the_per_path_sum_and_broadcasts():
    """sparse_cascade is (1/sqrt(L)) sum_l gain_l exp(i*pi*n*angle_l), and a
    (T, L) stack of gains gives the (T, N) stack of per-row cascades, each of
    which effective_channel takes against its own configuration."""
    rng = np.random.default_rng(28)
    n, l_paths, rows = 12, 3, 5
    angles = resolvable_angles(n)[[1, 4, 9]]
    gains = _random_complex(rng, (rows, l_paths))
    got = sparse_cascade(angles, gains, n)
    assert got.shape == (rows, n)
    for t in range(rows):
        want = sum(gains[t, l] * np.exp(1j * np.pi * np.arange(n) * angles[l])
                   for l in range(l_paths)) / np.sqrt(l_paths)
        np.testing.assert_allclose(got[t], want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sparse_cascade(angles, gains[t], n), got[t], rtol=0, atol=1e-15)
    h_d = _random_complex(rng, rows)
    theta = align(h_d[:, None], got)
    batch = effective_channel(h_d, got, theta)
    assert batch.shape == (rows,)
    for t in range(rows):
        assert batch[t] == pytest.approx(effective_channel(h_d[t], got[t], theta[t]), rel=1e-14)


def test_effective_gain_matches_coherent_square():
    rng = np.random.default_rng(27)
    budget = LinkBudget(beta_f=1.0, beta_g=np.array([1.0]), beta_d=np.array([1.0]))
    ch = sample_sub6(rng, 12, budget, slots=1)
    h_d, c = ch.h_d[0, 0], ch.f[0] * ch.g[0, 0]
    eff = effective_channel(h_d, c, align(h_d, c))
    want = (abs(h_d) + np.sum(np.abs(c))) ** 2
    assert abs(eff) ** 2 == pytest.approx(want, rel=1e-12)


def test_effective_no_reflector_gain():
    h = effective_channel(0.3 - 0.4j, np.empty(0), np.empty(0))
    assert abs(h) ** 2 == pytest.approx(0.25)


def test_effective_orthogonal_paths_drop_out():
    # steering at path 1 leaves grid-orthogonal paths with exactly zero response
    n = 64
    grid = resolvable_angles(n)
    angles = grid[[10, 30, 50]]
    gains = np.array([1.0 + 0.5j, -2.0, 0.7j])
    h_d = 0.2 + 0.1j
    theta = align(h_d, sparse_cascade(angles[:1], gains[:1], n))
    got = effective_channel(h_d, sparse_cascade(angles, gains, n), theta)
    # same channel with paths 2,3 deleted; gain rescaled for the L=1 prefactor
    only_first = effective_channel(h_d, sparse_cascade(angles[:1], gains[:1] / np.sqrt(3.0), n),
                                   theta)
    assert got == pytest.approx(only_first, rel=1e-10)


def test_unit_phase_resolves_zero_to_one():
    v = np.array([3.0 - 4.0j, 0.0, -2.0, 1e-300j])
    np.testing.assert_allclose(unit_phase(v), [0.6 - 0.8j, 1.0, -1.0, 1j], rtol=0, atol=1e-15)
    assert unit_phase(v)[1] == 1.0
    assert unit_phase(0j) == 1.0
    # a zero matched sum falls back to the direct path's phase
    theta = align(1j, sparse_cascade([0.5], [0.0], 4))
    np.testing.assert_array_equal(theta, np.full(4, 1j))
    # and a vanishing direct path contributes phase 0
    c = sparse_cascade([0.5], [1.0], 4)
    np.testing.assert_array_equal(align(0.0, c), unit_phase(np.conj(c)))


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
        sub6 = _random_complex(rng, n) * _random_complex(rng, n)
        angles = grid[rng.choice(n, 4, replace=False)]
        gains = _random_complex(rng, 4)
        for c in (sub6, sparse_cascade(angles, gains, n), sparse_cascade(angles[:1], gains[:1], n)):
            np.testing.assert_allclose(np.abs(align(h_d, c)), 1.0, atol=1e-12)
