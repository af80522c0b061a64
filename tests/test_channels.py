"""Geometry, path-loss, and fading-draw tests.

The calibration constants below were computed by hand from the deployment
coordinates and the power law (hypot + 10^(c0/10) * d^-alpha), then frozen.
"""

import time

import numpy as np
import pytest

from irsoob.channels import (
    LinkBudget,
    NodeGeometry,
    PathLossParams,
    complex_normal,
    draw_ue_positions,
    link_budget,
    mmwave_angle_bins,
    path_loss,
)
from oracles import (grid_index, mmwave_angles, mmwave_vector, resolvable_angles, sample_mmwave,
                     sample_sub6)

# reference UE at (1000, 1000), in-band BS at (0, 50), reflector at (1025, 1025)
BETA_F_REF = 4.996876951905058e-10   # 1e-3 / hypot(1025, 975)^2
BETA_G_REF = 8e-07                   # 1e-3 / hypot(25, 25)^2
BETA_D_REF = 7.439084686698022e-18   # 1e-3 / hypot(1000, 950)^4.5


def unit_budget(n_ues=1):
    return LinkBudget(beta_f=1.0, beta_g=np.ones(n_ues), beta_d=np.ones(n_ues))


def test_path_loss_reference_distance():
    p = PathLossParams()
    assert path_loss(p, 1.0, p.alpha_bs_irs) == pytest.approx(1e-3)


def test_path_loss_formula_values():
    p = PathLossParams()
    assert path_loss(p, 10.0, p.alpha_bs_irs) == pytest.approx(1e-5)
    pm = PathLossParams(c0_db=-60.0)
    assert path_loss(pm, 100.0, pm.alpha_direct) == pytest.approx(1e-15)


def test_path_loss_rejects_inside_reference():
    with pytest.raises(ValueError):
        path_loss(PathLossParams(), 0.5, PathLossParams().alpha_direct)


def test_path_loss_param_validation():
    with pytest.raises(ValueError):
        PathLossParams(c0_db=3.0)
    with pytest.raises(ValueError):
        PathLossParams(alpha_direct=1.5)


def test_geometry_rejects_bad_region():
    with pytest.raises(ValueError):
        NodeGeometry(ue_region=((100.0, 0.0), (0.0, 100.0)))


def test_one_point_region_pins_every_ue():
    """A region whose corners coincide is accepted, while reversed corners
    are still refused; the drop then returns exactly that point for every UE."""
    point = ((1000.0, 1000.0), (1000.0, 1000.0))
    geo = NodeGeometry(ue_region=point)
    for reversed_corners in (((1000.0, 1000.0), (999.0, 1000.0)),
                             ((1000.0, 1000.0), (1000.0, 999.0))):
        with pytest.raises(ValueError, match="ue_region corners must be ordered"):
            NodeGeometry(ue_region=reversed_corners)
    pos = draw_ue_positions(np.random.default_rng(2), geo, 7, d0=1.0)
    np.testing.assert_array_equal(pos, np.full((7, 2), 1000.0))


def test_link_budget_calibration():
    geo = NodeGeometry()
    budget = link_budget(geo, PathLossParams(), geo.bs_inband, np.array([[1000.0, 1000.0]]))
    assert budget.beta_f == pytest.approx(BETA_F_REF, rel=1e-12)
    assert budget.beta_g[0] == pytest.approx(BETA_G_REF, rel=1e-12)
    assert budget.beta_d[0] == pytest.approx(BETA_D_REF, rel=1e-12)
    assert budget.beta_r[0] == pytest.approx(BETA_F_REF * BETA_G_REF, rel=1e-12)


def test_ue_drop_stays_in_region_and_clear_of_nodes():
    rng = np.random.default_rng(3)
    geo = NodeGeometry()
    pos = draw_ue_positions(rng, geo, 500, d0=1.0)
    (x0, y0), (x1, y1) = geo.ue_region
    assert np.all((pos[:, 0] >= x0) & (pos[:, 0] <= x1))
    assert np.all((pos[:, 1] >= y0) & (pos[:, 1] <= y1))
    for node in (geo.bs_inband, geo.bs_oob, geo.irs):
        assert np.all(np.hypot(pos[:, 0] - node[0], pos[:, 1] - node[1]) > 1.0)


def test_ue_drop_without_an_admissible_point_raises_promptly():
    """With d0 = 1000 every point of the default region lies within d0 of the
    reflector, so no round can keep a UE: the drop names ue_region and d0
    within a second instead of looping forever."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"ue_region.*d0 = 1000"):
        draw_ue_positions(np.random.default_rng(4), NodeGeometry(), 10, d0=1000.0)
    assert time.perf_counter() - start < 1.0


def test_ue_drop_replay():
    geo = NodeGeometry()
    a = draw_ue_positions(np.random.default_rng(9), geo, 10, d0=1.0)
    b = draw_ue_positions(np.random.default_rng(9), geo, 10, d0=1.0)
    np.testing.assert_array_equal(a, b)


# The dense per-element Rayleigh draws are a test oracle (oracles.sample_sub6):
# the engine samples the reduced laws, and the engine tests hold those laws
# to this construction. These pin the oracle's own channel law.

def test_sub6_second_moment():
    rng = np.random.default_rng(4)
    ch = sample_sub6(rng, 1, unit_budget(), slots=1_000_000)
    assert np.mean(np.abs(ch.f) ** 2) == pytest.approx(1.0, abs=0.01)


def test_sub6_envelope_mean():
    rng = np.random.default_rng(5)
    ch = sample_sub6(rng, 1, unit_budget(), slots=1_000_000)
    assert np.mean(np.abs(ch.f)) == pytest.approx(np.sqrt(np.pi / 4.0), abs=0.005)


def test_sub6_cross_independence():
    rng = np.random.default_rng(6)
    ch = sample_sub6(rng, 1, unit_budget(), slots=200_000)
    f = ch.f[:, 0]
    g = ch.g[:, 0, 0]
    corr = np.mean(f * np.conj(g))  # both zero-mean
    assert abs(corr) < 0.01


def test_sub6_moments_track_budget():
    # second moments equal the assigned path losses, within 3 sigma at 1e5 draws
    rng = np.random.default_rng(7)
    budget = LinkBudget(beta_f=0.7, beta_g=np.array([2.0, 0.3]), beta_d=np.array([1.1, 0.05]))
    ch = sample_sub6(rng, 4, budget, slots=100_000)
    n = 100_000
    for sample, want in ((np.abs(ch.f) ** 2, 0.7),
                         (np.abs(ch.g[:, 0, :]) ** 2, 2.0),
                         (np.abs(ch.g[:, 1, :]) ** 2, 0.3),
                         (np.abs(ch.h_d[:, 1]) ** 2, 0.05)):
        sigma = want / np.sqrt(sample.size)  # |h|^2 is exponential: std = mean
        assert abs(np.mean(sample) - want) < 3 * sigma


def test_sub6_replay_and_shapes():
    budget = unit_budget(3)
    a = sample_sub6(np.random.default_rng(11), 8, budget, slots=5)
    b = sample_sub6(np.random.default_rng(11), 8, budget, slots=5)
    np.testing.assert_array_equal(a.f, b.f)
    np.testing.assert_array_equal(a.g, b.g)
    np.testing.assert_array_equal(a.h_d, b.h_d)
    assert a.f.shape == (5, 8) and a.g.shape == (5, 3, 8) and a.h_d.shape == (5, 3)


def test_sub6_no_reflector_edge():
    ch = sample_sub6(np.random.default_rng(12), 0, unit_budget(2), slots=1)
    assert ch.f[0].shape == (0,) and ch.g[0].shape == (2, 0)
    with pytest.raises(ValueError):
        sample_sub6(np.random.default_rng(0), -1, unit_budget(), slots=1)


def test_mmwave_single_path_cascade():
    rng = np.random.default_rng(13)
    ch = sample_mmwave(rng, 8, 1, 1, unit_budget(), slots=1)
    assert ch.cascade_angles.shape == (1, 1)
    raw = ch.bs_angles[0] + ch.ue_angles[0, 0]
    want = raw - 2.0 if raw >= 1.0 else raw + 2.0 if raw < -1.0 else raw
    assert ch.cascade_angles[0, 0] == pytest.approx(want)
    assert ch.cascade_gains[0, 0, 0] == ch.bs_gains[0, 0] * ch.ue_gains[0, 0, 0]


def test_mmwave_feeder_norm_monte_carlo():
    # E||f||^2 = N under unit per-path loss; 3000 reconstructions via the dense form
    rng = np.random.default_rng(14)
    budget = unit_budget()
    total = 0.0
    for _ in range(3000):
        ch = sample_mmwave(rng, 16, 2, 1, budget, slots=1)
        f = mmwave_vector(16, ch.bs_angles, ch.bs_gains[0])
        total += np.sum(np.abs(f) ** 2)
    assert total / 3000 == pytest.approx(16.0, abs=0.5)


def test_mmwave_angles_on_grid():
    rng = np.random.default_rng(15)
    n = 32
    grid = resolvable_angles(n)
    ch = sample_mmwave(rng, n, 3, 4, unit_budget(5), slots=1)
    for ang in np.concatenate([ch.bs_angles, ch.ue_angles.ravel(), ch.cascade_angles.ravel()]):
        assert np.min(np.abs(grid - ang)) < 1e-12
    assert np.all(ch.cascade_angles >= -1.0) and np.all(ch.cascade_angles < 1.0)
    # grid_index round-trips the wrapped cascade
    idx = grid_index(ch.cascade_angles, n)
    np.testing.assert_allclose(grid[idx], ch.cascade_angles, atol=1e-12)
    # the package's integer bins are the same draws: its cascade bins are the
    # wrapped sums' grid indices, and it leaves the generator where the
    # oracle's feeder and per-UE draws do
    rng = np.random.default_rng(15)
    cascade = mmwave_angle_bins(rng, n, 3, 4, 5)
    np.testing.assert_array_equal(cascade, idx)
    assert cascade.dtype.kind == "i"
    replay = np.random.default_rng(15)
    mmwave_angles(replay, n, 3, 4, 5)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_mmwave_distinct_angles_when_grid_allows():
    rng = np.random.default_rng(16)
    for _ in range(20):
        ch = sample_mmwave(rng, 8, 5, 8, unit_budget(2), slots=1)
        assert len(np.unique(ch.bs_angles)) == 5
        for q in range(2):
            assert len(np.unique(ch.ue_angles[q])) == 8


def test_mmwave_cascade_count_and_order():
    rng = np.random.default_rng(17)
    ch = sample_mmwave(rng, 16, 2, 3, unit_budget(), slots=1)
    assert ch.cascade_angles.shape == (1, 6)
    # UE-side path index runs fastest
    gains = (ch.bs_gains[0, :, None] * ch.ue_gains[0, 0, None, :]).ravel()
    np.testing.assert_array_equal(ch.cascade_gains[0, 0], gains)


def test_mmwave_cascade_second_moment():
    rng = np.random.default_rng(18)
    budget = LinkBudget(beta_f=0.5, beta_g=np.array([3.0]), beta_d=np.array([1.0]))
    ch = sample_mmwave(rng, 64, 2, 2, budget, slots=50_000)
    m = np.mean(np.abs(ch.cascade_gains) ** 2)
    # |gamma1*gamma2|^2 has mean beta_f*beta_g and std sqrt(3)*mean
    assert m == pytest.approx(1.5, abs=3 * np.sqrt(3) * 1.5 / np.sqrt(200_000))


def test_mmwave_rejects_bad_shape():
    with pytest.raises(ValueError):
        mmwave_angle_bins(np.random.default_rng(0), 15, 1, 1, 1)
    with pytest.raises(ValueError):
        mmwave_angle_bins(np.random.default_rng(0), 16, 0, 1, 1)


def test_mmwave_replay():
    budget = unit_budget(2)
    a = sample_mmwave(np.random.default_rng(19), 16, 2, 2, budget, slots=3)
    b = sample_mmwave(np.random.default_rng(19), 16, 2, 2, budget, slots=3)
    np.testing.assert_array_equal(a.cascade_gains, b.cascade_gains)
    np.testing.assert_array_equal(a.cascade_angles, b.cascade_angles)


def test_complex_normal_variance_vectorized():
    rng = np.random.default_rng(20)
    draws = complex_normal(rng, np.array([1.0, 4.0]), (100_000, 2))
    var = np.mean(np.abs(draws) ** 2, axis=0)
    assert var[0] == pytest.approx(1.0, abs=0.03)
    assert var[1] == pytest.approx(4.0, abs=0.12)


@pytest.mark.parametrize("variance", [
    2.5,                                   # scalar
    np.array([1.0, 4.0, 0.25]),            # one per UE, shape (Q,)
    np.arange(1.0, 41.0)[:, None],         # one per slot, shape (slots, 1)
], ids=["scalar", "per_ue", "per_slot"])
def test_complex_normal_pins_the_two_real_blocks_bit_for_bit(variance):
    size = (40, 3)
    rng = np.random.default_rng(21)
    got = complex_normal(rng, variance, size)
    replay = np.random.default_rng(21)
    z1 = replay.standard_normal(size)
    z2 = replay.standard_normal(size)
    want = np.sqrt(np.asarray(variance) / 2.0) * (z1 + 1j * z2)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.standard_normal() == replay.standard_normal()   # same stream position
