"""Simulation-engine tests: schedulers, empirical distributions, and full traces.

The heavier checks pin the engine against oracles that do not reuse its code
path: a quadrature integral for the no-reflector mean SE, the closed-form
sum-SE evaluated on the same link budgets, and an inline redraw of the
channel law for the distributional checks. Scheduler decisions are checked
against hand-computed values, and each vectorized trial is replayed draw for
draw through the scalar reflector rules in irs.py. The sub6 reduced OOB law
is replayed bit for bit and compared in distribution with the dense
per-element path it replaces.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from irsoob.channels import complex_normal, sample_mmwave, sample_sub6
from irsoob.config import ExperimentSpec
from irsoob.engine import (DominanceReport, TrialData, budgets_for, dominance_test,
                           empirical_ccdf, empirical_outage, inband_gain_samples_sub6,
                           mmwave_los_trial, mmwave_nlos_trial, run_trial, schedule_rates,
                           spawn_rngs, sub6_trial)
from irsoob.experiments import operator_params
from irsoob.irs import (effective_channel_mmwave, effective_channel_sub6, optimize_mmwave_los,
                        optimize_mmwave_nlos, optimize_sub6)
from irsoob.kernels import db_to_linear

GAMMA_130 = float(db_to_linear(130.0))

# one UE pinned at (1000, 1000): equidistant from both base stations, so the
# in-band and OOB direct links share the same variance
POINT = np.array([[1000.0, 1000.0]])


def _single_ue_spec(**kwargs):
    base = dict(n_sweep=(0,), gamma_db_sweep=(130.0,), k_ues=1, q_ues=1, slots=4000)
    base.update(kwargs)
    return ExperimentSpec(**base)


def _scheduled_trial(spec, rng, ue_positions=None, keep_theta=False):
    """One protocol trial at the spec's first sweep point, with its OOB schedule."""
    snr = float(db_to_linear(spec.gamma_db_sweep[0]))
    _, bx, by = budgets_for(spec, rng, ue_positions)
    data = run_trial(spec, rng, spec.n_sweep[0], snr, bx, by, keep_theta=keep_theta)
    served = schedule_rates(data.rates_oob, spec.scheduler, spec.pf_tau)
    return data, served


def _served(values, served):
    return values[np.arange(len(served)), served]


# ---------------------------------------------------------------------------
# full trials against independent oracles

def test_no_reflector_mean_se_matches_quadrature():
    """With zero elements the SE is log2(1+beta*gamma*X), X ~ Exp(1); compare
    the simulated mean on both operator sides with the integral."""
    spec = _single_ue_spec(seed=20)
    data, served = _scheduled_trial(spec, np.random.default_rng(20), (POINT, POINT))
    assert len(served) == spec.slots

    _, bx, by = budgets_for(spec, np.random.default_rng(0), (POINT, POINT))
    assert bx.beta_d[0] == pytest.approx(by.beta_d[0], rel=1e-12)

    def mean_se(beta):
        val, _ = quad(lambda x: np.log2(1.0 + beta * GAMMA_130 * x) * np.exp(-x), 0.0, 60.0)
        return val

    inband = data.se_inband
    oob = _served(data.rates_oob, served)
    for samples, beta in ((inband, bx.beta_d[0]), (oob, by.beta_d[0])):
        se_hat = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - mean_se(beta)) < 3.0 * se_hat


def test_rr_oob_mean_se_tracks_closed_form():
    # round-robin at N=64: the Jensen-style closed form should sit slightly
    # above the per-slot average, well inside a 0.3 bit gap
    spec = ExperimentSpec(scheduler="rr", n_sweep=(64,), gamma_db_sweep=(130.0,), seed=21)
    data, served = _scheduled_trial(spec, np.random.default_rng(21))
    mc = float(np.mean(_served(data.rates_oob, served)))

    _, _, by = budgets_for(spec, np.random.default_rng(21), None)  # same position draw
    from irsoob.analytics import sumse_oob_sub6
    ana = float(sumse_oob_sub6(operator_params(spec, by, 64, GAMMA_130, "oob")))
    assert 0.0 < ana - mc < 0.3


def test_trace_se_is_exact_function_of_recorded_gain():
    spec = ExperimentSpec(n_sweep=(16,), gamma_db_sweep=(130.0,), slots=500, seed=24)
    data, served = _scheduled_trial(spec, np.random.default_rng(24), keep_theta=True)
    snr = float(db_to_linear(130.0))
    np.testing.assert_array_equal(data.rates_oob, np.log2(1.0 + data.gain_irs * snr))
    np.testing.assert_array_equal(data.se_inband, np.log2(1.0 + data.inband_gain * snr))
    assert np.all((served >= 0) & (served < spec.q_ues))
    # with keep_theta on, each slot records a unit-modulus configuration
    assert data.theta.shape == (500, 16)
    np.testing.assert_allclose(np.abs(data.theta), 1.0, rtol=1e-12)


def test_inband_gain_is_coherent_amplitude_sum():
    """Replaying the trial's draws must reproduce (|h_d| + sum |f g|)^2 bit for bit."""
    spec = ExperimentSpec(n_sweep=(8,), gamma_db_sweep=(130.0,), slots=300, seed=25)
    rngs = spawn_rngs(25, 2)
    _, bx, by = budgets_for(spec, rngs[0], None)
    data = sub6_trial(rngs[1], 8, bx, by, GAMMA_130, 300)

    replay = spawn_rngs(25, 2)[1]
    k = np.arange(300) % bx.n_ues
    h_d = complex_normal(replay, bx.beta_d[k], (300,))
    f = complex_normal(replay, bx.beta_f, (300, 8))
    g = complex_normal(replay, bx.beta_g[k][:, None], (300, 8))
    expected = (np.abs(h_d) + np.abs(f * g).sum(axis=1)) ** 2
    assert np.max(np.abs(data.inband_gain - expected)) == 0.0


def test_matched_gain_upper_bounds_any_configuration():
    # triangle inequality: the matched amplitude dominates every unit-modulus config
    spec = ExperimentSpec(n_sweep=(8,), gamma_db_sweep=(130.0,), slots=500, seed=26)
    rngs = spawn_rngs(26, 2)
    _, bx, by = budgets_for(spec, rngs[0], None)
    data = sub6_trial(rngs[1], 8, bx, by, GAMMA_130, 500, want_bf=True)
    assert np.all(data.bf_gain >= data.gain_irs * (1.0 - 1e-12))


def test_oob_gain_law_matches_direct_channel_without_reflector():
    spec = _single_ue_spec(slots=10000, seed=22)
    rngs = spawn_rngs(22, 2)
    _, bx, by = budgets_for(spec, rngs[0], (POINT, POINT))
    data = sub6_trial(rngs[1], 0, bx, by, GAMMA_130, 10000)

    redraw = np.abs(complex_normal(np.random.default_rng(122), by.beta_d[0], (10000,))) ** 2
    assert ks_2samp(data.gain_irs[:, 0], redraw).pvalue > 0.01
    # the reduced law's Gamma(0, 1) power is exactly 0, so the reflected sum
    # adds nothing, not even rounding
    np.testing.assert_array_equal(data.gain_irs, data.gain_noirs)


def test_oob_gain_invariant_to_global_phase_rotation():
    """Rotating every element phase together only rephases the reflected sum;
    since the direct phase is uniform the gain law cannot move."""
    rng = np.random.default_rng(23)
    count, n = 100_000, 16
    h_d = complex_normal(rng, 1.0, (count,))
    f = complex_normal(rng, 1.0, (count, n))
    g = complex_normal(rng, 1.0, (count, n))
    theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (count, n)))
    rot = np.exp(0.7j)

    # exact form: rotating the direct path along with the configuration
    base = np.abs(h_d + (f * g * theta).sum(axis=1)) ** 2
    joint = np.abs(h_d * rot + (f * g * theta * rot).sum(axis=1)) ** 2
    np.testing.assert_allclose(joint, base, rtol=1e-10)

    # statistical form: rotating the configuration alone
    alone = np.abs(h_d + (f * g * theta * rot).sum(axis=1)) ** 2
    diff = alone - base
    assert abs(diff.mean()) < 3.0 * diff.std(ddof=1) / math.sqrt(count)


def test_nonfinite_gain_aborts_run(monkeypatch):
    spec = ExperimentSpec(n_sweep=(4,), slots=8, k_ues=2, q_ues=2, seed=0)

    def broken(rng, n, bx, by, snr, slots, **kwargs):
        shape = (slots, by.n_ues)
        bad = np.full(shape, np.inf)
        return TrialData(se_inband=np.zeros(slots), inband_gain=np.zeros(slots),
                         rates_oob=np.zeros(shape), gain_irs=bad, gain_noirs=np.zeros(shape))

    import irsoob.engine as engine
    _, bx, by = budgets_for(spec, np.random.default_rng(1), None)
    monkeypatch.setattr(engine, "sub6_trial", broken)
    with pytest.raises(ArithmeticError):
        run_trial(spec, np.random.default_rng(1), 4, GAMMA_130, bx, by)


# ---------------------------------------------------------------------------
# vectorized trials against the scalar reflector rules in irs.py
#
# Each test replays the trial's draws from the same seed, rebuilds every
# slot's configuration with the scalar optimizer and every OOB gain with the
# scalar effective channel, and compares. Served in-band UE k = slot mod K.

def _diff_setup(regime, n, slots=40, **extra):
    spec = ExperimentSpec(regime=regime, n_sweep=(n,), k_ues=3, q_ues=4, slots=slots,
                          seed=n, **extra)
    rngs = spawn_rngs(70 + n, 2)
    _, bx, by = budgets_for(spec, rngs[0], None)
    return spec, bx, by, rngs[1], spawn_rngs(70 + n, 2)[1]


def _assert_gains(got, want):
    # the scalar sums keep rounding-level responses (~1e-16 N) of grid angles
    # orthogonal to the beam, which the engine drops exactly; a UE left with
    # its direct path alone therefore carries an absolute error set by the
    # reflected scale, hence the atol relative to the row's largest gain
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))


def _replay_inband_sub6(replay, bx, n, slots):
    k = np.arange(slots) % bx.n_ues
    h_dx = complex_normal(replay, bx.beta_d[k], (slots,))
    f_x = complex_normal(replay, bx.beta_f, (slots, n))
    g_x = complex_normal(replay, bx.beta_g[k][:, None], (slots, n))
    return h_dx, f_x, g_x


@pytest.mark.parametrize("n", [8, 16])
def test_sub6_trial_matches_scalar_reference(n):
    """The dense per-element OOB path, which want_bf selects."""
    spec, bx, by, rng, replay = _diff_setup("sub6", n)
    data = sub6_trial(rng, n, bx, by, GAMMA_130, spec.slots, want_bf=True, keep_theta=True)

    h_dx, f_x, g_x = _replay_inband_sub6(replay, bx, n, spec.slots)
    y = sample_sub6(replay, n, by, slots=spec.slots)
    for s in range(spec.slots):
        theta = optimize_sub6(h_dx[s], f_x[s], g_x[s])
        np.testing.assert_allclose(data.theta[s], theta, rtol=0.0, atol=1e-13)
        want = [abs(effective_channel_sub6(y.h_d[s, q], y.f[s], y.g[s, q], theta)) ** 2
                for q in range(by.n_ues)]
        _assert_gains(data.gain_irs[s], want)
        _assert_gains(data.inband_gain[s],
                      abs(effective_channel_sub6(h_dx[s], f_x[s], g_x[s], theta)) ** 2)
        ceiling = [(abs(y.h_d[s, q]) + np.sum(np.abs(y.f[s]) * np.abs(y.g[s, q]))) ** 2
                   for q in range(by.n_ues)]
        _assert_gains(data.bf_gain[s], ceiling)


@pytest.mark.parametrize("n", [8, 16])
def test_sub6_trial_reduced_law_replays_bit_for_bit(n):
    """Without want_bf the OOB side draws one Gamma(N, 1) power per slot and
    two complex normals per UE, after the unchanged in-band draws."""
    spec, bx, by, rng, replay = _diff_setup("sub6", n)
    data = sub6_trial(rng, n, bx, by, GAMMA_130, spec.slots)
    assert data.theta is None and data.bf_gain is None

    h_dx, f_x, g_x = _replay_inband_sub6(replay, bx, n, spec.slots)
    power = replay.standard_gamma(n, size=spec.slots)
    h_d = complex_normal(replay, by.beta_d, (spec.slots, by.n_ues))
    reflected = complex_normal(replay, by.beta_r * power[:, None], (spec.slots, by.n_ues))
    np.testing.assert_array_equal(data.inband_gain,
                                  (np.abs(h_dx) + np.abs(f_x * g_x).sum(axis=1)) ** 2)
    np.testing.assert_array_equal(data.gain_irs, np.abs(h_d + reflected) ** 2)
    np.testing.assert_array_equal(data.gain_noirs, np.abs(h_d) ** 2)


@pytest.mark.parametrize("n", [1, 4, 64])
def test_sub6_reduced_law_matches_dense_path(n):
    """Distributional equivalence of the reduced OOB sampler and the dense
    per-element path on one budget (4 UEs): two-sample KS per UE on the gain
    and the gain offset, the mean gain beta_d + N beta_r, and the cross-UE
    correlation that the shared power G induces. Given G both UEs' gains are
    (beta_d + beta_r G) Exp(1), independently, so
    corr = N beta_r beta_r' / sqrt(V V'), V = (beta_d + N beta_r)^2 + 2 N beta_r^2,
    which tends to 1/(N+2) once N beta_r dominates beta_d. A sampler that
    drew one G per UE would give 0."""
    slots = 40_000 if n < 64 else 20_000
    spec = ExperimentSpec(k_ues=3, q_ues=4)
    _, bx, by = budgets_for(spec, np.random.default_rng(60), None)
    rngs = spawn_rngs(600 + n, 2)
    reduced = sub6_trial(rngs[0], n, bx, by, GAMMA_130, slots)
    dense = sub6_trial(rngs[1], n, bx, by, GAMMA_130, slots, want_bf=True)

    for a, b in ((reduced.gain_irs, dense.gain_irs),
                 (reduced.gain_irs - reduced.gain_noirs, dense.gain_irs - dense.gain_noirs)):
        for q in range(by.n_ues):
            assert ks_2samp(a[:, q], b[:, q]).pvalue > 1e-4

    mean = by.beta_d + n * by.beta_r
    var = (by.beta_d + n * by.beta_r) ** 2 + 2 * n * by.beta_r ** 2
    corr = n * np.outer(by.beta_r, by.beta_r) / np.sqrt(np.outer(var, var))
    pairs = np.triu_indices(by.n_ues, 1)
    if n <= 4:
        np.testing.assert_allclose(corr[pairs], 1.0 / (n + 2), rtol=0.1)
    for data in (reduced, dense):
        stderr = data.gain_irs.std(axis=0, ddof=1) / math.sqrt(slots)
        assert np.all(np.abs(data.gain_irs.mean(axis=0) - mean) < 4.0 * stderr)
        np.testing.assert_allclose(np.corrcoef(data.gain_irs.T)[pairs], corr[pairs],
                                   atol=0.05)


@pytest.mark.parametrize("n", [8, 16])
def test_mmwave_los_trial_matches_scalar_reference(n):
    spec, bx, by, rng, replay = _diff_setup("mmwave_los", n, l1=1, l2=3)
    l_oob = spec.l1 * spec.l2
    data = mmwave_los_trial(rng, n, bx, by, GAMMA_130, spec.slots, l_oob, keep_theta=True)

    x = sample_mmwave(replay, n, 1, 1, bx, slots=spec.slots)
    y = sample_mmwave(replay, n, 1, l_oob, by, slots=spec.slots)
    for s in range(spec.slots):
        k = s % bx.n_ues
        theta = optimize_mmwave_los(x.h_d[s, k], x.cascade_gains[s, k, 0],
                                    x.cascade_angles[k, 0], n)
        np.testing.assert_allclose(data.theta[s], theta, rtol=0.0, atol=1e-13)
        want = [abs(effective_channel_mmwave(y.h_d[s, q], y.cascade_angles[q],
                                             y.cascade_gains[s, q], theta)) ** 2
                for q in range(by.n_ues)]
        _assert_gains(data.gain_irs[s], want)


@pytest.mark.parametrize("n", [8, 16])
def test_mmwave_nlos_trial_matches_scalar_reference(n):
    spec, bx, by, rng, replay = _diff_setup("mmwave_nlos", n, l1=2, l2=2)
    data = mmwave_nlos_trial(rng, n, bx, by, GAMMA_130, spec.slots, spec.l1, spec.l2,
                             keep_theta=True)

    x = sample_mmwave(replay, n, spec.l1, spec.l2, bx, slots=spec.slots)
    y = sample_mmwave(replay, n, spec.l1, spec.l2, by, slots=spec.slots)
    for s in range(spec.slots):
        k = s % bx.n_ues
        theta = optimize_mmwave_nlos(x.h_d[s, k], x.cascade_angles[k],
                                     x.cascade_gains[s, k], n)
        np.testing.assert_allclose(data.theta[s], theta, rtol=0.0, atol=1e-13)
        want = [abs(effective_channel_mmwave(y.h_d[s, q], y.cascade_angles[q],
                                             y.cascade_gains[s, q], theta)) ** 2
                for q in range(by.n_ues)]
        _assert_gains(data.gain_irs[s], want)
        _assert_gains(data.inband_gain[s],
                      abs(effective_channel_mmwave(x.h_d[s, k], x.cascade_angles[k],
                                                   x.cascade_gains[s, k], theta)) ** 2)


# ---------------------------------------------------------------------------
# schedulers

def test_pf_update_hand_case():
    """tau = 4. Slot 0 warm-starts the averages at [1, 2, 3], every ratio is 1
    and the tie goes to UE 0, which banks 1/4: the averages become
    [0.75 + 0.25, 1.5, 2.25] = [1, 1.5, 2.25]. Slot 1 offers twice those
    averages, so every ratio is exactly 2 (UE 0 wins the tie), unless one UE
    is nudged up by 2^-40, which then wins alone."""
    first = np.array([1.0, 2.0, 3.0])
    second = 2.0 * np.array([1.0, 1.5, 2.25])
    rates = np.stack([first, second])
    np.testing.assert_array_equal(schedule_rates(rates, "pf", tau=4.0), [0, 0])
    np.testing.assert_array_equal(rates[0], first)   # the averages are not a view of it
    for q in range(3):
        nudged = second.copy()
        nudged[q] *= 1.0 + 2.0 ** -40
        served = schedule_rates(np.stack([first, nudged]), "pf", tau=4.0)
        np.testing.assert_array_equal(served, [0, q])
    # after slot 1 the averages are [1, 1.5, 2.25] * 3/4 with UE 0 banking 2/4:
    # [1.25, 1.125, 1.6875]; offering exactly those ties again
    third = np.array([1.25, 1.125, 1.6875])
    served = schedule_rates(np.stack([first, second, third]), "pf", tau=4.0)
    np.testing.assert_array_equal(served, [0, 0, 0])
    third[2] *= 1.0 + 2.0 ** -40
    served = schedule_rates(np.stack([first, second, third]), "pf", tau=4.0)
    np.testing.assert_array_equal(served, [0, 0, 2])


def test_pf_update_tau_one_is_memoryless():
    """tau = 1 keeps only the served UE's last rate: every other average is 0,
    so the lowest-index UE not just served has an infinite ratio and wins,
    whatever the rates."""
    rates = np.array([[1.0, 1.0, 1.0], [5.0, 1.0, 1.0], [1.0, 2.0, 9.0], [1.0, 1.0, 9.0]])
    with np.errstate(divide="ignore"):
        served = schedule_rates(rates, "pf", tau=1.0)
    np.testing.assert_array_equal(served, [0, 1, 0, 1])


def test_pf_equal_rates_share_slots_exactly():
    served = schedule_rates(np.ones((1000, 5)), "pf", tau=50.0)
    np.testing.assert_array_equal(np.bincount(served, minlength=5), [200] * 5)


def test_pf_symmetric_rates_share_slots_roughly():
    rng = np.random.default_rng(9)
    served = schedule_rates(rng.exponential(1.0, (5000, 5)), "pf", tau=200.0)
    counts = np.bincount(served, minlength=5)
    assert np.max(np.abs(counts - 1000)) < 150


def test_round_robin_serves_each_ue_equally():
    served = schedule_rates(np.ones((45, 9)), "rr")
    np.testing.assert_array_equal(np.bincount(served, minlength=9), [5] * 9)


def test_mr_select_examples():
    def mr(gains):
        rates = np.log2(1.0 + np.atleast_2d(gains) * GAMMA_130)
        return int(schedule_rates(rates, "mr")[0])

    assert mr(np.array([0.3])) == 0
    assert mr(np.array([1.0, 5.0, 3.0])) == 1
    assert mr(np.array([2.0, 2.0])) == 0  # tie -> lowest index
    rng = np.random.default_rng(3)
    gains = rng.exponential(1.0, 10)
    assert gains[mr(gains)] == gains.max()


def test_mr_never_below_rr_on_shared_realizations():
    rng = np.random.default_rng(4)
    rates = rng.exponential(1.0, (200, 7))
    slots = np.arange(200)
    picked_mr = rates[slots, schedule_rates(rates, "mr")]
    picked_rr = rates[slots, schedule_rates(rates, "rr")]
    assert np.all(picked_mr >= picked_rr)


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        schedule_rates(np.ones((4, 2)), "wfq")


# ---------------------------------------------------------------------------
# empirical distributions

def test_empirical_ccdf_and_outage_hand_counts():
    samples = np.arange(1.0, 11.0)
    assert empirical_ccdf(samples, 5.0) == 0.5      # strictly above
    assert empirical_ccdf(samples, 1.0) == 0.9
    assert empirical_ccdf(samples, 0.5) == 1.0
    assert empirical_ccdf(samples, 10.0) == 0.0
    assert empirical_outage(samples, 5.0) == 0.4    # strictly below
    assert empirical_outage(samples, 1.0) == 0.0
    assert empirical_outage(samples, 10.5) == 1.0
    np.testing.assert_allclose(empirical_ccdf(samples, [0.0, 9.5]), [1.0, 0.1])
    assert isinstance(empirical_ccdf(samples, 3), float)
    assert isinstance(empirical_outage(samples, 3), float)


def test_dominance_detects_order_and_its_absence():
    rng = np.random.default_rng(30)
    gain, direct = inband_gain_samples_sub6(rng, 16, 1.0, 1.0, 10000)
    grid = np.quantile(np.concatenate([gain, direct]), np.linspace(0.01, 0.99, 60))

    same = dominance_test(gain, gain, grid)
    assert isinstance(same, DominanceReport)
    assert same.passed and same.min_diff == 0.0

    assert dominance_test(gain, direct, grid).passed
    swapped = dominance_test(direct, gain, grid)
    assert not swapped.passed
    assert swapped.ks_one_sided > swapped.eps_stat


# ---------------------------------------------------------------------------
# budgets, rngs, regime dispatch

def test_budgets_honor_given_positions_and_iid_mode():
    spec = ExperimentSpec(k_ues=2, q_ues=2)
    near_far = np.array([[960.0, 960.0], [1090.0, 1090.0]])
    (px, py), bx, by = budgets_for(spec, np.random.default_rng(0), (near_far, near_far))
    np.testing.assert_array_equal(px, near_far)
    np.testing.assert_array_equal(py, near_far)
    assert bx.beta_d[0] > bx.beta_d[1]  # closer UE, stronger direct link

    iid = ExperimentSpec(k_ues=3, q_ues=5, iid_ues=True)
    (px, py), bx, by = budgets_for(iid, np.random.default_rng(0), None)
    assert px.shape == (3, 2) and py.shape == (5, 2)
    assert np.ptp(bx.beta_d) == 0.0 and np.ptp(by.beta_d) == 0.0
    assert np.ptp(bx.beta_g) == 0.0

    drawn = ExperimentSpec(k_ues=4, q_ues=4)
    (px, py), _, _ = budgets_for(drawn, np.random.default_rng(5), None)
    (lo_x, lo_y), (hi_x, hi_y) = drawn.geometry.ue_region
    for pos in (px, py):
        assert np.all((pos[:, 0] >= lo_x) & (pos[:, 0] <= hi_x))
        assert np.all((pos[:, 1] >= lo_y) & (pos[:, 1] <= hi_y))


def test_spawn_rngs_reproducible_and_distinct():
    a = spawn_rngs(5, 3)
    b = spawn_rngs(5, 3)
    assert len(a) == 3
    first = [rng.random() for rng in a]
    assert first == [rng.random() for rng in b]
    assert len(set(first)) == 3


@pytest.mark.parametrize("regime,extra", [
    ("mmwave_los", dict(l1=1, l2=5)),
    ("mmwave_nlos", dict(l1=2, l2=3)),
])
def test_mmwave_traces_are_finite_and_consistent(regime, extra):
    spec = ExperimentSpec(regime=regime, n_sweep=(16,), gamma_db_sweep=(150.0,),
                          slots=64, seed=27, **extra)
    data, served = _scheduled_trial(spec, np.random.default_rng(27))
    snr = float(db_to_linear(150.0))
    assert len(served) == 64
    gain = _served(data.gain_irs, served)
    assert np.all(np.isfinite(gain)) and np.all(gain >= 0.0)
    np.testing.assert_array_equal(_served(data.rates_oob, served), np.log2(1.0 + gain * snr))
