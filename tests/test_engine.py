"""Simulation-engine tests: schedulers, empirical distributions, and full traces.

The heavier checks pin the engine against oracles that do not reuse its code
path: a quadrature integral for the no-reflector mean SE, the closed-form
sum-SE evaluated on the same link budgets, and an inline redraw of the
channel law for the distributional checks. Scheduler decisions are checked
against hand-computed values. Each vectorized trial is replayed draw for
draw: the reflector configuration of every slot is rebuilt from the replayed
channels with irs.align, the one co-phasing rule of every regime, and the
trial's gains are checked against irs.effective_channel of each regime's
cascade (f * g in sub6, irs.sparse_cascade in mmWave). The trials return gains
only; rates are the test-side log2(1 + snr g) of oracles.py. Every trial's
OOB gains come from one draw, engine._oob_gains, given the trial's reflected
variance: one replay helper (_replay_oob) pins its order in all three
trials, a unit test pins that it draws no normal where the variance is 0
and holds it in distribution to |h_d + R|^2 of complex normals, and each
regime's reduced law is compared in distribution with the dense per-element
or per-path construction it replaces (for sub6, the oracle's sample_sub6). The mmWave trials draw
their direct links as magnitudes, so their replays hand the scalar rules a
real h_d; a separate check shows that the direct phase moves no scalar gain.
The batched PF scheduler is held to a per-row loop, bit for bit.
The sub6 in-band gain and the matched-reflector ceiling are one law on one
draw of exponential magnitudes per trial, which the trial returns as (E, S),
with the served in-band UE's and each OOB UE's betas: the replay gives the rebuilt complex channels those
magnitudes and phases from a separate generator, and the law is compared
in distribution with the complex-normal construction, per row and per UE.
The draw runs chunk by chunk; a per-chunk replay pins that order, and a
traced peak shows that it holds one chunk's scratch.
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from irsoob.channels import complex_normal, link_budget
from irsoob.config import ExperimentSpec
from irsoob import analytics
from irsoob.analytics import AnalyticParams
from irsoob.engine import (DominanceReport, TrialData, _aligned_draws, _aligned_gain, _oob_gains,
                           budgets_for, dominance_test, empirical_ccdf, empirical_outage,
                           mmwave_los_trial, mmwave_nlos_trial, run_trial, schedule_rates,
                           spawn_rngs, sub6_trial)
from irsoob.experiments import operator_params
from irsoob.irs import align, effective_channel, sparse_cascade, unit_phase
from irsoob.kernels import db_to_linear
from oracles import (aligned_gain_complex, grid_index, mmwave_angles, sample_mmwave,
                     sample_sub6, spectral_efficiency)

GAMMA_130 = float(db_to_linear(130.0))

def _single_ue_spec(**kwargs):
    # one UE per operator at IID_UE_POINT (1000, 1000): equidistant from both
    # base stations, so the in-band and OOB direct links share the same variance
    base = dict(n_sweep=(0,), gamma_db_sweep=(130.0,), k_ues=1, q_ues=1, slots=4000,
                iid_ues=True)
    base.update(kwargs)
    return ExperimentSpec(**base)


def _scheduled_trial(spec, rng):
    """One protocol trial at the spec's first sweep point, with its OOB rates
    at the spec's first SNR and its OOB schedule."""
    snr = float(db_to_linear(spec.gamma_db_sweep[0]))
    _, bx, by = budgets_for(spec, rng)
    data = run_trial(spec, rng, spec.n_sweep[0], bx, by)
    rates = spectral_efficiency(data.gain_irs, snr)
    return data, rates, schedule_rates(rates, spec.scheduler, spec.pf_tau)


def _served(values, served):
    return values[np.arange(len(served)), served]


# ---------------------------------------------------------------------------
# full trials against independent oracles

def test_no_reflector_mean_se_matches_quadrature():
    """With zero elements the SE is log2(1+beta*gamma*X), X ~ Exp(1); compare
    the simulated mean on both operator sides with the integral."""
    spec = _single_ue_spec(seed=20)
    data, rates, served = _scheduled_trial(spec, np.random.default_rng(20))
    assert len(served) == spec.slots

    _, bx, by = budgets_for(spec, np.random.default_rng(0))
    assert bx.beta_d[0] == pytest.approx(by.beta_d[0], rel=1e-12)

    def mean_se(beta):
        val, _ = quad(lambda x: np.log2(1.0 + beta * GAMMA_130 * x) * np.exp(-x), 0.0, 60.0)
        return val

    inband = spectral_efficiency(data.inband_gain, GAMMA_130)
    oob = _served(rates, served)
    for samples, beta in ((inband, bx.beta_d[0]), (oob, by.beta_d[0])):
        se_hat = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - mean_se(beta)) < 3.0 * se_hat


def test_rr_oob_mean_se_tracks_closed_form():
    # round-robin at N=64: the Jensen-style closed form should sit slightly
    # above the per-slot average, well inside a 0.3 bit gap
    spec = ExperimentSpec(scheduler="rr", n_sweep=(64,), gamma_db_sweep=(130.0,), seed=21)
    _, rates, served = _scheduled_trial(spec, np.random.default_rng(21))
    mc = float(np.mean(_served(rates, served)))

    _, _, by = budgets_for(spec, np.random.default_rng(21))  # same position draw
    from irsoob.analytics import sumse_oob_sub6
    ana = float(sumse_oob_sub6(operator_params(spec, by, 64), GAMMA_130))
    assert 0.0 < ana - mc < 0.3


def test_trial_records_gains_only():
    """A trace holds the per-slot gains and nothing that depends on the SNR."""
    spec = ExperimentSpec(n_sweep=(16,), gamma_db_sweep=(130.0,), slots=500, seed=24)
    data, _, served = _scheduled_trial(spec, np.random.default_rng(24))
    assert [f.name for f in dataclasses.fields(TrialData)] == [
        "inband_gain", "gain_irs", "gain_noirs", "aligned"]
    assert data.inband_gain.shape == (500,)
    assert data.gain_irs.shape == data.gain_noirs.shape == (500, spec.q_ues)
    assert [draws.shape for draws in data.aligned] == [(500,), (500,)]
    assert np.all((served >= 0) & (served < spec.q_ues))


@pytest.mark.parametrize("trial", [sub6_trial, mmwave_los_trial, mmwave_nlos_trial])
def test_trial_signatures_keep_the_traced_parameters(trial):
    """benchmarks/tracer.py counts each trial's OOB gains and element cells by
    binding its arguments to these names; a rename would break every traced run."""
    params = inspect.signature(trial).parameters
    assert {"n_elements", "budget_y", "slots"} <= set(params)


def test_inband_gain_is_coherent_amplitude_sum():
    """Replaying the trial's exponential draws must reproduce its in-band gain
    bit for bit, and that gain is (|h_d| + sum |f g|)^2 of complex channels
    carrying the replayed magnitudes."""
    spec = ExperimentSpec(n_sweep=(8,), gamma_db_sweep=(130.0,), slots=300, seed=25)
    rngs = spawn_rngs(25, 2)
    _, bx, by = budgets_for(spec, rngs[0])
    data = sub6_trial(rngs[1], 8, bx, by, 300)

    _, (gain, h_d, f, g) = _replay_inband_sub6(spawn_rngs(25, 2)[1], bx, 8, 300)
    np.testing.assert_array_equal(data.inband_gain, gain)
    _assert_gains(data.inband_gain, (np.abs(h_d) + np.abs(f * g).sum(axis=1)) ** 2)


def _aligned_mean(beta_d, beta_r, n):
    """E(|h_d| + sum_n |f_n g_n|)^2 for h_d ~ CN(0, beta_d), |f_n g_n|^2 ~ beta_r E_1 E_2."""
    return (beta_d + n * beta_r + n * (math.pi ** 1.5 / 4) * np.sqrt(beta_d * beta_r)
            + n * (n - 1) * (math.pi ** 2 / 16) * beta_r)


@pytest.mark.parametrize("n", [1, 4, 64])
def test_aligned_gain_matches_complex_normal_construction(n):
    """Distributional equivalence of the exponential-magnitude sampler and the
    complex-normal construction it replaced.

    Per row, on one in-band UE's budget: two-sample KS on the aligned gain and
    on |h_d|^2, and both means against E(|h_d| + sum |f_n g_n|)^2. With
    E|h_d| = sqrt(pi beta_d)/2 and E|f_n g_n| = (pi/4) sqrt(beta_r) that is
    beta_d + N beta_r + N (pi^(3/2)/4) sqrt(beta_d beta_r) + N(N-1)(pi^2/16) beta_r.

    Per UE, the matched-reflector ceiling on a 4-UE OOB budget, one (E, S)
    per row under every UE's betas (Q,): KS per UE against
    (|h_d| + sum_n |f_n||g_qn|)^2 of the dense Rayleigh channels, and each
    UE's mean against the same closed form."""
    rows = 20_000
    _, bx, by = budgets_for(ExperimentSpec(q_ues=4), np.random.default_rng(62))
    beta_d, beta_r = float(bx.beta_d[0]), float(bx.beta_r[0])
    rngs = spawn_rngs(620 + n, 4)
    exp_direct, shape = _aligned_draws(rngs[0], rows, n)
    drawn = _aligned_gain(exp_direct, shape, beta_d, beta_r), beta_d * exp_direct
    oracle = aligned_gain_complex(rngs[1], beta_d, beta_r, rows, n)

    for a, b in zip(drawn, oracle):
        assert ks_2samp(a, b).pvalue > 1e-4
    mean = _aligned_mean(beta_d, beta_r, n)
    for gain, _ in (drawn, oracle):
        assert abs(gain.mean() - mean) < 4.0 * gain.std(ddof=1) / math.sqrt(rows)

    exp_direct, shape = _aligned_draws(rngs[2], rows, n)
    ceiling = _aligned_gain(exp_direct[:, None], shape[:, None], by.beta_d, by.beta_r)
    assert ceiling.shape == (rows, by.n_ues)
    _, _, dense = _dense_oob_gains(rngs[3], n, by, rows)
    for q in range(by.n_ues):
        assert ks_2samp(ceiling[:, q], dense[:, q]).pvalue > 1e-4
    mean = _aligned_mean(by.beta_d, by.beta_r, n)
    for gain in (ceiling, dense):
        stderr = gain.std(axis=0, ddof=1) / math.sqrt(rows)
        assert np.all(np.abs(gain.mean(axis=0) - mean) < 4.0 * stderr)


def test_oob_gain_law_matches_direct_channel_without_reflector():
    spec = _single_ue_spec(slots=10000, seed=22)
    rngs = spawn_rngs(22, 2)
    _, bx, by = budgets_for(spec, rngs[0])
    data = sub6_trial(rngs[1], 0, bx, by, 10000)

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

    def broken(rng, n, bx, by, slots, **kwargs):
        shape = (slots, by.n_ues)
        return TrialData(inband_gain=np.zeros(slots), gain_irs=np.full(shape, np.inf),
                         gain_noirs=np.zeros(shape))

    import irsoob.engine as engine
    _, bx, by = budgets_for(spec, np.random.default_rng(1))
    monkeypatch.setattr(engine, "sub6_trial", broken)
    with pytest.raises(ArithmeticError):
        run_trial(spec, np.random.default_rng(1), 4, bx, by)


# ---------------------------------------------------------------------------
# vectorized trials against the scalar reflector rules in irs.py
#
# Each test replays the trial's draws from the same seed, rebuilds every
# slot's configuration with irs.align and every gain with
# irs.effective_channel, and compares. Served in-band UE k = slot mod K.

def _diff_setup(regime, n, slots=40, **extra):
    spec = ExperimentSpec(regime=regime, n_sweep=(n,), k_ues=3, q_ues=4, slots=slots,
                          seed=n, **extra)
    rngs = spawn_rngs(70 + n, 2)
    _, bx, by = budgets_for(spec, rngs[0])
    return spec, bx, by, rngs[1], spawn_rngs(70 + n, 2)[1]


def _assert_gains(got, want):
    # the scalar sums keep rounding-level responses (~1e-16 N) of grid angles
    # orthogonal to the beam, which the engine drops exactly; a UE left with
    # its direct path alone therefore carries an absolute error set by the
    # reflected scale, hence the atol relative to the row's largest gain
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))


def _replay_aligned_draws(replay, slots, n):
    """engine._aligned_draws replayed in one chunk (slots * N within
    _CHUNK_ELEMS): the direct exponentials E (slots,), then the element
    exponentials E_f and E_g (slots, N)."""
    return (replay.standard_exponential(slots), replay.standard_exponential((slots, n)),
            replay.standard_exponential((slots, n)))


def _aligned_channels(draws, beta_d, beta_f, beta_g, n):
    """The aligned gain of replayed draws (E, E_f, E_g), and complex channels
    h_d, f, g with those magnitudes, whose phases come from a separate
    generator. beta_d and beta_g are per slot (slots,), or per UE (1, Q), the
    UEs then sharing the slot's exponentials; per UE, h_d is (slots, Q) and g
    is (slots, Q, N)."""
    e, e_f, e_g = draws
    lead = (len(e),) + (1,) * (np.ndim(beta_d) - 1)
    direct = beta_d * e.reshape(lead)
    shape = np.sqrt(e_f * e_g).sum(axis=1).reshape(lead)
    gain = (np.sqrt(direct) + np.sqrt(beta_f * beta_g) * shape) ** 2
    phases = np.random.default_rng(1000 + n)
    h_d, f, g = (np.sqrt(power) * np.exp(2j * np.pi * phases.random(power.shape))
                 for power in (direct, beta_f * e_f,
                               np.expand_dims(beta_g, -1) * e_g.reshape(lead + (n,))))
    return gain, h_d, f, g


def _replay_inband_sub6(replay, bx, n, slots):
    """A sub6 trial's aligned-gain draws, and the served UE's aligned gain and
    channels from them (_aligned_channels), k = slot mod K."""
    draws = _replay_aligned_draws(replay, slots, n)
    k = np.arange(slots) % bx.n_ues
    return draws, _aligned_channels(draws, bx.beta_d[k], bx.beta_f, bx.beta_g[k], n)


def _dense_oob_gains(rng, n, budget, slots):
    """OOB gains from dense per-element Rayleigh channels (oracles.sample_sub6):
    |h_d + sum_n f_n g_qn|^2 with theta = 1 (theta depends on the in-band
    channels alone, so theta f has f's law), |h_d|^2, and the matched ceiling
    (|h_d| + sum_n |f_n||g_qn|)^2. Drawn in chunks of slots to bound memory."""
    gains = np.empty((3, slots, budget.n_ues))
    for start in range(0, slots, 2048):
        y = sample_sub6(rng, n, budget, slots=min(2048, slots - start))
        sl = slice(start, start + y.h_d.shape[0])
        gains[0, sl] = np.abs(y.h_d + (y.f[:, None, :] * y.g).sum(axis=2)) ** 2
        gains[1, sl] = np.abs(y.h_d) ** 2
        gains[2, sl] = (np.abs(y.h_d) + (np.abs(y.f)[:, None, :] * np.abs(y.g)).sum(axis=2)) ** 2
    return gains


def _replay_oob(replay, beta_d, variance):
    """engine._oob_gains replayed: the direct powers beta_d Exp(1) over
    variance's (slots, Q) shape, then R ~ CN(0, variance) at the entries where
    variance > 0, in row-major order. Returns gain_irs (|sqrt(direct) + R|^2
    there, direct elsewhere), the direct powers and R (slots, Q), 0 where
    nothing was drawn."""
    direct = beta_d * replay.standard_exponential(variance.shape)
    lit = np.nonzero(variance)
    reflected = np.zeros(variance.shape, dtype=complex)
    reflected[lit] = complex_normal(replay, variance[lit], lit[0].size)
    gain_irs = direct.copy()
    gain_irs[lit] = np.abs(np.sqrt(direct[lit]) + reflected[lit]) ** 2
    return gain_irs, direct, reflected


def test_oob_gains_draw_the_reflected_sum_only_where_it_has_variance():
    """engine._oob_gains on a (rows, 3) variance: UE 0 has none, UE 1 a fixed
    one and UE 2 one that varies by row and is 0 on every third row. Where
    the variance is 0 the gain with the reflector is the direct gain bit for
    bit and no normal is drawn: the generator ends where the direct
    exponentials and 2 * lit normals leave a replay. Where it is positive:
    two-sample KS of the gain and of the offset against |h_d + R|^2 and
    |h_d + R|^2 - |h_d|^2 built from two complex_normal draws, and the mean
    gain within 4 stderr of beta_d + v."""
    rows = 20_000
    beta_d = np.array([0.5, 2.0, 1.0])
    variance = np.zeros((rows, 3))
    variance[:, 1] = 3.0
    variance[:, 2] = 0.4 * np.random.default_rng(97).standard_gamma(4.0, rows)
    variance[::3, 2] = 0.0
    rng = np.random.default_rng(98)
    gain_irs, gain_noirs = _oob_gains(rng, beta_d, variance)

    dark = variance == 0
    np.testing.assert_array_equal(gain_irs[dark], gain_noirs[dark])
    replay = np.random.default_rng(98)
    replay.standard_exponential(variance.shape)
    replay.standard_normal(2 * np.count_nonzero(variance))
    assert rng.bit_generator.state == replay.bit_generator.state

    oracle = np.random.default_rng(99)
    for q in (1, 2):
        lit = ~dark[:, q]
        v = variance[lit, q]
        h_d = complex_normal(oracle, beta_d[q], v.size)
        gain = np.abs(h_d + complex_normal(oracle, v, v.size)) ** 2
        got = gain_irs[lit, q]
        assert ks_2samp(got, gain).pvalue > 1e-4
        assert ks_2samp(got - gain_noirs[lit, q], gain - np.abs(h_d) ** 2).pvalue > 1e-4
        stderr = got.std(ddof=1) / math.sqrt(got.size)
        assert abs(got.mean() - (beta_d[q] + v).mean()) < 4.0 * stderr


def _ceiling(data, budget_y):
    """The matched-reflector ceiling the pf_gap rows read: the aligned-gain
    law of a sub6 trial's (E, S) with each OOB UE's betas, (..., slots, Q)."""
    exp_direct, shape = (draws[..., None] for draws in data.aligned)
    return _aligned_gain(exp_direct, shape, budget_y.beta_d, budget_y.beta_r)


@pytest.mark.parametrize("n", [8, 16])
def test_sub6_trial_matches_scalar_reference(n):
    """Every gain of a sub6 trial, replayed in draw order. The in-band gain
    is the aligned one of the replayed channels' optimized configuration,
    slot by slot, and the returned (E, S) are the replayed magnitudes. The
    OOB gains are the reduced law (one Gamma(N, 1) power G per slot, then
    _replay_oob with reflected variance beta_r G), and the ceiling is the
    aligned-gain law of the in-band draws with each UE's OOB betas; both are
    replayed bit for bit, and each slot's ceiling is the scalar matched
    effective channel of complex channels carrying the replayed magnitudes."""
    spec, bx, by, rng, replay = _diff_setup("sub6", n)
    data = sub6_trial(rng, n, bx, by, spec.slots)

    draws, (gain, h_dx, f_x, g_x) = _replay_inband_sub6(replay, bx, n, spec.slots)
    np.testing.assert_array_equal(data.inband_gain, gain)
    np.testing.assert_array_equal(data.aligned[0], draws[0])
    np.testing.assert_array_equal(data.aligned[1], np.sqrt(draws[1] * draws[2]).sum(axis=1))
    power = replay.standard_gamma(n, size=spec.slots)
    gain_irs, gain_noirs, _ = _replay_oob(replay, by.beta_d, by.beta_r * power[:, None])
    np.testing.assert_array_equal(data.gain_irs, gain_irs)
    np.testing.assert_array_equal(data.gain_noirs, gain_noirs)
    ceiling, h_dy, f_y, g_y = _aligned_channels(draws, by.beta_d[None, :], by.beta_f,
                                                by.beta_g[None, :], n)
    bf_gain = _ceiling(data, by)
    np.testing.assert_array_equal(bf_gain, ceiling)
    for s in range(spec.slots):
        c = f_x[s] * g_x[s]
        _assert_gains(data.inband_gain[s],
                      abs(effective_channel(h_dx[s], c, align(h_dx[s], c))) ** 2)
        matched = [abs(effective_channel(h_d, c_y, align(h_d, c_y))) ** 2
                   for h_d, c_y in zip(h_dy[s], f_y[s] * g_y[s])]
        _assert_gains(bf_gain[s], matched)


def test_sub6_ceiling_reuses_the_aligned_draws(monkeypatch):
    """A sub6 trial returns its own (E, S), bit for bit the (E, S) that
    _aligned_draws replays over two chunks, and the matched ceiling is the
    aligned-gain law of them with each UE's OOB betas. The generator then
    ends where the Gamma powers and the OOB draws leave that replay, so no
    second aligned draw is made. Each UE's mean ceiling lies within 4 stderr
    of the SNR term that sumse_inband_sub6 averages, taken with the OOB betas
    at snr = 1; at this size a 5% beta_r error moves that term by at
    least 10 stderr."""
    import irsoob.engine as engine

    n, slots = 64, 4000
    assert len(engine._chunk_slices(slots, n)) == 2
    _, bx, by = budgets_for(ExperimentSpec(k_ues=3, q_ues=4), np.random.default_rng(63))
    rng, replay = spawn_rngs(64, 1)[0], spawn_rngs(64, 1)[0]
    data = sub6_trial(rng, n, bx, by, slots)

    e, shape = _aligned_draws(replay, slots, n)
    np.testing.assert_array_equal(data.aligned[0], e)
    np.testing.assert_array_equal(data.aligned[1], shape)
    bf_gain = _ceiling(data, by)
    np.testing.assert_array_equal(
        bf_gain, (np.sqrt(by.beta_d * e[:, None]) + np.sqrt(by.beta_r) * shape[:, None]) ** 2)
    power = replay.standard_gamma(n, size=slots)
    _replay_oob(replay, by.beta_d, by.beta_r * power[:, None])
    assert rng.bit_generator.state == replay.bit_generator.state

    monkeypatch.setattr(analytics, "_mean_se", lambda snr_terms: snr_terms)

    def snr_term(beta_r):
        return analytics.sumse_inband_sub6(AnalyticParams(n, beta_r, by.beta_d), 1.0)

    stderr = bf_gain.std(axis=0, ddof=1) / math.sqrt(slots)
    assert np.all(np.abs(bf_gain.mean(axis=0) - snr_term(by.beta_r)) < 4.0 * stderr)
    assert np.all(snr_term(1.05 * by.beta_r) - snr_term(by.beta_r) >= 10.0 * stderr)


def test_nlos_trial_is_independent_of_the_chunk_width(monkeypatch):
    """The nlos chunk loop only computes; every draw precedes it, so the chunk
    width moves no gain bit. One chunk against chunks of 7 slots, the last
    one short. The chunks share one scratch, so this also shows that no chunk
    reads what an earlier one left there: at N = 4 < L = 8 repeated grid
    angles accumulate through np.add.at, and the short last chunk reuses the
    leading rows of a full one."""
    import irsoob.engine as engine

    slots, width = 40, 7
    assert slots // width >= 3 and 0 < slots % width < width
    for n, l1, l2 in [(16, 2, 2), (4, 2, 4)]:
        spec, bx, by, _, _ = _diff_setup("mmwave_nlos", n, slots=slots, l1=l1, l2=l2)
        runs = []
        for chunk_elems in (1 << 20, width * n):
            monkeypatch.setattr(engine, "_CHUNK_ELEMS", chunk_elems)
            rng = spawn_rngs(80, 1)[0]
            runs.append(mmwave_nlos_trial(rng, n, bx, by, spec.slots, spec.l1, spec.l2))
        for field in ("inband_gain", "gain_irs", "gain_noirs"):
            np.testing.assert_array_equal(getattr(runs[0], field), getattr(runs[1], field))


@pytest.mark.parametrize("betas", ["scalar", "per_row", "per_ue"])
def test_aligned_gain_replays_chunk_by_chunk(monkeypatch, betas):
    """The sampler draws chunk by chunk: per chunk its E (span,), then E_1,
    then E_2 (span, N). With 7-row chunks, the last one short, its (E, S)
    and the law on them equal a per-chunk replay bit for bit, for scalar,
    per-row (rows,) and per-UE (Q,) betas, the last on (E, S) as columns.
    One whole-row chunk draws the same number of exponentials in another
    order: other gains, but the same generator state after."""
    import irsoob.engine as engine

    rows, n, width = 40, 6, 7
    assert rows // width >= 3 and 0 < rows % width < width
    beta_rng = np.random.default_rng(95)
    beta_d, beta_r = {"scalar": (0.3, 0.02), "per_row": beta_rng.random((2, rows)),
                      "per_ue": beta_rng.random((2, 4))}[betas]
    cols = (slice(None),) + (None,) * (betas == "per_ue")
    monkeypatch.setattr(engine, "_CHUNK_ELEMS", width * n)
    rng = np.random.default_rng(96)
    exp_direct, shape = _aligned_draws(rng, rows, n)
    gain = _aligned_gain(exp_direct[cols], shape[cols], beta_d, beta_r)

    replay = np.random.default_rng(96)
    e, want_shape = np.empty(rows), np.empty(rows)
    for start in range(0, rows, width):
        span = min(width, rows - start)
        e[start:start + span] = replay.standard_exponential(span)
        e_1, e_2 = replay.standard_exponential((span, n)), replay.standard_exponential((span, n))
        want_shape[start:start + span] = np.sqrt(e_1 * e_2).sum(axis=1)
    np.testing.assert_array_equal(exp_direct, e)
    np.testing.assert_array_equal(shape, want_shape)
    np.testing.assert_array_equal(
        gain, (np.sqrt(beta_d * e[cols]) + np.sqrt(beta_r) * want_shape[cols]) ** 2)
    assert rng.bit_generator.state == replay.bit_generator.state

    monkeypatch.setattr(engine, "_CHUNK_ELEMS", 1 << 20)
    whole = np.random.default_rng(96)
    assert not np.array_equal(
        _aligned_gain(*(v[cols] for v in _aligned_draws(whole, rows, n)), beta_d, beta_r), gain)
    assert whole.bit_generator.state == replay.bit_generator.state


def test_aligned_gain_peak_memory_is_one_chunk():
    """The sampler holds one chunk's (2, width, N) scratch, about 2 MiB, not
    the rows' (rows, N) exponentials: 4096 rows at N = 512 would be 16 MiB
    per array. Its traced peak stays within 4 MiB."""
    import tracemalloc

    rng = np.random.default_rng(98)
    tracemalloc.start()
    try:
        _aligned_draws(rng, 4096, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, f"peak {peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("n", [8, 16])
def test_sub6_trial_reduced_law_replays_bit_for_bit(n):
    """The OOB side draws, after the in-band exponentials, one Gamma(N, 1)
    power G per slot, then one direct power and one reflected sum per UE
    (_replay_oob with variance beta_r G), and nothing more."""
    spec, bx, by, rng, replay = _diff_setup("sub6", n)
    data = sub6_trial(rng, n, bx, by, spec.slots)

    _, (gain, *_) = _replay_inband_sub6(replay, bx, n, spec.slots)
    power = replay.standard_gamma(n, size=spec.slots)
    gain_irs, gain_noirs, _ = _replay_oob(replay, by.beta_d, by.beta_r * power[:, None])
    assert rng.bit_generator.state == replay.bit_generator.state
    np.testing.assert_array_equal(data.inband_gain, gain)
    np.testing.assert_array_equal(data.gain_irs, gain_irs)
    np.testing.assert_array_equal(data.gain_noirs, gain_noirs)


@pytest.mark.parametrize("n", [1, 4, 64])
def test_sub6_reduced_law_matches_dense_path(n):
    """Distributional equivalence of the reduced OOB sampler and the dense
    per-element channels of oracles.sample_sub6 on one budget (4 UEs):
    two-sample KS per UE on the gain
    and the gain offset, the mean gain beta_d + N beta_r, and the cross-UE
    correlation that the shared power G induces. Given G both UEs' gains are
    (beta_d + beta_r G) Exp(1), independently, so
    corr = N beta_r beta_r' / sqrt(V V'), V = (beta_d + N beta_r)^2 + 2 N beta_r^2,
    which tends to 1/(N+2) once N beta_r dominates beta_d. A sampler that
    drew one G per UE would give 0."""
    slots = 40_000 if n < 64 else 20_000
    spec = ExperimentSpec(k_ues=3, q_ues=4)
    _, bx, by = budgets_for(spec, np.random.default_rng(60))
    rngs = spawn_rngs(600 + n, 2)
    reduced = sub6_trial(rngs[0], n, bx, by, slots)
    dense_irs, dense_noirs, _ = _dense_oob_gains(rngs[1], n, by, slots)

    for a, b in ((reduced.gain_irs, dense_irs),
                 (reduced.gain_irs - reduced.gain_noirs, dense_irs - dense_noirs)):
        for q in range(by.n_ues):
            assert ks_2samp(a[:, q], b[:, q]).pvalue > 1e-4

    mean = by.beta_d + n * by.beta_r
    var = (by.beta_d + n * by.beta_r) ** 2 + 2 * n * by.beta_r ** 2
    corr = n * np.outer(by.beta_r, by.beta_r) / np.sqrt(np.outer(var, var))
    pairs = np.triu_indices(by.n_ues, 1)
    if n <= 4:
        np.testing.assert_allclose(corr[pairs], 1.0 / (n + 2), rtol=0.1)
    for gain in (reduced.gain_irs, dense_irs):
        stderr = gain.std(axis=0, ddof=1) / math.sqrt(slots)
        assert np.all(np.abs(gain.mean(axis=0) - mean) < 4.0 * stderr)
        np.testing.assert_allclose(np.corrcoef(gain.T)[pairs], corr[pairs], atol=0.05)


def _replay_los(replay, n, bx, by, slots, l_oob):
    """Operator X and the OOB angles in trial order, the served UE per slot,
    its aligning phase u, and on_beam[k, q, j]: UE q's path j sits on in-band
    UE k's cascaded angle."""
    x = sample_mmwave(replay, n, 1, 1, bx, slots=slots)
    _, _, angles_y = mmwave_angles(replay, n, 1, l_oob, by.n_ues)
    rows = np.arange(slots)
    k = rows % bx.n_ues
    u = unit_phase(x.h_d[rows, k] * np.conj(x.cascade_gains[rows, k, 0]))
    on_beam = (grid_index(angles_y, n)[None, :, :]
               == grid_index(x.cascade_angles[:, 0], n)[:, None, None])
    return x, angles_y, k, u, on_beam


@pytest.mark.parametrize("n", [8, 16])
def test_mmwave_los_trial_matches_scalar_reference(n):
    """The gains are the trial's draws replayed bit for bit: the in-band
    angles and every in-band UE's path gains, the OOB angles, then the feeder
    power X and the OOB gains (_replay_oob) with reflected variance
    (N^2 / L) beta_f X m beta_g, so R is drawn only at the matched (slot, UE)
    entries. The scalar rules then see the direct link
    sqrt(gain_noirs), a real phase of h_d, and per-path gains with
    sqrt(L) R / (N u) on each matched UE's first matched path, 0 on its other
    matched paths and fresh draws on the unmatched ones, which the steered
    beam must not pick up."""
    spec, bx, by, rng, replay = _diff_setup("mmwave_los", n, l1=1, l2=3)
    l_oob = spec.l1 * spec.l2
    scale = n / math.sqrt(l_oob)
    data = mmwave_los_trial(rng, n, bx, by, spec.slots, l_oob)

    x, angles_y, k_served, u, on_beam = _replay_los(replay, n, bx, by, spec.slots, l_oob)
    m = on_beam.sum(axis=2)
    assert np.any(m > 0), "no matched (k, q) pair: nothing reflected to check"
    power = replay.standard_exponential(spec.slots)                  # X
    weight = (n ** 2 / l_oob) * by.beta_f * m[k_served] * by.beta_g
    want_irs, direct, r_full = _replay_oob(replay, by.beta_d, power[:, None] * weight)
    np.testing.assert_array_equal(data.gain_noirs, direct)
    np.testing.assert_array_equal(data.gain_irs, want_irs)
    unmatched = m[k_served] == 0
    assert unmatched.any()
    np.testing.assert_array_equal(data.gain_irs[unmatched], data.gain_noirs[unmatched])

    fresh = np.random.default_rng(n)
    for s in range(spec.slots):
        k = k_served[s]
        c = sparse_cascade(x.cascade_angles[k], x.cascade_gains[s, k], n)
        theta = align(x.h_d[s, k], c)
        _assert_gains(data.inband_gain[s], abs(effective_channel(x.h_d[s, k], c, theta)) ** 2)
        want = []
        for q in range(by.n_ues):
            gains = complex_normal(fresh, by.beta_r[q], (l_oob,))
            hits = np.flatnonzero(on_beam[k, q])
            gains[hits] = 0.0
            if hits.size:
                gains[hits[0]] = r_full[s, q] / (scale * u[s])
            want.append(abs(effective_channel(math.sqrt(direct[s, q]),
                                              sparse_cascade(angles_y[q], gains, n), theta)) ** 2)
        _assert_gains(data.gain_irs[s], want)


def _assert_gain_laws(data, dense_gain, dense_direct, by):
    """Per UE, two-sample KS of a trial's gains against the per-path sum on
    the gain and on the offset gain_irs - gain_noirs, and one-sample KS of
    gain_noirs / beta_d against Exp(1), the direct gain the trial draws as a
    magnitude."""
    for q in range(by.n_ues):
        assert ks_2samp(data.gain_irs[:, q], dense_gain[:, q]).pvalue > 1e-4
        assert ks_2samp(data.gain_irs[:, q] - data.gain_noirs[:, q],
                        dense_gain[:, q] - dense_direct[:, q]).pvalue > 1e-4
        assert kstest(data.gain_noirs[:, q] / by.beta_d[q], "expon").pvalue > 1e-4


@pytest.mark.parametrize("n,l_oob", [(8, 5), (8, 50), (64, 5), (64, 50)])
def test_mmwave_los_reduced_law_matches_per_path_sum(n, l_oob):
    """Distributional equivalence of the reduced OOB sampler and the per-path
    sum it replaces, both on the trial's own angles and in-band draws: KS per
    UE on the gain, the gain offset and the direct gain (_assert_gain_laws),
    the mean gain beta_d + (N^2/L) beta_f beta_g mean(m), and,
    per served in-band UE k, the correlation of two matched UEs' gains. Given
    X = |gamma_1|^2 / beta_f ~ Exp(1) the gains are independent exponentials
    with means beta_d + r X, r = (N^2/L) beta_f beta_g m, so
    corr = r r' / sqrt(V V'), V = (beta_d + r)^2 + 2 r^2; a sampler that drew
    one feeder gain per UE would give 0. Two UEs on one beam are rare at
    N = 64, L = 5, so there only KS and the mean are sure to be checked."""
    slots = 10_000
    spec = ExperimentSpec(regime="mmwave_los", k_ues=2, q_ues=4)
    _, bx, by = budgets_for(spec, np.random.default_rng(61))
    seed = 610 + n + l_oob
    data = mmwave_los_trial(np.random.default_rng(seed), n, bx, by, slots, l_oob)
    _, _, k_served, u, on_beam = _replay_los(np.random.default_rng(seed), n, bx, by,
                                             slots, l_oob)
    per_path = np.random.default_rng(seed + 1)
    bs_gains = complex_normal(per_path, by.beta_f, (slots, 1))
    ue_gains = complex_normal(per_path, by.beta_g[:, None], (slots, by.n_ues, l_oob))
    h_d = complex_normal(per_path, by.beta_d, (slots, by.n_ues))
    cascade = bs_gains[:, :, None] * ue_gains
    eff = h_d + (n / math.sqrt(l_oob)) * u[:, None] \
        * np.where(on_beam[k_served], cascade, 0.0).sum(axis=2)
    dense_gain = np.abs(eff) ** 2
    del ue_gains, cascade

    _assert_gain_laws(data, dense_gain, np.abs(h_d) ** 2, by)

    m = on_beam.sum(axis=2)
    r = (n ** 2 / l_oob) * by.beta_f * by.beta_g * m          # (K, Q)
    mean = by.beta_d + r[k_served].mean(axis=0)
    var = (by.beta_d + r) ** 2 + 2 * r ** 2
    checked = 0
    for gain in (data.gain_irs, dense_gain):
        stderr = gain.std(axis=0, ddof=1) / math.sqrt(slots)
        assert np.all(np.abs(gain.mean(axis=0) - mean) < 4.0 * stderr)
        for k in range(bx.n_ues):
            lit = np.flatnonzero(m[k] > 0)
            if len(lit) < 2:
                continue
            pairs = np.triu_indices(len(lit), 1)
            corr = np.outer(r[k, lit], r[k, lit]) / np.sqrt(np.outer(var[k, lit], var[k, lit]))
            sample = np.corrcoef(gain[k_served == k][:, lit].T)
            np.testing.assert_allclose(sample[pairs], corr[pairs], atol=0.12)
            checked += len(pairs[0])
    if (n, l_oob) != (64, 5):
        assert checked > 0


def _response(angle, theta):
    """adot(angle)^H theta = (1/N) sum_n exp(i*pi*n*angle) theta_n: the
    effective channel of one unit-gain path, over N."""
    n = len(theta)
    return effective_channel(0.0, sparse_cascade([angle], [1.0], n), theta) / n


def _replay_nlos(replay, n, bx, by, slots, l1, l2):
    """The nlos trial's draws before its chunk loop, in trial order. Returns
    the in-band side (cascade angles (K, L), served UE k = slot mod K, its
    direct link |h_d| = sqrt(beta_d Exp(1)), real, and cascade gains
    gamma_1,i gamma_2,j per slot) and the OOB side (cascade angles (Q, L) and
    the shared feeder gains gamma_1 (slots, l1)). The OOB gains follow the
    loop (_replay_oob)."""
    _, _, angles_x = mmwave_angles(replay, n, l1, l2, bx.n_ues)
    _, _, angles_y = mmwave_angles(replay, n, l1, l2, by.n_ues)
    k = np.arange(slots) % bx.n_ues
    bs_x = complex_normal(replay, bx.beta_f, (slots, l1))
    ue_x = complex_normal(replay, bx.beta_g[k, None], (slots, l2))
    h_dx = np.sqrt(bx.beta_d[k] * replay.standard_exponential(slots))
    g_x = (bs_x[:, :, None] * ue_x[:, None, :]).reshape(slots, l1 * l2)
    gamma_1 = complex_normal(replay, by.beta_f, (slots, l1))
    return (angles_x, k, h_dx, g_x), (angles_y, gamma_1)


@pytest.mark.parametrize("n", [8, 16])
def test_mmwave_nlos_trial_matches_scalar_reference(n):
    """Every slot of a replayed trial against the scalar rules. Both direct
    links are drawn as magnitudes, so the scalar rules see real, positive
    h_d (any phase gives the same gains; see
    test_nlos_scalar_gains_ignore_the_direct_phase). The configuration is
    align of the served UE's sparse_cascade, and each gain is
    effective_channel of that configuration. With
    a_j = sum_i gamma_1,i r_ij, r_ij the scalar response at cascade angle
    (i, j), the OOB gains are replayed after the loop with reflected variance
    (N^2 / L) beta_g,q ||a||^2, and UE q sees per-path gains
    gamma_1,i gamma_2,j with gamma_2,j = (sqrt(L) / N) R conj(a_j) / ||a||^2:
    their per-path sum, scaled by N / sqrt(L), is R, the reflected term the
    trial drew."""
    spec, bx, by, rng, replay = _diff_setup("mmwave_nlos", n, l1=2, l2=2)
    l1, l2 = spec.l1, spec.l2
    scale = n / math.sqrt(l1 * l2)
    data = mmwave_nlos_trial(rng, n, bx, by, spec.slots, l1, l2)

    (angles_x, k_served, h_dx, g_x), (angles_y, gamma_1) = \
        _replay_nlos(replay, n, bx, by, spec.slots, l1, l2)
    thetas, a = [], np.empty((spec.slots, by.n_ues, l2), dtype=complex)
    for s in range(spec.slots):
        c = sparse_cascade(angles_x[k_served[s]], g_x[s], n)
        thetas.append(align(h_dx[s], c))
        _assert_gains(data.inband_gain[s], abs(effective_channel(h_dx[s], c, thetas[s])) ** 2)
        for q in range(by.n_ues):
            resp = np.array([_response(angle, thetas[s]) for angle in angles_y[q]]).reshape(l1, l2)
            a[s, q] = gamma_1[s] @ resp
    power = (np.abs(a) ** 2).sum(axis=2)
    assert np.all(power > 0)
    _, direct, reflected = _replay_oob(replay, by.beta_d, scale ** 2 * by.beta_g * power)
    np.testing.assert_array_equal(data.gain_noirs, direct)
    assert rng.bit_generator.state == replay.bit_generator.state
    for s in range(spec.slots):
        want = []
        for q in range(by.n_ues):
            gamma_2 = reflected[s, q] * np.conj(a[s, q]) / (scale * power[s, q])
            gains = np.outer(gamma_1[s], gamma_2).ravel()
            want.append(abs(effective_channel(math.sqrt(direct[s, q]),
                                              sparse_cascade(angles_y[q], gains, n),
                                              thetas[s])) ** 2)
        _assert_gains(data.gain_irs[s], want)


def test_nlos_scalar_gains_ignore_the_direct_phase():
    """Rotating the served UE's h_d by any phase rotates theta by the same
    global phase: the scalar in-band gain keeps its value, and so does every
    OOB power |sum_i gamma_1,i r_ij|^2, since each response r_ij = adot^H theta
    turns by that phase too. This is why the trial draws |h_d| alone."""
    rng = np.random.default_rng(71)
    n, l1, l2 = 16, 2, 3
    _, _, angles = mmwave_angles(rng, n, l1, l2, 2)
    gains = complex_normal(rng, 1.0, (l1 * l2,))
    gamma_1 = complex_normal(rng, 1.0, (l1,))
    h_d = 0.7 * complex_normal(rng, 1.0, ())
    gain, power = [], []
    c = sparse_cascade(angles[0], gains, n)
    for phase in (0.0, 1.1, -2.9, math.pi):
        rotated = h_d * np.exp(1j * phase)
        theta = align(rotated, c)
        gain.append(abs(effective_channel(rotated, c, theta)) ** 2)
        resp = np.array([_response(angle, theta) for angle in angles[1]]).reshape(l1, l2)
        power.append(np.abs(gamma_1 @ resp) ** 2)
    np.testing.assert_allclose(gain, gain[0], rtol=1e-12)
    np.testing.assert_allclose(power, np.broadcast_to(power[0], (4, l2)), rtol=1e-10)
    # the magnitude alone gives the same gain
    assert abs(effective_channel(abs(h_d), c, align(abs(h_d), c))) ** 2 \
        == pytest.approx(gain[0], rel=1e-12)


def _nlos_gain_moments(resp, by, n):
    """Mean gain and gain correlation across UEs, given each slot's responses
    r (slots, Q, l1, l2) at the OOB cascade angles. With
    A_q = sum_j r_q.j r_q.j^H (l1 x l1), the reflected power P_q is a Hermitian
    form in gamma_1 ~ CN(0, beta_f I): E P_q = beta_f tr A_q and
    E P_q P_p = beta_f^2 (tr A_q tr A_p + tr A_q A_p). Given P each gain is
    (beta_d + c P) Exp(1), c = (N^2/L) beta_g, independently across UEs.
    The off-diagonal tr A_q A_p is what the shared gamma_1 adds; the third
    return is the correlation without it, that of one gamma_1 per UE."""
    _, q_ues, l1, l2 = resp.shape
    a = np.einsum("sqij,sqkj->sqik", resp, np.conj(resp))
    power = by.beta_f * np.einsum("sqii->sq", a).real
    shared = by.beta_f ** 2 * np.einsum("sqik,spki->sqp", a, a).real
    c = (n ** 2 / (l1 * l2)) * by.beta_g
    mean_cond = by.beta_d + c * power                                # (slots, Q)
    mean = mean_cond.mean(axis=0)
    corrs = []
    for cross in (shared, shared * np.eye(q_ues)):
        second = (mean_cond[:, :, None] * mean_cond[:, None, :]
                  + np.outer(c, c) * cross).mean(axis=0)
        second[np.diag_indices(q_ues)] *= 2.0      # E[Exp(1)^2] = 2; 1 across UEs
        cov = second - np.outer(mean, mean)
        corrs.append(cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov))))
    return mean, corrs[0], corrs[1]


@pytest.mark.parametrize("n,l1,l2", [(16, 1, 4), (16, 2, 4), (4, 1, 8), (4, 2, 4)])
def test_mmwave_nlos_reduced_law_matches_per_path_sum(n, l1, l2):
    """Distributional equivalence of the reduced OOB sampler and the per-path
    sum it replaces, both on the trial's own angles and in-band draws, the
    configurations rebuilt by align: KS per UE on the gain,
    the gain offset and the direct gain (_assert_gain_laws), the mean gain
    from the slots' responses, and the correlation between UEs
    that the shared gamma_1 creates (averaged over the UE pairs, whose single
    estimates are noisy with these heavy tails). The gap to the correlation of
    one gamma_1 per UE is asserted too, so the check has teeth. At N = 4 the
    grid holds fewer angles than the L = 8 cascade paths, so angles repeat."""
    slots = 10_000
    l_paths = l1 * l2
    spec = ExperimentSpec(regime="mmwave_nlos", k_ues=2, q_ues=4, l1=l1, l2=l2)
    _, bx, by = budgets_for(spec, np.random.default_rng(62))
    seed = 620 + n + l1
    data = mmwave_nlos_trial(np.random.default_rng(seed), n, bx, by, slots, l1, l2)
    (angles_x, k_served, h_dx, g_x), (angles_y, _) = \
        _replay_nlos(np.random.default_rng(seed), n, bx, by, slots, l1, l2)
    if n < l_paths:
        assert len(np.unique(grid_index(angles_y, n))) < angles_y.size
    theta = np.empty((slots, n), dtype=complex)
    for k in range(bx.n_ues):
        rows = k_served == k
        theta[rows] = align(h_dx[rows, None], sparse_cascade(angles_x[k], g_x[rows], n))
    basis = np.exp(1j * np.pi * np.outer(np.arange(n), angles_y.ravel())) / n
    resp = (theta @ basis).reshape(slots, by.n_ues, l_paths)   # adot(angle)^H theta

    per_path = np.random.default_rng(seed + 1)
    gamma_1 = complex_normal(per_path, by.beta_f, (slots, l1))
    gamma_2 = complex_normal(per_path, by.beta_g[:, None], (slots, by.n_ues, l2))
    h_d = complex_normal(per_path, by.beta_d, (slots, by.n_ues))
    cascade = (gamma_1[:, None, :, None] * gamma_2[:, :, None, :]).reshape(resp.shape)
    eff = h_d + (n / math.sqrt(l_paths)) * (cascade * resp).sum(axis=2)
    dense_gain = np.abs(eff) ** 2

    _assert_gain_laws(data, dense_gain, np.abs(h_d) ** 2, by)

    mean, corr, corr_indep = _nlos_gain_moments(resp.reshape(slots, by.n_ues, l1, l2), by, n)
    pairs = np.triu_indices(by.n_ues, 1)
    assert corr[pairs].mean() - corr_indep[pairs].mean() > 0.08
    for gain in (data.gain_irs, dense_gain):
        stderr = gain.std(axis=0, ddof=1) / math.sqrt(slots)
        assert np.all(np.abs(gain.mean(axis=0) - mean) < 4.0 * stderr)
        sample = np.corrcoef(gain.T)[pairs]
        assert abs(sample.mean() - corr[pairs].mean()) < 0.04


def test_nlos_variance_vanishes_off_the_served_coset(monkeypatch):
    """When the served UE's cascade bins lie on one coset m0 + gZ of the grid
    (g = gcd of their differences with N, g > 1), its matched sum v, and so
    theta = v / |v|, is a tone at m0 times a sequence of period N / g, whose
    spectrum lives on that coset. An OOB UE with every bin off the coset then
    has no reflected variance in the model, while that in-band UE is served:
    the FFTs give exact zeros or a rounding residue (below 1e-20 of a lit
    variance), and wherever the variance is exactly 0 the gain with the
    reflector is the direct gain bit for bit. Moving one of the OOB UE's bins
    onto the coset brings the variance back, and so does serving an in-band
    UE off any coset. The angle bins are planted, and _oob_gains is spied on."""
    import irsoob.engine as engine

    n, l2 = 16, 4
    coset = [1, 5, 9, 13]                                     # m0 = 1, g = 4
    bins_x = np.array([coset, [0, 3, 6, 7], [2, 4, 11, 14]])
    bins_y = np.array([[0, 2, 3, 6], [1, 2, 3, 4], [5, 8, 10, 15], [0, 7, 11, 12]])
    g = math.gcd(n, *(m - coset[0] for m in coset))
    assert g == 4 and np.all(bins_y[0] % g != coset[0] % g)
    assert math.gcd(n, *(bins_x[1] - bins_x[1, 0])) == 1
    spec, bx, by, _, _ = _diff_setup("mmwave_nlos", n, l1=1, l2=l2)
    served = np.arange(spec.slots) % bx.n_ues == 0

    def variance_and_gains(oob_bins):
        planted = iter([bins_x, oob_bins])
        monkeypatch.setattr(engine, "mmwave_angle_bins",
                            lambda rng, n_elements, l1, l2, n_ues: (None, None, next(planted)))
        seen = []

        def spy(rng, beta_d, variance):
            gains = _oob_gains(rng, beta_d, variance)
            seen.append((variance, *gains))
            return gains

        monkeypatch.setattr(engine, "_oob_gains", spy)
        mmwave_nlos_trial(spawn_rngs(81, 1)[0], n, bx, by, spec.slots, 1, l2)
        return seen[0]

    variance, gain_irs, gain_noirs = variance_and_gains(bins_y)
    typical = np.median(variance[:, 1:])
    assert np.all(variance[served, 0] < 1e-20 * typical)
    assert np.all(variance[~served, 0] > 1e-10 * typical)
    dark = variance == 0
    np.testing.assert_array_equal(gain_irs[dark], gain_noirs[dark])

    moved = bins_y.copy()
    moved[0, -1] = coset[1]
    variance, _, _ = variance_and_gains(moved)
    assert np.all(variance[served, 0] > 1e-10 * typical)


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


def test_pf_never_serves_a_ue_that_offers_rate_zero():
    """At tau = 1 UE 0's average decays to 0 once UE 1 is served, and from
    slot 2 on UE 0 offers 0 against it: 0/0. A UE that offers nothing banks
    nothing, so its metric is 0 and UE 1 keeps the slot, as it does at
    tau = 1000; the division raises no warning."""
    rates = np.array([[1.0, 1.0], [0.0, 0.5], [0.0, 0.5], [0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1.0, 1000.0):
            np.testing.assert_array_equal(schedule_rates(rates, "pf", tau), [0, 1, 1, 1])


def test_pf_equal_rates_share_slots_exactly():
    served = schedule_rates(np.ones((1000, 5)), "pf", tau=50.0)
    np.testing.assert_array_equal(np.bincount(served, minlength=5), [200] * 5)


def test_pf_symmetric_rates_share_slots_roughly():
    rng = np.random.default_rng(9)
    served = schedule_rates(rng.exponential(1.0, (5000, 5)), "pf", tau=200.0)
    counts = np.bincount(served, minlength=5)
    assert np.max(np.abs(counts - 1000)) < 150


def _pf_one_row(rates, tau):
    """PF over one (slots, Q) rate matrix, slot by slot with scalar argmax:
    the per-row reference the batched scheduler is held to."""
    decay = 1.0 - 1.0 / tau
    averages = np.maximum(rates[0], 1e-300)
    served = []
    for t in range(len(rates)):
        q_star = int(np.argmax(rates[t] / averages))
        served.append(q_star)
        averages *= decay
        averages[q_star] += rates[t, q_star] / tau
    return np.array(served)


@pytest.mark.parametrize("lead,q_ues", [((6,), 5), ((2, 3), 4), ((4,), 1), ((), 3)],
                         ids=["trials", "two_axes", "one_ue", "unbatched"])
def test_batched_schedules_equal_the_per_row_loop(lead, q_ues):
    """Every schedule of a batch is the per-row PF loop's bit for bit, and rr
    and mr broadcast over the leading axes. Half the rows are drawn from
    {1, 2, 4}, so exact ties in the PF metric are frequent and must go to
    the lowest index as in the loop; Q = 1 serves UE 0 throughout."""
    rng = np.random.default_rng(72)
    slots = 300
    rates = rng.exponential(1.0, (*lead, slots, q_ues))
    flat = rates.reshape(-1, slots, q_ues)
    flat[::2] = rng.choice([1.0, 2.0, 4.0], size=flat[::2].shape)
    for tau in (1.0, 4.0, 50.0):
        with np.errstate(divide="ignore"):
            served = schedule_rates(rates, "pf", tau=tau)
            want = np.stack([_pf_one_row(r, tau) for r in flat]).reshape(*lead, slots)
        assert served.shape == (*lead, slots)
        np.testing.assert_array_equal(served, want)
    if q_ues == 1:
        assert not served.any()
    rr = schedule_rates(rates, "rr")
    np.testing.assert_array_equal(rr, np.broadcast_to(np.arange(slots) % q_ues, (*lead, slots)))
    np.testing.assert_array_equal(schedule_rates(rates, "mr"), np.argmax(rates, axis=-1))


def test_round_robin_serves_each_ue_equally():
    served = schedule_rates(np.ones((45, 9)), "rr")
    np.testing.assert_array_equal(np.bincount(served, minlength=9), [5] * 9)


def test_mr_select_examples():
    def mr(gains):
        rates = spectral_efficiency(np.atleast_2d(gains), GAMMA_130)
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
    direct, shape = _aligned_draws(rng, 10000, 16)
    gain = _aligned_gain(direct, shape, 1.0, 1.0)
    grid = np.quantile(np.concatenate([gain, direct]), np.linspace(0.01, 0.99, 60))

    same = dominance_test(gain, gain, grid)
    assert isinstance(same, DominanceReport)
    assert same.passed and same.min_diff == 0.0

    assert dominance_test(gain, direct, grid).passed
    swapped = dominance_test(direct, gain, grid)
    assert not swapped.passed


# ---------------------------------------------------------------------------
# budgets, rngs, regime dispatch

def test_budgets_near_far_iid_and_drawn_positions():
    spec = ExperimentSpec(k_ues=2, q_ues=2)
    near_far = np.array([[960.0, 960.0], [1090.0, 1090.0]])
    bx = link_budget(spec.geometry, spec.path_loss, spec.geometry.bs_inband, near_far)
    assert bx.beta_d[0] > bx.beta_d[1]  # closer UE, stronger direct link

    iid = ExperimentSpec(k_ues=3, q_ues=5, iid_ues=True)
    (px, py), bx, by = budgets_for(iid, np.random.default_rng(0))
    assert px.shape == (3, 2) and py.shape == (5, 2)
    assert np.ptp(bx.beta_d) == 0.0 and np.ptp(by.beta_d) == 0.0
    assert np.ptp(bx.beta_g) == 0.0

    drawn = ExperimentSpec(k_ues=4, q_ues=4)
    (px, py), _, _ = budgets_for(drawn, np.random.default_rng(5))
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
    data, rates, served = _scheduled_trial(spec, np.random.default_rng(27))
    assert len(served) == 64
    gain = _served(data.gain_irs, served)
    assert np.all(np.isfinite(gain)) and np.all(gain >= 0.0)
    assert np.all(np.isfinite(_served(rates, served)))
    assert np.all(np.isfinite(data.inband_gain)) and np.all(data.inband_gain > 0.0)
