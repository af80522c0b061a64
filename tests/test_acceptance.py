"""Acceptance gate: twelve end-to-end checks, one per criterion.

Each test prints a single verdict line (criterion number, PASS/FAIL, and the
measured quantities) before asserting, so the terse summary survives in the
test log either way. Tolerances are stated next to each check.
"""

import itertools
import math
import time

import numpy as np

from irsoob import analytics as an
from irsoob.analytics import AnalyticParams
from irsoob.channels import PathLossParams
from irsoob.config import ExperimentSpec
from irsoob.engine import (_aligned_draws, _aligned_gain, budgets_for, dominance_test,
                           run_trial, spawn_rngs)
from irsoob.cli import main
from irsoob.experiments import operator_params
from irsoob.kernels import db_to_linear
from oracles import (PINNED_UES, correlation_response, oob_gain_samples, preset_argv,
                     spec_rows, spectral_efficiency)

G130 = float(db_to_linear(130.0))
G150 = float(db_to_linear(150.0))

# mmWave reference losses: feeder BS-reflector at 1414.655 m, reflector-UE at
# 75 m, direct at 1414.655 m with the steeper exponent (c0 = -60 dB, d0 = 1 m)
MMWAVE_LOSS = PathLossParams(c0_db=-60.0)
BETA_F_MM = 1e-6 / 1414.6554350795109 ** 2
BETA_G_MM = 1e-6 / 75.0 ** 2
BETA_R_MM = BETA_F_MM * BETA_G_MM
BETA_D_MM = 7.43908468669802e-21


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _rr_mean(gains: np.ndarray, snr: float) -> float:
    """Mean round-robin OOB SE of a (slots, Q) gain record."""
    slots, q = gains.shape
    return float(spectral_efficiency(gains[np.arange(slots), np.arange(slots) % q], snr).mean())


def test_c01_closed_form_bounds_simulated_sumse():
    """Rayleigh sum-SE at 130 dB: closed forms upper-bound the simulation
    within 0.3 bits for N in {16, 64, 256}, 20 trials x 5000 slots, <= 60 s."""
    t0 = time.monotonic()
    spec = ExperimentSpec()
    details, ok = [], True
    for n in (16, 64, 256):
        ana = np.zeros(2)
        emp = np.zeros(2)
        for rng in spawn_rngs(1001 + n, 20):
            _, bx, by = budgets_for(spec, rng)
            data = run_trial(spec, rng, n, bx, by, paired=False)
            emp += [spectral_efficiency(data.inband_gain, G130).mean() / 20,
                    _rr_mean(data.gain_irs, G130) / 20]
            ana += [an.sumse_inband_sub6(operator_params(spec, bx, n), G130) / 20,
                    an.sumse_oob_sub6(operator_params(spec, by, n), G130) / 20]
        gaps = ana - emp
        ok &= bool(np.all(gaps >= 0.0) and np.all(gaps <= 0.3))
        details.append(f"N={n} gaps in/oob {gaps[0]:.3f}/{gaps[1]:.3f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 60.0
    report(1, ok, "; ".join(details) + f"; {elapsed:.1f}s (limit 60)")


def test_c02_sumse_slopes_vs_element_count():
    """Slope of sum-SE vs log2 N over {64..512} at 150 dB: 2.0 +/- 0.15
    in-band, 1.0 +/- 0.15 OOB, <= 2 min."""
    t0 = time.monotonic()
    ns = np.array([64, 128, 256, 512])
    spec = ExperimentSpec(slots=4000)
    emp_in, emp_oob = [], []
    for n in ns:
        vi, vo = [], []
        for rng in spawn_rngs(2000 + n, 6):
            _, bx, by = budgets_for(spec, rng)
            data = run_trial(spec, rng, int(n), bx, by, paired=False)
            vi.append(spectral_efficiency(data.inband_gain, G150).mean())
            vo.append(_rr_mean(data.gain_irs, G150))
        emp_in.append(np.mean(vi))
        emp_oob.append(np.mean(vo))
    s_in = float(np.polyfit(np.log2(ns), emp_in, 1)[0])
    s_oob = float(np.polyfit(np.log2(ns), emp_oob, 1)[0])
    elapsed = time.monotonic() - t0
    ok = abs(s_in - 2.0) <= 0.15 and abs(s_oob - 1.0) <= 0.15 and elapsed <= 120.0
    report(2, ok, f"slopes in-band {s_in:.3f} (2.0+/-0.15), oob {s_oob:.3f} "
                  f"(1.0+/-0.15); {elapsed:.1f}s (limit 120)")


def _ks(sorted_samples: np.ndarray, cdf: np.ndarray) -> float:
    i = np.arange(1, sorted_samples.size + 1)
    return float(max(np.max(i / sorted_samples.size - cdf),
                     np.max(cdf - (i - 1) / sorted_samples.size)))


def test_c03_offset_ccdf_ks_small_n():
    """One-sample KS between 1e5 simulated gain offsets and the closed CCDF
    <= 0.02 for each N in {4, 16, 64}, <= 60 s. The exact finite-N form
    (the Gamma(N) mixture over ||f||^2) is held to that at all three N; the
    large-N limit form only at N = 16 and 64, where it is meant to hold. Its
    N = 4 distance is printed to show how early the limit becomes usable."""
    t0 = time.monotonic()
    details, ok = [], True
    for n in (4, 16, 64):
        with_r, without_r, params = oob_gain_samples(303, ExperimentSpec(), n, 100_000)
        z = np.sort(with_r - without_r)
        ks = _ks(z, 1.0 - an.ccdf_offset_sub6_finite_n(z, params))
        ks_lim = _ks(z, 1.0 - np.asarray(an.ccdf_offset_sub6(z, params)))
        ok &= ks <= 0.02 and (n == 4 or ks_lim <= 0.02)
        details.append(f"N={n} KS {ks:.5f}, limit {ks_lim:.5f}"
                       + (" (not asserted)" if n == 4 else ""))
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 60.0
    report(3, ok, "; ".join(details) + f" (tol 0.02); {elapsed:.1f}s (limit 60)")


def test_c04_gain_with_reflector_dominates_without():
    """CCDF dominance of the OOB gain with the reflector vs without, at the
    3-sigma two-sample noise floor: Rayleigh N in {4,16,64} and sparse LoS
    N=64 with L in {5,20,50}."""
    details, ok = [], True
    sub6 = ExperimentSpec()
    for n in (4, 16, 64):
        w, wo, _ = oob_gain_samples(404 + n, sub6, n, 20_000)
        grid = np.quantile(np.concatenate([w, wo]), np.linspace(0.01, 0.99, 81))
        min_diff, eps_stat = dominance_test(w, wo, grid)
        ok &= min_diff >= -eps_stat
        details.append(f"N={n} min_diff {min_diff:.4f}")
    for l2 in (5, 20, 50):
        spec = ExperimentSpec(regime="mmwave_los", path_loss=MMWAVE_LOSS, l1=1, l2=l2,
                              gamma_db_sweep=(150.0,))
        w, wo, _ = oob_gain_samples(454 + l2, spec, 64, 20_000)
        grid = np.quantile(np.concatenate([w, wo]), np.linspace(0.01, 0.99, 81))
        min_diff, eps_stat = dominance_test(w, wo, grid)
        ok &= min_diff >= -eps_stat
        details.append(f"L={l2} min_diff {min_diff:.4f}")
    report(4, ok, "; ".join(details))


def test_c05_outage_decay_laws():
    """OOB outage halves (+/-10%) when N doubles once N*beta_r >> beta_d;
    in-band outage decays exponentially in N (log-linear fit R^2 >= 0.95
    over four points)."""
    spec = ExperimentSpec()
    w64, _, p64 = oob_gain_samples(505, spec, 64, 200_000)
    w128, _, _ = oob_gain_samples(505, spec, 128, 200_000)
    rho = 0.1 * float(p64.beta_d[0] + 64 * p64.beta_r[0])
    ratio = float(np.mean(w128 < rho) / np.mean(w64 < rho))

    _, bx, _ = budgets_for(spec, np.random.default_rng(506))
    br, bd = float(bx.beta_r[0]), float(bx.beta_d[0])
    rho_in = (math.pi ** 2 / 16.0) * br
    ns = np.array([1, 2, 3, 4])
    outs = []
    for n in ns:
        g = _aligned_gain(*_aligned_draws(np.random.default_rng(500 + n), 2_000_000, int(n)),
                          bd, br)
        outs.append(float(np.mean(g < rho_in)))
    ln = np.log(outs)
    slope, icpt = np.polyfit(ns, ln, 1)
    r2 = 1.0 - np.sum((ln - np.polyval([slope, icpt], ns)) ** 2) / np.sum(
        (ln - ln.mean()) ** 2)
    ok = abs(ratio - 0.5) <= 0.05 and slope < 0.0 and r2 >= 0.95
    report(5, ok, f"halving ratio {ratio:.3f} (0.5+/-0.05); in-band log-outage "
                  f"slope {slope:.2f}, R^2 {r2:.3f} (>=0.95)")


def test_c06_sparse_gain_cdf_vs_fresh_angle_ensemble():
    """Quadrature CDF of the sparse LoS gain vs 1e5 fresh-angle draws:
    KS <= 0.02 at (N=64, L=5) and (N=64, L=50)."""
    details, ok = [], True
    n, count = 64, 100_000
    for l in (5, 50):
        rng = np.random.default_rng(46)
        idx_x = rng.integers(0, n, count)
        keys = rng.random((count, n))
        idx_y = np.argpartition(keys, l - 1, axis=1)[:, :l]
        match = np.any(idx_y == idx_x[:, None], axis=1)
        h_d = np.sqrt(BETA_D_MM / 2) * (rng.standard_normal(count)
                                        + 1j * rng.standard_normal(count))
        a1 = np.sqrt(BETA_F_MM / 2) * (rng.standard_normal(count)
                                       + 1j * rng.standard_normal(count))
        a2 = np.sqrt(BETA_G_MM / 2) * (rng.standard_normal(count)
                                       + 1j * rng.standard_normal(count))
        phase = np.exp(2j * np.pi * rng.random(count))
        gain = np.abs(h_d + np.where(match, (n / math.sqrt(l)) * a1 * a2 * phase,
                                     0.0)) ** 2
        zs = np.sort(gain)
        pick = np.unique(np.linspace(0, count - 1, 2001).astype(int))
        params = AnalyticParams(n_elements=n, beta_r=BETA_R_MM, beta_d=BETA_D_MM, l_paths=l)
        theo = an.cdf_oob_mmwave_los(zs[pick], params)
        ks = float(max(np.max(np.abs(theo - pick / count)),
                       np.max(np.abs(theo - (pick + 1) / count))))
        ok &= ks <= 0.02
        details.append(f"L={l} KS {ks:.5f}")
    report(6, ok, "; ".join(details) + " (tol 0.02)")


def test_c07_matching_pmf_exact_vs_enumeration():
    """Aligned-subset pmf equals brute-force counting to 1e-12 for every
    (L, N) with N <= 12, L < N."""
    worst = 0.0
    for n in range(2, 13):
        for l in range(1, n):
            fixed = set(range(l))
            counts = {}
            for subset in itertools.combinations(range(n), l):
                i = len(fixed.intersection(subset))
                counts[i] = counts.get(i, 0) + 1
            total = math.comb(n, l)
            for i in range(0, l + 1):
                err = abs(an.matching_paths_pmf(l, n, i) - counts.get(i, 0) / total)
                worst = max(worst, err)
    ok = worst <= 1e-12
    report(7, ok, f"max |pmf - enumeration| = {worst:.2e} over N<=12 (tol 1e-12)")


def test_c08_directional_response_at_optimized_angles():
    """RMS directional response of the optimized reflector, N=500, 1000
    trials: 1 at the single LoS angle, 1/sqrt(L) +/- 0.05 at each of the L
    matched angles for L in {2, 3}, and <= 0.05 off-peak."""
    def resp(seed, angles, nu):
        return correlation_response(np.random.default_rng(seed), 500, angles, nu, 1000)

    details, ok = [], True
    los = resp(1, (0.54,), 0.54)
    ok &= abs(los - 1.0) <= 1e-6
    details.append(f"LoS {los:.6f}")
    for seed, angles in ((2, (-0.23, 0.54)), (3, (-0.23, 0.06, 0.54))):
        l = len(angles)
        peaks = [resp(seed, angles, nu) for nu in angles]
        off = resp(seed, angles, 0.9)
        ok &= all(abs(v - 1.0 / math.sqrt(l)) <= 0.05 for v in peaks)
        ok &= off <= 0.05
        details.append(f"L={l} peaks {['%.3f' % v for v in peaks]} "
                       f"target {1.0 / math.sqrt(l):.3f} off {off:.3f}")
    report(8, ok, "; ".join(details))


def test_c09_multipath_sumse_peaks_near_l_squared():
    """Sparse multipath OOB sum-SE over N in {4..1024} at reference SNR
    150 dB (transmit 210 dB): the empirical maximum should land within one
    octave of N = L^2 for L in {4, 8}.

    This fails (peaks at N = 512 for L = 4 and N = 1024 for L = 8), for three
    measured causes:
    1. At this budget (mean beta_d*snr ~ 6.9 and 6.3, beta_r*snr ~ 0.46 and
       0.27, for L = 4 and 8) the aligned term does not dominate the direct
       link, and even the aligned-paths form
       sumse_oob_mmwave_nlos peaks at N = 64 (L = 4) and N = 128 (L = 8);
       the L^2 rule needs the budget of
       test_sparse_multipath_peak_near_squared_path_count.
    2. The engine's configuration is unit-modulus, so for L >= 2 about
       15-18% of the reflected power falls off the matched angles, and the
       simulated curve rises over the whole sweep.
    3. The angles are fixed per trial, so two trials leave a standard error
       of ~0.2 bits per point, more than the 0.15-bit rise from N = 64 to
       N = 1024 at L = 4.
    Which configuration the multipath closed forms should describe is open
    (ROADMAP open item 5); until a closed form of the unit-modulus model
    exists, the assertion, seeds and sizes stay as written."""
    snr = float(db_to_linear(210.0))
    ns = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    details, ok = [], True
    for l in (4, 8):
        spec = ExperimentSpec(regime="mmwave_nlos", path_loss=MMWAVE_LOSS, l1=1, l2=l,
                              gamma_db_sweep=(200.0,), slots=1000)
        _, bx, by = budgets_for(spec, spawn_rngs(909 + l, 1)[0])
        emp = []
        for n in ns:
            vals = [_rr_mean(run_trial(spec, rng, n, bx, by, paired=False).gain_irs, snr)
                    for rng in spawn_rngs(909 + 31 * l + n, 2)]
            emp.append(float(np.mean(vals)))
        peak = ns[int(np.argmax(emp))]
        ana = [an.sumse_oob_mmwave_nlos(operator_params(spec, by, n), snr) for n in ns]
        ok &= l * l / 2 <= peak <= 2 * l * l
        details.append(f"L={l} peak N={peak} (octave [{l * l // 2}, {2 * l * l}]), "
                       f"aligned-paths form peaks at N={ns[int(np.argmax(ana))]}, "
                       f"simulated {emp[0]:.2f}->{emp[-1]:.2f} bits")
    report(9, ok, "; ".join(details) + "; known causes: aligned term does not dominate at "
                  "this budget, unit-modulus leakage off the matched angles, "
                  "~0.2-bit trial noise (see docstring)")


def test_c10_max_rate_asymptote_and_slope():
    """Max-rate scheduling with 100 identical OOB UEs: empirical sum-SE at
    N=64 within 0.3 bits of the log(Q) asymptote; slope vs log2 N is
    1.0 +/- 0.15 over {64..512}."""
    spec = ExperimentSpec(geometry=PINNED_UES, q_ues=100, gamma_db_sweep=(150.0,),
                          scheduler="mr", slots=2000)
    emp = {}
    for n in (64, 128, 256, 512):
        vals = []
        for rng in spawn_rngs(1010 + n, 2):
            _, bx, by = budgets_for(spec, rng)
            gains = run_trial(spec, rng, n, bx, by, paired=False).gain_irs
            rates = spectral_efficiency(gains, G150)
            vals.append(rates.max(axis=1).mean())
        emp[n] = float(np.mean(vals))
    _, _, by = budgets_for(spec, np.random.default_rng(0))
    asym = float(an.mr_asymptotic_se(100, operator_params(spec, by, 64), G150))
    ns = np.array([64, 128, 256, 512])
    slope = float(np.polyfit(np.log2(ns), [emp[n] for n in ns], 1)[0])
    ok = abs(emp[64] - asym) <= 0.3 and abs(slope - 1.0) <= 0.15
    report(10, ok, f"N=64 empirical {emp[64]:.3f} vs asymptote {asym:.3f} "
                   f"(tol 0.3); slope {slope:.3f} (1.0+/-0.15)")


def test_c11_pf_gap_shrinks_with_population():
    """PF gap to the matched-reflector ceiling, from fig11's Q sweep at 130 dB
    (one trial of 3000 slots, tau=1e3): monotone non-increasing over Q in
    {1, 10, 100} at N=4, positive at Q=1 and within 0.01 of zero at Q=10
    (selection diversity closes it; at Q=100 it may go below zero once the
    scheduling gain beats the per-UE mean). N=16 leaves a gap above 0.1 at
    Q=100, larger than N=4's."""
    spec = ExperimentSpec(n_sweep=(4, 16), gamma_db_sweep=(130.0,), slots=3000, trials=1,
                          seed=90, pf_tau=1000.0, outputs=("pf_gap",))
    rows, _ = spec_rows(spec, variants=({"q_ues": 1}, {"q_ues": 10}, {"q_ues": 100}))
    gap = {(r.q_ues, r.n_elements): r.empirical for r in rows if r.statistic == "pf_gap"}
    gaps = [gap[(q, 4)] for q in (1, 10, 100)]
    gap16 = gap[(100, 16)]
    ok = (gaps[0] > gaps[1] > gaps[2] and gaps[0] > 0.0 and abs(gaps[1]) < 0.01
          and gap16 > 0.1 and gap16 > gaps[2])
    report(11, ok, f"N=4 gaps {['%.4f' % g for g in gaps]} (decreasing, first > 0, "
                   f"|second| < 0.01); N=16 at Q=100: {gap16:.4f} > max(0.1, {gaps[2]:.4f})")


def test_c12_preset_rerun_is_byte_identical(tmp_path):
    """Any preset rerun with the same seed writes byte-identical CSV."""
    overrides = {"slots": 200, "trials": 2}
    for sub in ("first", "second"):
        assert main(preset_argv("fig5", tmp_path / sub, 5, overrides)) == 0
    a = (tmp_path / "first/fig5.csv").read_bytes()
    b = (tmp_path / "second/fig5.csv").read_bytes()
    ok = a == b and len(a) > 0
    report(12, ok, f"fig5 rerun: {len(a)} bytes, identical={a == b}")
