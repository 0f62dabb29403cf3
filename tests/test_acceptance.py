"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings inline.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from _oracles import (enumerate_detection_pmf, estimate_snr, forward_detections,
                      mc_peak_rates)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(number, description, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({time.perf_counter() - t0:.1f}s): "
              f"{description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_1_peak_rate_closed_forms():
    from jjtls.inference import true_rates

    with criterion(1, "FP/FN closed forms match 1e6-sample Monte Carlo "
                      "within 3 sigma for fp, fn in {0.01, 0.1, 0.3, 0.5}", 30):
        for base in (0.01, 0.1, 0.3, 0.5):
            rates = true_rates(base, base)
            FP_hat, FP_se, FN_hat, FN_se = mc_peak_rates(base, base, 10 ** 6,
                                                         seed=100 + int(base * 100))
            assert abs(rates.FP - FP_hat) <= 3 * FP_se, \
                f"fp={base}: FP {rates.FP} vs MC {FP_hat} +/- {FP_se}"
            assert abs(rates.FN - FN_hat) <= 3 * FN_se, \
                f"fn={base}: FN {rates.FN} vs MC {FN_hat} +/- {FN_se}"


def test_criterion_2_likelihood_exhaustive_enumeration():
    from jjtls.inference import DetectorRates, likelihood_vector

    with criterion(2, "count likelihood matches exhaustive per-bin enumeration "
                      "for B <= 12 within 1e-12", 60):
        for FP in (0.0, 0.05, 0.2):
            for FN in (0.0, 0.05, 0.2):
                rates = DetectorRates(fp=0.0, fn=0.0, FP=FP, FN=FN)
                for B in range(1, 13):
                    for n_t in range(B + 1):
                        oracle = enumerate_detection_pmf(B, n_t, FP, FN)
                        got = np.array([likelihood_vector(n_m, B, rates)[n_t]
                                        for n_m in range(B + 1)])
                        assert np.max(np.abs(got - oracle)) <= 1e-12, \
                            f"B={B} n_t={n_t} FP={FP} FN={FN}"


def test_criterion_3_credible_interval_coverage():
    from jjtls.inference import DetectorRates, InferenceInput, posterior

    with criterion(3, "68.27% interval covers true N_T in 60-76% of 500 "
                      "forward-model resonators (B=200)", 300):
        rates = DetectorRates(fp=0.0, fn=0.0, FP=0.005, FN=0.03)
        B = 200
        rng = np.random.default_rng(3)
        hits = 0
        total = 0
        for lam_true, n_runs in ((1.0, 167), (5.0, 167), (15.0, 166)):
            for _ in range(n_runs):
                n_t = min(int(rng.poisson(lam_true)), B)
                n_m = forward_detections(n_t, B, rates.FP, rates.FN, rng)
                post = posterior(InferenceInput(n_detected=n_m, n_bins=B,
                                                rates=rates))
                lo, hi = post.ci68
                hits += lo <= n_t <= hi
                total += 1
        assert total == 500
        rate = hits / total
        print(f"  coverage: {hits}/{total} = {rate:.3f}")
        assert 0.60 <= rate <= 0.76, f"coverage {rate:.3f} outside [0.60, 0.76]"


def _closed_loop_calibration(res, noise_sigma, span, n_points, seed):
    """Calibration path shared by the family of closed-loop scenarios."""
    from jjtls.detector import build_threshold, calibrate_noise
    from jjtls.fitting import fit_hanger
    from jjtls.physics import synth_trace

    grid = np.linspace(res.f_r - span / 2, res.f_r + span / 2, n_points)
    baseline = synth_trace(res, [], grid, noise_sigma,
                           np.random.default_rng([seed, 1]))
    fit = fit_hanger(baseline)
    assert fit.converged
    sigma_cal = calibrate_noise(baseline, fit, ensemble=48, seed=seed)
    return build_threshold(fit.params, sigma_cal, ensemble_size=1200, seed=seed,
                           n_points=n_points)


def test_criterion_4_closed_loop_detection():
    from jjtls.detector import apply_exclusions, count_sweep, curve_follow
    from jjtls.inference import InferenceInput, posterior, true_rates
    from jjtls.physics import (FluxConfig, ResonatorParams, Scenario, TLSDefect,
                               flux_to_freq, scenario_instrument)

    with criterion(4, "closed loop over 200 seeded scenarios: posterior-mean "
                      "error <= 1 in >= 90%, event frequency within kappa/2 "
                      "in >= 95% of detections", 600):
        res = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                              A=0.95, alpha=0.1, phi_v=1.2, phi_0=0.3)
        kappa = res.kappa
        flux = FluxConfig(f_bare=5.0, n_islands=100, m_trapped=0,
                          flux_per_current=0.02)
        noise_sigma = 0.005
        span, n_points = 0.01, 201
        biases = np.linspace(50.0, 130.0, 120)

        calib = _closed_loop_calibration(res, noise_sigma, span, n_points, seed=99)
        rates = true_rates(calib.fp, calib.fn)

        # plants live in the interior of the swept band, >= 4 kappa apart
        f_hi = flux_to_freq(flux, 66.0 * flux.flux_per_current)
        f_lo = flux_to_freq(flux, 124.0 * flux.flux_per_current)

        count_ok = 0
        freq_ok = 0
        n_events_total = 0
        snr_checked = False
        for k in range(200):
            n_plant = k % 5
            rng = np.random.default_rng([4, k])
            freqs = []
            while len(freqs) < n_plant:
                cand = rng.uniform(f_lo, f_hi)
                if all(abs(cand - f) >= 4 * kappa for f in freqs):
                    freqs.append(cand)
            defects = tuple(TLSDefect(f_tls=f, g=kappa, gamma=kappa,
                                      temperature=0.01) for f in freqs)
            assert all(d.cooperativity(res) >= 4 for d in defects)
            sc = Scenario(resonator=res, flux=flux, defects=defects,
                          noise_sigma=noise_sigma, rng_seed=1000 + k)
            sweep = curve_follow(scenario_instrument(sc), biases, span, n_points)
            if not snr_checked:
                assert estimate_snr(sweep.traces[0]) >= 10
                snr_checked = True
            count = count_sweep(apply_exclusions(sweep), calib)
            post = posterior(InferenceInput(n_detected=len(count.events),
                                            n_bins=count.n_bins, rates=rates))
            count_ok += abs(post.mean_count - n_plant) <= 1.0
            for e in count.events:
                n_events_total += 1
                if freqs and min(abs(e.frequency - f) for f in freqs) <= kappa / 2:
                    freq_ok += 1
        print(f"  count accuracy: {count_ok}/200, "
              f"event frequency hits: {freq_ok}/{n_events_total}")
        assert count_ok >= 180, f"posterior-mean accuracy {count_ok}/200 < 90%"
        assert n_events_total > 0
        assert freq_ok >= math.ceil(0.95 * n_events_total), \
            f"frequency accuracy {freq_ok}/{n_events_total} < 95%"


def test_criterion_5_hanger_round_trip():
    from jjtls.fitting import fit_hanger
    from jjtls.physics import ResonatorParams, synth_trace

    with criterion(5, "hanger fit: noiseless recovery within 0.1%, f_r within "
                      "kappa/50 at SNR 20 (100-seed median)", 120):
        truth = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                                A=0.95, alpha=0.15, phi_v=1.1, phi_0=0.3)
        kappa = truth.kappa
        grid = np.linspace(5.0 - 5 * kappa, 5.0 + 5 * kappa, 201)
        clean = synth_trace(truth, [], grid, 0.0, np.random.default_rng(0))
        fit = fit_hanger(clean)
        assert fit.converged
        for name in ("f_r", "Q_l", "Q_e_mag", "theta", "A", "alpha"):
            got = getattr(fit.params, name)
            want = getattr(truth, name)
            scale = max(abs(want), 0.05)
            assert abs(got - want) <= 1e-3 * scale, \
                f"{name}: {got} vs {want}"

        sigma = 0.95 * 0.5 / 20  # depth / SNR
        errs = []
        for seed in range(100):
            tr = synth_trace(truth, [], grid, sigma, np.random.default_rng(seed))
            f = fit_hanger(tr)
            if f.converged:
                errs.append(abs(f.params.f_r - truth.f_r))
        assert len(errs) >= 95
        med = float(np.median(errs))
        print(f"  median f_r error at SNR 20: {med / kappa:.4f} kappa")
        assert med <= kappa / 50


def test_criterion_6_statistics_cross_checks():
    from jjtls.stats import gamma_fit, kruskal_wallis, shapiro_wilk
    from test_stats import SW_VECTORS

    with criterion(6, "Kruskal-Wallis H=7.2 p~0.027, Shapiro-Wilk matches "
                      "AS R94 vectors to 1e-4, gamma MLE mean within 2%", 60):
        H, p = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert H == pytest.approx(7.2, abs=1e-9)
        assert abs(p - 0.027) <= 1e-3

        for name, data, w_ref, p_ref in SW_VECTORS:
            W, pv = shapiro_wilk(data)
            assert abs(W - w_ref) <= 1e-4, name
            assert abs(pv - p_ref) <= 1e-4, name

        x = np.random.default_rng(7).gamma(4.0, 0.05, 10 ** 4)
        fit = gamma_fit(x)
        assert abs(fit.mean - 0.20) <= 0.02 * 0.20


def test_criterion_7_treatment_power():
    from jjtls.stats import kruskal_wallis

    with criterion(7, "Kruskal-Wallis rejects at p<0.05 in >= 80% of 1000 "
                      "draws of n=8 gamma groups with means 0.20 and 0.07", 60):
        rng = np.random.default_rng(2026)
        rejections = 0
        for _ in range(1000):
            a = rng.gamma(4.0, 0.20 / 4.0, 8)       # mean 0.20, sd 0.10
            d = rng.gamma(3.0625, 0.07 / 3.0625, 8)  # mean 0.07, sd 0.04
            _, p = kruskal_wallis([a, d])
            rejections += p < 0.05
        print(f"  rejection rate: {rejections}/1000")
        assert rejections >= 800


def test_criterion_8_correlation_engine_recovery():
    from jjtls.stats import cluster_features, ridge_permutation_importance

    with criterion(8, "grain-size cluster representative ranked first in "
                      ">= 90% of 100 generative morphology fixtures", 120):
        names = ["grain_width_mean", "grain_width_std", "et_mean", "et_std",
                 "et_rms", "jt_mean", "jt_std", "jt_rms"]
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 24
            grain = 40 + 90 * rng.uniform(size=n)
            grain_std = 0.25 * grain + 2.0 * rng.standard_normal(n)
            decoys = rng.standard_normal((n, 6))
            X = np.column_stack([grain, grain_std, decoys])
            y = 0.30 - 0.002 * grain + 0.02 * rng.standard_normal(n)
            sel = cluster_features(X, y)
            reps = list(sel.representatives)
            rep_names = [names[j] for j in reps]
            rr = ridge_permutation_importance(X[:, reps], y,
                                              alpha=sel.ridge_alpha, repeats=30,
                                              seed=seed, feature_names=rep_names)
            wins += rr.ranking()[0] in ("grain_width_mean", "grain_width_std")
        print(f"  grain representative ranked first: {wins}/100")
        assert wins >= 90


def test_criterion_9_pipeline_determinism(tmp_path):
    from jjtls.cli import main

    with criterion(9, "simulate->detect->infer->correlate twice on the bundled "
                      "fixture produce byte-identical manifests", 300):
        cfg = json.loads((FIXTURES / "pipeline.json").read_text())
        cfg["scenario"] = str(FIXTURES / "scenario_three_defects.json")
        cfg["detector"]["ensemble_size"] = 1000
        cfg_path = tmp_path / "pipeline.json"
        cfg_path.write_text(json.dumps(cfg))

        manifests = {}
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["simulate", "--config", str(cfg_path),
                         "--outdir", str(out)]) == 0
            assert main(["detect", "--config", str(cfg_path),
                         "--outdir", str(out)]) == 0
            assert main(["infer", "--config", str(cfg_path),
                         "--outdir", str(out)]) == 0
            assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                         "--morphology", str(FIXTURES / "morphology.csv"),
                         "--outdir", str(out), "--repeats", "30"]) == 0
            manifests[tag] = {p.name: p.read_bytes()
                              for p in sorted(out.glob("manifest_*.json"))}
        assert set(manifests["a"]) == {"manifest_simulate.json", "manifest_detect.json",
                                       "manifest_infer.json", "manifest_correlate.json"}
        for name in manifests["a"]:
            assert manifests["a"][name] == manifests["b"][name], \
                f"{name} differs between runs"
