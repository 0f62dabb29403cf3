import math
import warnings

import numpy as np
import pytest

from jjtls.errors import (DegenerateDataError, NoResonanceError, ValidationError)
from jjtls.fitting import (background_split, estimate_snr,
                           fit_flux_parabola, fit_hanger, residual_metric)
from jjtls.physics import (FluxConfig, ResonatorParams, Trace, flux_to_freq,
                           hanger_s21, synth_trace)

TRUTH = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                        A=0.95, alpha=0.15, phi_v=1.1, phi_0=0.3)
KAPPA = TRUTH.kappa
GRID = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, 201)


def make_trace(noise=0.0, seed=0, params=TRUTH, grid=GRID):
    rng = np.random.default_rng(seed)
    return synth_trace(params, [], grid, noise, rng)


class TestBackgroundSplit:
    def test_centered_dip_in_mask(self):
        tr = make_trace(noise=0.004)
        split = background_split(tr)
        center = int(np.argmin(np.abs(tr.freqs - 5.0)))
        assert split.resonance_mask[center]

    def test_masks_partition(self):
        tr = make_trace(noise=0.004)
        split = background_split(tr)
        assert np.array_equal(split.resonance_mask ^ split.background_mask,
                              np.ones(len(tr), bool))

    def test_pure_background_raises(self):
        params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=1e15)
        tr = make_trace(noise=0.004, params=params)
        with pytest.raises(NoResonanceError):
            background_split(tr)

    def test_pure_background_seldom_passes(self):
        # the depth floor admits about one pure-noise trace in a thousand
        params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=1e15)
        passed = 0
        for seed in range(500):
            try:
                background_split(make_trace(noise=0.05, seed=seed, params=params))
                passed += 1
            except NoResonanceError:
                pass
        assert passed <= 1

    def test_dip_at_edge_clipped_contiguous(self):
        grid = np.linspace(5.0 - KAPPA, 5.0 + 9 * KAPPA, 201)
        tr = make_trace(noise=0.002, grid=grid)
        split = background_split(tr)
        idx = np.flatnonzero(split.resonance_mask)
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
        assert idx[0] >= 0 and idx[-1] < len(tr)

    def test_background_shorter_than_window_raises(self):
        # the variance run leaves one background sample here; seeding would
        # fit lines to it (numpy's "Polyfit may be poorly conditioned")
        tr = make_trace(noise=0.2, seed=54)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoResonanceError, match="background samples"):
                background_split(tr)
            with pytest.raises(NoResonanceError):
                fit_hanger(tr)

    def test_noise_away_from_the_dip_stays_background(self):
        # at SNR 10 the derivative variance has noise peaks all over this
        # trace; only the run around the dip is resonance
        tr = make_trace(noise=0.05, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = background_split(tr)
            fit = fit_hanger(tr)
        assert np.count_nonzero(split.background_mask) > len(tr) // 2
        assert fit.converged
        assert abs(fit.params.f_r - TRUTH.f_r) < 0.05 * KAPPA


class TestResidualMetric:
    def test_zero_for_exact_model(self):
        tr = make_trace()
        assert residual_metric(tr, TRUTH) == 0.0

    def test_constant_model_offset_leaves_variance(self):
        # noise variance is unchanged by a constant model offset
        tr = make_trace(noise=0.01, seed=3)
        base = residual_metric(tr, TRUTH)
        shifted = ResonatorParams(**{**TRUTH.__dict__, "phi_0": TRUTH.phi_0})
        dev = tr.s21 - hanger_s21(shifted, tr.freqs)
        var = np.var(dev.real) + np.var(dev.imag)
        assert base == pytest.approx(var / np.mean(np.abs(tr.s21)), rel=1e-12)

    def test_variance_shift_invariance(self):
        # adding the same constant to data and model leaves Var(data-model) fixed
        tr = make_trace(noise=0.01, seed=4)
        dev = tr.s21 - hanger_s21(TRUTH, tr.freqs)
        c = 0.3 + 0.2j
        var0 = np.var(dev.real) + np.var(dev.imag)
        var1 = np.var((dev + c).real - c.real) + np.var((dev + c).imag - c.imag)
        assert var1 == pytest.approx(var0, rel=1e-12)

    def test_zero_mean_data_guarded(self):
        tr = Trace(freqs=GRID, s21=np.zeros_like(GRID, dtype=complex))
        with pytest.raises(DegenerateDataError):
            residual_metric(tr, TRUTH)


class TestFitHanger:
    def test_noiseless_recovery(self):
        fit = fit_hanger(make_trace())
        assert fit.converged
        p = fit.params
        for name in ("f_r", "Q_l", "Q_e_mag", "theta"):
            got, want = getattr(p, name), getattr(TRUTH, name)
            tol = 1e-3 * max(abs(want), 0.05)
            assert abs(got - want) < tol, f"{name}: {got} vs {want}"

    def test_init_at_truth_converges_immediately(self):
        fit = fit_hanger(make_trace(), init=TRUTH)
        assert fit.converged
        assert fit.n_evals <= 3
        assert fit.residual_metric < 1e-20

    def test_snr20_frequency_recovery(self):
        # SNR ~ 20: dip depth ~0.475, sigma ~ depth/20
        sigma = 0.475 / 20
        errs = []
        for seed in range(100):
            fit = fit_hanger(make_trace(noise=sigma, seed=seed))
            if fit.converged:
                errs.append(abs(fit.params.f_r - TRUTH.f_r))
        assert len(errs) >= 95
        assert np.median(errs) < KAPPA / 50

    def test_global_phase_invariance(self):
        tr = make_trace(noise=0.003, seed=9)
        phi = 0.8
        rotated = Trace(freqs=tr.freqs, s21=tr.s21 * np.exp(1j * phi),
                        bias_current=tr.bias_current)
        fit0 = fit_hanger(tr)
        fit1 = fit_hanger(rotated)
        for name in ("f_r", "Q_l", "Q_e_mag"):
            a, b = getattr(fit0.params, name), getattr(fit1.params, name)
            assert abs(a - b) / abs(a) < 1e-6
        dphi = (fit1.params.phi_0 - fit0.params.phi_0 - phi) % (2 * math.pi)
        assert min(dphi, 2 * math.pi - dphi) < 1e-5

    def test_recovery_improves_with_lower_noise(self):
        medians = []
        for sigma in (0.02, 0.01, 0.005):
            errs = []
            for seed in range(40):
                fit = fit_hanger(make_trace(noise=sigma, seed=seed))
                if fit.converged:
                    errs.append(abs(fit.params.f_r - TRUTH.f_r))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_unconverged_flag_not_crash(self):
        fit = fit_hanger(make_trace(noise=0.01, seed=1), init=TRUTH, max_nfev=1)
        assert not fit.converged


class TestFitMetric:
    @pytest.mark.parametrize("sigma", [0.0, 0.005, 0.05, 0.2])
    def test_fit_metric_equals_residual_metric(self, sigma):
        # the fit takes its metric from the final least-squares residual;
        # it must be the very number residual_metric computes
        seeded = 0
        for seed in range(6):
            tr = make_trace(noise=sigma, seed=seed)
            for init in (None, TRUTH):
                try:
                    fit = fit_hanger(tr, init=init)
                except NoResonanceError:   # seeding may fail at low SNR
                    continue
                seeded += init is None
                assert fit.residual_metric == residual_metric(tr, fit.params)
        assert seeded >= 1


class TestEstimateSnr:
    def test_noiseless_capped(self):
        assert estimate_snr(make_trace()) == 1e12

    def test_known_snr(self):
        # depth = A * Ql/Qe ~ 0.475, sigma = 0.01 -> SNR ~ 47.5
        snr = estimate_snr(make_trace(noise=0.01, seed=5))
        assert snr == pytest.approx(0.475 / 0.01, rel=0.15)

    def test_doubling_noise_halves_snr(self):
        r = []
        for seed in range(100):
            s1 = estimate_snr(make_trace(noise=0.008, seed=seed))
            s2 = estimate_snr(make_trace(noise=0.016, seed=1000 + seed))
            r.append(s1 / s2)
        assert np.median(r) == pytest.approx(2.0, rel=0.2)


class TestFitFluxParabola:
    def test_exact_quadratic(self):
        i = np.linspace(-2, 3, 9)
        f0 = 0.3 * i**2 - 1.2 * i + 7.5
        par = fit_flux_parabola(i, f0)
        assert np.allclose(par.coefficients, (0.3, -1.2, 7.5), atol=1e-10)
        assert par.derivative(1.0) == pytest.approx(2 * 0.3 - 1.2, abs=1e-9)

    def test_flux_map_near_maximum(self):
        cfg = FluxConfig(f_bare=8.0, n_islands=100, m_trapped=0, flux_per_current=0.01)
        i = np.linspace(-40, 40, 41)  # |flux| <= 0.4
        f0 = flux_to_freq(cfg, i * cfg.flux_per_current)
        par = fit_flux_parabola(i, f0)
        assert np.max(np.abs(par(i) - f0)) < 1e-4 * 8.0

    def test_two_points_rejected(self):
        with pytest.raises(ValidationError):
            fit_flux_parabola([0.0, 1.0], [5.0, 5.1])

    def test_degenerate_biases_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_flux_parabola([1.0, 1.0, 1.0, 1.0], [5.0, 5.1, 5.2, 5.3])
