import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from jjtls.detector import (WARM_GUARD, DetectorCalibration,
                            ResidualSeries, SweepDataset, apply_exclusions,
                            build_threshold, calibrate_noise, count_sweep,
                            critical_tls, curve_follow, find_peaks, fit_next,
                            normalize_axis)
from jjtls.errors import (CalibrationError, DegenerateDataError, NoResonanceError,
                          ValidationError)
from jjtls.fitting import FAILED_FIT, FitResult, fit_hanger, residual_metric
from jjtls.physics import (FluxConfig, ResonatorParams, Scenario, TLSDefect,
                           Trace, flux_to_freq, scenario_instrument, synth_trace)

from _oracles import exact_threshold

RES = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0)
KAPPA = RES.kappa
FLUX = FluxConfig(f_bare=5.0, n_islands=100, m_trapped=0, flux_per_current=0.02)
SPAN = 10 * KAPPA
NPTS = 201


def make_scenario(defects=(), noise=0.005, seed=11):
    return Scenario(resonator=RES, flux=FLUX, defects=tuple(defects),
                    noise_sigma=noise, rng_seed=seed)


def bias_for_frequency(f_target):
    # invert the flux map on the positive branch
    u = np.sqrt(2 * ((FLUX.f_bare / f_target) ** 2 - 1))
    flux = u * FLUX.n_islands / (2 * np.pi)
    return flux / FLUX.flux_per_current


def run_sweep(scenario, biases):
    return curve_follow(scenario_instrument(scenario), biases, SPAN, NPTS)


BIASES = np.linspace(50.0, 110.0, 90)  # flux 1.0 -> 2.2, ~20 kappa of tuning


class TestCurveFollow:
    def test_no_defects_all_converged_monotone(self):
        sweep = run_sweep(make_scenario(), BIASES[:50])
        assert len(sweep) == 50
        assert all(f.converged for f in sweep.fits)
        f0 = sweep.f0s
        assert np.all(np.diff(f0) < 0)  # tuning down the positive flux branch

    def test_empty_plan_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(make_scenario(), [])

    def test_defect_elevates_local_residuals(self):
        f_tls = flux_to_freq(FLUX, 80.0 * FLUX.flux_per_current)
        tls = TLSDefect(f_tls=f_tls, g=KAPPA, gamma=KAPPA)  # C = 4
        sweep = run_sweep(make_scenario([tls], noise=0.004), BIASES)
        clean = run_sweep(make_scenario(noise=0.004), BIASES)
        baseline = np.median(clean.residuals)
        # detuning of the unperturbed (flux-map) resonance from the plant;
        # the fitted f0 itself is repelled by the avoided crossing
        f_bare = flux_to_freq(FLUX, BIASES * FLUX.flux_per_current)
        hot = np.abs(f_bare - f_tls) <= KAPPA
        cold = np.abs(f_bare - f_tls) > 3 * KAPPA
        assert hot.sum() >= 2
        assert np.min(sweep.residuals[hot]) > 3 * baseline
        assert np.median(sweep.residuals[cold]) < 2 * baseline


def stub_instrument(traces):
    """Serves the prepared trace at index ``bias``, ignoring the center."""
    return lambda bias, f_center, span, n_points: traces[int(bias)]


def good_and_flat_traces():
    grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, NPTS)
    good = synth_trace(RES, [], grid, 0.002, np.random.default_rng(5))
    flat = Trace(freqs=grid, s21=np.full(grid.size, 0.9 + 0.1j))
    return good, flat


class TestCurveFollowSeeds:
    def test_flat_trace_after_good_one_fitted_from_warm_start(self):
        good, flat = good_and_flat_traces()
        sweep = curve_follow(stub_instrument([good, flat]), [0, 1], SPAN, NPTS)
        first = sweep.fits[0]
        assert first.converged and first == fit_hanger(good)
        # background seeding finds no resonance; the warm start takes over
        assert sweep.fits[1] == fit_hanger(flat, init=first.params)
        assert sweep.fits[1] is not FAILED_FIT

    def test_first_flat_trace_gets_failed_placeholder(self):
        good, flat = good_and_flat_traces()
        sweep = curve_follow(stub_instrument([flat, good]), [0, 1], SPAN, NPTS)
        assert sweep.fits[0] is FAILED_FIT
        assert 0 not in sweep.included_indices()
        assert sweep.fits[1].converged and 1 in sweep.included_indices()

    @pytest.mark.parametrize("warm_converges", [True, False])
    def test_unconverged_background_fit_replaced_only_by_converged_warm_fit(
            self, monkeypatch, warm_converges):
        good, _ = good_and_flat_traces()
        calls = stub_fit_hanger(monkeypatch, [
            FitResult(RES, 1e-5, converged=True),             # first step: seeded
            FitResult(RES, 3e-5, converged=warm_converges),   # second: warm first
            FitResult(RES, 2e-5, converged=False)])           # then seeded
        sweep = curve_follow(stub_instrument([good, good]), [0, 1], SPAN, NPTS)
        # a converged warm fit within the guard stands without seeding; an
        # unconverged one is replaced by the seeded fit, converged or not
        assert calls == ([None, RES] if warm_converges else [None, RES, None])
        want = 3e-5 if warm_converges else 2e-5
        assert sweep.fits[1].residual_metric == want
        assert (1 in sweep.included_indices()) == warm_converges


def stub_fit_hanger(monkeypatch, results):
    """Replace the detector's fit_hanger by one that returns ``results`` in turn.

    An exception among the results is raised instead.  Returns the list of
    ``init`` arguments it is called with.
    """
    import jjtls.detector as detector

    calls = []
    pending = iter(results)

    def stub(trace, init=None):
        calls.append(init)
        result = next(pending)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(detector, "fit_hanger", stub)
    return calls


class TestFitNext:
    def test_first_trace_of_a_sweep_is_seeded(self, monkeypatch):
        good, _ = good_and_flat_traces()
        calls = stub_fit_hanger(monkeypatch, [FitResult(RES, 1e-5, converged=True)])
        sweep = curve_follow(stub_instrument([good]), [0], SPAN, NPTS)
        assert calls == [None]
        assert sweep.fits[0].converged

    def test_third_step_extrapolates_f_r(self, monkeypatch):
        good, _ = good_and_flat_traces()
        traces = [Trace(freqs=good.freqs, s21=good.s21, bias_current=b) for b in (0, 1, 2)]
        step = 0.3 * KAPPA
        p0, p1 = RES, dataclasses.replace(RES, f_r=RES.f_r + step)
        calls = stub_fit_hanger(monkeypatch, [FitResult(p, 1e-5, converged=True)
                                              for p in (p0, p1, p1)])
        curve_follow(stub_instrument(traces), [0, 1, 2], SPAN, NPTS)
        assert calls[:2] == [None, p0]   # one fit so far: its parameters as they are
        third = calls[2]
        assert third.f_r == pytest.approx(RES.f_r + 2 * step, rel=0, abs=1e-12)
        assert dataclasses.replace(third, f_r=p1.f_r) == p1

    @pytest.mark.parametrize("seeded", [FitResult(RES, 2e-5, converged=True),
                                        FitResult(RES, 2e-5, converged=False),
                                        NoResonanceError("no dip")])
    def test_guard_rejection_falls_back_to_seeding(self, monkeypatch, seeded):
        good, _ = good_and_flat_traces()
        last = FitResult(RES, 1e-5, converged=True)
        history = [(0.0, last)]
        warm = FitResult(RES, 5e-5, converged=True)   # above WARM_GUARD x the last metric
        calls = stub_fit_hanger(monkeypatch, [warm, seeded])
        fit = fit_next(good, history)
        # no second warm fit, and the rejected one never stands: the seeded
        # fit does, or FAILED_FIT where seeding finds no resonance
        assert calls == [RES, None]
        assert fit is (FAILED_FIT if isinstance(seeded, Exception) else seeded)
        assert history == [(0.0, last)] + ([(good.bias_current, fit)] if fit.converged else [])

    def test_warm_fit_at_the_guard_stands(self, monkeypatch):
        good, _ = good_and_flat_traces()
        history = [(0.0, FitResult(RES, 1e-5, converged=True))]
        warm = FitResult(RES, WARM_GUARD * 1e-5, converged=True)
        calls = stub_fit_hanger(monkeypatch, [warm])
        assert fit_next(good, history) is warm
        assert calls == [RES]


C4_RES = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                         A=0.95, alpha=0.1, phi_v=1.2, phi_0=0.3)
C4_SPAN = 0.01


def seeded_fit(trace):
    try:
        return fit_hanger(trace)
    except NoResonanceError:
        return FAILED_FIT


@pytest.fixture(scope="module")
def c4_calib():
    return build_threshold(C4_RES, 0.005, ensemble_size=1000, seed=99)


class TestWarmFirstAgainstSeeded:
    """The warm-first fits gated against a background-seeded fit of every trace."""

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_detect_fits_and_events_match_seeded_fits(self, k, c4_calib):
        # criterion 4's closed-loop scenario k (k % 5 plants at C = 4)
        kappa = C4_RES.kappa
        flux = FluxConfig(f_bare=5.0, n_islands=100, m_trapped=0, flux_per_current=0.02)
        f_hi = flux_to_freq(flux, 66.0 * flux.flux_per_current)
        f_lo = flux_to_freq(flux, 124.0 * flux.flux_per_current)
        rng = np.random.default_rng([4, k])
        plants = []
        while len(plants) < k % 5:
            cand = rng.uniform(f_lo, f_hi)
            if all(abs(cand - f) >= 4 * kappa for f in plants):
                plants.append(cand)
        scenario = Scenario(resonator=C4_RES, flux=flux, noise_sigma=0.005,
                            defects=tuple(TLSDefect(f_tls=f, g=kappa, gamma=kappa,
                                                    temperature=0.01) for f in plants),
                            rng_seed=1000 + k)
        traces = curve_follow(scenario_instrument(scenario), np.linspace(50.0, 130.0, 120),
                              C4_SPAN, NPTS).traces
        history = []   # the plan runs in increasing bias, as detect fits
        warm = tuple(fit_next(t, history) for t in traces)
        seeded = tuple(seeded_fit(t) for t in traces)
        assert [f.converged for f in warm] == [f.converged for f in seeded]
        for a, b in zip(warm, seeded):
            if b.converged:
                assert a.residual_metric == pytest.approx(b.residual_metric, rel=1e-8)

        bias = [t.bias_current for t in traces]
        events = [find_peaks(normalize_axis(apply_exclusions(SweepDataset(bias, fits))),
                             c4_calib) for fits in (warm, seeded)]
        assert len(events[0]) == len(events[1]) == len(plants)
        for a, b in zip(*events):
            assert a.shift_position == b.shift_position
            assert a.frequency == pytest.approx(b.frequency, rel=0, abs=1e-4 * kappa)

    def test_resonance_jump_goes_to_the_seeded_fit(self):
        # between two steps the resonance jumps by 0.4 span: the warm start
        # converges into a wrong minimum that would read as a TLS
        grid = np.linspace(5.0 - C4_SPAN / 2, 5.0 + C4_SPAN / 2, NPTS)
        jumped = dataclasses.replace(C4_RES, f_r=5.0 + 0.4 * C4_SPAN)
        first = synth_trace(C4_RES, [], grid, 0.005, np.random.default_rng(1))
        second = synth_trace(jumped, [], grid, 0.005, np.random.default_rng(2))
        last = fit_hanger(first)
        unguarded = fit_hanger(second, init=last.params)
        seeded = fit_hanger(second)
        assert unguarded.converged and seeded.converged
        assert unguarded.residual_metric >= 50 * seeded.residual_metric
        assert fit_next(second, [(first.bias_current, last)]) == seeded


class TestApplyExclusions:
    def test_monotone_sweep_no_past_maximum(self):
        sweep = run_sweep(make_scenario(), BIASES[:20])
        out = apply_exclusions(sweep)
        assert all(e.reason != "past-maximum" for e in out.exclusions)

    def test_parabolic_sweep_cut_after_maximum(self):
        # sweep through flux = 0: f0 rises to f_bare then falls again
        biases = np.linspace(-40.0, 40.0, 41)
        sweep = run_sweep(make_scenario(), biases)
        out = apply_exclusions(sweep)
        cut = [e for e in out.exclusions if e.reason == "past-maximum"]
        assert len(cut) == 1
        k = int(np.argmax(sweep.f0s))
        # the cut starts just past the (smoothed) maximum and runs to the end
        assert abs(cut[0].start - (k + 1)) <= 3
        assert cut[0].stop == len(sweep) - 1

    def test_noise_blip_does_not_trigger_cut(self):
        # monotone-decreasing sweep with fit noise: a one-sample blip at the
        # start must not excise the rest of the sweep
        sweep = run_sweep(make_scenario(noise=0.01, seed=63), BIASES)
        out = apply_exclusions(sweep)
        assert all(e.reason != "past-maximum" for e in out.exclusions)
        assert out.included_indices().size >= 80

    def test_manual_interval_out_of_range(self):
        sweep = run_sweep(make_scenario(), BIASES[:20])
        with pytest.raises(ValidationError):
            apply_exclusions(sweep, manual=[(5, 25)])

    def test_manual_interval_recorded(self):
        sweep = run_sweep(make_scenario(), BIASES[:20])
        out = apply_exclusions(sweep, manual=[(3, 5)])
        assert any(e.reason == "collision" and (e.start, e.stop) == (3, 5)
                   for e in out.exclusions)
        assert not np.isin([3, 4, 5], out.included_indices()).any()


def synthetic_sweep(residuals, f_step=KAPPA / 4, f0=None):
    """Build a SweepDataset with prescribed residuals and f0 (default: uniform steps)."""
    from jjtls.fitting import FitResult

    n = len(residuals)
    biases = np.arange(n, dtype=float)
    f0 = 5.0 - f_step * biases if f0 is None else f0
    fits = [FitResult(params=ResonatorParams(f_r=f, Q_l=5000.0, Q_e_mag=10000.0),
                      residual_metric=float(r), converged=True)
            for f, r in zip(f0, residuals)]
    return SweepDataset(biases, fits)


class TestNormalizeAxis:
    def test_uniform_steps_exact_spacing(self):
        sweep = synthetic_sweep(np.full(41, 2e-4))
        series = normalize_axis(sweep)
        assert np.allclose(np.diff(series.shift_axis), 0.25, atol=1e-12)

    def test_constant_residuals_stay_constant(self):
        sweep = synthetic_sweep(np.full(41, 3e-4))
        series = normalize_axis(sweep)
        assert np.allclose(series.residuals, 3e-4, atol=1e-15)

    def test_idempotent_on_uniform_series(self):
        vals = 1e-4 * (1 + np.sin(np.linspace(0, 6, 41)) ** 2)
        sweep = synthetic_sweep(vals)
        series = normalize_axis(sweep, kappa=KAPPA)
        assert len(series) == 41
        assert np.allclose(series.residuals, vals, rtol=1e-12)

    def test_zero_total_shift_rejected(self):
        sweep = synthetic_sweep(np.full(11, 1e-4), f_step=0.0)
        with pytest.raises(DegenerateDataError):
            normalize_axis(sweep)

    def test_equal_peak_widths_under_quadratic_tuning(self):
        # fixed current steps, quadratic f0(I): the same planted defect at two
        # sweep positions must produce equal widths on the kappa axis
        f1 = flux_to_freq(FLUX, 60.0 * FLUX.flux_per_current)
        f2 = flux_to_freq(FLUX, 100.0 * FLUX.flux_per_current)
        events = []
        widths = []
        for f_tls in (f1, f2):
            tls = TLSDefect(f_tls=f_tls, g=KAPPA, gamma=KAPPA)
            sweep = run_sweep(make_scenario([tls], noise=0.002, seed=5), BIASES)
            series = normalize_axis(apply_exclusions(sweep))
            r = series.residuals
            half = (r.max() + np.median(r)) / 2
            widths.append((r > half).sum() * 0.25)
        assert widths[0] == pytest.approx(widths[1], rel=0.35)


class TestCalibrateNoise:
    def test_round_trip_known_sigma(self):
        # long baseline keeps the chi-square scatter of the single measured
        # variance well below the 5% recovery requirement
        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, 801)
        tr = synth_trace(RES, [], grid, 0.01, np.random.default_rng(24))
        fit = fit_hanger(tr)
        sigma = calibrate_noise(tr, fit, ensemble=48, seed=3)
        assert sigma == pytest.approx(0.01, rel=0.05)
        # the tighter contract: recover the noise actually present in the
        # baseline realization (its drawn variance fluctuates around nominal)
        from jjtls.physics import hanger_s21

        dev = tr.s21 - hanger_s21(RES, grid)
        realized = np.sqrt((np.var(dev.real) + np.var(dev.imag)) / 2)
        assert sigma == pytest.approx(realized, rel=0.02)

    def test_zero_noise_baseline(self):
        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, NPTS)
        tr = synth_trace(RES, [], grid, 0.0, np.random.default_rng(0))
        fit = fit_hanger(tr, init=RES)
        assert calibrate_noise(tr, fit) == 0.0

    def test_stopping_rule_contract(self):
        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, NPTS)
        tr = synth_trace(RES, [], grid, 0.008, np.random.default_rng(9))
        fit = fit_hanger(tr)
        measured = residual_metric(tr, fit.params)
        sigma = calibrate_noise(tr, fit, ensemble=48, seed=1)
        # regenerate the ensemble median at the returned sigma and check 1%
        from jjtls.physics import RNG_CAL_NOISE, hanger_s21, Trace

        rng = np.random.default_rng([1, RNG_CAL_NOISE])
        unit = rng.standard_normal((48, grid.size)) + 1j * rng.standard_normal((48, grid.size))
        model = hanger_s21(fit.params, grid)
        vals = []
        for k in range(48):
            t2 = Trace(freqs=grid, s21=model + sigma * unit[k])
            refit = fit_hanger(t2, init=fit.params)
            vals.append(residual_metric(t2, refit.params))
        assert abs(np.median(vals) - measured) / measured <= 0.01


def unphysical_refits(monkeypatch, every):
    """Make every ``every``-th calibration refit leave the physical region."""
    import jjtls.detector as detector

    calls = []

    def stub(trace, init=None):
        calls.append(1)
        metric = float("inf") if len(calls) % every == 0 else 1e-5 * len(calls)
        return FitResult(init, metric, converged=metric < float("inf"))

    monkeypatch.setattr(detector, "fit_hanger", stub)


class TestUnphysicalRefits:
    def test_build_threshold_raises_calibration_error(self, monkeypatch):
        # the stub reaches the noiseless reference fit (call 1) and the 32
        # guard refits of the first ensemble (calls 2-33: 10, 20, 30 fail)
        unphysical_refits(monkeypatch, every=10)
        with pytest.raises(CalibrationError, match="3 of 32"):
            build_threshold(RES, 0.005, ensemble_size=1000)

    def test_unphysical_reference_fit_raises_calibration_error(self, monkeypatch):
        unphysical_refits(monkeypatch, every=1)
        with pytest.raises(CalibrationError, match="reference fit"):
            build_threshold(RES, 0.005, ensemble_size=1000)

    def test_low_snr_fleet_resonator_raises_calibration_error(self):
        # the linearised fits of some members leave the physical region
        # (1/Q_i < 0), as some exact refits do at this noise
        with pytest.raises(CalibrationError, match="of 1000 calibration refits"):
            build_threshold(FLEET_RES, 0.5, ensemble_size=1000, seed=1)

    def test_calibrate_noise_raises_calibration_error(self, monkeypatch):
        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, NPTS)
        tr = synth_trace(RES, [], grid, 0.005, np.random.default_rng(2))
        fit = fit_hanger(tr)
        unphysical_refits(monkeypatch, every=8)
        with pytest.raises(CalibrationError, match="8 of 64"):
            calibrate_noise(tr, fit)

    def test_calibrate_noise_rejects_failed_baseline_fit(self):
        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, NPTS)
        tr = synth_trace(RES, [], grid, 0.005, np.random.default_rng(2))
        with pytest.raises(CalibrationError, match="baseline"):
            calibrate_noise(tr, FAILED_FIT)


@pytest.fixture(scope="module")
def calib():
    return build_threshold(RES, 0.005, ensemble_size=1000, seed=2)


class TestBuildThreshold:
    def test_threshold_between_means(self, calib):
        assert calib.gauss_noise[0] < calib.threshold < calib.gauss_tls[0]

    def test_low_noise_separates(self):
        c = build_threshold(RES, 0.001, ensemble_size=1000, seed=4)
        assert c.fp < 1e-4 and c.fn < 1e-4

    def test_small_ensemble_rejected(self):
        with pytest.raises(ValidationError):
            build_threshold(RES, 0.005, ensemble_size=100)

    def test_gaussian_rates_match_empirical(self):
        # at partial overlap the Gaussian-fit areas should track the
        # empirical tail fractions of the same ensembles
        sigma = 0.045
        c = build_threshold(RES, sigma, ensemble_size=2000, seed=8)
        assert 0.05 < c.fp < 0.45 and 0.05 < c.fn < 0.45

        from jjtls.physics import RNG_THRESHOLD, hanger_s21, tls_s21, Trace

        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, 201)
        rng = np.random.default_rng([8, RNG_THRESHOLD])
        tls = critical_tls(RES)
        base_model = hanger_s21(RES, grid)
        tls_model = tls_s21(RES, tls, grid)
        emp = {}
        for tag, model in (("noise", base_model), ("tls", tls_model)):
            vals = np.empty(2000)
            for k in range(2000):
                noisy = model + sigma * (rng.standard_normal(201)
                                         + 1j * rng.standard_normal(201))
                tr = Trace(freqs=grid, s21=noisy)
                refit = fit_hanger(tr, init=RES)
                vals[k] = residual_metric(tr, refit.params)
            emp[tag] = vals
        fp_emp = np.mean(emp["noise"] > c.threshold)
        fn_emp = np.mean(emp["tls"] < c.threshold)
        assert abs(c.fp - fp_emp) <= 0.03
        assert abs(c.fn - fn_emp) <= 0.03


FLEET_RES = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                            A=0.95, alpha=0.1, phi_v=1.2, phi_0=0.3)


@functools.lru_cache(maxsize=None)
def exact_fleet_threshold(sigma):
    return exact_threshold(FLEET_RES, sigma, 1000, seed=3)


def projected_and_exact(monkeypatch, sigma):
    """build_threshold's projected member metrics and the exact-refit oracle."""
    import jjtls.detector as detector

    real, blocks = detector._Tangent.metrics, []

    def recording(self, sigma, noise):
        out = real(self, sigma, noise)
        blocks.append(out)
        return out

    monkeypatch.setattr(detector._Tangent, "metrics", recording)
    calib = build_threshold(FLEET_RES, sigma, ensemble_size=1000, seed=3)
    projected = np.concatenate(blocks)
    return calib, (projected[:1000], projected[1000:]), exact_fleet_threshold(sigma)


class TestProjectedCalibration:
    @pytest.mark.parametrize("sigma", [0.005, 0.09])
    def test_matches_exact_refits(self, monkeypatch, sigma):
        calib, projected, (m_noise, m_tls, exact) = projected_and_exact(monkeypatch, sigma)
        for lin, ref in zip(projected, (m_noise, m_tls)):
            assert np.max(np.abs(lin / ref - 1.0)) <= 0.02
        assert calib.threshold == pytest.approx(exact.threshold, rel=1e-3)
        assert abs(calib.fp - exact.fp) <= 5e-3
        assert abs(calib.fn - exact.fn) <= 5e-3

    def test_forced_fallback_equals_exact_refits(self, monkeypatch):
        import jjtls.detector as detector

        monkeypatch.setattr(detector, "GUARD_MEAN", 0.0)
        monkeypatch.setattr(detector, "GUARD_MAX", 0.0)
        *_, exact = exact_fleet_threshold(0.005)
        assert build_threshold(FLEET_RES, 0.005, ensemble_size=1000, seed=3) == exact

    def test_fits_only_references_and_guards(self, monkeypatch):
        import jjtls.detector as detector

        real, inits, fits = detector.fit_hanger, [], []

        def counting(trace, init=None):
            inits.append(init)
            fits.append(real(trace, init=init))
            return fits[-1]

        monkeypatch.setattr(detector, "fit_hanger", counting)
        build_threshold(FLEET_RES, 0.005, ensemble_size=1000, seed=3)
        per_ensemble = 1 + detector.GUARD_MEMBERS
        assert len(inits) == 2 * per_ensemble
        # each ensemble: its reference fit from the bare parameters, then the
        # guard refits from the reference fit
        for ref in (0, per_ensemble):
            assert inits[ref] == FLEET_RES
            assert all(init == fits[ref].params for init in inits[ref + 1:ref + per_ensemble])

    def test_noise_blocks_reproduce_per_member_stream(self):
        # two ensembles back to back, each crossing a block boundary: the
        # blocks hold every member's real then imaginary draws, in order
        from jjtls.detector import NOISE_CHUNK, _members, _noise_blocks
        from jjtls.physics import RNG_THRESHOLD, hanger_s21

        n, m = NOISE_CHUNK + 44, 201
        blocked = np.random.default_rng([5, RNG_THRESHOLD])
        serial = np.random.default_rng([5, RNG_THRESHOLD])
        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, m)
        model = hanger_s21(RES, grid)
        for _ in range(2):
            noisy = np.concatenate([_members(model, 0.01, b)
                                    for b in _noise_blocks(blocked, n, m)])
            for k in range(n):
                want = model + 0.01 * (serial.standard_normal(m)
                                       + 1j * serial.standard_normal(m))
                assert np.array_equal(noisy[k], want)

    def test_calibrate_noise_continues_on_exact_refits(self, monkeypatch):
        # a projection that overstates the metric by 20% misses the exact
        # confirmation; the bisection continues on exact refits and meets
        # the stopping rule
        import jjtls.detector as detector
        from jjtls.physics import RNG_CAL_NOISE, hanger_s21

        grid = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, NPTS)
        tr = synth_trace(RES, [], grid, 0.008, np.random.default_rng(9))
        fit = fit_hanger(tr)
        metrics, refits = detector._Tangent.metrics, []
        monkeypatch.setattr(detector._Tangent, "metrics",
                            lambda self, sigma, noise: 1.2 * metrics(self, sigma, noise))
        monkeypatch.setattr(detector, "fit_hanger",
                            lambda trace, init=None: refits.append(1) or fit_hanger(
                                trace, init=init))
        sigma = calibrate_noise(tr, fit, ensemble=48, seed=1)
        assert len(refits) > 48
        rng = np.random.default_rng([1, RNG_CAL_NOISE])
        unit = rng.standard_normal((48, NPTS)) + 1j * rng.standard_normal((48, NPTS))
        model = hanger_s21(fit.params, grid)
        vals = [fit_hanger(Trace(freqs=grid, s21=model + sigma * u), init=fit.params)
                .residual_metric for u in unit]
        measured = fit.residual_metric
        assert abs(np.median(vals) - measured) / measured <= 0.01


def make_series(residuals, valid=None):
    r = np.asarray(residuals, dtype=float)
    n = r.size
    grid = np.arange(n) * 0.25
    return ResidualSeries(shift_axis=grid, residuals=r, kappa=KAPPA,
                          freq_at=5.0 - grid * KAPPA,
                          valid=np.ones(n, bool) if valid is None else np.asarray(valid))


CAL = DetectorCalibration(threshold=1.0, fp=0.01, fn=0.02, noise_sigma=0.005,
                          gauss_noise=(0.5, 0.1), gauss_tls=(2.0, 0.3))


class TestFindPeaks:
    def test_all_below_threshold(self):
        assert find_peaks(make_series(np.full(40, 0.5)), CAL) == []

    def test_single_triangular_peak(self):
        r = np.full(41, 0.4)
        r[18:23] = [0.8, 1.4, 2.0, 1.4, 0.8]
        events = find_peaks(make_series(r), CAL)
        assert len(events) == 1
        assert events[0].shift_position == pytest.approx(20 * 0.25)
        assert events[0].peak_residual >= CAL.threshold

    def test_too_short_series(self):
        with pytest.raises(ValidationError):
            find_peaks(make_series([1.0, 2.0, 1.0, 0.5]), CAL)

    def test_merges_within_one_kappa(self):
        r = np.full(41, 0.4)
        r[10:15] = [0.8, 1.5, 2.2, 1.5, 0.8]
        r[13:18] = np.maximum(r[13:18], [0.9, 1.6, 2.0, 1.6, 0.9])
        events = find_peaks(make_series(r), CAL)
        assert len(events) == 1

    def test_suppressed_inside_invalid_region(self):
        r = np.full(41, 0.4)
        r[18:23] = [0.8, 1.4, 2.4, 1.4, 0.8]
        valid = np.ones(41, bool)
        valid[20] = False
        assert find_peaks(make_series(r, valid), CAL) == []

    def test_two_plants_three_kappa_apart(self):
        f1 = flux_to_freq(FLUX, 75.0 * FLUX.flux_per_current)
        f2 = f1 - 3 * KAPPA
        defs = [TLSDefect(f_tls=f1, g=KAPPA, gamma=KAPPA),
                TLSDefect(f_tls=f2, g=KAPPA, gamma=KAPPA)]
        sweep = run_sweep(make_scenario(defs, noise=0.004, seed=17), BIASES)
        series = normalize_axis(apply_exclusions(sweep))
        calib = build_threshold(RES, 0.004, ensemble_size=1000, seed=6)
        events = find_peaks(series, calib)
        assert len(events) == 2
        freqs = sorted(e.frequency for e in events)
        assert abs(freqs[0] - f2) < KAPPA / 2
        assert abs(freqs[1] - f1) < KAPPA / 2


class TestCountSweep:
    def test_events_are_find_peaks_of_normalized_series(self):
        r = np.full(41, 0.4)
        r[18:23] = [0.8, 1.4, 2.0, 1.4, 0.8]
        sweep = synthetic_sweep(r)
        count = count_sweep(sweep, CAL)
        series = normalize_axis(sweep)
        assert len(count.events) == 1
        assert count.events == find_peaks(series, CAL)
        np.testing.assert_array_equal(count.series.residuals, series.residuals)
        assert count.kappa == sweep.median_kappa()
        assert count.delta_f == pytest.approx(10 * KAPPA, rel=1e-9)
        assert count.n_bins == 10

    def test_sweep_narrower_than_one_linewidth_has_one_bin(self):
        # up to the maximum and back: 1.6 kappa of path, 0.8 kappa of range
        k = np.arange(9)
        sweep = synthetic_sweep(np.full(9, 0.4), f0=5.0 - 0.05 * KAPPA * (k - 4) ** 2)
        count = count_sweep(sweep, CAL)
        assert len(count.series) >= 5
        assert count.delta_f == pytest.approx(0.8 * KAPPA, rel=1e-9)
        assert count.delta_f < count.kappa
        assert count.n_bins == 1

    def test_excluded_end_trace_shrinks_swept_range(self):
        sweep = synthetic_sweep(np.full(41, 0.4))
        full = count_sweep(sweep, CAL)
        cut = count_sweep(apply_exclusions(sweep, manual=[(40, 40)]), CAL)
        assert cut.delta_f == pytest.approx(full.delta_f - KAPPA / 4, rel=1e-9)
        assert (full.n_bins, cut.n_bins) == (10, 9)


class TestInvariants:
    def test_detection_count_invariant_under_bias_reparametrization(self):
        # same frequency path sampled against bias axes I and I^2 must give
        # the same events after axis normalization
        from jjtls.fitting import FitResult

        n = 61
        i_axis = np.linspace(1.0, 7.0, n)
        f0 = 5.0 - 2e-4 * i_axis ** 2  # exact parabola in I (linear in I^2)
        # linewidth-scale residual bump pinned to the frequency path
        fc = f0[30]
        residuals = 1e-4 + 2e-3 * np.exp(-0.5 * ((f0 - fc) / (0.5 * KAPPA)) ** 2)

        def build(biases):
            return SweepDataset(biases, [
                FitResult(params=ResonatorParams(f_r=f, Q_l=5000.0, Q_e_mag=10000.0),
                          residual_metric=float(r), converged=True)
                for f, r in zip(f0, residuals)])

        cal = DetectorCalibration(threshold=5e-4, fp=0.01, fn=0.02,
                                  noise_sigma=0.005, gauss_noise=(1e-4, 3e-5),
                                  gauss_tls=(1.5e-3, 3e-4))
        events = {}
        for tag, axis in (("I", i_axis), ("I2", i_axis ** 2)):
            series = normalize_axis(build(axis), kappa=KAPPA)
            events[tag] = find_peaks(series, cal)
        assert len(events["I"]) == len(events["I2"]) == 1
        assert events["I"][0].frequency == pytest.approx(
            events["I2"][0].frequency, abs=KAPPA / 4)

    def test_no_events_inside_excluded_intervals(self):
        # a huge residual spike inside a manually excluded region must not
        # produce an event
        residuals = np.full(41, 1e-4)
        residuals[20] = 50.0
        sweep = synthetic_sweep(residuals)
        sweep = apply_exclusions(sweep, manual=[(18, 22)])
        series = normalize_axis(sweep, kappa=KAPPA)
        assert find_peaks(series, CAL) == []

    def test_error_rates_monotone_in_noise(self):
        fps, fns = [], []
        for sigma in (0.02, 0.045, 0.09):
            c = build_threshold(RES, sigma, ensemble_size=1000, seed=12)
            fps.append(c.fp)
            fns.append(c.fn)
        assert fps[0] <= fps[1] <= fps[2]
        assert fns[0] <= fns[1] <= fns[2]


class TestFixtureCalibration:
    """The bundled fixture's resonator at its noise, ensemble size and seed."""

    def test_pinned_with_cheap_guard_refits(self, monkeypatch):
        import jjtls.detector as detector
        from jjtls.fileio import load_scenario

        sc = load_scenario(Path(__file__).resolve().parent.parent
                           / "fixtures" / "scenario_three_defects.json")
        real, evals = detector.fit_hanger, []

        def counting(trace, init=None):
            fit = real(trace, init=init)
            evals.append(fit.n_evals)
            return fit

        monkeypatch.setattr(detector, "fit_hanger", counting)
        calib = build_threshold(sc.resonator, sc.noise_sigma, ensemble_size=1200, seed=7)
        assert (calib.fp, calib.noise_sigma) == (0.0, 0.005)
        assert calib.threshold == pytest.approx(0.00015181688023633435, rel=1e-12)
        assert calib.fn == pytest.approx(1.9064567792113076e-135, rel=1e-9)
        assert calib.gauss_noise == pytest.approx((5.504631647119185e-05, 3.901593007280785e-06),
                                                  rel=1e-12)
        assert calib.gauss_tls == pytest.approx((0.0005912446256883292, 1.7760646469562818e-05),
                                                rel=1e-12)
        # the reference fit of each ensemble, then its guard refits; the TLS
        # members scatter around the reference fit, not the bare parameters
        guard = detector.GUARD_MEMBERS
        assert len(evals) == 2 * (1 + guard)
        assert np.mean(evals[2 + guard:]) <= 10.0


class TestDetectorCalibrationType:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValidationError):
            DetectorCalibration(threshold=0.1, fp=0.0, fn=0.0, noise_sigma=0.0,
                                gauss_noise=(0.5, 0.1), gauss_tls=(2.0, 0.2))

    def test_rates_in_unit_interval(self):
        with pytest.raises(ValidationError):
            DetectorCalibration(threshold=1.0, fp=1.5, fn=0.0, noise_sigma=0.0,
                                gauss_noise=(0.5, 0.1), gauss_tls=(2.0, 0.2))
