import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjtls.constants import BOLTZMANN_K, GHZ, HBAR
from jjtls.errors import InvalidParameterError, ValidationError
from jjtls.physics import (PARAM_NAMES, RNG_MEASURE, FluxConfig, Hanger, ResonatorParams,
                           Scenario, TLSDefect, Trace, _bias_bits, flux_to_freq, hanger_s21,
                           scenario_instrument, synth_trace, thermal_population,
                           tls_s21, virtual_measure)

from _oracles import _jacobian, _residuals, hanger_model, tls_model

BASE = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0)
KAPPA = BASE.kappa


class TestResonatorParams:
    def test_kappa(self):
        assert BASE.kappa == pytest.approx(5.0 / 5000.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(InvalidParameterError):
            ResonatorParams(f_r=5.0, Q_l=-1.0, Q_e_mag=1e4).validate()

    def test_rejects_negative_internal_loss(self):
        # 1/Q_i = 1/Q_l - cos(theta)/Q_e < 0 -> overcoupled beyond physicality
        with pytest.raises(InvalidParameterError):
            ResonatorParams(f_r=5.0, Q_l=10000.0, Q_e_mag=5000.0).validate()

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            ResonatorParams(f_r=float("nan"), Q_l=1e3, Q_e_mag=1e4).validate()
        with pytest.raises(InvalidParameterError):
            hanger_s21(ResonatorParams(f_r=5.0, Q_l=1e3, Q_e_mag=float("inf")), 5.0)


class TestHangerS21:
    def test_on_resonance_dip(self):
        # 1 - Q_l/|Q_e| = 0.5 exactly on resonance for theta = 0
        assert hanger_s21(BASE, 5.0) == pytest.approx(0.5 + 0j, abs=1e-15)

    def test_decoupled_limit_is_background(self):
        params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=1e15,
                                 A=0.9, alpha=0.2, phi_v=1.3, phi_0=0.4)
        f = np.linspace(4.99, 5.01, 101)
        x = (f - 5.0) / 5.0
        bg = 0.9 * (1 + 0.2 * x) * np.exp(1j * (1.3 * f + 0.4))
        assert np.max(np.abs(hanger_s21(params, f) - bg)) < 1e-9

    def test_far_tail_amplitude(self):
        # |S21 - 1| at 50 kappa detuning equals 0.5/sqrt(1 + 100^2)
        f = 5.0 + 50 * KAPPA
        expected = 0.5 / math.hypot(1.0, 100.0)
        assert abs(hanger_s21(BASE, f) - 1.0) == pytest.approx(expected, rel=1e-6)
        assert abs(hanger_s21(BASE, f) - 1.0) < 0.006

    def test_decoupled_supnorm_invariant(self):
        params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=1e12)
        f = np.linspace(5.0 - 10 * KAPPA, 5.0 + 10 * KAPPA, 801)
        assert np.max(np.abs(hanger_s21(params, f) - 1.0)) < 1e-6


def _assert_jacobian_matches_central_differences(params, tls=None):
    p, kappa = params.as_array(), params.kappa
    f = np.linspace(params.f_r - 5 * kappa, params.f_r + 5 * kappa, 201)
    hanger = Hanger(f, np.zeros(f.size, dtype=complex), tls=tls)
    jac = hanger.jacobian(p)
    assert jac.shape == (8, 2 * f.size)
    for i, name in enumerate(PARAM_NAMES):
        h = 1e-6 * (kappa if name == "f_r" else max(abs(p[i]), 1.0))
        step = np.zeros(8)
        step[i] = h
        fd = (hanger.residuals(p + step) - hanger.residuals(p - step)) / (2 * h)
        err = np.max(np.abs(fd - jac[i])) / np.max(np.abs(jac[i]))
        assert err < 1e-6, f"{name}: relative error {err:.2e}"


class TestHangerJacobian:
    def test_matches_central_differences_at_fixture_resonator(self):
        fixture = Path(__file__).resolve().parent.parent / "fixtures"
        raw = json.loads((fixture / "scenario_three_defects.json").read_text())
        _assert_jacobian_matches_central_differences(ResonatorParams(**raw["resonator"]))

    @pytest.mark.parametrize("C,detuning", [(1.0, 0.0), (16.0, 0.5), (100.0, -3.0)])
    def test_matches_central_differences_with_a_defect(self, C, detuning):
        # the shifted detuning x + c/f_r moves the f_r column only
        params = _tls_cases()[0][0]
        kappa = params.kappa
        _assert_jacobian_matches_central_differences(params, TLSDefect(
            f_tls=5.0 + detuning * kappa, g=math.sqrt(C) * kappa / 2, gamma=kappa,
            temperature=WARM))


def _bits(a):
    """The raw float64 words of ``a``: equal only if bit for bit, signed zeros too."""
    return np.ascontiguousarray(a).view(np.uint64)


def _hanger_cases():
    """(p, f, data): random points plus the box's extremes in theta, Q_l and A."""
    rng = np.random.default_rng(14)
    cases = []
    for k in range(60):
        f_r = rng.uniform(1.0, 10.0)
        p = np.array([f_r, 10 ** rng.uniform(0, 6), 10 ** rng.uniform(0, 6),
                      rng.uniform(-math.pi, math.pi), 10 ** rng.uniform(-3, 1),
                      rng.normal(0, 2), rng.normal(0, 5), rng.uniform(-7, 7)])
        if k % 4 == 1:
            p[3] = math.copysign(math.pi - 1e-15, p[3])
        if k % 4 == 2:
            p[1], p[2] = 1e12, 10 ** rng.uniform(11, 12)
        if k % 4 == 3:
            p[4] = 1e-12
        kappa = f_r / min(p[1], 1e6)
        f = np.linspace(f_r - 5 * kappa, f_r + 5 * kappa, int(rng.integers(16, 402)))
        data = (hanger_model(p * (1 + rng.normal(0, 1e-3, 8)), f)
                + rng.normal(0, 0.01, f.size) + 1j * rng.normal(0, 0.01, f.size))
        cases.append((p, f, data))
    return cases


class TestHangerEvaluator:
    """One evaluator of the hanger model: bit for bit the separate model,
    residual and Jacobian functions it replaced (tests/_oracles.py), whatever
    order it is called in."""

    def test_equals_oracle_bit_for_bit(self):
        for p, f, data in _hanger_cases():
            hanger = Hanger(f, data)
            np.testing.assert_array_equal(_bits(hanger.jacobian(p)),
                                          _bits(_jacobian(p, f, data).T))
            np.testing.assert_array_equal(_bits(hanger.residuals(p)),
                                          _bits(_residuals(p, f, data)))
            np.testing.assert_array_equal(_bits(hanger.model(p)),
                                          _bits(hanger_model(p, f)))

    def test_hanger_s21_is_the_evaluator_model(self):
        f = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, 201)
        p = BASE.as_array()
        np.testing.assert_array_equal(_bits(hanger_s21(BASE, f)), _bits(hanger_model(p, f)))
        assert hanger_s21(BASE, 5.0) == complex(hanger_model(p, np.asarray(5.0)))

    def test_results_do_not_depend_on_call_order(self):
        (p1, f, data), (p2, _, _) = _hanger_cases()[:2]
        want = {}
        for p in (p1, p2):
            hanger = Hanger(f, data)
            want[p.tobytes()] = hanger.residuals(p).copy(), hanger.jacobian(p).copy()
        orders = [[(p1, "jac"), (p1, "res")],
                  [(p1, "res"), (p1, "jac")],
                  [(p1, "res"), (p2, "jac"), (p1, "jac"), (p2, "res"), (p1, "res")]]
        for order in orders:
            hanger = Hanger(f, data)
            for p, which in order:
                res, jac = want[p.tobytes()]
                if which == "res":
                    np.testing.assert_array_equal(_bits(hanger.residuals(p)), _bits(res))
                else:
                    np.testing.assert_array_equal(_bits(hanger.jacobian(p)), _bits(jac))

    def test_repeat_call_returns_the_stored_result(self):
        # keyed on the bytes of p, not on the array object
        p, f, data = _hanger_cases()[0]
        hanger = Hanger(f, data)
        res, jac = hanger.residuals(p), hanger.jacobian(p)
        assert hanger.residuals(p.copy()) is res and hanger.jacobian(p.copy()) is jac
        q = p.copy()
        q[0] = np.nextafter(q[0], np.inf)
        assert hanger.residuals(q) is not res

    def test_returned_arrays_never_change(self):
        # least_squares keeps the residual of a rejected step's start point
        (p1, f, data), (p2, _, _) = _hanger_cases()[:2]
        hanger = Hanger(f, data)
        res, jac, model = hanger.residuals(p1), hanger.jacobian(p1), hanger.model(p1)
        kept = res.copy(), jac.copy(), model.copy()
        hanger.jacobian(p2)
        hanger.residuals(p2)
        for a, b in zip((res, jac, model), kept):
            np.testing.assert_array_equal(_bits(a), _bits(b))


WARM = 0.2  # K: s_z = tanh(h 5 GHz / k_B T) = 0.83


def _tls_cases():
    """(params, tls): C in {1, 4, 9, 16, 100} at detunings {-3, -0.5, 0, 0.5, 3} kappa
    at 10 mK, and C = 4 half a linewidth up at WARM."""
    params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.3, A=0.9,
                             alpha=0.2, phi_v=1.3, phi_0=0.4)
    kappa = params.kappa
    cases = [(params, TLSDefect(f_tls=5.0 + d * kappa, g=math.sqrt(C) * kappa / 2,
                                gamma=kappa))
             for C in (1.0, 4.0, 9.0, 16.0, 100.0) for d in (-3.0, -0.5, 0.0, 0.5, 3.0)]
    return cases + [(params, TLSDefect(f_tls=5.0 + kappa / 2, g=kappa, gamma=kappa,
                                       temperature=WARM))]


class TestTlsS21:
    def test_equals_angular_frequency_oracle(self):
        # the detuning shift c/f_r is the old angular-frequency formula, rearranged
        cases = _tls_cases()
        assert sorted({round(tls.cooperativity(p), 9) for p, tls in cases}) == [1, 4, 9, 16, 100]
        assert thermal_population(cases[-1][1].f_tls, WARM) < 0.9
        for params, tls in cases:
            f = np.linspace(5.0 - 10 * KAPPA, 5.0 + 10 * KAPPA, 401)
            want = tls_model(params, tls, f)
            np.testing.assert_allclose(tls_s21(params, tls, f), want, rtol=1e-12, atol=0)
            tr = synth_trace(params, [tls], f, 0.0, np.random.default_rng(0))
            np.testing.assert_allclose(tr.s21, want, rtol=1e-12, atol=0)
            assert tls_s21(params, tls, 5.0) == pytest.approx(
                complex(tls_model(params, tls, np.asarray(5.0))), rel=1e-12)

    def test_zero_coupling_reduces_to_hanger(self):
        tls = TLSDefect(f_tls=5.0, g=0.0, gamma=KAPPA)
        f = np.linspace(4.995, 5.005, 257)
        np.testing.assert_allclose(tls_s21(BASE, tls, f), hanger_s21(BASE, f),
                                   rtol=0, atol=1e-12)

    def test_dispersive_limit(self):
        # detuning 1e4 kappa, g = kappa/2: pull g^2/Delta ~ kappa/4e4, negligible
        tls = TLSDefect(f_tls=5.0 + 1e4 * KAPPA, g=KAPPA / 2, gamma=KAPPA)
        f = np.linspace(5.0 - 5 * KAPPA, 5.0 + 5 * KAPPA, 501)
        rel = np.abs(tls_s21(BASE, tls, f) - hanger_s21(BASE, f)) / np.abs(hanger_s21(BASE, f))
        assert np.max(rel) < 1e-3

    def test_avoided_crossing_splitting(self):
        # on-resonance strong coupling: two dips separated by ~2g
        g = 5 * KAPPA
        tls = TLSDefect(f_tls=5.0, g=g, gamma=KAPPA, temperature=1e-6)
        f = np.linspace(5.0 - 15 * KAPPA, 5.0 + 15 * KAPPA, 20001)
        mag = np.abs(tls_s21(BASE, tls, f))
        interior = (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
        minima = f[1:-1][interior]
        assert len(minima) == 2
        assert abs((minima[1] - minima[0]) - 2 * g) < 0.1 * 2 * g

    def test_cooperativity(self):
        tls = TLSDefect(f_tls=5.0, g=KAPPA / 2, gamma=KAPPA)
        assert tls.cooperativity(BASE) == pytest.approx(1.0)


class TestThermalPopulation:
    def test_saturates_at_low_temperature(self):
        assert thermal_population(5.0, 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_ten_millikelvin(self):
        # h*5GHz / k_B*10mK ~ 24, tanh(24) = 1 to well below 1e-10
        assert thermal_population(5.0, 0.010) == pytest.approx(1.0, abs=1e-10)

    def test_unit_ratio_gives_tanh_one(self):
        f = 5.0
        t = HBAR * 2 * math.pi * f * GHZ / BOLTZMANN_K
        assert thermal_population(f, t) == pytest.approx(math.tanh(1.0), rel=1e-12)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(InvalidParameterError):
            thermal_population(5.0, 0.0)

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, t1, t2):
        lo, hi = sorted([t1, t2])
        p_lo = thermal_population(5.0, lo)
        p_hi = thermal_population(5.0, hi)
        assert 0.0 < p_hi <= p_lo <= 1.0


class TestFluxToFreq:
    CFG = FluxConfig(f_bare=8.0, n_islands=100, m_trapped=0)

    def test_zero_detuning(self):
        assert flux_to_freq(self.CFG, 0.0) == 8.0
        cfg2 = FluxConfig(f_bare=8.0, n_islands=100, m_trapped=3)
        assert flux_to_freq(cfg2, 3.0) == 8.0

    def test_even_symmetry(self):
        for d in (0.1, 0.7, 2.3):
            assert flux_to_freq(self.CFG, d) == pytest.approx(
                flux_to_freq(self.CFG, -d), rel=1e-15)

    def test_one_flux_quantum(self):
        expected = 8.0 / math.sqrt(1 + 0.5 * (2 * math.pi / 100) ** 2)
        got = flux_to_freq(self.CFG, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert abs(got - 7.99212) < 1e-5

    def test_never_exceeds_bare(self):
        d = np.linspace(-3, 3, 301)
        assert np.all(flux_to_freq(self.CFG, d) <= 8.0)


class TestSynthTrace:
    GRID = np.linspace(4.995, 5.005, 201)

    def test_noiseless_matches_model(self):
        rng = np.random.default_rng(0)
        tr = synth_trace(BASE, [], self.GRID, 0.0, rng)
        assert np.array_equal(tr.s21, hanger_s21(BASE, self.GRID))

    def test_noise_std(self):
        grid = np.linspace(4.995, 5.005, 10000)
        rng = np.random.default_rng(42)
        tr = synth_trace(BASE, [], grid, 0.01, rng)
        dev = tr.s21 - hanger_s21(BASE, grid)
        assert np.std(dev.real) == pytest.approx(0.01, rel=0.03)
        assert np.std(dev.imag) == pytest.approx(0.01, rel=0.03)

    def test_seed_determinism(self):
        a = synth_trace(BASE, [], self.GRID, 0.01, np.random.default_rng(7))
        b = synth_trace(BASE, [], self.GRID, 0.01, np.random.default_rng(7))
        assert np.array_equal(a.s21, b.s21)

    def test_empty_grid_raises(self):
        with pytest.raises(ValidationError):
            synth_trace(BASE, [], np.array([]), 0.0, np.random.default_rng(0))

    def test_nearest_defect_selected(self):
        near = TLSDefect(f_tls=5.0 + KAPPA, g=KAPPA, gamma=KAPPA)
        far = TLSDefect(f_tls=5.0 + 8 * KAPPA, g=KAPPA, gamma=KAPPA)
        rng = np.random.default_rng(0)
        tr = synth_trace(BASE, [far, near], self.GRID, 0.0, rng)
        expected = tls_s21(BASE, near, self.GRID)
        assert np.array_equal(tr.s21, expected)


class TestTrace:
    def test_rejects_short_trace(self):
        f = np.linspace(0, 1, 8)
        with pytest.raises(ValidationError):
            Trace(freqs=f, s21=np.ones(8, complex))

    def test_rejects_nonmonotonic_grid(self):
        f = np.linspace(0, 1, 32)
        f[5] = f[4]
        with pytest.raises(ValidationError):
            Trace(freqs=f, s21=np.ones(32, complex))


def _demo_scenario(defects=(), noise=0.005, seed=11):
    res = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0)
    flux = FluxConfig(f_bare=5.0, n_islands=100, m_trapped=0, flux_per_current=0.02)
    return Scenario(resonator=res, flux=flux, defects=tuple(defects),
                    noise_sigma=noise, rng_seed=seed)


class TestScenario:
    def test_rejects_colliding_defects(self):
        d1 = TLSDefect(f_tls=4.999, g=KAPPA, gamma=KAPPA)
        d2 = TLSDefect(f_tls=4.999 + KAPPA / 8, g=KAPPA, gamma=KAPPA)
        with pytest.raises(InvalidParameterError):
            _demo_scenario([d1, d2]).validate()

    def test_accepts_separated_defects(self):
        d1 = TLSDefect(f_tls=4.995, g=KAPPA, gamma=KAPPA)
        d2 = TLSDefect(f_tls=4.999, g=KAPPA, gamma=KAPPA)
        _demo_scenario([d1, d2]).validate()


class TestVirtualMeasure:
    def test_zero_span_rejected(self):
        with pytest.raises(ValidationError):
            virtual_measure(_demo_scenario(), 1.0, None, 0.0, 201)

    def test_recovers_tuned_frequency(self):
        from jjtls.fitting import fit_hanger

        sc = _demo_scenario(noise=0.005)
        bias = 40.0  # 0.8 flux quanta
        f0 = flux_to_freq(sc.flux, bias * sc.flux.flux_per_current)
        tr = virtual_measure(sc, bias, None, 10 * KAPPA, 201)
        fit = fit_hanger(tr)
        assert fit.converged
        assert abs(fit.params.f_r - f0) < KAPPA / 20

    def test_determinism_per_bias(self):
        sc = _demo_scenario()
        a = virtual_measure(sc, 12.5, None, 0.01, 64)
        b = virtual_measure(sc, 12.5, None, 0.01, 64)
        assert np.array_equal(a.s21, b.s21)

    def test_instrument_closure(self):
        sc = _demo_scenario()
        inst = scenario_instrument(sc)
        tr = inst(3.0, None, 0.01, 64)
        assert len(tr) == 64

    @pytest.mark.parametrize("defects", [
        (), (TLSDefect(f_tls=5.0 - KAPPA, g=KAPPA, gamma=KAPPA),)])
    def test_closure_equals_virtual_measure(self, defects):
        sc = _demo_scenario(defects)
        inst = scenario_instrument(sc)
        for bias, f_center in ((0.0, None), (3.0, 5.0), (40.0, None)):
            a = inst(bias, f_center, 10 * KAPPA, 201)
            b = virtual_measure(sc, bias, f_center, 10 * KAPPA, 201)
            # the same sweep built from the validating public functions
            f0 = flux_to_freq(sc.flux, bias * sc.flux.flux_per_current)
            fc = f0 if f_center is None else f_center
            grid = np.linspace(fc - 5 * KAPPA, fc + 5 * KAPPA, 201)
            near = [d for d in defects if abs(d.f_tls - f0) <= 5 * KAPPA]
            rng = np.random.default_rng([sc.rng_seed, RNG_MEASURE, _bias_bits(bias)])
            c = synth_trace(ResonatorParams(f_r=f0, Q_l=5000.0, Q_e_mag=10000.0), near, grid,
                            sc.noise_sigma, rng, bias_current=bias)
            for tr in (b, c):
                assert np.array_equal(a.freqs, tr.freqs)
                assert np.array_equal(a.s21, tr.s21)
                assert a.bias_current == tr.bias_current
        # the defect sits one linewidth below the bare resonance: in span at zero bias
        assert bool(defects) == (not np.array_equal(
            inst(0.0, None, 10 * KAPPA, 201).s21,
            scenario_instrument(_demo_scenario())(0.0, None, 10 * KAPPA, 201).s21))

    def test_invalid_scenario_raises_at_instrument(self):
        d1 = TLSDefect(f_tls=4.999, g=KAPPA, gamma=KAPPA)
        d2 = TLSDefect(f_tls=4.999 + KAPPA / 8, g=KAPPA, gamma=KAPPA)
        with pytest.raises(InvalidParameterError):
            scenario_instrument(_demo_scenario([d1, d2]))
        with pytest.raises(InvalidParameterError):
            scenario_instrument(_demo_scenario(noise=-1.0))

    @pytest.mark.parametrize("bias", [float("nan"), float("inf")])
    def test_non_finite_bias_raises(self, bias):
        inst = scenario_instrument(_demo_scenario())
        with pytest.raises(InvalidParameterError):
            inst(bias, 5.0, 10 * KAPPA, 201)
