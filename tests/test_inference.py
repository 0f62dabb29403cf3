import math

import numpy as np
import pytest

from scipy import special

import jjtls.inference
from _oracles import (enumerate_detection_pmf, forward_detections, marginal_likelihood,
                      mc_peak_rates)
from jjtls.errors import ValidationError
from jjtls.inference import (DensityEstimate, DetectorRates, InferenceInput, _marginal,
                             _poisson_terms, aggregate_device, density, likelihood_vector,
                             logsumexp, mle_lambda, posterior, true_rates)


class TestTrueRates:
    def test_zero_rates(self):
        r = true_rates(0.0, 0.0)
        assert r.FP == 0.0 and r.FN == 0.0

    def test_unit_rates(self):
        r = true_rates(1.0, 1.0)
        assert r.FP == pytest.approx(0.05)
        assert r.FN == 1.0

    def test_closed_form_values(self):
        r = true_rates(0.1, 0.5)
        assert r.FP == pytest.approx((1 - 0.9 ** 5) / 20, rel=1e-12)
        assert r.FP == pytest.approx(0.0204755, abs=1e-7)
        assert r.FN == pytest.approx(0.03125, rel=1e-12)

    def test_against_monte_carlo(self):
        r = true_rates(0.1, 0.5)
        FP_hat, FP_se, FN_hat, FN_se = mc_peak_rates(0.1, 0.5, 10 ** 6, seed=5)
        assert abs(r.FP - FP_hat) <= 3 * FP_se
        assert abs(r.FN - FN_hat) <= 3 * FN_se

    def test_bounds(self):
        for fp in np.linspace(0, 1, 21):
            assert true_rates(fp, 0.0).FP <= 0.05 + 1e-15
        for fn in np.linspace(0, 1, 21):
            assert true_rates(0.0, fn).FN <= fn + 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            true_rates(-0.1, 0.5)
        with pytest.raises(ValidationError):
            true_rates(0.1, 1.5)


class TestDetectionLikelihood:
    def test_noiseless_detector_is_identity(self):
        r = true_rates(0.0, 0.0)
        for n_t in range(6):
            for n_m in range(6):
                want = 1.0 if n_m == n_t else 0.0
                assert likelihood_vector(n_m, 5, r)[n_t] == want

    def test_pure_false_positives(self):
        r = DetectorRates(fp=0.5, fn=0.0, FP=0.1, FN=0.0)
        B = 6
        for n_m in range(B + 1):
            want = math.comb(B, n_m) * 0.1 ** n_m * 0.9 ** (B - n_m)
            assert likelihood_vector(n_m, B, r)[0] == pytest.approx(want, rel=1e-12)

    def test_hand_case(self):
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.1, FN=0.2)
        # j=0: 0.2 * C(2,1) 0.1*0.9 = 0.036 ; j=1: 0.8 * 0.9^2 = 0.648
        assert likelihood_vector(1, 3, r)[1] == pytest.approx(0.684, abs=1e-12)

    @pytest.mark.parametrize("FP,FN", [(0.0, 0.0), (0.05, 0.2), (0.2, 0.05)])
    def test_matches_exhaustive_enumeration(self, FP, FN):
        r = DetectorRates(fp=0.0, fn=0.0, FP=FP, FN=FN)
        for B in (1, 3, 7):
            for n_t in range(B + 1):
                oracle = enumerate_detection_pmf(B, n_t, FP, FN)
                got = np.array([likelihood_vector(n_m, B, r)[n_t]
                                for n_m in range(B + 1)])
                np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    def test_normalization_exact(self):
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.07, FN=0.13)
        for B in (5, 15):
            for n_t in range(B + 1):
                s = sum(likelihood_vector(n_m, B, r)[n_t] for n_m in range(B + 1))
                assert abs(s - 1.0) < 1e-12

    def test_log_space_path_matches_direct(self):
        # adding one empty bin gives the recursion
        #   P_{B+1}(n_m) = (1-FP) P_B(n_m) + FP P_B(n_m - 1)
        # checked from B=50 to B=51
        r = true_rates(0.05, 0.2)
        for n_t in (0, 4, 20):
            for n_m in (0, 3, 11):
                want = ((1.0 - r.FP) * likelihood_vector(n_m, 50, r)[n_t]
                        + (r.FP * likelihood_vector(n_m - 1, 50, r)[n_t]
                           if n_m > 0 else 0.0))
                got = likelihood_vector(n_m, 51, r)[n_t]
                assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("B,n_m,fp,fn", [(51, 3, 0.05, 0.2), (51, 11, 0.05, 0.2),
                                             (1000, 5, 0.02, 0.35),
                                             (1000, 55, 0.02, 0.35)])
    def test_vector_matches_scipy_binomial_convolution(self, B, n_m, fp, fn):
        # the missed count n_t - j is binomial(n_t, FN): written with
        # p = 1 - FN, scipy would round away the low digits of FN.  n_m stays
        # at survey scale; the running log sums drift as n_m grows (2.5e-12
        # relative at n_m = 300 of B = 1000)
        from scipy.stats import binom

        r = true_rates(fp, fn)
        n_t = np.arange(B + 1)[:, None]
        j = np.arange(n_m + 1)
        want = np.sum(binom.pmf(n_t - j, n_t, r.FN) * binom.pmf(n_m - j, B - n_t, r.FP),
                      axis=1)
        got = likelihood_vector(n_m, B, r)
        big = want > 1e-300
        np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[~big], want[~big], rtol=0, atol=1e-300)


def shipped_marginal(n_m: int, n_bins: int, rates, lam):
    """P(n_m | lambda) from the package's ``PosteriorDensity.marginal_likelihood``:
    a float for one rate, an array for a 1-d array of rates."""
    post = posterior(InferenceInput(n_detected=n_m, n_bins=n_bins, rates=rates))
    got = post.marginal_likelihood(np.atleast_1d(lam))
    return float(got[0]) if np.ndim(lam) == 0 else got


class TestMarginalLikelihood:
    R = true_rates(0.05, 0.3)

    def test_zero_rate_zero_fp(self):
        r = true_rates(0.0, 0.3)
        assert shipped_marginal(0, 8, r, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert shipped_marginal(3, 8, r, 0.0) == 0.0

    def test_sums_to_one(self):
        for lam in (0.0, 0.7, 4.2):
            s = sum(shipped_marginal(n_m, 9, self.R, lam) for n_m in range(10))
            assert abs(s - 1.0) < 1e-9

    def test_matches_forward_simulation(self):
        B, lam = 10, 2.0
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.01, FN=0.1)
        rng = np.random.default_rng(17)
        n = 10 ** 6
        raw = rng.poisson(lam, 2 * n)
        n_t_draws = raw[raw <= B][:n]  # truncated-renormalized Poisson draws
        assert n_t_draws.size == n
        det = rng.binomial(n_t_draws, 1.0 - r.FN)
        spur = rng.binomial(B - n_t_draws, r.FP)
        n_m = np.minimum(det + spur, B)
        counts = np.bincount(n_m, minlength=B + 1) / n
        for nm in range(B + 1):
            p = shipped_marginal(nm, B, r, lam)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[nm] - p) <= 4 * se + 2e-4

    def test_array_of_rates_matches_one_at_a_time(self):
        lams = np.array([0.0, 0.7, 4.2, 30.0])
        got = shipped_marginal(3, 60, self.R, lams)
        want = [shipped_marginal(3, 60, self.R, float(g)) for g in lams]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_plot_grid_matches_scalar_path(self):
        # infer's plot grid at B = 1000, against the golden-section search's
        # one-rate-at-a-time marginal
        B, n_m = 1000, 57
        lams = np.linspace(0.0, 3.0 * n_m, 121)
        got = shipped_marginal(n_m, B, self.R, lams)
        lvec = likelihood_vector(n_m, B, self.R)
        terms = _poisson_terms(B)
        want = [_marginal(float(g), lvec, *terms) for g in lams]
        assert lams[0] == 0.0 and got.shape == (121,)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_negative_rate_in_array_rejected(self):
        with pytest.raises(ValidationError):
            shipped_marginal(3, 60, self.R, np.array([1.0, -0.5]))


class TestLogsumexp:
    """The numpy logsumexp against scipy.special.logsumexp, bit for bit."""

    @staticmethod
    def edge_rows():
        rows = np.random.default_rng(3).normal(size=(6, 9)) * 40
        rows[0] = -np.inf                           # all -inf
        rows[1, 4] = np.inf                         # holds +inf
        rows[2, [1, 5, 7]] = rows[2].max() + 1.0    # ties at the max
        rows[3, 2] = np.nan                         # holds NaN
        rows[4, :] = 5.0                            # all tied
        rows[5, [0, 8]] = -np.inf                   # some -inf
        return rows

    @pytest.mark.parametrize("shape", [(31,), (1001,), (121, 1001), "edges"])
    def test_equals_scipy(self, shape):
        if shape == "edges":
            a = self.edge_rows()
        else:
            a = np.random.default_rng(len(shape)).normal(size=shape) * 300.0
        for axis in range(-a.ndim, a.ndim):
            for keepdims in (False, True):
                want = special.logsumexp(a, axis=axis, keepdims=keepdims)
                got = logsumexp(a, axis=axis, keepdims=keepdims)
                assert got.shape == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True)

    def test_posteriors_equal_scipy(self, monkeypatch):
        # 745 posteriors: B = 1..490, then every second B to 1000
        cases = [(B, B // 20 + B % 3, true_rates(*[(0.02, 0.35), (0.1, 0.05),
                                                  (0.001, 0.6)][B % 3]))
                 for B in [*range(1, 491), *range(492, 1001, 2)]]
        assert len(cases) == 745
        inputs = [InferenceInput(n_detected=n_m, n_bins=B, rates=r) for B, n_m, r in cases]
        got = [posterior(i) for i in inputs]
        monkeypatch.setattr(jjtls.inference, "logsumexp", special.logsumexp)
        for inp, g in zip(inputs, got):
            w = posterior(inp)
            assert np.array_equal(g.pmf, w.pmf), inp
            assert (g.lambda_star, g.mean_count, g.ci68) == (w.lambda_star, w.mean_count,
                                                           w.ci68), inp


class TestMleLambda:
    def test_zero_detections_zero_fp(self):
        r = true_rates(0.0, 0.1)
        assert mle_lambda(0, 20, r) < 1e-4

    def test_perfect_detector_recovers_count(self):
        r = true_rates(0.0, 0.0)
        for n_m in (1, 4, 9):
            assert mle_lambda(n_m, 60, r) == pytest.approx(n_m, abs=2e-3)

    def test_against_dense_grid(self):
        from scipy.special import gammaln, xlogy

        r = DetectorRates(fp=0.0, fn=0.0, FP=0.005, FN=0.03)
        B = 200
        lam_star = mle_lambda(5, B, r)
        lvec = likelihood_vector(5, B, r)
        grid = np.linspace(0, B, 10 ** 4 + 1)
        k = np.arange(B + 1)
        logw = xlogy(k[None, :], grid[:, None]) - gammaln(k + 1)[None, :]
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        lam_grid = grid[int(np.argmax(w @ lvec))]
        assert abs(lam_star - lam_grid) <= max(1e-3, 2 * (grid[1] - grid[0]))
        # spot-check the vectorized scan against the scalar operation
        assert w[137] @ lvec == pytest.approx(
            shipped_marginal(5, B, r, float(grid[137])), rel=1e-12)


class TestPosterior:
    def test_point_mass_for_perfect_detector(self):
        r = true_rates(0.0, 0.0)
        for k in (0, 3, 7):
            post = posterior(InferenceInput(n_detected=k, n_bins=12, rates=r))
            assert post.pmf[k] == pytest.approx(1.0, abs=1e-9)
            assert post.ci68 == (k, k)
            assert post.mean_count == pytest.approx(k, abs=1e-9)

    def test_mean_is_pmf_mean(self):
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.01, FN=0.05)
        post = posterior(InferenceInput(n_detected=4, n_bins=40, rates=r))
        want = float(np.dot(np.arange(41), post.pmf))
        assert post.mean_count == pytest.approx(want, abs=1e-12)

    def test_matches_rejection_sampling(self):
        # forward-simulate the plug-in generative model and condition on n_m
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.005, FN=0.03)
        B, n_m = 200, 5
        post = posterior(InferenceInput(n_detected=n_m, n_bins=B, rates=r))
        rng = np.random.default_rng(31)
        n = 10 ** 6
        n_t = np.minimum(rng.poisson(post.lambda_star, n), B)
        det = rng.binomial(n_t, 1.0 - r.FN)
        spur = rng.binomial(B - n_t, r.FP)
        keep = (det + spur) == n_m
        assert keep.sum() > 10 ** 4
        mc_mean = n_t[keep].mean()
        assert post.mean_count == pytest.approx(mc_mean, rel=0.02)

    def test_posterior_mean_monotone_in_detections(self):
        r = true_rates(0.05, 0.2)
        means = [posterior(InferenceInput(n_detected=k, n_bins=30, rates=r)).mean_count
                 for k in range(10)]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_interval_orders(self):
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.02, FN=0.1)
        post = posterior(InferenceInput(n_detected=6, n_bins=50, rates=r))
        lo, hi = post.ci68
        assert 0 <= lo <= post.mean_count <= hi <= 50

    @pytest.mark.parametrize("B", [30, 100, 300, 1000])
    def test_carries_the_likelihood_it_weighs(self, B):
        # the posterior keeps its count likelihood, and its marginal over rates
        # is marginal_likelihood's bit for bit, without building it again
        r = true_rates(0.02, 0.35)
        n_m = B // 10
        post = posterior(InferenceInput(n_detected=n_m, n_bins=B, rates=r))
        assert np.array_equal(post.likelihood, likelihood_vector(n_m, B, r))
        assert post.lambda_star == mle_lambda(n_m, B, r)
        lams = np.linspace(0.0, max(3.0 * post.lambda_star, 3.0), 121)
        assert np.array_equal(post.marginal_likelihood(lams),
                              marginal_likelihood(n_m, B, r, lams))
        with pytest.raises(ValidationError):
            post.marginal_likelihood(np.array([1.0, -0.5]))


class TestDensity:
    def test_zero_posterior(self):
        r = true_rates(0.0, 0.0)
        post = posterior(InferenceInput(n_detected=0, n_bins=10, rates=r))
        est = density(post, delta_f=1.0, area=100.0)
        assert est.rho == 0.0

    def test_treatment_scale_example(self):
        # mean 20 counts over 1 GHz and 100 um^2 -> 0.20 / GHz / um^2
        r = true_rates(0.0, 0.0)
        post = posterior(InferenceInput(n_detected=20, n_bins=100, rates=r))
        est = density(post, delta_f=1.0, area=100.0)
        assert est.rho == pytest.approx(0.20, rel=1e-9)

    def test_area_scaling(self):
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.01, FN=0.05)
        post = posterior(InferenceInput(n_detected=8, n_bins=60, rates=r))
        a = density(post, delta_f=2.0, area=50.0)
        b = density(post, delta_f=2.0, area=100.0)
        assert b.rho == pytest.approx(a.rho / 2, rel=1e-12)
        assert b.ci68[1] == pytest.approx(a.ci68[1] / 2, rel=1e-12)

    def test_rejects_bad_normalizers(self):
        r = true_rates(0.0, 0.0)
        post = posterior(InferenceInput(n_detected=1, n_bins=5, rates=r))
        with pytest.raises(ValidationError):
            density(post, delta_f=0.0, area=10.0)


class TestAggregateDevice:
    def one(self, rho, sm, sp):
        return DensityEstimate(rho=rho, ci68=(rho - sm, rho + sp),
                               delta_f=1.0, area=1.0)

    def test_single_estimate_identity(self):
        s = aggregate_device([self.one(0.2, 0.05, 0.08)])
        assert (s.rho_mean, s.sigma_minus, s.sigma_plus) == (0.2, pytest.approx(0.05),
                                                             pytest.approx(0.08))

    def test_two_equal_sigmas_quadrature(self):
        s = aggregate_device([self.one(0.2, 0.1, 0.1), self.one(0.4, 0.1, 0.1)])
        assert s.rho_mean == pytest.approx(0.3)
        assert s.sigma_plus == pytest.approx(0.1 / math.sqrt(2))

    def test_n_identical_shrinks_as_sqrt_n(self):
        for n in (4, 9):
            s = aggregate_device([self.one(0.2, 0.06, 0.06)] * n)
            assert s.rho_mean == pytest.approx(0.2)
            assert s.sigma_plus == pytest.approx(0.06 / math.sqrt(n))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_device([])


class TestCoverageSmoke:
    def test_interval_contains_truth_reasonably_often(self):
        # small-scale version of the acceptance coverage gate
        r = DetectorRates(fp=0.0, fn=0.0, FP=0.005, FN=0.03)
        B = 200
        rng = np.random.default_rng(3)
        hits = 0
        n = 60
        for _ in range(n):
            n_t = min(int(rng.poisson(5.0)), B)
            n_m = forward_detections(n_t, B, r.FP, r.FN, rng)
            post = posterior(InferenceInput(n_detected=n_m, n_bins=B, rates=r))
            lo, hi = post.ci68
            hits += lo <= n_t <= hi
        assert hits / n > 0.45
