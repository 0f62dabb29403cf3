import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from _oracles import (permutation_importance_loop, permuted_designs,
                      ridge_loocv_predictions_dropping_flat, ridge_loocv_predictions_fold_loop,
                      ridge_loocv_predictions_loop, ridge_loocv_r2_loop,
                      ridge_permutation_importance_stacked)
from jjtls.errors import DegenerateDataError, ValidationError
from jjtls.stats import (CLUSTER_TIE_TOL, LOO_BLOCK, RIDGE_ALPHA_GRID, _ridge_loocv_predictions,
                         cluster_features, gamma_fit, kruskal_wallis, pearson, ridge_loocv_r2,
                         ridge_permutation_importance, shapiro_wilk, spearman)

# Reference (W, p) values from the AS R94 reference implementation
# (scipy.stats.shapiro), spanning the three p-value regimes of the algorithm.
SW_VECTORS = [
    ("n3", [2.1, 3.4, 1.9], 0.8479899497487435, 0.23508923424205008),
    ("n7", [4.96, 5.04, 5.11, 4.88, 5.0, 4.93, 5.07],
     0.9831369130386364, 0.9733504896118587),
    ("n8_uniform", [0.093, 0.88, 0.41, 0.27, 0.65, 0.18, 0.74, 0.52],
     0.9660634094144871, 0.8654552663707946),
    ("n11_skew", [0.12, 0.25, 0.31, 0.44, 0.58, 0.71, 0.89, 1.12, 1.55, 2.31, 4.8],
     0.7420969471111207, 0.0016397077370909987),
    ("n20_mixed", [0.11, 7.87, 4.61, 10.14, 7.95, 3.14, 0.46, 4.43, 0.21, 4.75,
                   0.71, 1.52, 3.24, 0.93, 0.42, 4.97, 9.53, 4.55, 0.47, 6.66],
     0.9004728794391273, 0.04208957544308365),
]

# Royston's AS R94 polynomial approximation to the Shapiro-Wilk weights: a
# sample proportional to them lies exactly on its normal scores (W = 1).
_SW_C1 = (0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.042981, -0.293762, -1.752461, 5.682633, -3.582633)


def _sw_weights(n: int) -> np.ndarray:
    if n == 3:
        return np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    msq = float(np.dot(m, m))
    c = m / math.sqrt(msq)
    u = 1.0 / math.sqrt(n)
    a = np.empty(n)
    a_n = c[-1] + np.polyval(_SW_C1[::-1] + (0.0,), u)
    if n > 5:
        a_n1 = c[-2] + np.polyval(_SW_C2[::-1] + (0.0,), u)
        phi = (msq - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (1 - 2 * a_n ** 2 - 2 * a_n1 ** 2)
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-2], a[1] = a_n1, -a_n1
    else:
        phi = (msq - 2 * m[-1] ** 2) / (1 - 2 * a_n ** 2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
    a[-1], a[0] = a_n, -a_n
    return a


class TestShapiroWilk:
    @pytest.mark.parametrize("name,data,w_ref,p_ref", SW_VECTORS,
                             ids=[v[0] for v in SW_VECTORS])
    def test_reference_vectors(self, name, data, w_ref, p_ref):
        assert shapiro_wilk(data) == (w_ref, p_ref)

    def test_matches_reference_bulk(self):
        from scipy import stats as sps

        rng = np.random.default_rng(42)
        for n in (4, 5, 6, 12, 30, 80, 300, 2000):
            for kind in range(3):
                x = (rng.standard_normal(n) if kind == 0
                     else rng.exponential(1.0, n) if kind == 1
                     else rng.uniform(0, 1, n))
                assert shapiro_wilk(x) == tuple(sps.shapiro(x))

    def test_ideal_normal_scores(self):
        n = 50
        scores = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        W, p = shapiro_wilk(scores)
        assert W > 0.99

    @pytest.mark.parametrize("n", range(3, 12))
    def test_sample_on_its_normal_scores(self, n):
        # W rounds to 1 for a sample proportional to the weights; p is 1
        for scale in (1.0, 3.0, 1e-3, 7.7):
            W, p = shapiro_wilk(2.0 + scale * _sw_weights(n))
            assert 0.99 < W <= 1.0 and 0.0 <= p <= 1.0

    def test_too_small_sample(self):
        with pytest.raises(ValidationError):
            shapiro_wilk([1.0, 2.0])

    def test_constant_sample(self):
        with pytest.raises(DegenerateDataError):
            shapiro_wilk([3.0] * 10)

    def test_w_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            W, p = shapiro_wilk(rng.standard_normal(15))
            assert 0.0 < W <= 1.0
            assert 0.0 <= p <= 1.0


class TestKruskalWallis:
    def test_hand_ranked_case(self):
        H, p = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert H == pytest.approx(7.2, abs=1e-12)
        assert p == pytest.approx(math.exp(-3.6), abs=1e-12)
        assert p == pytest.approx(0.0273, abs=1e-3)

    def test_identical_groups(self):
        H, p = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert H == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_all_values_identical(self):
        H, p = kruskal_wallis([[5.0, 5.0], [5.0, 5.0]])
        assert (H, p) == (0.0, 1.0)

    def test_matches_scipy_with_ties(self):
        from scipy import stats as sps

        rng = np.random.default_rng(1)
        for _ in range(25):
            groups = [np.round(rng.uniform(0, 3, rng.integers(3, 9)), 1)
                      for _ in range(3)]
            assert kruskal_wallis(groups) == tuple(sps.kruskal(*groups))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        groups = [rng.gamma(3, 1, 8) for _ in range(3)]
        H1, p1 = kruskal_wallis(groups)
        H2, p2 = kruskal_wallis([np.exp(g) for g in groups])
        assert H1 == pytest.approx(H2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_rejects_tiny_groups(self):
        with pytest.raises(ValidationError):
            kruskal_wallis([[1.0], [2.0, 3.0]])

    def test_power_at_treatment_scale(self):
        # means 0.20 vs 0.07 with treatment-scale spreads, n=8 each
        rng = np.random.default_rng(2026)
        rejections = 0
        trials = 300
        for _ in range(trials):
            a = rng.gamma(4.0, 0.20 / 4.0, 8)
            d = rng.gamma(3.0625, 0.07 / 3.0625, 8)
            _, p = kruskal_wallis([a, d])
            rejections += p < 0.05
        assert rejections / trials >= 0.80


class TestGammaFit:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        x = rng.gamma(4.0, 0.05, 10 ** 4)
        fit = gamma_fit(x)
        assert fit.mean == pytest.approx(0.20, rel=0.02)
        assert fit.shape == pytest.approx(4.0, rel=0.1)
        assert fit.mean == pytest.approx(float(x.mean()), rel=1e-9)

    def test_constant_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            gamma_fit([0.3, 0.3, 0.3, 0.3, 0.3])

    def test_zeros_are_shifted(self):
        fit = gamma_fit([0.0, 0.1, 0.2, 0.5, 0.3, 0.15])
        assert math.isfinite(fit.shape)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.gamma(2.5, 1.3, 500)
        f1 = gamma_fit(x)
        f2 = gamma_fit(10.0 * x)
        assert f2.mean == pytest.approx(10.0 * f1.mean, rel=1e-9)
        assert f2.shape == pytest.approx(f1.shape, rel=1e-7)

    def test_stderr_tracks_sample_error(self):
        rng = np.random.default_rng(9)
        x = rng.gamma(4.0, 0.05, 400)
        fit = gamma_fit(x)
        naive = x.std(ddof=1) / math.sqrt(x.size)
        assert fit.mean_stderr == pytest.approx(naive, rel=0.2)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            gamma_fit([0.1, 0.2, 0.3])


class TestCorrelations:
    def test_exact_linear(self):
        x = np.arange(10.0)
        r, p = pearson(x, 2 * x + 1)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert p == 0.0

    def test_monotone_nonlinear(self):
        x = np.linspace(0.1, 3.0, 12)
        y = np.exp(x)
        rho, _ = spearman(x, y)
        r, _ = pearson(x, y)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert r < 1.0

    def test_reversed_ranks(self):
        x = np.arange(8.0)
        rho, _ = spearman(x, x[::-1])
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        r1, p1 = pearson(x, y)
        r2, p2 = pearson(3.0 * x + 5.0, 0.5 * y - 2.0)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_matches_scipy(self):
        from scipy import stats as sps

        rng = np.random.default_rng(5)
        x = rng.standard_normal(15)
        y = 0.4 * x + rng.standard_normal(15)
        r, p = pearson(x, y)
        ref = sps.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)
        rho, ps = spearman(x, y)
        ref_s = sps.spearmanr(x, y)
        assert rho == pytest.approx(ref_s.statistic, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            pearson([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("test", [
    lambda v: pearson([1.0, 2.0, 3.0, v], [2.0, 1.0, 4.0, 3.0]),
    lambda v: spearman([1.0, 2.0, 3.0, 4.0], [2.0, v, 4.0, 3.0]),
    lambda v: kruskal_wallis([[1.0, 2.0, v], [4.0, 5.0, 6.0]]),
], ids=["pearson", "spearman", "kruskal_wallis"])
def test_non_finite_samples_rejected(test, bad):
    with pytest.raises(ValidationError, match="samples must be finite"):
        test(bad)


def latent_factor_design(seed, n=40, copies=5, noise=0.01):
    """Two latent factors, `copies` noisy proxies each; target needs both."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    cols = []
    for f in range(2):
        for _ in range(copies):
            cols.append(z[:, f] + noise * rng.standard_normal(n))
    X = np.column_stack(cols)
    y = z[:, 0] + 0.6 * z[:, 1] + 0.3 * rng.standard_normal(n)
    return X, y


class TestClusterFeatures:
    def test_alpha_is_first_grid_maximum(self):
        for seed in (0, 3):
            X, y = latent_factor_design(seed)
            sel = cluster_features(X, y)
            Xr = X[:, list(sel.representatives)]
            r2 = [ridge_loocv_r2_loop(Xr, y, a) for a in RIDGE_ALPHA_GRID]
            best = next(m for m, v in enumerate(r2) if v == max(r2))
            assert sel.ridge_alpha == RIDGE_ALPHA_GRID[best]
            assert sel.loocv_r2 == pytest.approx(r2[best], rel=1e-12)

    def test_duplicated_columns_share_cluster(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(20)
        X = np.column_stack([base, base.copy(), rng.standard_normal(20)])
        y = base + 0.1 * rng.standard_normal(20)
        sel = cluster_features(X, y)
        pair = next(c for c in sel.clusters if 0 in c)
        assert 1 in pair

    def test_representatives_cover_clusters(self):
        X, y = latent_factor_design(1)
        sel = cluster_features(X, y)
        assert len(sel.representatives) == len(sel.clusters)
        for rep, cluster in zip(sel.representatives, sel.clusters):
            assert rep in cluster

    def test_two_latent_factors_recovered(self):
        hits = 0
        for seed in range(40):
            X, y = latent_factor_design(seed)
            sel = cluster_features(X, y)
            if len(sel.clusters) == 2:
                sets = [set(c) for c in sel.clusters]
                if {frozenset(range(5)), frozenset(range(5, 10))} == \
                        {frozenset(s) for s in sets}:
                    hits += 1
        assert hits >= 36  # >= 90%

    def test_column_order_invariance(self):
        X, y = latent_factor_design(2)
        perm = np.random.default_rng(0).permutation(X.shape[1])
        sel1 = cluster_features(X, y)
        sel2 = cluster_features(X[:, perm], y)
        mapped = {frozenset(int(perm[j]) for j in c) for c in sel2.clusters}
        orig = {frozenset(c) for c in sel1.clusters}
        assert mapped == orig

    def test_too_few_observations(self):
        with pytest.raises(ValidationError):
            cluster_features(np.ones((3, 4)), np.ones(3))

    def test_constant_column_is_degenerate(self):
        X, y = latent_factor_design(0)
        X[:, 3] = 0.34
        with pytest.raises(DegenerateDataError, match="column 3"):
            cluster_features(X, y)


def one_factor_design(seed, n=30, copies=4):
    """Near-duplicate proxies of one latent factor, which alone drives the target."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    X = np.column_stack([z + 0.05 * rng.standard_normal(n) for _ in range(copies)])
    return X, z + 0.3 * rng.standard_normal(n)


class TestClusterCutScores:
    """cluster_features scores every cut at every alpha of the grid in one pass
    over the LOOCV folds; each score is the one-fold-at-a-time LOOCV of that
    cut's representatives, and the selection follows from those scores."""

    @staticmethod
    def fold_constant_design():
        # column 1 is constant but for row 5: the fold that holds row 5 out
        # sees it constant over its training rows
        X, y = latent_factor_design(0, n=20)
        X[:, 1] = 0.34
        X[5, 1] = 0.68
        return X, y

    @staticmethod
    def scored(monkeypatch, X, y):
        """cluster_features' selection, the representatives of every cut it scored
        (finest first), their R^2 at every alpha, and its number of fold passes."""
        import jjtls.stats as stats

        scores, passes = [], []
        r2, kernel = stats.ridge_loocv_r2, stats._ridge_loocv_predictions

        def scoring(*args, **kwargs):
            scores.append((kwargs["subsets"], r2(*args, **kwargs)))
            return scores[-1][1]

        monkeypatch.setattr(stats, "ridge_loocv_r2", scoring)
        monkeypatch.setattr(stats, "_ridge_loocv_predictions",
                            lambda *args, **kwargs: passes.append(1) or kernel(*args, **kwargs))
        sel = cluster_features(X, y)
        assert len(scores) == 1
        return sel, *scores[0], len(passes)

    @pytest.mark.parametrize("case", ["fold-constant column", "tie band", "one-column cut"])
    def test_every_cut_equals_loop(self, monkeypatch, case):
        X, y = {"fold-constant column": self.fold_constant_design,
                "tie band": lambda: latent_factor_design(3),
                "one-column cut": lambda: one_factor_design(5)}[case]()
        sel, cuts, r2, passes = self.scored(monkeypatch, X, y)
        assert passes == 1 and r2.shape == (len(cuts), len(RIDGE_ALPHA_GRID))
        loop = ridge_loocv_r2_loop
        if case == "fold-constant column":  # the loop, refitting each fold without it
            def loop(X, y, alpha):
                preds = ridge_loocv_predictions_dropping_flat(X, y, alpha)
                return 1.0 - np.sum((y - preds) ** 2) / np.sum((y - y.mean()) ** 2)
        want = np.array([[loop(X[:, list(reps)], y, a) for a in RIDGE_ALPHA_GRID]
                         for reps in cuts])
        np.testing.assert_allclose(r2, want, rtol=1e-12, atol=0)
        # the selection, from the loop's scores: each cut at its first best alpha,
        # then the coarsest cut within the tie band
        best = want.max(axis=1)
        tied = np.flatnonzero(best >= best.max() - CLUSTER_TIE_TOL)
        c = tied[-1]
        assert sel.representatives == tuple(cuts[c])
        assert sel.ridge_alpha == RIDGE_ALPHA_GRID[int(np.argmax(want[c]))]
        assert sel.loocv_r2 == pytest.approx(best[c], rel=1e-12)
        if case == "fold-constant column":
            assert any(1 in reps for reps in cuts)
        elif case == "tie band":  # the tie rule, not the best score, picks the cut
            assert len(tied) >= 2 and best[c] < best.max()
        else:
            assert sel.representatives == tuple(cuts[-1]) and len(cuts[-1]) == 1

    @pytest.mark.parametrize("n, k", [(40, 10), (60, 8), (600, 6)])
    def test_one_fold_pass_per_call(self, monkeypatch, n, k):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, k)) + rng.standard_normal((n, 1))
        y = X[:, 0] + rng.standard_normal(n)
        _, cuts, _, passes = self.scored(monkeypatch, X, y)
        assert len(cuts) == k and passes == 1


class TestRidgePermutationImportance:
    def test_signal_feature_ranked_first(self):
        wins = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 5))
            y = X[:, 1] + 0.05 * rng.standard_normal(40)
            rep = ridge_permutation_importance(X, y, alpha=1e-6, repeats=30,
                                               seed=seed)
            wins += rep.ranking()[0] == "f1"
        assert wins >= 27

    def test_null_feature_importance_near_zero(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 4))
        y = 2.0 * X[:, 0] + 0.1 * rng.standard_normal(50)
        rep = ridge_permutation_importance(X, y, alpha=1e-3, repeats=60, seed=0)
        mean, std = rep.importances["f3"]
        assert abs(mean) <= max(2 * std, 1e-3)

    def test_infinite_shrinkage_kills_importances(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 3))
        y = X[:, 0]
        rep = ridge_permutation_importance(X, y, alpha=1e9, repeats=20, seed=0)
        for mean, _ in rep.importances.values():
            assert abs(mean) < 1e-6

    def test_deterministic_under_seed(self):
        X, y = latent_factor_design(5)
        r1 = ridge_permutation_importance(X, y, alpha=1.0, repeats=15, seed=9)
        r2 = ridge_permutation_importance(X, y, alpha=1.0, repeats=15, seed=9)
        assert r1.importances == r2.importances

    def test_alpha_must_be_positive(self):
        X, y = latent_factor_design(6)
        with pytest.raises(ValidationError):
            ridge_loocv_r2(X, y, 0.0)

    @pytest.mark.parametrize("repeats", [0, 1])
    def test_fewer_than_two_repeats_rejected(self, repeats):
        # the std of one drop is undefined: it would be written as a bare NaN
        X, y = latent_factor_design(6)
        with pytest.raises(ValidationError, match="repeats"):
            ridge_permutation_importance(X, y, alpha=1.0, repeats=repeats)


class TestRidgeLoocv:
    def test_matches_naive_refit(self):
        # independent check: explicit scikit-style per-fold refit
        rng = np.random.default_rng(13)
        X = rng.standard_normal((12, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(12)
        alpha = 0.7
        preds = np.empty(12)
        for i in range(12):
            mask = np.ones(12, bool)
            mask[i] = False
            Xt, yt = X[mask], y[mask]
            mu, sd = Xt.mean(0), Xt.std(0)
            Z = (Xt - mu) / sd
            w = np.linalg.solve(Z.T @ Z + alpha * np.eye(3), Z.T @ (yt - yt.mean()))
            preds[i] = yt.mean() + ((X[i] - mu) / sd) @ w
        want = 1 - np.sum((y - preds) ** 2) / np.sum((y - y.mean()) ** 2)
        assert ridge_loocv_r2(X, y, alpha) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, k, batch", [(4, 1, (5,)), (60, 8, (3, 2))])
    def test_batched_matches_loop(self, n, k, batch):
        # a batch of designs in subset form: their columns side by side in one X
        rng = np.random.default_rng(n + k)
        Xs = rng.standard_normal(batch + (n, k))
        y = Xs[(0,) * len(batch)] @ rng.standard_normal(k) + 0.5 * rng.standard_normal(n)
        alphas = np.logspace(-3, 3, 7)
        X, subsets = side_by_side(Xs)
        preds = _ridge_loocv_predictions(X, y, alphas, subsets=subsets).reshape(batch + (7, n))
        r2 = ridge_loocv_r2(X, y, alphas, subsets=subsets).reshape(batch + (7,))
        for b in np.ndindex(batch):
            for m, alpha in enumerate(alphas):
                np.testing.assert_allclose(
                    preds[b + (m,)], ridge_loocv_predictions_loop(Xs[b], y, alpha),
                    rtol=1e-12)
                assert r2[b + (m,)] == pytest.approx(
                    ridge_loocv_r2_loop(Xs[b], y, alpha), rel=1e-12)

    @pytest.mark.parametrize("value", [0.34, 55.3])
    def test_fold_constant_column_drops_out_of_that_fold(self, value):
        # column 1 is constant in every row but row 5, so the fold that holds
        # row 5 out sees a constant column whose training std rounds above 0
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 3))
        X[:, 1] = value
        X[5, 1] = 2.0 * value
        y = X[:, 0] - X[:, 2] + 0.1 * rng.standard_normal(20)
        for alpha in (1e-3, 1.0):
            got = _ridge_loocv_predictions(X, y, np.array([alpha]))[0]
            np.testing.assert_allclose(
                got, ridge_loocv_predictions_dropping_flat(X, y, alpha), rtol=1e-12)

    @pytest.mark.parametrize("design, alpha, repeats, seed", [
        ("latent", 1.0, 15, 9), ("signal", 1e-6, 30, 4), ("null", 1e-3, 20, 0)])
    def test_importances_match_loop(self, design, alpha, repeats, seed):
        rng = np.random.default_rng(seed)
        if design == "latent":
            X, y = latent_factor_design(seed, n=24, copies=2)
        else:
            X = rng.standard_normal((40, 5))
            y = (X[:, 1] if design == "signal" else 0.0) + 0.05 * rng.standard_normal(40)
        rep = ridge_permutation_importance(X, y, alpha=alpha, repeats=repeats, seed=seed)
        want = permutation_importance_loop(X, y, alpha, repeats, seed)
        for (mean, std), (want_mean, want_std) in zip(rep.importances.values(), want):
            assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-15)
            assert std == pytest.approx(want_std, rel=1e-12, abs=1e-15)


def side_by_side(Xs: np.ndarray):
    """A stack of designs (..., n, k) in subset form: one design (n, k * designs)
    holding every design's columns side by side, and each design's columns."""
    *stack, n, k = Xs.shape
    d = math.prod(stack)
    return (np.moveaxis(Xs.reshape(d, n, k), 0, 1).reshape(n, d * k),
            [range(j * k, (j + 1) * k) for j in range(d)])


class TestFoldBlocks:
    """Folds gathered in blocks give the one-fold-per-iteration loop's
    predictions, whatever the number of folds per block: bit for bit for a
    design of its own, and for every subset of a wider design at 1e-12 (its
    system is gathered from that design's Gram matrix, whose BLAS sums may
    round differently); the number of folds per block changes no bit."""

    ALPHAS = np.array(RIDGE_ALPHA_GRID)

    @pytest.mark.parametrize("shape, blocks", [
        ((60, 8), 1),            # a survey-sized design: one block
        ((12, 8), 1),            # the fixture's design size
        ((3, 100, 60, 3), 60),   # 300 subsets of a 900-column design: one fold per block
        ((5, 50, 10), 2),        # the last block holds fewer folds
    ])
    def test_equal_to_fold_loop(self, monkeypatch, shape, blocks):
        *stack, n, k = shape
        step = max(1, LOO_BLOCK // (math.prod(stack) * (n - 1) * k))
        assert -(-n // step) == blocks
        rng = np.random.default_rng(n + k)
        Xs = rng.standard_normal(shape)
        y = Xs[(0,) * len(stack)] @ rng.standard_normal(k) + 0.5 * rng.standard_normal(n)
        want = ridge_loocv_predictions_fold_loop(Xs, y, self.ALPHAS)
        if not stack:
            assert np.array_equal(_ridge_loocv_predictions(Xs, y, self.ALPHAS), want)
        X, subsets = side_by_side(Xs)
        got = _ridge_loocv_predictions(X, y, self.ALPHAS, subsets=subsets)
        assert_close_to_scale(got.reshape(want.shape), want)
        monkeypatch.setattr("jjtls.stats.LOO_BLOCK", 1)
        assert np.array_equal(_ridge_loocv_predictions(X, y, self.ALPHAS, subsets=subsets), got)

    @pytest.mark.parametrize("shape", [(10, 0), (0, 10, 0), (0, 10, 3)])
    def test_empty_design_equal_to_fold_loop(self, shape):
        Xs, y = np.zeros(shape), np.arange(10.0)
        X, subsets = side_by_side(Xs)
        got = _ridge_loocv_predictions(X, y, self.ALPHAS, subsets=subsets)
        want = ridge_loocv_predictions_fold_loop(Xs, y, self.ALPHAS)
        assert np.array_equal(got.reshape(want.shape), want)

    @pytest.mark.parametrize("value", [0.34, 55.3])
    def test_fold_constant_column_equal_to_fold_loop(self, value):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 3))
        X[:, 1] = value
        X[5, 1] = 2.0 * value
        y = X[:, 0] - X[:, 2] + 0.1 * rng.standard_normal(20)
        got = _ridge_loocv_predictions(X, y, self.ALPHAS)
        assert np.array_equal(got, ridge_loocv_predictions_fold_loop(X, y, self.ALPHAS))


@functools.lru_cache(maxsize=None)
def swap_case(n: int, k: int, repeats: int, odd_column: float | None = None):
    """A design, its target, its column permutations drawn as the importance
    draws them, and the stacked fold loop's predictions of every permuted
    design at every alpha of the grid (cached: shared by the block sizes)."""
    rng = np.random.default_rng(100 * n + k)
    X = rng.standard_normal((n, k))
    if odd_column is not None:
        # constant but for one row: a fold that holds that row out sees the
        # column, and every permutation of it, constant over its training rows
        X[:, 1] = odd_column
        X[n // 3, 1] = 2.0 * odd_column
    y = X @ rng.standard_normal(k) + 0.5 * rng.standard_normal(n)
    swaps = np.empty((k, repeats, n))
    for j in range(k):
        for rep in range(repeats):
            swaps[j, rep] = rng.permutation(X[:, j])
    want = ridge_loocv_predictions_fold_loop(permuted_designs(X, swaps), y,
                                             np.array(RIDGE_ALPHA_GRID))
    return X, y, swaps, want


def assert_close_to_scale(got, want):
    """rtol 1e-12, with an absolute floor of 1e-12 of the largest |prediction|:
    a held-out prediction near 0 is the difference of O(1) terms, and one ulp
    of those is a large relative error of the difference."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestSwapKernel:
    """Permuted designs scored in swap form: X once per fold plus each swapped
    column's own products, against the stack of whole designs it replaces."""

    ALPHAS = np.array(RIDGE_ALPHA_GRID)
    BLOCKS = [1, 2 ** 18]  # LOO_BLOCK giving one fold per block, and many

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("repeats", [2, 100])
    @pytest.mark.parametrize("n", [4, 12, 60])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_predictions_match_stack(self, monkeypatch, k, n, repeats, block):
        X, y, swaps, want = swap_case(n, k, repeats)
        monkeypatch.setattr("jjtls.stats.LOO_BLOCK", block)
        folds = max(1, block // ((k + k * repeats) * (n - 1)))
        assert (folds == 1) == (block == 1)
        got = _ridge_loocv_predictions(X, y, self.ALPHAS, swaps)
        assert got.shape == (k, repeats, len(self.ALPHAS), n)
        assert_close_to_scale(got, want)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("repeats", [2, 100])
    @pytest.mark.parametrize("value", [0.34, 55.3])
    def test_fold_constant_swapped_column(self, monkeypatch, value, repeats, block):
        X, y, swaps, want = swap_case(20, 3, repeats, odd_column=value)
        monkeypatch.setattr("jjtls.stats.LOO_BLOCK", block)
        got = _ridge_loocv_predictions(X, y, self.ALPHAS, swaps)
        assert_close_to_scale(got, want)

    @pytest.mark.parametrize("design, alpha, repeats, seed", [
        ("latent", 1.0, 15, 9), ("latent", None, 100, 2), ("signal", 1e-6, 30, 4),
        ("null", 1e-3, 20, 0), ("empty", 1.0, 5, 0)])
    def test_importances_match_stacked_path(self, design, alpha, repeats, seed):
        rng = np.random.default_rng(seed)
        if design == "latent":
            X, y = latent_factor_design(seed, n=24, copies=2)
        else:
            X = rng.standard_normal((40, 5 if design != "empty" else 0))
            y = (X[:, 1] if design == "signal" else 0.0) + 0.05 * rng.standard_normal(40)
        if alpha is None:  # the alpha that cluster_features would select for this design
            alpha = RIDGE_ALPHA_GRID[int(np.argmax(ridge_loocv_r2(X, y, RIDGE_ALPHA_GRID)))]
        got = ridge_permutation_importance(X, y, alpha=alpha, repeats=repeats, seed=seed)
        want = ridge_permutation_importance_stacked(X, y, alpha=alpha, repeats=repeats,
                                                    seed=seed)
        # the base fit is the 2-d LOOCV, bit for bit
        assert (got.ridge_alpha, got.loocv_r2) == (want.ridge_alpha, want.loocv_r2)
        assert list(got.importances) == list(want.importances)
        for name, (mean, std) in got.importances.items():
            assert mean == pytest.approx(want.importances[name][0], rel=1e-12, abs=1e-15)
            assert std == pytest.approx(want.importances[name][1], rel=1e-12, abs=1e-15)

    def test_survey_sized_design_memory(self):
        # the stack of 600 permuted 600 x 6 designs alone would be 17 MB
        rng = np.random.default_rng(21)
        X = rng.standard_normal((600, 6))
        y = X @ rng.standard_normal(6) + rng.standard_normal(600)
        tracemalloc.start()
        try:
            ridge_permutation_importance(X, y, alpha=1.0, repeats=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6
