"""Treatment-comparison statistics and microstructure correlation analytics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform
from scipy.special import digamma, gammaincc, ndtr, ndtri, polygamma, stdtr
from scipy.stats import rankdata

from .errors import ConvergenceError, DegenerateDataError, ValidationError

ALPHA_DEFAULT = 0.05
RIDGE_ALPHA_GRID = tuple(10.0 ** k for k in range(-3, 4))


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston's AS R94 polynomial approximation, 3 <= n <= 5000)

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


def shapiro_wilk(samples) -> tuple[float, float]:
    """Shapiro-Wilk normality test, (W, p).

    Royston's polynomial approximation to the weights and the normalizing
    transformations of W, valid for 3 <= n <= 5000.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 3 or n > 5000:
        raise ValidationError(f"Shapiro-Wilk needs 3 <= n <= 5000, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite")
    if x[-1] == x[0]:
        raise DegenerateDataError("constant sample; W undefined")

    a = _sw_weights(n)
    xc = x - x.mean()
    W = float(np.dot(a, x) ** 2 / np.dot(xc, xc))
    W = min(W, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(W)) - math.asin(math.sqrt(0.75)))
        return W, float(min(max(p, 0.0), 1.0))
    if n <= 11:
        g = -2.273 + 0.459 * n
        mu = 0.5440 + n * (-0.39978 + n * (0.025054 + n * -6.714e-4))
        sigma = math.exp(1.3822 + n * (-0.77857 + n * (0.062767 + n * -0.0020322)))
        arg = g - math.log1p(-W)
        if arg <= 0:
            return W, 0.0
        z = (-math.log(arg) - mu) / sigma
    else:
        ln = math.log(n)
        mu = -1.5861 + ln * (-0.31082 + ln * (-0.083751 + ln * 0.0038915))
        sigma = math.exp(-0.4803 + ln * (-0.082676 + ln * 0.0030302))
        if W >= 1.0:
            return 1.0, 1.0
        z = (math.log1p(-W) - mu) / sigma
    return W, float(1.0 - ndtr(z))


# ---------------------------------------------------------------------------
# Kruskal-Wallis rank test

def kruskal_wallis(groups) -> tuple[float, float]:
    """Kruskal-Wallis H with tie correction; p from chi-square (k-1 df)."""
    gs = [np.asarray(g, dtype=float) for g in groups]
    if len(gs) < 2:
        raise ValidationError("need at least 2 groups")
    if any(g.size < 2 for g in gs):
        raise ValidationError("every group needs at least 2 samples")
    pooled = np.concatenate(gs)
    N = pooled.size
    ranks = rankdata(pooled)
    idx = 0
    S = 0.0
    for g in gs:
        r = ranks[idx:idx + g.size]
        idx += g.size
        S += r.sum() ** 2 / g.size
    H = 12.0 / (N * (N + 1)) * S - 3.0 * (N + 1)
    _, counts = np.unique(pooled, return_counts=True)
    tie = 1.0 - float(np.sum(counts ** 3 - counts)) / (N ** 3 - N)
    if tie <= 0:
        return 0.0, 1.0  # all values identical
    H /= tie
    H = max(H, 0.0)
    df = len(gs) - 1
    return float(H), float(gammaincc(df / 2.0, H / 2.0))


# ---------------------------------------------------------------------------
# Gamma distribution maximum likelihood

@dataclass(frozen=True)
class GammaFit:
    shape: float
    scale: float
    mean: float
    mean_stderr: float


def gamma_fit(samples, *, max_iter: int = 200, tol: float = 1e-12) -> GammaFit:
    """Gamma MLE via digamma Newton iterations with moment initialization.

    Solves log(k) - psi(k) = log(mean) - mean(log x); the fitted mean is
    k * theta = sample mean with standard error theta * sqrt(k / n) from
    the observed information (delta method).
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 4:
        raise ValidationError(f"need n >= 4 samples, got {x.size}")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite and non-negative")
    eps = np.finfo(float).eps
    x = np.maximum(x, eps)  # zeros shifted by machine epsilon

    mean = float(x.mean())
    var = float(x.var(ddof=1))
    if var <= (eps * mean) ** 2 * 10 or mean <= 0:
        raise DegenerateDataError("samples (nearly) constant; shape diverges")
    s = math.log(mean) - float(np.mean(np.log(x)))
    if s <= 0:
        raise DegenerateDataError("log-moment statistic non-positive")

    k = mean ** 2 / var  # moment estimate
    for _ in range(max_iter):
        f = math.log(k) - digamma(k) - s
        fprime = 1.0 / k - polygamma(1, k)
        step = f / fprime
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) <= tol * k:
            k = k_new
            break
        k = k_new
    else:
        raise ConvergenceError(f"gamma MLE did not converge in {max_iter} iterations")
    theta = mean / k
    stderr = theta * math.sqrt(k / x.size)
    return GammaFit(shape=float(k), scale=float(theta), mean=float(k * theta),
                    mean_stderr=float(stderr))


# ---------------------------------------------------------------------------
# Correlation coefficients

def _t_sf_two_sided(t: float, df: int) -> float:
    if not math.isfinite(t):
        return 0.0
    return float(2.0 * stdtr(df, -abs(t)))


def pearson(x, y) -> tuple[float, float]:
    """Pearson r with two-sided p from the t transform (n-2 df)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise ValidationError("x and y must have equal length")
    n = xa.size
    if n < 3:
        raise ValidationError(f"need n >= 3, got {n}")
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    sx = float(np.dot(xd, xd))
    sy = float(np.dot(yd, yd))
    if sx <= 0 or sy <= 0:
        raise DegenerateDataError("zero variance in x or y")
    r = float(np.dot(xd, yd) / math.sqrt(sx * sy))
    r = min(1.0, max(-1.0, r))
    if abs(r) >= 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, _t_sf_two_sided(t, n - 2)


def spearman(x, y, *, method: str = "t", n_resamples: int = 10000,
             seed: int = 0) -> tuple[float, float]:
    """Spearman rank correlation.

    p-value from the t transform by default; method="permutation" gives an
    exact-style resampled p for tiny samples where the t approximation has
    little power.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    rx = rankdata(xa)
    ry = rankdata(ya)
    rho, p_t = pearson(rx, ry)
    if method == "t":
        return rho, p_t
    if method != "permutation":
        raise ValidationError(f"unknown p-value method {method!r}")
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_resamples):
        perm = rng.permutation(ry)
        r_p, _ = pearson(rx, perm)
        if abs(r_p) >= abs(rho) - 1e-15:
            count += 1
    return rho, (count + 1) / (n_resamples + 1)


# ---------------------------------------------------------------------------
# Ridge regression with leave-one-out cross-validation

def _ridge_loocv_predictions(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Honest LOOCV: standardization and fit are redone per fold."""
    n, k = X.shape
    preds = np.empty(n)
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        Xt, yt = X[mask], y[mask]
        mu = Xt.mean(axis=0)
        sd = Xt.std(axis=0)
        sd[sd == 0] = 1.0
        Z = (Xt - mu) / sd
        ym = yt.mean()
        w = np.linalg.solve(Z.T @ Z + alpha * np.eye(k), Z.T @ (yt - ym))
        preds[i] = ym + float(((X[i] - mu) / sd) @ w)
    return preds


def ridge_loocv_r2(X: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """LOOCV R^2 = 1 - SS_resid(held out) / SS_total."""
    if alpha <= 0:
        raise ValidationError("ridge alpha must be > 0")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < 4:
        raise ValidationError(f"need >= 4 observations, got {n}")
    preds = _ridge_loocv_predictions(X, y, alpha)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        raise DegenerateDataError("target has zero variance")
    return 1.0 - float(np.sum((y - preds) ** 2)) / ss_tot


def _select_alpha(X: np.ndarray, y: np.ndarray, grid=RIDGE_ALPHA_GRID) -> float:
    best_alpha, best_r2 = None, -np.inf
    for alpha in grid:
        r2 = ridge_loocv_r2(X, y, alpha)
        if r2 > best_r2:
            best_alpha, best_r2 = alpha, r2
    return float(best_alpha)


# ---------------------------------------------------------------------------
# Feature clustering and representatives

@dataclass(frozen=True)
class ClusterSelection:
    """Ward clustering cut at the LOOCV-optimal correlation-distance threshold."""

    threshold: float
    clusters: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    loocv_r2: float
    ridge_alpha: float


def _spearman_matrix(X: np.ndarray) -> np.ndarray:
    return np.corrcoef(rankdata(X, axis=0), rowvar=False)


def cluster_features(features, target, *, alpha: float | None = None,
                     tie_tol: float = 0.01) -> ClusterSelection:
    """Group collinear features and pick one representative per group.

    Pairwise Spearman correlations become the distance 1 - |rho|; Ward
    linkage builds the dendrogram; every merge height is tried as a cut,
    the per-cluster representative is the feature most correlated with the
    target (|Spearman|), and the cut maximizing the ridge LOOCV R^2 over
    the representatives wins.  Cuts scoring within ``tie_tol`` (one R^2
    point by default) of the best count as ties and the coarsest of them
    is kept: near-duplicate features produce score jitter of this size
    through ill-conditioned folds, and parsimony should win those ties.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValidationError("need a 2-d feature matrix with >= 2 columns")
    if X.shape[0] < 4:
        raise ValidationError(f"need >= 4 observations, got {X.shape[0]}")
    if X.shape[0] != y.size:
        raise ValidationError("feature rows and target length differ")
    constant = np.flatnonzero(np.ptp(X, axis=0) == 0)
    if constant.size:
        raise DegenerateDataError(
            f"feature column {int(constant[0])} is constant; its rank "
            "correlations are undefined")

    corr = _spearman_matrix(X)
    dist = 1.0 - np.abs(corr)
    np.fill_diagonal(dist, 0.0)
    dist = 0.5 * (dist + dist.T)  # symmetrize rounding
    Z = linkage(squareform(dist, checks=False), method="ward")

    target_corr = np.array([abs(spearman(X[:, j], y)[0]) for j in range(X.shape[1])])

    def cut(threshold: float):
        labels = fcluster(Z, t=threshold, criterion="distance")
        clusters = []
        reps = []
        for lab in np.unique(labels):
            members = tuple(int(j) for j in np.flatnonzero(labels == lab))
            rep = members[int(np.argmax(target_corr[list(members)]))]
            clusters.append(members)
            reps.append(rep)
        return tuple(clusters), tuple(reps)

    thresholds = [0.0] + [float(h) for h in Z[:, 2]]
    scored = []
    for t in sorted(set(thresholds)):
        clusters, reps = cut(t)
        Xr = X[:, list(reps)]
        a = alpha if alpha is not None else _select_alpha(Xr, y)
        scored.append(ClusterSelection(threshold=t, clusters=clusters,
                                       representatives=reps,
                                       loocv_r2=ridge_loocv_r2(Xr, y, a),
                                       ridge_alpha=a))
    best_r2 = max(s.loocv_r2 for s in scored)
    # coarsest cut within the tie band
    return max((s for s in scored if s.loocv_r2 >= best_r2 - tie_tol),
               key=lambda s: s.threshold)


# ---------------------------------------------------------------------------
# Permutation importance

@dataclass(frozen=True)
class RegressionReport:
    """Ridge model quality and permutation importances of its features."""

    feature_names: tuple[str, ...]
    ridge_alpha: float
    loocv_r2: float
    importances: dict[str, tuple[float, float]]  # name -> (mean drop, std)

    def ranking(self) -> list[str]:
        return sorted(self.importances, key=lambda k: -self.importances[k][0])


def ridge_permutation_importance(features, target, *, alpha: float | None = None,
                                 repeats: int = 100, seed: int = 0,
                                 feature_names=None) -> RegressionReport:
    """Mean LOOCV-R^2 drop when one feature column is shuffled.

    Columns are shuffled ``repeats`` times each with a seeded generator;
    importances are (mean drop, std of drops).
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if X.ndim != 2:
        raise ValidationError("need a 2-d feature matrix")
    n, k = X.shape
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(k))
    feature_names = tuple(feature_names)
    if len(feature_names) != k:
        raise ValidationError("feature_names length mismatch")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")

    a = alpha if alpha is not None else _select_alpha(X, y)
    base = ridge_loocv_r2(X, y, a)
    rng = np.random.default_rng(seed)
    importances = {}
    for j in range(k):
        drops = np.empty(repeats)
        for rep in range(repeats):
            Xp = X.copy()
            Xp[:, j] = rng.permutation(Xp[:, j])
            drops[rep] = base - ridge_loocv_r2(Xp, y, a)
        importances[feature_names[j]] = (float(drops.mean()), float(drops.std(ddof=1)))
    return RegressionReport(feature_names=feature_names, ridge_alpha=a,
                            loocv_r2=base, importances=importances)
