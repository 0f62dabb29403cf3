"""Treatment-comparison statistics and microstructure correlation analytics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform
from scipy.special import digamma, polygamma, stdtr
from scipy.stats import kruskal, rankdata, shapiro

from .errors import ConvergenceError, DegenerateDataError, ValidationError

RIDGE_ALPHA_GRID = tuple(10.0 ** k for k in range(-3, 4))
CLUSTER_TIE_TOL = 0.01    # LOOCV R^2 band within which cuts count as ties
GAMMA_MAX_ITER = 200      # gamma MLE Newton steps
GAMMA_TOL = 1e-12         # gamma MLE relative step tolerance


# ---------------------------------------------------------------------------
# Treatment tests from scipy.stats, with typed errors on degenerate input

def _require_finite(*samples) -> None:
    if not all(np.all(np.isfinite(s)) for s in samples):
        raise ValidationError("samples must be finite")


def shapiro_wilk(samples) -> tuple[float, float]:
    """Shapiro-Wilk normality test (W, p) from ``scipy.stats.shapiro``, 3 <= n <= 5000."""
    x = np.asarray(samples, dtype=float)
    if not 3 <= x.size <= 5000:
        raise ValidationError(f"Shapiro-Wilk needs 3 <= n <= 5000, got {x.size}")
    _require_finite(x)
    if np.ptp(x) == 0:
        raise DegenerateDataError("constant sample; W undefined")
    W, p = shapiro(x)
    if W >= 1.0:
        # the sample lies exactly on its normal scores; W may round above 1
        return 1.0, 1.0
    return float(W), float(p)


def kruskal_wallis(groups) -> tuple[float, float]:
    """Kruskal-Wallis H with tie correction; p from chi-square (k-1 df)."""
    gs = [np.asarray(g, dtype=float) for g in groups]
    if len(gs) < 2:
        raise ValidationError("need at least 2 groups")
    if any(g.size < 2 for g in gs):
        raise ValidationError("every group needs at least 2 samples")
    pooled = np.concatenate(gs)
    _require_finite(pooled)
    if np.ptp(pooled) == 0:
        return 0.0, 1.0  # all values identical; the tie correction is 0/0
    H, p = kruskal(*gs)
    return float(H), float(p)


# ---------------------------------------------------------------------------
# Gamma distribution maximum likelihood

@dataclass(frozen=True)
class GammaFit:
    shape: float
    scale: float
    mean: float
    mean_stderr: float


def gamma_fit(samples) -> GammaFit:
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
    for _ in range(GAMMA_MAX_ITER):
        f = math.log(k) - digamma(k) - s
        fprime = 1.0 / k - polygamma(1, k)
        step = f / fprime
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) <= GAMMA_TOL * k:
            k = k_new
            break
        k = k_new
    else:
        raise ConvergenceError(f"gamma MLE did not converge in {GAMMA_MAX_ITER} iterations")
    theta = mean / k
    stderr = theta * math.sqrt(k / x.size)
    return GammaFit(shape=float(k), scale=float(theta), mean=float(k * theta),
                    mean_stderr=float(stderr))


# ---------------------------------------------------------------------------
# Correlation coefficients

def pearson(x, y) -> tuple[float, float]:
    """Pearson r, two-sided p from the t transform (n-2 df), in closed form:
    an exact line gives r = 1 and p = 0, where pearsonr rounds r below 1."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise ValidationError("x and y must have equal length")
    n = xa.size
    if n < 3:
        raise ValidationError(f"need n >= 3, got {n}")
    _require_finite(xa, ya)
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
    return r, float(2.0 * stdtr(n - 2, -abs(t)))


def spearman(x, y) -> tuple[float, float]:
    """Spearman rank correlation: :func:`pearson` on the ranks."""
    _require_finite(x, y)
    return pearson(rankdata(x), rankdata(y))


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


def cluster_features(features, target, *,
                     alpha: float | None = None) -> ClusterSelection:
    """Group collinear features and pick one representative per group.

    Pairwise Spearman correlations become the distance 1 - |rho|; Ward
    linkage builds the dendrogram; every merge height is tried as a cut,
    the per-cluster representative is the feature most correlated with the
    target (|Spearman|), and the cut maximizing the ridge LOOCV R^2 over
    the representatives wins.  Cuts scoring within ``CLUSTER_TIE_TOL`` (one R^2
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
    return max((s for s in scored if s.loocv_r2 >= best_r2 - CLUSTER_TIE_TOL),
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
