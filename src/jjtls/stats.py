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
LOO_BLOCK = 2 ** 16       # training-row floats per block of LOOCV folds (bounds peak memory)


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

def _ridge_loocv_predictions(X: np.ndarray, y: np.ndarray, alphas,
                             swaps: np.ndarray | None = None, subsets=None) -> np.ndarray:
    """Honest LOOCV: standardization and fit are redone per fold, with one solve
    per fold for every alpha; a column constant over a fold's training rows
    scores z = 0 in that fold.  Folds run in blocks of at most LOO_BLOCK
    training-row floats; each fold keeps the arithmetic, and the sum order, of
    a fold run on its own.  Returns the held-out predictions of the design X
    (n, k), shape (len(alphas), n), or with ``subsets`` (column-index lists) of
    each design X[:, s], shape (len(subsets), len(alphas), n): a fold
    standardises X once, and gathers each subset's system from X's.

    With ``swaps`` (k, r, n) the designs are instead X with column j replaced by
    swaps[j, rep], predictions (k, r, len(alphas), n): a fold standardises X and
    the swapped columns side by side, and each design's system is X's with the
    products of its swapped column put in."""
    n, k = X.shape
    cols = X if swaps is None else np.hstack([X, swaps.reshape(-1, n).T])  # (n, k + k*r)
    r, i = 0 if swaps is None else swaps.shape[1], np.arange(k)
    designs = [i] if subsets is None else subsets
    preds = np.empty((swaps.shape[:-1] if swaps is not None else (len(designs),))
                     + (len(alphas), n))

    def swapped(a):  # the swapped columns' entries of a (f, k + k*r, ...) as (k, r, f, ...)
        return np.moveaxis(a[:, k:].reshape((a.shape[0], k, r) + a.shape[2:]), 0, 2)

    j = np.arange(n - 1)
    train = j + (j >= np.arange(n)[:, None])  # (n, n-1): the rows each fold trains on
    step = max(1, LOO_BLOCK // max(1, cols.shape[1] * (n - 1)))  # folds per block
    for start in range(0, n, step):
        held = slice(start, start + step)
        Z, yt = cols[train[held]], y[train[held]]  # (f, n-1, c), (f, n-1)
        mu = Z.mean(axis=-2, keepdims=True)
        varying = np.ptp(Z, axis=-2, keepdims=True) > 0
        Z -= mu  # the training rows are a fresh copy: centred and scaled in place
        sd = np.sqrt(np.add.reduce(Z * Z, axis=-2, keepdims=True) / (n - 1))  # np.std's steps
        np.copyto(np.divide(Z, sd, out=Z, where=varying), 0.0, where=~varying)
        zi = np.divide(cols[held, None, :] - mu, sd, out=np.zeros_like(mu), where=varying)
        ym = yt.mean(axis=-1, keepdims=True)
        Zt = np.swapaxes(Z, -1, -2)
        G, b = Zt @ Z[..., :k], Zt @ (yt - ym)[..., None]  # (f, c, k), (f, c, 1)
        if swaps is None:  # design d: X's system on the columns s, gathered C-contiguous
            systems = [(preds[d], G.take(s, 1).take(s, 2), b.take(s, 1), zi.take(s, 2))
                       for d, s in enumerate(designs)]
        else:  # design (j, rep): X's system, swapped column (j, rep) as j
            Gs, bs, zs = (np.broadcast_to(a, (k, r) + a.shape).copy()
                          for a in (G[:, :k], b[:, :k], zi[..., :k]))
            Gs[i, :, :, i] = Gs[i, ..., i] = swapped(G)
            Gs[i, :, :, i, i] = swapped(np.einsum("ftc,ftc->fc", Z, Z))
            bs[i, :, :, i] = swapped(b)
            zs[i, :, :, 0, i] = swapped(zi[:, 0])
            systems = [(preds, Gs, bs, zs)]
        for out, Gd, bd, zd in systems:
            ridge = alphas[:, None, None] * np.eye(Gd.shape[-1])
            w = np.linalg.solve(Gd[..., None, :, :] + ridge, bd[..., None, :, :])
            out[..., held] = np.swapaxes(ym + (zd[..., None, :, :] @ w)[..., 0, 0], -1, -2)
        del Z, Zt  # before the next block's gather
    return preds if swaps is not None or subsets is not None else preds[0]


def ridge_loocv_r2(X: np.ndarray, y: np.ndarray, alpha, subsets=None):
    """LOOCV R^2 = 1 - SS_resid(held out) / SS_total of the design X (n, k) at
    each alpha, shape np.shape(alpha); with ``subsets``, of each column subset
    X[:, s], shape (len(subsets),) + np.shape(alpha)."""
    alphas = np.ravel(np.asarray(alpha, dtype=float))
    if np.any(alphas <= 0):
        raise ValidationError("ridge alpha must be > 0")
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.shape[0] < 4:
        raise ValidationError(f"need >= 4 observations, got {X.shape[0]}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        raise DegenerateDataError("target has zero variance")
    preds = _ridge_loocv_predictions(X, y, alphas, subsets=subsets)
    r2 = 1.0 - np.sum((y - preds) ** 2, axis=-1) / ss_tot
    return r2.reshape(r2.shape[:-1] + np.shape(alpha))[()]


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


def cluster_features(features, target) -> ClusterSelection:
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

    rx, ry = rankdata(X, axis=0), rankdata(y)  # every Spearman r below is Pearson on these
    dist = 1.0 - np.abs(np.corrcoef(rx, rowvar=False))
    np.fill_diagonal(dist, 0.0)
    dist = 0.5 * (dist + dist.T)  # symmetrize rounding
    Z = linkage(squareform(dist, checks=False), method="ward")

    target_corr = np.array([abs(pearson(rx[:, j], ry)[0]) for j in range(X.shape[1])])

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

    thresholds = sorted({0.0, *(float(h) for h in Z[:, 2])})
    cuts = [cut(t) for t in thresholds]
    r2 = ridge_loocv_r2(X, y, RIDGE_ALPHA_GRID, subsets=[reps for _, reps in cuts])
    best = np.argmax(r2, axis=1)  # the first alpha of the grid with the highest R^2
    scored = [ClusterSelection(threshold=t, clusters=clusters, representatives=reps,
                               loocv_r2=float(r2[c, best[c]]),
                               ridge_alpha=RIDGE_ALPHA_GRID[best[c]])
              for c, (t, (clusters, reps)) in enumerate(zip(thresholds, cuts))]
    best_r2 = max(s.loocv_r2 for s in scored)
    # coarsest cut within the tie band
    return max((s for s in scored if s.loocv_r2 >= best_r2 - CLUSTER_TIE_TOL),
               key=lambda s: s.threshold)


# ---------------------------------------------------------------------------
# Permutation importance

@dataclass(frozen=True)
class RegressionReport:
    """Ridge model quality and permutation importances of its features."""

    ridge_alpha: float
    loocv_r2: float
    importances: dict[str, tuple[float, float]]  # name -> (mean drop, std)

    def ranking(self) -> list[str]:
        return sorted(self.importances, key=lambda k: -self.importances[k][0])


def ridge_permutation_importance(features, target, *, alpha: float,
                                 repeats: int = 100, seed: int = 0,
                                 feature_names=None) -> RegressionReport:
    """Mean LOOCV-R^2 drop at ridge ``alpha`` when one feature column is shuffled.

    Columns are shuffled ``repeats`` times each with a seeded generator;
    importances are (mean drop, sample std of drops), so ``repeats`` >= 2.
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
    if repeats < 2:
        raise ValidationError(f"repeats must be >= 2 for a std of the drops, got {repeats}")

    base = float(ridge_loocv_r2(X, y, alpha))
    rng = np.random.default_rng(seed)
    swaps = np.empty((k, repeats, n))
    for j in range(k):
        for rep in range(repeats):
            swaps[j, rep] = rng.permutation(X[:, j])
    preds = _ridge_loocv_predictions(X, y, np.array([alpha], dtype=float), swaps)[..., 0, :]
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    drops = base - (1.0 - np.sum((y - preds) ** 2, axis=-1) / ss_tot)
    importances = {name: (float(d.mean()), float(d.std(ddof=1)))
                   for name, d in zip(feature_names, drops)}
    return RegressionReport(ridge_alpha=alpha, loocv_r2=base, importances=importances)
