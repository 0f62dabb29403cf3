"""Brute-force oracles, independent of the package code paths they check."""

import numpy as np


def enumerate_detection_pmf(n_bins: int, n_t: int, FP: float, FN: float) -> np.ndarray:
    """P(n_m | n_t) for all n_m by enumerating all 2^B per-bin outcomes.

    The first n_t bins host a true TLS (detected with prob 1-FN), the rest
    are empty (fire with prob FP).  By exchangeability the bin assignment
    does not matter.
    """
    B = int(n_bins)
    outcomes = np.arange(2 ** B, dtype=np.uint64)
    bits = ((outcomes[:, None] >> np.arange(B, dtype=np.uint64)) & 1).astype(bool)
    tls_bits = bits[:, :n_t]
    empty_bits = bits[:, n_t:]
    k_true = tls_bits.sum(axis=1)
    k_false = empty_bits.sum(axis=1)
    prob = ((1.0 - FN) ** k_true * FN ** (n_t - k_true)
            * FP ** k_false * (1.0 - FP) ** ((B - n_t) - k_false))
    n_m = k_true + k_false
    return np.bincount(n_m, weights=prob, minlength=B + 1)


def mc_peak_rates(fp: float, fn: float, n_samples: int, seed: int = 0):
    """Monte-Carlo estimate of the five-point peak-shape error rates.

    FP: draw five i.i.d. residuals, count windows forming a strict
    symmetric peak whose center exceeds the threshold (threshold set so a
    single residual exceeds it with probability fp).
    FN: probability that five i.i.d. residuals all stay below a threshold
    that each one clears with probability 1 - fn... i.e. all five below
    happens with probability fn^5; simulated directly.

    Returns (FP_hat, FP_se, FN_hat, FN_se).
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n_samples, 5))
    center = u[:, 2]
    peak_shape = ((center > u[:, 1]) & (u[:, 1] > u[:, 0])
                  & (center > u[:, 3]) & (u[:, 3] > u[:, 4]))
    fp_hit = peak_shape & (center > 1.0 - fp)
    FP_hat = fp_hit.mean()
    FP_se = fp_hit.std(ddof=1) / np.sqrt(n_samples)

    v = rng.uniform(size=(n_samples, 5))
    fn_hit = np.all(v < fn, axis=1)
    FN_hat = fn_hit.mean()
    FN_se = max(fn_hit.std(ddof=1) / np.sqrt(n_samples), 1.0 / n_samples)
    return FP_hat, FP_se, FN_hat, FN_se


def forward_detections(n_t: int, n_bins: int, FP: float, FN: float,
                       rng: np.random.Generator) -> int:
    """One draw of the detector given n_t true TLS in B bins."""
    detected = rng.binomial(n_t, 1.0 - FN)
    spurious = rng.binomial(n_bins - n_t, FP)
    return int(min(detected + spurious, n_bins))


def exact_threshold(params, noise_sigma: float, ensemble_size: int, seed: int = 0,
                    n_points: int = 201, temperature: float = 0.010):
    """build_threshold by one warm-started nonlinear refit per ensemble member.

    The noise ensemble, then the critical-TLS ensemble, each member drawing
    n_points real then n_points imaginary normals from the threshold stream.
    Returns (noise metrics, TLS metrics, DetectorCalibration).
    """
    from scipy.special import ndtr

    from jjtls.detector import (CAL_SPAN, DetectorCalibration, _finite_members,
                                _gaussian_intersection, critical_tls)
    from jjtls.fitting import fit_hanger
    from jjtls.physics import RNG_THRESHOLD, Trace, hanger_s21, tls_s21

    kappa = params.kappa
    grid = np.linspace(params.f_r - CAL_SPAN / 2 * kappa,
                       params.f_r + CAL_SPAN / 2 * kappa, n_points)
    tls = critical_tls(params, temperature=temperature)
    rng = np.random.default_rng([seed, RNG_THRESHOLD])

    def ensemble_metrics(model):
        out = np.empty(ensemble_size)
        for k in range(ensemble_size):
            noisy = model + noise_sigma * (rng.standard_normal(grid.size)
                                           + 1j * rng.standard_normal(grid.size))
            out[k] = fit_hanger(Trace(freqs=grid, s21=noisy), init=params).residual_metric
        return _finite_members(out)

    m_noise = ensemble_metrics(hanger_s21(params, grid))
    m_tls = ensemble_metrics(tls_s21(params, tls, grid))
    mu1, s1 = float(np.mean(m_noise)), float(np.std(m_noise))
    mu2, s2 = float(np.mean(m_tls)), float(np.std(m_tls))
    threshold = _gaussian_intersection(mu1, s1, mu2, s2)
    fp = float(1.0 - ndtr((threshold - mu1) / s1)) if s1 > 0 else 0.0
    fn = float(ndtr((threshold - mu2) / s2)) if s2 > 0 else 0.0
    return m_noise, m_tls, DetectorCalibration(
        threshold=threshold, fp=fp, fn=fn, noise_sigma=noise_sigma,
        gauss_noise=(mu1, s1), gauss_tls=(mu2, s2))


def fit_hanger_trf(trace, init=None, *, max_nfev: int = 200):
    """``fitting.fit_hanger`` as bounded trust-region-reflective least squares
    alone, kept line for line from before the fit moved to MINPACK's
    Levenberg-Marquardt.

    Without an explicit initial guess, seeds come from the background
    filter (amplitude and phase slopes from the background region, f_r and
    Q_l from the resonance width).  Non-convergence is reported through the
    ``converged`` flag; only a background seeding that finds no resonance
    raises (NoResonanceError).  The residual metric is taken from the final
    least-squares residual.
    """
    import math

    from scipy.optimize import least_squares

    from jjtls.errors import DegenerateDataError, InvalidParameterError
    from jjtls.fitting import (FitResult, _jacobian, _metric, _residuals,
                               _seed_from_background, background_split)
    from jjtls.physics import ResonatorParams

    f = trace.freqs
    data = trace.s21
    if init is not None:
        p0 = init.as_array()
    else:
        split = background_split(trace)  # NoResonanceError propagates
        p0 = _seed_from_background(trace, split)

    span = float(f[-1] - f[0])
    lower = np.array([f[0] - span, 1.0, 1.0, -math.pi, 1e-12, -np.inf, -np.inf, -np.inf])
    upper = np.array([f[-1] + span, 1e12, 1e12, math.pi, np.inf, np.inf, np.inf, np.inf])
    p0 = np.clip(p0, lower + 1e-15, upper - 1e-15)

    try:
        res = least_squares(_residuals, p0, jac=_jacobian, args=(f, data),
                            method="trf", bounds=(lower, upper), x_scale="jac",
                            ftol=1e-10, xtol=1e-12, gtol=1e-12, max_nfev=max_nfev)
        popt, fun, nfev, success = res.x, res.fun, int(res.nfev), bool(res.success)
    except (ValueError, np.linalg.LinAlgError):
        popt, nfev, success = p0, 0, False
        fun = _residuals(p0, f, data)

    params = ResonatorParams.from_array(popt)
    try:
        params.validate()
        metric = _metric(fun, data)
    except (InvalidParameterError, DegenerateDataError):
        metric = float("inf")

    return FitResult(params=params, residual_metric=metric,
                     converged=success and math.isfinite(metric), n_evals=nfev)


def ridge_loocv_predictions_loop(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
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


def ridge_loocv_r2_loop(X: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """LOOCV R^2 from the one-fold-at-a-time predictions."""
    preds = ridge_loocv_predictions_loop(X, y, alpha)
    return 1.0 - float(np.sum((y - preds) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def ridge_loocv_predictions_dropping_flat(X: np.ndarray, y: np.ndarray,
                                          alpha: float) -> np.ndarray:
    """LOOCV that refits each fold without the columns constant over its
    training rows, whatever the held-out row holds."""
    preds = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        varying = np.ptp(np.delete(X, i, axis=0), axis=0) > 0
        preds[i] = ridge_loocv_predictions_loop(X[:, varying], y, alpha)[i]
    return preds


def permutation_importance_loop(X: np.ndarray, y: np.ndarray, alpha: float,
                                repeats: int, seed: int) -> list:
    """(mean, std) R^2 drop per column, one shuffled design scored at a time."""
    base = ridge_loocv_r2_loop(X, y, alpha)
    rng = np.random.default_rng(seed)
    out = []
    for j in range(X.shape[1]):
        drops = np.empty(repeats)
        for rep in range(repeats):
            Xp = X.copy()
            Xp[:, j] = rng.permutation(Xp[:, j])
            drops[rep] = base - ridge_loocv_r2_loop(Xp, y, alpha)
        out.append((float(drops.mean()), float(drops.std(ddof=1))))
    return out
