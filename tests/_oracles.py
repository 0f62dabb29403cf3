"""Brute-force oracles, independent of the package code paths they check."""

import hashlib
from pathlib import Path

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


def marginal_likelihood(n_m: int, n_bins: int, rates, lam):
    """P(n_m | lambda) under the truncated Poisson prior on n_t, as the package
    computed it before ``PosteriorDensity.marginal_likelihood`` took its place.

    ``lam`` is one rate (returns a float) or a 1-d array of rates (returns
    an array); the count likelihood is built once, and every rate's prior
    is one row of a single (rates, B + 1) block.
    """
    from jjtls.errors import ValidationError
    from jjtls.inference import _log_truncated_poisson, _poisson_terms, likelihood_vector

    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lams < 0):
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    lvec = likelihood_vector(n_m, n_bins, rates)
    out = np.exp(_log_truncated_poisson(lams[:, None], *_poisson_terms(n_bins))) @ lvec
    return float(out[0]) if np.ndim(lam) == 0 else out


def exact_threshold(params, noise_sigma: float, ensemble_size: int, seed: int = 0,
                    n_points: int = 201):
    """build_threshold by one warm-started nonlinear refit per ensemble member.

    The noise ensemble, then the critical-TLS ensemble, each member drawing
    n_points real then n_points imaginary normals from the threshold stream
    and refitted from the fit of its ensemble's noiseless trace.
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
    tls = critical_tls(params)
    rng = np.random.default_rng([seed, RNG_THRESHOLD])

    def ensemble_metrics(model):
        out = np.empty(ensemble_size)
        start = fit_hanger(Trace(freqs=grid, s21=model), init=params).params
        for k in range(ensemble_size):
            noisy = model + noise_sigma * (rng.standard_normal(grid.size)
                                           + 1j * rng.standard_normal(grid.size))
            out[k] = fit_hanger(Trace(freqs=grid, s21=noisy), init=start).residual_metric
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


# The separate hanger functions that ``physics.Hanger`` replaced, as they were;
# the evaluator and the fit must equal them bit for bit.

def _background(p: np.ndarray, f: np.ndarray):
    """x = (f - f_r) / f_r, background A (1 + alpha x), phase exp(i (phi_v f + phi_0))."""
    f_r, A, alpha, phi_v, phi_0 = p[0], p[4], p[5], p[6], p[7]
    x = (f - f_r) / f_r
    return x, A * (1.0 + alpha * x), np.exp(1j * (phi_v * f + phi_0))


def hanger_model(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Hanger S21 for the 8-vector p in PARAM_NAMES order, unvalidated.

    S21 = A (1 + alpha x) (1 - (Q_l/|Q_e|) e^{i theta} / (1 + 2 i Q_l x))
          * exp(i (phi_v f + phi_0)),   x = (f - f_r) / f_r
    """
    x, bg, E = _background(p, f)
    Q_l, Q_e, theta = p[1], p[2], p[3]
    dip = 1.0 - (Q_l / Q_e) * np.exp(1j * theta) / (1.0 + 2j * Q_l * x)
    return bg * dip * E


def hanger_jacobian(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Analytic dS21/dp of :func:`hanger_model`: shape (8, f.size), PARAM_NAMES rows."""
    f_r, Q_l, Q_e, th, A, al = p[0], p[1], p[2], p[3], p[4], p[5]
    x, bg, E = _background(p, f)
    D = 1.0 + 2j * Q_l * x
    lor = (Q_l / Q_e) * np.exp(1j * th) / D
    R = 1.0 - lor
    S = bg * R * E
    dxdfr = -f / f_r**2
    dRdx = lor * 2j * Q_l / D
    dS = np.empty((8, f.size), dtype=complex)
    dS[0] = E * (A * al * dxdfr * R + bg * dRdx * dxdfr)
    dS[1] = -bg * E * (np.exp(1j * th) / Q_e) / D**2
    dS[2] = bg * E * lor / Q_e
    dS[3] = -1j * bg * E * lor
    dS[4] = S / A
    dS[5] = A * x * R * E
    dS[6] = 1j * f * S
    dS[7] = 1j * S
    return dS


def tls_model(params, tls, farr: np.ndarray) -> np.ndarray:
    """The TLS-coupled hanger as ``physics`` evaluated it before the defect became
    a detuning shift inside ``Hanger``, as it was: in angular frequency,

        1 - (omega_r / Q_e) / 2 / (i (omega - omega_r) + omega_r / 2 Q_l
                                   + i g chi(omega))
        chi(omega) = g <sigma_z> / (omega_tls - omega + i <sigma_z> gamma / 2)

    with Q_e = |Q_e| exp(-i theta), times the hanger background; unvalidated.
    """
    import math

    from jjtls.physics import thermal_population

    w = 2.0 * math.pi * farr
    w_r = 2.0 * math.pi * params.f_r
    w_t = 2.0 * math.pi * tls.f_tls
    g_w = 2.0 * math.pi * tls.g
    gamma_w = 2.0 * math.pi * tls.gamma
    sz = thermal_population(tls.f_tls, tls.temperature)

    chi = g_w * sz / (w_t - w + 0.5j * sz * gamma_w)
    inv_qe = np.exp(1j * params.theta) / params.Q_e_mag   # 1 / Q_e
    dip = 1.0 - 0.5 * w_r * inv_qe / (1j * (w - w_r) + w_r / (2.0 * params.Q_l)
                                      + 1j * g_w * chi)

    _, bg, E = _background(params.as_array(), farr)
    return bg * dip * E


def _residuals(p: np.ndarray, f: np.ndarray, data: np.ndarray) -> np.ndarray:
    s = hanger_model(p, f) - data
    return np.concatenate([s.real, s.imag])


def _jacobian(p: np.ndarray, f: np.ndarray, data: np.ndarray) -> np.ndarray:
    dS = hanger_jacobian(p, f)
    return np.concatenate([dS.real, dS.imag], axis=1).T


def metric(res: np.ndarray, data: np.ndarray):
    """``fitting._metric`` on numpy's own variance and mean."""
    from jjtls.errors import DegenerateDataError

    m = data.shape[-1]
    var = np.var(res[..., :m], axis=-1) + np.var(res[..., m:], axis=-1)
    denom = np.mean(np.abs(data), axis=-1)
    if not np.all((denom > 0) & np.isfinite(denom)):
        raise DegenerateDataError("mean |S21| is zero; metric undefined")
    return var / denom if var.ndim else float(var / denom)


def _start(trace, init):
    """The clipped start and the box of the hanger fit."""
    import math

    from jjtls.fitting import _seed_from_background, background_split

    f = trace.freqs
    if init is not None:
        p0 = init.as_array()
    else:
        split = background_split(trace)  # NoResonanceError propagates
        p0 = _seed_from_background(trace, split)

    span = float(f[-1] - f[0])
    lower = np.array([f[0] - span, 1.0, 1.0, -math.pi, 1e-12, -np.inf, -np.inf, -np.inf])
    upper = np.array([f[-1] + span, 1e12, 1e12, math.pi, np.inf, np.inf, np.inf, np.inf])
    return np.clip(p0, lower + 1e-15, upper - 1e-15), lower, upper


def _result(popt, fun, nfev, success, data):
    import math

    from jjtls.errors import DegenerateDataError, InvalidParameterError
    from jjtls.fitting import FitResult
    from jjtls.physics import ResonatorParams

    params = ResonatorParams.from_array(popt)
    try:
        params.validate()
        value = metric(fun, data)
    except (InvalidParameterError, DegenerateDataError):
        value = float("inf")

    return FitResult(params=params, residual_metric=value,
                     converged=success and math.isfinite(value), n_evals=nfev)


def fit_hanger_trf(trace, init=None, *, max_nfev: int = 200):
    """``fitting.fit_hanger`` as bounded trust-region-reflective least squares
    alone, on the hanger functions above, as it stood before the fit moved
    to MINPACK's Levenberg-Marquardt.

    Without an explicit initial guess, seeds come from the background
    filter (amplitude and phase slopes from the background region, f_r and
    Q_l from the resonance width).  Non-convergence is reported through the
    ``converged`` flag; only a background seeding that finds no resonance
    raises (NoResonanceError).  The residual metric is taken from the final
    least-squares residual.
    """
    from scipy.optimize import least_squares

    f, data = trace.freqs, trace.s21
    p0, lower, upper = _start(trace, init)
    try:
        res = least_squares(_residuals, p0, jac=_jacobian, args=(f, data),
                            method="trf", bounds=(lower, upper), x_scale="jac",
                            ftol=1e-10, xtol=1e-12, gtol=1e-12, max_nfev=max_nfev)
        popt, fun, nfev, success = res.x, res.fun, int(res.nfev), bool(res.success)
    except (ValueError, np.linalg.LinAlgError):
        popt, nfev, success = p0, 0, False
        fun = _residuals(p0, f, data)
    return _result(popt, fun, nfev, success, data)


def fit_hanger_lm(trace, init=None, *, max_nfev: int = 200):
    """``fitting.fit_hanger`` as it stood before the shared hanger evaluator:
    MINPACK's Levenberg-Marquardt on the hanger functions above, and
    :func:`fit_hanger_trf` where LM fails or its optimum leaves the box.
    It checks neither for non-finite samples nor for a linewidth below the
    grid step.
    """
    from scipy.optimize import leastsq

    f, data = trace.freqs, trace.s21
    p0, lower, upper = _start(trace, init)
    try:
        popt, _, info, _, ier = leastsq(_residuals, p0, args=(f, data), Dfun=_jacobian,
                                        full_output=True, ftol=1e-10, xtol=1e-12,
                                        gtol=1e-12, maxfev=max_nfev)
    except (ValueError, np.linalg.LinAlgError):
        return _result(p0, _residuals(p0, f, data), 0, False, data)
    if ier in (1, 2, 3, 4) and np.all((lower <= popt) & (popt <= upper)):
        return _result(popt, info["fvec"], int(info["nfev"]), True, data)
    return fit_hanger_trf(trace, init, max_nfev=max_nfev)


def estimate_snr(trace) -> float:
    """Dip depth over background noise std, capped at 1e12.

    The noise level comes from second differences of |S21| over the
    background region (variance 6 sigma^2 for white noise), taken outside
    a guard band of one region width so the Lorentzian tails stay out of
    the figure.  When the fourth-difference estimate collapses relative to
    the second-difference one, the data are smoother than the estimator
    floor (noiseless for practical purposes) and the cap is returned.
    Raises NoResonanceError where the background split finds no resonance.
    """
    from jjtls.fitting import background_split

    cap = 1e12
    split = background_split(trace)
    mag = np.abs(trace.s21)
    smooth = split.smooth
    level = float(np.median(smooth[split.background_mask]))
    depth = level - float(np.min(smooth[split.resonance_mask]))
    idx = np.flatnonzero(split.resonance_mask)
    i0, i1 = int(idx[0]), int(idx[-1])
    guard = i1 - i0 + 1
    left = mag[:max(i0 - guard, 0)]
    right = mag[i1 + 1 + guard:]

    def hf_sigma(order: int, var_factor: float) -> float:
        d = np.concatenate([np.diff(left, order) if left.size > order else np.empty(0),
                            np.diff(right, order) if right.size > order else np.empty(0)])
        if d.size >= 8:
            return 1.4826 * float(np.median(np.abs(d - np.median(d)))) / np.sqrt(var_factor)
        if d.size:
            return float(np.std(d)) / np.sqrt(var_factor)
        return 0.0

    noise = hf_sigma(2, 6.0)
    if noise <= 0 or hf_sigma(4, 70.0) < 0.3 * noise:
        return cap
    return min(depth / noise, cap)


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


def permuted_designs(X: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """The (k, repeats, n, k) stack of designs: X with column j replaced by swaps[j, r]."""
    k, repeats, n = swaps.shape
    stack = np.broadcast_to(X, (k, repeats, n, k)).copy()
    for j in range(k):
        stack[j, :, :, j] = swaps[j]
    return stack


def ridge_permutation_importance_stacked(features, target, *, alpha: float,
                                         repeats: int = 100, seed: int = 0,
                                         feature_names=None):
    """The stacked permutation importance that the swap-form LOOCV replaces, as
    it was: every shuffled design copied whole into one (k, repeats, n, k)
    stack and scored by the stacked fold loop, which the stacked LOOCV that
    scored it matched bit for bit."""
    from jjtls.errors import ValidationError
    from jjtls.stats import RegressionReport, ridge_loocv_r2

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
    shuffled = np.broadcast_to(X, (k, repeats, n, k)).copy()
    for j in range(k):
        for rep in range(repeats):
            shuffled[j, rep, :, j] = rng.permutation(X[:, j])
    preds = ridge_loocv_predictions_fold_loop(shuffled, y, np.array([alpha]))[..., 0, :]
    drops = base - (1.0 - np.sum((y - preds) ** 2, axis=-1) / float(np.sum((y - y.mean()) ** 2)))
    importances = {name: (float(d.mean()), float(d.std(ddof=1)))
                   for name, d in zip(feature_names, drops)}
    return RegressionReport(ridge_alpha=alpha, loocv_r2=base, importances=importances)


def ridge_loocv_predictions_fold_loop(X: np.ndarray, y: np.ndarray, alphas) -> np.ndarray:
    """One fold per loop iteration, the reference for the package's fold blocks.

    Honest LOOCV: standardization and fit are redone per fold, with one solve
    per fold for every design in the stack X (..., n, k) and every alpha; a
    column constant over a fold's training rows scores z = 0 in that fold.
    Returns the held-out predictions, shape (..., len(alphas), n)."""
    n, k = X.shape[-2:]
    ridge = alphas[:, None, None] * np.eye(k)
    preds = np.empty(X.shape[:-2] + (ridge.shape[0], n))
    for i in range(n):
        mask = np.arange(n) != i
        Xt, yt = X[..., mask, :], y[mask]  # C order for any layout of X: fixed sum order
        mu = Xt.mean(axis=-2, keepdims=True)
        sd = Xt.std(axis=-2, keepdims=True)
        varying = np.ptp(Xt, axis=-2, keepdims=True) > 0
        Z = np.divide(Xt - mu, sd, out=np.zeros_like(Xt), where=varying)
        zi = np.divide(X[..., i:i + 1, :] - mu, sd, out=np.zeros_like(mu), where=varying)
        ym = yt.mean()
        Zt = np.swapaxes(Z, -1, -2)
        w = np.linalg.solve((Zt @ Z)[..., None, :, :] + ridge,
                            (Zt @ (yt - ym))[..., None, :, None])
        preds[..., i] = ym + (zi[..., None, :, :] @ w)[..., 0, 0]
    return preds


# --------------------------------------------------------------------------
# the row-wise CSV writer and reader that fileio's column-wise ones replace,
# as they were (their helpers fnum and _cell included)

def fnum(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    return str(v) if isinstance(v, (int, np.integer)) else fnum(v)


def sha256_file(path) -> str:
    """The sha256 of a file's bytes as they are on disk."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_csv(outdir, name: str, rows, tag: str = ""):
    """Write schema ``name`` with its header: floats in shortest round-trip
    form, ints and strings as they are."""
    from jjtls.errors import SchemaError
    from jjtls.fileio import SCHEMAS, write_text

    cols = SCHEMAS[name].fields
    lines = [",".join(cols)]
    for row in rows:
        if len(row) != len(cols):
            raise SchemaError(f"{name}: row of {len(row)} values for {len(cols)} columns")
        lines.append(",".join(map(_cell, row)))
    return write_text(outdir, name, "\n".join(lines) + "\n", tag)


def read_csv(path, name: str, text=()) -> list[list]:
    """Rows of a CSV of schema ``name``, its columns in table order.

    Cells parse as finite floats except in the ``text`` columns, which
    are stripped strings.  Extra columns are ignored; errors name the line.
    """
    import csv
    import math

    from jjtls.errors import SchemaError
    from jjtls.fileio import SCHEMAS, _check_fields

    cols = SCHEMAS[name].fields
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            _check_fields(path, name, header, "column(s)")
            parse = [(header.index(c), str.strip if c in text else float) for c in cols]
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise SchemaError(f"{path}:{lineno}: expected {len(header)} "
                                      f"columns, got {len(row)}")
                try:
                    cells = [conv(row[i]) for i, conv in parse]
                except ValueError as exc:
                    raise SchemaError(f"{path}:{lineno}: {exc}")
                for c, v in zip(cols, cells):
                    if c not in text and not math.isfinite(v):
                        raise SchemaError(f"{path}:{lineno}: column {c} is not finite")
                rows.append(cells)
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise SchemaError(f"{path}:{reader.line_num}: {exc}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return rows
