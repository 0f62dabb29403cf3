"""Background separation, hanger-model least squares, and residual metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq
from scipy.ndimage import convolve1d
from scipy.optimize import least_squares, leastsq

from .errors import (DegenerateDataError, InvalidParameterError, NoResonanceError,
                     ValidationError)
from .physics import Hanger, ResonatorParams, Trace

SPLIT_REL_FLOOR = 0.1     # resonance region: derivative variance >= this * peak
SPLIT_DEPTH_SNR = 3.5     # dip depth must exceed this many background stds
MAX_NFEV = 200            # fit_hanger: residual evaluations per solver


@dataclass(frozen=True)
class BackgroundSplit:
    """Partition of a trace into one contiguous resonance region and background."""

    resonance_mask: np.ndarray  # bool per sample
    smooth: np.ndarray          # Savitzky-Golay smoothed |S21|

    @property
    def background_mask(self) -> np.ndarray:
        return ~self.resonance_mask


@dataclass(frozen=True)
class FitResult:
    params: ResonatorParams
    residual_metric: float
    converged: bool
    n_evals: int = 0


# stands in for a trace that could not be fitted at all
FAILED_FIT = FitResult(params=ResonatorParams(1.0, 1.0, 2.0),
                       residual_metric=float("inf"), converged=False)


def _sg_window(n: int) -> int:
    """Default smoothing window: max(11, n/20), rounded up to odd."""
    w = max(11, n // 20)
    if w % 2 == 0:
        w += 1
    return min(w, n - 1 if (n - 1) % 2 else n - 2)


def savgol(x: np.ndarray, window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing over an odd ``window``.

    Within ``window // 2`` samples of either end, the value is that of the
    degree-``order`` polynomial fitted to the first or last ``window`` samples.
    Equal bit for bit to ``scipy.signal.savgol_filter(x, window, order)``,
    which the tests keep as its reference, without loading ``scipy.signal``.
    """
    n, half, eps = len(x), window // 2, np.finfo(float).eps
    powers = np.arange(order + 1.0)
    vander = np.arange(half, -half - 1, -1.0) ** powers[:, None]
    coeffs = lstsq(vander, (powers == 0).astype(float), cond=eps * max(vander.shape))[0]
    y = convolve1d(x, coeffs, mode="constant")
    vander = np.arange(window, dtype=float)[:, None] ** powers[::-1]
    scale = np.sqrt(np.sum(vander * vander, axis=0))
    for start, t in ((0, np.arange(half)), (n - window, np.arange(window - half, window))):
        c = lstsq(vander / scale, x[start:start + window], cond=window * eps)[0] / scale
        edge = np.zeros(half)
        for cj in c:  # Horner's rule
            edge = edge * t + cj
        y[start + t] = edge
    return y


def _moving_variance(x: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window) / window
    pad = window // 2
    xp = np.pad(x, pad, mode="edge")
    m1 = np.convolve(xp, kernel, mode="valid")
    m2 = np.convolve(xp**2, kernel, mode="valid")
    return np.maximum(m2 - m1**2, 0.0)


def background_split(trace: Trace) -> BackgroundSplit:
    """Locate the resonance region of a trace.

    Smooths |S21| with a Savitzky-Golay filter, differentiates, takes a
    moving-window variance of the derivative, smooths again, and marks the
    run of elevated variance around its peak as the resonance.  A trace
    whose candidate dip is indistinguishable from the background noise, or
    whose background is shorter than the smoothing window, raises
    NoResonanceError.
    """
    n = len(trace)
    mag = np.abs(trace.s21)
    win = _sg_window(n)
    smooth = savgol(mag, win, 2)
    deriv = np.gradient(smooth, trace.freqs)
    var = _moving_variance(deriv, win)
    var = savgol(var, win, 2)
    var = np.maximum(var, 0.0)

    peak = int(np.argmax(var))
    vmax = var[peak]
    if not np.isfinite(vmax) or vmax <= 0:
        raise NoResonanceError("derivative variance vanishes; flat trace")
    low = np.flatnonzero(var < SPLIT_REL_FLOOR * vmax)
    i0 = int(low[low < peak].max(initial=-1)) + 1
    i1 = int(low[low > peak].min(initial=n)) - 1
    mask = np.zeros(n, dtype=bool)
    mask[i0:i1 + 1] = True
    bg = ~mask
    if np.count_nonzero(bg) < win:   # too little to fit a line or take a noise level
        raise NoResonanceError(f"fewer than {win} background samples outside the resonance")
    level = float(np.median(smooth[bg]))
    depth = level - float(np.min(smooth[mask]))
    noise = float(np.std(mag[bg] - smooth[bg]))
    floor = max(SPLIT_DEPTH_SNR * noise, 1e-9 * abs(level))
    if depth <= floor:
        raise NoResonanceError(
            f"candidate dip depth {depth:.3e} below detection floor {floor:.3e}")
    return BackgroundSplit(resonance_mask=mask, smooth=smooth)


def _metric(res: np.ndarray, data: np.ndarray) -> float | np.ndarray:
    """Residual metric from the stacked [real, imag] deviations ``res``.

    A leading batch axis on ``res`` and ``data`` gives one metric per row.
    """
    m = data.shape[-1]
    d = res.reshape(res.shape[:-1] + (2, m))
    d = d - np.add.reduce(d, axis=-1, keepdims=True) / m   # np.var's steps, bit for bit
    var = np.add.reduce(d * d, axis=-1) / m
    var = var[..., 0] + var[..., 1]
    denom = np.add.reduce(np.abs(data), axis=-1) / m      # np.mean's
    if not ((denom > 0) & np.isfinite(denom)).all():
        raise DegenerateDataError("mean |S21| is zero; metric undefined")
    return var / denom if var.ndim else float(var / denom)


def residual_metric(trace: Trace, params: ResonatorParams) -> float:
    """Var(data - model) / Mean(|data|).

    The variance of the complex deviations is the sum of the per-quadrature
    variances; the normalization is the mean magnitude of the data.
    """
    params.validate()
    return _metric(Hanger(trace.freqs, trace.s21).residuals(params.as_array()), trace.s21)


def _seed_from_background(trace: Trace, split: BackgroundSplit) -> np.ndarray:
    mag = np.abs(trace.s21)
    smooth = split.smooth
    res = split.resonance_mask
    bg = split.background_mask
    f = trace.freqs

    ridx = np.flatnonzero(res)
    f_r0 = float(f[ridx[np.argmin(smooth[res])]])

    x_bg = (f[bg] - f_r0) / f_r0
    coef = np.polyfit(x_bg, mag[bg], 1)
    A0 = float(coef[1])
    alpha0 = float(coef[0] / A0) if A0 != 0 else 0.0

    phase = np.unwrap(np.angle(trace.s21))
    pcoef = np.polyfit(f[bg], phase[bg], 1)
    phi_v0, phi_00 = float(pcoef[0]), float(pcoef[1])

    depth = max(A0 - float(np.min(smooth[res])), 1e-6 * max(abs(A0), 1e-12))
    half = float(np.min(smooth[res])) + depth / 2.0
    below = np.flatnonzero(smooth <= half)
    if below.size >= 2:
        width = float(f[below[-1]] - f[below[0]])
    else:
        width = float(f[ridx[-1]] - f[ridx[0]])
    width = max(width, float(np.diff(f).min()))
    Q_l0 = min(max(f_r0 / width, 10.0), 1e9)
    Q_e0 = min(max(Q_l0 * abs(A0) / depth, Q_l0 / 2.0), 1e10)
    return np.array([f_r0, Q_l0, Q_e0, 0.0, A0, alpha0, phi_v0, phi_00])


def fit_hanger(trace: Trace, init: ResonatorParams | None = None) -> FitResult:
    """Least-squares fit of the hanger model to a complex trace.

    Without an explicit initial guess, seeds come from the background
    filter (amplitude and phase slopes from the background region, f_r and
    Q_l from the resonance width).  The solver is MINPACK's Levenberg-Marquardt
    with the analytic Jacobian; if it fails or its optimum leaves the box (f_r
    within one span of the grid, Q_l and |Q_e| in [1, 1e12], |theta| <= pi,
    A >= 1e-12), bounded trust-region-reflective least squares from the same
    start stands instead.  Both solvers evaluate one :class:`Hanger`.
    Non-convergence is reported through the ``converged`` flag, which a
    non-finite sample (FAILED_FIT) or a linewidth f_r/Q_l below one grid
    step also clears; only a background seeding that finds no resonance
    raises (NoResonanceError).  The residual metric is taken from the final
    least-squares residual.
    """
    f, data = trace.freqs, trace.s21
    if not np.isfinite(data).all():
        return FAILED_FIT
    if init is not None:
        p0 = init.as_array()
    else:
        split = background_split(trace)  # NoResonanceError propagates
        p0 = _seed_from_background(trace, split)

    span = float(f[-1] - f[0])
    lower = np.array([f[0] - span, 1.0, 1.0, -math.pi, 1e-12, -np.inf, -np.inf, -np.inf])
    upper = np.array([f[-1] + span, 1e12, 1e12, math.pi, np.inf, np.inf, np.inf, np.inf])
    p0 = np.clip(p0, lower + 1e-15, upper - 1e-15)

    hanger = Hanger(f, data)
    try:
        popt, _, info, _, ier = leastsq(hanger.residuals, p0, Dfun=hanger.jacobian,
                                        full_output=True, col_deriv=True, ftol=1e-10,
                                        xtol=1e-12, gtol=1e-12, maxfev=MAX_NFEV)
        fun, nfev, success = info["fvec"], int(info["nfev"]), ier in (1, 2, 3, 4)
        if not (success and ((lower <= popt) & (popt <= upper)).all()):
            res = least_squares(hanger.residuals, p0, jac=lambda p: hanger.jacobian(p).T,
                                method="trf", bounds=(lower, upper), x_scale="jac",
                                ftol=1e-10, xtol=1e-12, gtol=1e-12, max_nfev=MAX_NFEV)
            popt, fun, nfev, success = res.x, res.fun, int(res.nfev), bool(res.success)
    except (ValueError, np.linalg.LinAlgError):
        popt, fun, nfev, success = p0, hanger.residuals(p0), 0, False

    params = ResonatorParams.from_array(popt)
    try:
        params.validate()
        metric = _metric(fun, data)
    except (InvalidParameterError, DegenerateDataError):
        metric = float("inf")

    converged = success and math.isfinite(metric) and params.kappa >= span / (f.size - 1)
    return FitResult(params=params, residual_metric=metric, converged=converged,
                     n_evals=nfev)


@dataclass(frozen=True)
class FluxParabola:
    """Quadratic frequency-vs-current model f(I) = a I^2 + b I + c."""

    a: float
    b: float
    c: float

    def __call__(self, bias) -> np.ndarray | float:
        i = np.asarray(bias, dtype=float)
        out = self.a * i**2 + self.b * i + self.c
        return out if i.ndim else float(out)


def fit_flux_parabola(biases, f0s) -> FluxParabola:
    """Least-squares quadratic fit of resonance frequency vs bias current."""
    i = np.asarray(biases, dtype=float)
    f0 = np.asarray(f0s, dtype=float)
    if i.size != f0.size:
        raise ValidationError("biases and frequencies must have equal length")
    if i.size < 3:
        raise ValidationError(f"need >= 3 points for a quadratic, got {i.size}")
    if np.unique(i).size < 3:
        raise DegenerateDataError("bias values are degenerate; quadratic underdetermined")
    # center the current axis for conditioning
    i0 = float(i.mean())
    coef = np.polyfit(i - i0, f0, 2)
    a, b, c = float(coef[0]), float(coef[1]), float(coef[2])
    return FluxParabola(a=a, b=b - 2 * a * i0, c=c - b * i0 + a * i0**2)
