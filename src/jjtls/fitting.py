"""Background separation, hanger-model least squares, and residual metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import savgol_filter

from .errors import (DegenerateDataError, InvalidParameterError, NoResonanceError,
                     ValidationError)
from .physics import ResonatorParams, Trace, hanger_jacobian, hanger_model

SNR_CAP = 1e12
SPLIT_REL_FLOOR = 0.1     # resonance region: derivative variance >= this * peak
SPLIT_DEPTH_SNR = 3.5     # dip depth must exceed this many background stds


@dataclass(frozen=True)
class BackgroundSplit:
    """Partition of a trace into one contiguous resonance region and background."""

    resonance_mask: np.ndarray  # bool per sample
    smooth: np.ndarray          # Savitzky-Golay smoothed |S21|

    @property
    def background_mask(self) -> np.ndarray:
        return ~self.resonance_mask

    @property
    def bounds(self) -> tuple[int, int]:
        idx = np.flatnonzero(self.resonance_mask)
        return int(idx[0]), int(idx[-1])


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
    smooth = savgol_filter(mag, win, 2)
    deriv = np.gradient(smooth, trace.freqs)
    var = _moving_variance(deriv, win)
    var = savgol_filter(var, win, 2)
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
    var = np.var(res[..., :m], axis=-1) + np.var(res[..., m:], axis=-1)
    denom = np.mean(np.abs(data), axis=-1)
    if not np.all((denom > 0) & np.isfinite(denom)):
        raise DegenerateDataError("mean |S21| is zero; metric undefined")
    return var / denom if var.ndim else float(var / denom)


def residual_metric(trace: Trace, params: ResonatorParams) -> float:
    """Var(data - model) / Mean(|data|).

    The variance of the complex deviations is the sum of the per-quadrature
    variances; the normalization is the mean magnitude of the data.
    """
    params.validate()
    return _metric(_residuals(params.as_array(), trace.freqs, trace.s21), trace.s21)


def _residuals(p: np.ndarray, f: np.ndarray, data: np.ndarray) -> np.ndarray:
    s = hanger_model(p, f) - data
    return np.concatenate([s.real, s.imag])


def _jacobian(p: np.ndarray, f: np.ndarray, data: np.ndarray) -> np.ndarray:
    dS = hanger_jacobian(p, f)
    return np.concatenate([dS.real, dS.imag], axis=1).T


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


def fit_hanger(trace: Trace, init: ResonatorParams | None = None,
               *, max_nfev: int = 200) -> FitResult:
    """Least-squares fit of the hanger model to a complex trace.

    Without an explicit initial guess, seeds come from the background
    filter (amplitude and phase slopes from the background region, f_r and
    Q_l from the resonance width).  Non-convergence is reported through the
    ``converged`` flag; only a background seeding that finds no resonance
    raises (NoResonanceError).  The residual metric is taken from the final
    least-squares residual.
    """
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


def estimate_snr(trace: Trace) -> float:
    """Dip depth over background noise std, capped at 1e12.

    The noise level comes from second differences of |S21| over the
    background region (variance 6 sigma^2 for white noise), taken outside
    a guard band of one region width so the Lorentzian tails stay out of
    the figure.  When the fourth-difference estimate collapses relative to
    the second-difference one, the data are smoother than the estimator
    floor (noiseless for practical purposes) and the cap is returned.
    """
    split = background_split(trace)  # propagates NoResonanceError
    mag = np.abs(trace.s21)
    smooth = split.smooth
    bg = split.background_mask
    level = float(np.median(smooth[bg]))
    depth = level - float(np.min(smooth[split.resonance_mask]))
    i0, i1 = split.bounds
    guard = i1 - i0 + 1
    left = mag[:max(i0 - guard, 0)]
    right = mag[i1 + 1 + guard:]

    def hf_sigma(order: int, var_factor: float) -> float:
        d = np.concatenate([np.diff(left, order) if left.size > order else np.empty(0),
                            np.diff(right, order) if right.size > order else np.empty(0)])
        if d.size >= 8:
            return 1.4826 * float(np.median(np.abs(d - np.median(d)))) / math.sqrt(var_factor)
        if d.size:
            return float(np.std(d)) / math.sqrt(var_factor)
        return 0.0

    noise = hf_sigma(2, 6.0)
    if noise <= 0 or hf_sigma(4, 70.0) < 0.3 * noise:
        return SNR_CAP
    return min(depth / noise, SNR_CAP)


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

    def derivative(self, bias) -> np.ndarray | float:
        i = np.asarray(bias, dtype=float)
        out = 2.0 * self.a * i + self.b
        return out if i.ndim else float(out)

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return self.a, self.b, self.c


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
