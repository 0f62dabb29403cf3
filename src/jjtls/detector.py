"""Curve-following sweeps, detector calibration, and TLS peak detection.

The detection chain: follow the resonance across bias points, fit every
trace, exclude collision and past-maximum regions, re-express the residual
metric on a uniform frequency-shift axis (units of the linewidth kappa),
and flag five-point peak shapes above a calibrated threshold.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import median_filter
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import (CalibrationError, ConvergenceError, DegenerateDataError,
                     NoResonanceError, ValidationError)
from .fileio import MIN_ENSEMBLE_SIZE, DetectorCalibration
from .fitting import (FAILED_FIT, FitResult, _metric, fit_flux_parabola, fit_hanger,
                      savgol)
from .physics import (RNG_CAL_NOISE, RNG_THRESHOLD, Hanger, ResonatorParams, Trace,
                      TLSDefect, hanger_s21, tls_s21)

EXCLUSION_REASONS = ("collision", "past-maximum")
GRID_STEP = 0.25          # residual-series spacing, units of kappa
MERGE_RADIUS = 1.0        # event merge radius, units of kappa
NOISE_TOLERANCE = 0.01    # calibrate_noise: relative agreement of the metric
NOISE_MAX_ITER = 100      # calibrate_noise: bisection steps
CAL_SPAN = 10.0           # build_threshold: ensemble trace span, units of kappa
NOISE_CHUNK = 64          # ensemble members per noise block (bounds peak memory)
GUARD_MEMBERS = 32        # members of each ensemble refitted exactly
GUARD_MEAN = 0.05         # guard: |mean(projected - exact)| limit, in ensemble stds
GUARD_MAX = 0.5           # guard: max |projected - exact| limit, in ensemble stds
WARM_GUARD = 4.0          # fit_next: warm fit's metric limit, times the last fit's


@dataclass(frozen=True)
class Exclusion:
    start: int
    stop: int   # inclusive bias index
    reason: str

    def validate(self, n: int) -> "Exclusion":
        if self.reason not in EXCLUSION_REASONS:
            raise ValidationError(f"unknown exclusion reason {self.reason!r}")
        if not (0 <= self.start <= self.stop < n):
            raise ValidationError(
                f"exclusion [{self.start}, {self.stop}] outside sweep of {n} steps")
        return self


@dataclass(frozen=True)
class SweepDataset:
    """Fits in bias order, the bias current of each, and exclusion bookkeeping;
    ``traces`` are the measured traces where the sweep keeps them (``curve_follow``)."""

    bias_currents: np.ndarray
    fits: tuple[FitResult, ...]
    exclusions: tuple[Exclusion, ...] = ()
    traces: tuple[Trace, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bias_currents", np.array(self.bias_currents, dtype=float))
        object.__setattr__(self, "fits", tuple(self.fits))
        object.__setattr__(self, "exclusions", _merge_exclusions(self.exclusions))
        if len(self.bias_currents) != len(self.fits):
            raise ValidationError("one fit per bias current required")
        for ex in self.exclusions:
            ex.validate(len(self.fits))

    def __len__(self) -> int:
        return len(self.fits)

    def included_indices(self) -> np.ndarray:
        mask = np.array([f.converged for f in self.fits], dtype=bool)
        for ex in self.exclusions:
            mask[ex.start:ex.stop + 1] = False
        return np.flatnonzero(mask)

    @property
    def f0s(self) -> np.ndarray:
        return np.array([f.params.f_r for f in self.fits])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([f.residual_metric for f in self.fits])

    def median_kappa(self) -> float:
        idx = self.included_indices()
        if idx.size == 0:
            raise DegenerateDataError("no included fits in sweep")
        return float(np.median([self.fits[i].params.kappa for i in idx]))


def _merge_exclusions(exclusions) -> tuple[Exclusion, ...]:
    """Canonical form: sorted, non-overlapping, same-reason runs merged."""
    items = sorted(exclusions, key=lambda e: (e.start, e.stop))
    merged: list[Exclusion] = []
    for ex in items:
        if merged and ex.start <= merged[-1].stop + 1 and ex.reason == merged[-1].reason:
            merged[-1] = Exclusion(merged[-1].start, max(merged[-1].stop, ex.stop),
                                   ex.reason)
        elif merged and ex.start <= merged[-1].stop:
            # different reasons overlapping: clip the later one
            if ex.stop > merged[-1].stop:
                merged.append(Exclusion(merged[-1].stop + 1, ex.stop, ex.reason))
        else:
            merged.append(ex)
    return tuple(merged)


@dataclass(frozen=True)
class ResidualSeries:
    """Residual metric on a uniform kappa/4 frequency-shift axis."""

    shift_axis: np.ndarray    # cumulative |df0| in units of kappa
    residuals: np.ndarray
    kappa: float
    freq_at: np.ndarray       # interpolated resonance frequency, GHz
    valid: np.ndarray         # False where the grid crosses an excluded gap

    def __post_init__(self):
        d = np.diff(self.shift_axis)
        if d.size and (np.any(d <= 0) or np.max(np.abs(d - GRID_STEP)) > 1e-9):
            raise ValidationError("shift axis must be uniform at kappa/4")
        if np.any(self.residuals < 0):
            raise ValidationError("residual metric values must be >= 0")

    def __len__(self) -> int:
        return int(self.shift_axis.size)


@dataclass(frozen=True)
class DetectionEvent:
    shift_position: float   # kappa units
    peak_residual: float
    frequency: float        # GHz


@dataclass(frozen=True)
class SweepCount:
    """The events of one sweep and the linewidth bins they are counted over."""

    series: ResidualSeries
    events: list[DetectionEvent]
    n_bins: int             # B = max(floor(delta_f / kappa), 1)
    delta_f: float          # swept range of the included fits' f0, GHz
    kappa: float            # median included linewidth, GHz


def fit_next(trace: Trace, history: list[tuple[float, FitResult]]) -> FitResult:
    """Fit the next trace of a sweep from ``history``, its converged fits so far.

    ``history`` holds ``(bias_current, FitResult)`` pairs and gains the fit
    if it converged.  A warm fit within ``WARM_GUARD`` stands, else the
    seeded fit or FAILED_FIT (README.md, "Fits along a sweep").
    """
    warm = FAILED_FIT
    if history:
        bias, last = history[-1]
        init = last.params
        if len(history) >= 2 and history[-2][0] != bias:
            bias0, prev = history[-2]
            slope = (init.f_r - prev.params.f_r) / (bias - bias0)
            init = replace(init, f_r=init.f_r + slope * (trace.bias_current - bias))
        warm = fit_hanger(trace, init=init)
    if warm.converged and warm.residual_metric <= WARM_GUARD * last.residual_metric:
        fit = warm
    else:
        try:
            fit = fit_hanger(trace)
        except NoResonanceError:
            fit = FAILED_FIT
    if fit.converged:
        history.append((trace.bias_current, fit))
    return fit


def curve_follow(instrument, bias_plan, span: float, n_points: int) -> SweepDataset:
    """Measure-fit-recenter sweep over a bias plan.

    ``instrument(bias, f_center, span, n_points) -> Trace``; f_center is
    None, which asks the instrument to center itself, until a fit converges.
    Each trace is fitted by ``fit_next`` from the converged fits before it.
    A failed fit leaves its step out of ``included_indices`` and the sweep
    continues from the last good center.
    """
    plan = list(bias_plan)
    if not plan:
        raise ValidationError("bias plan is empty")
    traces: list[Trace] = []
    fits: list[FitResult] = []
    history = []
    center = None
    for bias in plan:
        trace = instrument(bias, center, span, n_points)
        fit = fit_next(trace, history)
        if fit.converged:
            center = fit.params.f_r
        traces.append(trace)
        fits.append(fit)
    return SweepDataset([t.bias_current for t in traces], fits, traces=tuple(traces))


def apply_exclusions(sweep: SweepDataset, manual=()) -> SweepDataset:
    """Add manual collision intervals and the automatic past-maximum cut.

    Tracking a resonator through its frequency maximum would count every
    TLS twice, so all bias indices after the maximum fitted f0 are dropped.
    """
    n = len(sweep)
    extra = [Exclusion(int(a), int(b), "collision").validate(n) for a, b in manual]
    candidate = replace(sweep, exclusions=sweep.exclusions + tuple(extra))

    idx = candidate.included_indices()
    if idx.size >= 5:
        # only an interior maximum means the sweep crossed the flux-map top
        # and would revisit the same frequencies; median smoothing plus a
        # prominence floor keep single-fit noise blips from firing the cut
        f0 = median_filter(candidate.f0s[idx], size=5, mode="nearest")
        p = int(np.argmax(f0))
        step = float(np.median(np.abs(np.diff(f0))))
        floor = 5.0 * step
        if (0 < p < idx.size - 1
                and f0[p] - f0[0] > floor and f0[p] - f0[-1] > floor):
            extra.append(Exclusion(int(idx[p]) + 1, n - 1, "past-maximum"))
    return replace(sweep, exclusions=sweep.exclusions + tuple(extra))


def normalize_axis(sweep: SweepDataset, kappa: float | None = None) -> ResidualSeries:
    """Residual metric vs cumulative frequency shift in kappa units.

    The bias-to-frequency conversion uses a quadratic fit of f0 vs current
    so fixed current steps map onto physical frequency shifts; the metric
    is then linearly interpolated onto a uniform kappa/4 grid.
    """
    idx = sweep.included_indices()
    if idx.size < 3:
        raise ValidationError(f"need >= 3 included fits, got {idx.size}")
    if kappa is None:
        kappa = sweep.median_kappa()

    bias = sweep.bias_currents[idx]
    f0 = sweep.f0s[idx]
    res = sweep.residuals[idx]
    parab = fit_flux_parabola(bias, f0)
    f_model = np.asarray(parab(bias))
    steps = np.abs(np.diff(f_model)) / kappa
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    total = cum[-1]
    if total <= GRID_STEP:
        raise DegenerateDataError(
            f"total frequency shift {total:.3g} kappa is too small to grid")

    # keep the interpolation abscissa strictly increasing
    keep = np.concatenate([[True], np.diff(cum) > 0])
    cum_k, res_k = cum[keep], res[keep]
    f_k, idx_k = f_model[keep], idx[keep]

    n_grid = int(math.floor(total / GRID_STEP + 1e-9)) + 1
    grid = np.arange(n_grid) * GRID_STEP
    series = np.interp(grid, cum_k, res_k)
    freq_at = np.interp(grid, cum_k, f_k)

    # a grid point is valid if it coincides with a measured sample or its
    # bracketing samples are adjacent in the original sweep (no gap between)
    pos = np.searchsorted(cum_k, grid, side="right") - 1
    pos = np.clip(pos, 0, len(cum_k) - 2)
    adjacent = (idx_k[pos + 1] - idx_k[pos]) == 1
    at_node = np.abs(grid - cum_k[pos]) <= 1e-9
    valid = adjacent | at_node
    return ResidualSeries(shift_axis=grid, residuals=np.maximum(series, 0.0),
                          kappa=kappa, freq_at=freq_at, valid=valid)


@dataclass(frozen=True)
class _Tangent:
    """The hanger fit linearised about a reference fit of a noiseless trace.

    ``Q`` is an orthonormal basis of the range of the stacked real/imag
    Jacobian at the reference parameters ``p``.  Noise ``e`` added to the
    trace leaves the residual ``r0 - (I - Q Q^T) e`` and moves the fitted
    parameters by ``(Q^T e) @ step``.
    """

    model: np.ndarray    # the noiseless trace
    p: np.ndarray        # reference-fit parameters
    r0: np.ndarray       # reference-fit stacked residual
    Q: np.ndarray        # (2M, 8)
    step: np.ndarray     # (8, 8)

    @classmethod
    def at(cls, grid: np.ndarray, model: np.ndarray, p: np.ndarray) -> "_Tangent":
        hanger = Hanger(grid, model)
        J = hanger.jacobian(p).T
        scale = np.linalg.norm(J, axis=0)   # column scaling keeps R well conditioned
        Q, R = np.linalg.qr(J / scale)
        return cls(model=model, p=p, r0=hanger.residuals(p), Q=Q,
                   step=np.linalg.inv(R).T / scale)

    def metrics(self, sigma: float, noise: np.ndarray) -> np.ndarray:
        """Projected residual metric of each member of a noise block.

        A member whose linearised parameters leave the physical region
        (1/Q_i < 0) gets an infinite metric, as an exact refit would.
        """
        e = sigma * noise.reshape(len(noise), -1)
        qe = e @ self.Q
        out = _metric(self.r0 - (e - qe @ self.Q.T), _members(self.model, sigma, noise))
        p = self.p + qe @ self.step
        out[1.0 / p[:, 1] - np.cos(p[:, 3]) / p[:, 2] < 0] = np.inf
        return out


def _members(model: np.ndarray, sigma: float, noise: np.ndarray) -> np.ndarray:
    """Noisy traces of a (n, 2, M) block: row k is model + sigma (re_k + i im_k)."""
    return model + sigma * (noise[:, 0] + 1j * noise[:, 1])


def _noise_blocks(rng: np.random.Generator, n: int, m: int):
    """The noise of n members in (chunk, 2, m) blocks.

    Each member draws m real then m imaginary normals, in member order, so
    the stream does not depend on the chunk size.
    """
    for start in range(0, n, NOISE_CHUNK):
        yield rng.standard_normal((min(NOISE_CHUNK, n - start), 2, m))


def _refit_metrics(grid: np.ndarray, model: np.ndarray, sigma: float, blocks,
                   init: ResonatorParams) -> np.ndarray:
    """Exact residual metric of every member: a warm-started hanger refit."""
    vals = [fit_hanger(Trace(freqs=grid, s21=s21), init=init).residual_metric
            for block in blocks for s21 in _members(model, sigma, block)]
    return _finite_members(np.array(vals))


def _finite_members(metrics: np.ndarray) -> np.ndarray:
    """The metrics; a member whose fit left the physical region (inf) is an error."""
    bad = int(np.count_nonzero(~np.isfinite(metrics)))
    if bad:
        raise CalibrationError(
            f"{bad} of {metrics.size} calibration refits have a non-finite "
            "residual metric (unphysical fitted resonator)")
    return metrics


def calibrate_noise(baseline_trace: Trace, fit: FitResult, *,
                    ensemble: int = 64, seed: int = 0) -> float:
    """Noise sigma that reproduces the measured baseline residual metric.

    Synthetic traces are generated from the fitted parameters and their
    median residual metric compared against the measured one; sigma is
    bisected (common random numbers, so the objective is monotone) until
    agreement within ``NOISE_TOLERANCE`` (relative).  The bisection runs
    on the metric projected onto the fit's tangent space; one exact refit
    of the ensemble confirms the result, and if it misses the tolerance
    the bisection continues on exact refits.
    """
    measured = fit.residual_metric
    if not math.isfinite(measured):
        raise CalibrationError("baseline fit has no finite residual metric")
    if measured < 1e-18:
        return 0.0
    grid = baseline_trace.freqs
    model = hanger_s21(fit.params, grid)
    rng = np.random.default_rng([seed, RNG_CAL_NOISE])
    # every member's real parts, then every member's imaginary parts
    noise = rng.standard_normal((2, ensemble, grid.size)).swapaxes(0, 1)
    tangent = _Tangent.at(grid, model, fit.params.as_array())

    def projected(sigma: float) -> float:
        return float(np.median(_finite_members(tangent.metrics(sigma, noise))))

    def exact(sigma: float) -> float:
        return float(np.median(_refit_metrics(grid, model, sigma, [noise], fit.params)))

    mean_mag = float(np.mean(np.abs(baseline_trace.s21)))
    sigma = _bisect_sigma(projected, measured, math.sqrt(measured * mean_mag / 2.0))
    if abs(exact(sigma) - measured) / measured <= NOISE_TOLERANCE:
        return sigma
    return _bisect_sigma(exact, measured, sigma)


def _bisect_sigma(median_metric, measured: float, sigma: float) -> float:
    """Bracket [sigma/4, 4 sigma], widened as needed, then bisect geometrically."""
    lo, hi = sigma / 4.0, sigma * 4.0
    for _ in range(20):
        if median_metric(lo) <= measured:
            break
        lo /= 4.0
    for _ in range(20):
        if median_metric(hi) >= measured:
            break
        hi *= 4.0

    for _ in range(NOISE_MAX_ITER):
        mid = math.sqrt(lo * hi)
        got = median_metric(mid)
        if abs(got - measured) / measured <= NOISE_TOLERANCE:
            return mid
        if got < measured:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"noise calibration did not reach {NOISE_TOLERANCE:.0%} agreement "
        f"in {NOISE_MAX_ITER} iterations")


def critical_tls(params: ResonatorParams) -> TLSDefect:
    """Minimally detectable TLS: g = kappa/2, gamma = kappa, detuning kappa/2."""
    kappa = params.kappa
    return TLSDefect(f_tls=params.f_r + kappa / 2.0, g=kappa / 2.0, gamma=kappa)


def _gaussian_intersection(mu1: float, s1: float, mu2: float, s2: float) -> float:
    """Crossing point of two normal densities between their means."""
    s1 = max(s1, 1e-300)
    s2 = max(s2, 1e-300)

    def diff(x: float) -> float:
        return (-0.5 * ((x - mu1) / s1) ** 2 - math.log(s1)
                + 0.5 * ((x - mu2) / s2) ** 2 + math.log(s2))

    lo, hi = mu1, mu2
    flo, fhi = diff(lo), diff(hi)
    if not (flo > 0 > fhi):
        raise CalibrationError("residual distributions do not cross between means")
    return float(brentq(diff, lo, hi, xtol=1e-16, rtol=1e-14))


def build_threshold(params: ResonatorParams, noise_sigma: float,
                    ensemble_size: int = 5000, *, seed: int = 0,
                    n_points: int = 201) -> DetectorCalibration:
    """Calibrate the detection threshold against the critical TLS.

    Simulates ``ensemble_size`` noisy traces without coupling and the same
    number with the minimally detectable TLS (cooperativity 1), takes the
    residual metric of a hanger fit to each, and fits Gaussians to the two
    residual-metric distributions.  The threshold is the density crossing
    between the two means; fp and fn are the corresponding tail masses.

    Each ensemble is fitted once without noise; every member's metric is
    that fit's residual moved by the member's noise projected off the
    fit's tangent space.  The first ``GUARD_MEMBERS`` members are also
    refitted exactly.  A non-finite refit or a member whose linearised fit
    leaves the physical region raises CalibrationError; a mean or largest
    disagreement beyond ``GUARD_MEAN`` or ``GUARD_MAX`` ensemble stds
    refits the whole ensemble exactly instead.
    """
    params.validate()
    if ensemble_size < MIN_ENSEMBLE_SIZE:
        raise ValidationError(f"ensemble_size must be >= {MIN_ENSEMBLE_SIZE}, got {ensemble_size}")
    if noise_sigma < 0:
        raise ValidationError("noise_sigma must be >= 0")
    kappa = params.kappa
    grid = np.linspace(params.f_r - CAL_SPAN / 2 * kappa,
                       params.f_r + CAL_SPAN / 2 * kappa, n_points)
    tls = critical_tls(params)

    rng = np.random.default_rng([seed, RNG_THRESHOLD])

    def ensemble_metrics(model: np.ndarray) -> np.ndarray:
        ref = fit_hanger(Trace(freqs=grid, s21=model), init=params)
        if not math.isfinite(ref.residual_metric):
            raise CalibrationError("reference fit of the noiseless ensemble trace "
                                   "left the physical region")
        p = ref.params.as_array()
        tangent = _Tangent.at(grid, model, p)
        start = copy.deepcopy(rng)

        def replay(n: int):
            return _noise_blocks(copy.deepcopy(start), n, grid.size)

        m_lin = _finite_members(np.concatenate(
            [tangent.metrics(noise_sigma, b)
             for b in _noise_blocks(rng, ensemble_size, grid.size)]))
        # guard: the first members refitted exactly, bit for bit the traces
        # of the exact path; a disagreement sends the ensemble down that path.
        # Refits start from the noiseless trace's fit, which each member scatters around
        d = m_lin[:GUARD_MEMBERS] - _refit_metrics(
            grid, model, noise_sigma, replay(GUARD_MEMBERS), ref.params)
        s = float(np.std(m_lin))
        if abs(np.mean(d)) <= GUARD_MEAN * s and np.max(np.abs(d)) <= GUARD_MAX * s:
            return m_lin
        return _refit_metrics(grid, model, noise_sigma, replay(ensemble_size), ref.params)

    m_noise = ensemble_metrics(hanger_s21(params, grid))
    m_tls = ensemble_metrics(tls_s21(params, tls, grid))

    mu1, s1 = float(np.mean(m_noise)), float(np.std(m_noise))
    mu2, s2 = float(np.mean(m_tls)), float(np.std(m_tls))
    if not mu2 > mu1:
        raise CalibrationError(
            f"TLS residual mean {mu2:.3e} does not exceed noise mean {mu1:.3e}")
    threshold = _gaussian_intersection(mu1, s1, mu2, s2)
    fp = float(1.0 - ndtr((threshold - mu1) / s1)) if s1 > 0 else 0.0
    fn = float(ndtr((threshold - mu2) / s2)) if s2 > 0 else 0.0
    return DetectorCalibration(threshold=threshold, fp=fp, fn=fn,
                               noise_sigma=noise_sigma,
                               gauss_noise=(mu1, s1), gauss_tls=(mu2, s2))


def find_peaks(series: ResidualSeries, calib: DetectorCalibration) -> list[DetectionEvent]:
    """Five-point peak detection on the smoothed residual series.

    The series is smoothed with a width-5, order-1 Savitzky-Golay filter
    (one linewidth); an event requires the center above threshold and both
    flanks strictly decreasing outward.  Events closer than one linewidth
    merge, keeping the higher peak.
    """
    n = len(series)
    if n < 5:
        raise ValidationError(f"series shorter than 5 points ({n})")
    smooth = savgol(series.residuals, 5, 1)
    thr = calib.threshold
    candidates: list[int] = []
    for i in range(2, n - 2):
        if not series.valid[i - 2:i + 3].all():
            continue
        window = smooth[i - 2:i + 3]
        if (window[2] > thr
                and window[2] > window[1] > window[0]
                and window[2] > window[3] > window[4]):
            candidates.append(i)

    # non-maximum suppression within one linewidth
    order = sorted(candidates, key=lambda i: -smooth[i])
    kept: list[int] = []
    for i in order:
        if all(abs(series.shift_axis[i] - series.shift_axis[j]) >= MERGE_RADIUS
               for j in kept):
            kept.append(i)
    kept.sort()
    return [DetectionEvent(shift_position=float(series.shift_axis[i]),
                           peak_residual=float(smooth[i]),
                           frequency=float(series.freq_at[i]))
            for i in kept]


def count_sweep(sweep: SweepDataset, calib: DetectorCalibration) -> SweepCount:
    """Detect the events of a sweep already through ``apply_exclusions``.

    The residual series comes from ``normalize_axis`` and the events from
    ``find_peaks``; the swept range delta_f and the median linewidth of the
    included fits give the B bins the count is inferred over.
    """
    series = normalize_axis(sweep)
    f0 = sweep.f0s[sweep.included_indices()]
    delta_f = float(f0.max() - f0.min())
    return SweepCount(series=series, events=find_peaks(series, calib),
                      n_bins=max(int(math.floor(delta_f / series.kappa)), 1),
                      delta_f=delta_f, kappa=series.kappa)
