"""Empirical-Bayes inference of true TLS counts and densities.

From the detector's base error rates the per-bin true rates follow in
closed form; the count likelihood is a binomial convolution over missed
and spurious detections; a Poisson prior with rate fitted by maximum
marginal likelihood yields the posterior over the true count, and the
posterior mean normalized by swept bandwidth and junction area gives the
TLS density with its credible interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .errors import NumericalError, ValidationError

CI_MASS = 0.6827
_Q_LO = (1.0 - CI_MASS) / 2.0          # 0.15865
_Q_HI = 1.0 - _Q_LO                     # 0.84135


@dataclass(frozen=True)
class DetectorRates:
    """Base (single-value) and true (peak-shape) detector error rates."""

    fp: float
    fn: float
    FP: float
    FN: float

    def __post_init__(self):
        for name in ("fp", "fn", "FP", "FN"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} = {v} outside [0, 1]")


def true_rates(fp: float, fn: float) -> DetectorRates:
    """Fold the five-point peak-shape requirement into the base rates.

    A spurious detection needs at least one of five residuals above
    threshold arranged as one of the 6 symmetric-peak orderings out of
    5! = 120: FP = (1 - (1 - fp)^5) / 20.  A missed TLS needs all five
    residuals below threshold: FN = fn^5.
    """
    if not (0.0 <= fp <= 1.0 and 0.0 <= fn <= 1.0):
        raise ValidationError(f"fp={fp}, fn={fn} must lie in [0, 1]")
    FP = (1.0 - (1.0 - fp) ** 5) / 20.0
    FN = fn ** 5
    return DetectorRates(fp=fp, fn=fn, FP=FP, FN=FN)


@dataclass(frozen=True)
class InferenceInput:
    """Observed detections and detector context for one resonator.

    The latent counts of missed TLS and spurious detections are bounded by
    0 <= N_n <= N_T and 0 <= N_p <= B - N_T; they never appear explicitly,
    the likelihood sums them out.
    """

    n_detected: int
    n_bins: int
    rates: DetectorRates

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValidationError(f"n_bins must be >= 1, got {self.n_bins}")
        if not (0 <= self.n_detected <= self.n_bins):
            raise ValidationError(
                f"n_detected = {self.n_detected} outside [0, {self.n_bins}]")


def detection_likelihood(n_m: int, n_t: int, n_bins: int,
                         rates: DetectorRates) -> float:
    """P(n_m detections | n_t true TLS) for a detector with B bins."""
    B = int(n_bins)
    if not (0 <= n_t <= B):
        raise ValidationError(f"n_t = {n_t} outside [0, {B}]")
    return float(likelihood_vector(n_m, B, rates)[n_t])


def likelihood_vector(n_m: int, n_bins: int, rates: DetectorRates) -> np.ndarray:
    """P(n_m | n_t) for every n_t in [0, B].

    Sums over j detected true TLS: binomial(n_t, 1-FN) at j times
    binomial(B - n_t, FP) at n_m - j, in log space on the (n_t, j) grid.
    log C(n, j) is the running sum of log(n - i) over i < j less its value
    at n = j: exact for j = 0 and j = n, and free of the cancellation
    between log-gamma terms near log B! (2e-12 relative error at B = 1000).
    """
    B = int(n_bins)
    if not (0 <= n_m <= B):
        raise ValidationError(f"n_m = {n_m} outside [0, {B}]")
    FP, FN = rates.FP, rates.FN
    n = np.arange(B + 1)[:, None]
    j = np.arange(n_m + 1)
    with np.errstate(divide="ignore"):
        steps = np.log(np.maximum(n - j[:-1], 0))       # -inf once i >= n
    falling = np.concatenate([np.zeros((B + 1, 1)), np.cumsum(steps, axis=1)], axis=1)
    log_comb = falling - np.diagonal(falling)           # log C(n, j), -inf for j > n
    lt = (log_comb + xlog1py(j, -FN) + xlogy(np.maximum(n - j, 0), FN)
          + log_comb[::-1, ::-1] + xlogy(n_m - j, FP)   # log C(B - n, n_m - j)
          + xlog1py(np.maximum(B - n - n_m + j, 0), -FP))
    return np.exp(logsumexp(lt, axis=1))


def _log_truncated_poisson(lam: float, n_bins: int) -> np.ndarray:
    """Log pmf of Poisson(lam) truncated and renormalized to [0, B]."""
    k = np.arange(n_bins + 1)
    logw = xlogy(k, lam) - gammaln(k + 1)
    return logw - logsumexp(logw)


def _marginal(lam: float, lvec: np.ndarray) -> float:
    """P(n_m | lambda) given the count likelihood vector over n_t."""
    return float(np.dot(np.exp(_log_truncated_poisson(lam, lvec.size - 1)), lvec))


def marginal_likelihood(n_m: int, n_bins: int, rates: DetectorRates,
                        lam) -> float | np.ndarray:
    """P(n_m | lambda) under the truncated Poisson prior on n_t.

    ``lam`` is one rate (returns a float) or a 1-d array of rates (returns
    an array); the count likelihood is built once either way.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lams < 0):
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    lvec = likelihood_vector(n_m, n_bins, rates)
    out = np.array([_marginal(g, lvec) for g in lams])
    return float(out[0]) if np.ndim(lam) == 0 else out


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def mle_lambda(n_m: int, n_bins: int, rates: DetectorRates,
               *, rel_tol: float = 1e-6) -> float:
    """Golden-section maximizer of the marginal likelihood on [0, B]."""
    InferenceInput(n_detected=n_m, n_bins=n_bins, rates=rates)
    return _golden_lambda(likelihood_vector(n_m, n_bins, rates), rel_tol)


def _golden_lambda(lvec: np.ndarray, rel_tol: float = 1e-6) -> float:
    """Golden-section maximizer on [0, B] given the count likelihood vector."""
    a, b = 0.0, float(lvec.size - 1)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _marginal(c, lvec), _marginal(d, lvec)
    while b - a > rel_tol * max(1.0, b):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _marginal(c, lvec)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _marginal(d, lvec)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class PosteriorDensity:
    """Posterior over the true TLS count of one resonator."""

    pmf: np.ndarray
    lambda_star: float
    mean_count: float
    ci68: tuple[float, float]

    def __post_init__(self):
        if abs(float(np.sum(self.pmf)) - 1.0) > 1e-9:
            raise ValidationError("posterior pmf must sum to 1")
        if self.lambda_star < 0 or self.ci68[0] > self.ci68[1]:
            raise ValidationError("invalid posterior summary")

    @property
    def n_bins(self) -> int:
        return int(self.pmf.size - 1)


def _interpolated_ci(pmf: np.ndarray, mass_lo: float = _Q_LO,
                     mass_hi: float = _Q_HI) -> tuple[float, float]:
    """Central credible interval of the linearly interpolated density.

    Knots sit at the integer counts with zero anchors half a bin beyond
    both ends, making the interpolant a proper density; quantiles are read
    off the normalized cumulative integral and clipped to [0, B].
    """
    B = pmf.size - 1
    xk = np.concatenate([[-0.5], np.arange(B + 1), [B + 0.5]])
    yk = np.concatenate([[0.0], pmf, [0.0]])
    xs = np.linspace(-0.5, B + 0.5, 20 * (B + 1) + 1)
    dens = np.interp(xs, xk, yk)
    seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    if cdf[-1] <= 0:
        raise NumericalError("interpolated posterior has zero mass")
    cdf /= cdf[-1]
    lo = float(np.interp(mass_lo, cdf, xs))
    hi = float(np.interp(mass_hi, cdf, xs))
    return max(0.0, lo), min(float(B), hi)


def posterior(inp: InferenceInput) -> PosteriorDensity:
    """Posterior over n_t: likelihood times truncated Poisson(lambda*)."""
    lvec = likelihood_vector(inp.n_detected, inp.n_bins, inp.rates)
    lam = _golden_lambda(lvec)
    raw = np.exp(_log_truncated_poisson(lam, inp.n_bins)) * lvec
    total = float(raw.sum())
    if total <= 0 or not math.isfinite(total):
        raise NumericalError(
            "posterior mass vanished; detector rates inconsistent with data")
    pmf = raw / total
    mean = float(np.dot(np.arange(inp.n_bins + 1), pmf))
    peak = int(np.argmax(pmf))
    if pmf[peak] >= 1.0 - 1e-9:
        ci = (float(peak), float(peak))
    else:
        ci = _interpolated_ci(pmf)
    return PosteriorDensity(pmf=pmf, lambda_star=lam, mean_count=mean, ci68=ci)


@dataclass(frozen=True)
class DensityEstimate:
    """TLS density [1 / GHz / um^2] with its credible interval."""

    rho: float
    ci68: tuple[float, float]
    delta_f: float
    area: float

    @property
    def sigma_minus(self) -> float:
        return self.rho - self.ci68[0]

    @property
    def sigma_plus(self) -> float:
        return self.ci68[1] - self.rho


def density(post: PosteriorDensity, delta_f: float, area: float) -> DensityEstimate:
    """Posterior-mean count per swept bandwidth per junction area."""
    if delta_f <= 0 or area <= 0:
        raise ValidationError(
            f"delta_f and area must be positive (got {delta_f}, {area})")
    scale = 1.0 / (delta_f * area)
    return DensityEstimate(rho=post.mean_count * scale,
                           ci68=(post.ci68[0] * scale, post.ci68[1] * scale),
                           delta_f=delta_f, area=area)


@dataclass(frozen=True)
class DeviceSummary:
    """Device-level aggregate of per-resonator density estimates."""

    rho_mean: float
    sigma_plus: float
    sigma_minus: float
    n_resonators: int


def aggregate_device(estimates) -> DeviceSummary:
    """Mean density with error bounds added in quadrature over resonators.

    sigma_device = sqrt(sum sigma_i^2) / N for each side of the interval.
    """
    ests = list(estimates)
    if not ests:
        raise ValidationError("cannot aggregate an empty estimate list")
    n = len(ests)
    rho = sum(e.rho for e in ests) / n
    sp = math.sqrt(sum(e.sigma_plus ** 2 for e in ests)) / n
    sm = math.sqrt(sum(e.sigma_minus ** 2 for e in ests)) / n
    return DeviceSummary(rho_mean=rho, sigma_plus=sp, sigma_minus=sm, n_resonators=n)
