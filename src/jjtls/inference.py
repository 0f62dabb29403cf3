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
from scipy.special import gammaln, xlog1py, xlogy

from .errors import NumericalError, ValidationError

CI_MASS = 0.6827
_Q_LO = (1.0 - CI_MASS) / 2.0          # 0.15865
_Q_HI = 1.0 - _Q_LO                     # 0.84135


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """``scipy.special.logsumexp`` of a real array in scipy's own arithmetic:
    the m maxima of a slice leave its shifted exp-sum s, giving log1p(s/m) +
    log(m) + max, or log(sum(exp(a))) where that is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=axis, keepdims=True, dtype=float)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
        if not np.isfinite(out).all():  # slices all -inf, holding +inf or NaN
            out = np.where(np.isfinite(out), out,
                           np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return out if keepdims else out.squeeze(axis)


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


def _poisson_terms(n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts k = 0..B and log k!, the rate-free terms of the prior's log pmf."""
    k = np.arange(n_bins + 1)
    return k, gammaln(k + 1)


def _log_truncated_poisson(lam, k: np.ndarray, log_kfact: np.ndarray) -> np.ndarray:
    """Log pmf of Poisson(lam) truncated and renormalized to the counts k;
    a column of rates (L, 1) gives one row per rate."""
    logw = xlogy(k, lam) - log_kfact
    return logw - logsumexp(logw, axis=-1, keepdims=True)


def _marginal(lam: float, lvec: np.ndarray, k: np.ndarray, log_kfact: np.ndarray) -> float:
    """P(n_m | lambda) given the count likelihood vector over n_t."""
    return float(np.dot(np.exp(_log_truncated_poisson(lam, k, log_kfact)), lvec))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def mle_lambda(n_m: int, n_bins: int, rates: DetectorRates) -> float:
    """Golden-section maximizer of the marginal likelihood on [0, B]."""
    InferenceInput(n_detected=n_m, n_bins=n_bins, rates=rates)
    return _golden_lambda(likelihood_vector(n_m, n_bins, rates), *_poisson_terms(n_bins))


def _golden_lambda(lvec: np.ndarray, k: np.ndarray, log_kfact: np.ndarray) -> float:
    """Golden-section maximizer on [0, B], to 1e-6 relative, given the count
    likelihood vector and the prior's rate-free terms from :func:`_poisson_terms`."""
    a, b = 0.0, float(lvec.size - 1)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _marginal(c, lvec, k, log_kfact), _marginal(d, lvec, k, log_kfact)
    while b - a > 1e-6 * max(1.0, b):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _marginal(c, lvec, k, log_kfact)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _marginal(d, lvec, k, log_kfact)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class PosteriorDensity:
    """Posterior over the true TLS count of one resonator, and the likelihood it weighs."""

    pmf: np.ndarray
    lambda_star: float
    mean_count: float
    ci68: tuple[float, float]
    likelihood: np.ndarray

    def __post_init__(self):
        if abs(float(np.sum(self.pmf)) - 1.0) > 1e-9:
            raise ValidationError("posterior pmf must sum to 1")
        if self.lambda_star < 0 or self.ci68[0] > self.ci68[1]:
            raise ValidationError("invalid posterior summary")

    def marginal_likelihood(self, lam) -> np.ndarray:
        """P(n_m | lambda) at each rate of the 1-d ``lam`` under the truncated
        Poisson prior, from this posterior's own count likelihood."""
        lams = np.asarray(lam, dtype=float)
        if np.any(lams < 0):
            raise ValidationError(f"lambda must be >= 0, got {lam}")
        prior = _log_truncated_poisson(lams[:, None], *_poisson_terms(self.likelihood.size - 1))
        return np.exp(prior) @ self.likelihood


def _interpolated_ci(pmf: np.ndarray) -> tuple[float, float]:
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
    lo = float(np.interp(_Q_LO, cdf, xs))
    hi = float(np.interp(_Q_HI, cdf, xs))
    return max(0.0, lo), min(float(B), hi)


def posterior(inp: InferenceInput) -> PosteriorDensity:
    """Posterior over n_t: likelihood times truncated Poisson(lambda*)."""
    lvec = likelihood_vector(inp.n_detected, inp.n_bins, inp.rates)
    k, log_kfact = _poisson_terms(inp.n_bins)
    lam = _golden_lambda(lvec, k, log_kfact)
    raw = np.exp(_log_truncated_poisson(lam, k, log_kfact)) * lvec
    total = float(raw.sum())
    if total <= 0 or not math.isfinite(total):
        raise NumericalError(
            "posterior mass vanished; detector rates inconsistent with data")
    pmf = raw / total
    mean = float(np.dot(k, pmf))
    peak = int(np.argmax(pmf))
    if pmf[peak] >= 1.0 - 1e-9:
        ci = (float(peak), float(peak))
    else:
        ci = _interpolated_ci(pmf)
    return PosteriorDensity(pmf=pmf, lambda_star=lam, mean_count=mean, ci68=ci,
                            likelihood=lvec)


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
    return DeviceSummary(rho_mean=rho, sigma_plus=sp, sigma_minus=sm)
