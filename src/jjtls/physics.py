"""Forward models of flux-tunable JJ-array resonators and TLS coupling.

All frequencies (resonance, TLS transition, coupling g, decay gamma) are
ordinary frequencies in GHz.  Transmission is the dimensionless complex S21
of a hanger-coupled resonator, evaluated by :class:`Hanger` alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .constants import BOLTZMANN_K, GHZ, HBAR
from .errors import InvalidParameterError, ValidationError

# rng stream tags for counter-based seed splitting (seed, tag, index...)
RNG_MEASURE = 11
RNG_CAL_NOISE = 12
RNG_THRESHOLD = 13

_REAL, _INTEGER = (float, int, np.floating, np.integer), (int, np.integer)


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not (isinstance(v, _REAL) and math.isfinite(v)):
            raise InvalidParameterError(f"{name} must be a finite real number, got {v!r}")


@dataclass(frozen=True)
class ResonatorParams:
    """Hanger-model parameter set.

    f_r       resonance frequency [GHz]
    Q_l       loaded quality factor
    Q_e_mag   magnitude of the external quality factor
    theta     impedance-mismatch phase [rad]
    A         off-resonant transmission amplitude
    alpha     background amplitude slope (per unit fractional detuning)
    phi_v     phase slope [rad/GHz]
    phi_0     phase offset [rad]
    """

    f_r: float
    Q_l: float
    Q_e_mag: float
    theta: float = 0.0
    A: float = 1.0
    alpha: float = 0.0
    phi_v: float = 0.0
    phi_0: float = 0.0

    @property
    def kappa(self) -> float:
        """Full linewidth f_r / Q_l [GHz]."""
        return self.f_r / self.Q_l

    @property
    def q_internal_inverse(self) -> float:
        """1/Q_i = 1/Q_l - cos(theta)/|Q_e|; must be >= 0 for a physical device."""
        return 1.0 / self.Q_l - math.cos(self.theta) / self.Q_e_mag

    def validate(self) -> "ResonatorParams":
        _require_finite(f_r=self.f_r, Q_l=self.Q_l, Q_e_mag=self.Q_e_mag,
                        theta=self.theta, A=self.A, alpha=self.alpha,
                        phi_v=self.phi_v, phi_0=self.phi_0)
        if self.f_r <= 0 or self.Q_l <= 0 or self.Q_e_mag <= 0:
            raise InvalidParameterError(
                f"f_r, Q_l, Q_e_mag must be positive (got {self.f_r}, {self.Q_l}, {self.Q_e_mag})")
        if self.q_internal_inverse < 0:
            raise InvalidParameterError(
                f"unphysical resonator: 1/Q_i = {self.q_internal_inverse:.3e} < 0")
        return self

    def as_array(self) -> np.ndarray:
        return np.array([self.f_r, self.Q_l, self.Q_e_mag, self.theta,
                         self.A, self.alpha, self.phi_v, self.phi_0])

    @classmethod
    def from_array(cls, p: np.ndarray) -> "ResonatorParams":
        return cls(*(float(v) for v in p))


PARAM_NAMES = ("f_r", "Q_l", "Q_e_mag", "theta", "A", "alpha", "phi_v", "phi_0")


@dataclass(frozen=True)
class TLSDefect:
    """A single two-level system.

    f_tls        transition frequency [GHz]
    g            coupling strength [GHz]
    gamma        decay rate [GHz]
    temperature  bath temperature [K]
    """

    f_tls: float
    g: float
    gamma: float
    temperature: float = 0.010

    def validate(self) -> "TLSDefect":
        _require_finite(f_tls=self.f_tls, g=self.g, gamma=self.gamma,
                        temperature=self.temperature)
        if self.g < 0:
            raise InvalidParameterError(f"coupling g must be >= 0, got {self.g}")
        if self.gamma <= 0 or self.temperature <= 0 or self.f_tls <= 0:
            raise InvalidParameterError(
                f"f_tls, gamma, temperature must be positive "
                f"(got {self.f_tls}, {self.gamma}, {self.temperature})")
        return self

    def cooperativity(self, params: ResonatorParams) -> float:
        """C = 4 g^2 / (kappa * gamma)."""
        return 4.0 * self.g**2 / (params.kappa * self.gamma)


@dataclass(frozen=True)
class FluxConfig:
    """Flux-to-frequency map of the JJ-array resonator.

    f_bare            zero-detuning resonance frequency [GHz]
    n_islands         number of superconducting islands in the array
    m_trapped         trapped flux quanta in the loop
    flux_per_current  external flux per unit bias current [Phi_0 / mA]
    """

    f_bare: float
    n_islands: int
    m_trapped: int = 0
    flux_per_current: float = 1.0

    def validate(self) -> "FluxConfig":
        _require_finite(f_bare=self.f_bare, flux_per_current=self.flux_per_current)
        if not (isinstance(self.n_islands, _INTEGER) and isinstance(self.m_trapped, _INTEGER)):
            raise InvalidParameterError(f"n_islands and m_trapped must be integers, "
                                        f"got {self.n_islands!r} and {self.m_trapped!r}")
        if self.f_bare <= 0:
            raise InvalidParameterError(f"f_bare must be positive, got {self.f_bare}")
        if self.n_islands < 1:
            raise InvalidParameterError(f"n_islands must be >= 1, got {self.n_islands}")
        return self


def thermal_population(f_tls: float, temperature: float) -> float:
    """Thermal two-level polarization <sigma_z> = tanh(h f / k_B T).

    f_tls in GHz, temperature in K.
    """
    if not (temperature > 0) or not math.isfinite(temperature):
        raise InvalidParameterError(f"temperature must be positive, got {temperature}")
    return math.tanh(HBAR * 2.0 * math.pi * f_tls * GHZ / (BOLTZMANN_K * temperature))


def _background(f: np.ndarray, f_r: float, A: float, alpha: float, phi_v: float,
                phi_0: float):
    """x = (f - f_r) / f_r, background A (1 + alpha x), phase exp(i (phi_v f + phi_0))."""
    x = (f - f_r) / f_r
    return x, A * (1.0 + alpha * x), np.exp(1j * (phi_v * f + phi_0))


class Hanger:
    """Hanger S21 on the grid ``f`` for the 8-vector p in PARAM_NAMES order
    (unvalidated), optionally carrying one coupled TLS ``tls``:

    S21 = A (1 + alpha x) (1 - (Q_l/|Q_e|) e^{i theta} / D) * exp(i (phi_v f + phi_0)),
    D = 1 + 2 i Q_l (x + c/f_r),  x = (f - f_r)/f_r,  c = g^2 s_z / (f_tls - f + i s_z gamma/2)

    with s_z = thermal_population(f_tls, T); c is computed once per grid, and is
    absent without a defect.  It is the defect's weak-drive linear response
    (Mueller, Cole & Lisenfeld, Rep. Prog. Phys. 82, 124501, 2019) as a detuning
    shift: the angular-frequency denominator i (omega - omega_r) + omega_r/2Q_l
    + i g chi, chi = g s_z / (omega_tls - omega + i s_z gamma/2), is D omega_r/2Q_l
    because g chi / omega_r = c/f_r.  At g = 0, c = 0 and D = 1 + 2 i Q_l x.

    The terms are built once for the last p seen (keyed on its bytes) and
    shared by the model, the stacked [real, imag] residual S21 - ``data`` and
    its (8, 2M) Jacobian; a repeat call returns the same array, a new p new ones.
    """

    def __init__(self, f: np.ndarray, data: np.ndarray | None = None,
                 tls: TLSDefect | None = None):
        self.f, self.data, self._key, self._c = f, data, None, None
        if tls is not None:
            s_z = thermal_population(tls.f_tls, tls.temperature)
            self._c = tls.g**2 * s_z / (tls.f_tls - f + 0.5j * s_z * tls.gamma)

    def _at(self, p: np.ndarray) -> None:
        key = p.tobytes()
        if key == self._key:
            return
        f_r, Q_l, Q_e, th, A, al, phi_v, phi_0 = p.tolist()
        x, bg, E = _background(self.f, f_r, A, al, phi_v, phi_0)
        D = 1.0 + 2j * Q_l * (x if self._c is None else x + self._c / f_r)
        eth = np.exp(1j * th)
        lor = (Q_l / Q_e) * eth / D
        R = 1.0 - lor
        self._terms = f_r, Q_l, Q_e, eth, A, al, x, bg, E, D, lor, R
        self._key, self._S, self._res, self._jac = key, bg * R * E, None, None

    def model(self, p: np.ndarray) -> np.ndarray:
        self._at(p)
        return self._S

    def residuals(self, p: np.ndarray) -> np.ndarray:
        self._at(p)
        if self._res is None:
            s = self._S - self.data
            self._res = np.concatenate([s.real, s.imag])
        return self._res

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """dS21/dp as [real, imag] rows; a defect adds -c/f_r^2 to d(x + c/f_r)/df_r."""
        self._at(p)
        if self._jac is None:
            f_r, Q_l, Q_e, eth, A, al, x, bg, E, D, lor, R = self._terms
            S, bgE, dxdfr, dRdx = self._S, bg * E, self.f / -f_r**2, lor * 2j * Q_l / D
            dzdfr = dxdfr if self._c is None else dxdfr - self._c / f_r**2
            dS = np.empty((8, S.size), dtype=complex)
            np.multiply(E, A * al * dxdfr * R + bg * dRdx * dzdfr, out=dS[0])
            np.divide(-bgE * (eth / Q_e), D**2, out=dS[1])
            np.divide(bgE * lor, Q_e, out=dS[2])
            np.multiply(-1j * bgE, lor, out=dS[3])
            np.divide(S, A, out=dS[4])
            np.multiply(A * x * R, E, out=dS[5])
            np.multiply(1j, S, out=dS[7])
            np.multiply(dS[7], self.f, out=dS[6])
            self._jac = np.concatenate([dS.real, dS.imag], axis=1)
        return self._jac


def hanger_s21(params: ResonatorParams, f) -> np.ndarray | complex:
    """Complex hanger transmission at frequency f [GHz] (see :class:`Hanger`)."""
    farr = np.asarray(f, dtype=float)
    out = Hanger(farr).model(params.validate().as_array())
    return out if farr.ndim else complex(out)


def tls_s21(params: ResonatorParams, tls: TLSDefect, f) -> np.ndarray | complex:
    """Hanger transmission at frequency f [GHz] with one TLS coupled: :class:`Hanger`
    with the detuning x shifted by c/f_r; at g = 0, c = 0 and this is :func:`hanger_s21`."""
    farr = np.asarray(f, dtype=float)
    out = Hanger(farr, tls=tls.validate()).model(params.validate().as_array())
    return out if farr.ndim else complex(out)


def flux_to_freq(cfg: FluxConfig, flux):
    """Resonance frequency at external flux [units of Phi_0].

    f_bare / sqrt(1 + (1/2) u^2) with u = (2 pi / N) (flux - m).
    """
    cfg.validate()
    phi = np.asarray(flux, dtype=float)
    u = (2.0 * math.pi / cfg.n_islands) * (phi - cfg.m_trapped)
    out = cfg.f_bare / np.sqrt(1.0 + 0.5 * u**2)
    return out if phi.ndim else float(out)


@dataclass(frozen=True)
class Trace:
    """One complex transmission sweep at a fixed bias current."""

    freqs: np.ndarray        # strictly increasing, GHz
    s21: np.ndarray          # complex transmission samples
    bias_current: float = 0.0  # mA

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        s21 = np.asarray(self.s21, dtype=complex)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "s21", s21)
        if freqs.ndim != 1 or freqs.size != s21.size:
            raise ValidationError("freqs and s21 must be 1-d arrays of equal length")
        if freqs.size < 16:
            raise ValidationError(f"trace needs >= 16 points, got {freqs.size}")
        if not np.all(np.diff(freqs) > 0):
            raise ValidationError("frequency grid must be strictly increasing")

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True)
class Scenario:
    """Declarative description of a synthetic measurement campaign."""

    resonator: ResonatorParams
    flux: FluxConfig
    defects: tuple[TLSDefect, ...] = ()
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "defects", tuple(self.defects))

    def validate(self) -> "Scenario":
        self.resonator.validate()
        self.flux.validate()
        if self.noise_sigma < 0 or not math.isfinite(self.noise_sigma):
            raise InvalidParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        kappa = self.resonator.kappa
        freqs = sorted(d.validate().f_tls for d in self.defects)
        for lo, hi in zip(freqs, freqs[1:]):
            if hi - lo < kappa / 4.0:
                raise InvalidParameterError(
                    f"defects at {lo} and {hi} GHz collide within kappa/4 = {kappa / 4:.3e}")
        return self


def _nearest_defect(params: ResonatorParams, defects) -> TLSDefect | None:
    """The defect nearest in frequency to the resonance, within 10 kappa, validated."""
    best = None
    best_det = 10.0 * params.kappa
    for d in defects:
        det = abs(d.f_tls - params.f_r)
        if det <= best_det:
            best, best_det = d, det
    return best if best is None else best.validate()


def synth_trace(params: ResonatorParams, defects, freq_grid, noise_sigma: float,
                rng: np.random.Generator, *, bias_current: float = 0.0) -> Trace:
    """Noisy synthetic trace on a frequency grid.

    The model is :class:`Hanger` carrying the defect nearest to the resonance
    (within 10 kappa), or the bare hanger if none qualifies.
    Gaussian noise of std noise_sigma is added independently to both
    quadratures; the draw is deterministic for a given generator state.
    """
    grid = np.asarray(freq_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("frequency grid is empty")
    tls = _nearest_defect(params.validate(), defects)
    model = Hanger(grid, tls=tls).model(params.as_array())
    if noise_sigma > 0:
        noise = rng.normal(0.0, noise_sigma, grid.size) \
            + 1j * rng.normal(0.0, noise_sigma, grid.size)
        model = model + noise
    return Trace(freqs=grid, s21=model, bias_current=bias_current)


def _bias_bits(bias_current: float) -> int:
    # stable 64-bit key for a float bias value, used for seed splitting
    return struct.unpack("<Q", struct.pack("<d", float(bias_current)))[0]


def virtual_measure(scenario: Scenario, bias_current: float, f_center: float | None,
                    span: float, n_points: int) -> Trace:
    """Emulate one VNA sweep of the scenario resonator at a bias point.

    The resonance is tuned by the flux map; defects within span/2 of the
    tuned resonance are candidates for coupling.  f_center=None centers
    the sweep on the tuned resonance.  Deterministic per (seed, bias).
    """
    return scenario_instrument(scenario)(bias_current, f_center, span, n_points)


def scenario_instrument(scenario: Scenario):
    """:func:`virtual_measure` as a closure with the orchestrator's call signature;
    the scenario is validated here, once; a measurement checks its tuned resonator."""
    scenario.validate()

    def instrument(bias_current: float, f_center: float | None,
                   span: float, n_points: int) -> Trace:
        if span <= 0:
            raise ValidationError(f"span must be positive, got {span}")
        if n_points < 16:
            raise ValidationError(f"n_points must be >= 16, got {n_points}")
        f0 = flux_to_freq(scenario.flux, bias_current * scenario.flux.flux_per_current)
        fc = f0 if f_center is None else f_center
        grid = np.linspace(fc - span / 2.0, fc + span / 2.0, int(n_points))
        nearby = [d for d in scenario.defects if abs(d.f_tls - f0) <= span / 2.0]
        rng = np.random.default_rng([scenario.rng_seed, RNG_MEASURE, _bias_bits(bias_current)])
        return synth_trace(replace(scenario.resonator, f_r=f0), nearby, grid,
                           scenario.noise_sigma, rng, bias_current=bias_current)

    return instrument
