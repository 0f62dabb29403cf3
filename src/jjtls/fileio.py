"""File formats and atomic persistence for the pipeline stages.

All numeric text output uses shortest round-trip float formatting so that
repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .detector import DetectorCalibration, ResidualSeries
from .errors import SchemaError
from .physics import FluxConfig, ResonatorParams, Scenario, TLSDefect, Trace

SCHEMAS = {
    "scenario": """\
scenario.json — synthetic measurement campaign (JSON object)
  resonator: {f_r, Q_l, Q_e_mag, theta?, A?, alpha?, phi_v?, phi_0?}
             hanger parameters; frequencies in GHz
  flux:      {f_bare, n_islands, m_trapped?, flux_per_current?}
             flux map; flux_per_current in flux quanta per mA
  defects:   [{f_tls, g, gamma, temperature?}, ...]   optional, GHz / K
  noise_sigma: per-quadrature additive noise std (S21 units)
  rng_seed:  integer seed (pipeline --seed/config seed overrides)
""",
    "pipeline": """\
pipeline config (JSON object)
  scenario:  path to scenario.json (relative to the config file)
  sweep: {
    bias_plan: [mA, ...]            explicit plan, or
    bias_start, bias_stop, bias_points: linear plan
    span: sweep span per trace (GHz)
    n_points: samples per trace (>= 16)
    calibration_interval: [first, last] bias indices of the TLS-free region
    exclusions: [[first, last], ...] manual collision intervals (optional)
  }
  detector:  {ensemble_size?: int >= 1000, temperature?: K}   optional
  inference: {area: junction area (um^2), delta_f?: GHz (default: swept range)}
  seed:      root seed for all synthetic randomness
""",
    "trace": "trace_NNNN.csv — header: current_mA,freq_GHz,re_s21,im_s21",
    "fits": ("fits.csv — header: "
             "current_mA,f0_GHz,Ql,Qe,theta,residual_metric,converged"),
    "series": "residual_series.csv — header: shift_kappa,residual",
    "events": "events.csv — header: shift_kappa,freq_GHz,peak_residual",
    "calibration": ("calibration.json — threshold, fp, fn, noise_sigma, "
                    "gauss_noise [mean, std], gauss_tls [mean, std]"),
    "detection_meta": ("detection_meta.json — n_detected, n_bins, delta_f_GHz, "
                       "kappa_GHz, n_traces, n_included, "
                       "exclusions [[first, last, reason], ...]"),
    "posterior": "posterior.csv — header: n_t,prob",
    "estimate": ("estimate.json — rho, ci68 [lo, hi], lambda_star, mean_count, "
                 "count_ci68 [lo, hi], delta_f_GHz, area_um2, "
                 "rates {fp, fn, FP, FN} (density units: 1 / GHz / um^2)"),
    "densities": "densities.csv — header: treatment,resonator_id,rho,ci_lo,ci_hi",
    "morphology": ("morphology.csv — header: device_label,"
                   "electrode_thickness_mean,electrode_thickness_std,"
                   "electrode_thickness_rms,grain_width_mean,grain_width_std,"
                   "junction_thickness_mean,junction_thickness_std,"
                   "junction_thickness_rms,tls_density"),
    "manifest": ("manifest.json — config_hash, package_version, stage, outputs "
                 "[{path, sha256, bytes}]; timings live in timings.json, which "
                 "is intentionally outside the determinism contract"),
}

MORPHOLOGY_METRICS = (
    "electrode_thickness_mean", "electrode_thickness_std", "electrode_thickness_rms",
    "grain_width_mean", "grain_width_std",
    "junction_thickness_mean", "junction_thickness_std", "junction_thickness_rms",
)


def fnum(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(f"missing file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return obj[key]


def load_scenario(path: Path) -> Scenario:
    raw = read_json(path)
    where = str(path)
    res = _require(raw, "resonator", where)
    flux = _require(raw, "flux", where)
    try:
        scenario = Scenario(
            resonator=ResonatorParams(**res),
            flux=FluxConfig(**flux),
            defects=tuple(TLSDefect(**d) for d in raw.get("defects", [])),
            noise_sigma=float(_require(raw, "noise_sigma", where)),
            rng_seed=int(_require(raw, "rng_seed", where)),
        )
    except TypeError as exc:
        raise SchemaError(f"{where}: {exc}")
    scenario.validate()
    return scenario


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "resonator": {k: getattr(sc.resonator, k) for k in
                      ("f_r", "Q_l", "Q_e_mag", "theta", "A", "alpha",
                       "phi_v", "phi_0")},
        "flux": {k: getattr(sc.flux, k) for k in
                 ("f_bare", "n_islands", "m_trapped", "flux_per_current")},
        "defects": [{k: getattr(d, k) for k in
                     ("f_tls", "g", "gamma", "temperature")} for d in sc.defects],
        "noise_sigma": sc.noise_sigma,
        "rng_seed": sc.rng_seed,
    }


def sweep_plan(sweep_cfg: dict, where: str = "sweep") -> list[float]:
    if "bias_plan" in sweep_cfg:
        plan = [float(b) for b in sweep_cfg["bias_plan"]]
    else:
        for key in ("bias_start", "bias_stop", "bias_points"):
            _require(sweep_cfg, key, where)
        plan = list(np.linspace(float(sweep_cfg["bias_start"]),
                                float(sweep_cfg["bias_stop"]),
                                int(sweep_cfg["bias_points"])))
    if not plan:
        raise SchemaError(f"{where}: empty bias plan")
    return plan


# --------------------------------------------------------------------------
# trace CSV

TRACE_HEADER = "current_mA,freq_GHz,re_s21,im_s21"


def trace_to_csv(trace: Trace) -> str:
    buf = io.StringIO()
    buf.write(TRACE_HEADER + "\n")
    b = fnum(trace.bias_current)
    for f, s in zip(trace.freqs, trace.s21):
        buf.write(f"{b},{fnum(f)},{fnum(s.real)},{fnum(s.imag)}\n")
    return buf.getvalue()


def trace_from_csv(path: Path) -> Trace:
    freqs, re, im, bias = [], [], [], None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != TRACE_HEADER:
            raise SchemaError(f"{path}: expected header {TRACE_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise SchemaError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                b, f, r, i = (float(v) for v in row)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}")
            bias = b if bias is None else bias
            freqs.append(f)
            re.append(r)
            im.append(i)
    if not freqs:
        raise SchemaError(f"{path}: no data rows")
    return Trace(freqs=np.array(freqs),
                 s21=np.array(re) + 1j * np.array(im),
                 bias_current=float(bias))


def fits_to_csv(biases, fits) -> str:
    buf = io.StringIO()
    buf.write("current_mA,f0_GHz,Ql,Qe,theta,residual_metric,converged\n")
    for b, fit in zip(biases, fits):
        p = fit.params
        buf.write(",".join([fnum(b), fnum(p.f_r), fnum(p.Q_l), fnum(p.Q_e_mag),
                            fnum(p.theta), fnum(fit.residual_metric),
                            "1" if fit.converged else "0"]) + "\n")
    return buf.getvalue()


def series_to_csv(series: ResidualSeries) -> str:
    buf = io.StringIO()
    buf.write("shift_kappa,residual\n")
    for x, r in zip(series.shift_axis, series.residuals):
        buf.write(f"{fnum(x)},{fnum(r)}\n")
    return buf.getvalue()


def events_to_csv(events) -> str:
    buf = io.StringIO()
    buf.write("shift_kappa,freq_GHz,peak_residual\n")
    for e in events:
        buf.write(f"{fnum(e.shift_position)},{fnum(e.frequency)},{fnum(e.peak_residual)}\n")
    return buf.getvalue()


def calibration_to_dict(calib: DetectorCalibration) -> dict:
    return {
        "threshold": calib.threshold,
        "fp": calib.fp,
        "fn": calib.fn,
        "noise_sigma": calib.noise_sigma,
        "gauss_noise": list(calib.gauss_noise),
        "gauss_tls": list(calib.gauss_tls),
    }


def calibration_from_dict(raw: dict, where: str = "calibration") -> DetectorCalibration:
    try:
        return DetectorCalibration(
            threshold=float(_require(raw, "threshold", where)),
            fp=float(_require(raw, "fp", where)),
            fn=float(_require(raw, "fn", where)),
            noise_sigma=float(_require(raw, "noise_sigma", where)),
            gauss_noise=tuple(raw.get("gauss_noise", (0.0, 0.0))),
            gauss_tls=tuple(raw.get("gauss_tls", (float("inf"), 0.0))),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}")


# --------------------------------------------------------------------------
# correlate inputs

def read_densities_csv(path: Path):
    """-> list of dicts with treatment, resonator_id, rho, ci_lo, ci_hi."""
    want = ["treatment", "resonator_id", "rho", "ci_lo", "ci_hi"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in want if c not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append({
                    "treatment": row["treatment"].strip(),
                    "resonator_id": row["resonator_id"].strip(),
                    "rho": float(row["rho"]),
                    "ci_lo": float(row["ci_lo"]),
                    "ci_hi": float(row["ci_hi"]),
                })
            except (ValueError, AttributeError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return rows


def read_morphology_csv(path: Path):
    """-> (device_labels, feature_matrix, feature_names, tls_density)."""
    want = ["device_label", *MORPHOLOGY_METRICS, "tls_density"]
    labels, rows, dens = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in want if c not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                labels.append(row["device_label"].strip())
                rows.append([float(row[c]) for c in MORPHOLOGY_METRICS])
                dens.append(float(row["tls_density"]))
            except (ValueError, AttributeError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return labels, np.array(rows), list(MORPHOLOGY_METRICS), np.array(dens)
