"""File formats and atomic persistence for the pipeline stages.

All numeric text output uses shortest round-trip float formatting so that
repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DetectorCalibration
from .errors import SchemaError
from .physics import FluxConfig, ResonatorParams, Scenario, TLSDefect, Trace


@dataclass(frozen=True)
class Schema:
    """One file that a stage reads or writes.

    ``path`` is relative to the run directory; its ``*`` stands for the
    four-digit trace index or the stage name.  ``fields`` are the CSV
    columns in order or the JSON top-level keys; a trailing ``?`` marks a
    key that may be absent.  Entries without fields are figures, text or
    nested configs that ``note`` describes.
    """

    path: str
    writers: tuple[str, ...]
    readers: tuple[str, ...]
    fields: tuple[str, ...]
    note: str

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(f.rstrip("?") for f in self.fields)

    @property
    def required(self) -> tuple[str, ...]:
        return tuple(f for f in self.fields if not f.endswith("?"))


def _schema(path: str, writers: str, readers: str, fields: str, note: str) -> Schema:
    return Schema(path, tuple(writers.split()), tuple(readers.split()),
                  tuple(fields.split()), note)


_STAGES = "simulate detect infer correlate"

SCHEMAS = {
    "pipeline": _schema("pipeline.json", "", "simulate detect infer", "", """\
pipeline config passed as --config (JSON object)
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
  seed:      root seed for all synthetic randomness"""),
    "scenario": _schema("scenario.json", "", "simulate", "", """\
synthetic measurement campaign (JSON object)
  resonator: {f_r, Q_l, Q_e_mag, theta?, A?, alpha?, phi_v?, phi_0?}
             hanger parameters; frequencies in GHz
  flux:      {f_bare, n_islands, m_trapped?, flux_per_current?}
             flux map; flux_per_current in flux quanta per mA
  defects:   [{f_tls, g, gamma, temperature?}, ...]   optional, GHz / K
  noise_sigma: per-quadrature additive noise std (S21 units)
  rng_seed:  integer seed (pipeline --seed/config seed overrides)"""),
    "trace": _schema("traces/trace_*.csv", "simulate", "detect",
                     "current_mA freq_GHz re_s21 im_s21",
                     "one trace per bias point, numbered in bias-plan order"),
    "scenario_used": _schema("scenario_used.json", "simulate", "",
                             "resonator flux defects noise_sigma rng_seed",
                             "the simulated scenario, rng_seed set to the run seed"),
    "fits": _schema("fits.csv", "detect", "",
                    "current_mA f0_GHz Ql Qe theta residual_metric converged",
                    "one hanger fit per trace in bias order; converged is 1 or 0"),
    "series": _schema("residual_series.csv", "detect", "", "shift_kappa residual",
                      "residual metric on the kappa/4 frequency-shift grid"),
    "events": _schema("events.csv", "detect", "", "shift_kappa freq_GHz peak_residual",
                      "one row per detected TLS event"),
    "calibration": _schema("calibration.json", "detect", "infer",
                           "threshold fp fn noise_sigma gauss_noise gauss_tls",
                           "detector threshold and error rates; gauss_noise and "
                           "gauss_tls are [mean, std] of the two ensembles"),
    "detection_meta": _schema("detection_meta.json", "detect", "infer report",
                              "n_detected n_bins delta_f_GHz kappa_GHz n_traces? "
                              "n_included? exclusions?",
                              "detection count over the swept range; exclusions "
                              "is [[first, last, reason], ...]"),
    "residuals_plot": _schema("residuals.svg", "detect", "", "",
                              "residual metric vs frequency shift, threshold, events"),
    "posterior": _schema("posterior.csv", "infer", "", "n_t prob", "P(true TLS count)"),
    "estimate": _schema("estimate.json", "infer", "report",
                        "rho ci68 lambda_star mean_count count_ci68 delta_f_GHz "
                        "area_um2 rates",
                        "density in 1 / GHz / um^2; ci68 and count_ci68 are "
                        "[lo, hi]; rates is {fp, fn, FP, FN}"),
    "posterior_plot": _schema("posterior.svg", "infer", "", "",
                              "marginal likelihood of the rate and count posterior"),
    "densities": _schema("densities.csv", "", "correlate",
                         "treatment resonator_id rho ci_lo ci_hi",
                         "per-resonator densities, passed as --densities"),
    "morphology": _schema("morphology.csv", "", "correlate",
                          "device_label electrode_thickness_mean "
                          "electrode_thickness_std electrode_thickness_rms "
                          "grain_width_mean grain_width_std junction_thickness_mean "
                          "junction_thickness_std junction_thickness_rms tls_density",
                          "per-device microstructure, passed as --morphology; the "
                          "columns between device_label and tls_density are features"),
    "normality_tests": _schema("normality_tests.csv", "correlate", "", "treatment n W p",
                               "Shapiro-Wilk test of the densities per treatment"),
    "rank_tests": _schema("rank_tests.csv", "correlate", "", "treatment_1 treatment_2 H p",
                          "Kruskal-Wallis test of each pair of treatments"),
    "gamma_fits": _schema("gamma_fits.csv", "correlate", "",
                          "treatment n shape scale mean mean_stderr",
                          "gamma MLE of the densities per treatment"),
    "device_summaries": _schema("device_summaries.csv", "correlate", "",
                                "treatment n rho_mean sigma_plus sigma_minus",
                                "mean density per treatment with its 68% half-widths"),
    "feature_correlations": _schema("feature_correlations.csv", "correlate", "",
                                    "feature pearson_r pearson_p spearman_rho spearman_p",
                                    "each morphology feature against tls_density"),
    "correlation_report": _schema("correlation_report.json", "correlate", "",
                                  "threshold loocv_r2 ridge_alpha clusters "
                                  "representatives importances ranking",
                                  "feature clusters and ridge permutation importance; "
                                  "needs >= 4 devices and >= 2 varying features"),
    "importance_plot": _schema("importance.svg", "correlate", "", "",
                               "permutation importance, written with the report"),
    "densities_plot": _schema("densities.svg", "correlate", "", "",
                              "density distribution per treatment with gamma fits"),
    "notices": _schema("notices.json", "correlate", "", "notices",
                       "skipped or degenerate analyses, one sentence each"),
    "manifest": _schema("manifest_*.json", _STAGES, "report",
                        "stage config_hash package_version outputs",
                        "* is the stage; outputs is [{path, sha256, bytes}]"),
    "timings": _schema("timings_*.json", _STAGES, "", "seconds phases?",
                       "* is the stage; wall time and {phase: seconds} of the "
                       "stage's phases, outside the determinism contract"),
    "report": _schema("report.json", "report", "",
                      "stages detection_meta.json? estimate.json?",
                      "stage manifests, with detection_meta and estimate if present"),
    "report_md": _schema("report.md", "report", "", "", "the same summary as Markdown"),
}


def schema_text(name: str | None = None, *, stage: str | None = None) -> str:
    """One schema, or every schema a stage reads or writes (default: all)."""
    if name is not None and name not in SCHEMAS:
        raise SchemaError(f"unknown schema {name!r}; have: {', '.join(sorted(SCHEMAS))}")
    names = [name] if name is not None else [
        k for k, s in SCHEMAS.items() if stage is None or stage in s.writers + s.readers]
    out = []
    for k in names:
        s = SCHEMAS[k]
        out.append(f"{s.path} [{k}] — {s.note}")
        out += [f"  {verb} by: {', '.join(who)}"
                for verb, who in (("written", s.writers), ("read", s.readers)) if who]
        if s.path.endswith(".csv"):
            out.append(f"  columns: {','.join(s.fields)}")
        elif s.fields:
            out.append(f"  keys: {', '.join(s.fields)}"
                       + ("  (? may be absent)" if s.keys != s.fields else ""))
    return "\n".join(out)


def run_path(outdir: Path, name: str, tag: str = "") -> Path:
    """Where schema ``name`` lives in a run directory; ``tag`` fills its ``*``."""
    return Path(outdir) / SCHEMAS[name].path.replace("*", tag)


def fnum(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    return str(v) if isinstance(v, (int, np.integer)) else fnum(v)


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_text(outdir: Path, name: str, text: str, tag: str = "") -> Path:
    """Write a file of schema ``name`` into a run directory; its path."""
    path = run_path(outdir, name, tag)
    atomic_write_text(path, text)
    return path


def write_csv(outdir: Path, name: str, rows, tag: str = "") -> Path:
    """Write schema ``name`` with its header: floats in shortest round-trip
    form, ints and strings as they are."""
    cols = SCHEMAS[name].fields
    lines = [",".join(cols)]
    for row in rows:
        if len(row) != len(cols):
            raise SchemaError(f"{name}: row of {len(row)} values for {len(cols)} columns")
        lines.append(",".join(map(_cell, row)))
    return write_text(outdir, name, "\n".join(lines) + "\n", tag)


def write_record(outdir: Path, name: str, record: dict, tag: str = "") -> Path:
    """Write schema ``name`` as JSON after checking its keys against the table."""
    s = SCHEMAS[name]
    if not set(s.required) <= set(record) <= set(s.keys):
        raise SchemaError(f"{name}: keys {sorted(record)} do not match {s.fields}")
    path = run_path(outdir, name, tag)
    write_json(path, record)
    return path


def read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(f"missing file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})")


def _check_fields(path: Path, name: str, present, what: str) -> None:
    s = SCHEMAS[name]
    missing = [f for f in s.required if f not in present]
    if missing:
        hint = f"; re-run {' or '.join(s.writers)} to write it" if s.writers else ""
        raise SchemaError(f"{path}: missing {what} {', '.join(missing)}{hint}")


def read_record(path: Path, name: str) -> dict:
    """A JSON file of schema ``name`` that holds every required key."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    _check_fields(path, name, raw, "key(s)")
    return raw


def read_csv(path: Path, name: str, text=()) -> list[list]:
    """Rows of a CSV of schema ``name``, its columns in table order.

    Cells parse as finite floats except in the ``text`` columns, which
    are stripped strings.  Extra columns are ignored; errors name the line.
    """
    cols = SCHEMAS[name].fields
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return rows


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


def trace_rows(trace: Trace):
    """The rows of a trace CSV; the bias current repeats on every row."""
    return [(trace.bias_current, f, s.real, s.imag)
            for f, s in zip(trace.freqs, trace.s21)]


def trace_from_csv(path: Path) -> Trace:
    bias, freqs, re, im = zip(*read_csv(path, "trace"))
    return Trace(freqs=np.array(freqs), s21=np.array(re) + 1j * np.array(im),
                 bias_current=bias[0])


def calibration_from_dict(raw: dict) -> DetectorCalibration:
    """The calibration of a record that :func:`read_record` has checked."""
    try:
        return DetectorCalibration(
            threshold=float(raw["threshold"]), fp=float(raw["fp"]),
            fn=float(raw["fn"]), noise_sigma=float(raw["noise_sigma"]),
            gauss_noise=tuple(raw["gauss_noise"]), gauss_tls=tuple(raw["gauss_tls"]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"calibration: {exc}")


# --------------------------------------------------------------------------
# correlate inputs

def read_densities_csv(path: Path) -> list[dict]:
    """-> one dict per row, keyed by the densities columns."""
    cols = SCHEMAS["densities"].fields
    return [dict(zip(cols, row))
            for row in read_csv(path, "densities", text=cols[:2])]


def read_morphology_csv(path: Path):
    """-> (device_labels, feature_matrix, feature_names, tls_density)."""
    rows = read_csv(path, "morphology", text=("device_label",))
    return ([r[0] for r in rows], np.array([r[1:-1] for r in rows]),
            list(SCHEMAS["morphology"].fields[1:-1]), np.array([r[-1] for r in rows]))
