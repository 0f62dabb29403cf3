"""File formats and atomic persistence for the pipeline stages.

All numeric text output uses shortest round-trip float formatting so that
repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import SchemaError, ValidationError
from .physics import FluxConfig, ResonatorParams, Scenario, TLSDefect, Trace


@dataclass(frozen=True)
class Schema:
    """One file that a stage reads or writes.

    ``path`` is relative to the run directory; its ``*`` stands for the
    trace index (four digits or more) or the stage name.  ``fields`` are
    the CSV columns in order or the JSON top-level keys; a trailing ``?``
    marks a key that may be absent.  ``types`` are the JSON keys' types (see
    :func:`_check`), "" for CSV columns.  Entries without fields are figures,
    text or nested configs that ``note`` describes.
    """

    path: str
    writers: tuple[str, ...]
    readers: tuple[str, ...]
    fields: tuple[str, ...]
    note: str
    types: tuple[str, ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(f.rstrip("?") for f in self.fields)

    @property
    def required(self) -> tuple[str, ...]:
        return tuple(f for f in self.fields if not f.endswith("?"))


def _schema(path: str, writers: str, readers: str, fields: str, note: str) -> Schema:
    pairs = [f.partition(":")[::2] for f in fields.split()]
    return Schema(path, tuple(writers.split()), tuple(readers.split()),
                  tuple(f for f, _ in pairs), note, tuple(t for _, t in pairs))


_STAGES = "simulate detect infer correlate"
MIN_ENSEMBLE_SIZE = 1000  # build_threshold: fewest members per ensemble

SCHEMAS = {
    "pipeline": _schema("pipeline.json", "", "simulate detect infer", "", f"""\
pipeline config passed as --config (JSON object); a key not named here is an error
  scenario:  path to scenario.json (relative to the config file)
  sweep: {{
    bias_plan: [mA, ...]            explicit plan (wins), or
    bias_start, bias_stop (mA), bias_points (int >= 1): linear plan
    span: sweep span per trace (GHz > 0, default 10 kappa)
    n_points: samples per trace (int >= 16, default 201)
    calibration_interval: [first, last] bias indices of the TLS-free region
    exclusions: [[first, last], ...] manual collision intervals (optional)
  }}         each interval an int pair with 0 <= first <= last
  detector:  {{ensemble_size?: int >= {MIN_ENSEMBLE_SIZE} (default 5000)}}   optional
  inference: {{area: um^2 > 0, delta_f?: GHz > 0 or null (default: swept range)}}
  seed:      root seed for all synthetic randomness (integer >= 0)"""),
    "scenario": _schema("scenario.json", "", "simulate", "", """\
synthetic measurement campaign (JSON object)
  resonator: {f_r, Q_l, Q_e_mag, theta?, A?, alpha?, phi_v?, phi_0?}
             hanger parameters; frequencies in GHz
  flux:      {f_bare, n_islands, m_trapped?, flux_per_current?}
             flux map; flux_per_current in flux quanta per mA
  defects:   [{f_tls, g, gamma, temperature?}, ...]   optional, GHz / K
  noise_sigma: per-quadrature additive noise std (S21 units)
  rng_seed:  integer seed >= 0 (pipeline --seed/config seed overrides)"""),
    "trace": _schema("traces/trace_*.csv", "simulate", "detect",
                     "current_mA freq_GHz re_s21 im_s21",
                     "one trace per bias point, numbered in bias-plan order"),
    "loop_fits": _schema("loop_fits.csv", "simulate", "detect", "current_mA f_r Q_l Q_e_mag "
                         "theta A alpha phi_v phi_0 residual_metric converged n_evals",
                         "simulate's fit of each trace in trace order; converged is 1 "
                         "or 0, a failed fit's residual_metric is inf"),
    "scenario_used": _schema("scenario_used.json", "simulate", "",
                             "resonator:object flux:object defects:[object] "
                             "noise_sigma:number rng_seed:int>=0",
                             "the simulated scenario, rng_seed set to the run seed"),
    "fits": _schema("fits.csv", "detect", "",
                    "current_mA f0_GHz Ql Qe theta residual_metric converged",
                    "one hanger fit per trace in bias order; converged is 1 or 0"),
    "series": _schema("residual_series.csv", "detect", "", "shift_kappa residual",
                      "residual metric on the kappa/4 frequency-shift grid"),
    "events": _schema("events.csv", "detect", "", "shift_kappa freq_GHz peak_residual",
                      "one row per detected TLS event"),
    "calibration": _schema("calibration.json", "detect", "infer",
                           "threshold:number fp:number fn:number noise_sigma:number "
                           "gauss_noise:pair gauss_tls:pair",
                           "detector threshold, error rates, and each ensemble's (mean, std)"),
    "detection_meta": _schema("detection_meta.json", "detect", "infer report",
                              "n_detected:int>=0 n_bins:int>=1 delta_f_GHz:number>0 "
                              "kappa_GHz:number>0 n_traces?:int>=1 n_included?:int>=0 "
                              "exclusions?:[list]",
                              "detection count over the swept range; an exclusion is "
                              "[first, last, reason]"),
    "residuals_plot": _schema("residuals.svg", "detect", "", "",
                              "residual metric vs frequency shift, threshold, events"),
    "posterior": _schema("posterior.csv", "infer", "", "n_t prob", "P(true TLS count)"),
    "estimate": _schema("estimate.json", "infer", "report",
                        "rho:number ci68:pair lambda_star:number mean_count:number "
                        "count_ci68:pair delta_f_GHz:number>0 area_um2:number>0 "
                        "rates:{fp:number,fn:number,FP:number,FN:number}",
                        "density in 1 / GHz / um^2 and the count, each with its 68% interval"),
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
                                  "threshold:number loocv_r2:number ridge_alpha:number>0 "
                                  "clusters:[[text]] representatives:[text] "
                                  "importances:object ranking:[text]",
                                  "feature clusters and ridge permutation importance; "
                                  "needs >= 4 devices and >= 2 varying features"),
    "importance_plot": _schema("importance.svg", "correlate", "", "",
                               "permutation importance, written with the report"),
    "densities_plot": _schema("densities.svg", "correlate", "", "",
                              "density distribution per treatment with gamma fits"),
    "notices": _schema("notices.json", "correlate", "", "notices:[text]",
                       "skipped or degenerate analyses, one sentence each"),
    "manifest": _schema("manifest_*.json", _STAGES, "detect report",
                        "stage:text config_hash:text package_version:text "
                        "outputs:[{path:text,sha256:text,bytes:int>=0}]", "* is the stage"),
    "timings": _schema("timings_*.json", _STAGES, "", "seconds:number phases?:object",
                       "* is the stage; seconds in all and per phase, not deterministic"),
    "report": _schema("report.json", "report", "",
                      "stages:object detection_meta.json?:object estimate.json?:object",
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
            out.append("  keys:" + ("  (? may be absent)" if s.keys != s.fields else ""))
            out += [f"    {f}: {t}" for f, t in zip(s.fields, s.types)]
    return "\n".join(out)


def run_path(outdir: Path, name: str, tag: str = "") -> Path:
    """Where schema ``name`` lives in a run directory; ``tag`` fills its ``*``."""
    return Path(outdir) / SCHEMAS[name].path.replace("*", tag)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Written(NamedTuple):
    """A file as written: its path and the sha256 and size of its bytes."""

    path: Path
    sha256: str
    size: int


def atomic_write_text(path: Path, text: str) -> Written:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    data = text.encode("utf-8")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return Written(path, sha256_bytes(data), len(data))


def write_json(path: Path, obj) -> Written:
    return atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_text(outdir: Path, name: str, text: str, tag: str = "") -> Written:
    """Write a file of schema ``name`` into a run directory."""
    return atomic_write_text(run_path(outdir, name, tag), text)


def write_csv(outdir: Path, name: str, columns, tag: str = "") -> Written:
    """Write schema ``name`` with its header from its columns in table order,
    each formatted in one pass: floats in shortest round-trip form, ints and
    strings as they are.  A column holds one type (an int among floats would
    print as a float); a scalar column is one value on every row, formatted
    once; no columns at all write the header alone."""
    fields = SCHEMAS[name].fields
    cols = list(map(np.asarray, columns))
    rows = max((len(col) for col in cols if col.ndim), default=1)
    cells = [list(map(repr if col.dtype.kind == "f" else str, col.ravel().tolist()))
             * (1 if col.ndim else rows) for col in cols] or [[]] * len(fields)
    if len(cells) != len(fields) or len(set(map(len, cells))) != 1:
        raise SchemaError(f"{name}: columns of {[len(c) for c in cells]} values "
                          f"for {len(fields)} columns")
    lines = [",".join(fields), *map(",".join, zip(*cells))]
    return write_text(outdir, name, "\n".join(lines) + "\n", tag)


def write_record(outdir: Path, name: str, record: dict, tag: str = "") -> Written:
    """Write schema ``name`` as JSON after checking its keys against the table."""
    s = SCHEMAS[name]
    if not set(s.required) <= set(record) <= set(s.keys):
        raise SchemaError(f"{name}: keys {sorted(record)} do not match {s.fields}")
    return write_json(run_path(outdir, name, tag), record)


def read_json(path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"missing file: {path}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})")


def _check_fields(path: Path, name: str, present, what: str) -> None:
    s = SCHEMAS[name]
    missing = [f for f in s.required if f not in present]
    if missing:
        hint = f"; re-run {' or '.join(s.writers)} to write it" if s.writers else ""
        raise SchemaError(f"{path}: missing {what} {', '.join(missing)}{hint}")


def read_record(path: Path, name: str) -> dict:
    """A JSON file of schema ``name`` that holds every required key, each of its type."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    _check_fields(path, name, raw, "key(s)")
    for key, kind in zip(SCHEMAS[name].keys, SCHEMAS[name].types):
        if key in raw:
            _check(raw[key], f"{path}: {key}", kind)
    return raw


def read_csv(path: Path, name: str, text=(), data: bytes | None = None,
             finite: bool = True) -> list:
    """Columns of a CSV of schema ``name`` in table order: float arrays, and
    lists of stripped strings for the ``text`` columns.  ``data`` is the
    file's bytes if they are already read.  Extra columns are ignored.  An
    error names the first bad line, checking on a line the column count,
    then parsing, then (unless not ``finite``) finiteness.
    """
    cols = SCHEMAS[name].fields
    try:
        data = Path(path).read_bytes() if data is None else data
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        header = next(reader, [])
        records = list(reader)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})")
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise SchemaError(f"{path}:{reader.line_num}: {exc}")
    _check_fields(path, name, header, "column(s)")
    rows = [r for r in records if r]
    n = len(header)
    good = next((k for k, m in enumerate(map(len, rows)) if m != n), len(rows))
    by_header = list(zip(*rows[:good])) or [()] * n
    # (row, check, message) of every fault; the least (row, check) is raised,
    # the earlier column on a tie
    faults = []
    if good < len(rows):
        faults.append((good, 0, f"expected {n} columns, got {len(rows[good])}"))
    out = []
    for c in cols:
        cells = by_header[header.index(c)]
        if c in text:
            out.append([s.strip() for s in cells])
            continue
        values = []
        try:
            values.extend(map(float, cells))  # keeps the floats parsed before an error
        except ValueError as exc:
            faults.append((len(values), 1, str(exc)))
        out.append(np.array(values))
        bad = np.flatnonzero(~np.isfinite(out[-1]))
        if finite and bad.size:
            faults.append((bad[0], 2, f"column {c} is not finite"))
    if faults:
        k, _, msg = min(faults, key=lambda f: f[:2])
        lineno = [i for i, r in enumerate(records, start=2) if r][k]
        raise SchemaError(f"{path}:{lineno}: {msg}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return out


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return obj[key]


def checked_seed(value, field: str) -> int:
    """``value`` if it is a non-negative integer (JSON ``true`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{field} must be a non-negative integer, got {value!r}")
    return value


def load_scenario(path: Path) -> Scenario:
    raw = read_json(path)
    where = str(path)
    res = _require(raw, "resonator", where)
    flux = _require(raw, "flux", where)
    sigma = _require(raw, "noise_sigma", where)
    if isinstance(sigma, bool) or not isinstance(sigma, (int, float)):
        raise SchemaError(f"{where}: noise_sigma must be a number, got {sigma!r}")
    seed = checked_seed(_require(raw, "rng_seed", where), f"{where}: rng_seed")
    try:
        scenario = Scenario(
            resonator=ResonatorParams(**res),
            flux=FluxConfig(**flux),
            defects=tuple(TLSDefect(**d) for d in raw.get("defects", [])),
            noise_sigma=float(sigma), rng_seed=seed,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}")
    scenario.validate()
    return scenario


# the keys each section of pipeline.json may hold; "" is the top level
CONFIG_KEYS = {
    "": ("scenario", "sweep", "detector", "inference", "seed"),
    "sweep": ("bias_plan", "bias_start", "bias_stop", "bias_points", "span", "n_points",
              "calibration_interval", "exclusions"),
    "detector": ("ensemble_size",),
    "inference": ("area", "delta_f"),
}


def _section(obj, name: str, label: str) -> dict:
    """``obj`` if it is a JSON object that holds only keys ``CONFIG_KEYS[name]`` names."""
    _check(obj, label, "object")
    if extra := sorted(set(obj) - set(CONFIG_KEYS[name])):
        raise SchemaError(f"{label}{'.' if name else ': '}{extra[0]}: unknown key; "
                          f"{label} takes {', '.join(CONFIG_KEYS[name])} only")
    return obj


def checked_int(value, field: str, low: int) -> int:
    """``value`` if it is an int >= ``low`` (JSON true is no count)."""
    if type(value) is not int or value < low:
        raise SchemaError(f"{field} must be an int >= {low}, got {value!r}")
    return value


def checked_number(value, field: str, positive: bool = False) -> float:
    """``value`` as a float if it is a finite number, > 0 if ``positive``."""
    if (type(value) not in (int, float) or not abs(value) <= sys.float_info.max
            or positive and value <= 0):
        raise SchemaError(f"{field} must be a {'positive' if positive else 'finite'} "
                          f"number, got {value!r}")
    return float(value)


def checked_pair(value, field: str) -> tuple[float, float]:
    """``value`` as a pair of floats if it is a list of two finite numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise SchemaError(f"{field} must be a pair of numbers, got {value!r}")
    return tuple(checked_number(v, f"{field}[{k}]") for k, v in enumerate(value))


def _check(value, field: str, kind: str) -> None:
    """Raise unless ``value`` is of ``kind``, a JSON type as the table writes it:
    int>=N, number, number>0 (finite), pair (of numbers), text, list, object,
    [type] (a list of that type) or {key:type,...} (an object holding those keys)."""
    if kind.startswith("int>="):
        checked_int(value, field, int(kind[5:]))
    elif kind.startswith("number"):
        checked_number(value, field, kind == "number>0")
    elif kind == "pair":
        checked_pair(value, field)
    elif kind.startswith("["):
        _items(value, field, _check, kind[1:-1])
    else:
        keys = [p.partition(":")[::2] for p in kind[1:-1].split(",")] if kind[0] == "{" else []
        shown, want = {"text": ("text", str), "list": ("a list", list),
                       "object": ("an object", dict)}["object" if keys else kind]
        if not (isinstance(value, want) and all(k in value for k, _ in keys)):
            held = " with " + ", ".join(k for k, _ in keys) if keys else ""
            raise SchemaError(f"{field} must be {shown}{held}, got {value!r}")
        for k, sub in keys:
            _check(value[k], f"{field}.{k}", sub)


def _interval(value, field: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value) and 0 <= value[0] <= value[1]):
        raise SchemaError(f"{field} must be an int pair 0 <= first <= last, got {value!r}")
    return tuple(value)


def _items(value, field: str, check, *args) -> tuple:
    if not isinstance(value, list):
        raise SchemaError(f"{field} must be a list, got {value!r}")
    return tuple(check(v, f"{field}[{k}]", *args) for k, v in enumerate(value))


def _get(section: dict, field: str, check, *args):
    """``section``'s value of the last part of ``field``, checked; None if absent."""
    key = field.rpartition(".")[2]
    return check(section[key], field, *args) if key in section else None


@dataclass(frozen=True)
class PipelineConfig:
    """Every value a stage reads from pipeline.json, None where a key is absent;
    ``raw`` is the object as read, ``--seed`` applied, which manifests hash."""

    raw: dict
    scenario: Path
    seed: int
    bias_plan: tuple[float, ...] | None
    span: float | None
    n_points: int
    calibration_interval: tuple[int, int] | None
    exclusions: tuple[tuple[int, int], ...]
    ensemble_size: int
    area: float | None
    delta_f: float | None


def load_pipeline_config(path: Path, seed: int | None = None) -> PipelineConfig:
    """``path`` read once, every value checked; ``seed`` replaces the config's own."""
    raw = _section(read_json(path), "", str(path))
    for key in ("scenario", "sweep", "inference"):
        if key not in raw:
            raise SchemaError(f"{path}: missing required section {key!r}")
    if "seed" not in raw:
        raise SchemaError(f"{path}: a root seed is mandatory for synthetic runs")
    checked_seed(raw["seed"], f"{path}: seed")
    raw = raw if seed is None else {**raw, "seed": seed}
    if not isinstance(raw["scenario"], str):
        raise SchemaError(f"scenario must be a path, got {raw['scenario']!r}")
    sweep, detector, inference = (_section(raw.get(k, {}), k, k)
                                  for k in ("sweep", "detector", "inference"))
    start, stop = (_get(sweep, f"sweep.{k}", checked_number) for k in ("bias_start", "bias_stop"))
    points = _get(sweep, "sweep.bias_points", checked_int, 1)
    plan = _get(sweep, "sweep.bias_plan", _items, checked_number)
    if plan == ():
        raise SchemaError("sweep: empty bias plan")
    if plan is None and None not in (start, stop, points):
        plan = tuple(np.linspace(start, stop, points).tolist())
    delta_f = inference.get("delta_f")  # null: the swept range
    return PipelineConfig(
        raw=raw, scenario=Path(path).resolve().parent / raw["scenario"], seed=raw["seed"],
        bias_plan=plan, span=_get(sweep, "sweep.span", checked_number, True),
        n_points=checked_int(sweep.get("n_points", 201), "sweep.n_points", 16),
        calibration_interval=_get(sweep, "sweep.calibration_interval", _interval),
        exclusions=_items(sweep.get("exclusions", []), "sweep.exclusions", _interval),
        ensemble_size=checked_int(detector.get("ensemble_size", 5000),
                                  "detector.ensemble_size", MIN_ENSEMBLE_SIZE),
        area=_get(inference, "inference.area", checked_number, True),
        delta_f=None if delta_f is None else checked_number(delta_f, "inference.delta_f", True))


def trace_from_csv(path: Path, data: bytes | None = None) -> Trace:
    bias, freqs, re, im = read_csv(path, "trace", data=data)
    return Trace(freqs=freqs, s21=re + 1j * im, bias_current=float(bias[0]))


def trace_current(path: Path, data: bytes) -> float:
    """A trace file's bias current as :func:`trace_from_csv` reads it, from two lines."""
    return float(read_csv(path, "trace", data=b"\n".join(data.split(b"\n", 2)[:2]))[0][0])


@dataclass(frozen=True)
class DetectorCalibration:
    """Threshold and error rates calibrated from synthetic ensembles."""

    threshold: float
    fp: float
    fn: float
    noise_sigma: float
    gauss_noise: tuple[float, float]   # (mean, std) of noise-only residuals
    gauss_tls: tuple[float, float]     # (mean, std) of TLS-coupled residuals

    def __post_init__(self):
        if not (0.0 <= self.fp <= 1.0 and 0.0 <= self.fn <= 1.0):
            raise ValidationError("fp and fn must lie in [0, 1]")
        if not (self.gauss_noise[0] < self.threshold < self.gauss_tls[0]):
            raise ValidationError("threshold must lie between the two residual means")


def calibration_from_dict(raw: dict, path: Path) -> DetectorCalibration:
    """The calibration of a record that :func:`read_record` has checked."""
    values = {k: float(raw[k]) for k in ("threshold", "fp", "fn", "noise_sigma")}
    values |= {k: tuple(map(float, raw[k])) for k in ("gauss_noise", "gauss_tls")}
    try:
        return DetectorCalibration(**values)
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}")


# --------------------------------------------------------------------------
# correlate inputs

def read_densities_csv(path: Path) -> dict:
    """-> {column: values}: treatment and resonator_id are lists of strings,
    the rest float arrays, in row order."""
    cols = SCHEMAS["densities"].fields
    return dict(zip(cols, read_csv(path, "densities", text=cols[:2])))


def read_morphology_csv(path: Path):
    """-> (device_labels, feature_matrix, feature_names, tls_density)."""
    labels, *features, density = read_csv(path, "morphology", text=("device_label",))
    return (labels, np.stack(features, axis=1), list(SCHEMAS["morphology"].fields[1:-1]),
            density)
