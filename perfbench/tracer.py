"""In-memory span tracer that wraps jjtls public functions from outside.

Each traced function is replaced, in every ``jjtls`` module that binds it
by name, with a wrapper that records one span: name, start, end, the span
that was open when it was called, and a few facts about the call (fit
seeding and convergence, bytes written, ensemble size, traces swept).
The package itself is not modified; ``Tracer.patched()`` restores every
binding on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

# (defining module, function, span name)
TARGETS = (
    ("jjtls.physics", "virtual_measure", "physics.virtual_measure"),
    ("jjtls.physics", "hanger_s21", "physics.hanger_s21"),
    ("jjtls.physics", "tls_s21", "physics.tls_s21"),
    ("jjtls.fitting", "fit_hanger", "fitting.fit_hanger"),
    ("jjtls.fitting", "residual_metric", "fitting.residual_metric"),
    ("jjtls.fitting", "background_split", "fitting.background_split"),
    ("jjtls.detector", "build_threshold", "detector.build_threshold"),
    ("jjtls.detector", "calibrate_noise", "detector.calibrate_noise"),
    ("jjtls.detector", "curve_follow", "detector.curve_follow"),
    ("jjtls.detector", "normalize_axis", "detector.normalize_axis"),
    ("jjtls.detector", "find_peaks", "detector.find_peaks"),
    ("jjtls.inference", "posterior", "inference.posterior"),
    ("jjtls.inference", "mle_lambda", "inference.mle_lambda"),
    ("jjtls.inference", "likelihood_vector", "inference.likelihood_vector"),
    ("jjtls.stats", "cluster_features", "stats.cluster_features"),
    ("jjtls.stats", "ridge_permutation_importance", "stats.ridge_permutation_importance"),
    ("jjtls.stats", "gamma_fit", "stats.gamma_fit"),
    ("jjtls.fileio", "trace_from_csv", "fileio.trace_from_csv"),
    ("jjtls.fileio", "atomic_write_text", "fileio.write"),
    ("jjtls.svgplot", "render", "svgplot.render"),
    ("jjtls.manifest", "write_manifest", "manifest.write_manifest"),
)

CLI_STAGES = ("simulate", "detect", "infer", "correlate", "report")


def _fit_facts(bound, out):
    return {"seeded": bound.arguments.get("init") is None,
            "returned": out is not None,
            "nfev": int(out.n_evals) if out is not None else 0,
            "converged": out is not None and bool(out.converged)}


# span name -> facts(bound arguments, return value or None if it raised)
FACTS = {
    "fitting.fit_hanger": _fit_facts,
    "fileio.write": lambda b, out: {"bytes": len(b.arguments["text"].encode())},
    "detector.build_threshold": lambda b, out: {"members": 2 * int(b.arguments["ensemble_size"])},
    "detector.curve_follow": lambda b, out: {"traces": len(out.traces) if out else 0},
}

# per-layer metrics in the order they are reported: (name, unit)
LAYER_METRICS = (
    ("physics.virtual_measure.calls", "count"),
    ("physics.virtual_measure.self_s", "s"),
    ("physics.hanger_s21.calls", "count"),
    ("physics.tls_s21.calls", "count"),
    ("fitting.fit_hanger.calls", "count"),
    ("fitting.fit_hanger.self_s", "s"),
    ("fitting.fit_hanger.seeded_calls", "count"),
    ("fitting.fit_hanger.nfev_mean", "evals"),
    ("fitting.fit_hanger.converged_ratio", "ratio"),
    ("fitting.residual_metric.calls", "count"),
    ("fitting.background_split.self_s", "s"),
    ("detector.build_threshold.s", "s"),
    ("detector.build_threshold.s_per_member", "s/member"),
    ("detector.build_threshold.fits_per_member", "fits/member"),
    ("detector.calibrate_noise.s", "s"),
    ("detector.calibrate_noise.fits", "count"),
    ("detector.curve_follow.self_s", "s"),
    ("detector.curve_follow.fits_per_trace", "fits/trace"),
    ("detector.normalize_axis.s", "s"),
    ("detector.find_peaks.s", "s"),
    ("inference.posterior.calls", "count"),
    ("inference.posterior.s", "s"),
    ("inference.mle_lambda.s", "s"),
    ("inference.likelihood_vector.calls", "count"),
    ("inference.likelihood_vector.s", "s"),
    ("stats.cluster_features.s", "s"),
    ("stats.ridge_permutation_importance.s", "s"),
    ("stats.gamma_fit.s", "s"),
    ("fileio.trace_from_csv.s", "s"),
    ("fileio.write.s", "s"),
    ("fileio.write.bytes", "B"),
    ("svgplot.render.s", "s"),
    ("manifest.write_manifest.s", "s"),
    *((f"cli.{stage}.s", "s") for stage in CLI_STAGES),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Tracer:
    """Spans are ``[name, start, end, parent index, facts]`` rows."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        row = [name, 0.0, 0.0, parent, None]
        self._open.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        return row

    def _end(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        row = self._begin(name)
        try:
            yield
        finally:
            self._end(row)

    def wrap(self, name: str, fn):
        facts = FACTS.get(name)
        sig = inspect.signature(fn) if facts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self._begin(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._end(row)
                if facts is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    row[4] = facts(bound, out)

        return traced

    @contextmanager
    def patched(self):
        """Bind a tracing wrapper wherever a jjtls module binds a target."""
        restore = []
        try:
            for module_name, func_name, span_name in TARGETS:
                original = getattr(importlib.import_module(module_name), func_name)
                wrapper = self.wrap(span_name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "jjtls" and not mod_name.startswith("jjtls."):
                        continue
                    if getattr(mod, func_name, None) is original:
                        setattr(mod, func_name, wrapper)
                        restore.append((mod, func_name, original))
            yield self
        finally:
            for mod, func_name, original in reversed(restore):
                setattr(mod, func_name, original)

    def layer_metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics of every span recorded so far."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, s in enumerate(spans):
            total[s[0]] = total.get(s[0], 0.0) + dur[i]
            self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child[i]
            calls[s[0]] = calls.get(s[0], 0) + 1

        def under(i: int, name: str) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        fits = [i for i, s in enumerate(spans) if s[0] == "fitting.fit_hanger"]
        facts = [spans[i][4] for i in fits]
        done = [f for f in facts if f["returned"]]
        fits_in = {name: sum(under(i, name) for i in fits)
                   for name in ("detector.build_threshold", "detector.calibrate_noise",
                                "detector.curve_follow")}
        members = sum(s[4]["members"] for s in spans if s[0] == "detector.build_threshold")
        traces = sum(s[4]["traces"] for s in spans if s[0] == "detector.curve_follow")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {}
        for name, unit in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                value = calls.get(layer, 0)
            elif kind == "s":
                value = total.get(layer, 0.0)
            elif kind == "self_s":
                value = self_s.get(layer, 0.0)
            else:
                value = None
            m[name] = {"value": value, "unit": unit}
        m["fitting.fit_hanger.seeded_calls"]["value"] = sum(f["seeded"] for f in facts)
        m["fitting.fit_hanger.nfev_mean"]["value"] = ratio(
            sum(d["nfev"] for d in done), len(done))
        m["fitting.fit_hanger.converged_ratio"]["value"] = ratio(
            sum(f["converged"] for f in facts), len(facts))
        m["detector.build_threshold.s_per_member"]["value"] = ratio(
            total.get("detector.build_threshold", 0.0), members)
        m["detector.build_threshold.fits_per_member"]["value"] = ratio(
            fits_in["detector.build_threshold"], members)
        m["detector.calibrate_noise.fits"]["value"] = fits_in["detector.calibrate_noise"]
        m["detector.curve_follow.fits_per_trace"]["value"] = ratio(
            fits_in["detector.curve_follow"], traces)
        m["fileio.write.bytes"]["value"] = sum(s[4]["bytes"] for s in spans
                                               if s[0] == "fileio.write")
        m["trace.overhead_s"]["value"] = overhead_s
        m["trace.spans"]["value"] = len(spans)
        return m
