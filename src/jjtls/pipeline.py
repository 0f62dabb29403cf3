"""Pipeline stages behind the CLI: simulate, detect, infer, correlate, report.

Every stage reads declared files, writes its outputs atomically into the
run directory, and finishes with a checksummed manifest.  All synthetic
randomness derives from the single root seed in the config.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .errors import CalibrationError, JJTLSError, SchemaError, ValidationError
from .fileio import (SCHEMAS, PipelineConfig, calibration_from_dict, load_scenario, read_csv,
                     read_densities_csv, read_morphology_csv, read_record, run_path,
                     trace_current, trace_from_csv, write_csv, write_record, write_text)
from .manifest import listing, unlisted, vouches, write_manifest


class _Clock:
    """Wall time of a stage and of its named phases (perf_counter spans)."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t

    def timings(self) -> dict:
        return {"seconds": time.perf_counter() - self.t0, "phases": self.phases}


def _fit_columns(bias, fits) -> list:
    """The columns of ``loop_fits.csv``: bias current, the 8 parameters, metric,
    converged (1 or 0) and evaluations of each trace's fit."""
    params = np.array([f.params.as_array() for f in fits])
    return [bias, *params.T, [f.residual_metric for f in fits],
            [int(f.converged) for f in fits], [f.n_evals for f in fits]]


def _loop_fits(table: Path, blobs: dict, trace_files) -> tuple[list, list] | None:
    """The bias currents and fits of ``loop_fits.csv``, or None unless its rows
    pair one to one with ``trace_files`` by the current on each trace's first
    row, in increasing current: simulate's closed loop fitted those very bytes
    in that order.  ``blobs`` maps each path to the bytes read from it."""
    from .fitting import FitResult
    from .physics import ResonatorParams
    try:
        currents = [trace_current(p, blobs[p]) for p in trace_files]
    except SchemaError:  # parsed in full, where the error is raised as before
        return None
    bias, *cols = (c.tolist() for c in read_csv(table, "loop_fits", data=blobs[table],
                                                 finite=False))
    if bias != currents or bias != sorted(bias):
        return None
    return currents, [FitResult(ResonatorParams(*row[:8]), row[8], bool(row[9]), int(row[10]))
                  for row in zip(*cols)]


def _trace_index(path: Path) -> int:
    """The bias-plan index ``k`` of ``traces/trace_<k>.csv``."""
    if not (k := path.stem.removeprefix("trace_")).isdecimal():
        raise SchemaError(f"{path}: a trace file is named trace_<index>.csv")
    return int(k)


def cmd_simulate(cfg: PipelineConfig, outdir: Path) -> dict:
    """Drive the virtual instrument along the bias plan; write trace CSVs."""
    from .detector import curve_follow
    from .physics import scenario_instrument
    clock = _Clock()
    outdir = Path(outdir)
    if any(outdir.glob(SCHEMAS["trace"].path)):
        raise ValidationError(f"{outdir / 'traces'} holds another run's traces; use a new --outdir")
    if cfg.bias_plan is None:
        raise SchemaError("sweep: simulate needs bias_plan or bias_start, bias_stop, bias_points")
    scenario = replace(load_scenario(cfg.scenario), rng_seed=cfg.seed)
    span = 10 * scenario.resonator.kappa if cfg.span is None else cfg.span

    with clock.phase("sweep"):
        sweep = curve_follow(scenario_instrument(scenario), cfg.bias_plan, span, cfg.n_points)
    with clock.phase("write"):
        files = [write_csv(outdir, "trace", [t.bias_current, t.freqs, t.s21.real, t.s21.imag],
                           f"{k:04d}") for k, t in enumerate(sweep.traces)]
        files.append(write_csv(outdir, "loop_fits", _fit_columns(sweep.bias_currents, sweep.fits)))
        files.append(write_record(outdir, "scenario_used", asdict(scenario)))
    write_manifest(outdir, "simulate", cfg.raw, files, timings=clock.timings())
    return {"n_traces": len(sweep.traces), "outdir": str(outdir)}


def cmd_detect(cfg: PipelineConfig, outdir: Path) -> dict:
    """Fit traces in bias order, calibrate the detector, and emit the detected events."""
    from .detector import (SweepDataset, apply_exclusions, build_threshold,
                           calibrate_noise, count_sweep, fit_next)
    from .physics import ResonatorParams
    from .svgplot import Panel, render
    clock = _Clock()
    outdir = Path(outdir)
    if cfg.calibration_interval is None:
        raise SchemaError("sweep.calibration_interval is required for detection")
    lo, hi = cfg.calibration_interval
    trace_files = sorted(outdir.glob(SCHEMAS["trace"].path), key=_trace_index)
    if not trace_files:
        raise SchemaError(f"no trace files {outdir / SCHEMAS['trace'].path}; "
                          "run simulate first or point --outdir at recorded data")
    table = run_path(outdir, "loop_fits")
    listed = listing(outdir, "simulate", [*trace_files, table])
    if stray := unlisted(listed, trace_files):
        raise SchemaError(f"{stray[0]}: a trace that manifest_simulate.json does not list")
    with clock.phase("load"):
        blobs = {p: p.read_bytes() for p in trace_files}
        if hi >= len(trace_files):
            raise ValidationError(f"sweep.calibration_interval [{lo}, {hi}] outside sweep "
                                  f"of {len(trace_files)} steps")
        if table.is_file():
            blobs[table] = table.read_bytes()
    loop, traces = None, {}
    if table in blobs and vouches(listed, blobs):
        with clock.phase("loop_fits"):
            loop = _loop_fits(table, blobs, trace_files)
    if loop is None:
        with clock.phase("load"):
            traces = {i: trace_from_csv(p, blobs[p]) for i, p in enumerate(trace_files)}
        bias = [t.bias_current for t in traces.values()]
        with clock.phase("fit"):
            fits, history = [None] * len(traces), []
            for i in np.argsort(bias, kind="stable"):
                fits[i] = fit_next(traces[i], history)
    else:
        bias, fits = loop

    sweep = apply_exclusions(SweepDataset(bias, fits), cfg.exclusions)

    with clock.phase("write"):
        columns = _fit_columns(bias, fits)   # fits.csv drops A, alpha, phi_v, phi_0, n_evals
        files = [write_csv(outdir, "fits", columns[:5] + columns[9:11])]

    # --- calibration from the user-designated flat interval; on failure the
    # fit table above stays on disk for inspection
    included = set(sweep.included_indices().tolist())
    cal_idx = [i for i in range(lo, hi + 1) if i in included]
    if len(cal_idx) < 3:
        raise CalibrationError(
            f"calibration interval [{lo}, {hi}] has {len(cal_idx)} usable fits")
    cal_res = np.array([fits[i].residual_metric for i in cal_idx])
    flatness = float(cal_res.max() / np.median(cal_res)) if np.median(cal_res) > 0 else 1.0
    if flatness >= 2.0:
        raise CalibrationError(
            f"calibration region not flat: max/median = {flatness:.2f} >= 2")
    baseline_i = cal_idx[int(np.argsort(cal_res)[len(cal_res) // 2])]
    with clock.phase("load"):  # a vouched run parses only this trace
        path = trace_files[baseline_i]
        baseline = traces[baseline_i] if traces else trace_from_csv(path, blobs[path])
    with clock.phase("calibrate_noise"):
        noise_sigma = calibrate_noise(baseline, fits[baseline_i], seed=cfg.seed)

    # average fitted parameters over the calibration interval
    pvecs = np.array([fits[i].params.as_array() for i in cal_idx])
    cal_params = ResonatorParams.from_array(pvecs.mean(axis=0))
    with clock.phase("build_threshold"):
        calib = build_threshold(cal_params, noise_sigma,
                                ensemble_size=cfg.ensemble_size,
                                seed=cfg.seed, n_points=len(baseline))
    with clock.phase("count"):
        count = count_sweep(sweep, calib)
    series, events = count.series, count.events

    with clock.phase("write"):
        files.append(write_csv(outdir, "series", [series.shift_axis, series.residuals]))
        files.append(write_csv(outdir, "events", [
            [e.shift_position for e in events], [e.frequency for e in events],
            [e.peak_residual for e in events]]))
        files.append(write_record(outdir, "calibration", asdict(calib)))
        files.append(write_record(outdir, "detection_meta", {
            "n_detected": len(events),
            "n_bins": count.n_bins,
            "delta_f_GHz": count.delta_f,
            "kappa_GHz": count.kappa,
            "n_traces": len(bias),
            "n_included": len(included),
            "exclusions": [[e.start, e.stop, e.reason] for e in sweep.exclusions],
        }))

        panel = Panel(title="residual metric vs frequency shift",
                      xlabel="shift [kappa]", ylabel="residual metric", logy=True)
        panel.add_line(series.shift_axis, np.maximum(series.residuals, 1e-12), "residual")
        panel.add_hline(calib.threshold, "threshold")
        if events:
            panel.add_points([e.shift_position for e in events],
                             [max(e.peak_residual, 1e-12) for e in events], "events")
        in_gap = ~series.valid
        if in_gap.any():
            edges = np.flatnonzero(np.diff(np.concatenate([[0], in_gap.view(np.int8), [0]])))
            for a, b in zip(edges[::2], edges[1::2]):
                panel.add_vspan(series.shift_axis[a],
                                series.shift_axis[min(b, len(series) - 1)])
        files.append(write_text(outdir, "residuals_plot", render(panel)))

    write_manifest(outdir, "detect", cfg.raw, files, timings=clock.timings())
    return {"n_events": len(events), "n_bins": count.n_bins, "threshold": calib.threshold,
            "noise_sigma": noise_sigma, "outdir": str(outdir)}


def cmd_infer(cfg: PipelineConfig, outdir: Path) -> dict:
    """Convert detections into a posterior TLS count and density estimate."""
    from .inference import InferenceInput, density, posterior, true_rates
    from .svgplot import Panel, render
    clock = _Clock()
    outdir = Path(outdir)
    if cfg.area is None:
        raise SchemaError("inference.area (junction area in um^2) is required")
    with clock.phase("load"):
        meta = read_record(run_path(outdir, "detection_meta"), "detection_meta")
        calib = calibration_from_dict(
            read_record(cal := run_path(outdir, "calibration"), "calibration"), cal)
    delta_f = cfg.delta_f or float(meta["delta_f_GHz"])

    rates = true_rates(calib.fp, calib.fn)
    inp = InferenceInput(n_detected=meta["n_detected"], n_bins=meta["n_bins"], rates=rates)
    with clock.phase("posterior"):
        post = posterior(inp)
    est = density(post, delta_f=delta_f, area=cfg.area)

    files = [write_csv(outdir, "posterior", [np.arange(post.pmf.size), post.pmf])]
    files.append(write_record(outdir, "estimate", {
        "rho": est.rho,
        "ci68": [est.ci68[0], est.ci68[1]],
        "lambda_star": post.lambda_star,
        "mean_count": post.mean_count,
        "count_ci68": [post.ci68[0], post.ci68[1]],
        "delta_f_GHz": delta_f,
        "area_um2": cfg.area,
        "rates": {"fp": rates.fp, "fn": rates.fn, "FP": rates.FP, "FN": rates.FN},
    }))

    lam_grid = np.linspace(0.0, max(3.0 * post.lambda_star, 3.0), 121)
    lvals = post.marginal_likelihood(lam_grid)
    if lvals.max() > 0:
        lvals = lvals / lvals.max()
    top = Panel(title="marginal likelihood of the TLS rate",
                xlabel="lambda", ylabel="L / L_max")
    top.add_line(lam_grid, lvals, "likelihood")
    show = min(inp.n_bins, max(int(math.ceil(post.ci68[1])) + 8, 12))
    bottom = Panel(title="posterior over the true TLS count",
                   xlabel="N_T", ylabel="P(N_T | N_m)")
    ks = np.arange(show + 1)
    bottom.add_line(ks, post.pmf[:show + 1], "posterior")
    bottom.add_vspan(post.ci68[0], post.ci68[1])
    files.append(write_text(outdir, "posterior_plot", render([top, bottom])))

    write_manifest(outdir, "infer", cfg.raw, files, timings=clock.timings())
    return {"rho": est.rho, "ci68": list(est.ci68), "lambda_star": post.lambda_star,
            "outdir": str(outdir)}


def cmd_correlate(densities_path: Path, morphology_path: Path, outdir: Path,
                  *, seed: int = 0, repeats: int = 100) -> dict:
    """Treatment statistics and morphology correlation reports."""
    if repeats < 2:  # checked before any output is written
        raise ValidationError(f"repeats must be >= 2 for a std of the drops, got {repeats}")
    from scipy.special import gammainc

    from .inference import DensityEstimate, aggregate_device
    from .stats import (cluster_features, gamma_fit, kruskal_wallis, pearson,
                        ridge_permutation_importance, shapiro_wilk, spearman)
    from .svgplot import Panel, render
    clock = _Clock()
    outdir = Path(outdir)
    with clock.phase("load"):
        dens = read_densities_csv(densities_path)
        labels, X, feat_names, tls_density = read_morphology_csv(morphology_path)

    treatments = sorted(set(dens["treatment"]))
    group = np.array(dens["treatment"])
    # rho and its interval per treatment, in file order
    rho, ci_lo, ci_hi = ({t: dens[c][group == t].tolist() for t in treatments}
                         for c in ("rho", "ci_lo", "ci_hi"))
    notices = []

    # normality per treatment (Shapiro-Wilk)
    rows = []
    for t, vals in rho.items():
        if len(vals) < 3:
            notices.append(f"shapiro skipped for {t}: n={len(vals)} < 3")
            continue
        try:
            rows.append((t, len(vals), *shapiro_wilk(vals)))
        except JJTLSError as exc:
            notices.append(f"shapiro failed for {t}: {exc}")
    files = [write_csv(outdir, "normality_tests", zip(*rows))]

    # pairwise rank tests
    rows = []
    if len(treatments) < 2:
        notices.append("pairwise tests skipped: only one treatment present")
    else:
        for i, t1 in enumerate(treatments):
            for t2 in treatments[i + 1:]:
                g1, g2 = rho[t1], rho[t2]
                if len(g1) < 2 or len(g2) < 2:
                    notices.append(f"rank test skipped for {t1} vs {t2}: group too small")
                    continue
                rows.append((t1, t2, *kruskal_wallis([g1, g2])))
    files.append(write_csv(outdir, "rank_tests", zip(*rows)))

    # gamma fits and device aggregates per treatment
    rows, agg_rows, gamma = [], [], {}
    for t, vals in rho.items():
        ests = [DensityEstimate(rho=r, ci68=(lo, hi), delta_f=1.0, area=1.0)
                for r, lo, hi in zip(vals, ci_lo[t], ci_hi[t])]
        summ = aggregate_device(ests)
        agg_rows.append((t, len(ests), summ.rho_mean, summ.sigma_plus, summ.sigma_minus))
        if len(vals) < 4:
            notices.append(f"gamma fit skipped for {t}: n={len(vals)} < 4")
            continue
        try:
            gf = gamma[t] = gamma_fit(vals)
            rows.append((t, len(vals), gf.shape, gf.scale, gf.mean, gf.mean_stderr))
        except JJTLSError as exc:
            notices.append(f"gamma fit failed for {t}: {exc}")
    files.append(write_csv(outdir, "gamma_fits", zip(*rows)))
    files.append(write_csv(outdir, "device_summaries", zip(*agg_rows)))

    # pairwise correlation of each morphology metric with density
    rows = []
    for j, name in enumerate(feat_names):
        try:
            rows.append((name, *pearson(X[:, j], tls_density),
                         *spearman(X[:, j], tls_density)))
        except JJTLSError as exc:
            notices.append(f"correlation skipped for {name}: {exc}")
    files.append(write_csv(outdir, "feature_correlations", zip(*rows)))

    # collinearity clustering + ridge permutation importance; a constant
    # column has no rank correlation with anything, so it is left out
    varying = []
    for j, name in enumerate(feat_names):
        if np.ptp(X[:, j]) == 0:
            notices.append(f"{name} is constant; left out of clustering and importance")
        else:
            varying.append(j)
    Xv = X[:, varying]
    names = [feat_names[j] for j in varying]
    report = None
    if X.shape[0] < 4:
        notices.append("clustering/importance skipped: fewer than 4 devices")
    elif len(varying) < 2:
        notices.append("clustering/importance skipped: fewer than 2 varying features")
    else:
        with clock.phase("importance"):
            sel = cluster_features(Xv, tls_density)
            rep_names = [names[j] for j in sel.representatives]
            rr = ridge_permutation_importance(Xv[:, list(sel.representatives)],
                                              tls_density, alpha=sel.ridge_alpha,
                                              repeats=repeats, seed=seed,
                                              feature_names=rep_names)
        report = {
            "threshold": sel.threshold,
            "loocv_r2": rr.loocv_r2,
            "ridge_alpha": rr.ridge_alpha,
            "clusters": [[names[j] for j in c] for c in sel.clusters],
            "representatives": rep_names,
            "importances": {k: list(v) for k, v in rr.importances.items()},
            "ranking": rr.ranking(),
        }
        files.append(write_record(outdir, "correlation_report", report))

        ranked = rr.ranking()
        panel = Panel(title="permutation importance (LOOCV R2 drop)",
                      ylabel="mean R2 drop")
        panel.add_bars(ranked, [rr.importances[k][0] for k in ranked])
        files.append(write_text(outdir, "importance_plot", render(panel)))

    # density distributions per treatment with gamma overlays
    panel = Panel(title="TLS density distributions by treatment",
                  xlabel="rho [1 / GHz / um^2]", ylabel="empirical CDF")
    for t in treatments:
        vals = np.sort(rho[t])
        steps = np.arange(1, vals.size + 1) / vals.size
        panel.add_line(np.repeat(vals, 2),
                       np.concatenate([[0.0], np.repeat(steps, 2)[:-1]]),
                       f"{t} (n={vals.size})")
        if t in gamma:  # the fit written to gamma_fits.csv
            xs = np.linspace(0, float(vals.max()) * 1.3, 80)
            panel.add_line(xs, gammainc(gamma[t].shape, xs / gamma[t].scale), f"{t} gamma fit")
    files.append(write_text(outdir, "densities_plot", render(panel)))
    files.append(write_record(outdir, "notices", {"notices": notices}))

    cfg = {"densities": str(densities_path), "morphology": str(morphology_path),
           "seed": seed, "repeats": repeats}
    write_manifest(outdir, "correlate", cfg, files, timings=clock.timings())
    return {"treatments": treatments, "notices": notices,
            "ranking": (report or {}).get("ranking", []), "outdir": str(outdir)}


def cmd_report(outdir: Path) -> dict:
    """Consolidate stage manifests and headline numbers into one report."""
    outdir = Path(outdir)
    manifests = sorted(outdir.glob(SCHEMAS["manifest"].path))
    if not manifests:
        raise SchemaError(f"no stage manifests found under {outdir}")
    stages = {}
    for m in manifests:
        data = read_record(m, "manifest")
        stages[data["stage"]] = {
            "config_hash": data["config_hash"],
            "n_outputs": len(data["outputs"]),
            "outputs": [o["path"] for o in data["outputs"]],
        }
    summary = {"stages": stages}
    for name in ("detection_meta", "estimate"):
        if (path := run_path(outdir, name)).exists():
            summary[path.name] = read_record(path, name)

    lines = ["# run report", ""]
    for stage, info in stages.items():
        lines.append(f"- stage `{stage}`: {info['n_outputs']} outputs, "
                     f"config {info['config_hash'][:12]}")
    if meta := summary.get("detection_meta.json"):
        lines.append(f"- detections: {meta['n_detected']} events over {meta['n_bins']} "
                     f"linewidth bins ({meta['delta_f_GHz']:.6f} GHz swept)")
    if est := summary.get("estimate.json"):
        (lo, hi), rho = est["ci68"], est["rho"]
        lines.append(f"- density: rho = {rho:.4g} [{lo:.4g}, {hi:.4g}] / GHz / um^2")
    write_record(outdir, "report", summary)
    write_text(outdir, "report_md", "\n".join(lines) + "\n")
    return summary
