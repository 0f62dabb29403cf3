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
from scipy.special import gammainc

from .detector import (SweepDataset, apply_exclusions, build_threshold,
                       calibrate_noise, curve_follow, find_peaks, fit_next, normalize_axis)
from .errors import CalibrationError, JJTLSError, SchemaError
from .fileio import (SCHEMAS, calibration_from_dict, load_scenario,
                     read_densities_csv, read_json, read_morphology_csv,
                     read_record, run_path, sweep_plan, trace_from_csv,
                     trace_rows, write_csv, write_record, write_text)
from .inference import (DensityEstimate, InferenceInput, aggregate_device,
                        density, marginal_likelihood, posterior, true_rates)
from .manifest import write_manifest
from .physics import ResonatorParams, scenario_instrument
from .stats import (cluster_features, gamma_fit, kruskal_wallis, pearson,
                    ridge_permutation_importance, shapiro_wilk, spearman)
from .svgplot import Panel, render


def load_pipeline_config(path: Path) -> dict:
    cfg = read_json(path)
    cfg["_dir"] = str(Path(path).resolve().parent)
    for key in ("scenario", "sweep", "inference"):
        if key not in cfg:
            raise SchemaError(f"{path}: missing required section {key!r}")
    if "seed" not in cfg:
        raise SchemaError(f"{path}: a root seed is mandatory for synthetic runs")
    return cfg


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


def _config_for_hash(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def _resolve(cfg: dict, maybe_path: str) -> Path:
    p = Path(maybe_path)
    return p if p.is_absolute() else Path(cfg["_dir"]) / p


def cmd_simulate(cfg: dict, outdir: Path) -> dict:
    """Drive the virtual instrument along the bias plan; write trace CSVs."""
    clock = _Clock()
    outdir = Path(outdir)
    scenario = load_scenario(_resolve(cfg, cfg["scenario"]))
    scenario = replace(scenario, rng_seed=int(cfg["seed"]))
    sweep_cfg = cfg["sweep"]
    plan = sweep_plan(sweep_cfg)
    span = float(sweep_cfg.get("span", 10 * scenario.resonator.kappa))
    n_points = int(sweep_cfg.get("n_points", 201))

    with clock.phase("sweep"):
        sweep = curve_follow(scenario_instrument(scenario), plan, span, n_points)
    with clock.phase("write"):
        files = [write_csv(outdir, "trace", trace_rows(trace), f"{k:04d}")
                 for k, trace in enumerate(sweep.traces)]
        files.append(write_record(outdir, "scenario_used", asdict(scenario)))
    write_manifest(outdir, "simulate", _config_for_hash(cfg), files,
                   timings=clock.timings())
    return {"n_traces": len(sweep.traces), "outdir": str(outdir)}


def cmd_detect(cfg: dict, outdir: Path) -> dict:
    """Fit traces in bias order, calibrate the detector, and emit the detected events."""
    clock = _Clock()
    outdir = Path(outdir)
    trace_files = sorted(outdir.glob(SCHEMAS["trace"].path))
    if not trace_files:
        raise SchemaError(f"no trace files {outdir / SCHEMAS['trace'].path}; "
                          "run simulate first or point --outdir at recorded data")
    with clock.phase("load"):
        traces = tuple(trace_from_csv(p) for p in trace_files)
    with clock.phase("fit"):
        fits, history = [None] * len(traces), []
        for i in np.argsort([t.bias_current for t in traces], kind="stable"):
            fits[i] = fit_next(traces[i], history)

    sweep = SweepDataset(traces=traces, fits=tuple(fits))
    manual = [tuple(iv) for iv in cfg["sweep"].get("exclusions", [])]
    sweep = apply_exclusions(sweep, manual)

    with clock.phase("write"):
        files = [write_csv(outdir, "fits", [
            (b, f.params.f_r, f.params.Q_l, f.params.Q_e_mag, f.params.theta,
             f.residual_metric, int(f.converged))
            for b, f in zip(sweep.bias_currents, fits)])]

    # --- calibration from the user-designated flat interval; on failure the
    # fit table above stays on disk for inspection
    cal_iv = cfg["sweep"].get("calibration_interval")
    if cal_iv is None:
        raise SchemaError("sweep.calibration_interval is required for detection")
    lo, hi = int(cal_iv[0]), int(cal_iv[1])
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
    seed = int(cfg["seed"])
    det_cfg = cfg.get("detector", {})
    with clock.phase("calibrate_noise"):
        noise_sigma = calibrate_noise(traces[baseline_i], fits[baseline_i], seed=seed)

    # average fitted parameters over the calibration interval
    pvecs = np.array([fits[i].params.as_array() for i in cal_idx])
    cal_params = ResonatorParams.from_array(pvecs.mean(axis=0))
    with clock.phase("build_threshold"):
        calib = build_threshold(cal_params, noise_sigma,
                                ensemble_size=int(det_cfg.get("ensemble_size", 5000)),
                                seed=seed,
                                temperature=float(det_cfg.get("temperature", 0.010)),
                                n_points=len(traces[baseline_i]))
    with clock.phase("normalize_axis"):
        series = normalize_axis(sweep)
    with clock.phase("find_peaks"):
        events = find_peaks(series, calib)

    idx = sweep.included_indices()
    f0 = sweep.f0s[idx]
    delta_f = float(f0.max() - f0.min())
    kappa = sweep.median_kappa()
    n_bins = max(int(math.floor(delta_f / kappa)), 1)

    with clock.phase("write"):
        files.append(write_csv(outdir, "series", zip(series.shift_axis, series.residuals)))
        files.append(write_csv(outdir, "events", [
            (e.shift_position, e.frequency, e.peak_residual) for e in events]))
        files.append(write_record(outdir, "calibration", asdict(calib)))
        files.append(write_record(outdir, "detection_meta", {
            "n_detected": len(events),
            "n_bins": n_bins,
            "delta_f_GHz": delta_f,
            "kappa_GHz": kappa,
            "n_traces": len(traces),
            "n_included": int(idx.size),
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

    write_manifest(outdir, "detect", _config_for_hash(cfg), files,
                   timings=clock.timings())
    return {"n_events": len(events), "n_bins": n_bins, "threshold": calib.threshold,
            "noise_sigma": noise_sigma, "outdir": str(outdir)}


def cmd_infer(cfg: dict, outdir: Path) -> dict:
    """Convert detections into a posterior TLS count and density estimate."""
    clock = _Clock()
    outdir = Path(outdir)
    with clock.phase("load"):
        meta = read_record(run_path(outdir, "detection_meta"), "detection_meta")
        calib = calibration_from_dict(
            read_record(run_path(outdir, "calibration"), "calibration"))

    inf_cfg = cfg.get("inference", {})
    if "area" not in inf_cfg:
        raise SchemaError("inference.area (junction area in um^2) is required")
    area = float(inf_cfg["area"])
    delta_f = inf_cfg.get("delta_f")
    delta_f = float(meta["delta_f_GHz"]) if delta_f is None else float(delta_f)

    rates = true_rates(calib.fp, calib.fn)
    inp = InferenceInput(n_detected=int(meta["n_detected"]),
                         n_bins=int(meta["n_bins"]), rates=rates)
    with clock.phase("posterior"):
        post = posterior(inp)
    est = density(post, delta_f=delta_f, area=area)

    files = [write_csv(outdir, "posterior", enumerate(post.pmf))]
    files.append(write_record(outdir, "estimate", {
        "rho": est.rho,
        "ci68": [est.ci68[0], est.ci68[1]],
        "lambda_star": post.lambda_star,
        "mean_count": post.mean_count,
        "count_ci68": [post.ci68[0], post.ci68[1]],
        "delta_f_GHz": delta_f,
        "area_um2": area,
        "rates": {"fp": rates.fp, "fn": rates.fn, "FP": rates.FP, "FN": rates.FN},
    }))

    lam_grid = np.linspace(0.0, max(3.0 * post.lambda_star, 3.0), 121)
    lvals = marginal_likelihood(inp.n_detected, inp.n_bins, rates, lam_grid)
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
    bottom.add_vspan(post.ci68[0], post.ci68[1], "68.27% CI")
    files.append(write_text(outdir, "posterior_plot", render([top, bottom])))

    write_manifest(outdir, "infer", _config_for_hash(cfg), files,
                   timings=clock.timings())
    return {"rho": est.rho, "ci68": list(est.ci68), "lambda_star": post.lambda_star,
            "outdir": str(outdir)}


def cmd_correlate(densities_path: Path, morphology_path: Path, outdir: Path,
                  *, seed: int = 0, repeats: int = 100) -> dict:
    """Treatment statistics and morphology correlation reports."""
    clock = _Clock()
    outdir = Path(outdir)
    with clock.phase("load"):
        dens_rows = read_densities_csv(densities_path)
        labels, X, feat_names, tls_density = read_morphology_csv(morphology_path)

    treatments = sorted({r["treatment"] for r in dens_rows})
    by_treatment = {t: [r for r in dens_rows if r["treatment"] == t]
                    for t in treatments}
    notices = []

    # normality per treatment (Shapiro-Wilk)
    rows = []
    for t in treatments:
        vals = [r["rho"] for r in by_treatment[t]]
        if len(vals) < 3:
            notices.append(f"shapiro skipped for {t}: n={len(vals)} < 3")
            continue
        try:
            rows.append((t, len(vals), *shapiro_wilk(vals)))
        except JJTLSError as exc:
            notices.append(f"shapiro failed for {t}: {exc}")
    files = [write_csv(outdir, "normality_tests", rows)]

    # pairwise rank tests
    rows = []
    if len(treatments) < 2:
        notices.append("pairwise tests skipped: only one treatment present")
    else:
        for i, t1 in enumerate(treatments):
            for t2 in treatments[i + 1:]:
                g1 = [r["rho"] for r in by_treatment[t1]]
                g2 = [r["rho"] for r in by_treatment[t2]]
                if len(g1) < 2 or len(g2) < 2:
                    notices.append(f"rank test skipped for {t1} vs {t2}: group too small")
                    continue
                rows.append((t1, t2, *kruskal_wallis([g1, g2])))
    files.append(write_csv(outdir, "rank_tests", rows))

    # gamma fits and device aggregates per treatment
    rows, agg_rows = [], []
    for t in treatments:
        vals = [r["rho"] for r in by_treatment[t]]
        ests = [DensityEstimate(rho=r["rho"], ci68=(r["ci_lo"], r["ci_hi"]),
                                delta_f=1.0, area=1.0) for r in by_treatment[t]]
        summ = aggregate_device(ests)
        agg_rows.append((t, len(ests), summ.rho_mean, summ.sigma_plus, summ.sigma_minus))
        if len(vals) < 4:
            notices.append(f"gamma fit skipped for {t}: n={len(vals)} < 4")
            continue
        try:
            gf = gamma_fit(vals)
            rows.append((t, len(vals), gf.shape, gf.scale, gf.mean, gf.mean_stderr))
        except JJTLSError as exc:
            notices.append(f"gamma fit failed for {t}: {exc}")
    files.append(write_csv(outdir, "gamma_fits", rows))
    files.append(write_csv(outdir, "device_summaries", agg_rows))

    # pairwise correlation of each morphology metric with density
    rows = []
    for j, name in enumerate(feat_names):
        try:
            rows.append((name, *pearson(X[:, j], tls_density),
                         *spearman(X[:, j], tls_density)))
        except JJTLSError as exc:
            notices.append(f"correlation skipped for {name}: {exc}")
    files.append(write_csv(outdir, "feature_correlations", rows))

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
        vals = np.sort([r["rho"] for r in by_treatment[t]])
        steps = np.arange(1, vals.size + 1) / vals.size
        panel.add_line(np.repeat(vals, 2),
                       np.concatenate([[0.0], np.repeat(steps, 2)[:-1]]),
                       f"{t} (n={vals.size})")
        if vals.size >= 4 and vals.std() > 0:
            try:
                gf = gamma_fit(vals)
                xs = np.linspace(0, float(vals.max()) * 1.3, 80)
                panel.add_line(xs, gammainc(gf.shape, xs / gf.scale),
                               f"{t} gamma fit")
            except JJTLSError:
                pass
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
    found = {}
    for name in ("detection_meta", "estimate"):
        path = run_path(outdir, name)
        if path.exists():
            summary[path.name] = found[name] = read_record(path, name)

    lines = ["# run report", ""]
    for stage, info in stages.items():
        lines.append(f"- stage `{stage}`: {info['n_outputs']} outputs, "
                     f"config {info['config_hash'][:12]}")
    if "detection_meta" in found:
        meta = found["detection_meta"]
        lines.append(f"- detections: {meta['n_detected']} events over "
                     f"{meta['n_bins']} linewidth bins "
                     f"({meta['delta_f_GHz']:.6f} GHz swept)")
    if "estimate" in found:
        est = found["estimate"]
        lines.append(f"- density: rho = {est['rho']:.4g} "
                     f"[{est['ci68'][0]:.4g}, {est['ci68'][1]:.4g}] / GHz / um^2")
    write_record(outdir, "report", summary)
    write_text(outdir, "report_md", "\n".join(lines) + "\n")
    return summary
