"""Correctness checks, computed apart from the jjtls package.

Every check reads a stage's output files (or the records a workload keeps)
and returns a list of problems; an empty list means the outputs passed.
The reference values come from the inputs the benchmark generated, from
closed forms of the method, or from scipy.stats, never from a stored copy
of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.optimize import minimize_scalar

GRAIN_FEATURES = ("grain_width_mean", "grain_width_std")
MORPHOLOGY_FEATURES = (
    "electrode_thickness_mean", "electrode_thickness_std", "electrode_thickness_rms",
    "grain_width_mean", "grain_width_std",
    "junction_thickness_mean", "junction_thickness_std", "junction_thickness_rms",
)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


def check_manifests(run: Path, stages) -> list[str]:
    """Each stage manifest lists outputs whose SHA-256 and size match the files."""
    problems = []
    for stage in stages:
        path = run / f"manifest_{stage}.json"
        if not path.exists():
            problems.append(f"{path.name}: missing")
            continue
        for out in read_json(path)["outputs"]:
            f = run / out["path"]
            if not f.exists():
                problems.append(f"{path.name}: output {out['path']} missing")
                continue
            data = f.read_bytes()
            if hashlib.sha256(data).hexdigest() != out["sha256"]:
                problems.append(f"{path.name}: sha256 of {out['path']} does not match")
            if len(data) != out["bytes"]:
                problems.append(f"{path.name}: size of {out['path']} does not match")
    return problems


def _posterior_table(run: Path) -> np.ndarray:
    rows = read_rows(run / "posterior.csv")
    n_t = [int(r["n_t"]) for r in rows]
    if n_t != list(range(len(rows))):
        raise ValueError("posterior.csv: n_t is not 0..B")
    return np.array([float(r["prob"]) for r in rows])


def check_fixture_run(run: Path, scenario: dict, area: float) -> list[str]:
    """Detection, calibration, density and posterior of one fixture campaign."""
    problems = []
    meta = read_json(run / "detection_meta.json")
    calib = read_json(run / "calibration.json")
    est = read_json(run / "estimate.json")
    events = read_rows(run / "events.csv")
    plants = [d["f_tls"] for d in scenario["defects"]]
    q_l = scenario["resonator"]["Q_l"]

    if meta["n_detected"] != len(plants):
        problems.append(f"n_detected {meta['n_detected']} != {len(plants)} planted defects")
    if len(events) != meta["n_detected"]:
        problems.append(f"events.csv has {len(events)} rows, n_detected {meta['n_detected']}")
    for e in events:
        f = float(e["freq_GHz"])
        if min(abs(f - p) for p in plants) > f / q_l / 2:
            problems.append(f"event at {f} GHz is not within kappa/2 of a plant")

    if abs(calib["noise_sigma"] / scenario["noise_sigma"] - 1.0) > 0.10:
        problems.append(f"calibrated noise_sigma {calib['noise_sigma']} not within 10% "
                        f"of {scenario['noise_sigma']}")

    # delta_f from the fitted f0 of the bias points no exclusion removes
    f0 = np.array([float(r["f0_GHz"]) for r in read_rows(run / "fits.csv")])
    keep = np.ones(f0.size, dtype=bool)
    for start, stop, _reason in meta["exclusions"]:
        keep[start:stop + 1] = False
    delta_f = float(f0[keep].max() - f0[keep].min())
    rho = est["mean_count"] / (delta_f * area)
    if not close(est["rho"], rho, 1e-12):
        problems.append(f"rho {est['rho']} != mean_count / (delta_f * area) = {rho}")

    problems += check_posterior_summary(run, est)
    return problems


def check_posterior_summary(run: Path, est: dict) -> list[str]:
    """posterior.csv sums to 1, has mean mean_count, and ci68 contains rho."""
    problems = []
    pmf = _posterior_table(run)
    if abs(pmf.sum() - 1.0) > 1e-9:
        problems.append(f"posterior.csv sums to {pmf.sum()!r}")
    mean = float(np.dot(np.arange(pmf.size), pmf))
    if not close(mean, est["mean_count"], 1e-9, 1e-9):
        problems.append(f"posterior mean {mean} != mean_count {est['mean_count']}")
    lo, hi = est["ci68"]
    slack = 1e-12 * abs(est["rho"])
    if not (lo - slack <= est["rho"] <= hi + slack):
        problems.append(f"ci68 [{lo}, {hi}] does not contain rho {est['rho']}")
    return problems


def true_rates(fp: float, fn: float) -> tuple[float, float]:
    """Five-point peak-shape rates: FP = (1 - (1 - fp)^5) / 20, FN = fn^5."""
    return (1.0 - (1.0 - fp) ** 5) / 20.0, fn ** 5


def count_likelihood(n_m: int, n_bins: int, FP: float, FN: float) -> np.ndarray:
    """P(n_m | n_t) for n_t = 0..B as a binomial convolution (scipy.stats)."""
    n_t = np.arange(n_bins + 1)[:, None]
    j = np.arange(n_m + 1)[None, :]
    return np.sum(stats.binom.pmf(j, n_t, 1.0 - FN)
                  * stats.binom.pmf(n_m - j, n_bins - n_t, FP), axis=1)


def truncated_poisson(lam: float, n_bins: int) -> np.ndarray:
    w = stats.poisson.pmf(np.arange(n_bins + 1), lam)
    return w / w.sum()


def check_infer_run(run: Path, area: float) -> list[str]:
    """Posterior and lambda* of one infer stage against a scipy recomputation."""
    problems = []
    meta = read_json(run / "detection_meta.json")
    calib = read_json(run / "calibration.json")
    est = read_json(run / "estimate.json")
    n_m, n_bins = int(meta["n_detected"]), int(meta["n_bins"])
    FP, FN = true_rates(calib["fp"], calib["fn"])
    like = count_likelihood(n_m, n_bins, FP, FN)

    pmf = _posterior_table(run)
    lam = float(est["lambda_star"])
    want = truncated_poisson(lam, n_bins) * like
    want /= want.sum()
    if pmf.size != want.size:
        problems.append(f"posterior.csv has {pmf.size} rows, want B + 1 = {want.size}")
    elif np.max(np.abs(pmf - want)) > 1e-9:
        problems.append(f"posterior.csv differs from the binomial-Poisson posterior "
                        f"by {np.max(np.abs(pmf - want)):.3e}")

    def marginal(x: float) -> float:
        return float(np.dot(truncated_poisson(x, n_bins), like))

    best = minimize_scalar(lambda x: -marginal(x), bounds=(0.0, float(n_bins)),
                           method="bounded", options={"xatol": 1e-10})
    grid = np.linspace(0.0, float(n_bins), 2001)
    top = max(-best.fun, max(marginal(x) for x in grid))
    if marginal(lam) < top * (1.0 - 1e-6):
        problems.append(f"lambda* {lam} does not maximise the marginal likelihood "
                        f"({marginal(lam):.6e} < {top:.6e})")

    rho = est["mean_count"] / (float(meta["delta_f_GHz"]) * area)
    if not close(est["rho"], rho, 1e-12):
        problems.append(f"rho {est['rho']} != mean_count / (delta_f * area) = {rho}")
    problems += check_posterior_summary(run, est)
    return problems


def _densities_by_treatment(path: Path) -> dict[str, np.ndarray]:
    groups: dict[str, list[float]] = {}
    for r in read_rows(path):
        groups.setdefault(r["treatment"].strip(), []).append(float(r["rho"]))
    return {t: np.array(v) for t, v in sorted(groups.items())}


def check_correlate_run(out: Path, densities: Path, morphology: Path, *,
                        grain_first: bool) -> list[str]:
    """Treatment and morphology statistics against scipy.stats."""
    problems = []
    groups = _densities_by_treatment(densities)

    for r in read_rows(out / "normality_tests.csv"):
        W, p = stats.shapiro(groups[r["treatment"]])
        if not (close(r["W"], W, 0, 1e-4) and close(r["p"], p, 0, 1e-4)):
            problems.append(f"Shapiro-Wilk for {r['treatment']}: ({r['W']}, {r['p']}) "
                            f"!= scipy ({W}, {p})")
    for r in read_rows(out / "rank_tests.csv"):
        H, p = stats.kruskal(groups[r["treatment_1"]], groups[r["treatment_2"]])
        if not (close(r["H"], H, 1e-9, 1e-12) and close(r["p"], p, 1e-9, 1e-12)):
            problems.append(f"Kruskal-Wallis {r['treatment_1']} vs {r['treatment_2']}: "
                            f"({r['H']}, {r['p']}) != scipy ({H}, {p})")
    for r in read_rows(out / "gamma_fits.csv"):
        mean = float(groups[r["treatment"]].mean())
        if not close(r["mean"], mean, 1e-9):
            problems.append(f"gamma-fit mean for {r['treatment']} {r['mean']} "
                            f"!= sample mean {mean}")

    morph = read_rows(morphology)
    y = np.array([float(m["tls_density"]) for m in morph])
    for r in read_rows(out / "feature_correlations.csv"):
        x = np.array([float(m[r["feature"]]) for m in morph])
        pr = stats.pearsonr(x, y)
        sr = stats.spearmanr(x, y)
        got = [float(r[k]) for k in ("pearson_r", "pearson_p", "spearman_rho", "spearman_p")]
        want = [pr.statistic, pr.pvalue, sr.statistic, sr.pvalue]
        if not all(close(g, w, 1e-7, 1e-12) for g, w in zip(got, want)):
            problems.append(f"correlations of {r['feature']}: {got} != scipy {want}")

    if grain_first:
        ranking = read_json(out / "correlation_report.json")["ranking"]
        if not ranking or ranking[0] not in GRAIN_FEATURES:
            problems.append(f"grain-size representative not ranked first: {ranking}")
    return problems


def check_fleet(records: list[dict], sigma_cal: float, sigma_true: float) -> list[str]:
    """Count and frequency accuracy over the sweeps of one fleet run.

    A record holds the planted count and frequencies, the posterior mean,
    the detected event frequencies, and kappa of one sweep.
    """
    problems = []
    if abs(sigma_cal / sigma_true - 1.0) > 0.10:
        problems.append(f"calibrated sigma {sigma_cal} not within 10% of {sigma_true}")
    if not records:
        return problems + ["no sweeps analysed"]
    count_ok = sum(abs(r["mean_count"] - len(r["plants"])) <= 1.0 for r in records)
    if count_ok < 0.90 * len(records):
        problems.append(f"posterior mean within 1 of the planted count in "
                        f"{count_ok}/{len(records)} sweeps (< 90%)")
    events = [(f, r) for r in records for f in r["events"]]
    hits = sum(bool(r["plants"]) and min(abs(f - p) for p in r["plants"]) <= r["kappa"] / 2
               for f, r in events)
    if not events or hits < 0.95 * len(events):
        problems.append(f"{hits}/{len(events)} events within kappa/2 of a plant (< 95%)")
    return problems
