#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fire.

Runs each workload's stages once on small inputs, confirms the checks
pass on the real outputs, then corrupts one output at a time (an event
moved by one kappa, a posterior pmf scaled by 1.01, a manifest hash
altered, ...) and confirms that the matching check reports it.  Exits 1
if a clean output fails or a corruption goes unnoticed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "out" / "selftest"


def edit_json(path: Path, fn) -> None:
    obj = json.loads(path.read_text())
    fn(obj)
    path.write_text(json.dumps(obj))


def edit_csv(path: Path, fn) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    fn(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def scale(row: dict, key: str, factor: float, shift: float = 0.0) -> None:
    row[key] = repr(float(row[key]) * factor + shift)


class Verdicts:
    def __init__(self):
        self.bad = 0

    def clean(self, label: str, problems: list) -> None:
        ok = not problems
        self.bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} clean {label}" + ("" if ok else f": {problems}"))

    def fires(self, label: str, problems: list, expect: str) -> None:
        ok = any(expect in p for p in problems)
        self.bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label} -> "
              + (next(p for p in problems if expect in p) if ok
                 else f"expected a problem with {expect!r}, got {problems}"))


def mutated(src: Path, name: str, fn) -> Path:
    """A copy of run directory ``src`` with ``fn`` applied to it."""
    dst = WORK / "mutants" / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    fn(dst)
    return dst


def fixture_checks(v: Verdicts, workloads, checks) -> None:
    wl = workloads.FixtureCampaign(seed=7)
    inputs = wl.generate(WORK / "fixture-inputs")
    run = WORK / "fixture"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    ops = workloads.Ops()
    wl.run_round(inputs, None, 0, run, ops)
    v.clean("fixture stages exit 0", ops.problems)
    v.clean("fixture outputs", wl.check_round(inputs, None, None, run))

    scenario, area = inputs["scenario"], inputs["area"]
    q_l = scenario["resonator"]["Q_l"]
    dens, morph = workloads.FIXTURES / "densities.csv", workloads.FIXTURES / "morphology.csv"

    def fixture(d):
        return checks.check_fixture_run(d, scenario, area)

    def move_event(d):
        edit_csv(d / "events.csv", lambda rows: scale(
            rows[0], "freq_GHz", 1.0 + 1.0 / q_l))

    def widen_fit_range(d):
        def fn(rows):
            top = max(rows, key=lambda r: float(r["f0_GHz"]))
            scale(top, "f0_GHz", 1.0 + 1.0 / q_l)
        edit_csv(d / "fits.csv", fn)

    def scale_pmf(d):
        edit_csv(d / "posterior.csv", lambda rows: [scale(r, "prob", 1.01) for r in rows])

    def alter_hash(d):
        def fn(m):
            h = m["outputs"][0]["sha256"]
            m["outputs"][0]["sha256"] = ("0" if h[0] != "0" else "1") + h[1:]
        edit_json(d / "manifest_detect.json", fn)

    def shift_ci(d):
        def fn(e):
            e["ci68"] = [e["rho"] * 1.01, e["rho"] * 1.02]
        edit_json(d / "estimate.json", fn)

    cases = [
        ("event moved by one kappa", move_event, fixture, "not within kappa/2"),
        ("one detection too many", lambda d: edit_json(
            d / "detection_meta.json", lambda m: m.update(n_detected=m["n_detected"] + 1)),
         fixture, "planted defects"),
        ("noise sigma 15% high", lambda d: edit_json(
            d / "calibration.json", lambda c: c.update(noise_sigma=c["noise_sigma"] * 1.15)),
         fixture, "noise_sigma"),
        ("rho off by 1e-9", lambda d: edit_json(
            d / "estimate.json", lambda e: e.update(rho=e["rho"] * (1 + 1e-9))),
         fixture, "mean_count / (delta_f * area)"),
        ("an included f0 moved by one kappa", widen_fit_range, fixture,
         "mean_count / (delta_f * area)"),
        ("posterior pmf scaled by 1.01", scale_pmf, fixture, "posterior.csv sums to"),
        ("mean_count off by 0.5", lambda d: edit_json(
            d / "estimate.json", lambda e: e.update(mean_count=e["mean_count"] + 0.5)),
         fixture, "posterior mean"),
        ("ci68 moved above rho", shift_ci, fixture, "does not contain rho"),
        ("manifest hash altered", alter_hash,
         lambda d: checks.check_manifests(d, ["detect"]), "sha256"),
        ("Shapiro-Wilk W off by 1e-3", lambda d: edit_csv(
            d / "normality_tests.csv", lambda rows: scale(rows[0], "W", 1.0, 1e-3)),
         lambda d: checks.check_correlate_run(d, dens, morph, grain_first=False),
         "Shapiro-Wilk"),
        ("Kruskal-Wallis H scaled by 1.001", lambda d: edit_csv(
            d / "rank_tests.csv", lambda rows: scale(rows[0], "H", 1.001)),
         lambda d: checks.check_correlate_run(d, dens, morph, grain_first=False),
         "Kruskal-Wallis"),
        ("gamma-fit mean scaled by 1.001", lambda d: edit_csv(
            d / "gamma_fits.csv", lambda rows: scale(rows[0], "mean", 1.001)),
         lambda d: checks.check_correlate_run(d, dens, morph, grain_first=False),
         "gamma-fit mean"),
        ("Pearson r off by 1e-6", lambda d: edit_csv(
            d / "feature_correlations.csv", lambda rows: scale(rows[0], "pearson_r", 1.0, 1e-6)),
         lambda d: checks.check_correlate_run(d, dens, morph, grain_first=False),
         "correlations of"),
        ("Spearman p scaled by 1.01", lambda d: edit_csv(
            d / "feature_correlations.csv", lambda rows: scale(rows[0], "spearman_p", 1.01)),
         lambda d: checks.check_correlate_run(d, dens, morph, grain_first=False),
         "correlations of"),
    ]
    for label, corrupt, check, expect in cases:
        v.fires(f"fixture: {label}", check(mutated(run, label.replace(" ", "_"), corrupt)),
                expect)


def wideband_checks(v: Verdicts, workloads, checks) -> None:
    wl = workloads.WidebandSurvey(seed=7)
    wl.bandwidths = (30, 80)          # small B keeps the self-test quick
    inputs = wl.generate(WORK / "wideband-inputs")
    run = WORK / "wideband"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    ops = workloads.Ops()
    wl.run_round(inputs, None, 0, run, ops)
    v.clean("wideband stages exit 0", ops.problems)
    v.clean("wideband outputs", wl.check_round(inputs, None, None, run))
    v.fires("wideband: constant morphology column", ops.expected, "ValueError")
    other = workloads.Ops()
    other.run("correlate with a constant column", workloads.cli_stage(
        ["correlate", "--densities", inputs["densities"], "--morphology",
         WORK / "no-such-morphology.csv", "--seed", 7, "--outdir", WORK / "other"]),
        known_error=wl.known_error)
    v.fires("wideband: another failure of the known-fault operation", other.problems,
            "correlate with a constant column")

    def infer(d):
        return checks.check_infer_run(d, wl.area_um2)

    def bump_peak(d):
        def fn(rows):
            top = max(rows, key=lambda r: float(r["prob"]))
            scale(top, "prob", 1.01)
            total = sum(float(r["prob"]) for r in rows)
            for r in rows:
                scale(r, "prob", 1.0 / total)
        edit_csv(d / "posterior.csv", fn)

    b80 = run / "B80"
    cases = [
        ("posterior peak scaled by 1.01", bump_peak, "binomial-Poisson posterior"),
        ("lambda* scaled by 1.2", lambda d: edit_json(
            d / "estimate.json", lambda e: e.update(lambda_star=e["lambda_star"] * 1.2)),
         "does not maximise"),
    ]
    for label, corrupt, expect in cases:
        v.fires(f"wideband: {label}", infer(mutated(b80, label.replace(" ", "_"), corrupt)),
                expect)
    reorder = mutated(run / "correlate", "ranking_reversed", lambda d: edit_json(
        d / "correlation_report.json", lambda r: r.update(
            ranking=[x for x in r["ranking"] if x not in checks.GRAIN_FEATURES]
            + [x for x in r["ranking"] if x in checks.GRAIN_FEATURES])))
    v.fires("wideband: grain representative not first",
            checks.check_correlate_run(reorder, inputs["densities"], inputs["morphology"],
                                       grain_first=True), "not ranked first")


def fleet_checks(v: Verdicts, workloads, checks) -> None:
    wl = workloads.FleetSweeps(seed=7)
    inputs = wl.generate(WORK / "fleet-inputs")
    state = wl.prepare(inputs)
    ops = workloads.Ops()
    sweeps = wl.run_round(inputs, state, 0, WORK, ops)["sweeps"]
    sigma_cal, sigma = state["calib"].noise_sigma, inputs["sigma"]
    v.clean("fleet sweeps", ops.problems)
    v.clean("fleet outputs", checks.check_fleet(sweeps, sigma_cal, sigma))

    miscounted = [dict(s, mean_count=s["mean_count"] + 2.0 * (i % 5 == 0))
                  for i, s in enumerate(sweeps)]
    moved = [dict(s, events=[f + s["kappa"] for f in s["events"]]) for s in sweeps]
    v.fires("fleet: one sweep in five miscounted by 2",
            checks.check_fleet(miscounted, sigma_cal, sigma), "planted count")
    v.fires("fleet: events moved by one kappa",
            checks.check_fleet(moved, sigma_cal, sigma), "within kappa/2")
    v.fires("fleet: calibrated sigma 15% high",
            checks.check_fleet(sweeps, sigma_cal * 1.15, sigma), "calibrated sigma")


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    shutil.rmtree(WORK, ignore_errors=True)
    v = Verdicts()
    try:
        wideband_checks(v, workloads, checks)
        fleet_checks(v, workloads, checks)
        fixture_checks(v, workloads, checks)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{'all checks fire' if not v.bad else f'{v.bad} verdict(s) failed'}")
    return 1 if v.bad else 0


if __name__ == "__main__":
    sys.exit(main())
