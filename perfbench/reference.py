#!/usr/bin/env python3
"""One-off reference timings of single layers, for perfbench/README.md.

Not a workload: it measures each figure once (fits and posteriors as the
median of a few repeats) and prints a table.  Run from the repository root:

    python3 perfbench/reference.py            # about three minutes
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "reference"


def timed(fn, repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))

    rows = []
    rows.append(("import jjtls (fresh process)", timed(lambda: subprocess.run(
        [sys.executable, "-c", "import jjtls"], check=True), 3), "s"))

    import numpy as np

    import jjtls
    from jjtls.cli import main as cli
    from jjtls.inference import likelihood_vector

    res = jjtls.ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                                A=0.95, alpha=0.1, phi_v=1.2, phi_0=0.3)
    grid = np.linspace(5.0 - 0.005, 5.0 + 0.005, 201)
    traces = [jjtls.synth_trace(res, [], grid, 0.005, np.random.default_rng(i))
              for i in range(50)]
    rows.append(("fit_hanger, warm-started (init = truth)", timed(
        lambda: [jjtls.fit_hanger(t, init=res) for t in traces]) / len(traces), "s"))
    rows.append(("fit_hanger, background-seeded", timed(
        lambda: [jjtls.fit_hanger(t) for t in traces]) / len(traces), "s"))
    fit = jjtls.fit_hanger(traces[0])
    rows.append(("calibrate_noise (64-member ensemble)", timed(
        lambda: jjtls.calibrate_noise(traces[0], fit, seed=1)), "s"))
    rows.append(("build_threshold, ensemble_size 1000", timed(
        lambda: jjtls.build_threshold(fit.params, 0.005, ensemble_size=1000, seed=1)), "s"))

    rates = jjtls.true_rates(0.02, 0.35)
    for B in (20, 200, 1000):
        inp = jjtls.InferenceInput(n_detected=max(1, B // 20), n_bins=B, rates=rates)
        rows.append((f"posterior, B = {B}", timed(lambda: jjtls.posterior(inp), 3), "s"))
        rows.append((f"likelihood_vector, B = {B}", timed(
            lambda: likelihood_vector(inp.n_detected, B, rates), 3), "s"))

    shutil.rmtree(WORK, ignore_errors=True)
    for B in (200, 500, 1000):
        d = WORK / f"B{B}"
        d.mkdir(parents=True)
        (d / "detection_meta.json").write_text(json.dumps({
            "n_detected": B // 20, "n_bins": B, "delta_f_GHz": (B + 0.5) * 1e-3,
            "kappa_GHz": 1e-3, "exclusions": []}))
        (d / "calibration.json").write_text(json.dumps({
            "threshold": 1.5e-4, "fp": 0.02, "fn": 0.35, "noise_sigma": 0.005}))
        (d / "infer.json").write_text(json.dumps({
            "scenario": "not-used.json", "sweep": {}, "seed": 1,
            "inference": {"area": 0.5, "delta_f": None}}))
        with contextlib.redirect_stdout(io.StringIO()):
            rows.append((f"infer stage, B = {B}", timed(lambda: cli(
                ["infer", "--config", str(d / "infer.json"), "--outdir", str(d)])), "s"))

    cfg = json.loads((ROOT / "fixtures" / "pipeline.json").read_text())
    cfg["scenario"] = str(ROOT / "fixtures" / cfg["scenario"])
    del cfg["detector"]["ensemble_size"]          # the default, 5000
    path = WORK / "pipeline-5000.json"
    path.write_text(json.dumps(cfg))
    out = WORK / "fixture-5000"
    with contextlib.redirect_stdout(io.StringIO()):
        cli(["simulate", "--config", str(path), "--outdir", str(out)])
        rows.append(("detect stage, fixture, ensemble_size 5000", timed(lambda: cli(
            ["detect", "--config", str(path), "--outdir", str(out)])), "s"))
    shutil.rmtree(WORK, ignore_errors=True)

    for name, value, unit in rows:
        shown = f"{value * 1e3:.2f} ms" if value < 1 else f"{value:.2f} {unit}"
        print(f"{name:46s} {shown:>12s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
