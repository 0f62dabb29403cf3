"""The three benchmark workloads.

A workload generates its inputs from the seed (``generate``), may do
one-off work before its rounds (``prepare``), and then runs rounds of a
fixed set of operations (``run_round``).  Every operation goes through
``Ops`` so attempts and failures are counted the same way everywhere.
Checks run after each round, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Ops:
    """Attempted and failed operations of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # unexpected failures
    expected: list = field(default_factory=list)   # failures the workload expects

    def run(self, name: str, fn, *, known_error: str | None = None) -> float:
        """Run one operation; return its wall time.  A failure is counted.

        A failure whose message starts with ``known_error`` is the known
        fault; any other failure is a problem of the run.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            error = fn()
        except Exception as exc:  # one failing operation must not end the run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error:
            self.failed += 1
            known = known_error is not None and error.startswith(known_error)
            (self.expected if known else self.problems).append(f"{name}: {error}")
        return elapsed


def cli_stage(argv: list, tracer=None):
    """An operation that runs one ``jjtls`` CLI stage in this process."""
    from jjtls.cli import main

    def op():
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        return None if code == 0 else f"exit code {code}"

    return op


def _median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    """Defaults: no one-off work, no checks, at least one round."""

    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, inputs: dict):
        return None

    def check_round(self, inputs, state, record, run: Path) -> list:
        return []


# ---------------------------------------------------------------------------

class FixtureCampaign(Workload):
    """simulate -> detect -> infer -> correlate -> report on the bundled fixture."""

    name = "fixture-campaign"
    stages = ("simulate", "detect", "infer", "correlate", "report")
    min_rounds = 2                 # a median of at least two ~13 s rounds

    def generate(self, d: Path) -> dict:
        config = FIXTURES / "pipeline.json"
        cfg = json.loads(config.read_text())
        scenario = json.loads((FIXTURES / cfg["scenario"]).read_text())
        return {"config": config, "scenario": scenario,
                "area": float(cfg["inference"]["area"])}

    def run_round(self, inputs, state, index: int, run: Path, ops: Ops, tracer=None) -> dict:
        cfg, seed = inputs["config"], self.seed
        argv = {
            "simulate": ["simulate", "--config", cfg, "--seed", seed, "--outdir", run],
            "detect": ["detect", "--config", cfg, "--seed", seed, "--outdir", run],
            "infer": ["infer", "--config", cfg, "--outdir", run],
            "correlate": ["correlate", "--densities", FIXTURES / "densities.csv",
                          "--morphology", FIXTURES / "morphology.csv",
                          "--seed", seed, "--outdir", run],
            "report": ["report", "--outdir", run],
        }
        return {stage: ops.run(stage, cli_stage(argv[stage], tracer))
                for stage in self.stages}

    def check_round(self, inputs, state, record, run: Path) -> list:
        if not (run / "report.md").exists():
            return ["report.md missing"]
        problems = checks.check_fixture_run(run, inputs["scenario"], inputs["area"])
        problems += checks.check_manifests(run, self.stages[:4])
        problems += checks.check_correlate_run(run, FIXTURES / "densities.csv",
                                               FIXTURES / "morphology.csv",
                                               grain_first=False)
        return problems

    def summary(self, records, prepare_s) -> dict:
        out = {"campaign_s": (_median([sum(r.values()) for r in records]), "s")}
        for stage in ("simulate", "detect", "infer", "correlate"):
            out[f"{stage}_s"] = (_median([r[stage] for r in records]), "s")
        return out


# ---------------------------------------------------------------------------

class FleetSweeps(Workload):
    """One chip calibration shared by many closed-loop resonator sweeps."""

    name = "fleet-sweeps"
    sweeps_per_round = 10          # planted counts 0..4, twice; the 90% check allows a miss
    min_rounds = 2
    ensemble_size = 1000
    calibration_traces = 15        # the TLS-free calibration interval

    def generate(self, d: Path) -> dict:
        import jjtls

        res = jjtls.ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, theta=0.05,
                                    A=0.95, alpha=0.1, phi_v=1.2, phi_0=0.3)
        flux = jjtls.FluxConfig(f_bare=5.0, n_islands=100, m_trapped=0,
                                flux_per_current=0.02)
        sigma, span, n_points = 0.005, 0.01, 201
        kappa = res.kappa
        grid = np.linspace(res.f_r - span / 2, res.f_r + span / 2, n_points)
        baseline = [jjtls.synth_trace(res, [], grid, sigma,
                                      np.random.default_rng([self.seed, 1, i]))
                    for i in range(self.calibration_traces)]
        # plants in the interior of the swept band, >= 4 kappa apart, C = 4
        f_hi = jjtls.flux_to_freq(flux, 66.0 * flux.flux_per_current)
        f_lo = jjtls.flux_to_freq(flux, 124.0 * flux.flux_per_current)
        sweeps = []
        for k in range(self.sweeps_per_round):
            rng = np.random.default_rng([self.seed, 2, k])
            plants, misses = [], 0
            while len(plants) < k % 5:
                cand = float(rng.uniform(f_lo, f_hi))
                if all(abs(cand - f) >= 4 * kappa for f in plants):
                    plants.append(cand)
                elif (misses := misses + 1) > 100:  # the band can jam; start over
                    plants, misses = [], 0
            defects = tuple(jjtls.TLSDefect(f_tls=f, g=kappa, gamma=kappa,
                                            temperature=0.01) for f in plants)
            sweeps.append(jjtls.Scenario(resonator=res, flux=flux, defects=defects,
                                         noise_sigma=sigma,
                                         rng_seed=int(rng.integers(2 ** 31))))
        d.mkdir(parents=True, exist_ok=True)
        (d / "fleet.json").write_text(json.dumps({
            "seed": self.seed, "noise_sigma": sigma, "span": span, "n_points": n_points,
            "plants": [[t.f_tls for t in s.defects] for s in sweeps],
            "rng_seeds": [s.rng_seed for s in sweeps]}))
        return {"res": res, "sigma": sigma, "span": span, "n_points": n_points,
                "baseline": baseline, "sweeps": sweeps,
                "biases": np.linspace(50.0, 130.0, 120)}

    def prepare(self, inputs: dict):
        import jjtls

        # as `jjtls detect` does: noise from the median-residual trace of the
        # TLS-free interval, threshold from the interval's mean parameters
        traces = inputs["baseline"]
        fits = [jjtls.fit_hanger(t) for t in traces]
        if not all(f.converged for f in fits):
            raise RuntimeError("a baseline fit did not converge")
        median = int(np.argsort([f.residual_metric for f in fits])[len(fits) // 2])
        sigma = jjtls.calibrate_noise(traces[median], fits[median], seed=self.seed)
        params = jjtls.ResonatorParams.from_array(
            np.mean([f.params.as_array() for f in fits], axis=0))
        calib = jjtls.build_threshold(params, sigma, ensemble_size=self.ensemble_size,
                                      seed=self.seed, n_points=inputs["n_points"])
        return {"calib": calib, "rates": jjtls.true_rates(calib.fp, calib.fn)}

    def _sweep(self, inputs, state, scenario, out: list):
        import jjtls

        def op():
            sweep = jjtls.curve_follow(jjtls.scenario_instrument(scenario), inputs["biases"],
                                       inputs["span"], inputs["n_points"])
            sweep = jjtls.apply_exclusions(sweep)
            series = jjtls.normalize_axis(sweep)
            events = jjtls.find_peaks(series, state["calib"])
            f0 = sweep.f0s[sweep.included_indices()]
            n_bins = max(int((f0.max() - f0.min()) / sweep.median_kappa()), 1)
            post = jjtls.posterior(jjtls.InferenceInput(
                n_detected=min(len(events), n_bins), n_bins=n_bins, rates=state["rates"]))
            out.append({"plants": [d.f_tls for d in scenario.defects],
                        "mean_count": post.mean_count,
                        "events": [e.frequency for e in events],
                        "kappa": scenario.resonator.kappa})

        return op

    def run_round(self, inputs, state, index: int, run: Path, ops: Ops, tracer=None) -> dict:
        found: list = []
        times = [ops.run(f"sweep {k}", self._sweep(inputs, state, scenario, found))
                 for k, scenario in enumerate(inputs["sweeps"])]
        return {"sweep_s": times, "sweeps": found}

    def check_round(self, inputs, state, record, run: Path) -> list:
        # every round analyses the same sweeps, so every round is checked alike
        return checks.check_fleet(record["sweeps"], state["calib"].noise_sigma,
                                  inputs["sigma"])

    def summary(self, records, prepare_s) -> dict:
        times = [t for r in records for t in r["sweep_s"]]
        return {"calibration_s": (_median(prepare_s), "s"),
                "sweeps_per_s": (len(times) / sum(times) if times else 0.0, "1/s")}


# ---------------------------------------------------------------------------

class WidebandSurvey(Workload):
    """infer over resonators of widely different bandwidth, then correlate."""

    name = "wideband-survey"
    bandwidths = (30, 100, 300, 1000)   # linewidth bins B per resonator
    area_um2 = 0.5
    treatments = {"A": 0.20, "Ap": 0.15, "B": 0.10, "C": 0.07, "D": 0.05}
    resonators_per_treatment = 40
    devices = 60
    constant_column = "junction_thickness_std"
    known_error = "ValueError: The condensed distance matrix must contain only finite values"

    def generate(self, d: Path) -> dict:
        rng = np.random.default_rng([self.seed, 3])
        d.mkdir(parents=True, exist_ok=True)
        resonators = {}
        for B in self.bandwidths:
            kappa = float(rng.uniform(4.0, 6.0)) / 5000.0
            fp, fn = float(rng.uniform(0.01, 0.03)), float(rng.uniform(0.30, 0.40))
            FP, FN = checks.true_rates(fp, fn)
            n_t = min(int(rng.poisson(0.05 * B)), B)
            n_m = min(int(rng.binomial(n_t, 1.0 - FN) + rng.binomial(B - n_t, FP)), B)
            resonators[B] = {
                "detection_meta.json": {
                    "n_detected": n_m, "n_bins": B,
                    "delta_f_GHz": (B + float(rng.uniform(0.05, 0.95))) * kappa,
                    "kappa_GHz": kappa, "n_traces": 2 * B, "n_included": 2 * B,
                    "exclusions": []},
                "calibration.json": {
                    "threshold": 1.5e-4, "fp": fp, "fn": fn, "noise_sigma": 0.005,
                    "gauss_noise": [5e-5, 2e-5], "gauss_tls": [2.5e-4, 5e-5]},
            }
        config = d / "infer.json"
        config.write_text(json.dumps({
            "scenario": "not-used-by-infer.json", "sweep": {},
            "inference": {"area": self.area_um2, "delta_f": None}, "seed": self.seed}))

        rows = ["treatment,resonator_id,rho,ci_lo,ci_hi"]
        for t, mean in self.treatments.items():
            for r in range(self.resonators_per_treatment):
                rho = float(rng.gamma(4.0, mean / 4.0))
                rows.append(f"{t},{t}-{r:02d},{rho!r},{0.7 * rho!r},{1.3 * rho!r}")
        densities = d / "densities.csv"
        densities.write_text("\n".join(rows) + "\n")

        # grain size drives density; junction thickness weakly; the rest are decoys
        n = self.devices
        grain = 40.0 + 90.0 * rng.uniform(size=n)
        et = 55.0 + 5.0 * rng.standard_normal(n)
        jt = 2.0 + 0.3 * rng.standard_normal(n)
        cols = {
            "electrode_thickness_mean": et,
            "electrode_thickness_std": 0.06 * et + 0.5 * rng.standard_normal(n),
            "electrode_thickness_rms": 1.5 + 0.2 * rng.standard_normal(n),
            "grain_width_mean": grain,
            "grain_width_std": 0.25 * grain + 2.0 * rng.standard_normal(n),
            "junction_thickness_mean": jt,
            "junction_thickness_std": 0.34 + 0.02 * rng.standard_normal(n),
            "junction_thickness_rms": 0.25 + 0.03 * rng.standard_normal(n),
        }
        cols["tls_density"] = (0.30 - 0.002 * grain + 0.03 * (jt - 2.0)
                               + 0.01 * rng.standard_normal(n))
        morphology = d / "morphology.csv"
        morphology.write_text(self._morphology_csv(cols))
        held = dict(cols, **{self.constant_column: np.full(n, 0.34)})
        constant = d / "morphology_constant.csv"
        constant.write_text(self._morphology_csv(held))
        return {"resonators": resonators, "config": config, "densities": densities,
                "morphology": morphology, "morphology_constant": constant}

    @staticmethod
    def _morphology_csv(cols: dict) -> str:
        names = ["device_label", *checks.MORPHOLOGY_FEATURES, "tls_density"]
        lines = [",".join(names)]
        for i in range(len(cols["tls_density"])):
            lines.append(",".join([f"dev{i:03d}"]
                                  + [repr(float(cols[c][i])) for c in names[1:]]))
        return "\n".join(lines) + "\n"

    def run_round(self, inputs, state, index: int, run: Path, ops: Ops, tracer=None) -> dict:
        record = {}
        for B, files in inputs["resonators"].items():
            rdir = run / f"B{B}"
            rdir.mkdir(parents=True)
            for name, obj in files.items():
                (rdir / name).write_text(json.dumps(obj))
            record[f"infer_B{B}"] = ops.run(f"infer B={B}", cli_stage(
                ["infer", "--config", inputs["config"], "--outdir", rdir], tracer))

        def correlate(morphology, outdir):
            return cli_stage(["correlate", "--densities", inputs["densities"],
                              "--morphology", morphology, "--seed", self.seed,
                              "--outdir", outdir], tracer)

        record["correlate"] = ops.run("correlate", correlate(inputs["morphology"],
                                                             run / "correlate"))
        # known fault: a constant morphology column gives NaN correlation
        # distances, and scipy's linkage raises a ValueError out of cli.main
        with np.errstate(invalid="ignore"):
            record["correlate_constant"] = ops.run(
                "correlate with a constant column",
                correlate(inputs["morphology_constant"], run / "correlate_constant"),
                known_error=self.known_error)
        return record

    def check_round(self, inputs, state, record, run: Path) -> list:
        problems = []
        for B in inputs["resonators"]:
            rdir = run / f"B{B}"
            if (rdir / "estimate.json").exists():
                problems += [f"B={B}: {p}" for p in
                             checks.check_infer_run(rdir, self.area_um2)
                             + checks.check_manifests(rdir, ["infer"])]
        out = run / "correlate"
        if (out / "manifest_correlate.json").exists():
            problems += checks.check_correlate_run(out, inputs["densities"],
                                                   inputs["morphology"], grain_first=True)
            problems += checks.check_manifests(out, ["correlate"])
        # should the known fault be mended, the stage's outputs are checked too
        out = run / "correlate_constant"
        if (out / "manifest_correlate.json").exists():
            problems += checks.check_correlate_run(out, inputs["densities"],
                                                   inputs["morphology_constant"],
                                                   grain_first=True)
            problems += checks.check_manifests(out, ["correlate"])
        return problems

    def summary(self, records, prepare_s) -> dict:
        infer = [sum(v for k, v in r.items() if k.startswith("infer_")) for r in records]
        out = {"infer_s": (_median(infer), "s"),
               "correlate_s": (_median([r["correlate"] for r in records]), "s")}
        for B in self.bandwidths:
            out[f"infer_B{B}_s"] = (_median([r[f"infer_B{B}"] for r in records]), "s")
        return out


WORKLOADS = {w.name: w for w in (FixtureCampaign, FleetSweeps, WidebandSurvey)}
