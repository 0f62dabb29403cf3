import json
import re
import shutil
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from jjtls.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_config(tmp_path, scenario="scenario_three_defects.json", **overrides):
    cfg = {
        "scenario": str(FIXTURES / scenario),
        "sweep": {
            "bias_start": 50.0, "bias_stop": 110.0, "bias_points": 90,
            "span": 0.01, "n_points": 201,
            "calibration_interval": [0, 14],
            "exclusions": [],
        },
        "detector": {"ensemble_size": 1000},
        "inference": {"area": 100.0, "delta_f": None},
        "seed": 7,
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg[key] = {**cfg.get(key, {}), **val}
        else:
            cfg[key] = val
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One simulate+detect+infer run shared by the read-only assertions."""
    tmp = tmp_path_factory.mktemp("cli_full")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert main(["simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
    assert main(["detect", "--config", str(cfg), "--outdir", str(out)]) == 0
    assert main(["infer", "--config", str(cfg), "--outdir", str(out)]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def all_stages(full_run):
    """full_run plus correlate and report -> (run dir, {stage: files it wrote})."""
    _, out = full_run
    assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                 "--morphology", str(FIXTURES / "morphology.csv"),
                 "--outdir", str(out), "--repeats", "10"]) == 0
    assert main(["report", "--outdir", str(out)]) == 0
    written = {"report": ["report.json", "report.md"]}
    for m in out.glob("manifest_*.json"):
        data = json.loads(m.read_text())
        written[data["stage"]] = [o["path"] for o in data["outputs"]] + [
            m.name, f"timings_{data['stage']}.json"]
    return out, written


# The on-disk formats, pinned so that an edit to fileio.SCHEMAS is deliberate:
# the CSV header, or the sorted JSON top-level keys, of every file with fields.
PINNED_FIELDS = {
    "trace": "current_mA,freq_GHz,re_s21,im_s21",
    "loop_fits": "current_mA,f_r,Q_l,Q_e_mag,theta,A,alpha,phi_v,phi_0,"
                 "residual_metric,converged,n_evals",
    "scenario_used": "defects,flux,noise_sigma,resonator,rng_seed",
    "fits": "current_mA,f0_GHz,Ql,Qe,theta,residual_metric,converged",
    "series": "shift_kappa,residual",
    "events": "shift_kappa,freq_GHz,peak_residual",
    "calibration": "fn,fp,gauss_noise,gauss_tls,noise_sigma,threshold",
    "detection_meta": "delta_f_GHz,exclusions,kappa_GHz,n_bins,n_detected,"
                      "n_included,n_traces",
    "posterior": "n_t,prob",
    "estimate": "area_um2,ci68,count_ci68,delta_f_GHz,lambda_star,mean_count,"
                "rates,rho",
    "normality_tests": "treatment,n,W,p",
    "rank_tests": "treatment_1,treatment_2,H,p",
    "gamma_fits": "treatment,n,shape,scale,mean,mean_stderr",
    "device_summaries": "treatment,n,rho_mean,sigma_plus,sigma_minus",
    "feature_correlations": "feature,pearson_r,pearson_p,spearman_rho,spearman_p",
    "correlation_report": "clusters,importances,loocv_r2,ranking,"
                          "representatives,ridge_alpha,threshold",
    "notices": "notices",
    "manifest": "config_hash,outputs,package_version,stage",
    "timings": "phases,seconds",
    "report": "detection_meta.json,estimate.json,stages",
}


ABSENT = object()  # a key left out of the config

# The files each stage reads from a run directory of full_run.
STAGE_INPUTS = {
    "simulate": [],
    "detect": ["traces", "loop_fits.csv", "manifest_simulate.json", "scenario_used.json"],
    "infer": ["detection_meta.json", "calibration.json"],
    "report": ["manifest_simulate.json", "manifest_detect.json", "manifest_infer.json",
               "detection_meta.json", "estimate.json"],
}
SWEEP_KEYS = ("bias_plan, bias_start, bias_stop, bias_points, span, n_points, "
              "calibration_interval, exclusions")
PAIR = "must be an int pair 0 <= first <= last, got"

# (stage, where, value, the error line): ``where`` is a dotted key of write_config's
# config, "" for the whole config, or a run file, a colon and a key of that file
# ("meta" for detection_meta.json); {config} and {run} in the error line stand for
# the config file and run directory
CONFIG_FAILURES = [
    ("simulate", "sweep.bias_points", 90.5, "sweep.bias_points must be an int >= 1, got 90.5"),
    ("simulate", "sweep.n_points", 201.9, "sweep.n_points must be an int >= 16, got 201.9"),
    ("simulate", "sweep.bias_plan", ["a"],
     "sweep.bias_plan[0] must be a finite number, got 'a'"),
    ("simulate", "sweep.span", "x", "sweep.span must be a positive number, got 'x'"),
    ("simulate", "sweep", 5, "sweep must be an object, got 5"),
    ("simulate", "", [], "{config} must be an object, got []"),
    ("simulate", "sweep.bias_start", ABSENT,
     "sweep: simulate needs bias_plan or bias_start, bias_stop, bias_points"),
    ("detect", "detector", 5, "detector must be an object, got 5"),
    ("detect", "detector.ensemble_size", "abc",
     "detector.ensemble_size must be an int >= 1000, got 'abc'"),
    ("detect", "detector.ensemble_size", 1200.7,
     "detector.ensemble_size must be an int >= 1000, got 1200.7"),
    ("detect", "detector.ensemble_size", True,
     "detector.ensemble_size must be an int >= 1000, got True"),
    ("detect", "detector.ensemble_size", 999,
     "detector.ensemble_size must be an int >= 1000, got 999"),
    *(("detect", "sweep.calibration_interval", iv, f"sweep.calibration_interval {PAIR} {iv!r}")
      for iv in ("ab", [0.5, 14.7], [14, 0], [0, 14, 99])),
    ("detect", "sweep.calibration_interval", [0, 500],
     "sweep.calibration_interval [0, 500] outside sweep of 90 steps"),
    ("detect", "sweep.calibration_interval", ABSENT,
     "sweep.calibration_interval is required for detection"),
    *(("detect", "sweep.exclusions", [iv], f"sweep.exclusions[0] {PAIR} {iv!r}")
      for iv in ([0.5, 3], [True, 3], [1])),
    ("detect", "sweep.exclusion", [[30, 40]],
     f"sweep.exclusion: unknown key; sweep takes {SWEEP_KEYS} only"),
    ("detect", "exclusions", [[30, 40]], "{config}: exclusions: unknown key; "
     "{config} takes scenario, sweep, detector, inference, seed only"),
    ("infer", "inference.area", "x", "inference.area must be a positive number, got 'x'"),
    ("infer", "inference.area", True, "inference.area must be a positive number, got True"),
    ("infer", "inference.area", ABSENT, "inference.area (junction area in um^2) is required"),
    ("infer", "inference.delta_f", "x",
     "inference.delta_f must be a positive number, got 'x'"),
    ("infer", "inference.areas", 100.0,
     "inference.areas: unknown key; inference takes area, delta_f only"),
    ("infer", "inference", 3, "inference must be an object, got 3"),
    ("infer", "meta:n_detected", "x",
     "{run}/detection_meta.json: n_detected must be an int >= 0, got 'x'"),
    ("infer", "meta:n_detected", 2.7,
     "{run}/detection_meta.json: n_detected must be an int >= 0, got 2.7"),
    ("infer", "meta:n_bins", True,
     "{run}/detection_meta.json: n_bins must be an int >= 1, got True"),
    ("infer", "meta:delta_f_GHz", "x",
     "{run}/detection_meta.json: delta_f_GHz must be a positive number, got 'x'"),
    *(("infer", f"calibration.json:{key}", value,
       f"{{run}}/calibration.json: {key} must be a {shown}, got {value!r}")
      for key, value, shown in (("fp", "0.1", "finite number"), ("fp", True, "finite number"),
                                ("threshold", None, "finite number"),
                                ("gauss_noise", 5, "pair of numbers"),
                                ("gauss_tls", [1e-3], "pair of numbers"))),
    ("infer", "calibration.json:gauss_tls", ["a", 1e-4],
     "{run}/calibration.json: gauss_tls[0] must be a finite number, got 'a'"),
    ("report", "meta:delta_f_GHz", "x",
     "{run}/detection_meta.json: delta_f_GHz must be a positive number, got 'x'"),
    ("report", "estimate.json:rho", "x", "{run}/estimate.json: rho must be a finite number, got 'x'"),
    ("report", "estimate.json:ci68", 5, "{run}/estimate.json: ci68 must be a pair of numbers, got 5"),
    ("report", "manifest_detect.json:config_hash", 5,
     "{run}/manifest_detect.json: config_hash must be text, got 5"),
    ("report", "manifest_detect.json:outputs", 5,
     "{run}/manifest_detect.json: outputs must be a list, got 5"),
    ("report", "manifest_detect.json:outputs", ["a"], "{run}/manifest_detect.json: "
     "outputs[0] must be an object with path, sha256, bytes, got 'a'"),
    ("report", "manifest_detect.json:outputs", [{"sha256": "x"}], "{run}/manifest_detect.json: "
     "outputs[0] must be an object with path, sha256, bytes, got {{'sha256': 'x'}}"),
    ("infer", "meta:n_traces", "x",
     "{run}/detection_meta.json: n_traces must be an int >= 1, got 'x'"),
    ("infer", "meta:exclusions", 5, "{run}/detection_meta.json: exclusions must be a list, got 5"),
]
# the detector cases keep the ids they had before the table covered every stage
DETECTOR_IDS = {"5": "not-an-object", "'abc'": "text", "1200.7": "fraction",
                "True": "true", "999": "below-1000"}


def case_id(stage, where, value, shown) -> str:
    if where.startswith("detector"):
        return DETECTOR_IDS[repr(value)]
    return f"{stage}-{where or 'config'}-" + ("absent" if value is ABSENT else
                                              json.dumps(value).replace(" ", "").replace('"', ""))


class TestSimulate:
    def test_no_defects_fifty_traces(self, tmp_path):
        cfg = write_config(tmp_path, scenario="scenario_no_defects.json",
                           sweep={"bias_points": 50, "bias_start": 50.0,
                                  "bias_stop": 90.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
        traces = sorted((out / "traces").glob("trace_*.csv"))
        assert len(traces) == 50
        from jjtls.fileio import trace_from_csv
        from jjtls.fitting import fit_hanger

        for p in traces[::10]:
            assert fit_hanger(trace_from_csv(p)).converged

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"bias_points": 25,
                                            "bias_stop": 66.0})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(cfg),
                         "--outdir", str(out)]) == 0
        for p1 in sorted((out1 / "traces").glob("*.csv")):
            p2 = out2 / "traces" / p1.name
            assert p1.read_bytes() == p2.read_bytes()
        assert (out1 / "manifest_simulate.json").read_bytes() == \
            (out2 / "manifest_simulate.json").read_bytes()

    def test_missing_scenario_file(self, tmp_path):
        cfg = write_config(tmp_path, scenario="no_such_scenario.json")
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "r")]) == 1

    def test_missing_seed_rejected(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        del raw["seed"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(p),
                     "--outdir", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("field", ['"n_islands": NaN', '"n_islands": Infinity',
                                       '"n_islands": "100"', '"n_islands": 1.5',
                                       '"f_r": "5.0"', '"noise_sigma": "abc"'])
    def test_malformed_scenario_field_exits_one(self, tmp_path, capsys, field):
        text = (FIXTURES / "scenario_three_defects.json").read_text()
        key = field.split(":")[0]
        lines = [field + "," if line.strip().startswith(key) else line
                 for line in text.splitlines()]
        (tmp_path / "bad.json").write_text("\n".join(lines))
        cfg = write_config(tmp_path, scenario=str(tmp_path / "bad.json"))
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key.strip('"') in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("where", ["config", "scenario"])
    @pytest.mark.parametrize("seed", [1.5, True, "7", -1, None])
    def test_malformed_seed_exits_one(self, tmp_path, capsys, where, seed):
        if where == "config":
            cfg, field = write_config(tmp_path, seed=seed), "seed"
        else:
            raw = json.loads((FIXTURES / "scenario_three_defects.json").read_text())
            (tmp_path / "bad.json").write_text(json.dumps({**raw, "rng_seed": seed}))
            cfg, field = write_config(tmp_path, scenario=str(tmp_path / "bad.json")), "rng_seed"
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be a non-negative integer" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "r" / "traces").exists()

    @pytest.mark.parametrize("seed", ["0", "3", "12345678901234567890"])
    def test_seed_option_overrides_config(self, tmp_path, seed):
        cfg = write_config(tmp_path, sweep={"bias_points": 5, "bias_stop": 54.0})
        out = tmp_path / "r"
        assert main(["simulate", "--config", str(cfg), "--outdir", str(out),
                     "--seed", seed]) == 0
        assert json.loads((out / "scenario_used.json").read_text())["rng_seed"] == int(seed)
        # the manifest hashes the config with --seed applied: it is the manifest
        # of a config whose own seed is that seed
        (tmp_path / "own").mkdir()
        own = write_config(tmp_path / "own", sweep={"bias_points": 5, "bias_stop": 54.0},
                           seed=int(seed))
        assert main(["simulate", "--config", str(own), "--outdir", str(tmp_path / "o")]) == 0
        assert (out / "manifest_simulate.json").read_bytes() == \
            (tmp_path / "o" / "manifest_simulate.json").read_bytes()

    @pytest.mark.parametrize("command,seed", [
        ("simulate", "-1"), ("simulate", "1.5"), ("simulate", "abc"),
        ("detect", "-1"), ("correlate", "-1"), ("correlate", "2.0")])
    def test_malformed_seed_option_exits_one(self, tmp_path, capsys, command, seed):
        if command == "correlate":
            args = ["--densities", str(FIXTURES / "densities.csv"),
                    "--morphology", str(FIXTURES / "morphology.csv")]
        else:
            args = ["--config", str(write_config(tmp_path))]
        out = tmp_path / "r"
        assert main([command, *args, "--outdir", str(out), "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must be a non-negative integer")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestDetect:
    def test_three_plant_fixture_three_events(self, full_run):
        _, out = full_run
        rows = (out / "events.csv").read_text().strip().splitlines()
        assert rows[0] == "shift_kappa,freq_GHz,peak_residual"
        assert len(rows) == 1 + 3

    def test_event_frequencies_match_plants(self, full_run):
        _, out = full_run
        plants = [d["f_tls"] for d in json.loads(
            (FIXTURES / "scenario_three_defects.json").read_text())["defects"]]
        rows = (out / "events.csv").read_text().strip().splitlines()[1:]
        got = sorted(float(r.split(",")[1]) for r in rows)
        kappa = 0.001
        for f_obs, f_true in zip(got, sorted(plants)):
            assert abs(f_obs - f_true) < kappa / 2

    def test_detect_without_traces(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["detect", "--config", str(cfg),
                     "--outdir", str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize("stage", ["detect", "infer"])
    def test_missing_run_directory_not_created(self, tmp_path, capsys, stage):
        # both stages read their inputs from --outdir; a failed run leaves nothing
        cfg = write_config(tmp_path)
        assert main([stage, "--config", str(cfg),
                     "--outdir", str(tmp_path / "missing")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "missing").exists()

    def test_corrupt_trace_row_reports_location(self, full_run, tmp_path, capsys):
        _, out = full_run
        broken = tmp_path / "broken"
        (broken / "traces").mkdir(parents=True)
        for p in sorted((out / "traces").glob("*.csv")):
            shutil.copy(p, broken / "traces" / p.name)
        victim = broken / "traces" / "trace_0005.csv"
        lines = victim.read_text().splitlines()
        lines[17] = "not,a,valid"
        victim.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path)
        assert main(["detect", "--config", str(cfg), "--outdir", str(broken)]) == 1
        err = capsys.readouterr().err
        assert "trace_0005.csv" in err and ":18" in err

    @staticmethod
    def check_phases(out, source: str) -> None:
        timings = json.loads((out / "timings_detect.json").read_text())
        phases = timings["phases"]
        assert sorted(phases) == sorted(["build_threshold", "calibrate_noise", "count",
                                         "load", source, "write"])
        assert all(t >= 0 for t in phases.values())
        assert sum(phases.values()) <= timings["seconds"]

    def test_timings_name_every_phase(self, full_run):
        # the fits came from simulate's loop_fits.csv
        self.check_phases(full_run[1], "loop_fits")

    def test_timings_name_fit_without_loop_fits(self, full_run, tmp_path):
        cfg, out = full_run
        shutil.copytree(out, tmp_path / "run")
        (tmp_path / "run" / "loop_fits.csv").unlink()
        assert main(["detect", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 0
        self.check_phases(tmp_path / "run", "fit")

    def test_residual_plot_emitted(self, full_run):
        _, out = full_run
        svg = (out / "residuals.svg").read_text()
        assert svg.startswith("<svg") and "threshold" in svg

    def test_unknown_detector_key_is_one_error(self, full_run, tmp_path, capsys):
        # the critical TLS sits at TLSDefect's 10 mK, so a config that still sets a
        # temperature fails rather than run at 10 mK unnoticed
        _, out = full_run
        shutil.copytree(out, tmp_path / "run")
        cfg = write_config(tmp_path, detector={"temperature": 0.05})
        assert main(["detect", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: detector.temperature")
        assert len(err.strip().splitlines()) == 1
        assert detect_outputs(tmp_path / "run") == detect_outputs(out)

    @pytest.mark.parametrize("stage, where, value, shown", CONFIG_FAILURES,
                             ids=[case_id(*case) for case in CONFIG_FAILURES])
    def test_detector_types_checked_before_writing(self, full_run, tmp_path, capsys,
                                                   stage, where, value, shown):
        # one error line naming the key and exit 1 before any output: neither a
        # traceback, nor a file left behind, nor a value silently truncated or ignored
        _, out = full_run
        run = tmp_path / "run"
        run.mkdir()
        for name in STAGE_INPUTS[stage]:
            (shutil.copytree if name == "traces" else shutil.copy)(out / name, run / name)
        cfg = json.loads(write_config(tmp_path).read_text())
        if ":" in where:
            name, _, key = where.partition(":")
            target = run / ("detection_meta.json" if name == "meta" else name)
            target.write_text(json.dumps({**json.loads(target.read_text()), key: value}))
        elif where == "":
            cfg = value
        else:
            head, _, key = where.rpartition(".")
            section = cfg[head] if head else cfg
            if value is ABSENT:
                del section[key]
            else:
                section[key] = value
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(cfg))
        before = run_files(run)
        config = [] if stage == "report" else ["--config", str(path)]
        assert main([stage, *config, "--outdir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err == "error: " + shown.format(config=path, run=run) + "\n"
        assert re.split("[.:]", where)[-1] in err
        assert run_files(run) == before
        assert (run / "traces").exists() == (stage == "detect")

    def test_calibration_failure_preserves_partial_outputs(self, full_run,
                                                           tmp_path):
        # calibration interval sitting on a defect crossing is not flat:
        # exit code 2 (numerical), but the fit table must survive
        _, out = full_run
        broken = tmp_path / "partial"
        (broken / "traces").mkdir(parents=True)
        for p in sorted((out / "traces").glob("*.csv")):
            shutil.copy(p, broken / "traces" / p.name)
        cfg = write_config(tmp_path, sweep={"calibration_interval": [30, 44]})
        assert main(["detect", "--config", str(cfg), "--outdir", str(broken)]) == 2
        assert (broken / "fits.csv").exists()
        assert not (broken / "events.csv").exists()

    def test_past_maximum_events_not_double_counted(self, tmp_path):
        # sweep straight through the flux-map maximum: the single plant is
        # crossed twice but must be reported once
        scen = {
            "resonator": {"f_r": 5.0, "Q_l": 5000.0, "Q_e_mag": 10000.0},
            "flux": {"f_bare": 5.0, "n_islands": 100, "m_trapped": 0,
                     "flux_per_current": 0.02},
            "defects": [{"f_tls": 4.9925, "g": 0.001, "gamma": 0.001,
                         "temperature": 0.01}],
            "noise_sigma": 0.004,
            "rng_seed": 3,
        }
        sp = tmp_path / "through_max.json"
        sp.write_text(json.dumps(scen))
        cfg = write_config(tmp_path, scenario=str(sp),
                           sweep={"bias_start": -95.0, "bias_stop": 95.0,
                                  "bias_points": 120,
                                  "calibration_interval": [55, 65]})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
        assert main(["detect", "--config", str(cfg), "--outdir", str(out)]) == 0
        meta = json.loads((out / "detection_meta.json").read_text())
        assert any(e[2] == "past-maximum" for e in meta["exclusions"])
        rows = (out / "events.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1


def detect_counting_fits(cfg, out, monkeypatch) -> int:
    """Run detect on ``out`` and return how many traces it fitted itself."""
    import jjtls.detector as detector

    calls, fit_next = [], detector.fit_next
    monkeypatch.setattr(detector, "fit_next",
                        lambda *args: calls.append(1) or fit_next(*args))
    assert main(["detect", "--config", str(cfg), "--outdir", str(out)]) == 0
    monkeypatch.setattr(detector, "fit_next", fit_next)
    return len(calls)


def detect_outputs(out) -> dict:
    """{path: bytes} of manifest_detect.json and of every file it lists."""
    manifest = out / "manifest_detect.json"
    files = [o["path"] for o in json.loads(manifest.read_text())["outputs"]]
    return {p: (out / p).read_bytes() for p in [manifest.name, *files]}


def revouch(out, rel: str) -> None:
    """Write the sha256 and size of ``rel`` into manifest_simulate.json."""
    import hashlib

    path = out / "manifest_simulate.json"
    manifest = json.loads(path.read_text())
    data = (out / rel).read_bytes()
    for o in manifest["outputs"]:
        if o["path"] == rel:
            o["sha256"], o["bytes"] = hashlib.sha256(data).hexdigest(), len(data)
    path.write_text(json.dumps(manifest))


# fleet-sweeps seed 7, sweep 3: fit 101 of its 120 traces does not converge
FLEET_7_3 = {
    "resonator": {"f_r": 5.0, "Q_l": 5000.0, "Q_e_mag": 10000.0, "theta": 0.05,
                  "A": 0.95, "alpha": 0.1, "phi_v": 1.2, "phi_0": 0.3},
    "flux": {"f_bare": 5.0, "n_islands": 100, "m_trapped": 0, "flux_per_current": 0.02},
    "defects": [{"f_tls": f, "g": 0.001, "gamma": 0.001, "temperature": 0.01}
                for f in (4.989265571290535, 4.972828100102541, 4.981801019641216)],
    "noise_sigma": 0.005, "rng_seed": 743977526,
}


class TestLoopFits:
    """detect takes simulate's loop_fits.csv only where simulate's manifest
    vouches for every byte it read; its outputs are the same either way."""

    @pytest.mark.parametrize("case,reused", [("fixture", True), ("descending", False),
                                             ("fleet-7-3", True)])
    def test_reuse_changes_no_output(self, full_run, tmp_path, monkeypatch, case, reused):
        cfg, out = full_run
        if case != "fixture":
            if case == "descending":
                cfg = write_config(tmp_path, sweep={
                    "bias_plan": [110.0 - 60.0 * k / 89 for k in range(90)],
                    "calibration_interval": [75, 89]})
            else:
                (tmp_path / "scenario.json").write_text(json.dumps(FLEET_7_3))
                cfg = write_config(tmp_path, scenario=str(tmp_path / "scenario.json"),
                                   sweep={"bias_stop": 130.0, "bias_points": 120},
                                   seed=FLEET_7_3["rng_seed"])
            out = tmp_path / "sim"
            assert main(["simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
        n = len(list((out / "traces").glob("trace_*.csv")))
        with_table, without = tmp_path / "with", tmp_path / "without"
        shutil.copytree(out, with_table)
        shutil.copytree(out, without)
        (without / "loop_fits.csv").unlink()
        assert detect_counting_fits(cfg, with_table, monkeypatch) == (0 if reused else n)
        assert detect_counting_fits(cfg, without, monkeypatch) == n
        assert detect_outputs(with_table) == detect_outputs(without)
        if case == "fleet-7-3":
            converged = (with_table / "fits.csv").read_text().splitlines()[102][-2:]
            assert converged == ",0"

    def test_failed_fits_round_trip(self, tmp_path):
        # every field comes back equal, the failed-fit placeholder's inf included
        from jjtls.fileio import write_csv
        from jjtls.fitting import FAILED_FIT, FitResult
        from jjtls.physics import ResonatorParams, Trace
        from jjtls.pipeline import _fit_columns, _loop_fits

        grid = np.linspace(4.99, 5.01, 16)
        traces = [Trace(grid, np.ones(16), bias_current=b) for b in (-0.0, 50.0, 50.5)]
        files = [write_csv(tmp_path, "trace", [t.bias_current, t.freqs, t.s21.real,
                                               t.s21.imag], f"{k:04d}").path
                 for k, t in enumerate(traces)]
        fits = [FAILED_FIT,
                FitResult(ResonatorParams(4.97191244639, 1043.0056, 4071.49, 0.45, 1.01,
                                          5.17, -10.585435335786798, 52.67),
                          float("inf"), False, 200),
                FitResult(ResonatorParams(5.0 + 1e-15, 5000.0, 1e4, -0.05, 0.95, 0.1,
                                          1.2, 0.3), 5.157630154687549e-05, True, 6)]
        path = write_csv(tmp_path, "loop_fits",
                         _fit_columns([t.bias_current for t in traces], fits)).path
        bias, back = _loop_fits(path, {p: p.read_bytes() for p in [*files, path]}, files)
        assert list(map(repr, bias)) == ["-0.0", "50.0", "50.5"]
        assert back == fits
        assert [type(v) for v in vars(back[1].params).values()] == [float] * 8
        assert path.read_text().splitlines()[1].split(",")[-3:] == ["inf", "0", "0"]

    @staticmethod
    def edit_trace(out):
        victim = out / "traces" / "trace_0005.csv"
        lines = victim.read_text().splitlines()
        cells = lines[10].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)
        lines[10] = ",".join(cells)
        victim.write_text("\n".join(lines) + "\n")

    @staticmethod
    def edit_table(out, drop_row: bool):
        table = out / "loop_fits.csv"
        lines = table.read_text().splitlines()
        if drop_row:
            del lines[-1]
        else:
            lines[1] = "50.125" + lines[1][len("50.0"):]
        table.write_text("\n".join(lines) + "\n")
        revouch(out, "loop_fits.csv")

    @pytest.mark.parametrize("case,n_fits", [
        ("edited trace", 90), ("fewer traces", 89),
        ("package version", 90), ("no manifest", 90), ("manifest not json", 90),
        ("outputs not a list", 90), ("output without sha256", 90),
        ("table rows", 90), ("table currents", 90), ("no table", 90)])
    def test_refusals_fall_back_to_fitting(self, full_run, tmp_path, monkeypatch,
                                           case, n_fits):
        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        manifest = run / "manifest_simulate.json"
        if case == "edited trace":
            self.edit_trace(run)
        elif case == "fewer traces":
            (run / "traces" / "trace_0089.csv").unlink()
        elif case == "package version":
            manifest.write_text(manifest.read_text().replace(
                '"package_version": "', '"package_version": "0.'))
        elif case == "no manifest":
            manifest.unlink()
        elif case == "manifest not json":
            manifest.write_text("{")
        elif case in ("outputs not a list", "output without sha256"):
            data = json.loads(manifest.read_text())
            if case == "outputs not a list":
                data["outputs"] = 5
            else:
                del data["outputs"][0]["sha256"]
            manifest.write_text(json.dumps(data))
        elif case == "no table":
            (run / "loop_fits.csv").unlink()
        else:
            self.edit_table(run, drop_row=case == "table rows")
        assert detect_counting_fits(cfg, run, monkeypatch) == n_fits
        phases = json.loads((run / "timings_detect.json").read_text())["phases"]
        assert "fit" in phases
        # the table is read only where the manifest vouches for every file
        assert ("loop_fits" in phases) == (case in ("fewer traces", "table rows",
                                                    "table currents"))
        if n_fits == 90 and case != "edited trace":
            assert detect_outputs(run) == detect_outputs(out)

    def test_vouched_run_parses_one_trace(self, full_run, tmp_path, monkeypatch):
        # the fits and currents come from the table and each trace's first row;
        # only the trace that calibrate_noise reads is parsed in full
        import jjtls.pipeline as pipeline

        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        parsed, trace_from_csv = [], pipeline.trace_from_csv
        monkeypatch.setattr(pipeline, "trace_from_csv",
                            lambda path, data: parsed.append(path) or trace_from_csv(path, data))
        assert detect_counting_fits(cfg, run, monkeypatch) == 0
        assert len(parsed) == 1
        assert detect_outputs(run) == detect_outputs(out)

    def test_revouched_trace_current_falls_back(self, full_run, tmp_path, monkeypatch):
        # a trace whose first-row current no longer matches the table, re-vouched
        # by its manifest, is fitted with all the others from its parsed samples
        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        victim = run / "traces" / "trace_0040.csv"
        lines = victim.read_text().splitlines()
        cells = lines[1].split(",")
        lines[1] = ",".join([repr(float(cells[0]) + 0.25), *cells[1:]])
        victim.write_text("\n".join(lines) + "\n")
        revouch(run, "traces/trace_0040.csv")
        assert detect_counting_fits(cfg, run, monkeypatch) == 90
        phases = json.loads((run / "timings_detect.json").read_text())["phases"]
        assert "loop_fits" in phases and "fit" in phases

    def test_vouched_malformed_table_is_one_error(self, full_run, tmp_path, capsys):
        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        table = run / "loop_fits.csv"
        lines = table.read_text().splitlines()
        lines[4] = "not a number" + lines[4][lines[4].index(","):]
        table.write_text("\n".join(lines) + "\n")
        revouch(run, "loop_fits.csv")
        assert main(["detect", "--config", str(cfg), "--outdir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"{table}:5" in err


def run_files(run) -> dict:
    """{path: bytes} of every file under ``run``."""
    return {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}


class TestOneRunPerDirectory:
    """A run directory holds one simulate run: simulate does not write over
    another run's traces, and detect reads only the traces simulate listed."""

    def test_resimulation_refused(self, full_run, tmp_path, capsys):
        # the fixture's 90 traces, then a 60-point plan into the same directory:
        # trace_0060 .. trace_0089 of the first plan would join the second sweep
        _, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        before = run_files(run)
        cfg = write_config(tmp_path, sweep={"bias_points": 60, "bias_stop": 90.0})
        assert main(["simulate", "--config", str(cfg), "--outdir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert str(run / "traces") in err
        assert run_files(run) == before

    def test_detect_refuses_unlisted_trace(self, full_run, tmp_path, capsys,
                                           monkeypatch):
        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        stale = run / "traces" / "trace_0090.csv"
        shutil.copy(run / "traces" / "trace_0089.csv", stale)
        before = run_files(run)
        assert main(["detect", "--config", str(cfg), "--outdir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stale}:") and len(err.strip().splitlines()) == 1
        assert run_files(run) == before
        # recorded data without a manifest reads as before: all 91 traces
        (run / "manifest_simulate.json").unlink()
        assert detect_counting_fits(cfg, run, monkeypatch) == 91


class TestTraceOrder:
    def test_index_order_past_9999(self, full_run, tmp_path, monkeypatch):
        # trace_10000.csv sorts between trace_1000.csv and trace_1001.csv as
        # text; plan indices (calibration interval, exclusions) count in
        # index order, so detect must load the files in that order
        cfg, out = full_run
        run = tmp_path / "run"
        (run / "traces").mkdir(parents=True)
        for k in range(90):
            shutil.copy(out / "traces" / f"trace_{k:04d}.csv",
                        run / "traces" / f"trace_{9950 + k}.csv")
        assert sorted(p.name for p in (run / "traces").iterdir())[0] == "trace_10000.csv"
        assert detect_counting_fits(cfg, run, monkeypatch) == 90
        assert detect_outputs(run) == detect_outputs(out)

    def test_name_without_index_is_one_error(self, full_run, tmp_path, capsys):
        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out / "traces", run / "traces")
        shutil.copy(run / "traces" / "trace_0000.csv", run / "traces" / "trace_copy.csv")
        assert main(["detect", "--config", str(cfg), "--outdir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "trace_copy.csv" in err


class TestInfer:
    def test_estimate_contains_truth(self, full_run):
        _, out = full_run
        est = json.loads((out / "estimate.json").read_text())
        lo, hi = est["count_ci68"]
        assert lo <= 3 <= hi or abs(est["mean_count"] - 3) < 1.0

    def test_zero_events_zero_fp_gives_zero_density(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "detection_meta.json").write_text(json.dumps(
            {"n_detected": 0, "n_bins": 20, "delta_f_GHz": 0.02,
             "kappa_GHz": 0.001}))
        (out / "calibration.json").write_text(json.dumps(
            {"threshold": 1e-4, "fp": 0.0, "fn": 0.0, "noise_sigma": 0.005,
             "gauss_noise": [5e-5, 1e-5], "gauss_tls": [3e-4, 5e-5]}))
        cfg = write_config(tmp_path)
        assert main(["infer", "--config", str(cfg), "--outdir", str(out)]) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["rho"] == 0.0

    def test_invalid_area_rejected(self, full_run, tmp_path):
        _, out = full_run
        cfg = write_config(tmp_path, inference={"area": -5.0})
        assert main(["infer", "--config", str(cfg), "--outdir", str(out)]) == 1

    def test_missing_rates_hint(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "detection_meta.json").write_text(json.dumps(
            {"n_detected": 1, "n_bins": 10, "delta_f_GHz": 0.01,
             "kappa_GHz": 0.001}))
        (out / "calibration.json").write_text(json.dumps({"threshold": 1e-4}))
        cfg = write_config(tmp_path)
        assert main(["infer", "--config", str(cfg), "--outdir", str(out)]) == 1
        assert "detect" in capsys.readouterr().err

    def test_outdir_under_regular_file(self, tmp_path, capsys):
        # a file-system error is a one-line message with exit code 1
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        cfg = write_config(tmp_path)
        assert main(["infer", "--config", str(cfg),
                     "--outdir", str(blocker / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_posterior_csv_normalized(self, full_run):
        _, out = full_run
        rows = (out / "posterior.csv").read_text().strip().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def infer_dir(out, n_detected: int, n_bins: int):
        out.mkdir()
        (out / "detection_meta.json").write_text(json.dumps(
            {"n_detected": n_detected, "n_bins": n_bins, "delta_f_GHz": 0.001 * n_bins,
             "kappa_GHz": 0.001}))
        (out / "calibration.json").write_text(json.dumps(
            {"threshold": 1e-4, "fp": 0.02, "fn": 0.35, "noise_sigma": 0.005,
             "gauss_noise": [5e-5, 1e-5], "gauss_tls": [3e-4, 5e-5]}))
        return out

    @pytest.mark.parametrize("B", [30, 100, 300, 1000])
    def test_likelihood_built_once(self, tmp_path, monkeypatch, B):
        # posterior.svg's likelihood curve reads the posterior's own count
        # likelihood, and is marginal_likelihood's curve bit for bit
        import jjtls.inference as inference
        import jjtls.svgplot as svgplot
        from _oracles import marginal_likelihood

        real, calls, render, panels = inference.likelihood_vector, [], svgplot.render, []
        monkeypatch.setattr(inference, "likelihood_vector",
                            lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(svgplot, "render", lambda p: panels.extend(p) or render(p))
        out = self.infer_dir(tmp_path / "run", B // 10, B)
        cfg = write_config(tmp_path)
        assert main(["infer", "--config", str(cfg), "--outdir", str(out)]) == 0
        assert len(calls) == 1
        monkeypatch.setattr(inference, "likelihood_vector", real)
        lams, got = next((xs, ys) for xs, ys, label in panels[0].lines if label == "likelihood")
        want = marginal_likelihood(B // 10, B, inference.true_rates(0.02, 0.35), np.array(lams))
        assert want.max() > 0 and np.array_equal(got, want / want.max())


def in_fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter with src/ on the path; it prints JSON last."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def stage_loads(argv) -> dict:
    """Exit code of ``jjtls <argv>`` in a fresh interpreter, and the scipy modules it loaded."""
    return in_fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "import jjtls.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = jjtls.cli.main({[str(a) for a in argv]!r})\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from jjtls.stats import shapiro_wilk  # still importable afterwards\n"
        "print(json.dumps({'code': code, 'scipy': scipy}))\n")


def loaded(modules, prefix: str) -> list:
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


class TestStartup:
    # Each CLI stage is a fresh process, so what it imports is most of what
    # a user waits for: scipy.optimize alone costs more than infer's work.

    def test_import_loads_neither_numpy_nor_scipy(self):
        result = in_fresh_interpreter(
            "import json, sys\n"
            "import jjtls\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('numpy', 'scipy'))))\n")
        assert result == []

    @pytest.mark.parametrize("argv", [["schema"], ["detect", "--schema"], ["report"]],
                             ids=["schema", "detect --schema", "report"])
    def test_schema_and_report_load_no_scipy(self, argv, full_run, tmp_path):
        if argv == ["report"]:
            shutil.copytree(full_run[1], tmp_path / "run")
            argv = ["report", "--outdir", tmp_path / "run"]
        assert stage_loads(argv) == {"code": 0, "scipy": []}

    def test_import_and_infer_leave_statistics_unloaded(self, full_run, tmp_path):
        # infer needs scipy.special only: no fitter (scipy.optimize) and none
        # of the statistics that correlate alone runs
        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        result = stage_loads(["infer", "--config", cfg, "--outdir", run])
        assert result["code"] == 0
        assert loaded(result["scipy"], "scipy.special")
        for heavy in ("scipy.optimize", "scipy.stats", "scipy.cluster", "scipy.signal"):
            assert loaded(result["scipy"], heavy) == [], heavy

    def test_lazy_names_resolve_to_their_modules(self):
        # in a fresh interpreter, so each first access imports its module
        result = in_fresh_interpreter(
            "import importlib, json\n"
            "import jjtls\n"
            "listed = set(dir(jjtls))\n"
            "bad = [name for name, module in jjtls._MODULE_OF.items()\n"
            "       if getattr(jjtls, name) is not\n"
            "       getattr(importlib.import_module('jjtls.' + module), name)\n"
            "       or name not in listed]\n"
            "print(json.dumps({'names': len(jjtls._MODULE_OF), 'bad': bad}))\n")
        # the names exported before they were lazy, less estimate_snr (now a test oracle)
        assert result == {"names": 52, "bad": []}

    def test_unknown_attribute_raises(self):
        result = in_fresh_interpreter(
            "import json\n"
            "import jjtls\n"
            "try:\n"
            "    jjtls.no_such_name\n"
            "    raised = None\n"
            "except AttributeError as exc:\n"
            "    raised = str(exc)\n"
            "print(json.dumps(raised))\n")
        assert result == "module 'jjtls' has no attribute 'no_such_name'"


class TestCorrelate:
    def test_fixture_reports(self, tmp_path):
        out = tmp_path / "corr"
        assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(out), "--repeats", "30"]) == 0
        report = json.loads((out / "correlation_report.json").read_text())
        grain_cluster = next(c for c in report["clusters"]
                             if "grain_width_mean" in c)
        assert report["ranking"][0] in grain_cluster
        rank_rows = (out / "rank_tests.csv").read_text().strip().splitlines()[1:]
        pvals = {}
        for r in rank_rows:
            t1, t2, _, p = r.split(",")
            pvals[(t1, t2)] = float(p)
        assert pvals[("A", "D")] < 0.05
        assert pvals[("A", "B")] > 0.05

    def test_single_repeat_rejected(self, tmp_path, capsys):
        # one shuffle per feature has no std; the report would hold bare NaN
        assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(tmp_path / "c"), "--repeats", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeats" in err
        # checked before any output: the out-dir holds no file
        out = tmp_path / "c"
        assert not out.exists() or not any(out.rglob("*"))

    @pytest.mark.parametrize("repeats", ["abc", "1.5", "true"])
    def test_non_integer_repeats_rejected(self, tmp_path, capsys, repeats):
        # read as text and checked as an integer, as --seed is: exit 1, not
        # argparse's exit 2, and no output
        out = tmp_path / "c"
        assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(out), "--repeats", repeats]) == 1
        assert capsys.readouterr().err == f"error: --repeats must be an int >= 2, got {repeats!r}\n"
        assert not out.exists()

    def test_single_treatment_notice(self, tmp_path):
        src = (FIXTURES / "densities.csv").read_text().splitlines()
        only_a = [src[0]] + [r for r in src[1:] if r.startswith("A,")]
        p = tmp_path / "only_a.csv"
        p.write_text("\n".join(only_a) + "\n")
        out = tmp_path / "corr"
        assert main(["correlate", "--densities", str(p),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(out), "--repeats", "10"]) == 0
        notices = json.loads((out / "notices.json").read_text())["notices"]
        assert any("only one treatment" in n for n in notices)

    def test_constant_morphology_column_left_out(self, tmp_path):
        rows = [r.split(",") for r in
                (FIXTURES / "morphology.csv").read_text().strip().splitlines()]
        col = rows[0].index("junction_thickness_std")
        for r in rows[1:]:
            r[col] = "0.34"
        p = tmp_path / "constant.csv"
        p.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "corr"
        assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                     "--morphology", str(p), "--outdir", str(out),
                     "--repeats", "10"]) == 0
        notices = json.loads((out / "notices.json").read_text())["notices"]
        assert any("junction_thickness_std is constant" in n for n in notices)
        report = json.loads((out / "correlation_report.json").read_text())
        assert all("junction_thickness_std" not in c for c in report["clusters"])

    def test_one_varying_morphology_column_skips_clustering(self, tmp_path):
        rows = [r.split(",") for r in
                (FIXTURES / "morphology.csv").read_text().strip().splitlines()]
        for r in rows[1:]:
            r[2:-1] = ["1.0"] * len(r[2:-1])
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "corr"
        assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                     "--morphology", str(p), "--outdir", str(out),
                     "--repeats", "10"]) == 0
        notices = json.loads((out / "notices.json").read_text())["notices"]
        assert any("fewer than 2 varying features" in n for n in notices)
        assert not (out / "correlation_report.json").exists()

    @pytest.mark.parametrize("name,column,cell", [
        ("morphology.csv", "grain_width_mean", "nan"),
        ("densities.csv", "rho", "inf"),
    ])
    def test_non_finite_cell_named(self, tmp_path, capsys, name, column, cell):
        rows = [r.split(",") for r in
                (FIXTURES / name).read_text().strip().splitlines()]
        rows[3][rows[0].index(column)] = cell
        p = tmp_path / name
        p.write_text("\n".join(",".join(r) for r in rows) + "\n")
        inputs = {"densities.csv": FIXTURES / "densities.csv",
                  "morphology.csv": FIXTURES / "morphology.csv", name: p}
        assert main(["correlate", "--densities", str(inputs["densities.csv"]),
                     "--morphology", str(inputs["morphology.csv"]),
                     "--outdir", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"{p}:4: column {column} is not finite" in err

    def test_missing_column_named(self, tmp_path, capsys):
        rows = (FIXTURES / "densities.csv").read_text().splitlines()
        header = rows[0].replace("ci_lo", "low")
        p = tmp_path / "bad.csv"
        p.write_text("\n".join([header] + rows[1:]) + "\n")
        assert main(["correlate", "--densities", str(p),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(tmp_path / "c")]) == 1
        assert "ci_lo" in capsys.readouterr().err

    def test_gamma_overlay_is_the_table_fit(self, tmp_path, monkeypatch):
        # densities.svg draws each treatment's gamma CDF from the shape and
        # scale written to gamma_fits.csv, fitted once per treatment
        import numpy as np
        from scipy.special import gammainc

        import jjtls.stats
        import jjtls.svgplot
        from jjtls.fileio import read_csv

        fits, lines = [], {}
        real_fit, real_line = jjtls.stats.gamma_fit, jjtls.svgplot.Panel.add_line

        def counting_fit(samples):
            fits.append(samples)
            return real_fit(samples)

        def recording_line(panel, x, y, label=""):
            lines[label] = (np.asarray(x), np.asarray(y))
            return real_line(panel, x, y, label)

        monkeypatch.setattr(jjtls.stats, "gamma_fit", counting_fit)
        monkeypatch.setattr(jjtls.svgplot.Panel, "add_line", recording_line)
        out = tmp_path / "corr"
        assert main(["correlate", "--densities", str(FIXTURES / "densities.csv"),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(out), "--repeats", "2"]) == 0
        treatments, _, shape, scale, *_ = read_csv(out / "gamma_fits.csv", "gamma_fits",
                                                   text=("treatment",))
        assert len(fits) == len(treatments) == 5
        for t, k, theta in zip(treatments, shape, scale):
            xs, cdf = lines[f"{t} gamma fit"]
            assert np.array_equal(cdf, gammainc(k, xs / theta))

    def test_gamma_overlay_skipped_with_the_fit(self, tmp_path):
        # a treatment of three devices gets no fit, so no overlay either
        rows = (FIXTURES / "densities.csv").read_text().splitlines()
        kept = [r for r in rows[1:] if not r.startswith("D,")]
        kept += [r for r in rows[1:] if r.startswith("D,")][:3]
        p = tmp_path / "three_d.csv"
        p.write_text("\n".join([rows[0]] + kept) + "\n")
        out = tmp_path / "corr"
        assert main(["correlate", "--densities", str(p),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(out), "--repeats", "2"]) == 0
        notices = json.loads((out / "notices.json").read_text())["notices"]
        assert "gamma fit skipped for D: n=3 < 4" in notices
        svg = (out / "densities.svg").read_text()
        assert "D (n=3)" in svg and "D gamma fit" not in svg
        assert "A gamma fit" in svg


class TestNonUtf8Input:
    """A byte that is not UTF-8 in an input file is one error line naming it."""

    @staticmethod
    def corrupt(path: Path, line: int) -> None:
        lines = path.read_bytes().split(b"\n")
        lines[line] += b"\xff"
        path.write_bytes(b"\n".join(lines))

    @staticmethod
    def one_error_line(capsys, path: Path) -> None:
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"{path}: not UTF-8 text" in err

    def test_trace_csv(self, full_run, tmp_path, capsys):
        _, out = full_run
        broken = tmp_path / "broken"
        shutil.copytree(out / "traces", broken / "traces")
        victim = broken / "traces" / "trace_0003.csv"
        self.corrupt(victim, 40)
        cfg = write_config(tmp_path)
        assert main(["detect", "--config", str(cfg), "--outdir", str(broken)]) == 1
        self.one_error_line(capsys, victim)

    def test_pipeline_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        self.corrupt(cfg, 0)
        assert main(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
        self.one_error_line(capsys, cfg)

    def test_densities_csv(self, tmp_path, capsys):
        p = tmp_path / "densities.csv"
        shutil.copy(FIXTURES / "densities.csv", p)
        self.corrupt(p, 5)
        assert main(["correlate", "--densities", str(p),
                     "--morphology", str(FIXTURES / "morphology.csv"),
                     "--outdir", str(tmp_path / "c")]) == 1
        self.one_error_line(capsys, p)


class TestOversizedCell:
    """A CSV cell longer than csv.field_size_limit() is one error line naming
    the file and line, not a csv.Error traceback."""

    @pytest.mark.parametrize("stage", ["detect", "correlate"])
    def test_one_error_line(self, full_run, tmp_path, capsys, stage):
        cfg, out = full_run
        if stage == "detect":
            shutil.copytree(out / "traces", tmp_path / "run" / "traces")
            victim = tmp_path / "run" / "traces" / "trace_0003.csv"
            argv = ["detect", "--config", str(cfg), "--outdir", str(tmp_path / "run")]
        else:
            victim = tmp_path / "densities.csv"
            shutil.copy(FIXTURES / "densities.csv", victim)
            argv = ["correlate", "--densities", str(victim), "--morphology",
                    str(FIXTURES / "morphology.csv"), "--outdir", str(tmp_path / "c")]
        lines = victim.read_text().splitlines()
        lines[1] = "1" * 200_000 + lines[1][lines[1].index(","):]
        victim.write_text("\n".join(lines) + "\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: {victim}:2: field larger than field "
                                           "limit (131072)\n")


class TestSchemaAndReport:
    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == 0
        text = capsys.readouterr().out
        assert "current_mA,freq_GHz,re_s21,im_s21" in text
        assert "treatment,resonator_id,rho,ci_lo,ci_hi" in text

    def test_schema_flag_on_command(self, capsys):
        assert main(["simulate", "--schema"]) == 0
        assert "scenario.json" in capsys.readouterr().out

    def test_written_files_match_schemas(self, all_stages):
        # every file in the run directory is listed by a stage and has one
        # schema entry; its CSV header or JSON keys are that entry's fields
        from jjtls.fileio import SCHEMAS, schema_text

        out, written = all_stages
        assert sorted(written) == ["correlate", "detect", "infer", "report", "simulate"]
        on_disk = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert on_disk == sorted(f for files in written.values() for f in files)
        seen = set()
        for rel in on_disk:
            names = [k for k, s in SCHEMAS.items() if fnmatch(rel, s.path)]
            assert len(names) == 1, f"{rel}: schema entries {names}"
            name = names[0]
            s = SCHEMAS[name]
            if rel.endswith(".csv"):
                got = (out / rel).read_text().splitlines()[0]
                assert got == ",".join(s.fields), rel
            elif rel.endswith(".json"):
                keys = sorted(json.loads((out / rel).read_text()))
                assert keys == sorted(s.keys), rel
                assert all(k in schema_text(name) for k in keys), rel
                got = ",".join(keys)
            else:
                assert s.fields == (), rel
                continue
            assert got == PINNED_FIELDS[name], f"{rel}: format changed"
            seen.add(name)
        assert seen == set(PINNED_FIELDS)
        for name in ("densities", "morphology"):
            header = (FIXTURES / f"{name}.csv").read_text().splitlines()[0]
            assert header == ",".join(SCHEMAS[name].fields)

    def test_every_json_output_reads_back(self, all_stages):
        # each JSON file of a simulate -> report run passes its schema's types
        from jjtls.fileio import SCHEMAS, read_record

        out, written = all_stages
        seen = set()
        for rel in sorted(f for fs in written.values() for f in fs if f.endswith(".json")):
            name = next(k for k, s in SCHEMAS.items() if fnmatch(rel, s.path))
            assert read_record(out / rel, name) == json.loads((out / rel).read_text()), rel
            seen.add(name)
        assert seen == {k for k, s in SCHEMAS.items() if s.path.endswith(".json") and s.fields}

    def test_schema_text_types_every_json_key(self):
        # jjtls schema prints each key's type from the table the readers check
        from jjtls.fileio import SCHEMAS, schema_text

        named = [k for k, s in SCHEMAS.items() if s.path.endswith(".json") and s.fields]
        assert len(named) == 9
        for name in named:
            s = SCHEMAS[name]
            lines = schema_text(name).splitlines()
            for field, kind in zip(s.fields, s.types):
                assert kind and f"    {field}: {kind}" in lines, (name, field)
                # every type named inside [type] and {key:type,...} is one _check knows
                leaves = {t.rpartition(":")[2] for t in re.split(r"[][{},]", kind) if t}
                assert leaves <= {"int>=0", "int>=1", "number", "number>0", "pair", "text",
                                  "list", "object"}, (name, field)

    def test_schema_flag_names_every_written_file(self, all_stages, capsys):
        _, written = all_stages
        for stage, files in written.items():
            assert main([stage, "--schema"]) == 0
            printed = [line.split(" [")[0] for line in capsys.readouterr().out.splitlines()
                       if not line.startswith(" ")]
            for rel in files:
                assert any(fnmatch(rel, p) for p in printed), f"{stage}: {rel}"

    def test_closed_pipe_exits_quietly(self):
        # `jjtls schema | head`: the reader is gone before the write
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen([sys.executable, "-m", "jjtls.cli", "schema"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_unknown_schema_name(self, capsys):
        assert main(["schema", "nope"]) == 1

    def test_report_consolidates(self, full_run, capsys):
        _, out = full_run
        assert main(["report", "--outdir", str(out)]) == 0
        assert (out / "report.md").exists()
        summary = json.loads((out / "report.json").read_text())
        assert {"simulate", "detect", "infer"} <= set(summary["stages"])

    def test_report_without_manifests(self, tmp_path):
        assert main(["report", "--outdir", str(tmp_path)]) == 1
