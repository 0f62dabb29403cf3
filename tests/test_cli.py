import json
import shutil
from fnmatch import fnmatch
from pathlib import Path

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

    def test_timings_name_every_phase(self, full_run):
        _, out = full_run
        timings = json.loads((out / "timings_detect.json").read_text())
        phases = timings["phases"]
        assert sorted(phases) == ["build_threshold", "calibrate_noise", "find_peaks",
                                  "fit", "load", "normalize_axis", "write"]
        assert all(t >= 0 for t in phases.values())
        assert sum(phases.values()) <= timings["seconds"]

    def test_residual_plot_emitted(self, full_run):
        _, out = full_run
        svg = (out / "residuals.svg").read_text()
        assert svg.startswith("<svg") and "threshold" in svg

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

    def test_likelihood_vector_built_at_most_twice(self, tmp_path, monkeypatch):
        # once for the posterior, once for the likelihood curve in posterior.svg
        import jjtls.inference as inference

        real, calls = inference.likelihood_vector, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(inference, "likelihood_vector", counting)
        out = tmp_path / "run"
        out.mkdir()
        (out / "detection_meta.json").write_text(json.dumps(
            {"n_detected": 4, "n_bins": 80, "delta_f_GHz": 0.08,
             "kappa_GHz": 0.001}))
        (out / "calibration.json").write_text(json.dumps(
            {"threshold": 1e-4, "fp": 0.02, "fn": 0.35, "noise_sigma": 0.005,
             "gauss_noise": [5e-5, 1e-5], "gauss_tls": [3e-4, 5e-5]}))
        cfg = write_config(tmp_path)
        assert main(["infer", "--config", str(cfg), "--outdir", str(out)]) == 0
        assert 1 <= len(calls) <= 2


class TestStartup:
    def test_import_and_infer_leave_statistics_unloaded(self, full_run, tmp_path):
        # scipy.signal, scipy.stats and scipy.cluster cost most of a fresh
        # stage's start-up and only correlate needs them
        import os
        import subprocess
        import sys

        cfg, out = full_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        code = (
            "import json, sys\n"
            "import jjtls, jjtls.cli\n"
            f"argv = ['infer', '--config', {str(cfg)!r}, '--outdir', {str(run)!r}]\n"
            "code = jjtls.cli.main(argv)\n"
            "heavy = [m for m in ('scipy.signal', 'scipy.stats', 'scipy.cluster')\n"
            "         if m in sys.modules]\n"
            "from jjtls.stats import shapiro_wilk\n"
            "print(json.dumps({'code': code, 'heavy': heavy}))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"code": 0, "heavy": []}


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
