import json
from pathlib import Path

import numpy as np
import pytest

from jjtls.errors import SchemaError, ValidationError
from jjtls.fileio import (load_scenario, read_densities_csv, read_morphology_csv,
                          trace_from_csv, trace_rows, write_csv, write_json,
                          write_record)
from jjtls.manifest import config_hash, sha256_file, write_manifest
from jjtls.physics import ResonatorParams, synth_trace
from jjtls.svgplot import Panel, render

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_trace():
    params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, phi_v=1.2)
    grid = np.linspace(4.995, 5.005, 64)
    return synth_trace(params, [], grid, 0.003, np.random.default_rng(5),
                       bias_current=12.5)


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        tr = make_trace()
        p = write_csv(tmp_path, "trace", trace_rows(tr), "0000")
        assert p == tmp_path / "traces" / "trace_0000.csv"
        back = trace_from_csv(p)
        assert np.array_equal(back.freqs, tr.freqs)
        assert np.array_equal(back.s21, tr.s21)
        assert back.bias_current == tr.bias_current

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(SchemaError):
            trace_from_csv(p)

    def test_bad_row_reports_line(self, tmp_path):
        p = write_csv(tmp_path, "trace", trace_rows(make_trace()), "0000")
        lines = p.read_text().splitlines()
        lines[10] = "oops"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r":11"):
            trace_from_csv(p)


class TestSchemaWriters:
    def test_records_and_rows_off_the_table_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="timings"):
            write_record(tmp_path, "timings", {"seconds": 1.0, "load": 0.5}, "x")
        with pytest.raises(SchemaError, match="estimate"):
            write_record(tmp_path, "estimate", {"rho": 1.0})
        with pytest.raises(SchemaError, match="posterior"):
            write_csv(tmp_path, "posterior", [(0, 0.5, 1.0)])
        assert not any(tmp_path.iterdir())

    def test_optional_keys_may_be_absent(self, tmp_path):
        p = write_record(tmp_path, "report", {"stages": {}})
        assert p == tmp_path / "report.json"
        assert p.read_text() == '{\n  "stages": {}\n}\n'


class TestScenarioFile:
    def test_missing_key(self, tmp_path):
        p = tmp_path / "s.json"
        write_json(p, {"resonator": {"f_r": 5.0, "Q_l": 1e3, "Q_e_mag": 1e4}})
        with pytest.raises(SchemaError):
            load_scenario(p)

    def test_unknown_field(self, tmp_path):
        p = tmp_path / "s.json"
        write_json(p, {"resonator": {"f_r": 5.0, "Q_l": 1e3, "Q_e_mag": 1e4,
                                     "bogus": 1},
                       "flux": {"f_bare": 5.0, "n_islands": 10},
                       "noise_sigma": 0.0, "rng_seed": 1})
        with pytest.raises(SchemaError):
            load_scenario(p)

    @pytest.mark.parametrize("section,key,value", [
        ("flux", "n_islands", float("nan")), ("flux", "n_islands", float("inf")),
        ("flux", "n_islands", "100"), ("flux", "n_islands", 1.5),
        ("flux", "n_islands", 0), ("flux", "m_trapped", 0.5),
        ("flux", "f_bare", None), ("resonator", "f_r", "5.0"),
        ("defect", "g", "0.001"), (None, "noise_sigma", "abc"),
        (None, "rng_seed", float("nan")), (None, "rng_seed", float("inf"))])
    def test_malformed_field_is_a_validation_error(self, tmp_path, section, key, value):
        raw = json.loads((FIXTURES / "scenario_three_defects.json").read_text())
        target = {"flux": raw["flux"], "resonator": raw["resonator"],
                  "defect": raw["defects"][0], None: raw}[section]
        target[key] = value
        p = tmp_path / "s.json"
        p.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
        with pytest.raises(ValidationError) as info:
            load_scenario(p)
        assert "\n" not in str(info.value)


class TestCorrelateInputs:
    def test_densities_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("treatment,resonator_id,rho\nA,r0,0.1\n")
        with pytest.raises(SchemaError, match="ci_lo"):
            read_densities_csv(p)

    def test_morphology_bad_value(self, tmp_path):
        header = ("device_label,electrode_thickness_mean,electrode_thickness_std,"
                  "electrode_thickness_rms,grain_width_mean,grain_width_std,"
                  "junction_thickness_mean,junction_thickness_std,"
                  "junction_thickness_rms,tls_density")
        p = tmp_path / "m.csv"
        p.write_text(header + "\nd0,1,2,3,4,5,6,7,not_a_number,0.1\n")
        with pytest.raises(SchemaError, match=":2"):
            read_morphology_csv(p)


class TestSvgPlot:
    def test_deterministic(self):
        def make():
            panel = Panel(title="demo", xlabel="x", ylabel="y")
            panel.add_line([0, 1, 2], [0.1, 0.5, 0.2], "series")
            panel.add_hline(0.3, "thr")
            panel.add_points([1.0], [0.5], "pk")
            return render(panel)

        assert make() == make()

    def test_logy_and_bars(self):
        panel = Panel(logy=True)
        panel.add_line([0, 1, 2, 3], [1e-5, 1e-3, 1e-4, 1e-2])
        text = render(panel)
        assert text.startswith("<svg")
        bars = Panel()
        bars.add_bars(["a", "b"], [0.5, -0.2])
        assert "<rect" in render(bars)


class TestManifest:
    def test_config_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_manifest_lists_checksums(self, tmp_path):
        f1 = tmp_path / "x.txt"
        f1.write_text("hello")
        path = write_manifest(tmp_path, "demo", {"seed": 1}, [f1],
                              timings={"seconds": 0.5})
        import json

        data = json.loads(path.read_text())
        assert data["outputs"][0]["path"] == "x.txt"
        assert data["outputs"][0]["sha256"] == sha256_file(f1)
        assert "timings" not in data
        assert (tmp_path / "timings_demo.json").exists()
