import json
import re
from pathlib import Path

import numpy as np
import pytest

import _oracles
from jjtls.errors import SchemaError, ValidationError
from jjtls.fileio import (CONFIG_KEYS, MIN_ENSEMBLE_SIZE, SCHEMAS, load_pipeline_config,
                          load_scenario, read_csv, read_densities_csv, read_morphology_csv,
                          trace_from_csv, write_csv, write_json, write_record, write_text)
from jjtls.manifest import config_hash, write_manifest
from jjtls.physics import ResonatorParams, synth_trace
from jjtls.svgplot import Panel, render

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_trace():
    params = ResonatorParams(f_r=5.0, Q_l=5000.0, Q_e_mag=10000.0, phi_v=1.2)
    grid = np.linspace(4.995, 5.005, 64)
    return synth_trace(params, [], grid, 0.003, np.random.default_rng(5),
                       bias_current=12.5)


def trace_columns(trace):
    """The columns of a trace CSV as simulate passes them: the bias current is
    a scalar, which write_csv repeats on every row."""
    return [trace.bias_current, trace.freqs, trace.s21.real, trace.s21.imag]


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        tr = make_trace()
        p = write_csv(tmp_path, "trace", trace_columns(tr), "0000").path
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
        p = write_csv(tmp_path, "trace", trace_columns(make_trace()), "0000").path
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
            write_csv(tmp_path, "posterior", [[0], [0.5], [1.0]])
        with pytest.raises(SchemaError, match="posterior"):
            write_csv(tmp_path, "posterior", [[0, 1], [0.5]])
        assert not any(tmp_path.iterdir())

    def test_optional_keys_may_be_absent(self, tmp_path):
        p = write_record(tmp_path, "report", {"stages": {}}).path
        assert p == tmp_path / "report.json"
        assert p.read_text() == '{\n  "stages": {}\n}\n'


CSV_SCHEMAS = sorted(k for k, s in SCHEMAS.items() if s.path.endswith(".csv"))
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1e22, 0.1, 1 / 3, -2.5e-308,
               1.7976931348623157e308, 9007199254740993.0, 123456789.0]


def random_columns(name, seed, n=40, finite=False):
    """Columns for schema ``name`` from ``seed``: each column is float, int or
    text in turn (the turn starts at ``seed``), so three seeds give every
    column every type.  Floats are seeded draws over 600 decades after the
    edge values; the text columns are returned as the second item."""
    rng = np.random.default_rng(seed)
    cols, text = [], []
    for j, field in enumerate(SCHEMAS[name].fields):
        kind = (seed + j) % 3
        if kind == 0:
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
            col[:len(EDGE_FLOATS)] = EDGE_FLOATS
            if not finite:
                col[-3:] = [np.inf, -np.inf, np.nan]
        elif kind == 1:
            col = rng.integers(-10**15, 10**15, n)
            col[:3] = [0, -1, 2**53 + 1]
        else:
            col = np.array(["".join(rng.choice(list("abxyz_ 01.e"), 6)) for _ in range(n)])
            text.append(field)
        cols.append(col if seed % 2 else col.tolist())  # arrays and lists
    return cols, tuple(text)


def as_rows(columns):
    """Columns as the oracle reader returns them: rows of floats and strings."""
    return [list(r) for r in zip(*(c if isinstance(c, list) else c.tolist()
                                   for c in columns))]


def read_outcome(read, path, name, text):
    try:
        got = read(path, name, text)
    except SchemaError as exc:
        return "error", str(exc)
    return "ok", repr(got if read is _oracles.read_csv else as_rows(got))


class TestCsvMatchesRowOracle:
    """The column-wise writer and reader against the row-wise ones they replace."""

    @pytest.mark.parametrize("name", CSV_SCHEMAS)
    def test_written_bytes_equal(self, tmp_path, name):
        for seed in range(6):
            cols, _ = random_columns(name, seed)
            # column seed % width also goes in as a scalar: one value on every row
            j = seed % len(cols)
            same = [*cols[:j], np.asarray(cols[j])[seed], *cols[j + 1:]]
            for given in (cols, same):
                new = write_csv(tmp_path / "new", name, given, "0000")
                old = _oracles.write_csv(tmp_path / "old", name,
                                         zip(*np.broadcast_arrays(*given)), "0000")
                assert new.path.read_bytes() == old.path.read_bytes(), seed
        empty = [[] for _ in SCHEMAS[name].fields]
        assert (write_csv(tmp_path / "new", name, empty, "0000").path.read_bytes()
                == _oracles.write_csv(tmp_path / "old", name, [], "0000").path.read_bytes())

    @pytest.mark.parametrize("name", CSV_SCHEMAS)
    def test_read_back_equal(self, tmp_path, name):
        for seed in range(6):
            cols, text = random_columns(name, seed, finite=True)
            p = write_csv(tmp_path, name, cols, "0000").path
            got = read_csv(p, name, text)
            for field, col in zip(SCHEMAS[name].fields, got):
                assert isinstance(col, list) if field in text else col.dtype == float
            old = _oracles.read_csv(p, name, text)
            assert repr(as_rows(got)) == repr(old)
            numeric = [j for j, f in enumerate(SCHEMAS[name].fields) if f not in text]
            for j in numeric:
                assert np.array_equal(got[j], np.array([r[j] for r in old]))


TRACE_HEADER = "current_mA,freq_GHz,re_s21,im_s21"


def trace_text(*edits, header=TRACE_HEADER, tail=""):
    """A six-row trace CSV; each edit is (line number, replacement line)."""
    lines = [header] + [f"1.5,{5 + k * 1e-4!r},0.{k}5,-0.{k}1" for k in range(6)]
    for lineno, line in edits:
        lines[lineno - 1] = line
    return "\n".join(lines) + "\n" + tail


DENSITIES_HEADER = "treatment,resonator_id,rho,ci_lo,ci_hi"

# (id, schema, text columns, file contents)
MALFORMED = [
    ("column_count", "trace", (), trace_text((4, "1.5,5.0,0.1"))),
    ("unparsable_cell", "trace", (), trace_text((3, "1.5,5.0,oops,0.2"))),
    ("nan_cell", "trace", (), trace_text((5, "1.5,5.0,nan,0.2"))),
    ("inf_cell", "trace", (), trace_text((5, "1.5,inf,0.1,0.2"))),
    ("minus_inf_cell", "trace", (), trace_text((2, "-inf,5.0,0.1,0.2"))),
    ("missing_column", "trace", (), trace_text(header="current_mA,freq_GHz,re_s21")),
    ("empty_file", "trace", (), ""),
    ("header_only", "trace", (), TRACE_HEADER + "\n"),
    ("header_and_blank_lines", "trace", (), TRACE_HEADER + "\n\n\n"),
    ("trailing_blank_lines", "trace", (), trace_text(tail="\n\n\n")),
    ("blank_line_then_fault", "trace", (), trace_text((3, ""), (6, "1.5,5.0,x,0.2"))),
    ("whitespace_line", "trace", (), trace_text((4, "   "))),
    ("extra_text_column", "trace", (),
     "\n".join([TRACE_HEADER + ",note"] + [f"1.5,5.{k},0.1,0.2,take {k}"
                                           for k in range(4)]) + "\n"),
    ("extra_column_short_row", "trace", (),
     TRACE_HEADER + ",note\n1.5,5.0,0.1,0.2,a\n1.5,5.1,0.1,0.2\n"),
    ("quoted_numeric_cell", "trace", (), trace_text((3, '1.5,"5.0",0.1," 0.2 "'))),
    ("quoted_newline_cell", "trace", (),
     trace_text((3, '1.5,"5.0\n",0.1,0.2'), (5, "1.5,5.0,y,0.2"))),
    ("two_faults_count_first", "trace", (),
     trace_text((3, "1.5,5.0,0.1"), (5, "1.5,5.0,nan,0.2"))),
    ("two_faults_nonfinite_first", "trace", (),
     trace_text((3, "1.5,5.0,0.1,inf"), (5, "1.5,5.0"))),
    ("two_faults_parse_first", "trace", (),
     trace_text((3, "1.5,5.0,0.1,z"), (6, "nan,5.0,0.1,0.2"))),
    ("parse_before_nonfinite_on_a_line", "trace", (), trace_text((4, "nan,5.0,0.1,x"))),
    ("two_parse_faults_on_a_line", "trace", (), trace_text((4, "1.5,a,b,0.2"))),
    ("two_nonfinite_on_a_line", "trace", (), trace_text((4, "1.5,nan,inf,0.2"))),
    ("reordered_header_faults", "trace", (),
     "im_s21,re_s21,freq_GHz,current_mA\n0.1,0.2,5.0,1.5\nx,0.2,y,1.5\n"),
    ("underscore_and_spaces", "trace", (), trace_text((2, " 1_5 ,5.0e0,+0.1,-0\t"))),
    ("oversized_cell", "trace", (), trace_text((3, "1" * 200_000 + ",5.0,0.1,0.2"))),
    ("densities_text_stripped", "densities", ("treatment", "resonator_id"),
     DENSITIES_HEADER + "\n A ,r0 ,0.1,0.05,0.2\nB,\"r,1\",0.2,0.1,0.3\n"),
    ("densities_nonfinite_rho", "densities", ("treatment", "resonator_id"),
     DENSITIES_HEADER + "\nA,r0,0.1,0.05,0.2\nnan,r1,nan,0.1,0.3\n"),
]


# the files of MALFORMED that both readers accept
ACCEPTED = {"trailing_blank_lines", "extra_text_column", "quoted_numeric_cell",
            "underscore_and_spaces", "densities_text_stripped"}


class TestMalformedCsvMatchesRowOracle:
    @pytest.mark.parametrize("case,name,text,contents", MALFORMED,
                             ids=[c[0] for c in MALFORMED])
    def test_same_outcome(self, tmp_path, case, name, text, contents):
        p = tmp_path / "t.csv"
        p.write_text(contents)
        got = read_outcome(read_csv, p, name, text)
        assert got == read_outcome(_oracles.read_csv, p, name, text)
        assert got[0] == ("ok" if case in ACCEPTED else "error")


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
        (None, "rng_seed", float("nan")), (None, "rng_seed", float("inf")),
        (None, "rng_seed", 1.5), (None, "rng_seed", True), (None, "rng_seed", "7"),
        (None, "rng_seed", -1), (None, "noise_sigma", None), (None, "noise_sigma", True)])
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
        if section is None:
            assert key in str(info.value)

    def test_integer_seed_kept(self, tmp_path):
        raw = json.loads((FIXTURES / "scenario_three_defects.json").read_text())
        p = tmp_path / "s.json"
        for seed in (0, 2**70):
            p.write_text(json.dumps({**raw, "rng_seed": seed}))
            assert load_scenario(p).rng_seed == seed


class TestPipelineConfig:
    """The config shapes the repository itself writes, read value by value."""

    def test_fixture(self):
        path = FIXTURES / "pipeline.json"
        cfg = load_pipeline_config(path)
        assert cfg.raw == json.loads(path.read_text())
        assert cfg.scenario == FIXTURES.resolve() / "scenario_three_defects.json"
        assert cfg.seed == 7
        assert cfg.bias_plan == tuple(np.linspace(50.0, 110.0, 90).tolist())
        assert (cfg.span, cfg.n_points) == (0.01, 201)
        assert (cfg.calibration_interval, cfg.exclusions) == ((0, 14), ())
        assert (cfg.ensemble_size, cfg.area, cfg.delta_f) == (1200, 100.0, None)
        # --seed replaces the seed of the object the manifests hash, and only that
        again = load_pipeline_config(path, seed=3)
        assert again.seed == 3 and again.raw == {**cfg.raw, "seed": 3}
        assert again == load_pipeline_config(path, 3) and cfg.raw["seed"] == 7

    def test_infer_only_shape(self, tmp_path):
        # perfbench's wideband infer.json: no plan, interval or detector section
        raw = {"scenario": "not-used-by-infer.json", "sweep": {},
               "inference": {"area": 0.5, "delta_f": None}, "seed": 1}
        (tmp_path / "infer.json").write_text(json.dumps(raw))
        cfg = load_pipeline_config(tmp_path / "infer.json")
        assert cfg.scenario == tmp_path.resolve() / "not-used-by-infer.json"
        assert (cfg.bias_plan, cfg.span, cfg.calibration_interval) == (None, None, None)
        assert (cfg.n_points, cfg.exclusions, cfg.ensemble_size) == (201, (), 5000)
        assert (cfg.area, cfg.delta_f, cfg.raw) == (0.5, None, raw)

    def test_default_ensemble_and_explicit_plan(self, tmp_path):
        # perfbench/reference.py's 5000-member config: the fixture with an absolute
        # scenario and no ensemble_size; an explicit bias_plan wins over the linear keys
        raw = json.loads((FIXTURES / "pipeline.json").read_text())
        raw["scenario"] = str(FIXTURES / raw["scenario"])
        del raw["detector"]["ensemble_size"]
        raw["sweep"]["bias_plan"] = [60, 55.5]
        (tmp_path / "pipeline-5000.json").write_text(json.dumps(raw))
        cfg = load_pipeline_config(tmp_path / "pipeline-5000.json")
        assert cfg.scenario == FIXTURES / "scenario_three_defects.json"
        assert cfg.ensemble_size == 5000
        assert cfg.bias_plan == (60.0, 55.5) and type(cfg.bias_plan[0]) is float

    def test_note_names_every_key(self):
        note = SCHEMAS["pipeline"].note
        missing = [k for keys in CONFIG_KEYS.values() for k in keys
                   if not re.search(rf"\b{k}\b", note)]
        assert not missing
        assert f"ensemble_size?: int >= {MIN_ENSEMBLE_SIZE}" in note


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
        # the writers return what they wrote and the manifest lists that: the
        # sha256 and size of the files on disk, deleted before the manifest is
        # written, so it cannot have read them back
        written = [write_csv(tmp_path, "trace", trace_columns(make_trace()), "0007"),
                   write_record(tmp_path, "report", {"stages": {}}),
                   write_text(tmp_path, "report_md", "r\u00e9sum\u00e9\n")]
        on_disk = {str(w.path.relative_to(tmp_path)): (_oracles.sha256_file(w.path),
                                                        w.path.stat().st_size)
                   for w in written}
        for w in written:
            w.path.unlink()
        path = write_manifest(tmp_path, "demo", {"seed": 1}, written[::-1],
                              timings={"seconds": 0.5})
        data = json.loads(path.read_text())
        assert [o["path"] for o in data["outputs"]] == sorted(on_disk)
        assert {o["path"]: (o["sha256"], o["bytes"]) for o in data["outputs"]} == on_disk
        assert "timings" not in data
        assert (tmp_path / "timings_demo.json").exists()
