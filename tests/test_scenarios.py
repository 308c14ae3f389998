import gc
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qflux import cli
from qflux import closedform as cf
from qflux import fock
from qflux import scenarios as sc
from qflux.errors import BudgetExceededError, ConfigError


class TestScenarioConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="nope")

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig.from_mapping({"seed": 1})

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig.from_mapping({"kind": "sweep", "bogus": 3})

    def test_rational_denominator_bound(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="sweep", omega_f="100/101")

    def test_irrational_frequency_rejected(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="sweep", omega_f=math.sqrt(2))

    def test_rational_strings_accepted(self):
        config = sc.ScenarioConfig(kind="sweep", omega_f="5/2")
        assert float(config.omega_f) == 2.5

    @pytest.mark.parametrize("field", ["omega_i", "omega_f"])
    def test_boolean_frequency_rejected(self, tmp_path, field):
        # True would otherwise run as the frequency 1
        with pytest.raises(ConfigError):
            sc.default_config("figure2", **{field: True})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: True}))
        assert cli.main(["figure2", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="sweep", chi_grid=(0.5, -1.0))
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="sweep", p_grid=(1.5,))

    def test_cutoff_validation(self):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="global-ft", system_cutoff=1)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("QFLUX_MAX_DIM", "16")
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="global-ft", ladder_dim=32)
        config = sc.ScenarioConfig(kind="global-ft", ladder_dim=12,
                                   system_cutoff=8)
        assert config.ladder_dim == 12

    def test_env_cap_malformed(self, monkeypatch):
        monkeypatch.setenv("QFLUX_MAX_DIM", "many")
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="sweep")

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "figure2", "seed": 5,
                                    "chi_grid": [0.1, 1.0]}))
        config = sc.default_config("figure2", path)
        assert config.kind == "figure2" and config.seed == 5

    def test_from_json_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            sc.default_config("figure2", path)


class TestSchema:
    """Values the code cannot evaluate are rejected when the config is built."""

    @pytest.mark.parametrize("fields", [
        {"chi_grid": "25"}, {"chi_grid": "a"}, {"p_grid": 0.5},
        {"w_values": [1.0, "2"]}, {"chi_grid": [True]},
    ])
    def test_grids_must_be_arrays_of_numbers(self, fields):
        with pytest.raises(ConfigError):
            sc.default_config("figure3", **fields)

    @pytest.mark.parametrize("fields", [
        {"cases": 2.5}, {"seed": 1.5}, {"seed": True}, {"system_cutoff": 8.0},
        {"ladder_dim": "24"}, {"n_grid": [2.7, True]}, {"n_grid": [2, 4.0]},
    ])
    def test_integer_fields_must_be_integers(self, fields):
        with pytest.raises(ConfigError):
            sc.default_config("harmonic-limit", **fields)

    @pytest.mark.parametrize("tolerance", [[], "0.1", -1e-9, math.nan, math.inf, False])
    def test_tolerance_must_be_a_finite_nonnegative_number(self, tolerance):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="figure2", tolerance=tolerance)

    def test_valid_values_are_kept(self):
        config = sc.ScenarioConfig(kind="figure4", chi_grid=[1e-6, 50], n_grid=[3],
                                   w_values=(-2, 0.5), tolerance=0)
        assert config.chi_grid == (1e-6, 50.0) and config.n_grid == (3,)
        assert config.w_values == (-2.0, 0.5) and config.tolerance == 0

    @pytest.mark.parametrize("chi", [math.nan, math.inf, 1000.0, 50.000001, 1e-9, 0.0])
    def test_chi_grid_outside_documented_range(self, chi):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="figure3", chi_grid=(0.5, chi))

    @pytest.mark.parametrize("work", [math.nan, math.inf, -math.inf,
                                      pytest.param(10 ** 400, id="1e400")])
    def test_w_values_must_be_finite(self, work):
        with pytest.raises(ConfigError):
            sc.ScenarioConfig(kind="figure3", w_values=(0.0, work))

    @pytest.mark.parametrize("fields", [
        {"chi_grid": [0.5, 0.5]}, {"p_grid": [0.2, 0.4, 0.2]}, {"n_grid": [2, 2]},
        {"w_values": [1.0, 1]},
    ], ids=["chi_grid", "p_grid", "n_grid", "w_values"])
    def test_grids_reject_repeated_entries(self, fields):
        with pytest.raises(ConfigError, match="repeat"):
            sc.default_config("figure3", **fields)

    @pytest.mark.parametrize("name", ["chi_grid", "p_grid", "n_grid", "w_values"])
    def test_grids_reject_an_empty_array(self, name):
        with pytest.raises(ConfigError, match="empty"):
            sc.default_config("figure3", **{name: []})
        with pytest.raises(ConfigError, match="empty"):
            sc.ScenarioConfig(kind="figure3", **{name: ()})

    # each used to pass the schema and then raise from the runner:
    # ZeroDivisionError, DimensionError and a bare ValueError
    @pytest.mark.parametrize("kind, n_grid", [("harmonic-limit", (0,)),
                                              ("harmonic-limit", (-3,)),
                                              ("crooks-binomial-align", (-1,))])
    def test_n_grid_entries_below_one(self, kind, n_grid):
        with pytest.raises(ConfigError, match="n grid"):
            sc.default_config(kind, n_grid=n_grid)

    @pytest.mark.parametrize("cutoffs", [(3, 24), (12, 7), (2, 2)])
    def test_global_ft_rejects_cutoffs_below_its_draw_ranges(self, cutoffs):
        cfg = sc.default_config("global-ft", cases=1, system_cutoff=cutoffs[0],
                                ladder_dim=cutoffs[1])
        with pytest.raises(ConfigError):
            sc.run_scenario(cfg)

    def test_global_ft_smallest_accepted_cutoffs(self):
        report = sc.run_scenario(sc.default_config("global-ft", cases=2, seed=3,
                                                   system_cutoff=4, ladder_dim=8))
        assert report.summary["cases"] == 2


class TestDefaultConfig:
    """default_config is the one loader: suite defaults < file < overrides."""

    def test_field_order(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "ladder_dim": 40}))
        config = sc.default_config("jarzynski", path, seed=6, tolerance=None)
        assert config.omega_f == 2 and config.system_cutoff == 5   # suite defaults
        assert config.ladder_dim == 40                             # file
        assert config.seed == 6                                    # override
        assert config.tolerance is None

    def test_file_and_cli_read_alike(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "jarzynski"}))
        assert sc.default_config("jarzynski", path) == sc.default_config("jarzynski")

    @pytest.mark.parametrize("text", ["[1, 2]", '{"kind": "sweep"}', '{"bogus": 1}',
                                      "\xff"])
    def test_rejected_files(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError):
            sc.default_config("figure2", path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.default_config("figure2", tmp_path / "absent.json")


class TestReports:
    def test_report_determinism(self, tmp_path):
        cfg = sc.default_config("global-ft", cases=6, seed=88,
                                system_cutoff=6, ladder_dim=10)
        r1 = sc.run_scenario(cfg)
        r2 = sc.run_scenario(cfg)
        # no wall-clock content anywhere in the payload
        assert "runtime" not in r1.to_json()
        assert r1.to_json() == r2.to_json()

    def test_figure_outputs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            sc.run_scenario(sc.default_config("figure2", seed=3,
                                              chi_grid=(0.1, 1.0, 3.0),
                                              out_dir=str(out)))
        assert (out1 / "figure2.csv").read_bytes() == \
            (out2 / "figure2.csv").read_bytes()
        assert (out1 / "figure2.json").read_bytes() == \
            (out2 / "figure2.json").read_bytes()

    def test_corrupted_tolerance_names_failing_case(self):
        cfg = sc.default_config("global-ft", cases=4, seed=2,
                                system_cutoff=5, ladder_dim=8, tolerance=0.0)
        report = sc.run_scenario(cfg)
        assert not report.all_passed
        failing = report.failing_cases()
        assert failing and failing[0]["key"].startswith("case-")

    def test_summary_counts(self):
        cfg = sc.default_config("harmonic-limit")
        report = sc.run_scenario(cfg)
        assert report.summary["cases"] == report.summary["passed"] + \
            report.summary["failed"]

    def test_report_without_cases_does_not_pass(self):
        # at chi = 50 and p = 1 every pair falls below the probability floor
        cfg = sc.default_config("crooks-binomial-size", seed=1, chi_grid=(50.0,),
                                p_grid=(1.0,))
        report = sc.run_scenario(cfg)
        assert report.summary["cases"] == 0
        assert report.provenance["dropped"] == {"below_floor": 6}
        assert not report.summary["all_passed"]
        assert not report.all_passed

    def test_global_ft_counts_every_dropped_attempt(self):
        # each attempt is a case or a draw with Q_F or Q_R at or below 1e-12
        report = sc.run_scenario(sc.default_config("global-ft", cases=10, seed=2024))
        dropped, attempts = report.provenance["dropped"], report.provenance["attempts"]
        assert set(dropped) == {"below_floor"} and dropped["below_floor"] >= 1
        assert report.summary["cases"] + dropped["below_floor"] == attempts


def _dumps(payload) -> str:
    """The layout every report and verify.json must reproduce byte for byte."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _lines(text: str) -> list[str]:
    """A text as its lines, ends kept: a mismatch of two large files is
    reported by its first differing line, where a str diff takes minutes."""
    return text.splitlines(keepends=True)


#: the entries of a case as these tests write it, one tuple per case
_CASE = ("key", "inputs", "simulated", "closed_form", "abs_dev", "rel_dev", "passed")


def _report(cases) -> sc.VerificationReport:
    """The finalized report of ``_CASE`` tuples, any field values allowed:
    each case is recorded as a table of its own, every input a column of
    one entry."""
    report = sc.VerificationReport("figure2", 1e-12, {"kind": "figure2", "seed": 3})
    columns = report.columns
    for key, inputs, *numbers in cases:
        columns["inputs"].append((len(columns["key"]),
                                  {name: sc._input_column([value], 1)
                                   for name, value in inputs.items()}))
        columns["key"].append(key)
        for name, value in zip(_CASE[2:], numbers):
            columns[name].append(np.array([value]))
    return report.finalize()


_ODD_CASES = [
    ("chi-nan", {"chi": 0.5}, math.nan, 1.0, math.nan, math.nan, False),
    ("chi-inf", {"chi": 1e-05, "n": 3}, math.inf, 2.5, math.inf, -math.inf, False),
    ('quote"back\\slash-χ\né', {"label": 'a"\\é\n'},
     1e+16, -0.0, 5e-324, 1.7976931348623157e308, True),
    ("empty-inputs", {}, 0.1, 0.1, 0.0, 0.0, True),
    ("mixed", {"n": 7, "name": "added", "x": np.float64(0.3),
               "flag": True, "none": None, "neg": -2},
     np.float64(1 / 3), 1.0, np.float64(2 / 3), 2.0, False),
]


_CHUNK = sc._CASE_CHUNK


def _chunked_cases(count: int) -> list:
    """``count`` plain cases in key order, with ``_ODD_CASES`` in turn at the
    first and the last place of every chunk ``write`` formats (their keys
    prefixed to keep that order)."""
    cases = [(f"case-{i:05d}", {"chi": i / 7, "i": i, "which": "N"},
              i / 3, -i / 9, i / 11, i / 13, i % 3 != 0) for i in range(count)]
    edges = sorted({i for start in range(0, count, _CHUNK)
                    for i in (start, min(start + _CHUNK, count) - 1)})
    for n, i in enumerate(edges):
        key, *fields = _ODD_CASES[n % len(_ODD_CASES)]
        cases[i] = (f"case-{i:05d}-{key}", *fields)
    return cases


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    """``verified(seed)``: the results and output directory of
    ``verify_all(seed=seed, out_dir=...)``, run once per seed in this module."""
    @cache
    def run(seed):
        out = tmp_path_factory.mktemp(f"verify-{seed}")
        return sc.verify_all(seed=seed, out_dir=str(out)), out
    return run


class TestReportJson:
    """to_json writes each case from a fixed layout; its bytes must be those
    of json.dumps(to_dict(), indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_every_suite_and_verify_json_match_json_dumps(self, verified, seed):
        results, out = verified(seed)
        for kind, suite in results["suites"].items():
            assert _lines((out / f"{kind}.json").read_text()) == \
                _lines(_dumps(suite) + "\n"), kind
        payload = {k: v for k, v in results.items() if k != "elapsed_seconds"}
        assert _lines((out / "verify.json").read_text()) == \
            _lines(_dumps(payload) + "\n")

    def test_report_without_cases(self):
        report = _report([])
        assert report.to_json() == _dumps(report.to_dict())
        assert '"cases": [],' in report.to_json()

    @pytest.mark.parametrize("case", _ODD_CASES, ids=lambda c: c[0].split("-")[0])
    def test_edge_case(self, case):
        report = _report([case])
        assert report.to_json() == _dumps(report.to_dict())

    def test_edge_cases_together_and_inside_verify_json(self, tmp_path, monkeypatch):
        report = _report(_ODD_CASES)
        assert report.to_json() == _dumps(report.to_dict())
        monkeypatch.setattr(sc, "run_scenario", lambda config: report)
        results = sc.verify_all(seed=1, out_dir=str(tmp_path))
        payload = {k: v for k, v in results.items() if k != "elapsed_seconds"}
        assert (tmp_path / "verify.json").read_text() == _dumps(payload) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(cases=st.lists(st.tuples(
        st.text(),
        st.dictionaries(st.text(), st.one_of(st.floats(), st.integers(), st.text(),
                                             st.booleans(), st.none())),
        st.floats(), st.floats(), st.floats(), st.floats(), st.booleans()),
        max_size=4, unique_by=lambda c: c[0]))
    def test_random_flat_cases(self, cases):
        report = _report(cases)
        assert report.to_json() == _dumps(report.to_dict())

    @pytest.mark.parametrize("nested", [{"a": 1}, [1, 2], (1, 2), {}, []])
    def test_nested_inputs_raise(self, nested):
        report = _report([("k", {"chi": 0.5, "deep": nested}, 1.0, 1.0, 0.0, 0.0, True)])
        with pytest.raises(TypeError):
            report.to_json()

    @pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                       2 * _CHUNK + 1])
    def test_chunk_boundaries(self, tmp_path, count):
        report = _report(_chunked_cases(count))
        text = report.to_json()
        assert _lines(text) == _lines(_dumps(report.to_dict()))
        assert report.write(tmp_path / "r.json").read_bytes() == (text + "\n").encode()

    @pytest.mark.parametrize("value", [{"a": 1}, [1, 2], (1, 2), {}, {1, 2}, b"x"])
    def test_write_checks_inputs_before_opening(self, tmp_path, value):
        cases = _chunked_cases(2 * _CHUNK + 1)
        cases[-1] = ("zz-last", {"chi": 0.5, "deep": value}, 1.0, 1.0, 0.0, 0.0, True)
        report = _report(cases)
        path = tmp_path / "sub" / "r.json"
        with pytest.raises(TypeError, match="zz-last"):
            report.write(path)
        assert not path.parent.exists()
        path.parent.mkdir()
        path.write_text("kept\n")
        with pytest.raises(TypeError, match="zz-last"):
            report.write(path)
        assert path.read_text() == "kept\n"

    def test_write_never_holds_the_full_text(self, tmp_path):
        report = sc.VerificationReport("figure2", 1e-12, {})
        count = range(20_000)
        sc._record(report, [f"case-{i:05d}" for i in count],
                   {"chi": [i / 7 for i in count], "W": [-i / 3 for i in count]},
                   [i / 3 for i in count], [i / 9 for i in count], tolerance=1.0)
        report.finalize()
        size = len(report.to_json())
        tracemalloc.start()
        try:
            path = report.write(tmp_path / "r.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == size + 1
        assert peak < size

    def test_to_dict_copies_cases(self):
        report = _report(_ODD_CASES)
        before = report.to_json()
        data = report.to_dict()
        data["cases"][0]["inputs"]["chi"] = 99.0
        data["cases"][0]["inputs"]["extra"] = 1
        data["cases"][0]["simulated"] = 42.0
        data["cases"].pop()
        assert report.to_json() == before
        again = report.to_dict()
        assert again["cases"][0] is not data["cases"][0]
        assert again["cases"][0]["inputs"] is not data["cases"][0]["inputs"]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: float inputs json writes in their own ways, -0.0 beside 0.0
_FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3, 5e-324, -1.5e300]
#: one entry of every scalar kind an inputs column may mix
_MIXED = [1, 2.5, 'q"uo\\te %s\n', True, None, math.nan, -(2 ** 70), np.float64(0.1)]


def _column_report(count: int) -> sc.VerificationReport:
    """Four ``_record`` calls of ``count`` cases each, their keys interleaved
    so that every chunk of the report mixes all four: float, str, int, bool,
    None and mixed columns, a constant of each kind, one table of constants
    only and one without inputs."""
    report = sc.VerificationReport("figure2", 1e-12, {"kind": "figure2"})
    rows = range(count)
    floats = [_FLOAT_EDGES[i % len(_FLOAT_EDGES)] for i in rows]
    for call, inputs, simulated, closed_form in (
            (0, {"x": floats, "label": [f'é"{i}%' for i in rows], "n": [i - 3 for i in rows],
                 "flag": [i % 2 == 0 for i in rows], "none": [None] * count,
                 "const_s": '50% "q"\n', "const_i": -7, "const_f": -0.0, "const_b": True,
                 "const_n": None}, floats, floats),
            (1, {"mixed": [_MIXED[i % len(_MIXED)] for i in rows], "x": tuple(floats),
                 "const_nan": math.nan}, [-0.0] * count, [0.0] * count),
            (2, {"only": math.inf, "also": "N+1"}, [i / 3 for i in rows], floats),
            (3, {}, floats, [i / 7 for i in rows])):
        sc._record(report, [f"k{4 * i + call:05d}" for i in rows], inputs,
                   simulated, closed_form, relative=call % 2 == 0)
    return report.finalize()


class TestInputColumns:
    """Inputs handed to ``_record`` as columns: a float column held as a
    float64 array, any other as an object array, a constant once; written
    as json.dumps writes the dicts they stand for."""

    def test_layout(self):
        report = _column_report(5)
        tables = [values for _, values in report.columns["inputs"]]
        assert [start for start, _ in report.columns["inputs"]] == [0, 5, 10, 15]
        assert tables[0]["x"].dtype == np.float64 and tables[1]["x"].dtype == np.float64
        assert all(tables[0][name].dtype == object and tables[0][name].shape == (5,)
                   for name in ("label", "n", "flag", "none"))
        assert tables[1]["mixed"].dtype == object
        constants = [tables[0][name] for name in tables[0] if name.startswith("const_")]
        constants += [tables[1]["const_nan"], *tables[2].values()]
        assert all(value.shape == (5,) and value.strides == (0,) for value in constants)
        assert tables[0]["const_f"].dtype == np.float64 and tables[0]["const_s"][4] == '50% "q"\n'
        assert tables[3] == {}
        assert report.order.tolist() == [5 * call + i for i in range(5) for call in range(4)]

    def test_dicts_keep_kinds_and_signs(self):
        cases = _column_report(len(_MIXED)).to_dict()["cases"]
        first = [case["inputs"] for case in cases[0::4]]
        assert [math.copysign(1.0, inputs["x"]) for inputs in first[3:5]] == [-1.0, 1.0]
        assert [inputs["flag"] for inputs in first[:2]] == [True, False]
        assert all(type(inputs["n"]) is int and type(inputs["x"]) is float for inputs in first)
        assert math.copysign(1.0, first[0]["const_f"]) == -1.0
        assert [case["inputs"]["mixed"] for case in cases[1::4]][:5] == _MIXED[:5]
        assert cases[3]["inputs"] == {} and list(cases[0]["inputs"])[:2] == ["x", "label"]

    @pytest.mark.parametrize("count", [1, _CHUNK // 4, _CHUNK // 4 + 1, _CHUNK, _CHUNK + 3])
    def test_json_matches_json_dumps(self, tmp_path, count):
        report = _column_report(count)
        text = report.to_json()
        assert text == _dumps(report.to_dict())
        assert report.write(tmp_path / "r.json").read_bytes() == (text + "\n").encode()
        assert '"simulated": -0.0' in text and '"closed_form": 0.0' in text

    @pytest.mark.parametrize("bad, named", [
        ({"deep": {"k": 1}}, "a0"),      # a constant: every case of its table
        ({"deep": [1.0, 2.0]}, "b1"),    # only the list column's second entry
    ])
    def test_non_scalar_names_the_first_case_in_key_order(self, tmp_path, bad, named):
        report = sc.VerificationReport("figure2", 1e-12, {})
        sc._record(report, ["b0", "b1", "b2"], {"x": [1.0, 2.0, 3.0], "deep": [1, [2], 3]},
                   [1.0] * 3, [1.0] * 3)
        sc._record(report, ["a0", "a1"], bad, [1.0] * 2, [1.0] * 2)
        report.finalize()
        path = tmp_path / "sub" / "r.json"
        with pytest.raises(TypeError, match=f"case '{named}'"):
            report.write(path)
        assert not path.parent.exists()
        with pytest.raises(TypeError, match=f"case '{named}'"):
            report.to_json()


class TestReportMemory:
    """What a finalized report holds per case, and what writing a CSV holds."""

    def test_figure4_bytes_per_case(self):
        grid = tuple(np.geomspace(*sc.CHI_RANGE, 4000).tolist())   # perfbench's size
        config = sc.default_config("figure4", chi_grid=grid)
        sc.run_scenario(sc.default_config("figure4", chi_grid=grid[:5]))   # warm caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = sc.run_scenario(config)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.summary["cases"] == 24_000
        assert held / 24_000 < 240   # ~166 B: about 110 of them the key

    def test_write_csv_never_holds_the_full_text(self, tmp_path):
        rows = range(20_000)
        columns = [[i / 7 for i in rows], [None if i % 5 == 0 else -i / 3 for i in rows],
                   [float(i) for i in rows]]
        tracemalloc.start()
        try:
            path = sc.write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        header, read = sc.read_csv(path)
        assert header == ["a", "b", "c"] and read == [list(row) for row in zip(*columns)]
        assert peak < path.stat().st_size / 4


class TestRecordColumns:
    """_record's column arithmetic against the scalar expressions on Python
    floats: the same bits for every deviation, the same verdicts."""

    EDGES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -2.5, 1 / 3, 5e-324,
             1e-300, 1.7976931348623157e308)

    @staticmethod
    def _scalar(simulated, closed_form, tol, relative):
        abs_dev = abs(simulated - closed_form)
        scale = abs(closed_form)
        rel_dev = abs_dev / scale if scale > 0 else abs_dev
        return abs_dev, rel_dev, (rel_dev if relative else abs_dev) <= tol

    @pytest.mark.parametrize("relative", [True, False])
    @pytest.mark.parametrize("tolerance", [None, 0.5, "column"])
    def test_bits_and_verdicts_match_scalar_arithmetic(self, relative, tolerance):
        pairs = [(s, c) for s in self.EDGES for c in self.EDGES]
        tols = [(0.0, 1e-12, 1.0, math.inf, math.nan, 2.0)[i % 6] for i in range(len(pairs))]
        report = sc.VerificationReport("figure2", 1e-12, {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc._record(report, [f"k{i:03d}" for i in range(len(pairs))],
                       {"i": list(range(len(pairs)))},
                       [s for s, _ in pairs], [c for _, c in pairs],
                       tolerance=tols if tolerance == "column" else tolerance,
                       relative=relative)
        columns = report.finalize().columns
        assert [len(columns[name]) for name in sc._FIELDS if name != "inputs"] == \
            [len(pairs)] * 6
        assert columns["passed"].dtype == bool and all(
            columns[name].dtype == np.float64 for name in sc._NUMBERS if name != "passed")
        cases = report.to_dict()["cases"]
        assert len(cases) == len(pairs)
        for i, (s, c) in enumerate(pairs):
            tol = tols[i] if tolerance == "column" else tolerance or 1e-12
            abs_dev, rel_dev, passed = self._scalar(s, c, tol, relative)
            assert _bits(columns["simulated"][i]) == _bits(s), (s, c)
            assert _bits(columns["closed_form"][i]) == _bits(c), (s, c)
            assert _bits(columns["abs_dev"][i]) == _bits(abs_dev), (s, c)
            assert _bits(columns["rel_dev"][i]) == _bits(rel_dev), (s, c)
            assert cases[i]["passed"] is passed, (s, c, tol)
            assert columns["key"][i] == f"k{i:03d}" and cases[i]["inputs"] == {"i": i}


class TestCrooksDropCounts:
    """Every candidate (ratio, chi, level) transition of a crooks scan is
    either a case or counted under one drop reason."""

    @pytest.mark.parametrize("kind, overrides, n_chi, counts", [
        ("crooks-added", {}, 4, (83, 168, 37)),
        ("crooks-subtracted", {}, 4, (91, 150, 47)),
        ("crooks-added", {"chi_grid": (0.3, 3.0), "system_cutoff": 5, "ladder_dim": 14},
         2, None),
    ])
    def test_cases_plus_drops_cover_every_transition(self, kind, overrides, n_chi, counts):
        cfg = sc.default_config(kind, seed=2024, **overrides)
        report = sc.run_scenario(cfg)
        dropped = report.provenance["dropped"]
        assert set(dropped) == {"below_floor", "undefined_ratio"}
        got = (len(report.columns["key"]), dropped["below_floor"], dropped["undefined_ratio"])
        assert sum(got) == 3 * n_chi * cfg.ladder_dim
        if counts is not None:
            assert got == counts


class TestTailMass:
    """The photon-state suites record the largest tail mass that truncating
    their prepared system states dropped; the other suites record none."""

    @pytest.mark.parametrize("kind, signs, chis", [
        ("crooks-added", (+1,), (0.1, 2.0)),
        ("crooks-subtracted", (-1,), (0.1, 2.0)),
        ("jarzynski", (+1, -1), (0.25, 0.5)),
    ])
    def test_largest_tail_mass_of_the_prepared_states(self, kind, signs, chis):
        cfg = sc.default_config(kind, seed=2024, chi_grid=chis)
        frequencies = (sc._CROOKS_FREQUENCIES if kind != "jarzynski"
                       else [(Fraction(cfg.omega_i), Fraction(cfg.omega_f))])
        makers = {+1: fock.photon_added_state, -1: fock.photon_subtracted_state}
        expected = max(makers[sign](2.0 * chi / float(omega_i),
                                    fock.OscillatorMode(omega, cfg.system_cutoff),
                                    tail_tol=1.0).tail_mass
                       for omega_i, omega_f in frequencies for omega in (omega_i, omega_f)
                       for chi in chis for sign in signs)
        assert 0.0 < expected < 1.0
        assert sc.run_scenario(cfg).provenance["max_tail_mass"] == expected

    def test_binomial_suites_record_none(self):
        cfg = sc.default_config("crooks-binomial-align", seed=2024, chi_grid=(0.5,),
                                n_grid=(2,), p_grid=(0.2, 0.5))
        assert "max_tail_mass" not in sc.run_scenario(cfg).provenance


class TestBinomialDropCounts:
    """Every candidate (chi, pair) of a crooks-binomial suite is either a
    case or counted as below the probability floor."""

    @pytest.mark.parametrize("kind, seed, overrides, candidates, counts", [
        ("crooks-binomial-align", 2024, {}, 54, (54, 0)),
        ("crooks-binomial-align", 7, {}, 54, (54, 0)),
        ("crooks-binomial-size", 2024, {}, 54, (54, 0)),
        ("crooks-binomial-size", 7, {}, 54, (54, 0)),
        # at chi = 10 the system sits in its ground state; at p = 1 the
        # projectors are single ladder levels n_i != n_f, so one direction of
        # each such pair must lift the battery and falls below the floor
        ("crooks-binomial-size", 2024, {"chi_grid": (10.0,), "p_grid": (0.5, 1.0)},
         12, (6, 6)),
    ])
    def test_cases_plus_drops_cover_every_pair(self, kind, seed, overrides, candidates,
                                               counts):
        report = sc.run_scenario(sc.default_config(kind, seed=seed, **overrides))
        dropped = report.provenance["dropped"]
        assert set(dropped) == {"below_floor"}
        assert len(report.columns["key"]) + dropped["below_floor"] == candidates
        assert (len(report.columns["key"]), dropped["below_floor"]) == counts


class TestBinomialProjectors:
    @pytest.mark.parametrize("kind", ["crooks-binomial-align", "crooks-binomial-size"])
    def test_each_projector_is_built_once_per_scan(self, monkeypatch, kind):
        # at the defaults 18 pairs per chi, at 3 chi, read 9 distinct (n, p)
        # binomial states: 9 built, not 108
        built = []
        real = sc.fock.binomial_state
        monkeypatch.setattr(sc.fock, "binomial_state",
                            lambda *args, **kw: built.append(args) or real(*args, **kw))
        report = sc.run_scenario(sc.default_config(kind))
        assert len(report.columns["key"]) == 54
        assert len(built) == 9

    @pytest.mark.parametrize("kind", ["crooks-binomial-align", "crooks-binomial-size"])
    def test_each_map_is_made_once_per_chi(self, monkeypatch, kind):
        # the 18 pairs per chi read 18 distinct (n, p, sector) projectors:
        # at 3 chi, 54 Gibbs maps, not one per pair and side (108)
        mapped = []
        real = sc.gibbs.gibbs_map
        monkeypatch.setattr(sc.gibbs, "gibbs_map",
                            lambda *args, **kw: mapped.append(args) or real(*args, **kw))
        report = sc.run_scenario(sc.default_config(kind))
        assert len(report.columns["key"]) == 54
        assert len(mapped) == 54


class TestBinomialLargeLadder:
    def test_ladder_4096_runs_inside_the_contract(self):
        # a schema-valid config: at 4 x 4096 (d = 32,768; U's padded layout
        # 4.0 MiB in 4,102 blocks of at most 8) a dense battery factor would
        # hold 8192^2 complex entries, 1 GiB, at any chi point. The run ends
        # with a report, every pair a case or a drop, inside 32 MiB traced
        config = sc.default_config("crooks-binomial-align", system_cutoff=4, ladder_dim=4096,
                                   chi_grid=(0.5,))
        tracemalloc.start()
        try:
            report = sc.run_scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
        assert len(report.columns["key"]) + report.provenance["dropped"]["below_floor"] == 18
        assert report.all_passed


BINOMIAL_KINDS = ("crooks-binomial-align", "crooks-binomial-size")


class TestBinomialGridChecks:
    """An n that no binomial state on the ladder can have, a p of 0 (no
    distortion factor), or a grid with no pair is a config error raised
    before any state or U is made; the edges p = 1, n = 1 and
    n = ladder_dim - 1 run."""

    @pytest.mark.parametrize("kind", BINOMIAL_KINDS)
    @pytest.mark.parametrize("overrides", [{"n_grid": (2, 12)}, {"n_grid": (13,)},
                                           {"p_grid": (0.0, 0.5)}])
    def test_rejected_before_the_scan(self, monkeypatch, kind, overrides):
        made = []
        monkeypatch.setattr(sc.fock, "binomial_state", lambda *args: made.append(args))
        monkeypatch.setattr(sc.dyn, "sample_conserving_unitary", lambda *args: made.append(args))
        with pytest.raises(ConfigError):
            sc.run_scenario(sc.default_config(kind, **overrides))
        assert made == []

    @pytest.mark.parametrize("kind, overrides", [("crooks-binomial-align", {"p_grid": (0.5,)}),
                                                 ("crooks-binomial-size", {"n_grid": (3,)})])
    def test_grid_without_a_pair_rejected_before_the_scan(self, monkeypatch, kind, overrides):
        # align pairs two p entries, size two n entries: one entry gives no case
        made = []
        monkeypatch.setattr(sc.fock, "binomial_state", lambda *args: made.append(args))
        monkeypatch.setattr(sc.dyn, "sample_conserving_unitary", lambda *args: made.append(args))
        with pytest.raises(ConfigError, match="needs two or more"):
            sc.run_scenario(sc.default_config(kind, **overrides))
        assert made == []

    @pytest.mark.parametrize("kind, overrides", [("crooks-binomial-align", {"n_grid": (3,)}),
                                                 ("crooks-binomial-size", {"p_grid": (0.5,)})])
    def test_one_entry_of_the_fixed_grid_runs(self, kind, overrides):
        report = sc.run_scenario(sc.default_config(kind, chi_grid=(0.5,), **overrides))
        assert len(report.columns["key"]) >= 2
        assert report.all_passed

    @pytest.mark.parametrize("kind", BINOMIAL_KINDS)
    def test_edges_run(self, kind):
        report = sc.run_scenario(sc.default_config(kind, chi_grid=(0.5,), n_grid=(1, 11),
                                                   p_grid=(0.5, 1.0)))
        assert len(report.columns["key"]) + report.provenance["dropped"]["below_floor"] == 4
        assert len(report.columns["key"]) >= 2
        assert report.all_passed


def _per_pair_read(config: sc.ScenarioConfig, regime: str) -> dict:
    """{(chi, n_i, n_f, p_i, p_f): (P_F, P_R)} of every pair, read as the
    binomial runner read them before it stacked a chi point: one two-term
    q_quantity call per pair, forward then reverse, on the same U."""
    p_grid = config.p_grid or (0.2, 0.5, 0.8)
    n_grid = config.n_grid or (2, 4, 6)
    if regime == "align":
        pairs = [(n, p_i, n, p_f) for n in n_grid
                 for p_i in p_grid for p_f in p_grid if p_i != p_f]
    else:
        pairs = [(n_i, p, n_f, p) for n_i in n_grid for n_f in n_grid
                 if n_i != n_f for p in p_grid]
    report = sc.VerificationReport(config.kind, config.effective_tolerance(),
                                   config.provenance())
    eye_s = np.array([np.eye(config.system_cutoff, dtype=complex)] * 2)
    read = {}
    for model, chi, beta, u in sc._dynamics_scan(
            config, report, ("below_floor",), [(Fraction(1), Fraction(1))],
            config.chi_grid or (0.1, 0.5, 1.0), by_spacing=True):
        battery = model.battery
        gamma = np.array([fock.thermal_state(beta, model.system_mode(0), tail_tol=1.0).matrix] * 2)

        def state(n, p, sector):
            return sc._binomial_battery_state(battery, n, p, sector)

        def prepared(n, p, sector):
            return sc.gibbs.gibbs_map(state(n, p, sector), battery.energies, beta).amplitudes

        for n_i, p_i, n_f, p_f in pairs:
            x_b = np.array([state(n_f, p_f, 1).amplitudes, state(n_i, p_i, 0).amplitudes])
            rho_b = np.array([prepared(n_i, p_i, 0), prepared(n_f, p_f, 1)])
            read[chi, n_i, n_f, p_i, p_f] = tuple(
                sc.dyn.q_quantity((eye_s, x_b), (gamma, rho_b), u, model).tolist())
    return read


class TestBinomialStackedRead:
    """The one stacked Q per chi point gives every pair the bits of its own
    two-term read, at the suite defaults and at the perfbench ft-large config."""

    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("overrides", [
        {}, {"system_cutoff": 12, "ladder_dim": 48, "chi_grid": (0.5,), "n_grid": (2, 4)}],
        ids=["defaults", "ft-large"])
    @pytest.mark.parametrize("kind", BINOMIAL_KINDS)
    def test_bits_of_the_per_pair_reads(self, kind, overrides, seed):
        config = sc.default_config(kind, seed=seed, **overrides)
        report = sc.run_scenario(config)
        reference = _per_pair_read(config, kind.rsplit("-", 1)[1])
        kept = {key: value for key, value in reference.items() if min(value) > 1e-12}
        assert report.provenance["dropped"]["below_floor"] == len(reference) - len(kept)
        names = ("chi_battery", "n_i", "n_f", "p_i", "p_f")
        cases = {tuple(c["inputs"][name] for name in names): c["inputs"]
                 for c in report.to_dict()["cases"]}
        assert set(cases) == set(kept)
        for key, (p_fwd, p_rev) in kept.items():
            assert _bits(cases[key]["P_F"]) == _bits(p_fwd)
            assert _bits(cases[key]["P_R"]) == _bits(p_rev)


class TestJarzynskiDropCounts:
    """Every forward work value of a jarzynski scan is either averaged or
    counted under one drop reason."""

    @pytest.mark.parametrize("seed, overrides", [
        (2024, {}),
        (7, {"chi_grid": (0.1, 1.0, 3.0), "ladder_dim": 36}),
    ])
    def test_averaged_plus_drops_cover_every_work_value(self, seed, overrides):
        cfg = sc.default_config("jarzynski", seed=seed, **overrides)
        report = sc.run_scenario(cfg)
        dropped = report.provenance["dropped"]
        assert set(dropped) == {"below_floor", "undefined_ratio"}
        averaged = [case["inputs"]["averaged"] for case in report.to_dict()["cases"]
                    if case["key"].endswith("-average")]
        assert len(averaged) == 2 * len(cfg.chi_grid or (0.25, 0.5))
        assert sum(averaged) + sum(dropped.values()) == len(averaged) * cfg.ladder_dim


SCAN_KINDS = ("crooks-added", "crooks-subtracted", "crooks-binomial-align",
              "crooks-binomial-size", "jarzynski")


def record_samples(monkeypatch):
    """Wrap both unitary samplers; return the list of (seed, U.matrices) they
    draw. Each sample first checks that the U drawn before it was freed."""
    drawn = []
    last = [lambda: None]

    def recording(sample):
        def wrapper(*args):
            assert last[0]() is None, "the previous U is still alive"
            u = sample(*args)
            drawn.append((args[-1], u.matrices))
            last[0] = weakref.ref(u)
            return u
        return wrapper

    for name in ("sample_conserving_unitary", "sample_translation_invariant_unitary"):
        monkeypatch.setattr(sc.dyn, name, recording(getattr(sc.dyn, name)))
    return drawn


class TestScanSeeds:
    """Each grid point of a dynamics scan draws its own unitary, and frees it
    before the next is drawn."""

    @pytest.mark.parametrize("chi_grid", [(0.0011, 0.0019), (1e-6, 5e-4)])
    def test_close_chi_values_draw_different_unitaries(self, monkeypatch, chi_grid):
        drawn = record_samples(monkeypatch)
        sc.run_scenario(sc.default_config("crooks-added", seed=2024, chi_grid=chi_grid))
        assert len(drawn) == 3 * len(chi_grid)
        for (_, first), (_, second) in zip(drawn[::2], drawn[1::2]):
            assert not np.array_equal(first, second)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_no_two_grid_points_share_a_seed(self, monkeypatch, seed):
        drawn = record_samples(monkeypatch)
        seeds = {}
        for kind in SCAN_KINDS:
            del drawn[:]
            sc.run_scenario(sc.default_config(kind, seed=seed))
            seeds[kind] = [s for s, _ in drawn]
            assert len(set(seeds[kind])) == len(seeds[kind]) > 1, kind
        assert not set(seeds["crooks-binomial-align"]) & set(seeds["crooks-binomial-size"])
        every = [s for kind in SCAN_KINDS for s in seeds[kind]]
        assert len(set(every)) == len(every)


class TestBlasThreads:
    """The reports of the suites that multiply blocks of U, and of the
    crooks and jarzynski scans, are the same bytes at one and at two BLAS
    threads."""

    SCRIPT = "\n".join([
        "import sys",
        "from qflux import scenarios as sc",
        "for kind, cases in (('global-ft', 12), ('crooks-binomial-align', None),",
        "                    ('crooks-added', None), ('jarzynski', None)):",
        "    sc.run_scenario(sc.default_config(kind, seed=5, cases=cases, out_dir=sys.argv[1]))",
    ])

    def test_reports_byte_identical_at_one_and_two_threads(self, tmp_path):
        src = str(Path(sc.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.update({var: threads for var in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
            subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path / threads)],
                           env=env, check=True, timeout=300)
        for name in ("global-ft.json", "crooks-binomial-align.json", "crooks-added.json",
                     "jarzynski.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def _row_cases(kind: str, row: dict) -> dict:
    """The cases one CSV row of ``kind`` yields: key -> the cell (or, for the
    figure2 consistency case, the sum of cells) it records as simulated."""
    key = f"chi={sc._fmt(row['chi'])}"
    if kind == "sweep":
        return {key: row["dF"]}
    if kind == "figure2":
        return {key: row["dFplus"], f"{key}-consistency": row["twodF"] + row["dEvac"],
                f"{key}-minus": row["dFminus"]}
    if kind == "figure3":
        key += f"-W={sc._fmt(row['W'])}"
        cells = {"plus": row["R_plus"], "minus": row["rhs_minus"],
                 "classical": row["classical"]}
    else:
        key += f"-p={sc._fmt(row['p'])}"
        cells = {"align": row["q_align_pf08"], "size": row["q_size"]}
    return {f"{key}-{tag}": cell for tag, cell in cells.items() if cell is not None}


class TestFigureData:
    def test_figure2_rows_recomputable(self, tmp_path):
        cfg = sc.default_config("figure2", chi_grid=(0.01, 0.5, 2.0),
                               out_dir=str(tmp_path))
        report = sc.run_scenario(cfg)
        assert report.all_passed
        header, rows = sc.read_csv(tmp_path / "figure2.csv")
        assert header == ["chi", "dF", "twodF", "dEvac", "dFplus", "dFminus"]
        for chi, df, twodf, devac, dfp, dfm in rows:
            beta = 2.0 * chi
            params = cf.ScenarioParams(beta, 1.0, 1.5)
            assert df == beta * cf.delta_F(params)
            assert dfp == beta * cf.gen_free_energy_pm(params, +1)
            assert dfm == beta * cf.gen_free_energy_pm(params, -1)
            assert twodf == 2.0 * beta * cf.delta_F(params)
            assert devac == beta * cf.delta_E_vac(params)

    def test_figure3_rows_recomputable(self, tmp_path):
        cfg = sc.default_config("figure3", chi_grid=(0.05, 0.2),
                               out_dir=str(tmp_path))
        report = sc.run_scenario(cfg)
        assert report.all_passed
        header, rows = sc.read_csv(tmp_path / "figure3.csv")
        assert header[:2] == ["chi", "W"]
        for chi, work, r_p, r_m, rhs_p, rhs_m, classical in rows:
            params = cf.ScenarioParams(2.0 * chi, 1.0, 5.0)
            if r_p is not None:
                assert r_p == cf.prefactor_R(work, params, +1)
            assert r_m == cf.prefactor_R(work, params, -1)
            assert classical == math.exp(2.0 * chi * (work - cf.delta_F(params)))

    def test_figure4_rows_recomputable(self, tmp_path):
        cfg = sc.default_config("figure4", chi_grid=(0.2, 1.0),
                               p_grid=(0.3, 0.6), out_dir=str(tmp_path))
        report = sc.run_scenario(cfg)
        assert report.all_passed
        _, rows = sc.read_csv(tmp_path / "figure4.csv")
        for chi, p, q_a, q_s in rows:
            assert q_a == cf.q_align(p, 0.8, chi)
            assert q_s == cf.q_size(p, chi)

    @pytest.mark.parametrize("kind, overrides", [
        ("figure2", {}), ("figure3", {"w_values": (0.0, 2.0, 10.0)}),
        ("figure4", {"p_grid": (0.3, 0.8)}), ("sweep", {})])
    def test_each_case_records_its_csv_cell(self, tmp_path, kind, overrides):
        report = sc.run_scenario(sc.default_config(kind, chi_grid=(0.05, 0.7, 3.0),
                                                   out_dir=str(tmp_path), **overrides))
        header, rows = sc.read_csv(tmp_path / f"{kind}.csv")
        expected = {}
        for row in rows:
            cases = _row_cases(kind, dict(zip(header, row)))
            assert cases and cases.keys().isdisjoint(expected)
            expected.update(cases)
        assert len(report.columns["key"]) == len(expected)
        assert dict(zip(report.columns["key"], report.columns["simulated"])) == expected
        if kind in ("figure3", "figure4"):   # the grids leave some cells empty
            assert len(expected) < len(rows) * (3 if kind == "figure3" else 2)

    @pytest.mark.parametrize("kind", ["figure2", "figure3", "figure4", "sweep"])
    def test_no_files_without_out_dir(self, kind, tmp_path, monkeypatch):
        # out_dir unset used to write <kind>.csv and <kind>.gp into the cwd
        monkeypatch.chdir(tmp_path)
        report = sc.run_scenario(sc.default_config(kind, chi_grid=(0.2, 1.0)))
        assert report.all_passed and "csv" not in report.provenance
        assert list(tmp_path.iterdir()) == []

    def test_gnuplot_artifacts(self, tmp_path):
        sc.run_scenario(sc.default_config("figure4", chi_grid=(0.5,),
                                          out_dir=str(tmp_path)))
        script = (tmp_path / "figure4.gp").read_text()
        assert "figure4.csv" in script


class TestVerifyAll:
    def test_runs_suites_in_registry_order(self, monkeypatch):
        ran = []

        def fake_run(config):
            ran.append(config.kind)
            return sc.VerificationReport(config.kind, 0.0, {}).finalize()

        monkeypatch.setattr(sc, "run_scenario", fake_run)
        results = sc.verify_all(seed=1)
        assert tuple(ran) == tuple(sc.SUITES) == tuple(results["suites"])

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            sc.verify_all(seed=1, budget_seconds=-1.0)

    @pytest.mark.parametrize("arguments", [{"budget_seconds": math.nan},
                                           {"tolerance": math.nan, "budget_seconds": 0.0},
                                           {"tolerance": -1.0}])
    def test_unusable_budget_or_tolerance_fails_before_any_suite(self, monkeypatch,
                                                                 arguments):
        ran = []
        monkeypatch.setattr(sc, "run_scenario", ran.append)
        with pytest.raises(ConfigError):
            sc.verify_all(seed=1, **arguments)
        assert ran == []

    def test_report_bytes_deterministic_in_seed(self, tmp_path, verified):
        r1, out1 = verified(2024)   # the byte-identity run of TestReportJson
        sc.verify_all(seed=2024, out_dir=str(tmp_path))
        assert (out1 / "verify.json").read_bytes() == \
            (tmp_path / "verify.json").read_bytes()
        # the expected-green suites hold at their tolerances; the closed-form
        # photon-number suites report their failure honestly
        suites = r1["suites"]
        for kind in ("global-ft", "figure2", "figure3", "figure4",
                     "crooks-binomial-align", "crooks-binomial-size",
                     "harmonic-limit", "sweep"):
            assert suites[kind]["summary"]["all_passed"], kind
        assert not r1["all_passed"]
        assert not suites["crooks-added"]["summary"]["all_passed"]
        for kind, suite in suites.items():
            keys = [case["key"] for case in suite["cases"]]
            assert len(set(keys)) == len(keys), kind


class TestCli:
    def test_figure2_exit_zero(self, tmp_path, capsys):
        code = cli.main(["figure2", "--out", str(tmp_path), "--seed", "9"])
        assert code == 0
        assert (tmp_path / "figure2.csv").exists()
        assert (tmp_path / "figure2.json").exists()
        assert "PASS figure2" in capsys.readouterr().out

    def test_jarzynski_reports_failure_honestly(self, tmp_path, capsys):
        # closed-form prefactor does not reproduce lattice dynamics: exit 1
        code = cli.main(["jarzynski", "--out", str(tmp_path), "--seed", "4"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL jarzynski" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "figure2", "omega_f": "1/999"}))
        code = cli.main(["figure2", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "figure3"}))
        assert cli.main(["figure2", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    def test_domain_error_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "figure4", "p_grid": [0.0]}))
        code = cli.main(["figure4", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_memory_error_exit_three(self, tmp_path, capsys, monkeypatch):
        # a unitary too large to allocate is a numeric error, not a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")
        monkeypatch.setattr(sc.dyn, "_sample", exhausted)
        code = cli.main(["jarzynski", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric error: MemoryError: Unable to allocate 1.00 TiB for an array"]

    def test_window_checked_before_the_model_is_built(self, tmp_path, capsys,
                                                      monkeypatch):
        # 3000 x 4000 would build a d = 24e6 model before the old check ran
        def unbuilt(*args, **kwargs):
            raise AssertionError("build_joint_model ran before the window check")
        monkeypatch.setattr(sc.dyn, "build_joint_model", unbuilt)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"system_cutoff": 3000, "ladder_dim": 4000}))
        code = cli.main(["jarzynski", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: ladder_dim 4000 leaves no interior window "
            "(translation reach 11997)"]

    @pytest.mark.parametrize("ladder_dim, fits", [(35, True), (34, False)])
    def test_window_check_agrees_with_the_sampler(self, ladder_dim, fits):
        # omega 1 -> 2 at cutoff 5 reaches 17 levels: the middle of a
        # 35-level ladder is the one interior level, a 34-level one has none
        cfg = sc.default_config("jarzynski", ladder_dim=ladder_dim, chi_grid=(0.5,))
        if fits:
            assert sc.run_scenario(cfg).summary["cases"] == 4
        else:
            with pytest.raises(ConfigError, match=r"translation reach 17\)"):
                sc.run_scenario(cfg)

    def test_padded_layout_budget_before_sampling(self, tmp_path, capsys, monkeypatch):
        # 400 x 4000, 1 -> 2 passes the window check (reach 1597) but pads
        # U to 5597 blocks of 800 x 800: 53.4 GiB, refused before any draw
        def unsampled(*args, **kwargs):
            raise AssertionError("_sample ran before the layout budget")
        monkeypatch.setattr(sc.dyn, "_sample", unsampled)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"system_cutoff": 400, "ladder_dim": 4000,
                                   "chi_grid": [0.25]}))
        code = cli.main(["jarzynski", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: the unitary's padded block layout would take 53.4 GiB, "
            "past the 1 GiB cap"]

    @pytest.mark.parametrize("kind", ["global-ft", "crooks-added"])
    def test_every_sampling_suite_budgets_its_layout(self, monkeypatch, kind):
        def unsampled(*args, **kwargs):
            raise AssertionError("_sample ran before the layout budget")
        monkeypatch.setattr(sc.dyn, "_sample", unsampled)
        monkeypatch.setattr(sc, "MAX_LAYOUT_BYTES", 16)   # below any model's layout
        with pytest.raises(ConfigError, match="padded block layout"):
            sc.run_scenario(sc.default_config(kind))

    @pytest.mark.parametrize("cap, fits", [(128, True), (127, False)])
    def test_layout_budget_is_inclusive(self, monkeypatch, cap, fits):
        # two blocks of at most 2 indices pad to 16 * 2 * 2**2 = 128 bytes
        monkeypatch.setattr(sc, "MAX_LAYOUT_BYTES", cap)
        blocks = [np.arange(2), np.arange(2, 3)]
        if fits:
            sc._check_layout(blocks)
        else:
            with pytest.raises(ConfigError):
                sc._check_layout(blocks)

    def test_tolerance_override_forces_failure(self, tmp_path, capsys):
        code = cli.main(["figure2", "--out", str(tmp_path),
                         "--tolerance", "0"])
        assert code == 1

    def test_failing_case_lines_are_the_first_five_of_the_report(self, tmp_path, capsys):
        assert cli.main(["figure2", "--out", str(tmp_path), "--tolerance", "0"]) == 1
        cases = json.loads((tmp_path / "figure2.json").read_text())["cases"]
        failing = [case for case in cases if not case["passed"]]
        assert len(failing) > 5
        assert [case["key"] for case in cases] == sorted(case["key"] for case in cases)
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"     failing case {case['key']}: simulated={case['simulated']:.9g} "
            f"expected={case['closed_form']:.9g}" for case in failing[:5]]

    @pytest.mark.parametrize("kind", ["figure2", "figure4", "sweep"])
    def test_runs_that_never_read_an_overflowing_nbar(self, tmp_path, kind):
        # chi_f = 8 chi = 400: e^(2 chi_f) overflows, but these kinds never
        # read nbar_f (figure3 does: test_figure3_reads_nbar_past_its_overflow)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_f": 8, "chi_grid": [50.0]}))
        assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_config_file_drives_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kind": "sweep", "chi_grid": [0.2, 0.9],
                                   "omega_f": 2}))
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        header, rows = sc.read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 2

    def test_verify_rejects_config(self, tmp_path):
        # verify runs every suite at its defaults; a config it would ignore
        # is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", str(tmp_path / "absent.json"),
                      "--budget", "0.01"])
        assert exc.value.code == 2

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        code = cli.main(["figure2", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"chi_grid": "25"}, {"tolerance": []}, {"cases": 2.5}, {"seed": 1.5},
        {"n_grid": [2.7, True]}, {"chi_grid": [float("nan")]}, {"chi_grid": [1000]},
        {"w_values": [float("inf")]}, {"n_grid": [0]},
        # an empty grid used to run the default grid in its place
        {"chi_grid": []}, {"p_grid": []}, {"n_grid": []}, {"w_values": []},
    ])
    def test_schema_violation_exit_two(self, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code = cli.main(["figure3", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"w_values": [1389]}])
    def test_overflow_exit_three(self, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code = cli.main(["figure3", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert "OverflowError" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"omega_f": 8, "chi_grid": [50]},
                                        {"chi_grid": [50], "omega_f": 40}])
    def test_figure3_reads_nbar_past_its_overflow(self, tmp_path, fields):
        # chi_f = 400 and 2000: e^(2 chi_f) overflows, and nbar_f is e^(-2 chi_f)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        assert cli.main(["figure3", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "figure3.csv").read_text().splitlines()[1:]
        cells = [float(cell) for row in rows for cell in row.split(",") if cell]
        assert rows and all(map(math.isfinite, cells))


_NUMBERS = st.one_of(st.floats(), st.integers(-10 ** 4, 10 ** 4),
                     st.floats(1e-7, 60.0), st.booleans())
_VALUES = st.one_of(st.none(), _NUMBERS, st.text(max_size=3),
                    st.lists(_NUMBERS, max_size=3))
_GRIDS = st.one_of(st.lists(_NUMBERS, max_size=4), st.text(max_size=3), _NUMBERS)
_RATIONALS = st.one_of(_NUMBERS, st.sampled_from(["1/2", "3/2", "5", "40", "1/99", "x"]))
_FIGURE_CONFIGS = st.fixed_dictionaries({}, optional={
    "chi_grid": _GRIDS, "p_grid": _GRIDS, "n_grid": _GRIDS, "w_values": _GRIDS,
    "omega_i": _RATIONALS, "omega_f": _RATIONALS, "tolerance": _VALUES,
    "seed": _VALUES, "cases": _VALUES, "system_cutoff": _VALUES,
    "ladder_dim": _VALUES,
})


# numerators up to 1e18: with QFLUX_MAX_DIM = 16 such frequencies put the
# joint levels beyond int64, which builds them as Python ints
_FREQUENCIES = st.one_of(
    _RATIONALS, st.integers(1, 6),
    st.builds("{}/{}".format, st.one_of(st.integers(1, 12), st.integers(1, 10 ** 18)),
              st.integers(1, 64)))
# half the size draws are small enough for the runner's translation window
_JARZYNSKI_CONFIGS = st.fixed_dictionaries(
    {"system_cutoff": st.one_of(st.integers(2, 3), st.integers(-1, 20)),
     "ladder_dim": st.one_of(st.integers(11, 16), st.integers(-1, 20))},
    optional={"chi_grid": st.one_of(st.lists(st.floats(1e-6, 50.0), max_size=3, unique=True),
                                    st.lists(st.floats(0.0, 60.0), max_size=3)),
              "omega_i": _FREQUENCIES, "omega_f": _FREQUENCIES,
              "tolerance": st.one_of(st.none(), st.floats(0.0, 1.0)),
              "seed": st.integers(0, 2 ** 32)})


def _assert_exit_code_contract(kind, fields):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(fields))
        code = cli.main([kind, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 1:
            report = json.loads((out / f"{kind}.json").read_text())
            assert any(not case["passed"] for case in report["cases"])


class TestCliFuzz:
    """Every figure, sweep and jarzynski config, and every verify
    tolerance, ends in one of the four documented exit codes."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["figure2", "figure3", "figure4", "sweep"]),
           fields=_FIGURE_CONFIGS)
    def test_exit_code_contract(self, kind, fields):
        _assert_exit_code_contract(kind, fields)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(fields=_JARZYNSKI_CONFIGS)
    # levels past int64 (object dtype), with cross-sector degeneracies
    @example(fields={"omega_i": "15625000000000000", "omega_f": "1000000000000000001/64",
                     "system_cutoff": 8, "ladder_dim": 16, "chi_grid": [0.5]})
    # a model small enough to run the dynamics
    @example(fields={"omega_i": 1, "omega_f": 2, "system_cutoff": 2, "ladder_dim": 16})
    def test_jarzynski_exit_code_contract(self, monkeypatch, fields):
        # the one subcommand that builds a joint model; the cap keeps it small
        monkeypatch.setenv("QFLUX_MAX_DIM", "16")
        _assert_exit_code_contract("jarzynski", fields)

    @settings(max_examples=100, deadline=None)
    @given(tolerance=st.floats())
    @example(tolerance=math.nan)
    @example(tolerance=math.inf)
    @example(tolerance=-math.inf)
    @example(tolerance=-1.0)
    @example(tolerance=0.0)
    def test_verify_tolerance_exit_code_contract(self, tolerance):
        # budget 0 stops verify before its first suite: an invalid tolerance
        # is a config error (2), a valid one reaches the budget check (3)
        valid = math.isfinite(tolerance) and tolerance >= 0
        with tempfile.TemporaryDirectory() as tmp:
            code = cli.main(["verify", f"--tolerance={tolerance!r}", "--budget", "0",
                             "--out", tmp])
        assert code == (3 if valid else 2)
