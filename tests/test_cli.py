import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscasimir import cli
from sscasimir.cli import (
    ResultSet,
    RunConfig,
    SweepSpec,
    UsageError,
    execute,
    main,
    parse_config,
    render,
)
from sscasimir.plates import StackDirection, functional_equation_residual, inflation_stack_energy

PI_SQ = math.pi ** 2


def strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_csv(argv):
    config = parse_config(argv)
    text = render(execute(config), "csv")
    rows = list(csv.reader(io.StringIO(text)))
    return rows


class TestParseConfig:
    def test_pair_defaults(self):
        config = parse_config(["plates-pair", "--a", "1.0", "--kind", "dirichlet"])
        assert config == RunConfig(
            command="plates-pair",
            parameters={"a": 1.0, "kind": "dirichlet"},
            output=None,
            fmt="json",
        )

    def test_negative_spacing_names_offender(self):
        with pytest.raises(UsageError, match="'a'"):
            parse_config(["plates-pair", "--a", "-1"])

    def test_missing_required_names_offender(self):
        with pytest.raises(UsageError, match="'x'"):
            parse_config(["plates-stack", "--a", "1", "--direction", "inflation"])

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"d": 3, "lambda": 1, "b": 2, "T": 1, "t": 1, "K": 1, "L": 0}))
        config = parse_config(["gaussian-energy", "--config", str(path)])
        assert config.command == "gaussian-energy"
        assert config.parameters["d"] == 3
        assert config.parameters["lambda"] == 1.0
        assert config.parameters["higher"] == []

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"a": 1.0, "kind": "dirichlet"}))
        config = parse_config(["plates-pair", "--config", str(path), "--a", "2.5"])
        assert config.parameters["a"] == 2.5
        assert config.parameters["kind"] == "dirichlet"

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"a": 1.0, "spacing": 2.0}))
        with pytest.raises(UsageError, match="spacing"):
            parse_config(["plates-pair", "--config", str(path)])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["plates-pair", "--a", "1", "--nope", "3"])

    def test_truncate_below_two(self):
        with pytest.raises(UsageError, match="truncate"):
            parse_config(["plates-stack", "--a", "1", "--x", "2",
                          "--direction", "inflation", "--truncate", "1"])

    def test_sweep_range_validation(self):
        base = ["plates-sweep", "--a", "1", "--direction", "inflation"]
        with pytest.raises(UsageError, match="steps"):
            parse_config(base + ["--x-min", "1.5", "--x-max", "3", "--steps", "1"])
        with pytest.raises(UsageError, match="min < max"):
            parse_config(base + ["--x-min", "3", "--x-max", "1.5", "--steps", "4"])
        with pytest.raises(UsageError, match="log"):
            parse_config(base + ["--x-min", "-1", "--x-max", "3", "--steps", "4", "--log"])

    @pytest.mark.parametrize("command, key, value", [
        ("plates-sweep", "log", "false"),
        ("plates-sweep", "log", [1]),
        ("plates-sweep", "log", 1),
        ("gaussian-sweep", "fit", "true"),
        ("gaussian-sweep", "fit", 0),
    ])
    def test_config_file_booleans_are_json_booleans(self, tmp_path, capsys, command, key, value):
        # a string or list was read with bool: "false" ran a log-spaced grid
        params = {"a": 1, "direction": "inflation", "x-min": 1.5, "x-max": 3, "steps": 3}
        if command == "gaussian-sweep":
            params = {"var": "lambda", "min": 1, "max": 2, "steps": 3,
                      "d": 3, "b": 2, "T": 1, "t": 1, "K": 1}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**params, key: value}))
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: parameter '{key}' must be true or false, got {value!r}\n"
        path.write_text(json.dumps({**params, key: False}))
        assert parse_config([command, "--config", str(path)]).parameters[key] is False
        path.write_text(json.dumps({**params, key: True}))
        assert parse_config([command, "--config", str(path)]).parameters[key] is True

    def test_coeffs_inline_and_file(self, tmp_path):
        inline = parse_config(["series-resum", "--coeffs", "[1, 1, 1]", "--x", "2"])
        assert inline.parameters["coeffs"] == [1.0, 1.0, 1.0]
        path = tmp_path / "coeffs.json"
        path.write_text("[1, 2, 4]")
        from_file = parse_config(["series-resum", "--coeffs", str(path), "--x", "2"])
        assert from_file.parameters["coeffs"] == [1.0, 2.0, 4.0]

    def test_round_trip(self, tmp_path):
        argvs = [
            ["plates-sweep", "--a", "0.5", "--direction", "contraction",
             "--x-min", "1.5", "--x-max", "3", "--steps", "4", "--log",
             "--format", "csv"],
            ["gaussian-rg", "--d", "3", "--b", "2", "--t", "1", "--K", "1", "--L", "0.5"],
            ["series-resum", "--coeffs", "[2, 2, 2, 2]", "--x", "3"],
        ]
        for argv in argvs:
            first = parse_config(argv)
            path = tmp_path / "roundtrip.json"
            path.write_text(json.dumps(first.to_config_json()))
            second = parse_config([argv[0], "--config", str(path)])
            assert second == first


class TestParserCache:
    """Each command's parser is built once and reused; no call leaks into the next."""

    def test_one_parser_per_command(self, monkeypatch):
        # argv of exact `--name value` pairs builds none; '--a=1' goes to argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._command_parser.cache_clear()
        try:
            for a in ("1", "2", "3"):
                parse_config(["plates-pair", "--a", a])
            assert built == []
            for a in ("1", "2", "3"):
                parse_config(["plates-pair", f"--a={a}"])
            parse_config(["plates-stack", "--a", "1", "--x", "2", "--direction=inflation"])
            parse_config(["plates-pair", "--a=4"])
        finally:
            cli._command_parser.cache_clear()
        assert built == ["sscasimir plates-pair", "sscasimir plates-stack"]
        assert cli._command_parser("plates-pair") is cli._command_parser("plates-pair")

    def test_flags_do_not_carry_over(self):
        assert parse_config(["plates-pair", "--a", "1", "--kind", "em"]).parameters["kind"] == "em"
        assert parse_config(["plates-pair", "--a", "1"]).parameters == {"a": 1.0, "kind": "dirichlet"}

    def test_config_file_values_do_not_carry_over(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"a": 2.5, "kind": "em", "format": "csv"}))
        first = parse_config(["plates-pair", "--config", str(path)])
        assert first.parameters == {"a": 2.5, "kind": "em"} and first.fmt == "csv"
        second = parse_config(["plates-pair", "--a", "1"])
        assert second.parameters == {"a": 1.0, "kind": "dirichlet"} and second.fmt == "json"

    @pytest.mark.parametrize("bad", [["--a", "abc"], ["--a"], ["--a", "1", "--nope", "3"]])
    def test_usage_error_does_not_affect_the_next_call(self, bad):
        with pytest.raises(UsageError):
            parse_config(["plates-pair"] + bad)
        config = parse_config(["plates-pair", "--a", "1", "--out", "x.csv"])
        assert config.parameters == {"a": 1.0, "kind": "dirichlet"} and config.output == "x.csv"

    def test_exponent_form_value_on_every_call(self):
        for _ in range(3):
            config = parse_config(["series-resum", "--coeffs", "[1,1,1]", "--x", "-9.9e-05"])
            assert config.parameters["x"] == -9.9e-05

    def test_help_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                parse_config(["gaussian-sweep", "--help"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: sscasimir gaussian-sweep")


def _argparse_flags(name, args):
    return vars(cli._command_parser(name).parse_args(args))


@st.composite
def _flag_tokens(draw):
    """A command and argv tokens for it: exact names with values, bare names,
    prefixes, `--name=value`, help, `--` and dash-led values that are no
    number."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = sorted(cli._FLAGS[name])
    exact = st.sampled_from(flags).map(lambda f: "--" + f)
    values = st.sampled_from(("1", "2.5", "0", "1e-3", "-1", "-.5", "-0.5", "-9.9e-05", "-1E+5", "-1.",
                              "", "a b", "em", "auto", "[1, 2]", "true", "dirichlet", "lambda", "kind"))
    not_numbers = st.sampled_from(("-1e5x", "--1", "-", "-1 2", "-x", "-.", "--kind"))
    pair = st.tuples(exact, values).map(list)
    other = st.one_of(
        exact,
        st.tuples(exact, not_numbers | exact),
        st.sampled_from(flags).flatmap(
            lambda f: st.integers(0, len(f)).map(lambda k: "--" + f[:k])),
        st.tuples(exact, values).map(lambda t: f"{t[0]}={t[1]}"),
        st.sampled_from(("-h", "--help", "--", "---a")),
        values | not_numbers,
    ).map(lambda t: list(t) if isinstance(t, tuple) else [t])
    # half the draws are all well-formed: a name, and its value unless a switch
    switches = cli._FLAGS[name]
    well_formed = st.tuples(st.sampled_from(flags), values).map(
        lambda t: ["--" + t[0]] + ([] if switches[t[0]] else [t[1]]))
    units = draw(st.lists(pair | other if draw(st.booleans()) else well_formed, max_size=6))
    return name, [token for unit in units for token in unit]


class TestFlagReader:
    """The flag reader gives argparse's flags or leaves argv to argparse."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=_flag_tokens())
    def test_agrees_with_argparse(self, drawn):
        name, args = drawn
        flags = cli._read_flags(name, args)
        if flags is not None:
            assert flags == _argparse_flags(name, args)

    @pytest.mark.parametrize("name, args", [
        ("plates-pair", ["--a", ""]),
        ("plates-pair", ["--a", "-9.9e-05", "--kind", "em", "--format", "csv"]),
        ("plates-pair", ["--a", "1", "--a", "-.5"]),
        ("plates-pair", ["--a", "a b", "--out", "-1E+5", "--config", "run.json"]),
        ("plates-sweep", ["--log", "--x-min", "-1", "--log"]),
        ("gaussian-sweep", ["--fit", "--var", "lambda", "--higher", "[-1, 2]"]),
        ("lattice-check", []),
    ])
    def test_takes(self, name, args):
        assert cli._read_flags(name, args) == _argparse_flags(name, args)

    @pytest.mark.parametrize("name, args", [
        ("plates-pair", ["--a", "1", "--nope", "3"]),      # unknown name
        ("plates-pair", ["--a", "1", "--ki", "em"]),       # abbreviated name
        ("plates-pair", ["--a=1"]),
        ("plates-pair", ["-h"]),
        ("plates-pair", ["--help"]),
        ("plates-pair", ["--", "--a", "1"]),
        ("plates-pair", ["--a"]),                          # missing trailing value
        ("plates-pair", ["--a", "-"]),                     # dash-led values the regex rejects
        ("plates-pair", ["--a", "--kind"]),
        ("plates-pair", ["--a", "-1 2"]),
        ("plates-pair", ["--a", "-1e5x"]),
        ("plates-pair", ["1"]),                            # a value where a name belongs
        ("plates-sweep", ["--log", "true"]),               # a value after a switch
    ])
    def test_defers(self, name, args):
        assert cli._read_flags(name, args) is None


class TestSweepSpec:
    def test_linear_grid_pins_endpoints(self):
        grid = SweepSpec(variable="x", lo=1.5, hi=3.0, steps=3).grid()
        assert grid == [1.5, 2.25, 3.0]

    def test_log_grid(self):
        grid = SweepSpec(variable="x", lo=1.0, hi=100.0, steps=3, log=True).grid()
        assert grid[0] == 1.0 and grid[-1] == 100.0
        assert grid[1] == pytest.approx(10.0, rel=1e-12)

    def test_linear_grid_whose_width_overflows(self):
        grid = SweepSpec(variable="x", lo=-1e308, hi=1e308, steps=5).grid()
        assert grid == [-1e308, -5e307, 0.0, 5e307, 1e308]

    def test_linear_grid_whose_offsets_overflow(self):
        # (hi - lo) * 2 overflows; (hi - lo) * 1 / 3 keeps its bits
        hi = sys.float_info.max
        grid = SweepSpec(variable="x", lo=0.0, hi=hi, steps=4).grid()
        assert grid[:2] == [0.0, hi * 1 / 3] and grid[3] == hi
        assert grid[2] == pytest.approx(2 * (hi / 3), rel=1e-15)

    @pytest.mark.parametrize("lo, steps", [(1e-300, 4), (3.0, 14)])
    def test_log_grid_up_to_the_largest_float(self, lo, steps):
        # the rounded last exponent, log hi, gave exp an OverflowError
        hi = sys.float_info.max
        grid = SweepSpec(variable="x", lo=lo, hi=hi, steps=steps, log=True).grid()
        assert len(grid) == steps and grid[0] == lo and grid[-1] == hi
        assert all(x < y for x, y in zip(grid, grid[1:]))

    def test_invariants(self):
        with pytest.raises(ValueError):
            SweepSpec(variable="x", lo=1.0, hi=2.0, steps=1)
        with pytest.raises(ValueError):
            SweepSpec(variable="x", lo=2.0, hi=1.0, steps=3)
        with pytest.raises(ValueError):
            SweepSpec(variable="x", lo=-1.0, hi=1.0, steps=3, log=True)


class TestExecute:
    def test_plates_sweep_rows_match_closed_form(self):
        config = parse_config(["plates-sweep", "--a", "1", "--direction", "inflation",
                               "--x-min", "1.5", "--x-max", "3", "--steps", "3"])
        results = execute(config)
        assert len(results.records) == 3
        for record in results.records:
            expected = inflation_stack_energy(1.0, record["x"]).value
            assert record["value"] == pytest.approx(expected, rel=1e-14)
            assert record["regularized"] is False

    def test_series_resum_record(self):
        config = parse_config(["series-resum", "--coeffs", "[1,1,1,1,1]", "--x", "2"])
        results = execute(config)
        (record,) = results.records
        assert record["value"] == pytest.approx(-1.0, rel=1e-12)
        assert record["converged"] is True

    def test_gaussian_sweep_with_fit(self):
        config = parse_config([
            "gaussian-sweep", "--var", "lambda", "--min", "1e-3", "--max", "1e-2",
            "--steps", "8", "--log", "--fit",
            "--d", "4", "--b", "1.05", "--T", "1", "--t", "1", "--K", "1",
        ])
        results = execute(config)
        assert len(results.records) == 9
        fit = results.records[-1]
        assert fit["exponent"] == pytest.approx(-4.0, rel=0.02)
        assert all("value" in r for r in results.records[:-1])

    def test_plates_sweep_rows_are_plates_stack_rows(self):
        sweep = execute(parse_config(["plates-sweep", "--a", "1", "--direction", "contraction",
                                      "--x-min", "1.5", "--x-max", "3", "--steps", "5", "--log"]))
        assert len(sweep.records) == 5
        for row in sweep.records:
            (point,) = execute(parse_config(["plates-stack", "--a", "1", "--x", repr(row["x"]),
                                             "--direction", "contraction"])).records
            assert json.dumps(row) == json.dumps(point)

    def test_gaussian_sweep_rows_are_gaussian_energy_rows(self):
        # g = 1 + u - 0.3 u^3 turns negative near q = 1.48: the upper shells
        # are unstable-kernel error rows
        shell = ["--d", "3", "--b", "2", "--T", "1", "--t", "1", "--K", "1", "--higher", "[-0.3]"]
        sweep = execute(parse_config(["gaussian-sweep", "--var", "lambda", "--min", "0.5",
                                      "--max", "4", "--steps", "6", "--log"] + shell))
        assert [("error" in row) for row in sweep.records] == [False] * 3 + [True] * 3
        for row in sweep.records:
            (point,) = execute(parse_config(["gaussian-energy", "--lambda", repr(row["lambda"])]
                                            + shell)).records
            assert json.dumps(row) == json.dumps(point)

    def test_partial_failure_keeps_rows_in_order(self):
        config = parse_config(["plates-sweep", "--a", "1", "--direction", "inflation",
                               "--x-min", "0.5", "--x-max", "2.0", "--steps", "4"])
        results = execute(config)
        xs = [r["x"] for r in results.records]
        assert xs == sorted(xs) and len(xs) == 4
        assert "error" in results.records[0]
        assert "value" in results.records[-1]
        assert not results.all_failed()

    def test_total_failure_detected(self):
        config = parse_config(["plates-sweep", "--a", "1", "--direction", "inflation",
                               "--x-min", "0.2", "--x-max", "0.8", "--steps", "3"])
        results = execute(config)
        assert results.all_failed()

    def test_gaussian_rg_auto_field_scale(self):
        config = parse_config(["gaussian-rg", "--d", "3", "--b", "2",
                               "--t", "1", "--K", "1", "--L", "1"])
        (record,) = execute(config).records
        assert record["B"] == pytest.approx(2.0 ** 2.5, rel=1e-15)
        assert record["K"] == 1.0
        assert record["t"] == pytest.approx(4.0, rel=1e-14)
        assert record["L"] == pytest.approx(0.25, rel=1e-14)

    def test_lattice_check_deterministic(self):
        config = parse_config(["lattice-check", "--d", "2", "--sites", "16", "--seed", "5"])
        first = execute(config).records[0]
        second = execute(config).records[0]
        assert first == second
        assert first["phi2_residual"] <= 1e-10
        assert first["grad2_residual"] <= 1e-10


class TestRender:
    def test_pair_csv_exact_bytes(self):
        config = parse_config(["plates-pair", "--a", "1.0", "--kind", "dirichlet"])
        text = render(execute(config), "csv")
        value = repr(-PI_SQ / 1440.0)
        assert text == f"a,kind,value,error\n1.0,dirichlet,{value},\n"

    def test_json_is_array_with_stable_keys(self):
        config = parse_config(["plates-pair", "--a", "1.0"])
        data = json.loads(render(execute(config), "json"))
        assert isinstance(data, list)
        assert list(data[0].keys()) == ["a", "kind", "value"]

    def test_round_trip_precision(self):
        rows = run_csv(["plates-stack", "--a", "1", "--x", "2", "--direction", "inflation"])
        assert rows[0] == ["a", "x", "direction", "N", "value", "regularized", "error"]
        assert float(rows[1][4]) == inflation_stack_energy(1.0, 2.0).value

    def test_combined_stack_prints_cancelled_value(self):
        rows = run_csv(["plates-stack", "--a", "1", "--x", "2", "--direction", "combined"])
        assert abs(float(rows[1][4])) <= 1e-15
        assert rows[1][5] == "true"

    def test_failed_rows_have_empty_value_cells(self):
        rows = run_csv(["plates-sweep", "--a", "1", "--direction", "inflation",
                        "--x-min", "0.5", "--x-max", "2.0", "--steps", "4"])
        assert rows[1][4] == "" and rows[1][5] == ""
        assert rows[4][4] != ""

    def test_fit_trailer_in_csv(self):
        config = parse_config([
            "gaussian-sweep", "--var", "b", "--min", "1.2", "--max", "2.0",
            "--steps", "3", "--d", "1", "--lambda", "1", "--T", "1",
            "--t", "1", "--K", "0", "--fit",
        ])
        text = render(execute(config), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "d,lambda,b,T,t,K,L,higher,value,abs_error_estimate,evaluations,error"
        assert lines[-1].startswith("# fit exponent=")

    def test_undeclared_csv_field_raises(self):
        record = {"a": 1.0, "kind": "dirichlet", "value": -0.5, "note": "x"}
        with pytest.raises(ValueError, match="note"):
            render(ResultSet(command="plates-pair", records=[record]), "csv")

    def test_empty_result_set_rejected(self):
        with pytest.raises(ValueError):
            render(ResultSet(command="plates-pair", records=[]), "csv")


class TestMain:
    def test_success_exit_code_and_stdout(self, capsys):
        assert main(["plates-pair", "--a", "1.0"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)[0]["value"] == pytest.approx(-PI_SQ / 1440.0)

    def test_usage_error_exit_code(self, capsys):
        assert main(["plates-pair", "--a", "-1"]) == 1
        assert "'a'" in capsys.readouterr().err

    def test_total_failure_exit_code(self, capsys):
        code = main(["plates-sweep", "--a", "1", "--direction", "inflation",
                     "--x-min", "0.2", "--x-max", "0.8", "--steps", "3"])
        assert code == 2

    def test_partial_failure_exit_code(self, capsys):
        code = main(["plates-sweep", "--a", "1", "--direction", "inflation",
                     "--x-min", "0.9", "--x-max", "2.0", "--steps", "4"])
        assert code == 0

    def test_unwritable_output_path(self, capsys):
        code = main(["plates-pair", "--a", "1", "--out", "/nonexistent-dir/x.json"])
        assert code == 1

    def test_null_byte_in_output_path(self, tmp_path, capsys):
        # open's ValueError escaped main as 'embedded null byte'
        path = tmp_path / "f.json"
        path.write_text('{"a": 1.0, "out": "x\\u0000y"}')
        assert main(["plates-pair", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: cannot write 'x\\x00y': embedded null byte\n")
        assert main(["plates-pair", "--a", "1", "--out", "a\x00b"]) == 1
        assert capsys.readouterr() == ("", "error: cannot write 'a\\x00b': embedded null byte\n")

    @pytest.mark.parametrize("route", ["config", "coeffs"])
    @pytest.mark.parametrize("contents", [None, b'\xff{"a": 1}'])
    def test_unreadable_json_file_is_named(self, tmp_path, capsys, route, contents):
        # a null byte in the path, or a file that is not UTF-8, gave the bare
        # ValueError text without the path
        if contents is None:
            path, reason = "a\x00b", "embedded null byte"
        else:
            path = str(tmp_path / "bad.json")
            (tmp_path / "bad.json").write_bytes(contents)
            reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        argv, prefix = {
            "config": (["plates-pair", "--config", path], "config file"),
            "coeffs": (["series-resum", "--coeffs", path, "--x", "2"], "parameter 'coeffs'"),
        }[route]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {prefix} cannot be read from {path!r}: {reason}\n")

    @pytest.mark.parametrize("route", ["coeffs", "higher", "coeffs file", "config file"])
    def test_deeply_nested_json(self, tmp_path, capsys, route):
        # json's RecursionError escaped main; an inline value must not be
        # read as a file path instead
        deep = "[" * 100000
        path = tmp_path / "deep.json"
        path.write_text('{"a": 1, "kind": ' + deep if route == "config file" else deep)
        argv, message = {
            "coeffs": (["series-resum", "--coeffs", deep, "--x", "2"],
                       "parameter 'coeffs' is JSON nested too deeply to read"),
            "higher": (["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2", "--T", "1",
                        "--t", "1", "--K", "1", "--higher", deep],
                       "parameter 'higher' is JSON nested too deeply to read"),
            "coeffs file": (["series-resum", "--coeffs", str(path), "--x", "2"],
                            f"parameter 'coeffs' is JSON nested too deeply to read in {str(path)!r}"),
            "config file": (["plates-pair", "--config", str(path)],
                            f"config file is JSON nested too deeply to read in {str(path)!r}"),
        }[route]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_byte_identical_runs(self, tmp_path, capsys):
        argv = ["gaussian-sweep", "--var", "lambda", "--min", "0.5", "--max", "1.0",
                "--steps", "3", "--d", "2", "--b", "1.5", "--T", "1",
                "--t", "1", "--K", "1", "--format", "csv"]
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv, code", [
        (["plates-stack", "--a", "1", "--x", "4", "--direction", "inflation", "--truncate", "400"], 0),
        (["plates-stack", "--a", "1", "--x", "1e10", "--direction", "inflation", "--truncate", "40"], 0),
        (["plates-pair", "--a", "1e103"], 0),
        (["plates-stack", "--a", "1e103", "--x", "2", "--direction", "inflation"], 0),
        (["plates-stack", "--a", "1", "--x", "1e103", "--direction", "contraction"], 0),
        # a^3 is the subnormal 5e-324
        (["plates-stack", "--a", "1.4245928539753432e-108", "--x", "3.54873614031611e+32",
          "--direction", "inflation"], 0),
        # x^31 is beyond the float range, the gap a (x - 1) / x^31 is 0.01
        (["plates-stack", "--a", "1e298", "--x", "1e10", "--direction", "contraction", "--truncate", "32"], 0),
        (["plates-pair", "--a", "1e-110"], 2),
        (["plates-stack", "--a", "1", "--x", "1e200", "--direction", "contraction", "--truncate", "3"], 2),
        # T^2 and Gamma(d/2) overflow, and a 400-digit d is no float; where
        # q^(d-1) overflows, the samples are the wide-range integrand's and
        # the energy, about -1.27e306, is a float
        (["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2", "--T", "1e200", "--t", "1", "--K", "1"], 2),
        (["gaussian-energy", "--d", "3", "--lambda", "1e308", "--b", "2", "--T", "1", "--t", "1", "--K", "1"], 0),
        (["gaussian-energy", "--d", "344", "--lambda", "1", "--b", "2", "--T", "1", "--t", "1", "--K", "1"], 2),
        (["gaussian-energy", "--d", "1" + "0" * 400, "--lambda", "1", "--b", "2", "--T", "1", "--t", "1",
          "--K", "1"], 2),
        # g is about 1.6e-308 at its minimum inside the shell, where q^2 / g
        # overflows: the energy, about -6.11e303, is a float
        (["gaussian-energy", "--d", "3", "--lambda", "2", "--b", "2", "--T", "1", "--t", "3.60016e-304",
          "--K", "2.0399999999999996e-303", "--L", "1.6899999999999996e-303",
          "--higher", "[-3.3999999999999995e-303, 1e-303]"], 0),
        # the shell's midpoint overflowed and its nodes were inf
        (["gaussian-energy", "--d", "3", "--lambda", "1.7e308", "--b", "1.1", "--T", "1", "--t", "1",
          "--K", "0"], 2),
        (["series-resum", "--coeffs", "[1.7976931348623157e+308, 1e+308, 1.7976931348623157e+308, "
          "-1.0000000000000002, -3.0]", "--x", "1e+200"], 2),
    ])
    def test_float_range_inputs_exit_cleanly(self, argv, code, capsys):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert err == ""
        record = strict_json(out)[0]
        if code == 0:
            assert math.isfinite(record["value"])
        else:
            assert "float range" in record["error"]

    def test_sweep_whose_width_overflows(self, capsys):
        # hi - lo overflowed: the middle point was inf and printed as Infinity
        argv = ["plates-sweep", "--a", "1", "--direction", "inflation", "--x-min", "-1e308",
                "--x-max", "1e308", "--steps", "3"]
        assert main(argv) == 0
        records = strict_json(capsys.readouterr().out)
        assert [r["x"] for r in records] == [-1e308, 0.0, 1e308]
        assert records[1]["error"] == "stack ratio must be > 1, got 0.0"

    @pytest.mark.parametrize("argv, square", [
        # B auto = b^2.5, whose square is b^5
        (["--b", "1e300", "--t", "1", "--K", "1", "--L", "1"], Fraction(1e300) ** 5),
        # t' = B^2 / b^3
        (["--b", "1.5", "--B", "1e200", "--t", "1", "--K", "1", "--L", "1"],
         (Fraction(1e200) ** 2 / Fraction(1.5) ** 3) ** 2),
    ])
    def test_rg_beyond_the_float_range_names_it(self, argv, square, capsys):
        assert square > Fraction(sys.float_info.max) ** 2
        assert main(["gaussian-rg", "--d", "3"] + argv) == 2
        out, err = capsys.readouterr()
        assert err == ""
        (record,) = json.loads(out)
        assert record["error"].startswith("value beyond the float range: ")

    @pytest.mark.parametrize("argv", [
        # b^2.5 and b^3.5 overflow and every value is below the float range
        ["--b", "1e200", "--B", "2", "--t", "1", "--K", "1", "--L", "1"],
        # b^2.5 and b^3.5 overflow; K' ~ 1e-20 and L' ~ 1e-268 are floats
        ["--b", "1e124", "--B", "1e300", "--t", "1", "--K", "1", "--L", "1"],
        # (B / b^1.5)^2 overflows, t' ~ 3e99 does not
        ["--b", "1.5", "--B", "1e200", "--t", "1e-300", "--K", "1e-300", "--L", "1e-300"],
        # (B / b^1.5)^2 underflows, t' = 4e-300 does not (it printed 0.0)
        ["--b", "1e200", "--B", "2", "--t", "1e300", "--K", "1", "--L", "1"],
    ])
    def test_rg_whose_steps_leave_the_float_range(self, argv, capsys):
        assert main(["gaussian-rg", "--d", "3"] + argv) == 0
        (record,) = json.loads(capsys.readouterr().out)
        b, B = Fraction(float(argv[1])), Fraction(float(argv[3]))
        for m, key in enumerate("tKL"):
            exact = Fraction(float(argv[5 + 2 * m])) * B ** 2 / b ** (3 + 2 * m)
            assert record[key] == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_rg_with_huge_dimension_and_b_near_one(self, capsys):
        # (B / b^(d/2))^2 ~ 3.7e-311 is subnormal; the values are floats
        argv = ["gaussian-rg", "--d", "10000000", "--b", "1.0000001", "--B", "1e-155",
                "--t", "1", "--K", "1", "--L", "1"]
        assert main(argv) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert all(0.0 < record[key] < 1e-310 for key in "tKL")

    def test_rg_with_a_400_digit_dimension(self, capsys):
        argv = ["gaussian-rg", "--d", "1" + "0" * 400, "--b", "2", "--t", "1", "--K", "1", "--L", "1"]
        # B^2 / b^d is below the float range
        assert main(argv + ["--B", "3"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert (record["t"], record["K"], record["L"]) == (0.0, 0.0, 0.0)
        # the automatic B = b^(d/2 + 1) is beyond it
        assert main(argv) == 2
        (record,) = json.loads(capsys.readouterr().out)
        assert record["error"].startswith("value beyond the float range: ")

    @pytest.mark.parametrize("argv, value", [
        (["--direction", "contraction", "--truncate", "400"], -9.411183399038191e+267),
        (["--direction", "contraction"], 0.0),
        (["--direction", "combined"], 0.0),
    ])
    def test_stack_whose_gap_numerator_overflows(self, argv, value, capsys):
        # a (x - 1) is beyond the float range; the gaps a (x - 1) / x^k are not
        assert main(["plates-stack", "--a", "1e308", "--x", "10"] + argv) == 0
        assert json.loads(capsys.readouterr().out)[0]["value"] == value

    @pytest.mark.parametrize("a", ["1e103", "1e200"])
    def test_truncated_stack_beyond_the_cube_range(self, a, capsys):
        # gaps 2a and 4a: at 1e103 the energies are subnormal floats (the
        # stack printed 0.0 when each cube overflowed to an energy of -0.0);
        # at 1e200 they are below the float range and the limit is -0.0
        argv = ["plates-stack", "--a", a, "--x", "2", "--direction", "inflation", "--truncate", "3"]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)[0]["value"]
        exact = sum(-Fraction(PI_SQ) / (1440 * (Fraction(float(a)) * g) ** 3) for g in (2, 4))
        assert value == float(exact) and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("argv, cells, cause", [
        (["series-resum", "--coeffs", "[1,0,1]", "--x", "0.5"], ["", "", "", ""],
         "intermediate coefficient"),
        (["plates-pair", "--a", "1e-200"], ["1e-200", "dirichlet", ""], "float range"),
    ])
    def test_csv_failure_cause_is_in_its_row(self, argv, cells, cause, capsys):
        assert main(argv + ["--format", "csv"]) == 2
        out, err = capsys.readouterr()
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        assert row[:-1] == cells and cause in row[-1] and err == ""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)[0]["error"] == row[-1]

    @pytest.mark.parametrize("argv, message", [
        (["--var", "b", "--min", "1.2", "--max", "2.0", "--steps", "2", "--d", "1", "--lambda", "1",
          "--t", "1", "--K", "0"], "power-law fit needs at least 3 samples"),
        # every row shares b / lambda = 2, so no slope exists
        (["--var", "t", "--min", "1", "--max", "2", "--steps", "3", "--d", "3", "--lambda", "1",
          "--b", "2", "--K", "1"], "power-law fit needs at least two distinct scales"),
    ])
    def test_fit_failure_cause_is_in_its_record(self, argv, message, capsys):
        argv = ["gaussian-sweep", "--T", "1", "--fit"] + argv
        assert main(argv + ["--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == f"# fit exponent= r_squared= error={message}"
        assert err == ""
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)[-1] == {"exponent": None, "r_squared": None, "error": message}
        assert err == ""

    @pytest.mark.parametrize("argv, failing", [
        (["plates-pair", "--a", "1e-200"], [True]),
        (["plates-pair", "--a", "1"], [False]),
        (["plates-stack", "--a", "1", "--x", "1e200", "--direction", "contraction",
          "--truncate", "3"], [True]),
        (["plates-stack", "--a", "1", "--x", "2", "--direction", "contraction"], [False]),
        (["plates-sweep", "--a", "1", "--direction", "inflation", "--x-min", "0.5",
          "--x-max", "2.0", "--steps", "4"], [True, True, False, False]),
        (["series-resum", "--coeffs", "[1,0,1]", "--x", "0.5"], [True]),
        (["series-resum", "--coeffs", "[1,1,1]", "--x", "0.5"], [False]),
        (["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2", "--T", "1", "--t", "0",
          "--K", "0.1", "--higher", "[-1]"], [True]),
        (["gaussian-sweep", "--var", "t", "--min", "0", "--max", "2", "--steps", "3", "--d", "3",
          "--lambda", "1", "--b", "2", "--T", "1", "--K", "0.1", "--higher", "[-1]"],
         [True, False, False]),
        (["gaussian-rg", "--d", "3", "--b", "1e300", "--t", "1", "--K", "1", "--L", "1"], [True]),
        (["gaussian-rg", "--d", "3", "--b", "2", "--t", "1", "--K", "1", "--L", "1"], [False]),
        (["lattice-check", "--d", "1", "--sites", "8"], [False]),
    ])
    def test_error_field_only_on_failing_rows(self, argv, failing, capsys):
        # the same rows in both formats: the error where a row fails, in CSV
        # an empty error cell where it succeeds, and nothing on stderr
        code = 2 if all(failing) else 0
        assert main(argv) == code
        out, err = capsys.readouterr()
        records = json.loads(out)
        assert err == "" and ["error" in r for r in records] == failing
        assert main(argv + ["--format", "csv"]) == code
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert err == "" and [r["error"] for r in rows] == [r.get("error", "") for r in records]

    def test_kernel_dip_is_an_error_row(self, capsys):
        # (u - 2.1)^2 (u + 0.42)^2 - 1e-8 in u = q^2 dips below 0 inside the shell
        argv = ["gaussian-energy", "--d", "3", "--lambda", "2", "--b", "2", "--T", "1",
                "--t", "0.77792399", "--K", "2.96352", "--L", "1.0584", "--higher", "[-3.36, 1.0]"]
        assert main(argv) == 2
        (record,) = json.loads(capsys.readouterr().out)
        assert "value" not in record and "non-positive" in record["error"]

    def test_overflowing_integrand_is_an_error_row(self, capsys):
        # g = t = 1e-320 is subnormal and q^2 / g overflows: the samples are
        # the wide-range integrand's, and the energy, -(1/4pi^2) (1 - 1/8) /
        # (3 t) = -7.4e317, is beyond the float range
        argv = ["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2", "--T", "1",
                "--t", "1e-320", "--K", "0", "--L", "0"]
        assert main(argv) == 2
        (record,) = json.loads(capsys.readouterr().out)
        assert record["error"] == ("value beyond the float range: shell energy in d = 3 "
                                   "over [0.5, 1.0] at T = 1.0")

    @pytest.mark.parametrize("args, closed", [
        # u = q^2 overflows on the whole shell; the energy
        # -(1/2pi) (atan(1e300) - atan(5e299)), = -(1/2pi) (atan(1/5e299) -
        # atan(1/1e300)), is a float
        ("--d 1 --lambda 1e300 --b 2", -(math.atan(1 / 5e299) - math.atan(1 / 1e300)) / (2 * math.pi)),
        # g overflows above q = 1.2e77 only: -(1/2pi) (1e10^-3 - 1e100^-3) / 3
        # and -(1/4pi^2) (1e-10 - 1e-100), to 1e-20
        ("--d 1 --lambda 1e100 --b 1e90 --L 1", -(1e10 ** -3 - 1e100 ** -3) / (6 * math.pi)),
        ("--d 3 --lambda 1e100 --b 1e90 --L 1", -(1e-10 - 1e-100) / (4 * math.pi ** 2)),
    ])
    def test_energy_where_u_overflows(self, capsys, args, closed):
        argv = ["gaussian-energy", *args.split(), "--T", "1", "--t", "1", "--K", "1"]
        assert main(argv) == 0
        (record,) = strict_json(capsys.readouterr().out)
        assert math.isclose(record["value"], closed, rel_tol=1e-12)

    @pytest.mark.parametrize("args, closed", [
        # g overflows at a top edge <= 1
        ("3 1 2 1e150 1.7e308 1.7e308", -2.6559477664886343e-11),
        # q^(d-1) underflows
        ("3 1e-165 2 1e154 1 1", -7.388002973920463e-190),
        # q^(d-1) overflows
        ("3 1e200 2 1 1 1", -1.2665147955292222e+198),
        # g is subnormal and the plain samples overflow
        ("1 1e-300 2 1 1e-320 0", -7.957835747726385e+18),
        # u = q^2 underflows, so the plain K u is 0
        ("1 1e-200 2 1 1e-300 1e100", -5.1208191174783364e+98),
        # the plain integral is subnormal
        ("1 1e-160 2 1e150 1e160 0", -7.957747154594767e-22),
    ])
    def test_energy_where_a_plain_step_is_not_normal(self, capsys, args, closed):
        # --d --lambda --b --T --t --K; closed forms of g = t + K u at the float edges
        argv = ["gaussian-energy"]
        for name, value in zip(("d", "lambda", "b", "T", "t", "K"), args.split()):
            argv += ["--" + name, value]
        assert main(argv) == 0
        (record,) = strict_json(capsys.readouterr().out)
        assert abs(record["value"] - closed) <= record["abs_error_estimate"] + 4 * math.ulp(closed)

    @pytest.mark.parametrize("args, exact", [
        # k_d is subnormal (d = 250) or 0 (d = 300): the energies were -0.0
        ("--d 250 --lambda 10 --T 1", -1.0521875123782154e-99),
        ("--d 300 --lambda 30 --T 1", -1758532296663.8557),
        # T^2 is subnormal: -T^2 / (4 pi t) was 0.04% off, the other 0.5% off
        ("--d 1 --lambda 1 --T 1e-160 --t 1e-300 --K 0", -7.957747154594766e-22),
        ("--d 3 --lambda 1e10 --T 1e-160 --K 1e-30", -7.388002973429687e-293),
        # T^2 overflows but -T^2 / (4 pi t) does not: was the float-range error
        ("--d 1 --lambda 1 --T 1e200 --t 1e300 --K 0", -7.957747154594766e+98),
    ])
    def test_energy_whose_prefactor_steps_are_not_normal(self, capsys, args, exact):
        # references to 40 digits; --b 2, and --t 1 --K 1 where not given
        argv = ["gaussian-energy", "--b", "2", "--t", "1", "--K", "1", *args.split()]
        assert main(argv) == 0
        (record,) = strict_json(capsys.readouterr().out)
        assert abs(record["value"] - exact) <= record["abs_error_estimate"] + 4 * math.ulp(exact)

    @pytest.mark.parametrize("argv, lo, hi, var", [
        (["plates-sweep", "--a", "1", "--direction", "inflation", "--x-min", "1e-300",
          "--x-max", "1.7976931348623157e308", "--steps", "4", "--log"],
         1e-300, sys.float_info.max, "x"),
        (["gaussian-sweep", "--var", "lambda", "--min", "3", "--max", "1.7976931348623157e308",
          "--steps", "14", "--log", "--d", "3", "--b", "2", "--T", "1", "--t", "1", "--K", "1"],
         3.0, sys.float_info.max, "lambda"),
    ])
    def test_log_sweep_up_to_the_largest_float(self, capsys, argv, lo, hi, var):
        # exp of the rounded last exponent raised OverflowError out of main
        assert main(argv) == 0
        out, err = capsys.readouterr()
        records = strict_json(out)
        assert err == "" and records[0][var] == lo and records[-1][var] == hi

    @pytest.mark.parametrize("argv, shape", [
        (["--d", "2", "--sites", "100000000"], "(100000000, 100000000)"),
        (["--d", "1", "--sites", "10000000000000000"], "(10000000000000000,)"),
    ])
    def test_lattice_too_large_to_allocate_is_an_error_row(self, capsys, argv, shape):
        # 71.1 PiB: more than any address space holds, so numpy's allocation
        # fails at once; its MemoryError escaped main
        assert main(["lattice-check", *argv]) == 2
        out, err = capsys.readouterr()
        (record,) = strict_json(out)
        assert err == "" and "value" not in record
        assert record["error"].startswith("Unable to allocate") and shape in record["error"]

    def test_negative_value_in_exponent_form(self, capsys):
        assert main(["series-resum", "--coeffs", "[1,1,1]", "--x", "-9.9e-05"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["value"] == pytest.approx(1.0 / (1.0 + 9.9e-05), rel=1e-8)


_NO_ARRAYS = [
    ["plates-pair", "--a", "1.0"],
    ["series-resum", "--coeffs", "[1,1,1,1,1]", "--x", "2"],
    ["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2", "--T", "1", "--t", "1", "--K", "1"],
    ["gaussian-sweep", "--var", "lambda", "--min", "1e-3", "--max", "1e-2", "--steps", "3", "--log",
     "--fit", "--d", "4", "--b", "1.05", "--T", "1", "--t", "1", "--K", "1"],
    ["gaussian-rg", "--d", "3", "--b", "2", "--B", "auto", "--t", "1", "--K", "1", "--L", "1"],
]

_IMPORT_CHECK = """
import contextlib, io, json, sys
import sscasimir
for module in ("numpy", "decimal", "argparse", "sscasimir.cli"):
    assert module not in sys.modules, module
from sscasimir.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
    assert "decimal" not in sys.modules, argv
    assert "argparse" not in sys.modules, argv
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["plates-pair", "--a=1.0"]) == 0
assert "argparse" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["plates-pair", "--a", "1e105"]) == 0
assert "decimal" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["lattice-check", "--d", "2", "--sites", "8", "--seed", "7"]) == 0
assert "numpy" in sys.modules
"""


def test_commands_without_arrays_do_not_import_numpy():
    # a fresh interpreter: this test process has imported numpy already.
    # decimal, too, loads only once a value leaves the float range, and
    # argparse only for argv the flag reader leaves to it; the bare package
    # loads none of them, nor the CLI
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHECK, json.dumps(_NO_ARRAYS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# The contract of main over the inputs the parameters admit: no exception
# escapes, the exit code follows the README, stdout is strict JSON (every
# printed value finite or a signed zero), and no error is a bare arithmetic
# message or an input check that blames a derived value.  Draws favour the
# ends of the float range.  Size parameters (sites, truncate, steps, the
# coefficient count) stay small: memory-sized inputs are no float-range
# question.

_MAX = sys.float_info.max
_POSITIVE = (st.sampled_from((5e-324, 2.0 ** -1022, _MAX, 1.0 + 2.0 ** -52, 1e308, 1.0, 2.0, 0.5))
             | st.floats(min_value=5e-324, max_value=_MAX))
_NON_NEGATIVE = st.just(0.0) | _POSITIVE
_ABOVE_ONE = (st.sampled_from((1.0 + 2.0 ** -52, 1.5, 2.0, 1e308, _MAX))
              | st.floats(min_value=1.0, max_value=_MAX, exclude_min=True))
_NUMBER = _NON_NEGATIVE | _POSITIVE.map(lambda v: -v)
_DIMENSION = st.sampled_from((1, 343, 344, 2100, 10 ** 400)) | st.integers(1, 4)
_BARE_ERRORS = ("Numerical result out of range", "math range error", "int too large",
                "got nan", "got inf", "x = inf")


def _flags(draw, **values):
    """argv flags from name=strategy pairs (underscores become dashes); a
    strategy drawing None leaves its flag out, True gives a bare flag."""
    argv = []
    for name, strategy in values.items():
        value = draw(strategy)
        if value is None or value is False:
            continue
        argv.append("--" + name.replace("_", "-"))
        if value is not True:
            argv.append(value if isinstance(value, str) else json.dumps(value))
    return argv


def _maybe(strategy):
    return st.none() | strategy


def _shell(draw):
    return _flags(draw, d=_DIMENSION, **{"lambda": _POSITIVE}, b=_ABOVE_ONE, T=_POSITIVE,
                  t=_NON_NEGATIVE, K=_NON_NEGATIVE, L=_maybe(_NON_NEGATIVE),
                  higher=_maybe(st.lists(_NUMBER, max_size=3)))


_DIRECTIONS = st.sampled_from(("inflation", "contraction", "combined"))
_STEPS = st.integers(2, 8)
_COMMAND_ARGV = {
    "plates-pair": lambda draw: _flags(draw, a=_POSITIVE, kind=_maybe(st.sampled_from(("dirichlet", "em")))),
    "plates-stack": lambda draw: _flags(draw, a=_POSITIVE, x=_ABOVE_ONE, direction=_DIRECTIONS,
                                        truncate=_maybe(st.integers(2, 64))),
    "plates-sweep": lambda draw: _flags(draw, a=_POSITIVE, direction=_DIRECTIONS, x_min=_NUMBER,
                                        x_max=_NUMBER, steps=_STEPS, log=st.booleans()),
    "series-resum": lambda draw: _flags(
        draw, coeffs=st.tuples(_NUMBER.filter(bool), st.lists(_NUMBER, max_size=11)).map(
            lambda t: [t[0], *t[1]]),
        x=_NUMBER, tol=_maybe(_POSITIVE)),
    "gaussian-energy": _shell,
    "gaussian-sweep": lambda draw: _flags(draw, var=st.sampled_from(("lambda", "b", "t")), min=_NUMBER,
                                          max=_NUMBER, steps=_STEPS, log=st.booleans(),
                                          fit=st.booleans()) + _shell(draw),
    "gaussian-rg": lambda draw: _flags(draw, d=_DIMENSION, b=_ABOVE_ONE,
                                       B=_maybe(st.just("auto") | _POSITIVE), t=_NON_NEGATIVE,
                                       K=_NON_NEGATIVE, L=_NON_NEGATIVE),
    "lattice-check": lambda draw: _flags(draw, d=st.sampled_from((1, 2)), sites=st.integers(2, 64),
                                         seed=_maybe(st.integers(0, 2 ** 32))),
}


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(_COMMAND_ARGV)))
    return [name] + _COMMAND_ARGV[name](draw)


def test_command_table_is_covered():
    assert set(_COMMAND_ARGV) == set(cli.COMMANDS)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_argv())
def test_main_contract_over_admitted_inputs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == "" and err.startswith("error: ")
        return
    assert err == ""
    records = strict_json(out)
    rows = [r for r in records if "exponent" not in r]
    assert code == (2 if all("error" in r for r in rows) else 0)
    for record in records:
        assert not any(bare in record.get("error", "") for bare in _BARE_ERRORS), record


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_POSITIVE, x=_ABOVE_ONE,
       direction=st.sampled_from((StackDirection.INFLATION, StackDirection.CONTRACTION)))
def test_functional_equation_residual_over_the_float_range(a, x, direction):
    try:
        residual = functional_equation_residual(a, x, direction)
    except ValueError as exc:
        assert "float range" in str(exc)
    else:
        assert math.isfinite(residual)
