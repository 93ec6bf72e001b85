import csv
import io
import json
import math

import pytest

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
from sscasimir.plates import inflation_stack_energy

PI_SQ = math.pi ** 2


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


class TestSweepSpec:
    def test_linear_grid_pins_endpoints(self):
        grid = SweepSpec(variable="x", lo=1.5, hi=3.0, steps=3).grid()
        assert grid == [1.5, 2.25, 3.0]

    def test_log_grid(self):
        grid = SweepSpec(variable="x", lo=1.0, hi=100.0, steps=3, log=True).grid()
        assert grid[0] == 1.0 and grid[-1] == 100.0
        assert grid[1] == pytest.approx(10.0, rel=1e-12)

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
        assert text == f"a,kind,value\n1.0,dirichlet,{value}\n"

    def test_json_is_array_with_stable_keys(self):
        config = parse_config(["plates-pair", "--a", "1.0"])
        data = json.loads(render(execute(config), "json"))
        assert isinstance(data, list)
        assert list(data[0].keys()) == ["a", "kind", "value"]

    def test_round_trip_precision(self):
        rows = run_csv(["plates-stack", "--a", "1", "--x", "2", "--direction", "inflation"])
        assert rows[0] == ["a", "x", "direction", "N", "value", "regularized"]
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
        assert lines[0] == "d,lambda,b,T,t,K,L,value,error"
        assert lines[-1].startswith("# fit exponent=")

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
        (["plates-pair", "--a", "1e-110"], 2),
        (["plates-stack", "--a", "1", "--x", "1e200", "--direction", "contraction", "--truncate", "3"], 2),
    ])
    def test_float_range_inputs_exit_cleanly(self, argv, code, capsys):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert err == ""
        record = json.loads(out)[0]
        if code == 0:
            assert math.isfinite(record["value"])
        else:
            assert "float range" in record["error"]

    @pytest.mark.parametrize("argv, value", [
        (["--direction", "contraction", "--truncate", "400"], -9.411183399038191e+267),
        (["--direction", "contraction"], 0.0),
        (["--direction", "combined"], 0.0),
    ])
    def test_stack_whose_gap_numerator_overflows(self, argv, value, capsys):
        # a (x - 1) is beyond the float range; the gaps a (x - 1) / x^k are not
        assert main(["plates-stack", "--a", "1e308", "--x", "10"] + argv) == 0
        assert json.loads(capsys.readouterr().out)[0]["value"] == value

    @pytest.mark.parametrize("argv, row, cause", [
        (["series-resum", "--coeffs", "[1,0,1]", "--x", "0.5"], ",,,", "intermediate coefficient"),
        (["plates-pair", "--a", "1e-200"], "1e-200,dirichlet,", "float range"),
    ])
    def test_csv_failure_cause_goes_to_stderr(self, argv, row, cause, capsys):
        assert main(argv + ["--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == [row]
        assert err.startswith("error: ") and cause in err and err.count("\n") == 1
        assert main(argv) == 2      # JSON carries the cause in the row only
        out, err = capsys.readouterr()
        assert err == "" and cause in json.loads(out)[0]["error"]

    def test_csv_fit_failure_cause_goes_to_stderr(self, capsys):
        argv = ["gaussian-sweep", "--var", "b", "--min", "1.2", "--max", "2.0", "--steps", "2",
                "--d", "1", "--lambda", "1", "--T", "1", "--t", "1", "--K", "0", "--fit"]
        assert main(argv + ["--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "# fit exponent= r_squared="
        assert err == "error: power-law fit needs at least 3 samples\n"

    def test_kernel_dip_is_an_error_row(self, capsys):
        # (u - 2.1)^2 (u + 0.42)^2 - 1e-8 in u = q^2 dips below 0 inside the shell
        argv = ["gaussian-energy", "--d", "3", "--lambda", "2", "--b", "2", "--T", "1",
                "--t", "0.77792399", "--K", "2.96352", "--L", "1.0584", "--higher", "[-3.36, 1.0]"]
        assert main(argv) == 2
        (record,) = json.loads(capsys.readouterr().out)
        assert "value" not in record and "non-positive" in record["error"]

    def test_overflowing_integrand_is_an_error_row(self, capsys):
        # g = t = 1e-320 makes q^2 / g overflow at every node; the row names
        # the first node at once instead of refining until panels collapse
        argv = ["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2", "--T", "1",
                "--t", "1e-320", "--K", "0", "--L", "0"]
        assert main(argv) == 2
        (record,) = json.loads(capsys.readouterr().out)
        assert record["error"] == "integrand is not finite at x = 0.9978638427802032: f(x) = inf"

    def test_negative_value_in_exponent_form(self, capsys):
        assert main(["series-resum", "--coeffs", "[1,1,1]", "--x", "-9.9e-05"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["value"] == pytest.approx(1.0 / (1.0 + 9.9e-05), rel=1e-8)
