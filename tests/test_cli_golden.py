"""Golden outputs of the command line: stdout bytes, stderr and exit code of
``main(argv)`` for the README examples and three edge cases, each in JSON
and CSV.  The files under tests/golden/ hold what the program printed when
they were recorded; a change to any byte is a change of behaviour.

A new case is added to CASES and its files written by calling ``record``
once, from a test run of the program whose output they are to pin.
"""

import json
from pathlib import Path

import pytest

from sscasimir.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "readme-plates-pair": ["plates-pair", "--a", "1.0", "--kind", "dirichlet"],
    "readme-plates-stack-contraction": ["plates-stack", "--a", "1", "--x", "2",
                                        "--direction", "contraction"],
    "readme-plates-stack-truncated": ["plates-stack", "--a", "1", "--x", "2",
                                      "--direction", "inflation", "--truncate", "40"],
    "readme-plates-sweep": ["plates-sweep", "--a", "1", "--direction", "inflation",
                            "--x-min", "1.5", "--x-max", "3", "--steps", "16"],
    "readme-series-resum": ["series-resum", "--coeffs", "[1,1,1,1,1]", "--x", "2"],
    "readme-gaussian-energy": ["gaussian-energy", "--d", "3", "--lambda", "1", "--b", "2",
                               "--T", "1", "--t", "1", "--K", "1"],
    "readme-gaussian-sweep": ["gaussian-sweep", "--var", "lambda", "--min", "1e-3", "--max", "1e-2",
                              "--steps", "8", "--log", "--fit",
                              "--d", "4", "--b", "1.05", "--T", "1", "--t", "1", "--K", "1"],
    "readme-gaussian-rg": ["gaussian-rg", "--d", "3", "--b", "2", "--B", "auto",
                           "--t", "1", "--K", "1", "--L", "1"],
    "readme-lattice-check": ["lattice-check", "--d", "2", "--sites", "32", "--seed", "7"],
    "plates-sweep-partial-failure": ["plates-sweep", "--a", "1", "--direction", "inflation",
                                     "--x-min", "0.5", "--x-max", "2.0", "--steps", "4"],
    "gaussian-sweep-b-fit": ["gaussian-sweep", "--var", "b", "--min", "1.2", "--max", "2.0",
                             "--steps", "3", "--d", "1", "--lambda", "1", "--T", "1",
                             "--t", "1", "--K", "0", "--fit"],
    "series-resum-zero-lead": ["series-resum", "--coeffs", "[0,1,2]", "--x", "0.5"],
}

FORMATS = ("json", "csv")


def run(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return {"argv": list(argv), "exit": code, "stderr": err, "stdout": out}


def path_of(name, fmt):
    return GOLDEN / f"{name}-{fmt}.json"


def record(name, fmt, capsys):
    """Write the golden file of one case from the program as it stands."""
    got = run(CASES[name] + ["--format", fmt], capsys)
    path_of(name, fmt).write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, fmt, capsys):
    want = json.loads(path_of(name, fmt).read_text(encoding="utf-8"))
    got = run(CASES[name] + ["--format", fmt], capsys)
    assert got == want


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        path_of(name, fmt).name for name in CASES for fmt in FORMATS)


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    for command in ("plates-pair", "plates-stack", "plates-sweep", "series-resum",
                    "gaussian-energy", "gaussian-sweep", "gaussian-rg", "lattice-check"):
        assert command in out


def test_command_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit) as done:
        main(["plates-sweep", "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--a", "--direction", "--x-min", "--x-max", "--steps", "--log",
                 "--out", "--format", "--config"):
        assert flag in out
