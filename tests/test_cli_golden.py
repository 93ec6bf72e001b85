"""Golden outputs of the command line: stdout bytes, stderr and exit code of
``main(argv)`` for the README examples and four edge cases, each in JSON
and CSV.  The files under tests/golden/ hold what the program printed when
they were recorded; a change to any byte is a change of behaviour.  The
README's examples and its table of row fields are checked against CASES
and COMMANDS, so they cannot drift from what the program runs.

A new case is added to CASES and its files written by calling ``record``
once, from a test run of the program whose output they are to pin.  The
``--help`` texts of the program and of each command are pinned the same
way, at 80 columns, by ``record_help``.
"""

import json
import shlex
from pathlib import Path

import pytest

from sscasimir.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"

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
    # a peaked kernel with two higher terms: 315 evaluations from the ladder
    # of starting points around its dip (705 from the octaves alone)
    "gaussian-energy-peaked-higher": ["gaussian-energy", "--d", "3", "--lambda", "2", "--b", "2",
                                      "--T", "1", "--t", "0.25016", "--K", "1.75", "--L", "2.0625",
                                      "--higher", "[-3.5, 1.0]"],
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


HELP = {"sscasimir": [], **{name: [name] for name in COMMANDS}}


def help_path(name):
    return GOLDEN / f"help-{name}.json"


def run_help(argv, capsys, monkeypatch):
    # argparse wraps help to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(list(argv) + ["--help"])
    out, err = capsys.readouterr()
    return {"argv": list(argv) + ["--help"], "exit": done.value.code, "stderr": err, "stdout": out}


def record_help(name, capsys, monkeypatch):
    """Write the golden --help file of the program or one command."""
    got = run_help(HELP[name], capsys, monkeypatch)
    help_path(name).write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_matches_golden(name, capsys, monkeypatch):
    want = json.loads(help_path(name).read_text(encoding="utf-8"))
    assert run_help(HELP[name], capsys, monkeypatch) == want


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, fmt, capsys):
    want = json.loads(path_of(name, fmt).read_text(encoding="utf-8"))
    got = run(CASES[name] + ["--format", fmt], capsys)
    assert got == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_rows_follow_the_header(name):
    # every row's fields are its command's header fields plus error, in order
    got = json.loads(path_of(name, "json").read_text(encoding="utf-8"))
    if got["exit"] == 1:
        return
    schema = COMMANDS[CASES[name][0]].header + ("error",)
    for row in json.loads(got["stdout"]):
        if "exponent" in row:
            assert list(row) in (["exponent", "r_squared"], ["exponent", "r_squared", "error"])
        else:
            assert list(row) == [key for key in schema if key in row]


def _readme_command_line():
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Command line"):text.index("## Python API")]


def test_readme_examples_are_the_readme_cases():
    block = _readme_command_line().split("```sh\n")[1].split("```")[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]
        if "--format" in argv:
            del argv[argv.index("--format"):argv.index("--format") + 2]
        examples.append(argv)
    assert examples == [argv for name, argv in CASES.items() if name.startswith("readme-")]


def test_readme_csv_headers_are_the_command_headers():
    table = {}
    for line in _readme_command_line().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 2 and cells[1].startswith("`"):
            table.update((name, cells[1].strip("`")) for name in cells[0].split(" / "))
    assert table == {name: ",".join(command.header + ("error",))
                     for name, command in COMMANDS.items()}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        [path_of(name, fmt).name for name in CASES for fmt in FORMATS]
        + [help_path(name).name for name in HELP])


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
