"""Command-line front end: validated run configs, sweeps, CSV/JSON tables.

One logical entry point (main) over the series/plates/gaussian modules.
Each subcommand is one `Command` record in the `COMMANDS` table: its
parameters (name, one parse-and-check function, a default or REQUIRED,
help text), its header, the parameters behind the header's leading fields,
its computed fields, an optional cross-field check and an optional sweep.
A sweep command is its point command with a grid: the same record with
other parameters and a sweep, so the two share one header and compute.
The flag reader, the argparse options, the config-file key check,
validation, dispatch and rendering all read it.  Flags are read straight from
the table when argv holds only `--name value` pairs of a command's exact flag
names; any other argv goes to argparse, the one source of help text and of
usage-error messages.  argparse is imported, and a command's parser built,
only on the first argv that needs it.
Config files mirror the flags one-to-one (JSON object keyed by flag names);
explicit flags override file values and unknown keys are rejected.

The header is the command's one row schema in JSON and CSV, plus the field
every command shares, error: a row whose computation fails (ValueError,
ArithmeticError, an array too large to allocate, a quadrature that does not
converge) keeps its input fields and gets the failure message as its error,
so a sweep never aborts on one bad point, and a failed power-law fit
reports its error the same way.  A
JSON row leaves out the fields it does not have, a CSV row leaves their
cells empty, and the CSV writer raises on a field no header declares.
stderr carries only usage and I/O errors.  The exit code is 0 for full or
partial success, 1 for usage or I/O problems, 2 when every point failed.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable

from . import gaussian, plates, series
from .quadrature import QuadratureConvergenceError

__all__ = ["UsageError", "RunConfig", "SweepSpec", "ResultSet", "Param", "Command",
           "COMMANDS", "parse_config", "execute", "render", "main"]


class UsageError(Exception):
    """Bad flags, bad config file, or a parameter outside its preconditions."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output: str | None = None   # None = stdout
    fmt: str = "json"

    def to_config_json(self) -> dict:
        """Flat config-file form (flag names as keys), re-parseable."""
        return {**self.parameters, "out": self.output, "format": self.fmt}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a (lo, hi, steps) range, linear or log-spaced."""

    variable: str
    lo: float
    hi: float
    steps: int
    log: bool = False

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"parameter 'steps' must be >= 2, got {self.steps}")
        if not self.lo < self.hi:
            raise ValueError(
                f"sweep range for '{self.variable}' needs min < max, got [{self.lo}, {self.hi}]"
            )
        if self.log and self.lo <= 0.0:
            raise ValueError(f"log-spaced sweep of '{self.variable}' needs min > 0, got {self.lo}")

    def grid(self) -> list[float]:
        """[lo, *interior, hi]: the ends are the bounds as given, and only the
        interior points are computed, so no rounded end can overflow."""
        lo, hi, steps = self.lo, self.hi, self.steps
        if self.log:
            llo, lhi = math.log(lo), math.log(hi)
            inner = [math.exp(llo + (lhi - llo) * i / (steps - 1)) for i in range(1, steps - 1)]
        else:
            inner = [lo + (hi - lo) * i / (steps - 1) for i in range(1, steps - 1)]
            # where the width or its multiple overflows, add half of the offset twice
            half = 0.5 * hi - 0.5 * lo
            inner = [v if math.isfinite(v) else lo + half * (i / (steps - 1)) + half * (i / (steps - 1))
                     for i, v in enumerate(inner, start=1)]
        return [lo, *inner, hi]


@dataclass(frozen=True)
class ResultSet:
    command: str
    records: list = field(default_factory=list)

    def all_failed(self) -> bool:
        rows = [r for r in self.records if "exponent" not in r]
        return bool(rows) and all("error" in r for r in rows)


# A parse function maps a raw value (a string from argv or a JSON value from
# a config file) to its canonical value, or raises ValueError saying what the
# parameter must be; the message is prefixed with the parameter's name.

def _number(v):
    try:
        f = float(v)
    except (TypeError, ValueError):
        raise ValueError(f"must be a number, got {v!r}") from None
    if not math.isfinite(f):
        raise ValueError(f"must be finite, got {v!r}")
    return f


def _boolean(v):
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _integer(v):
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"must be an integer, got {v!r}")
    try:
        return int(v)
    except (TypeError, ValueError):
        raise ValueError(f"must be an integer, got {v!r}") from None


def _checked(convert, ok, what):
    """Parse with convert, then require ok(value), described as what."""
    def parse(v):
        v = convert(v)
        if not ok(v):
            raise ValueError(f"must be {what}, got {v!r}")
        return v
    return parse


def _one_of(*choices, convert=str):
    parse = _checked(convert, lambda v: v in choices, f"one of {sorted(map(str, choices))}")
    parse.metavar = "{" + ",".join(map(str, choices)) + "}"   # shown by --help
    return parse


_positive = _checked(_number, lambda f: f > 0.0, "positive")
_non_negative = _checked(_number, lambda f: f >= 0.0, "non-negative")
_above_one = _checked(_number, lambda f: f > 1.0, "> 1")
_dimension = _checked(_integer, lambda n: n >= 1, ">= 1")
_two_or_more = _checked(_integer, lambda n: n >= 2, ">= 2")


# json's decoder recurses once per level of nesting
_TOO_DEEP = "is JSON nested too deeply to read"


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"is not valid JSON in {path!r}: {exc}") from None
    except (OSError, ValueError) as exc:    # ValueError: a null byte in the path, or bytes not UTF-8
        raise ValueError(f"cannot be read from {path!r}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{_TOO_DEEP} in {path!r}") from None


def _float_list(v):
    if isinstance(v, str):
        try:
            v = json.loads(v)
        except json.JSONDecodeError:
            raise ValueError(f"must be a JSON array, got {v!r}") from None
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
    if not isinstance(v, list):
        raise ValueError(f"must be a JSON array, got {v!r}")
    return [_number(c) for c in v]


def _coeffs(v):
    # inline JSON array first; anything that is not valid JSON is a file path
    if isinstance(v, str):
        try:
            v = json.loads(v)
        except json.JSONDecodeError:
            v = _read_json(v)
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
    coeffs = _float_list(v)
    if not coeffs:
        raise ValueError("must hold at least one coefficient")
    if coeffs[0] == 0.0:
        raise ValueError("must have a nonzero leading coefficient")
    return coeffs


def _field_scale(v):
    return v if v == "auto" else _positive(v)


REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One flag and config-file key.  An absent optional parameter takes its
    default through parse; with default None it is left out entirely."""

    name: str
    parse: Callable[[object], object]
    default: object = REQUIRED
    help: str | None = None


@dataclass(frozen=True)
class Command:
    """One subcommand: its parameters and how it turns them into rows.

    inputs names the parameters behind the header's leading fields, in
    order: a row keeps each one that is set and not an empty list, under
    its header name, even when the computation fails.  compute(p) gives a
    mapping, a library record's fields, from which the row takes the rest
    of the header by name; check(p) is a cross-field check raising ValueError,
    and sweep(p), when set, the grid the rows run over.  A sweep command is
    its point command with other parameters and a sweep.
    """

    params: tuple[Param, ...]
    header: tuple[str, ...]
    inputs: tuple[str, ...]
    compute: Callable[[dict], dict]
    check: Callable[[dict], None] | None = None
    sweep: Callable[[dict], SweepSpec] | None = None


def _stack(p):
    direction = plates.StackDirection(p["direction"])
    return vars(plates.stack_energy(plates.StackConfig(p["a"], p["x"], direction, p.get("truncate"))))


def _no_truncated_combined(p):
    if "truncate" in p and p["direction"] == "combined":
        raise ValueError("parameter 'truncate' is not defined for the combined stack")


def _shell_energy(p):
    params = gaussian.LGParams(t=p["t"], K=p["K"], L=p["L"], higher=tuple(p["higher"]))
    shell = gaussian.ShellSpec(dim=p["d"], cutoff=p["lambda"], shell_factor=p["b"],
                               temperature=p["T"])
    return vars(gaussian.casimir_energy_density(params, shell))


def _rescale(p):
    B = p["B"]
    if B == "auto":
        B = gaussian.fixed_point_field_scale(p["b"], p["d"])
    params = gaussian.LGParams(t=p["t"], K=p["K"], L=p["L"])
    return {"B": B, **vars(gaussian.rg_rescale(params, p["b"], B, p["d"]))}


def _lattice(p):
    import numpy as np

    rng = np.random.default_rng(p["seed"])
    shape = (p["sites"],) if p["d"] == 1 else (p["sites"], p["sites"])
    lattice = gaussian.LatticeField(values=rng.standard_normal(shape), spacing=1.0)
    phi2, grad2 = gaussian.parseval_residuals(lattice)
    return {"phi2_residual": phi2, "grad2_residual": grad2}


_GLOBALS = (
    Param("out", str, None, "output path (default: stdout)"),
    Param("format", _one_of("csv", "json"), "json", "output format (default: json)"),
)
_SPACING = Param("a", _positive, help="base spacing")
_DIRECTION = Param("direction", _one_of("inflation", "contraction", "combined"))
_GRID = (Param("steps", _two_or_more), Param("log", _boolean, False, "log-spaced grid"))
_STACK = Command(
    params=(_SPACING, Param("x", _above_one, help="stack ratio (> 1)"), _DIRECTION,
            Param("truncate", _two_or_more, None, "finite plate count (>= 2)")),
    header=("a", "x", "direction", "N", "value", "regularized"),
    inputs=("a", "x", "direction", "truncate"), compute=_stack, check=_no_truncated_combined,
)
_SHELL = Command(
    params=(Param("d", _dimension), Param("lambda", _positive), Param("b", _above_one),
            Param("T", _positive), Param("t", _non_negative), Param("K", _non_negative),
            Param("L", _non_negative, 0.0),
            Param("higher", _float_list, [], "JSON array of q^6, q^8, ... coefficients")),
    header=("d", "lambda", "b", "T", "t", "K", "L", "higher",
            "value", "abs_error_estimate", "evaluations"),
    inputs=("d", "lambda", "b", "T", "t", "K", "L", "higher"), compute=_shell_energy,
)

COMMANDS = {
    "plates-pair": Command(
        params=(Param("a", _positive, help="plate spacing"),
                Param("kind", _one_of("dirichlet", "em"), "dirichlet",
                      "field kind (default: dirichlet)")),
        header=("a", "kind", "value"), inputs=("a", "kind"),
        compute=lambda p: vars(plates.pair_interaction_energy(p["a"], plates.FieldKind(p["kind"]))),
    ),
    "plates-stack": _STACK,
    # a sweep point has no truncate, so the stack's check passes it
    "plates-sweep": dataclasses.replace(
        _STACK, params=(_SPACING, _DIRECTION, Param("x-min", _number), Param("x-max", _number),
                        *_GRID),
        sweep=lambda p: SweepSpec("x", p["x-min"], p["x-max"], p["steps"], p["log"]),
    ),
    "series-resum": Command(
        params=(Param("coeffs", _coeffs, help="JSON array of coefficients, inline or a file path"),
                Param("x", _number, help="evaluation point"),
                Param("tol", _positive, 1e-10, "convergent agreement tolerance (default 1e-10)")),
        header=("value", "converged", "convergents_used", "residual"), inputs=(),
        compute=lambda p: vars(series.self_similar_sum(
            series.PowerSeries(tuple(p["coeffs"])), p["x"], p["tol"])),
    ),
    "gaussian-energy": _SHELL,
    "gaussian-sweep": dataclasses.replace(
        _SHELL, params=(Param("var", _one_of("lambda", "b", "t")), Param("min", _number),
                        Param("max", _number), *_GRID,
                        Param("fit", _boolean, False, "append a power-law fit record"), *_SHELL.params),
        sweep=lambda p: SweepSpec(p["var"], p["min"], p["max"], p["steps"], p["log"]),
    ),
    "gaussian-rg": Command(
        params=(Param("d", _dimension), Param("b", _above_one),
                Param("B", _field_scale, "auto", "field scale, a number or 'auto' (K-fixing value)"),
                Param("t", _non_negative), Param("K", _non_negative), Param("L", _non_negative)),
        header=("d", "b", "B", "t", "K", "L"), inputs=("d", "b"), compute=_rescale,
    ),
    "lattice-check": Command(
        params=(Param("d", _one_of(1, 2, convert=_integer)),
                Param("sites", _two_or_more, help="sites per axis"),
                Param("seed", _integer, 0, "RNG seed (default 0)")),
        header=("d", "sites", "seed", "phi2_residual", "grad2_residual"),
        inputs=("d", "sites", "seed"), compute=_lattice,
    ),
}


# per command, each flag's name and whether it is a switch, taking no value
_FLAGS = {name: {**{param.name: param.parse is _boolean for param in command.params + _GLOBALS},
                 "config": False}
          for name, command in COMMANDS.items()}

# argparse takes a dash-led number for a value only in the forms '-1' and
# '-0.5'; the CLI also admits the exponent form, as in '--x -9.9e-05'
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)


def _parser(**kwargs):
    """An argparse parser whose errors raise UsageError."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    return _Parser(**kwargs)


@functools.cache
def _command_parser(name: str):
    # built once per process on first use: parse_args leaves the parser as it
    # is and fills a fresh namespace each call.  Every option keeps default
    # None so explicit flags can be told apart from config-file values
    parser = _parser(prog=f"sscasimir {name}")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    for param in COMMANDS[name].params + _GLOBALS:
        flag = dict(action="store_const", const=True) if param.parse is _boolean else {}
        metavar = getattr(param.parse, "metavar", param.name.upper().replace("-", "_"))
        parser.add_argument(f"--{param.name}", dest=param.name, help=param.help,
                            metavar=metavar, **flag)
    parser.add_argument("--config", help="JSON config file mirroring the flags")
    return parser


def _read_flags(name: str, args: list[str]) -> dict | None:
    """The flags argparse would give for args, without argparse; None when
    args hold anything but `--name value` pairs of the command's exact flag
    names (a switch bare, the last of a repeated flag winning), so argparse
    alone reads an abbreviation, `--name=value`, `-h`, `--`, a missing value
    or a dash-led value that is no number, and alone words its help and
    usage errors."""
    switches = _FLAGS[name]
    flags = dict.fromkeys(switches)
    tokens = iter(args)
    for token in tokens:
        flag = token[2:]
        if token[:2] != "--" or flag not in switches:
            return None
        if switches[flag]:
            flags[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
            return None
        flags[flag] = value
    return flags


def _parameters(name: str, params: tuple[Param, ...], raw: dict) -> dict:
    """Parse and check each parameter in table order; None counts as absent."""
    p: dict = {}
    for param in params:
        if param.name == p.get("var"):
            continue    # a gaussian sweep takes the parameter it varies from its grid
        value = param.default if raw.get(param.name) is None else raw[param.name]
        if value is REQUIRED:
            raise UsageError(f"missing required parameter '{param.name}' for {name}")
        if value is None:
            continue
        try:
            p[param.name] = param.parse(value)
        except ValueError as exc:
            raise UsageError(f"parameter '{param.name}' {exc}") from None
    return p


def parse_config(argv: list[str]) -> RunConfig:
    """Parse argv (and an optional --config file) into a validated RunConfig."""
    if not argv:
        raise UsageError("no command given (see --help)")
    name = argv[0]
    command = COMMANDS.get(name)
    if command is None:     # --help lists the commands; an unknown one is named
        parser = _parser(prog="sscasimir", description=__doc__.splitlines()[0])
        parser.add_argument("command", choices=COMMANDS)
        parser.parse_args(argv)
        raise UsageError(f"unknown command {name!r}")
    flags = _read_flags(name, argv[1:])
    if flags is None:
        flags = vars(_command_parser(name).parse_args(argv[1:]))
    path = flags.pop("config")
    raw = {}
    if path is not None:
        try:
            raw = _read_json(path)
        except ValueError as exc:
            raise UsageError(f"config file {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"config file {path!r} must hold a JSON object")
        unknown = [key for key in raw if key not in flags]
        if unknown:
            raise UsageError(f"unknown key '{unknown[0]}' in config file for {name}")
    raw.update((key, value) for key, value in flags.items() if value is not None)
    p = _parameters(name, command.params + _GLOBALS, raw)
    out, fmt = p.pop("out", None), p.pop("format")
    try:
        for check in filter(None, (command.check, command.sweep)):
            check(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(command=name, parameters=p, output=out, fmt=fmt)


def _fit_record(records):
    points = [(r["b"] / r["lambda"], r["value"]) for r in records if "value" in r]
    try:
        exponent, r_squared = gaussian.fit_power_law(points)
    except ValueError as exc:
        return {"exponent": None, "r_squared": None, "error": str(exc)}
    return {"exponent": exponent, "r_squared": r_squared}


def execute(config: RunConfig) -> ResultSet:
    """Run a validated RunConfig: one row, or one per point of the command's
    sweep in grid order; failed points become error rows."""
    command, p = COMMANDS[config.command], config.parameters
    points = [p]
    if command.sweep is not None:
        spec = command.sweep(p)
        points = [{**p, spec.variable: v} for v in spec.grid()]
    records = []
    for point in points:
        record = {key: point[name] for key, name in zip(command.header, command.inputs)
                  if point.get(name, []) != []}
        try:
            computed = command.compute(point)
            record.update((key, computed[key]) for key in command.header[len(command.inputs):])
        except (ValueError, ArithmeticError, MemoryError, QuadratureConvergenceError) as exc:
            record["error"] = str(exc)
        records.append(record)
    if p.get("fit"):
        records.append(_fit_record(records))
    return ResultSet(command=config.command, records=records)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def render(results: ResultSet, fmt: str) -> str:
    """Serialize a ResultSet; deterministic, rows in input order."""
    if not results.records:
        raise ValueError("refusing to render an empty result set")
    if fmt == "json":
        return json.dumps(results.records, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, COMMANDS[results.command].header + ("error",),
                            restval="", lineterminator="\n")
    writer.writeheader()
    trailer = ""
    for record in results.records:
        if "exponent" in record:  # sweep fit trailer; no grid columns
            trailer += "# fit %s\n" % " ".join(f"{k}={_cell(v)}" for k, v in record.items())
            continue
        writer.writerow({key: _cell(value) for key, value in record.items()})
    return buf.getvalue() + trailer


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = execute(config)
    text = render(results, config.fmt)
    if config.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:     # ValueError: a NUL byte in the path
            print(f"error: cannot write {config.output!r}: {exc}", file=sys.stderr)
            return 1
    return 2 if results.all_failed() else 0


if __name__ == "__main__":
    sys.exit(main())
