"""Command-line front end: validated run configs, sweeps, CSV/JSON tables.

One logical entry point (main) over the series/plates/gaussian modules.
Each subcommand is one `Command` record in the `COMMANDS` table: its
parameters (name, one parse-and-check function, a default or REQUIRED,
help text), an optional cross-field check, the base and computed fields of
its row, an optional sweep, and its CSV header.  The argparse options, the
config-file key check, validation, dispatch and CSV rendering all read it.
Config files mirror the flags one-to-one (JSON object keyed by flag names);
explicit flags override file values and unknown keys are rejected.  A row
whose computation fails (ValueError, ArithmeticError, a quadrature that
does not converge) keeps its base fields and gets an error field, so a
sweep never aborts on one bad point; the exit code is 0 for full or partial
success, 1 for usage or I/O problems, 2 when every point failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
        lo, hi, steps = self.lo, self.hi, self.steps
        if self.log:
            llo, lhi = math.log(lo), math.log(hi)
            vals = [math.exp(llo + (lhi - llo) * i / (steps - 1)) for i in range(steps)]
        else:
            vals = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
        vals[0], vals[-1] = lo, hi
        return vals


@dataclass(frozen=True)
class ResultSet:
    command: str
    records: list = field(default_factory=list)

    def all_failed(self) -> bool:
        rows = [r for r in self.records if "exponent" not in r]
        return bool(rows) and all(isinstance(r.get("error"), str) for r in rows)


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


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot be read from {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"is not valid JSON in {path!r}: {exc}") from None


def _float_list(v):
    if isinstance(v, str):
        try:
            v = json.loads(v)
        except json.JSONDecodeError:
            raise ValueError(f"must be a JSON array, got {v!r}") from None
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

    base(p) gives the fields a row keeps even when the computation fails,
    compute(p) the computed fields; check(p) is a cross-field check raising
    ValueError, and sweep(p), when set, the grid the rows run over.
    """

    params: tuple[Param, ...]
    header: tuple[str, ...]
    base: Callable[[dict], dict]
    compute: Callable[[dict], dict]
    check: Callable[[dict], None] | None = None
    sweep: Callable[[dict], SweepSpec] | None = None


def _fields(*keys, **optional):
    """Row fields copied from the parameters; an optional field (row key =
    parameter key) only where that parameter is set and not empty."""
    def base(p):
        fields = {k: p[k] for k in keys}
        fields.update((k, p[src]) for k, src in optional.items() if p.get(src))
        return fields
    return base


def _stack(p):
    direction = plates.StackDirection(p["direction"])
    result = plates.stack_energy(plates.StackConfig(p["a"], p["x"], direction, p.get("truncate")))
    return {"value": result.value, "regularized": result.regularized}


def _no_truncated_combined(p):
    if "truncate" in p and p["direction"] == "combined":
        raise ValueError("parameter 'truncate' is not defined for the combined stack")


def _shell_energy(p):
    params = gaussian.LGParams(t=p["t"], K=p["K"], L=p["L"], higher=tuple(p["higher"]))
    shell = gaussian.ShellSpec(dim=p["d"], cutoff=p["lambda"], shell_factor=p["b"],
                               temperature=p["T"])
    return gaussian.casimir_energy_density(params, shell)


def _shell_sweep_point(p):
    result = _shell_energy(p)
    return {"value": result.value, "error": result.abs_error_estimate}


def _rescale(p):
    B = p["B"]
    if B == "auto":
        B = gaussian.fixed_point_field_scale(p["b"], p["d"])
    params = gaussian.LGParams(t=p["t"], K=p["K"], L=p["L"])
    rescaled = gaussian.rg_rescale(params, p["b"], B, p["d"])
    return {"B": B, "t": rescaled.t, "K": rescaled.K, "L": rescaled.L}


def _lattice(p):
    rng = np.random.default_rng(p["seed"])
    shape = (p["sites"],) if p["d"] == 1 else (p["sites"], p["sites"])
    lattice = gaussian.LatticeField(values=rng.standard_normal(shape), spacing=1.0)
    phi2, grad2 = gaussian.parseval_residuals(lattice)
    return {"phi2_residual": phi2, "grad2_residual": grad2}


_GLOBALS = (
    Param("out", str, None, "output path (default: stdout)"),
    Param("format", _one_of("csv", "json"), "json", "output format (default: json)"),
)
_DIRECTION = Param("direction", _one_of("inflation", "contraction", "combined"))
_GRID = (Param("steps", _two_or_more), Param("log", bool, False, "log-spaced grid"))
_SHELL = (
    Param("d", _dimension), Param("lambda", _positive), Param("b", _above_one),
    Param("T", _positive), Param("t", _non_negative), Param("K", _non_negative),
    Param("L", _non_negative, 0.0),
    Param("higher", _float_list, [], "JSON array of q^6, q^8, ... coefficients"),
)
_STACK_BASE = _fields("a", "x", "direction", N="truncate")
_SHELL_BASE = _fields("d", "lambda", "b", "T", "t", "K", "L", higher="higher")
_STACK_HEADER = ("a", "x", "direction", "N", "value", "regularized")
_SHELL_HEADER = ("d", "lambda", "b", "T", "t", "K", "L", "value", "error")

COMMANDS = {
    "plates-pair": Command(
        params=(Param("a", _positive, help="plate spacing"),
                Param("kind", _one_of("dirichlet", "em"), "dirichlet",
                      "field kind (default: dirichlet)")),
        header=("a", "kind", "value"), base=_fields("a", "kind"),
        compute=lambda p: {"value": plates.pair_interaction_energy(
            p["a"], plates.FieldKind(p["kind"])).value},
    ),
    "plates-stack": Command(
        params=(Param("a", _positive, help="base spacing"),
                Param("x", _above_one, help="stack ratio (> 1)"), _DIRECTION,
                Param("truncate", _two_or_more, None, "finite plate count (>= 2)")),
        header=_STACK_HEADER, base=_STACK_BASE, compute=_stack, check=_no_truncated_combined,
    ),
    "plates-sweep": Command(
        params=(Param("a", _positive, help="base spacing"), _DIRECTION,
                Param("x-min", _number), Param("x-max", _number), *_GRID),
        header=_STACK_HEADER, base=_STACK_BASE, compute=_stack,
        sweep=lambda p: SweepSpec("x", p["x-min"], p["x-max"], p["steps"], p["log"]),
    ),
    "series-resum": Command(
        params=(Param("coeffs", _coeffs, help="JSON array of coefficients, inline or a file path"),
                Param("x", _number, help="evaluation point"),
                Param("tol", _positive, 1e-10, "convergent agreement tolerance (default 1e-10)")),
        header=("value", "converged", "convergents_used", "residual"), base=_fields(),
        compute=lambda p: dataclasses.asdict(series.self_similar_sum(
            series.PowerSeries(tuple(p["coeffs"])), p["x"], p["tol"])),
    ),
    "gaussian-energy": Command(
        params=_SHELL, header=_SHELL_HEADER, base=_SHELL_BASE,
        compute=lambda p: dataclasses.asdict(_shell_energy(p)),
    ),
    "gaussian-sweep": Command(
        params=(Param("var", _one_of("lambda", "b", "t")), Param("min", _number),
                Param("max", _number), *_GRID,
                Param("fit", bool, False, "append a power-law fit record"), *_SHELL),
        header=_SHELL_HEADER, base=_SHELL_BASE, compute=_shell_sweep_point,
        sweep=lambda p: SweepSpec(p["var"], p["min"], p["max"], p["steps"], p["log"]),
    ),
    "gaussian-rg": Command(
        params=(Param("d", _dimension), Param("b", _above_one),
                Param("B", _field_scale, "auto", "field scale, a number or 'auto' (K-fixing value)"),
                Param("t", _non_negative), Param("K", _non_negative), Param("L", _non_negative)),
        header=("d", "b", "B", "t", "K", "L"), base=_fields("d", "b"), compute=_rescale,
    ),
    "lattice-check": Command(
        params=(Param("d", _one_of(1, 2, convert=_integer)),
                Param("sites", _two_or_more, help="sites per axis"),
                Param("seed", _integer, 0, "RNG seed (default 0)")),
        header=("d", "sites", "seed", "phi2_residual", "grad2_residual"),
        base=_fields("d", "sites", "seed"), compute=_lattice,
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _command_parser(name: str, command: Command) -> _Parser:
    # every option keeps default None so explicit flags can be told apart
    # from config-file values
    parser = _Parser(prog=f"sscasimir {name}")
    # argparse takes a dash-led number for a value only in the forms '-1' and
    # '-0.5'; this also admits the exponent form, as in '--x -9.9e-05'
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)
    for param in command.params + _GLOBALS:
        flag = dict(action="store_const", const=True) if param.parse is bool else {}
        metavar = getattr(param.parse, "metavar", param.name.upper().replace("-", "_"))
        parser.add_argument(f"--{param.name}", dest=param.name, help=param.help,
                            metavar=metavar, **flag)
    parser.add_argument("--config", help="JSON config file mirroring the flags")
    return parser


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
        parser = _Parser(prog="sscasimir", description=__doc__.splitlines()[0])
        parser.add_argument("command", choices=COMMANDS)
        parser.parse_args(argv)
        raise UsageError(f"unknown command {name!r}")
    flags = vars(_command_parser(name, command).parse_args(argv[1:]))
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
        return {"exponent": None, "r_squared": None, "fit_error": str(exc)}
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
        record = command.base(point)
        try:
            record.update(command.compute(point))
        except (ValueError, ArithmeticError, QuadratureConvergenceError) as exc:
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
    writer = csv.DictWriter(buf, COMMANDS[results.command].header, restval="",
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    trailer = ""
    for record in results.records:
        if "exponent" in record:  # sweep fit trailer; no grid columns
            trailer += "# fit exponent=%s r_squared=%s\n" % (
                _cell(record.get("exponent")), _cell(record.get("r_squared")))
            continue
        cells = {key: _cell(value) for key, value in record.items()}
        cells.setdefault("error", cells.get("abs_error_estimate", ""))
        writer.writerow(cells)
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
        except OSError as exc:
            print(f"error: cannot write {config.output!r}: {exc}", file=sys.stderr)
            return 1
    return 2 if results.all_failed() else 0


if __name__ == "__main__":
    sys.exit(main())
