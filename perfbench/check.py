"""Outcome checks: compare what a point returned with its precomputed oracle.

An expected outcome is a dict: ``{"raises": "<exception class name>"}``,
``{"value": spec}`` for a library point, or, for a CLI point, an exit code
and, for exit 0 or 2, one field spec per output row and an optional spec
of the power-law fit record.  Field specs are lists:

* ``["approx", v, rtol, atol]``: ``|got - v| <= atol + rtol |v|``;
* ``["le", bound]``; ``["eq", v]`` (exact, across JSON and CSV spellings);
* ``["absent"]``: missing or empty;
* ``["contains", text]``;
* ``["cause", text]``: the error field, where the format has one, names text;
* ``["convergent", exact, rtol]``: the value is the exact convergent at the
  index the program reports in ``convergents_used``.
"""

from __future__ import annotations

import builtins
import csv
import json
from collections import Counter

from sscasimir import gaussian, quadrature

_EXAMPLES = 5


def _exception_class(name):
    for module in (gaussian, quadrature, builtins):
        cls = getattr(module, name, None)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return cls
    raise KeyError(f"unknown exception class {name!r}")


def _float(got):
    if got is None or got == "" or isinstance(got, bool):
        return None
    try:
        return float(got)
    except (TypeError, ValueError):
        return None


def _field_ok(spec, got, row):
    op = spec[0]
    if op == "absent":
        return got is None or got == ""
    if op == "contains":
        return isinstance(got, str) and spec[1] in got
    if op == "cause":
        return got is None or (isinstance(got, str) and spec[1] in got)
    if op == "eq":
        want = spec[1]
        if isinstance(want, bool):
            return got is want or got == ("true" if want else "false")
        if isinstance(want, (int, float)):
            return _float(got) == want
        return got == want
    if op == "convergent":
        used = _float(row.get("convergents_used"))
        if used is None or not 1 <= used <= len(spec[1]) or spec[1][int(used) - 1] is None:
            return False
        spec = ["approx", spec[1][int(used) - 1], spec[2], 0.0]
    value = _float(got)
    if value is None:
        return False
    if spec[0] == "le":
        return value <= spec[1]
    return abs(value - spec[1]) <= spec[3] + spec[2] * abs(spec[1])


def _parse_output(text, fmt):
    """Rows (list of dicts) and the fit record (dict or None) of one command."""
    if fmt == "json":
        records = json.loads(text)
        rows = [r for r in records if "exponent" not in r]
        fits = [r for r in records if "exponent" in r]
        return rows, (fits[0] if fits else None)
    lines = text.splitlines()
    fit = None
    for line in lines:
        if line.startswith("# fit "):
            fit = dict(item.split("=", 1) for item in line[len("# fit "):].split())
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    header = table[0]
    return [dict(zip(header, row)) for row in table[1:]], fit


class Checker:
    """Counts attempted, failed and known-failure points of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.series_max_rel_err = 0.0
        self.examples = []

    def check(self, point, result, exc, stdout, stderr):
        kind, args, expect, known = point
        self.attempted += 1
        if kind == "cli" and args[:1] == ["series-resum"] and result == 0 and exc is None:
            self._track_series(stdout, expect)
        if self._matches(kind, expect, result, exc, stdout, stderr):
            return
        for name, outcome in known:
            if self._matches(kind, outcome, result, exc, stdout, stderr):
                self.known[name] += 1
                return
        self.failed += 1
        if len(self.examples) < _EXAMPLES:
            got = f"{type(exc).__name__}: {exc}" if exc is not None else repr(result)
            self.examples.append({"point": point, "got": got, "stdout": stdout[:400], "stderr": stderr[:400]})

    def _matches(self, kind, expect, result, exc, stdout, stderr):
        if "raises" in expect:
            return (isinstance(exc, _exception_class(expect["raises"]))
                    and getattr(exc, "evaluations", 0) <= expect.get("max_evals", float("inf")))
        if kind != "cli":
            return exc is None and _field_ok(expect["value"], result.value, {})
        if exc is not None or result != expect["exit"]:
            return False
        if expect["exit"] == 1:
            return stdout == "" and stderr.startswith("error:")
        try:
            rows, fit = _parse_output(stdout, expect["fmt"])
        except (ValueError, IndexError):
            return False
        if len(rows) != len(expect["rows"]) or (fit is None) != ("fit" not in expect):
            return False
        for row, specs in zip(rows, expect["rows"]):
            if not all(_field_ok(spec, row.get(field), row) for field, spec in specs.items()):
                return False
        return fit is None or all(_field_ok(spec, fit.get(f), fit) for f, spec in expect["fit"].items())

    def _track_series(self, stdout, expect):
        """Largest relative error of a returned series value against its oracle."""
        try:
            row = _parse_output(stdout, expect["fmt"])[0][0]
        except (ValueError, IndexError):
            return
        got, spec = _float(row.get("value")), expect["rows"][0]["value"]
        want = spec[1]
        if spec[0] == "convergent":
            used = _float(row.get("convergents_used"))
            want = spec[1][int(used) - 1] if used and 1 <= used <= len(spec[1]) else None
        if got is not None and want:
            self.series_max_rel_err = max(self.series_max_rel_err, abs(got - want) / abs(want))
