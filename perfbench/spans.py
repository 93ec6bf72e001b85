"""In-memory span tracer installed by patching the program's module attributes.

Every traced function is looked up by the program as a module global or a
module attribute, so replacing ``sscasimir.<module>.<name>`` intercepts its
calls without touching the program's source.  A span records (name, start,
end, parent, point id); a span's self time is its duration minus its child
spans and minus the timed counters run directly inside it.  Hot leaves
(``gaussian.kernel``, once per quadrature evaluation) are timed counters, not
spans.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter

POINT = "point"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.point = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counted = array("d")
        self.stack = []
        self.current_point = -1
        self.counters = Counter()
        self.counted_name = None
        self.timed = [0, 0.0]           # calls and busy seconds of the timed counter
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        nid = self._name_id(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.point.append(self.current_point)
        self.end.append(0.0)
        self.counted.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, observe=None):
        """Wrap fn in a span; observe(args, result, exc) sees every outcome."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if observe:
                    observe(args, None, exc)
                raise
            close(idx)
            if observe:
                observe(args, result, None)
            return result

        return traced

    def timed_counter(self, name, fn):
        """Count calls and busy time of fn, charging the time to the open span.

        Kept to the fewest operations: it runs once per quadrature node."""
        totals, stack, counted = self.timed, self.stack, self.counted
        self.counted_name = name

        def traced(*args):
            t0 = perf_counter()
            value = fn(*args)
            dt = perf_counter() - t0
            totals[0] += 1
            totals[1] += dt
            counted[stack[-1]] += dt
            return value

        return traced

    def rejection_counter(self, name, fn):
        """Count the ValueErrors (documented rejections) raised by fn."""
        counters = self.counters

        def traced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ValueError:
                counters[name] += 1
                raise

        return traced

    def patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self, points=None):
        """Self seconds by span name, over all spans or those of the given points.

        Time of the timed counter is reported under the counter's name."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = Counter()
        for i, nid in enumerate(self.name):
            if points is None or self.point[i] in points:
                out[self.names[nid]] += self.end[i] - self.start[i] - child[i] - self.counted[i]
                out[self.counted_name] += self.counted[i]
        return out

    def point_latencies(self):
        """Duration of each point's root span, by point id."""
        root = self._ids.get(POINT)
        return {self.point[i]: self.end[i] - self.start[i]
                for i, nid in enumerate(self.name) if nid == root}

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,point,counted\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.names[nid]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.point[i]},{self.counted[i]!r}\n")


def install(tracer):
    """Patch the layers' public functions; returns nothing, undo with restore()."""
    from sscasimir import cli, gaussian, plates, quadrature, series

    c = tracer.counters

    def rendered(args, result, exc):
        if result is not None:
            c["cli.render.bytes"] += len(result)

    def convergents_done(args, result, exc):
        if result is not None:
            c["series.convergents_evaluated"] += len(result)

    def series_done(args, result, exc):
        if result is not None:
            c["series.convergents_used"] += result.convergents_used
        if result is None or not result.converged:
            c["series.declined"] += 1

    def integrated(args, result, exc):
        c["quadrature.integrate.calls"] += 1
        done = result if result is not None else exc
        evaluations = getattr(done, "evaluations", 0)
        c["quadrature.evaluations"] += evaluations
        c["quadrature.evaluations_max"] = max(c["quadrature.evaluations_max"], evaluations)
        if isinstance(exc, quadrature.QuadratureConvergenceError):
            c["quadrature.nonconverged"] += 1

    def energy_done(args, result, exc):
        if isinstance(exc, ValueError):
            c["gaussian.rejected"] += 1

    def lattice_bytes(args, result, exc):
        c["gaussian.parseval_residuals.computed_bytes"] += args[0].values.nbytes

    for name, observe in (("parse_config", None), ("execute", None), ("render", rendered)):
        tracer.patch(cli, name, tracer.span("cli." + name, getattr(cli, name), observe))
    for name, observe in (("to_continued_fraction", None), ("convergents", convergents_done),
                          ("self_similar_sum", series_done)):
        tracer.patch(series, name, tracer.span("series." + name, getattr(series, name), observe))
    tracer.patch(plates, "stack_energy", tracer.span("plates.stack_energy", plates.stack_energy))
    original_pair = plates.pair_interaction_energy

    def pair(*args, **kwargs):
        c["plates.pair_interaction_energy.calls"] += 1
        return original_pair(*args, **kwargs)

    tracer.patch(plates, "pair_interaction_energy", pair)
    original_main = cli.main

    def main(*args, **kwargs):
        code = original_main(*args, **kwargs)
        c["cli.exit_nonzero"] += code != 0
        return code

    tracer.patch(cli, "main", main)
    for name, observe in (("casimir_energy_density", energy_done), ("dimensionless_energy_density", energy_done),
                          ("fit_power_law", None), ("rg_rescale", None), ("parseval_residuals", lattice_bytes)):
        tracer.patch(gaussian, name, tracer.span("gaussian." + name, getattr(gaussian, name), observe))
    for name in ("LGParams", "ShellSpec"):
        tracer.patch(gaussian, name, tracer.rejection_counter("gaussian.rejected", getattr(gaussian, name)))
    tracer.patch(gaussian, "kernel", tracer.timed_counter("gaussian.kernel", gaussian.kernel))
    integrate = tracer.span("quadrature.integrate", quadrature.integrate, integrated)
    tracer.patch(quadrature, "integrate", integrate)
    tracer.patch(gaussian, "integrate", integrate)
