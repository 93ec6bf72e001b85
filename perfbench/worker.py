"""Closed-loop workload runner: one process, one client, no extra threads.

Reads one JSON job line on stdin (``workload``, ``seconds``, ``trace``,
``min_points``, ``pauses``, ``spans_path``, ``pool``) and writes one JSON
result line on stdout.  Each point is timed alone; oracle checks run between
points, outside the timed calls.  The pool is cycled from its start until
the run has lasted ``seconds`` and holds at least ``min_points`` points.

``pauses`` times, spread evenly through the run, the loop stops between two
points, writes ``#pause`` and waits for a line on stdin: the parent launches
a set-up probe meanwhile, so that the probes sample the same stretch of time
as the points without running beside them.  Paused time is not run time.

With ``trace`` the first half of the time runs untraced and the second half
traced, so the result carries both throughputs and the tracing overhead.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import sys
from array import array
from time import perf_counter

import numpy as np

from check import Checker
from points import EXECUTORS
from spans import POINT, Tracer, install

PAUSE = b"#pause\n"


def _pause():
    """Wait for the parent between two points; returns the seconds paused."""
    t0 = perf_counter()
    os.write(sys.__stdout__.fileno(), PAUSE)
    if not sys.stdin.buffer.readline():
        raise SystemExit("parent closed stdin during a pause")
    return perf_counter() - t0


def measure(pool, seconds, min_points, checker, tracer=None, pauses=0):
    """Run the closed loop; returns, for each input of the pool, its summed
    latency and its number of runs, then the point count and the summed
    latency of all points."""
    sums, runs = array("d", [0.0]) * len(pool), array("q", [0]) * len(pool)
    out, err = io.StringIO(), io.StringIO()
    executors = [EXECUTORS[point[0]] for point in pool]
    pause_at = [seconds * (k + 0.5) / pauses for k in range(pauses)]
    n = i = 0
    busy = paused = 0.0
    hard_stop = 2.0 * seconds + 30.0
    start = perf_counter()
    sys.stdout, sys.stderr = out, err
    try:
        while True:
            k, point, run = i, pool[i], executors[i]
            i = (i + 1) % len(pool)
            out.seek(0)
            out.truncate()
            err.seek(0)
            err.truncate()
            exc = result = None
            t0 = perf_counter()
            if tracer is not None:
                tracer.current_point = n
                root = tracer.open(POINT)
            try:
                result = run(*point[1])
            except Exception as e:        # any exception is an outcome to check
                exc = e
            if tracer is not None:
                tracer.close(root)
            t1 = perf_counter()
            busy += t1 - t0
            sums[k] += t1 - t0
            runs[k] += 1
            n += 1
            checker.check(point, result, exc, out.getvalue(), err.getvalue())
            elapsed = t1 - start - paused
            while pause_at and elapsed >= pause_at[0]:
                pause_at.pop(0)
                paused += _pause()
            if (elapsed >= seconds and n >= min_points) or elapsed >= hard_stop:
                break
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return sums, runs, n, busy


def summarize(sums, runs, n, busy):
    """Throughput over busy time, and nearest-rank percentiles over the pool's
    inputs of each input's mean latency.

    The pool is cycled, so each input ran several times spread through the
    run; its mean averages the host's speed over the run as the throughput
    does.  A percentile of single runs would instead jump between the host's
    fast and slow spells wherever many inputs cost nearly the same."""
    total, count = np.frombuffer(sums, dtype=np.float64), np.frombuffer(runs, dtype=np.int64)
    ordered = np.sort(total[count > 0] / count[count > 0])
    m = len(ordered)

    def rank(q):
        return float(ordered[max(0, math.ceil(q * m) - 1)])

    return {"points": n, "inputs": m, "busy_s": busy, "points_per_s": n / busy,
            "latency_p50_ms": 1e3 * rank(0.50), "latency_p99_ms": 1e3 * rank(0.99),
            "beyond_p99": m - math.ceil(0.99 * m)}


def layer_metrics(tracer, checker, traced):
    """Per-layer metrics of the traced phase."""
    selfs = tracer.self_times()
    c = tracer.counters
    metrics = {f"{name}.self_s": selfs[name] for name in (
        "cli.parse_config", "cli.execute", "cli.render",
        "series.to_continued_fraction", "series.convergents", "series.self_similar_sum",
        "plates.stack_energy", "gaussian.casimir_energy_density", "gaussian.dimensionless_energy_density",
        "gaussian.fit_power_law", "gaussian.rg_rescale", "gaussian.parseval_residuals",
        "quadrature.integrate", POINT)}
    metrics["gaussian.kernel.calls"], metrics["gaussian.kernel.busy_s"] = tracer.timed
    for name in ("cli.render.bytes", "series.convergents_evaluated", "series.convergents_used",
                 "series.declined", "plates.pair_interaction_energy.calls",
                 "gaussian.rejected", "gaussian.parseval_residuals.computed_bytes",
                 "quadrature.integrate.calls", "quadrature.evaluations", "quadrature.evaluations_max",
                 "quadrature.nonconverged", "cli.exit_nonzero"):
        metrics[name] = c[name]
    evaluated, evaluations = c["series.convergents_evaluated"], c["quadrature.evaluations"]
    metrics["series.used_ratio"] = c["series.convergents_used"] / evaluated if evaluated else 0.0
    metrics["series.max_rel_err"] = checker.series_max_rel_err
    metrics["quadrature.self_s_per_evaluation"] = selfs["quadrature.integrate"] / evaluations if evaluations else 0.0
    metrics["trace.points"] = traced["points"]
    metrics["trace.busy_s"] = traced["busy_s"]
    metrics["trace.points_per_s"] = traced["points_per_s"]
    return metrics


def dominant_layers(tracer, top=4):
    """Self-time shares of the largest layers for all points, the median band
    (points between the 45th and 55th latency percentiles) and the tail
    (points at or beyond the 99th)."""
    latency = tracer.point_latencies()
    ordered = sorted(latency.values())
    n = len(ordered)
    bands = {
        "all": None,
        "median": {p for p, v in latency.items() if ordered[int(0.45 * n)] <= v <= ordered[int(0.55 * n)]},
        "tail": {p for p, v in latency.items() if v >= ordered[math.ceil(0.99 * n) - 1]},
    }
    out = {}
    for band, points in bands.items():
        selfs = tracer.self_times(points)
        total = sum(selfs.values())
        out[band] = [[name, seconds / total] for name, seconds in selfs.most_common(top)]
    return out


def main():
    job = json.loads(sys.stdin.buffer.readline())
    pool, seconds, min_points = job["pool"], job["seconds"], job["min_points"]
    # The pool and its oracles are tens of thousands of the benchmark's own
    # objects; frozen, they are left out of the full collections that the
    # program's allocations trigger, which would otherwise add pauses of up to
    # 50 ms to whichever point ran into one.
    gc.collect()
    gc.freeze()
    warmup = Checker()
    measure(pool, min(1.0, 0.1 * seconds), 0, warmup)
    checker = Checker()
    result = {}
    if not job["trace"]:
        result["run"] = summarize(*measure(pool, seconds, min_points, checker, pauses=job["pauses"]))
    else:
        result["untraced"] = summarize(*measure(pool, seconds / 2, min_points // 2, checker))
        tracer = Tracer()
        install(tracer)
        try:
            traced = summarize(*measure(pool, seconds / 2, min_points // 2, checker, tracer))
        finally:
            tracer.restore()
        result["layers"] = layer_metrics(tracer, checker, traced)
        result["dominant"] = dominant_layers(tracer)
        tracer.write(job["spans_path"])
    result.update(attempted=checker.attempted, failed=checker.failed, known=dict(checker.known),
                  examples=checker.examples)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
