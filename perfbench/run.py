"""Benchmark of the sscasimir package: seeded workloads, oracle checks, metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of stdout is one JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries
the per-layer metrics.  Lines before it, each starting with ``#``, repeat
every metric by name with its unit and sample count, the environment, the
known failures and, when traced, the layers that dominate.

Steps of one run:

1. build the workload's input pool and its oracles from ``--seed``
   (``workloads.py``), before anything is timed;
2. run the closed loop in one child process (``worker.py``) and read its peak
   resident memory from the kernel's accounting of that child;
3. ``--trace 0``: at pauses spread through that run, launch fresh
   interpreters that run the pool's first point (``probe.py``) and time them
   from outside: ``setup_s`` is their median.  ``--trace 1``: before the run,
   time a bare interpreter and ``-X importtime`` of the package instead, for
   the ``setup.*`` breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_POINTS = 1000
SETUP_LAUNCHES = 21
IMPORT_LAUNCHES = 5
PROBE_TIMEOUT_S = 60.0
READY = b"#ready"
PAUSE = b"#pause"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _start(cmd, stdin=subprocess.DEVNULL):
    return subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)


def _finish(proc, timeout, on_line=lambda line: None):
    """Read a started child's stdout to its end, calling on_line with each line
    as it arrives, then reap the child; returns (stdout, exit code, peak
    resident kB).  The child is killed if it runs longer than timeout seconds,
    not counting the time spent inside on_line."""
    chunks, pending = [], b""
    deadline = time.perf_counter() + timeout
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError(f"{proc.args[1]} did not finish within {timeout} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                t0 = time.perf_counter()
                on_line(line)
                deadline += time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return b"".join(chunks), proc.returncode, usage.ru_maxrss


def _probe_args(point):
    kind, args = point[0], point[1]
    if kind == "cli":
        return ["cli", *args]
    fn, d, *numbers, higher = args
    return ["energy", fn, str(d), *map(repr, numbers), *map(repr, higher)]


def setup_seconds(first_point):
    """Wall time of one fresh interpreter from launch to the return of the
    pool's first point, timed from outside."""
    ready = []

    def on_line(line):
        if not ready and line.endswith(READY):
            ready.append(time.perf_counter() - t0)

    cmd = [sys.executable, str(HERE / "probe.py"), *_probe_args(first_point)]
    t0 = time.perf_counter()
    _, code, _ = _finish(_start(cmd), PROBE_TIMEOUT_S, on_line)
    if code != 0 or not ready:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready[0]


def _import_times(stderr):
    """Cumulative seconds of numpy and of the sscasimir modules net of numpy,
    from ``-X importtime`` output."""
    numpy_us = package_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2][1:]
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
        if name.startswith("sscasimir"):             # outermost import only
            package_us += cumulative
    return numpy_us / 1e6, (package_us - numpy_us) / 1e6


def setup_breakdown(first_kind, launches):
    """Medians of a bare interpreter's wall time and of the numpy and
    sscasimir import times that ``-X importtime`` reports."""
    module = "sscasimir.cli" if first_kind == "cli" else "sscasimir"
    bare, numpy_s, package_s = [], [], []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              capture_output=True, text=True, check=True, timeout=60, env=_child_env())
        n, p = _import_times(done.stderr)
        numpy_s.append(n)
        package_s.append(p)
    return {"setup.interpreter_s": statistics.median(bare),
            "setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_sscasimir_s": statistics.median(package_s)}


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sscasimir" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of an sscasimir checkout ({SRC / 'sscasimir'} not found)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    # The worker starts while this process is still small: a child's peak
    # resident size, as the kernel reports it, includes its parent's at fork.
    worker = _start([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE)
    try:
        import workloads        # numpy and scipy: only once the worker is started

        pool = workloads.make_pool(args.workload, args.seed)
        metrics, notes, setup = {}, {}, []
        if args.trace:
            metrics.update(setup_breakdown(pool[0][0], IMPORT_LAUNCHES))
        OUT.mkdir(exist_ok=True)
        job = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "min_points": MIN_POINTS, "pauses": 0 if args.trace else SETUP_LAUNCHES,
               "spans_path": str(OUT / f"spans-{args.workload}.csv.gz"), "pool": pool}
        worker.stdin.write(json.dumps(job).encode() + b"\n")
        worker.stdin.flush()
    except BaseException:
        worker.kill()
        worker.wait()
        raise

    def on_line(line):
        if line == PAUSE:
            setup.append(setup_seconds(pool[0]))
            worker.stdin.write(b"go\n")
            worker.stdin.flush()

    # The worker's hard stop is at twice its run time plus 30 s.
    stdout, code, max_rss_kb = _finish(worker, 2.0 * args.seconds + 60.0, on_line)
    worker.stdin.close()
    if code != 0:
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(stdout.splitlines()[-1])

    if args.trace:
        untraced, layers = result["untraced"], result["layers"]
        metrics.update(layers)
        metrics["trace.untraced_points_per_s"] = untraced["points_per_s"]
        metrics["trace.overhead_points_per_s"] = untraced["points_per_s"] - layers["trace.points_per_s"]
        wanted = spec["per_layer"]
    else:
        run = result["run"]
        metrics.update({k: run[k] for k in ("points_per_s", "latency_p50_ms", "latency_p99_ms")})
        metrics["peak_rss_mb"] = max_rss_kb / 1024.0
        metrics["setup_s"] = statistics.median(setup)
        notes.update(points_per_s=f"{run['points']} points in {run['busy_s']:.3f} s busy",
                     latency_p50_ms=f"over {run['inputs']} inputs, each the mean of its runs",
                     latency_p99_ms=f"over {run['inputs']} inputs, {run['beyond_p99']} beyond",
                     setup_s=f"median of {len(setup)} launches spread through the run")
        wanted = spec["end_to_end"]

    attempted, failed, known = result["attempted"], result["failed"], result["known"]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for m in wanted:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"# {m['name']} {metrics[m['name']]:.6g} {m['unit']}{note}")
    wrong = failed + sum(known.values())
    print(f"# failure_ratio {wrong / attempted:.6g} ratio  ({wrong} of {attempted} points wrong: "
          f"{failed} unexpected, known {json.dumps(known, sort_keys=True)})")
    for band, shares in result.get("dominant", {}).items():
        print(f"# dominant {band}: " + ", ".join(f"{name} {share:.1%}" for name, share in shares))
    for example in result["examples"]:
        print(f"# wrong outcome: {json.dumps(example)[:1000]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
