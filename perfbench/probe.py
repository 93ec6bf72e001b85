"""Set-up probe: a fresh interpreter runs the first point of a workload.

    python3 perfbench/probe.py energy <fn> <d> <lam> <b> <T> <t> <K> <L> [higher ...]
    python3 perfbench/probe.py cli <argv ...>

The parent times from launch to the ``#ready`` line, which is written once
the point has returned, so interpreter start, imports and the first call are
all inside the measurement.  Arguments are plain strings so that the probe
imports nothing beyond what the point itself needs.
"""

import sys

import points

kind, args = sys.argv[1], sys.argv[2:]
if kind == "cli":
    points.cli(*args)
else:
    fn, d, *numbers = args
    lam, b, T, t, K, L, *higher = map(float, numbers)
    points.energy(fn, int(d), lam, b, T, t, K, L, higher)
sys.stdout.write("#ready\n")
sys.stdout.flush()
