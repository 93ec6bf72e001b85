"""One sha256 per benchmark pool over every outcome of its points.

    python3 tools/pool_digest.py                          # both workloads, seeds 5 and 6
    python3 tools/pool_digest.py --seeds 11 --size 512 --root ../other-checkout

Builds each pool with perfbench's workloads.make_pool and runs every point
once, in order, through points.EXECUTORS, importing both and the package from
the checkout at --root (by default the one holding this script).  An outcome
is the returned value, error estimate (both in hex) and evaluations, or the
repr of any other result (the CLI's exit code), or the exception's type and
text; with it go the point's stdout and stderr.  Prints one line per
workload and seed: its name, the seed, the point count and the digest.  Two
checkouts whose lines agree gave every point the same bits and the same
text.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path


def outcome(run, args) -> str:
    """The outcome of run(*args) with its stdout and stderr, as one string."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = run(*args)
        except Exception as exc:        # an exception is an outcome like any other
            text = f"raises {type(exc).__name__}: {exc}"
        else:
            if hasattr(result, "abs_error_estimate"):
                text = f"{result.value.hex()} {result.abs_error_estimate.hex()} {result.evaluations}"
            else:
                text = repr(result)
    return "\0".join((text, out.getvalue(), err.getvalue()))


def digest(workloads, executors, workload: str, seed: int, size: int | None) -> tuple[int, str]:
    """(points, sha256 hex) of one pool's outcomes."""
    pool = workloads.make_pool(workload, seed, size)
    h = hashlib.sha256()
    for point in pool:
        h.update(outcome(executors[point[0]], point[1]).encode("utf-8", "backslashreplace") + b"\n")
    return len(pool), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["peaked_shells", "cli_session"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[5, 6])
    parser.add_argument("--size", type=int, default=None, help="points per pool (default: the benchmark's)")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose perfbench/ and src/ are run")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "perfbench"), str(args.root / "src")]
    import points
    import workloads
    for workload in args.workloads:
        for seed in args.seeds:
            n, hexdigest = digest(workloads, points.EXECUTORS, workload, seed, args.size)
            print(f"{workload} seed {seed}: {n} points sha256 {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
