"""Adaptive panel quadrature with an embedded 7/15-point Gauss-Kronrod rule.

The integrands in this package are smooth and positive on closed shells, so
the scheme exists for its error reporting and determinism, not feasibility:
each panel carries the |K15 - G7| gap (floored at 50 eps of the panel's
absolute integral so reported bands never undercut plain rounding), and the
worst panel, taken from a max-heap by error as in QUADPACK's QAG (Piessens
et al., 1983), is bisected until the summed estimate meets the relative
tolerance.  Both totals are exact running sums, kept as a few floats whose
exact sum they are and read with the correctly rounded math.fsum, so a step
costs O(log P) in the panel count P and the value is the correctly rounded
sum of the panels, independent of the split history.  A sample that is not
finite raises ValueError naming its node as soon as its panel is done.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NoReturn

__all__ = ["QuadratureResult", "QuadratureConvergenceError", "integrate"]

_EPS = math.ulp(1.0)

# Kronrod-15 nodes on [-1, 1] (positive half; symmetric) with Kronrod
# weights, and the embedded Gauss-7 weights on the shared nodes.
_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.0,
    0.129484966168870,
    0.0,
    0.279705391489277,
    0.0,
    0.381830050505119,
    0.0,
    0.417959183673469,
)
# the seven symmetric node pairs; the centre node (last) is added after them
_PAIRS = tuple(zip(_NODES[:-1], _WK[:-1], _WG[:-1]))
# a running total's floats are shortened past this length, which is above
# the at most ~40 that _shortened returns, so every shortening frees room
_TERMS = 64


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("quadrature value must be finite")
        if self.abs_error_estimate < 0.0:
            raise ValueError("error estimate must be non-negative")


class QuadratureConvergenceError(RuntimeError):
    """Evaluation budget exhausted; carries the best estimate so far."""

    def __init__(self, value: float, abs_error_estimate: float, evaluations: int):
        super().__init__(
            f"quadrature did not converge within {evaluations} evaluations "
            f"(best estimate {value!r} +/- {abs_error_estimate:.3e})"
        )
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations


def _panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One G7/K15 pass over [lo, hi]: (K15 value, error estimate).

    Node pairs are accumulated outside-in and the centre node last, so each
    sum is rounded in the same order on every panel.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gauss = 0.0
    kronrod = 0.0
    resabs = 0.0
    for node, wk, wg in _PAIRS:
        f_plus = f(mid + half * node)
        f_minus = f(mid - half * node)
        kronrod += wk * (f_plus + f_minus)
        gauss += wg * (f_plus + f_minus)
        resabs += wk * (abs(f_plus) + abs(f_minus))
    fv = f(mid)
    kronrod += _WK[-1] * fv
    gauss += _WG[-1] * fv
    resabs += _WK[-1] * abs(fv)
    value = kronrod * half
    resabs *= half
    err = max(abs(kronrod - gauss) * half, 50.0 * _EPS * resabs)
    if not (math.isfinite(value) and math.isfinite(err)):
        _raise_non_finite(f, lo, hi, value, err)
    return value, err


def _raise_non_finite(f: Callable[[float], float], lo: float, hi: float,
                      value: float, err: float) -> NoReturn:
    """Name the first node of [lo, hi] whose sample is not finite (ValueError)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = [mid + sign * (half * node) for node, _, _ in _PAIRS for sign in (1.0, -1.0)]
    for x in nodes + [mid]:
        fx = f(x)
        if not math.isfinite(fx):
            raise ValueError(f"integrand is not finite at x = {x!r}: f(x) = {fx!r}")
    raise ValueError(f"panel [{lo!r}, {hi!r}] is beyond the float range: "
                     f"value {value!r}, error estimate {err!r}")


def _shortened(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is that of terms.

    math.fsum rounds an exact sum correctly, so each pass takes the rounded
    remainder; the remainders shrink by 2^-53 or more, and the loop ends
    when one is exactly zero (at most about 40 passes).
    """
    parts, negated = [], []
    while remainder := math.fsum(terms + negated):
        parts.append(remainder)
        negated.append(-remainder)
    return parts


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    max_evals: int = 10 ** 6,
) -> QuadratureResult:
    """Integrate f over [lo, hi] to the requested relative tolerance.

    The worst panel is taken from a max-heap by error estimate (lowest panel
    index among equal errors) and both totals are kept as exact running sums,
    so a run costs O(P log P) in its panel count P.  The returned value is the
    correctly rounded sum of the panel values, so it does not depend on the
    order in which panels happened to be refined.

    Raises QuadratureConvergenceError (carrying the best estimate) if the
    evaluation budget runs out first, and ValueError naming the node as soon
    as a sample is not finite (or the panel, if its value or error estimate
    is beyond the float range).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if hi <= lo:
        raise ValueError("integration interval must have positive width")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")

    value, err = _panel(f, lo, hi)
    # heap entries (-error, panel index, lo, hi, value): the index is unique,
    # so entries never compare past it
    heap = [(-err, 0, lo, hi, value)]
    # floats whose exact sums are the totals over the current panels
    values, errors = [value], [err]
    evaluations = 15

    while True:
        total = math.fsum(values)
        total_err = math.fsum(errors)
        if total_err <= rel_tol * abs(total) or total_err == 0.0:
            return QuadratureResult(total, total_err, evaluations)
        if evaluations + 30 > max_evals:
            raise QuadratureConvergenceError(total, total_err, evaluations)
        neg_err, worst, plo, phi, old = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # interval at floating resolution; cannot refine further
            raise QuadratureConvergenceError(total, total_err, evaluations)
        lv, le = _panel(f, plo, mid)
        rv, re = _panel(f, mid, phi)
        values += (-old, lv, rv)
        errors += (neg_err, le, re)
        if len(values) > _TERMS:
            values, errors = _shortened(values), _shortened(errors)
        # the left half keeps the index of the panel it replaces; the heap
        # then holds the P old panels, so the right half gets index P
        heapq.heappush(heap, (-le, worst, plo, mid, lv))
        heapq.heappush(heap, (-re, len(heap), mid, phi, rv))
        evaluations += 30
