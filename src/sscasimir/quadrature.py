"""Adaptive panel quadrature with an embedded 7/15-point Gauss-Kronrod rule.

The integrands in this package are smooth and positive on closed shells, so
the scheme exists for its error reporting and determinism, not feasibility:
each panel carries the |K15 - G7| gap (floored at 50 eps of the panel's
absolute integral so reported bands never undercut plain rounding), the
worst panel is bisected until the summed estimate meets the relative
tolerance, and the final value is the compensated sum of panels in
left-to-right order, independent of the split history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


def _panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """One G7/K15 pass over [lo, hi]: (K15 value, error estimate, K15 of |f|)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gauss = 0.0
    kronrod = 0.0
    resabs = 0.0
    for node, wk, wg in zip(_NODES, _WK, _WG):
        if node == 0.0:
            fv = f(mid)
            kronrod += wk * fv
            gauss += wg * fv
            resabs += wk * abs(fv)
            continue
        f_plus = f(mid + half * node)
        f_minus = f(mid - half * node)
        kronrod += wk * (f_plus + f_minus)
        gauss += wg * (f_plus + f_minus)
        resabs += wk * (abs(f_plus) + abs(f_minus))
    value = kronrod * half
    resabs *= abs(half)
    err = max(abs(kronrod - gauss) * abs(half), 50.0 * _EPS * resabs)
    return value, err, resabs


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    max_evals: int = 10 ** 6,
) -> QuadratureResult:
    """Integrate f over [lo, hi] to the requested relative tolerance.

    Raises QuadratureConvergenceError (carrying the best estimate) if the
    evaluation budget runs out first.  The returned value is a compensated
    sum over panels ordered by position, so it does not depend on the order
    in which panels happened to be refined.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if hi <= lo:
        raise ValueError("integration interval must have positive width")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")

    value, err, _ = _panel(f, lo, hi)
    panels = [(lo, hi, value, err)]
    evaluations = 15

    while True:
        total = math.fsum(p[2] for p in sorted(panels))
        total_err = math.fsum(p[3] for p in panels)
        if total_err <= rel_tol * abs(total) or total_err == 0.0:
            return QuadratureResult(total, total_err, evaluations)
        if evaluations + 30 > max_evals:
            raise QuadratureConvergenceError(total, total_err, evaluations)
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        plo, phi, _, _ = panels[worst]
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # interval at floating resolution; cannot refine further
            raise QuadratureConvergenceError(total, total_err, evaluations)
        lv, le, _ = _panel(f, plo, mid)
        rv, re, _ = _panel(f, mid, phi)
        panels[worst] = (plo, mid, lv, le)
        panels.append((mid, phi, rv, re))
        evaluations += 30
