"""Adaptive panel quadrature with an embedded 7/15-point Gauss-Kronrod rule.

The integrands in this package are smooth and positive on closed shells, so
the scheme exists for its error reporting and determinism, not feasibility:
each panel (one unrolled pass over its 15 nodes, with the node order and
the bits of the rolled loop over node pairs that the tests keep as the
reference) carries the |K15 - G7| gap (floored at 50 eps of the panel's
absolute integral so reported bands never undercut plain rounding), and the
worst panel, taken from a max-heap by error as in QUADPACK's QAG (Piessens
et al., 1983), is bisected until the summed estimate meets the relative
tolerance.  Starting breakpoints split [lo, hi] into panels before the first
bisection, as the points of QUADPACK's QAGP.  The totals are the correctly
rounded math.fsum of the panels on the heap, so the value does not depend on
the split history; a step takes those exact sums only where a filtered stop
test (Shewchuk, 1997) cannot show in floats, from plain running sums and
their rounding bound, that the run goes on.  So a step costs O(log P) in
the panel count P, and the exact path is taken about once per run.  Each
panel skips its absolute-sum pass where no sample is negative.  A sample
that is not finite raises ValueError naming its node as soon as its panel
is done.

The unrolled panel's source is written once (_compile_panel) and compiled
for each way of taking a sample: integrate's panel calls the integrand at
each node, and gaussian writes a kernel's statements out at the 15 nodes, so
its shell panels make no Python call per sample (QUADPACK's 7/15-point
panel, with its samples inline).  Both run the same float operations in the
same order, so they give the same bits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

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
# the same tables as names, for the unrolled panel (the zero Gauss weights
# _WG[0], _WG[2], _WG[4] and _WG[6] have none)
_X1, _X2, _X3, _X4, _X5, _X6, _X7, _ = _NODES
_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8 = _WK
_, _G2, _, _G4, _, _G6, _, _G8 = _WG
# the error floor: 50 eps of the panel's absolute integral
_FLOOR = 50.0 * _EPS
# the filtered stop test's margin, and the least subnormal float, which
# covers the absolute rounding of an error bound n eps mass that underflows
_MARGIN = 1.0 + 8.0 * _EPS
_SUBNORMAL = math.ulp(0.0)


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


def _centre(lo: float, hi: float) -> tuple[float, float]:
    """Midpoint and half-width of [lo, hi] where 0.5 (hi + lo) or 0.5 (hi - lo)
    overflows: the ends are halved first.  Halving a normal float is exact, so
    both forms agree wherever both are finite, and the nodes of a panel near
    the largest float stay inside it.  Callers take the plain form first: a
    call on every panel would cost a few percent of integrate."""
    return 0.5 * hi + 0.5 * lo, 0.5 * hi - 0.5 * lo


# The panel's fixed statements before its samples a1, b1, ..., a7, b7, fc
# (each pair at mid -+ half * _Xk) and after them.
_PANEL_CENTRE = """\
mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
if mid - mid or half - half:    # nan: the sum or the difference overflowed
    mid, half = _centre(lo, hi)
"""
_PANEL_SUMS = """\
s2 = a2 + b2
s4 = a4 + b4
s6 = a6 + b6
kronrod = (0.0 + _K1 * (a1 + b1) + _K2 * s2 + _K3 * (a3 + b3) + _K4 * s4
           + _K5 * (a5 + b5) + _K6 * s6 + _K7 * (a7 + b7) + _K8 * fc)
gauss = 0.0 + _G2 * s2 + _G4 * s4 + _G6 * s6 + _G8 * fc
value = kronrod * half
if (a1 >= 0.0 and b1 >= 0.0 and a2 >= 0.0 and b2 >= 0.0 and a3 >= 0.0 and b3 >= 0.0
        and a4 >= 0.0 and b4 >= 0.0 and a5 >= 0.0 and b5 >= 0.0 and a6 >= 0.0
        and b6 >= 0.0 and a7 >= 0.0 and b7 >= 0.0 and fc >= 0.0):
    # no sample is negative or nan: the absolute sum is the Kronrod sum
    # term by term, and a -0.0 term is lost in a sum started at 0.0
    resabs = value
else:
    resabs = (0.0 + _K1 * (abs(a1) + abs(b1)) + _K2 * (abs(a2) + abs(b2))
              + _K3 * (abs(a3) + abs(b3)) + _K4 * (abs(a4) + abs(b4))
              + _K5 * (abs(a5) + abs(b5)) + _K6 * (abs(a6) + abs(b6))
              + _K7 * (abs(a7) + abs(b7)) + _K8 * abs(fc)) * half
err = abs(kronrod - gauss) * half
if err < _FLOOR * resabs:
    err = _FLOOR * resabs
if value - value or err - err:      # nan: one of them is not finite
    # the skipped Gauss terms are nan where a pair sum is not finite
    gauss += 0.0 * (a1 + b1) + 0.0 * (a3 + b3) + 0.0 * (a5 + b5) + 0.0 * (a7 + b7)
    _raise_non_finite((a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, fc),
                      lo, hi, mid, half, value, max(abs(kronrod - gauss) * half, _FLOOR * resabs))
return value, err
"""


def _compile_panel(sample: Callable[[str, str], list[str]], names: str = ""):
    """make(names), which returns panel(f, lo, hi): one G7/K15 pass over
    [lo, hi], (K15 value, error estimate), its samples written out by
    sample(x, y), the statements that set the name y to the integrand at the
    float expression x.  They may read f and make's parameters.

    Unrolled: the pairs are sampled outside-in, plus node first, and the
    centre node last, and each sum is rounded left to right from 0.0 in that
    order on every panel.  The Gauss sum skips the zero-weight pairs, which
    for finite samples changes at most the sign of a zero it holds, and that
    sign is lost in |K15 - G7|.  Where no sample is negative (or nan), the
    absolute sum is the Kronrod sum, so it is not formed.
    """
    lines = _PANEL_CENTRE.splitlines()
    for k in range(1, 8):
        lines += [f"dx = half * _X{k}", *sample("mid + dx", f"a{k}"), *sample("mid - dx", f"b{k}")]
    lines += [*sample("mid", "fc"), *_PANEL_SUMS.splitlines()]
    exec(f"def make({names}):\n    def panel(f, lo, hi):\n"
         + "".join(f"        {line}\n" for line in lines) + "    return panel\n", globals(), namespace := {})
    return namespace["make"]


# the panel of a callable integrand f: a Python call per sample
_panel = _compile_panel(lambda x, y: [f"{y} = f({x})"])()


def _raise_non_finite(samples: tuple[float, ...], lo: float, hi: float, mid: float,
                      half: float, value: float, err: float) -> NoReturn:
    """Name the first node of [lo, hi] (midpoint mid, half-width half) whose
    sample, of the 15 in _panel's call order, is not finite (ValueError)."""
    nodes = [mid + sign * (half * node) for node in _NODES[:-1] for sign in (1.0, -1.0)]
    for x, fx in zip(nodes + [mid], samples):
        if not math.isfinite(fx):
            raise ValueError(f"integrand is not finite at x = {x!r}: f(x) = {fx!r}")
    raise ValueError(f"panel [{lo!r}, {hi!r}] is beyond the float range: "
                     f"value {value!r}, error estimate {err!r}")


def _totals(heap: list) -> tuple[float, float]:
    """The correctly rounded sums of the panel values and errors on the heap."""
    return math.fsum([entry[4] for entry in heap]), math.fsum([-entry[0] for entry in heap])


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    max_evals: int = 10 ** 6,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [lo, hi] to the requested relative tolerance.

    The run starts from one panel per gap between lo, the breakpoints (which
    must increase strictly inside (lo, hi)) and hi, indexed 0..P-1 from left
    to right, as the points of QUADPACK's QAGP; these panels are evaluated
    whatever the budget.  Then the worst panel is taken from a max-heap by
    error estimate (lowest panel index among equal errors) and bisected.
    The totals a run stops on, returns and raises are the math.fsum of the
    values and of the errors of the panels on the heap: correctly rounded, so
    they do not depend on the order in which panels happened to be refined.

    The stop test total_err <= rel_tol |total| is filtered (Shewchuk, 1997).
    Plain running sums v and e of the values and errors added and removed,
    their absolute masses mv and me and their number n of terms bound the
    distance to the exact sums V and E of the panels: by the error bound of
    recursive summation in any order (Higham, Accuracy and Stability,
    sect. 4.2; a sum that underflows is exact), |v - V| <= dv = n eps mv + s
    and |e - E| <= de = n eps me + s.  Computed, dv and de keep a factor of
    about 2 to spare while n u << 1 (u = eps / 2), and s, the least
    subnormal float, covers the absolute rounding of a product that
    underflows.  A step that finds e - de > (1 + 8 eps) rel_tol (|v| + dv)
    in floats (nan and inf fail the comparison) skips the exact sums:
    rounding is monotone, so
        fsum(errors) >= fl(e - de) > fl(rel_tol fl(|v| + dv))
                     >= fl(rel_tol |fsum(values)|) >= 0,
    and the exact test would not stop either; the factor 1 + 8 eps is a
    margin beyond what this needs.  Any other step takes the exact sums and,
    if it goes on, restarts v, e and their masses from them as one term
    each, so the next steps filter again.

    Raises QuadratureConvergenceError (carrying the best estimate) if the
    evaluation budget runs out first, and ValueError naming the node as soon
    as a sample is not finite (or the panel, if its value or error estimate
    is beyond the float range).

    gaussian's shell integrands carry their own panel, f._gk_panel(f, a, b),
    with the kernel written out at each node, and are sampled through it in
    place of a call per node; the two give the same bits.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if hi <= lo:
        raise ValueError("integration interval must have positive width")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    edges = (lo, *breakpoints, hi)
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("breakpoints must increase strictly inside (lo, hi)")

    # heap entries (-error, panel index, lo, hi, value): the index is unique,
    # so entries never compare past it
    heap = []
    panel = getattr(f, "_gk_panel", _panel)
    v_run = v_mass = e_run = 0.0
    for index, (a, b) in enumerate(zip(edges, edges[1:])):
        value, err = panel(f, a, b)
        heap.append((-err, index, a, b, value))
        v_run += value
        v_mass += abs(value)
        e_run += err
    heapq.heapify(heap)
    e_mass, n = e_run, len(heap)
    evaluations = 15 * n
    margin = _MARGIN * rel_tol

    while True:
        dv, de = n * _EPS * v_mass + _SUBNORMAL, n * _EPS * e_mass + _SUBNORMAL
        if not e_run - de > margin * (abs(v_run) + dv):
            total, total_err = _totals(heap)
            if total_err <= rel_tol * abs(total) or total_err == 0.0:
                return QuadratureResult(total, total_err, evaluations)
            v_run, v_mass, e_run, e_mass, n = total, abs(total), total_err, total_err, 1
        if evaluations + 30 > max_evals:
            raise QuadratureConvergenceError(*_totals(heap), evaluations)
        entry = heapq.heappop(heap)
        neg_err, worst, plo, phi, old = entry
        mid = 0.5 * (plo + phi)
        if mid - mid:   # nan: the sum overflowed
            mid = _centre(plo, phi)[0]
        if mid <= plo or mid >= phi:
            # interval at floating resolution; cannot refine further
            heap.append(entry)
            raise QuadratureConvergenceError(*_totals(heap), evaluations)
        lv, le = panel(f, plo, mid)
        rv, re = panel(f, mid, phi)
        v_run += (lv + rv) - old
        v_mass += abs(lv) + abs(rv) + abs(old)
        e_run += (le + re) + neg_err
        e_mass += (le + re) - neg_err
        n += 3
        # the left half keeps the index of the panel it replaces; the heap
        # then holds the P old panels, so the right half gets index P
        heapq.heappush(heap, (-le, worst, plo, mid, lv))
        heapq.heappush(heap, (-re, len(heap), mid, phi, rv))
        evaluations += 30
