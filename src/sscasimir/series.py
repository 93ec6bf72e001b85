"""Self-similar regularization of divergent power series.

A power series sum(a_i * x^i) with growing terms has no conventional sum,
but rewriting it as a nested continued fraction

    b0 / (1 + b1*x / (1 + b2*x / (1 + ...)))

and following the sequence of truncations assigns it a finite value that,
for a geometric series, coincides with the analytic continuation
a0 / (1 - x).  The coefficient transform here is the classical
successive-division scheme, in Viskovatov's triangular form: match the
formal expansion of the fraction to the input series order by order, one
input coefficient at a time, so the scan can stop at the accepted
convergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

__all__ = [
    "PowerSeries",
    "ContinuedFraction",
    "RegularizedSum",
    "SingularInputError",
    "NormalizationError",
    "DegenerateSeriesError",
    "InsufficientConvergentsError",
    "regularized_geometric_sum",
    "to_continued_fraction",
    "convergents",
    "self_similar_sum",
    "project_to_circle",
]

# Coefficients below this magnitude are indistinguishable from an exact zero
# for the purposes of the successive-division transform.
_VANISHING = 1e-300


class SingularInputError(ValueError):
    """Evaluation point sits on the pole of the closed form (x = 1)."""


class NormalizationError(ValueError):
    """Series cannot be normalized to the b0/(1 + ...) fraction (a0 = 0)."""


class DegenerateSeriesError(ValueError):
    """An intermediate division in the coefficient transform hits ~0."""


class InsufficientConvergentsError(ValueError):
    """Fewer than two defined convergents; no residual can be formed."""


@dataclass(frozen=True)
class PowerSeries:
    """Finite coefficient prefix (a0, a1, ...) of a series in x around 0."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("power series needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("power series coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return len(self.coefficients)

    def partial_sums(self, x: float, n: int | None = None) -> list[float]:
        """Direct partial sums sum_{i<k} a_i x^i for k = 1..n (oracle use)."""
        if n is None:
            n = len(self.coefficients)
        out, acc, xp = [], 0.0, 1.0
        for a in self.coefficients[:n]:
            acc += a * xp
            out.append(acc)
            xp *= x
        return out


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients (b0, b1, ...) of the nested fraction b0/(1 + b1*x/(1 + ...))."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("continued fraction needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class RegularizedSum:
    """Outcome of a convergent-sequence scan.

    value holds the last convergent inspected, residual the gap between the
    last two defined convergents, and convergents_used how many truncations
    were evaluated to get there.
    """

    value: float
    converged: bool
    convergents_used: int
    residual: float


def regularized_geometric_sum(a0: float, x: float) -> float:
    """Value a0/(1-x) assigned to the geometric series a0 * sum(x^i).

    For |x| < 1 this is the ordinary sum; for x > 1 it is the analytic
    continuation fixed by the self-similar relation S = a0 + x*S, negative
    whenever a0 > 0.
    """
    if not math.isfinite(a0):
        raise ValueError("a0 must be finite")
    if x == 1.0:
        raise SingularInputError("geometric sum has a pole at x = 1")
    return a0 / (1.0 - x)


def _add_input(rows: list[list[float]], a: float) -> None:
    # row 0 gains input coefficient a; each row j >= 1 then gains its next
    # entry i from row j - 1 (entries 0..i+1, head nonvanishing) and its own
    # entries 0..i-1: the order-i coefficient of -(row j-1 shifted down one
    # power of x) / (row j-1)
    rows[0].append(a)
    for upper, row in zip(rows, rows[1:]):
        acc = -upper[len(row) + 1]
        for q, u in zip(reversed(row), islice(upper, 1, None)):
            acc -= u * q
        row.append(acc / upper[0])


def _fraction_coefficients(coeffs: tuple[float, ...]) -> Iterator[float]:
    """Yield b0, b1, ... of the fraction one at a time (Viskovatov's tableau).

    Row j of the triangular tableau is the series whose constant term is
    b_j; row 0 is the input.  Each input coefficient a_m adds entry m - j to
    every row j < m and starts row m, whose head is b_m: a caller that
    stops after b_k pays only for a_0..a_k.  A head below _VANISHING ends
    the fraction with zeros if its whole row vanishes and is degenerate
    otherwise; deciding that takes the whole row, so the tableau is then
    completed with the remaining input.
    """
    if abs(coeffs[0]) < _VANISHING:
        raise NormalizationError("leading coefficient a0 must be nonzero")
    rows: list[list[float]] = []
    inputs = iter(coeffs)
    for a in inputs:
        rows.append([])
        _add_input(rows, a)
        lead = rows[-1][0]
        if abs(lead) < _VANISHING:
            for rest in inputs:
                _add_input(rows, rest)
            if not all(abs(c) < _VANISHING for c in rows[-1]):
                raise DegenerateSeriesError(
                    "intermediate coefficient ~0; series has no fraction of this form"
                )
            yield from [0.0] * len(rows[-1])
            return
        yield lead


def to_continued_fraction(series: PowerSeries) -> ContinuedFraction:
    """Successive-division transform of a power series into fraction coefficients.

    Produces b such that the formal expansion of b0/(1 + b1*x/(1 + ...))
    reproduces the input coefficients to the available order.  When the
    remainder vanishes identically the fraction terminates; the tail is
    padded with zeros so one b_i exists per input coefficient.
    """
    return ContinuedFraction(tuple(_fraction_coefficients(series.coefficients)))


def _convergent(b: Sequence[float], x: float, k: int) -> float:
    # truncation k of the fraction (b_0..b_{k-1}), innermost level first;
    # nan where a denominator is exactly zero
    acc = 0.0
    for i in range(k - 1, 0, -1):
        den = 1.0 + acc
        if den == 0.0:
            return math.nan
        acc = b[i] * x / den
    den = 1.0 + acc
    return b[0] / den if den != 0.0 else math.nan


def convergents(cf: ContinuedFraction, x: float, n: int) -> list[float]:
    """First n truncations of the nested fraction at x, evaluated bottom-up.

    Truncation k uses coefficients b0..b_{k-1} with the innermost level
    dropped.  A truncation whose denominator is exactly zero is reported as
    nan (a gap in the sequence), never an exception.
    """
    if n < 1:
        raise ValueError("need at least one convergent")
    if n > len(cf.coefficients):
        raise ValueError(f"requested {n} convergents from {len(cf.coefficients)} coefficients")
    return [_convergent(cf.coefficients, x, k) for k in range(1, n + 1)]


def self_similar_sum(series: PowerSeries, x: float, tol: float = 1e-10) -> RegularizedSum:
    """Regularized value of the series at x from its convergent sequence.

    Converged means two successive defined convergents agree within tol;
    the reported value is the later of the pair.  With no such pair the
    best (last defined) convergent is returned with converged False.

    Fraction coefficients are produced one at a time and the scan stops at
    the accepted convergent.  A level of the fraction whose leading
    coefficient is below 1e-300 ends it with zeros if the whole level
    vanishes; otherwise the series has no fraction of this form, and
    DegenerateSeriesError is raised only if no convergent built from the
    levels above it was accepted.  to_continued_fraction, which needs every
    level, raises it for such a series whatever x is.  A returned value or
    residual beyond the float range raises ValueError naming that range.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b: list[float] = []
    previous, result = None, None
    for coefficient in _fraction_coefficients(series.coefficients):
        b.append(coefficient)
        value = _convergent(b, x, len(b))
        if math.isnan(value):
            continue
        if previous is not None:
            residual = abs(value - previous)
            result = RegularizedSum(value, residual <= tol, len(b), residual)
            if result.converged:
                return result
        previous = value
    if result is None:
        raise InsufficientConvergentsError(
            "fewer than two defined convergents; cannot assess convergence"
        )
    if not (math.isfinite(result.value) and math.isfinite(result.residual)):
        raise ValueError(f"value beyond the float range: convergent {result.convergents_used} "
                         f"at x = {x!r} is {result.value!r}, residual {result.residual!r}")
    return result


def project_to_circle(t: float) -> tuple[float, float]:
    """Map a real-axis point onto the unit circle through the pole (0, 1).

    Returns the second intersection of the line joining (0, 1) and (t, 0)
    with the unit circle: (2t/(t^2+1), (t^2-1)/(t^2+1)).  The origin maps
    to the bottom of the circle and t -> +/-inf approaches the pole.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if abs(t) > 1.0:
        # same chord through 1/t with the vertical coordinate flipped;
        # avoids overflow of t*t for huge t
        s = 1.0 / t
        den = s * s + 1.0
        return (2.0 * s / den, (1.0 - s * s) / den)
    den = t * t + 1.0
    return (2.0 * t / den, (t * t - 1.0) / den)
