"""Self-similar regularization of divergent power series.

A power series sum(a_i * x^i) with growing terms has no conventional sum,
but rewriting it as a nested continued fraction

    b0 / (1 + b1*x / (1 + b2*x / (1 + ...)))

and following the sequence of truncations assigns it a finite value that,
for a geometric series, coincides with the analytic continuation
a0 / (1 - x).  The coefficient transform here is the classical
successive-division scheme: match the formal expansion of the fraction to
the input series order by order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _divide_series(num: list[float], den: list[float], order: int) -> list[float]:
    # quotient of two formal series to the given number of coefficients;
    # den[0] is checked by the caller
    q = []
    for k in range(order):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, k + 1):
            if j < len(den):
                acc -= den[j] * q[k - j]
        q.append(acc / den[0])
    return q


def to_continued_fraction(series: PowerSeries) -> ContinuedFraction:
    """Successive-division transform of a power series into fraction coefficients.

    Produces b such that the formal expansion of b0/(1 + b1*x/(1 + ...))
    reproduces the input coefficients to the available order.  When the
    remainder vanishes identically the fraction terminates; the tail is
    padded with zeros so one b_i exists per input coefficient.
    """
    coeffs = list(series.coefficients)
    n = len(coeffs)
    if abs(coeffs[0]) < _VANISHING:
        raise NormalizationError("leading coefficient a0 must be nonzero")

    b = []
    current = coeffs  # series whose constant term is the next b
    while len(b) < n:
        lead = current[0]
        if abs(lead) < _VANISHING:
            if all(abs(c) < _VANISHING for c in current):
                b.extend([0.0] * (n - len(b)))
                break
            raise DegenerateSeriesError(
                "intermediate coefficient ~0; series has no fraction of this form"
            )
        b.append(lead)
        if len(b) == n:
            break
        # lead - current has zero constant term; shift one power of x down,
        # then divide by current to get the next level of the fraction
        shifted = [-c for c in current[1:]]
        current = _divide_series(shifted, current, len(current) - 1)
    return ContinuedFraction(tuple(b))


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
    b = cf.coefficients
    out = []
    for k in range(1, n + 1):
        acc = 0.0
        ok = True
        for i in range(k - 1, 0, -1):
            den = 1.0 + acc
            if den == 0.0:
                ok = False
                break
            acc = b[i] * x / den
        if ok:
            den = 1.0 + acc
            out.append(b[0] / den if den != 0.0 else math.nan)
        else:
            out.append(math.nan)
    return out


def self_similar_sum(series: PowerSeries, x: float, tol: float = 1e-10) -> RegularizedSum:
    """Regularized value of the series at x from its convergent sequence.

    Converged means two successive defined convergents agree within tol;
    the reported value is the later of the pair.  With no such pair the
    best (last defined) convergent is returned with converged False.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    cf = to_continued_fraction(series)
    seq = convergents(cf, x, len(cf))

    defined = [(i, v) for i, v in enumerate(seq) if not math.isnan(v)]
    if len(defined) < 2:
        raise InsufficientConvergentsError(
            "fewer than two defined convergents; cannot assess convergence"
        )
    prev_val = defined[0][1]
    for idx, val in defined[1:]:
        residual = abs(val - prev_val)
        if residual <= tol:
            return RegularizedSum(val, True, idx + 1, residual)
        prev_val = val
    last_idx, last_val = defined[-1]
    return RegularizedSum(last_val, False, last_idx + 1, abs(last_val - defined[-2][1]))


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
