"""Casimir interaction energies for parallel Dirichlet plates in geometric stacks.

Natural units (hbar = c = 1) throughout; energies are per unit area, so a
pair at spacing a carries -pi^2/(1440 a^3) and every stack energy scales as
spacing^-3.  A stack whose plate positions form a geometric sequence with
ratio x > 1 splits off its first gap and leaves a rescaled copy of itself,
which turns the infinite pair sum into a one-line fixed point:

  * growing gaps (plates at x*a, x^2*a, ...): the nearest-neighbor pair sum
    converges to -pi^2 / (1440 a^3 (x-1)^3 (x^3-1)),
  * shrinking gaps (plates at a, a/x, a/x^2, ...): the pair sum diverges
    with term ratio x^3 and its regularized value, obtained from the
    geometric continuation in `series`, is positive (repulsive),
  * both stacks plus the bridging pair cancel exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .series import regularized_geometric_sum

__all__ = [
    "FieldKind",
    "StackDirection",
    "StackConfig",
    "EnergyDensity",
    "pair_interaction_energy",
    "force_per_area",
    "inflation_stack_energy",
    "contraction_stack_energy",
    "truncated_stack_energy",
    "combined_stack_energy",
    "functional_equation_residual",
    "stack_energy",
]

_PI_SQ = math.pi * math.pi


class FieldKind(enum.Enum):
    """Field content setting the pair-energy normalization."""

    DIRICHLET_SCALAR = "dirichlet"
    ELECTROMAGNETIC = "em"


class StackDirection(enum.Enum):
    INFLATION = "inflation"        # plates at x*a, x^2*a, ...
    CONTRACTION = "contraction"    # plates at a, a/x, a/x^2, ...
    COMBINED = "combined"          # union of both stacks


@dataclass(frozen=True)
class EnergyDensity:
    """Interaction energy per unit area; negative = attractive.

    regularized marks values defined through analytic continuation of a
    divergent pair sum rather than a convergent one.
    """

    value: float
    regularized: bool = False

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"energy density must be finite, got {self.value}")


@dataclass(frozen=True)
class StackConfig:
    """Geometric plate configuration.

    base_spacing is the scale a, ratio the geometric factor x > 1, and
    truncation an optional finite plate count (None = infinite stack).
    """

    base_spacing: float
    ratio: float
    direction: StackDirection
    truncation: int | None = None

    def __post_init__(self):
        _check_spacing(self.base_spacing)
        _check_ratio(self.ratio)
        if self.truncation is not None and self.truncation < 2:
            raise ValueError("truncation must be >= 2 plates (at least one gap)")


def _check_spacing(a: float) -> None:
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"plate spacing must be positive and finite, got {a}")


def _check_ratio(x: float) -> None:
    if not (math.isfinite(x) and x > 1.0):
        raise ValueError(f"stack ratio must be > 1, got {x}")


def _power(base: float, k: int) -> float:
    """base ** k for base > 0, with inf where float ** would raise OverflowError."""
    try:
        return base ** k
    except OverflowError:
        return math.inf


def _minus_pi_sq_over(denominator: float) -> float:
    """-pi^2 / denominator for a positive denominator of float powers.

    A denominator beyond the float range (inf) gives the limit -0.0; one that
    underflows to 0, or a quotient beyond the float range, raises ValueError.
    """
    value = -_PI_SQ / denominator if denominator else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"value beyond the float range: its denominator is {denominator!r}")
    return value


def _pair_energy(gap: float) -> float:
    """Dirichlet pair energy -pi^2/(1440 gap^3) of a positive gap, inf allowed.

    A gap beyond the float range (inf) gives the limit -0.0; one that
    underflows to 0 has an energy beyond the range (ValueError).
    """
    return _minus_pi_sq_over(1440.0 * _power(gap, 3))


def _contraction_gap(a: float, x: float, k: int) -> float:
    """The k-th gap a (x - 1) / x^k (k >= 1) of a contraction stack.

    Computed as written wherever a (x - 1) is a float, so those gaps keep
    their bits.  Where it overflows, the gap is (a / x) (x - 1) / x^(k-1),
    with x^(k-1) divided out in two halves, each of which is a float
    whenever the gap's pair energy is one.
    """
    scaled = a * (x - 1.0)
    if scaled != math.inf:
        return scaled / _power(x, k)
    half = (k - 1) // 2
    return a / x * (x - 1.0) / _power(x, half) / _power(x, k - 1 - half)


def pair_interaction_energy(a: float, kind: FieldKind = FieldKind.DIRICHLET_SCALAR) -> EnergyDensity:
    """Interaction energy per unit area of two plates at spacing a.

    -pi^2/(1440 a^3) for a Dirichlet scalar; exactly twice that for the
    electromagnetic field.  A spacing whose cube is beyond the float range
    gives -0.0; one whose energy is beyond it raises ValueError.
    """
    _check_spacing(a)
    value = _pair_energy(a)
    if kind is FieldKind.ELECTROMAGNETIC:
        value = 2.0 * value
    return EnergyDensity(value, regularized=False)


def force_per_area(a: float) -> float:
    """Electromagnetic Casimir force per unit area, -pi^2/(240 a^4).

    Equals -d/da of the electromagnetic pair energy; negative = attraction.
    """
    _check_spacing(a)
    return _minus_pi_sq_over(240.0 * _power(a, 4))


def inflation_stack_energy(a: float, x: float) -> EnergyDensity:
    """Energy of the infinite stack with growing gaps (plates at x*a, x^2*a, ...).

    Closed form -pi^2 / (1440 a^3 (x-1)^3 (x^3-1)); the underlying
    nearest-neighbor pair sum converges, so no continuation is involved.
    """
    _check_spacing(a)
    _check_ratio(x)
    value = _minus_pi_sq_over(1440.0 * _power(a, 3) * _power(x - 1.0, 3) * (_power(x, 3) - 1.0))
    return EnergyDensity(value, regularized=False)


def contraction_stack_energy(a: float, x: float) -> EnergyDensity:
    """Energy of the infinite stack with shrinking gaps (plates at a, a/x, ...).

    The pair sum diverges geometrically with ratio x^3; its value is the
    regularized continuation of that sum, positive for every x > 1.
    """
    _check_spacing(a)
    _check_ratio(x)
    value = regularized_geometric_sum(_pair_energy(_contraction_gap(a, x, 1)), _power(x, 3))
    return EnergyDensity(value, regularized=True)


def truncated_stack_energy(config: StackConfig) -> EnergyDensity:
    """Brute-force nearest-neighbor pair sum of a finite stack of N plates.

    Converges to the inflation closed form as N grows; for contraction the
    partial sums diverge (each increment x^3 times the last) and the finite
    value is returned as-is, which is exactly the sequence handed to the
    regularizer.
    """
    if config.truncation is None:
        raise ValueError("truncated_stack_energy needs a finite plate count")
    if config.direction is StackDirection.COMBINED:
        raise ValueError("truncation of the combined two-sided stack is not defined")
    a, x, n = config.base_spacing, config.ratio, config.truncation
    if config.direction is StackDirection.INFLATION:
        gaps = (_power(x, k) * a * (x - 1.0) for k in range(1, n))
    else:
        gaps = (_contraction_gap(a, x, k) for k in range(1, n))
    value = math.fsum(_pair_energy(g) for g in gaps)
    return EnergyDensity(value, regularized=False)


def combined_stack_energy(a: float, x: float) -> EnergyDensity:
    """Energy of both stacks placed together with their bridging pair.

    Computed as the sum contraction + inflation + pair((x-1) a), which
    cancels analytically; the returned value is the floating-point sum, so
    the cancellation is actually exercised.
    """
    contraction = contraction_stack_energy(a, x).value
    inflation = inflation_stack_energy(a, x).value
    bridge = _pair_energy((x - 1.0) * a)
    return EnergyDensity(contraction + inflation + bridge, regularized=True)


def functional_equation_residual(a: float, x: float, direction: StackDirection) -> float:
    """Residual of the self-similar split of a stack into first gap + scaled copy.

    Inflation: E(x a) - [x^-3 E(x a) + pair(x^2 a - x a)]; contraction:
    E(a) - [x^3 E(a) + pair(a - a/x)], using the spacing^-3 scaling for the
    shifted copy.  Both vanish analytically; the float residual is returned.
    """
    _check_spacing(a)
    _check_ratio(x)
    if direction is StackDirection.INFLATION:
        energy = inflation_stack_energy(a, x).value
        scaled_copy = energy / _power(x, 3)
        bridge = pair_interaction_energy(x * x * a - x * a).value
    elif direction is StackDirection.CONTRACTION:
        energy = contraction_stack_energy(a, x).value
        scaled_copy = energy * _power(x, 3)
        bridge = pair_interaction_energy(a - a / x).value
    else:
        raise ValueError("residual is defined for inflation or contraction stacks")
    residual = energy - (scaled_copy + bridge)
    if math.isnan(residual):    # 0 * inf: x^3 is beyond the float range
        raise ValueError(f"residual beyond the float range: x^3 overflows for x = {x!r}")
    return residual


def stack_energy(config: StackConfig) -> EnergyDensity:
    """Dispatch a StackConfig to the matching closed form or truncated sum."""
    if config.truncation is not None:
        return truncated_stack_energy(config)
    a, x = config.base_spacing, config.ratio
    if config.direction is StackDirection.INFLATION:
        return inflation_stack_energy(a, x)
    if config.direction is StackDirection.CONTRACTION:
        return contraction_stack_energy(a, x)
    return combined_stack_energy(a, x)
