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
import functools
import itertools
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


def _power(base: float, k: float) -> float:
    """base ** k for base > 0, with inf where float ** would raise OverflowError."""
    try:
        return base ** k
    except OverflowError:
        return math.inf


_TINY = 2.0 ** -1022      # smallest normal float


@functools.cache
def _wide_context(digits: int):
    """The decimal context of _scaled: digits significant digits, exponents to +-10^18."""
    import decimal
    return decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.InvalidOperation, decimal.Overflow])


def _scaled(c: float, *powers: tuple[float, int]) -> float:
    """c * prod(base ** k) over powers, rounded once to a float.

    The one float-range rule: a caller takes its plain float expression only
    where each power, product and quotient in it is a normal float, and this
    elsewhere.  Each base is a positive float, or inf or 0 standing for its
    limit, and each k an integer.  The product is taken in the standard
    library's decimal from the exact floats, each step rounded to 80 digits,
    and float() rounds it once; where a tie between two floats lies within
    10^-76 of it (Ziv's rounding test), at 2000 digits, which hold c times a
    power of up to 1200 digits exactly.  A value below the float range is a
    zero with c's sign; one beyond it raises ValueError.  A partial product
    beyond 10^(+-10^18) is taken as its limit, which is exact unless another
    factor about as far out brings it back; no caller passes two such.
    """
    if not c:
        return c
    import decimal      # loaded only once a value leaves the float range
    for digits in (80, 2000):
        context = _wide_context(digits)
        value = decimal.Decimal(c)
        limits = set()      # True where a power tends to inf, False where to 0
        for base, k in powers:
            if 0.0 < base < math.inf:
                try:
                    value = context.multiply(value, context.power(decimal.Decimal(base), k))
                except decimal.Overflow:
                    limits.add(True)
            elif k:
                limits.add((k > 0) == (base > 0.0))
        # the floats of both ends of the band agree unless a tie lies in it;
        # the 2000-digit value is rounded as it is
        band = context.scaleb(value, -76) if digits == 80 else 0
        if limits or (result := float(context.subtract(value, band))) == float(context.add(value, band)):
            break
    if limits == {False}:
        return math.copysign(0.0, c)
    if not limits and abs(result) < math.inf:
        return result
    factors = "".join(f" * {base!r}^{k}" for base, k in powers)
    raise ValueError(f"value beyond the float range: {c!r}{factors}")


def _pair_energy(gap: float, scale: float = 1440.0, k: int = 3) -> float:
    """Pair energy -pi^2/(scale gap^k) of a positive gap, inf allowed.

    The default scale gives the Dirichlet energy, and 720 exactly twice it;
    scale 240 and k = 4 give the electromagnetic force.  A gap beyond the
    float range (inf) gives the limit -0.0; one that underflows to 0 has an
    energy beyond the range (ValueError).
    """
    power = _power(gap, k)
    if _TINY <= power and -math.inf < (energy := -_PI_SQ / (scale * power)) < 0.0:
        return energy
    return _scaled(-_PI_SQ, (scale, -1), (gap, -k))


def _contraction_pair_energy(a: float, x: float, k: int) -> float:
    """Pair energy of the k-th gap a (x - 1) / x^k (k >= 1) of a contraction stack.

    From that gap as written wherever a (x - 1) and x^k are floats, so
    those energies keep their bits; elsewhere from _scaled.
    """
    scaled = a * (x - 1.0)
    if scaled != math.inf and (xk := _power(x, k)) != math.inf:
        return _pair_energy(scaled / xk)
    return _scaled(-_PI_SQ, (1440.0, -1), (a, -3), (x - 1.0, -3), (x, 3 * k))


def pair_interaction_energy(a: float, kind: FieldKind = FieldKind.DIRICHLET_SCALAR) -> EnergyDensity:
    """Interaction energy per unit area of two plates at spacing a.

    -pi^2/(1440 a^3) for a Dirichlet scalar; exactly twice that for the
    electromagnetic field.  A spacing above about 1e107, whose energy is
    below the float range in magnitude, gives -0.0; one whose energy is
    beyond the float range raises ValueError.
    """
    _check_spacing(a)
    value = _pair_energy(a, 720.0 if kind is FieldKind.ELECTROMAGNETIC else 1440.0)
    return EnergyDensity(value, regularized=False)


def force_per_area(a: float) -> float:
    """Electromagnetic Casimir force per unit area, -pi^2/(240 a^4).

    Equals -d/da of the electromagnetic pair energy; negative = attraction.
    """
    _check_spacing(a)
    return _pair_energy(a, 240.0, 4)


def inflation_stack_energy(a: float, x: float) -> EnergyDensity:
    """Energy of the infinite stack with growing gaps (plates at x*a, x^2*a, ...).

    Closed form -pi^2 / (1440 a^3 (x-1)^3 (x^3-1)); the underlying
    nearest-neighbor pair sum converges, so no continuation is involved.
    """
    _check_spacing(a)
    _check_ratio(x)
    a3, gap3, cube = _power(a, 3), _power(x - 1.0, 3), _power(x, 3)
    partial = 1440.0 * a3 * gap3
    denominator = partial * (cube - 1.0)
    if not (_TINY <= min(a3, gap3, partial, denominator)
            and -math.inf < (value := -_PI_SQ / denominator) < 0.0):
        # x^3 - 1 rounds to x^3 wherever x^3 overflows
        last = (cube - 1.0, -1) if cube < math.inf else (x, -3)
        value = _scaled(-_PI_SQ, (1440.0, -1), (a, -3), (x - 1.0, -3), last)
    return EnergyDensity(value, regularized=False)


def contraction_stack_energy(a: float, x: float) -> EnergyDensity:
    """Energy of the infinite stack with shrinking gaps (plates at a, a/x, ...).

    The pair sum diverges geometrically with ratio x^3; its value is the
    regularized continuation of that sum, positive for every x > 1.
    """
    _check_spacing(a)
    _check_ratio(x)
    value = regularized_geometric_sum(_contraction_pair_energy(a, x, 1), _power(x, 3))
    return EnergyDensity(value, regularized=True)


def truncated_stack_energy(config: StackConfig) -> EnergyDensity:
    """Brute-force nearest-neighbor pair sum of a finite stack of N plates.

    Converges to the inflation closed form as N grows; for contraction the
    partial sums diverge (each increment x^3 times the last) and the finite
    value is returned as-is, which is exactly the sequence handed to the
    regularizer.  Inflation gaps grow, so the sum stops at its first -0.0
    term, after which every term is -0.0; contraction sums every term, since
    its first terms can be the zeros.
    """
    if config.truncation is None:
        raise ValueError("truncated_stack_energy needs a finite plate count")
    if config.direction is StackDirection.COMBINED:
        raise ValueError("truncation of the combined two-sided stack is not defined")
    a, x, n = config.base_spacing, config.ratio, config.truncation
    if config.direction is StackDirection.INFLATION:
        terms = itertools.takewhile(
            bool, (_pair_energy(_power(x, k) * a * (x - 1.0)) for k in range(1, n)))
    else:
        terms = (_contraction_pair_energy(a, x, k) for k in range(1, n))
    # every term is <= 0, so a sum that underflows to zero is the limit -0.0
    # (fsum of -0.0 terms is 0.0), and one that overflows is beyond the range
    try:
        value = math.fsum(terms) or -0.0
    except OverflowError:
        raise ValueError(f"value beyond the float range: sum of {n - 1} pair energies") from None
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
        gap = x * x * a - x * a
        if 0.0 < gap < math.inf:
            bridge = pair_interaction_energy(gap).value
        else:   # the gap a x (x - 1) is beyond the float range
            bridge = _scaled(-_PI_SQ, (1440.0, -1), (a, -3), (x, -3), (x - 1.0, -3))
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
