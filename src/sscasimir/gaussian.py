"""Gaussian Landau-Ginzburg model numerics.

A scalar field with quadratic mode weight g(q) = t + K q^2 + L q^4 + ...
contributes -(1/2) ln g(q) per Fourier mode to ln Z.  Integrating the modes
of a momentum shell cutoff/b < q < cutoff and differentiating with respect
to t gives a negative, Casimir-like energy density

    E/V = -(T^2/2) k_d * integral over the shell of q^(d-1) / g(q),

with k_d the angular factor of the isotropic mode measure.  This module
evaluates that integral by adaptive quadrature, checks it against its
dimensionless form under q = sqrt(t/K) x, fits the resulting power law in
the effective plate distance b/cutoff, and applies the exact coarse-graining
rescale q' = b q, field' = field/B to the kernel coefficients.  Discrete
periodic lattices verify the underlying Fourier identities exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .plates import _TINY, _power, _scaled
from .quadrature import QuadratureConvergenceError, QuadratureResult, _compile_panel, integrate

# numpy is imported only where an array is made: the other layers and the
# commands that do not use it start without its import time
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LGParams",
    "TemperatureExpansion",
    "ShellSpec",
    "LatticeField",
    "QuadratureResult",
    "QuadratureConvergenceError",
    "UnstableKernelError",
    "BelowCriticalityError",
    "lg_params_at",
    "kernel",
    "solid_angle",
    "radial_measure",
    "casimir_energy_density",
    "dimensionless_energy_density",
    "leading_scaling_prediction",
    "fit_power_law",
    "rg_rescale",
    "fixed_point_field_scale",
    "mode_split_log_partition",
    "parseval_residuals",
]

class UnstableKernelError(ValueError):
    """Quadratic mode weight is non-positive somewhere it must not be."""


class BelowCriticalityError(ValueError):
    """Temperature expansion evaluated below the critical point (t < 0)."""


@dataclass(frozen=True)
class LGParams:
    """Quadratic-kernel coefficients: g(q) = t + K q^2 + L q^4 + higher.

    higher holds coefficients of q^6, q^8, ... in order.  t = 0 (critical
    point) is allowed; below-critical t < 0 is not modeled.
    """

    t: float
    K: float
    L: float = 0.0
    higher: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "higher", tuple(float(h) for h in self.higher))
        for name in ("t", "K", "L"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if any(not math.isfinite(h) for h in self.higher):
            raise ValueError("higher coefficients must be finite")
        if self.t < 0.0:
            raise BelowCriticalityError("t < 0 (below the critical point) is not modeled")
        if self.K < 0.0:
            raise ValueError("gradient coefficient K must be non-negative")
        if self.L < 0.0:
            raise ValueError("Laplacian coefficient L must be non-negative")

    @property
    def coefficients(self) -> tuple[float, ...]:
        """(t, K, L, *higher): the coefficients of u^0, u^1, ... in u = q^2."""
        return (self.t, self.K, self.L, *self.higher)

    @property
    def correlation_length(self) -> float:
        """sqrt(K/t); infinite at the critical point t = 0."""
        if self.t == 0.0:
            return math.inf
        return math.sqrt(self.K / self.t)


@dataclass(frozen=True)
class TemperatureExpansion:
    """Taylor coefficients of t, K, L around the critical temperature.

    t_coeffs starts at the linear term (t vanishes at Tc); K_coeffs and
    L_coeffs start at the constant term.
    """

    Tc: float
    t_coeffs: tuple[float, ...]
    K_coeffs: tuple[float, ...]
    L_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("t_coeffs", "K_coeffs", "L_coeffs"):
            object.__setattr__(self, name, tuple(float(c) for c in getattr(self, name)))
            if any(not math.isfinite(c) for c in getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ShellSpec:
    """Momentum-shell geometry: modes cutoff/shell_factor < q < cutoff."""

    dim: int
    cutoff: float
    shell_factor: float
    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _dimension(self.dim))
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise ValueError("cutoff must be positive")
        if not (math.isfinite(self.shell_factor) and self.shell_factor > 1.0):
            raise ValueError("shell factor must be > 1 (non-degenerate shell)")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be positive")


def _dimension(d: int) -> int:
    """d as an int, once it is an integer >= 1."""
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")
    return int(d)


def _check_rescale_factor(b: float) -> None:
    if not (math.isfinite(b) and b > 1.0):
        raise ValueError("rescale factor b must be > 1")


def _horner(coeffs: Sequence[float], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def lg_params_at(expansion: TemperatureExpansion, T: float) -> LGParams:
    """Evaluate the Taylor polynomials at temperature T.

    t = sum t_n (T-Tc)^n with n >= 1, K and L from their constant terms on.
    Rejects outcomes outside the model: t < 0 or K <= 0.
    """
    dT = T - expansion.Tc
    t = dT * _horner(expansion.t_coeffs, dT)
    K = _horner(expansion.K_coeffs, dT)
    L = _horner(expansion.L_coeffs, dT)
    if t < 0.0:
        raise BelowCriticalityError(f"t({T}) = {t} < 0; below-critical regime not modeled")
    if K <= 0.0:
        raise UnstableKernelError(f"K({T}) = {K} <= 0; kernel unbounded below")
    return LGParams(t=t, K=K, L=L)


def kernel(params: LGParams, q: float) -> float:
    """Quadratic mode weight t + K q^2 + L q^4 + sum higher_j q^(6+2j).

    As t + u (K + u L), u = q^2, then each higher term left to right; a zero
    coefficient adds no term, so an overflowing power gives inf, not nan.
    """
    u = q * q
    t, K, L = params.t, params.K, params.L
    acc = t + u * (K + u * L) if L else t + u * K if K else t
    if params.higher:
        qp = u * u * u
        for h in params.higher:
            if h:
                acc += h * qp
            qp *= u
    return acc


def _integrand(coeffs: Sequence[float], d: int):
    """(f, panel): the shell integrand f(q) = q^(d-1) / g(q^2) of g = sum
    coeffs[m] u^m, and panel(), f's G7/K15 panel with the kernel written out
    at each node, for integrate to sample f through as f._gk_panel.

    coeffs holds at least three coefficients; g is evaluated as kernel
    evaluates it, zero terms left out, so the samples are kernel's bits.  A
    pattern's panel is compiled at its first panel() call, so a caller that
    samples f some other way compiles nothing.
    """
    p, (make, panel) = d - 1, _integrand_maker(tuple(map(bool, coeffs)))
    return make(p, *coeffs), lambda: panel(min(p, 2))(p, *coeffs)


@functools.cache
def _integrand_maker(nonzero: tuple[bool, ...]):
    """(make, panel) for coefficients that are nonzero where nonzero is True.
    make(p, *coeffs) is q -> q^p / g(q^2), g written out in kernel's order.
    panel(min(p, 2))(p, *coeffs) is quadrature's G7/K15 panel with those
    statements written out at its 15 nodes, compiled on first use, so it
    makes no Python call per sample.  Its numerator is 1.0 for p = 0 and q
    for p = 1, the bits of q^p: x ** 0 is 1.0 and x ** 1 is x for every
    float, while q ** 2 is not always q * q.  The source holds no
    coefficient, so kernels with one pattern share one maker."""
    last = max((m for m, c in enumerate(nonzero) if c and m > 2), default=2)
    g = "c0 + u * (c1 + u * c2)" if nonzero[2] else (
        "c0 + u * c1" if last > 2 else "c0 + q * q * c1") if nonzero[1] else "c0"
    body, power = ["u = q * q"] * (nonzero[2] or last > 2), "u * u * u"
    for m in range(3, min(last, 4) + 1):
        if nonzero[m] and m < last:     # a power that a later one goes on from
            body.append(f"u{m} = {power}")
            power = f"u{m}"
        g += f" + c{m} * ({power})" * nonzero[m]
        power += " * u"
    if last > 4:    # a statement per further power: the compiler nests a level per operator
        body, g = body + [f"g = {g}"], "g"
        for m in range(5, last + 1):
            body += [f"w = {power}"] + [f"g = g + c{m} * w"] * nonzero[m]
            power = "w * u"
    names = ", ".join(f"c{m}" for m in range(len(nonzero)))
    exec(f"def make(p, {names}):\n    def f(q):\n"
         + "".join(f"        {line}\n" for line in body)
         + f"        return q ** p / ({g})\n    return f\n", namespace := {})

    @functools.cache
    def panel(kind):
        top = ("1.0", "q", "q ** p")[kind]
        return _compile_panel(lambda x, y: [f"q = {x}", *body, f"{y} = {top} / ({g})"], f"p, {names}")
    return namespace["make"], panel


def solid_angle(d: int) -> float:
    """Surface of the unit (d-1)-sphere, 2 pi^(d/2) / Gamma(d/2)."""
    d = _dimension(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def radial_measure(d: int) -> float:
    """Angular factor solid_angle(d) / (2 pi)^d of the radial mode integral."""
    return _angular(d)[1]


def _angular(d: int) -> tuple[float, float]:
    """(solid_angle(d), radial_measure(d)), the solid angle taken once."""
    omega = solid_angle(d)
    return omega, omega / (2.0 * math.pi) ** d


def _sign_at(p: list[int], n: int, s: int) -> int:
    # sign of p(n/s), exactly: Horner on s^deg p(n/s)
    acc, scale = 0, 1
    for c in reversed(p):
        acc, scale = acc * n + c * scale, scale * s
    return (acc > 0) - (acc < 0)


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    # -(a mod b) times |lead b|^(deg a - deg b + 1), divided by its content
    lead, nb = b[-1], len(b)
    r = [abs(lead) ** (len(a) - nb + 1) * c for c in a]
    for k in range(len(a) - nb, -1, -1):
        q = r.pop() // lead
        for i in range(nb - 1):
            r[k + i] -= q * b[i]
    while r and not r[-1]:
        r.pop()
    g = math.gcd(*r)
    return [-c // g for c in r]


def _check_positive_on(coeffs: Sequence[float], lo: float, hi: float, r: float) -> None:
    """Raise UnstableKernelError unless g(u) = sum c_m u^m > 0 for all u in
    [lo^2, hi^2], exactly for the float coefficients and edges.

    With no negative coefficient (Descartes' rule) g does not decrease for
    u >= 0 and is checked at lo^2: such a kernel has no minimum inside the
    shell.  Otherwise g is taken over the integers once (a float is one over
    a power of two), as its Taylor form about the float r >= 0 (_dip's least
    minimum, or 0): with den the coefficients' common denominator, n the
    degree and r = nr/sr, den sr^n g(u) = H(sr u), H(v) = sum den c_m
    sr^(n-m) v^m, and the Taylor shift (synthetic division, skipped at
    r = 0) gives the b_k of H(nr + y), y = sr u - nr; each edge is y = Y/S,
    S > 0.  Where _certified proves that form positive, that decides.
    Everything else goes to a Sturm chain of the same b, which signs the
    same edges and counts the roots between them.  Only the chain raises,
    and both are exact, so the certificate decides sooner what the chain
    would decide.
    """
    if min(coeffs) >= 0.0 and (coeffs[0] > 0.0 or (lo > 0.0 and any(coeffs))):
        return
    top = max((m for m, c in enumerate(coeffs) if c), default=0)
    ratios = [c.as_integer_ratio() for c in coeffs[:top + 1]]
    den = max(d for _, d in ratios)
    nr, sr = r.as_integer_ratio()
    b = [n * (den // d) * sr ** (top - m) for m, (n, d) in enumerate(ratios)]
    for i in range(top if nr else 0):
        for j in range(top - 1, i - 1, -1):
            b[j] += nr * b[j + 1]
    edges = [(sr * n * n - nr * s * s, s * s) for n, s in (lo.as_integer_ratio(), hi.as_integer_ratio())]
    if _certified(b, edges):
        return
    chain = [b, [m * c for m, c in enumerate(b)][1:]]
    while len(chain[-1]) > 1 and (rem := _negated_remainder(chain[-2], chain[-1])):
        chain.append(rem)
    changes = []
    for q, (Y, S) in zip((lo, hi), edges):
        signs = [_sign_at(p, Y, S) for p in chain]
        if signs[0] <= 0:
            raise UnstableKernelError(f"kernel is non-positive at the shell edge q = {q!r}")
        signs = [x for x in signs if x]
        changes.append(sum(x != y for x, y in zip(signs, signs[1:])))
    if changes[0] != changes[1]:
        raise UnstableKernelError(f"kernel is non-positive for {lo!r} < q < {hi!r}")


def _certified(b: list[int], edges: list[tuple[int, int]]) -> bool:
    """Whether B(y) = sum b_k y^k, of degree 4 at most, is positive between
    the two edges y = Y/S (S > 0): the Taylor form _check_positive_on builds.
    B(y) = b0 + b1 y + y^2 Q(y), with b0 + b1 y > 0 at both edges (so between
    them) and Q >= 0 there.  Q is quadratic at most: Q >= 0 at both edges,
    and 4 q0 q2 >= q1^2 where Q is convex with its vertex inside.  About the
    minimum, b1 is near 0 and b0 > 0 carries the proof.
    """
    if len(b) > 5:
        return False
    b0, b1, q0, q1, q2 = b + [0] * (5 - len(b))
    for Y, S in edges:
        if b0 * S + b1 * Y <= 0 or q0 * S * S + q1 * Y * S + q2 * Y * Y < 0:
            return False
    (Ya, Sa), (Yc, Sc) = edges
    # the vertex -q1 / (2 q2) of a convex Q, strictly between the edges
    if q2 > 0 and 2 * q2 * Ya < -q1 * Sa and -q1 * Sc < 2 * q2 * Yc:
        return 4 * q0 * q2 >= q1 * q1
    return True


def _dip(coeffs: Sequence[float], a: float, c: float) -> list[float]:
    """Starting points around the least minimum of g(u) = sum coeffs[m] u^m
    inside a^2 < u < c^2, as q = sqrt(u), the minimum first; [] where there
    is none or a step is not finite.  It never raises.

    g is taken on 17 points geometric over [a^2, c^2]; where the least is not
    at an edge and g' < 0 < g' at its neighbours, safeguarded Newton on g' (a
    step that leaves the bracket bisects it instead; 100 steps at most) finds
    the minimum u_m within those two grid cells to about 1e-9 relative.
    Where g' does not change sign there (on a wide shell a neighbour can lie
    past a local maximum of g), the two cells are sampled once more the same
    way, and bracketed again.  w = sqrt(2 g(u_m) /
    g''(u_m)) is the dip's half-width in u, and the rungs u_m -+ (w/2) 2^k,
    k = 0, 1, ..., grade the panels toward the dip by the octaves' ratio 2
    while they stay inside the shell, separate as floats and lie no farther
    from u_m than u_m from 0: past 2 u_m the octaves grade them.  An
    approximate minimum moves panel edges only: integrate's stop test
    decides every value and error estimate.
    """
    try:
        top = coeffs[::-1]
        slope = [m * cm for m, cm in enumerate(coeffs)][1:]
        curve = [m * cm for m, cm in enumerate(slope)][1:]
        lo, hi = a * a, c * c
        for _ in range(2):      # the shell, then the two cells around its least sample
            ratio, grid, values, u = (hi / lo) ** 0.0625, [], [], lo
            for _ in range(17):
                g = 0.0
                for cm in top:
                    g = g * u + cm
                grid.append(u)
                values.append(g)
                u *= ratio
            j = values.index(min(values))
            if not (0 < j < 16 and math.isfinite(sum(values))):
                return []
            lo, u, hi = grid[j - 1:j + 2]
            if _horner(slope, lo) < 0.0 < _horner(slope, hi):
                break
        else:
            return []
        for _ in range(100):
            s = _horner(slope, u)
            if s < 0.0:
                lo = u
            elif s > 0.0:
                hi = u
            else:
                break
            bend = _horner(curve, u)
            step = s / bend if bend > 0.0 else math.inf
            if abs(step) <= 1e-9 * u:
                break
            if lo < u - step < hi:
                u -= step
            else:
                u = 0.5 * lo + 0.5 * hi
                if hi - lo <= 2e-9 * u:
                    break
        width2 = 2.0 * _horner(coeffs, u) / _horner(curve, u)
        ladder = [math.sqrt(u)]
        if not (a < ladder[0] < c and 0.0 < width2 < math.inf):
            return []
        for sign in (-1.0, 1.0):
            rung, last = sign * 0.5 * math.sqrt(width2), ladder[0]
            while abs(rung) <= u:
                q = math.sqrt(u + rung)
                if not a < q < c or q == last:
                    break
                ladder.append(q)
                rung, last = 2.0 * rung, q
        return ladder
    except ArithmeticError:
        return []


def _shell_integral(params: LGParams, shell: ShellSpec, form) -> QuadratureResult:
    """The prefactor times the integral of _integrand's f over the shell
    times scale, for (coeffs, scale, factors, steps) = form(), once the kernel
    is positive on the shell.  The prefactor is negative; factors is it as
    plates._scaled takes it, and steps the sizes of its plain float form's
    steps in their order, the last the prefactor's size.

    integrate starts from the octave points 2a, 4a, ... below the mapped
    shell's top c, and, where a coefficient is negative (so g may dip inside
    the shell), from _dip's ladder around the least minimum u_m as well: u_m
    and u_m -+ (w/2) 2^k, the dip's half-width w = sqrt(2 g(u_m) /
    g''(u_m)).  _dip runs once, over the unmapped shell, and its minimum is
    the point the positivity check expands g about; a form that maps the
    shell by scale maps the ladder with it, the minimum first, and drops a
    point that rounds onto or outside the mapped shell.  Over the 2466
    admitted dip shells of perfbench's peaked_shells pool at seed 5, the
    evaluations are

        octaves alone                              1633425   1.00
        octaves and the minimum                    1378440   0.84
        ladder, ratio 2, first rung w/2            811320    0.50
        the same, rungs on to the shell's edges    830490    0.51
        ladder, ratio 2, first rung w or w/4       884910    0.54
        ladder, ratio 2.5 or 3, first rung w/2     1.19-1.23 M

    and every value moved by less than the sum of both error estimates.

    A plain integrand (_plain_fits) is sampled by its panel, the kernel
    written out at each node (_integrand), compiled only once the shell is
    known to be plain; _wide's by integrate's panel, a call per sample.  The
    two give the same bits.

    The value and error estimate are -steps[-1] times the integral's where
    the integrand is plain and each step is a normal float.
    Elsewhere _scaled takes the product of factors, the integral and 2^k,
    the samples being _wide's, 2^-k times the integrand, where it is not
    plain (k = 0 where it is).  A step that overflows or divides by an
    underflowed kernel (ArithmeticError), or a value or error estimate
    beyond the float range, raises ValueError naming that range.
    """
    lo, hi = shell.cutoff / shell.shell_factor, shell.cutoff
    checked = params.coefficients
    ladder = _dip(checked, lo, hi) if min(checked) < 0.0 else []
    _check_positive_on(checked, lo, hi, ladder[0] * ladder[0] if ladder else 0.0)
    try:
        coeffs, scale, factors, steps = form()
        a, c = lo * scale, hi * scale
        # starting panels [a, 2a], [2a, 4a], ..., [2^n a, c]: no panel spans a
        # ratio above 2, so a near-critical feature at the lower edge is seen;
        # a shell with b <= 2 keeps its one panel
        points, x = [], 2.0 * a
        while 0.0 < x < c:
            points.append(x)
            x *= 2.0
        # and the same rule around a dip of g inside the shell, the ladder
        # mapped with the shell
        if ladder:
            if scale != 1.0:
                ladder = [q for q in (rung * scale for rung in ladder) if a < q < c]
            points = sorted({*points, *ladder})
        f, panel = _integrand(coeffs, shell.dim)
        plain = _plain_fits(f, coeffs, shell.dim - 1, a, c, ladder[:1])
        if plain:
            f._gk_panel, k = panel(), 0
        else:
            f, k = _wide(coeffs, shell.dim, [a, *points, c])
        raw = integrate(f, a, c, rel_tol=1e-10, breakpoints=points)
        if plain and _TINY <= min(steps) and max(steps) < math.inf:
            size = steps[-1]
            value, err = -size * raw.value, size * raw.abs_error_estimate
        else:
            lead, *powers = factors
            try:
                value = _scaled(lead, *powers, (raw.value, 1), (2.0, k))
                err = _scaled(abs(lead), *powers, (raw.abs_error_estimate, 1), (2.0, k))
            except ValueError:      # beyond the float range
                value = err = math.inf
    except ArithmeticError:
        value = err = math.inf
    if max(abs(value), err) < math.inf:
        return QuadratureResult(value, err, raw.evaluations)
    raise ValueError(f"value beyond the float range: shell energy in d = {shell.dim} "
                     f"over [{lo!r}, {hi!r}] at T = {shell.temperature!r}")


def _plain_fits(f, coeffs: Sequence[float], p: int, a: float, c: float,
                minima: Sequence[float]) -> bool:
    """Whether each step of the plain integrand f(q) = q^p / g(u), u = q^2,
    is a normal float at both shell edges a and c: u, q^p, each nonzero term
    c_m u^m and its power, g, the sample and the sample times c - a (an
    ArithmeticError counts as not), and whether at each of the minima of g
    (_dip's) the sample is normal and 2 max(1, c - a) times it is finite, the
    2 for the Kronrod sum, whose weights total 2.  For c_m >= 0 all but the
    sample rise with q and the sample is log-concave in log q, so the edges
    bound each from below on the shell, and all but the sample from above; a
    negative c_m counts by its size, and the peak of the sample at the dip
    its term makes is taken at the minimum."""
    try:
        u, um, w = a * a, 1.0, c - a
        for cm in coeffs:
            if cm and not (_TINY <= um and _TINY <= abs(cm) * um):
                return False
            um *= u
        for q in minima:
            sm = f(q)
            if not (_TINY <= sm and 2.0 * max(1.0, w) * sm < math.inf):
                return False
        sa, sc = f(a), f(c)
        return (_TINY <= u and c * c < math.inf and _TINY <= a ** p and _TINY <= sa and _TINY <= sc
                and _TINY <= sa * w < math.inf and _TINY <= sc * w < math.inf)
    except ArithmeticError:
        return False


def _wide(coeffs: Sequence[float], d: int, probes: Sequence[float]):
    """(f, k): f(q) = 2^-k q^(d-1) / g(q^2), the terms of g summed as
    floats times powers of two, so none leaves the float range; k puts the
    largest sample at the probes near 2^-64, and near 2^-64 / c where the
    top probe c is below 1/2, so the integral stays a normal float."""
    terms = [(m, *math.frexp(cm)) for m, cm in enumerate(coeffs) if cm]

    def split(q, k=0):
        # 2^-k q^(d-1) / g(q^2) = y 2^n
        mq, eq = math.frexp(q)
        parts = [(mc * mq ** (2 * m), ec + 2 * m * eq) for m, mc, ec in terms]
        top = max(n for _, n in parts)
        y = mq ** (d - 1) / sum(math.ldexp(v, n - top) for v, n in parts)
        return y, (d - 1) * eq - top - k

    k = max(n + math.frexp(y)[1] for y, n in map(split, probes)) + 64
    k += min(0, math.frexp(probes[-1])[1])
    return (lambda q: math.ldexp(*split(q, k))), k


def casimir_energy_density(params: LGParams, shell: ShellSpec) -> QuadratureResult:
    """Shell-mode energy density -(T^2/2) k_d * integral q^(d-1)/g(q) dq.

    Integrates over cutoff/shell_factor < q < cutoff by adaptive quadrature
    (relative tolerance 1e-10) once the kernel is shown exactly to be
    positive across the shell; the result is then strictly negative.
    """
    def form():
        T2, k_d, factors = _prefactor(shell)
        half = 0.5 * T2
        return params.coefficients, 1.0, factors, (T2, k_d, half, half * k_d)
    return _shell_integral(params, shell, form)


def _prefactor(shell: ShellSpec):
    """(T^2, k_d, factors): the two float steps that both energy forms take
    into their prefactor, and -0.5 T^2 k_d as plates._scaled's factors
    -0.5, solid_angle(d), (2 pi)^-d and T^2.  Gamma(d/2) overflows from
    d = 344 on (OverflowError)."""
    d, T = shell.dim, shell.temperature
    omega, k_d = _angular(d)
    return _power(T, 2), k_d, (-0.5, (omega, 1), (2.0 * math.pi, -d), (T, 2))


def dimensionless_energy_density(params: LGParams, shell: ShellSpec) -> QuadratureResult:
    """Same energy density through the substitution q = sqrt(t/K) x.

    Evaluates -(k_d/2) (t/K)^(d/2) (T^2/t) * integral of
    x^(d-1) / (1 + x^2 + L t x^4 / K^2 + ...) over the mapped shell; agrees
    with casimir_energy_density as a change-of-variables identity.
    Requires t > 0 (the substitution collapses at criticality) and K > 0.
    """
    t, K, *rest = params.coefficients
    for name, v in (("t", t), ("K", K)):
        if v <= 0.0:
            raise ValueError(f"substitution q = sqrt(t/K) x is undefined for {name} <= 0")

    def form():
        # coefficients of x^(2m) in g(sqrt(t/K) x)/t: c_m t^(m-1) / K^m, from 1, 1
        reduced = [1.0, 1.0] + [_reduced(c, t, K, m) for m, c in enumerate(rest, start=2)]
        scale = math.sqrt(K / t)
        if not 0.0 < scale < math.inf:
            raise OverflowError     # the mapped shell is 0 or beyond the float range
        d, (T2, k_d, factors) = shell.dim, _prefactor(shell)
        # the prefactor -0.5 k_d (t/K)^(d/2) T^2 / t; factors take (t/K)^(d/2)
        # as sqrt(K/t)^-d, from the scale the integral maps with
        ratio = t / K
        power = _power(ratio, d / 2.0)
        p1 = 0.5 * k_d
        p2 = p1 * power
        p3 = p2 * T2
        return (reduced, scale, (*factors, (scale, -d), (t, -1)),
                (k_d, ratio, power, T2, p1, p2, p3, p3 / t))
    return _shell_integral(params, shell, form)


def _reduced(c: float, t: float, K: float, m: int) -> float:
    """c t^(m-1) / K^m, in that float form wherever t^(m-1), K^m, the product
    and the quotient are normal floats, and plates._scaled's elsewhere."""
    try:
        tm, Km = t ** (m - 1), K ** m
        product = c * tm
        value = product / Km
    except ArithmeticError:
        value = product = tm = Km = 0.0
    if _TINY <= min(tm, Km, abs(product), abs(value)) and abs(value) < math.inf:
        return value
    return _scaled(c, (t, m - 1), (K, -m))


def leading_scaling_prediction(shell: ShellSpec, t: float) -> float:
    """Closed form of the shell energy when the kernel is dominated by t.

    -(T^2) k_d cutoff^d (1 - shell_factor^-d) / (2 t d): exact for a
    constant kernel, and the leading behavior when K cutoff^2 / t is small.
    """
    if t <= 0.0:
        raise ValueError("t-dominated closed form needs t > 0")
    d = shell.dim
    return (
        -(shell.temperature ** 2)
        * radial_measure(d)
        * shell.cutoff ** d
        * (1.0 - shell.shell_factor ** (-d))
        / (2.0 * t * d)
    )


def fit_power_law(samples: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log|energy| against log(scale).

    Returns (exponent, r_squared), the centred closed form with every sum
    taken by math.fsum.  Requires at least three samples with positive
    scales, not all the same, and same-sign nonzero energies, so the log is
    defined, a slope exists, and the sign carries no information.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise ValueError("power-law fit needs at least 3 samples")
    if any(s <= 0.0 for s, _ in pts):
        raise ValueError("all scales must be positive")
    if any(e == 0.0 for _, e in pts) or len({e > 0.0 for _, e in pts}) > 1:
        raise ValueError("energies must be nonzero and share one sign")
    lx = [math.log(s) for s, _ in pts]
    ly = [math.log(abs(e)) for _, e in pts]
    if min(lx) == max(lx):
        raise ValueError("power-law fit needs at least two distinct scales")
    n = len(pts)
    mx, my = math.fsum(lx) / n, math.fsum(ly) / n
    sxx = math.fsum((a - mx) ** 2 for a in lx)
    sxy = math.fsum((a - mx) * (c - my) for a, c in zip(lx, ly))
    slope = sxy / sxx
    ss_res = math.fsum((c - my - slope * (a - mx)) ** 2 for a, c in zip(lx, ly))
    ss_tot = math.fsum((c - my) ** 2 for c in ly)
    return slope, 1.0 - ss_res / ss_tot if ss_tot else 1.0


def rg_rescale(params: LGParams, b: float, field_scale: float, d: int) -> LGParams:
    """Coefficient map induced by q' = b q and field renormalization 1/B.

    The coefficient of q^(2m) picks up B^2 b^(-d-2m): t' = b^-d B^2 t,
    K' = b^(-d-2) B^2 K, and so on.  Factors are evaluated as
    (B / b^((d+2m)/2))^2 so the field scale that fixes K does so without
    rounding.  A coefficient whose steps leave the float range keeps its
    value; one beyond the float range raises ValueError.
    """
    _check_rescale_factor(b)
    if not (math.isfinite(field_scale) and field_scale > 0.0):
        raise ValueError("field scale must be positive")
    d = _dimension(d)

    t, K, L, *higher = (_rescaled(c, field_scale, b, d + 2 * m)
                        for m, c in enumerate(params.coefficients))
    return LGParams(t, K, L, tuple(higher))


def _rescaled(c: float, B: float, b: float, k: int) -> float:
    """c (B / b^(k/2))^2, in that float form wherever its steps stay normal.

    Where b^(k/2) overflows, the squared factor is not a normal float or the
    product overflows, it is plates._scaled's c B^2 b^-k instead.
    """
    try:
        factor = (B / b ** (k / 2.0)) ** 2
    except OverflowError:
        factor = math.inf
    value = c * factor
    if _TINY <= factor and abs(value) < math.inf:
        return value
    return _scaled(c, (B, 2), (b, -k))


def fixed_point_field_scale(b: float, d: int) -> float:
    """Field scale b^((d+2)/2): the unique B keeping K fixed under rg_rescale.

    Raises ValueError when that power is beyond the float range.
    """
    _check_rescale_factor(b)
    d = _dimension(d)
    e = (d + 2) / 2.0 if d < 2 ** 1023 else math.inf    # a larger d is no float
    scale = _power(b, e)
    if math.isinf(scale):
        raise ValueError(f"value beyond the float range: b^{e!r} for b = {b!r}")
    return scale


def mode_split_log_partition(
    kernel_values: Iterable[tuple[float, float]], b: float, cutoff: float
) -> tuple[float, float, float]:
    """Split per-mode Gaussian ln Z contributions at the shell boundary.

    Each mode (q, g) contributes -(1/2) ln g (additive constants dropped);
    modes with cutoff/b < q <= cutoff land in the shell part, 0 <= q <=
    cutoff/b in the interior part.  Returns (shell, interior, total) with
    total = shell + interior by construction.
    """
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError("cutoff must be positive")
    if not (math.isfinite(b) and b > 1.0):
        raise ValueError("split factor b must be > 1")
    boundary = cutoff / b
    shell_terms: list[float] = []
    interior_terms: list[float] = []
    for q, g in kernel_values:
        if g <= 0.0:
            raise UnstableKernelError(f"mode weight must be positive, got g({q}) = {g}")
        if q < 0.0 or q > cutoff:
            raise ValueError(f"mode q = {q} outside [0, cutoff]")
        contribution = -0.5 * math.log(g)
        if q > boundary:
            shell_terms.append(contribution)
        else:
            interior_terms.append(contribution)
    shell_part = math.fsum(shell_terms)
    interior_part = math.fsum(interior_terms)
    return shell_part, interior_part, shell_part + interior_part


@dataclass(frozen=True)
class LatticeField:
    """Real scalar field on a periodic 1-d or 2-d lattice."""

    values: np.ndarray
    spacing: float

    def __post_init__(self):
        import numpy as np

        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2):
            raise ValueError("lattice must be 1-d or 2-d")
        if any(n < 2 for n in values.shape):
            raise ValueError("lattice needs at least 2 sites per axis")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("lattice spacing must be positive")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def cell(self) -> float:
        """Volume h^d of one lattice cell; inf where it overflows."""
        try:
            return self.spacing ** self.dim
        except OverflowError:
            return math.inf

    @property
    def volume(self) -> float:
        return float(self.values.size) * self.cell


def _half_spectrum(phi: np.ndarray) -> np.ndarray:
    """np.fft.fftn(phi)[..., : n // 2 + 1] of a real 1-d or 2-d field phi.

    In 2-d each pair of rows goes through one complex FFT as phi[2j] +
    1j phi[2j+1]; the two row spectra Z = X + iY come apart on the kept half
    by conjugate symmetry, X(k) = (Z(k) + conj Z(-k)) / 2 and Y(k) =
    (Z(k) - conj Z(-k)) / 2i (Cooley, Lewis & Welch 1970), and the column
    FFT runs over those columns.  An odd last row is transformed alone.
    Every step writes into the packed rows or the returned array.
    np.fft.rfftn is not used.  On numpy 2.4.6 (min of 9, 2-vCPU Xeon),
    summed over 2-d sizes 120-257, it takes 1.16x the time of this
    transform, and at the primes 127 and 197 it takes 2.0x and 2.2x; its
    rounding also differs (the README lattice-check's phi2 residual reads
    1.24e-16, not 0.0).
    """
    import numpy as np

    if phi.ndim == 1:
        return np.fft.rfft(phi)
    n0, n1 = phi.shape
    half = n1 // 2 + 1
    even = n0 - n0 % 2
    packed = np.empty((even // 2, n1), dtype=complex)
    packed.real = phi[0:even:2]
    packed.imag = phi[1:even:2]
    np.fft.fft(packed, axis=1, out=packed)
    kept = packed[:, :half]
    rows = np.empty((n0, half), dtype=complex)
    ev = rows[0:even:2]
    od = rows[1:even:2]
    # ev = conj Z(-k), index -k mod n1: column 0, then n1 - 1 down to n1 - half + 1
    np.conjugate(packed[:, :1], out=ev[:, :1])
    np.conjugate(packed[:, n1 - 1:n1 - half:-1], out=ev[:, 1:])
    np.subtract(kept, ev, out=od)
    np.add(kept, ev, out=ev)
    ev *= 0.5
    od *= -0.5j
    if n0 % 2:
        np.fft.rfft(phi[-1], out=rows[-1])
    return np.fft.fft(rows, axis=0, out=rows)


def parseval_residuals(lattice: LatticeField) -> tuple[float, float]:
    """Relative mismatch of the phi^2 and (grad phi)^2 sums, real vs mode space.

    Real space uses forward differences with periodic wrap.  Mode space
    takes the half spectrum of the real field, the n // 2 + 1 non-negative
    frequencies of its last axis (_half_spectrum: two rows per complex FFT
    in 2-d), and counts every column of |phi_q|^2 twice except the zero and
    Nyquist ones, whose mirror images are themselves.  The gradient sum
    contracts each axis's discrete symbol (2/h)^2 sin^2(q h / 2) against the
    power's marginal on that axis.  The identities are exact at any size, so
    the residuals measure only the rounding of this transform.

    Raises ValueError naming the float range where the cell volume h^d or
    the lattice volume is not a normal float, or where a sum is inf, nan,
    subnormal, or 0 from a field whose terms are not all 0 (phi^2: a field
    that is not all 0; (grad phi)^2: a field that is not constant).
    """
    import numpy as np

    phi = lattice.values
    h = lattice.spacing
    d = lattice.dim
    cell = lattice.cell
    volume = lattice.volume
    for name, value in (("cell volume h^d", cell), ("lattice volume", volume)):
        if not _TINY <= value < math.inf:
            raise ValueError(f"value beyond the float range: {name} = {value!r} "
                             f"for spacing {h!r} in d = {d}")

    # an overflow or underflow is reported below as a sum beyond the float range
    with np.errstate(all="ignore"):
        modes = _half_spectrum(phi)
        if cell != 1.0:
            modes *= cell  # approximates integral phi e^{-iqx}
        power = np.square(modes.real)
        power += np.square(modes.imag, out=modes.imag)
        power[..., 1 : (phi.shape[-1] + 1) // 2] *= 2.0  # mirror weights

        square = np.multiply(phi, phi)
        phi2_real = cell * float(np.sum(square))
        phi2_mode = float(np.sum(power)) / volume

        grad2_real = 0.0
        grad2_mode = 0.0
        for axis in range(d):
            # square = (phi one site ahead along axis, with periodic wrap) - phi
            lead = (slice(None),) * axis
            ahead, behind = lead + (slice(1, None),), lead + (slice(None, -1),)
            first, last = lead + (slice(None, 1),), lead + (slice(-1, None),)
            np.subtract(phi[ahead], phi[behind], out=square[behind])
            np.subtract(phi[first], phi[last], out=square[last])
            if h != 1.0:
                square /= h
            np.square(square, out=square)
            grad2_real += cell * float(np.sum(square))
            marginal = power.sum(axis=tuple(a for a in range(d) if a != axis))
            q = 2.0 * math.pi * np.fft.fftfreq(phi.shape[axis], d=h)[: marginal.size]
            grad2_mode += float((2.0 / h * np.sin(q * h / 2.0)) ** 2 @ marginal)
        grad2_mode /= volume

    for name, pair in (("phi^2", (phi2_real, phi2_mode)), ("(grad phi)^2", (grad2_real, grad2_mode))):
        for space, value in zip(("real", "mode"), pair):
            if _TINY <= value < math.inf:
                continue
            # a sum of terms that are all 0 may be 0, or in mode space the rounding of 0
            vanishes = not phi.any() if name == "phi^2" else bool(np.all(phi == phi.flat[0]))
            if not (vanishes and value < math.inf):
                raise ValueError(f"value beyond the float range: {name} sum in {space} space "
                                 f"= {value!r} for spacing {h!r} in d = {d}")

    floor = 1e-30
    phi2_residual = abs(phi2_real - phi2_mode) / max(abs(phi2_real), floor)
    grad2_residual = abs(grad2_real - grad2_mode) / max(abs(grad2_real), floor)
    return phi2_residual, grad2_residual
