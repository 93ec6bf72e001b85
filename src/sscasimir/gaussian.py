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

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .quadrature import QuadratureConvergenceError, QuadratureResult, integrate

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

# sample count for the kernel positivity check on a shell: endpoints + 33
_POSITIVITY_SAMPLES = 35


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
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise ValueError("cutoff must be positive")
        if not (math.isfinite(self.shell_factor) and self.shell_factor > 1.0):
            raise ValueError("shell factor must be > 1 (non-degenerate shell)")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be positive")


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
    """Quadratic mode weight t + K q^2 + L q^4 + sum higher_j q^(6+2j)."""
    q2 = q * q
    acc = params.t + q2 * (params.K + q2 * params.L)
    if params.higher:
        qp = q2 * q2 * q2
        for h in params.higher:
            acc += h * qp
            qp *= q2
    return acc


def solid_angle(d: int) -> float:
    """Surface of the unit (d-1)-sphere, 2 pi^(d/2) / Gamma(d/2)."""
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def radial_measure(d: int) -> float:
    """Angular factor solid_angle(d) / (2 pi)^d of the radial mode integral."""
    return solid_angle(d) / (2.0 * math.pi) ** d


def _check_positive_on(g, lo: float, hi: float, what: str) -> None:
    # endpoints plus 33 interior points
    n = _POSITIVITY_SAMPLES - 1
    for i in range(_POSITIVITY_SAMPLES):
        q = lo + (hi - lo) * i / n
        if g(q) <= 0.0:
            raise UnstableKernelError(f"{what} is non-positive at {q!r}")


def casimir_energy_density(params: LGParams, shell: ShellSpec) -> QuadratureResult:
    """Shell-mode energy density -(T^2/2) k_d * integral q^(d-1)/g(q) dq.

    Integrates over cutoff/shell_factor < q < cutoff by adaptive quadrature
    (relative tolerance 1e-10); strictly negative whenever the kernel is
    positive across the shell, which is checked on a 35-point sample first.
    """
    lo = shell.cutoff / shell.shell_factor
    hi = shell.cutoff
    _check_positive_on(lambda q: kernel(params, q), lo, hi, "kernel on shell")
    d = shell.dim

    def integrand(q: float) -> float:
        return q ** (d - 1) / kernel(params, q)

    raw = integrate(integrand, lo, hi, rel_tol=1e-10)
    pref = -0.5 * shell.temperature ** 2 * radial_measure(d)
    return QuadratureResult(
        value=pref * raw.value,
        abs_error_estimate=abs(pref) * raw.abs_error_estimate,
        evaluations=raw.evaluations,
    )


def _reduced_coefficients(params: LGParams) -> list[float]:
    # coefficients of x^(2m) in g(sqrt(t/K) x)/t: 1, 1, L t/K^2, ...
    t, K = params.t, params.K
    coeffs = [1.0, 1.0, params.L * t / K ** 2]
    for j, h in enumerate(params.higher):
        coeffs.append(h * t ** (2 + j) / K ** (3 + j))
    return coeffs


def dimensionless_energy_density(params: LGParams, shell: ShellSpec) -> QuadratureResult:
    """Same energy density through the substitution q = sqrt(t/K) x.

    Evaluates -(k_d/2) (t/K)^(d/2) (T^2/t) * integral of
    x^(d-1) / (1 + x^2 + L t x^4 / K^2 + ...) over the mapped shell; agrees
    with casimir_energy_density as a change-of-variables identity.
    Requires t > 0 (the substitution collapses at criticality) and K > 0.
    """
    if params.t <= 0.0:
        raise ValueError("substitution q = sqrt(t/K) x is undefined for t <= 0")
    if params.K <= 0.0:
        raise ValueError("substitution q = sqrt(t/K) x is undefined for K <= 0")
    scale = math.sqrt(params.K / params.t)
    lo = shell.cutoff / shell.shell_factor * scale
    hi = shell.cutoff * scale
    coeffs = _reduced_coefficients(params)
    d = shell.dim

    def reduced(x: float) -> float:
        x2 = x * x
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x2 + c
        return acc

    _check_positive_on(reduced, lo, hi, "reduced kernel on mapped shell")

    def integrand(x: float) -> float:
        return x ** (d - 1) / reduced(x)

    raw = integrate(integrand, lo, hi, rel_tol=1e-10)
    pref = (
        -0.5
        * radial_measure(d)
        * (params.t / params.K) ** (d / 2.0)
        * shell.temperature ** 2
        / params.t
    )
    return QuadratureResult(
        value=pref * raw.value,
        abs_error_estimate=abs(pref) * raw.abs_error_estimate,
        evaluations=raw.evaluations,
    )


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

    Returns (exponent, r_squared).  Requires at least three samples with
    positive scales and same-sign nonzero energies, so the log is defined
    and the sign carries no information.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise ValueError("power-law fit needs at least 3 samples")
    scales = np.array([s for s, _ in pts], dtype=float)
    energies = np.array([e for _, e in pts], dtype=float)
    if np.any(scales <= 0.0):
        raise ValueError("all scales must be positive")
    if np.any(energies == 0.0) or (np.any(energies > 0.0) and np.any(energies < 0.0)):
        raise ValueError("energies must be nonzero and share one sign")
    lx = np.log(scales)
    ly = np.log(np.abs(energies))
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def rg_rescale(params: LGParams, b: float, field_scale: float, d: int) -> LGParams:
    """Coefficient map induced by q' = b q and field renormalization 1/B.

    The coefficient of q^(2m) picks up B^2 b^(-d-2m): t' = b^-d B^2 t,
    K' = b^(-d-2) B^2 K, and so on.  Factors are evaluated as
    (B / b^((d+2m)/2))^2 so the field scale that fixes K does so without
    rounding.
    """
    if not (math.isfinite(b) and b > 1.0):
        raise ValueError("rescale factor b must be > 1")
    if not (math.isfinite(field_scale) and field_scale > 0.0):
        raise ValueError("field scale must be positive")
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")

    def factor(m: int) -> float:
        return (field_scale / b ** ((d + 2 * m) / 2.0)) ** 2

    return LGParams(
        t=params.t * factor(0),
        K=params.K * factor(1),
        L=params.L * factor(2),
        higher=tuple(h * factor(3 + j) for j, h in enumerate(params.higher)),
    )


def fixed_point_field_scale(b: float, d: int) -> float:
    """Field scale b^((d+2)/2): the unique B keeping K fixed under rg_rescale."""
    if not (math.isfinite(b) and b > 1.0):
        raise ValueError("rescale factor b must be > 1")
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")
    return b ** ((d + 2) / 2.0)


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
    def volume(self) -> float:
        return float(self.values.size) * self.spacing ** self.dim


def parseval_residuals(lattice: LatticeField) -> tuple[float, float]:
    """Relative mismatch of the phi^2 and (grad phi)^2 sums, real vs mode space.

    Real space uses forward differences with periodic wrap; mode space
    weights |phi_q|^2 with the matching discrete symbol
    (2/h)^2 sin^2(q h / 2), so the identities are exact at any size and the
    residuals measure only floating-point transform error.
    """
    phi = lattice.values
    h = lattice.spacing
    d = lattice.dim
    volume = lattice.volume
    cell = h ** d

    modes = np.fft.fftn(phi) * cell  # approximates integral phi e^{-iqx}
    power = np.abs(modes) ** 2

    phi2_real = cell * float(np.sum(phi * phi))
    phi2_mode = float(np.sum(power)) / volume

    grad2_real = 0.0
    symbol = np.zeros(phi.shape)
    for axis in range(d):
        diff = (np.roll(phi, -1, axis=axis) - phi) / h
        grad2_real += cell * float(np.sum(diff * diff))
        n = phi.shape[axis]
        q = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
        shape = [1] * d
        shape[axis] = n
        symbol = symbol + (2.0 / h * np.sin(q * h / 2.0)).reshape(shape) ** 2
    grad2_mode = float(np.sum(symbol * power)) / volume

    floor = 1e-30
    phi2_residual = abs(phi2_real - phi2_mode) / max(abs(phi2_real), floor)
    grad2_residual = abs(grad2_real - grad2_mode) / max(abs(grad2_real), floor)
    return phi2_residual, grad2_residual
