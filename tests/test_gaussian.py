import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from sscasimir import gaussian
from sscasimir.gaussian import (
    _certified,
    _check_positive_on,
    _dip,
    _integrand,
    _integrand_maker,
    _negated_remainder,
    BelowCriticalityError,
    LGParams,
    ShellSpec,
    TemperatureExpansion,
    UnstableKernelError,
    casimir_energy_density,
    dimensionless_energy_density,
    fit_power_law,
    kernel,
    leading_scaling_prediction,
    lg_params_at,
    mode_split_log_partition,
    radial_measure,
    solid_angle,
)
from sscasimir.quadrature import _compile_panel, integrate

# closed-form oracle for the d=3, t=K=1, L=0 shell: antiderivative q - arctan q
D3_EXACT = -(0.5 - math.pi / 4.0 + math.atan(0.5)) / (4.0 * math.pi ** 2)
# constant-kernel oracle in d=1: -(1/2)(1/pi)(1 - 1/2)
D1_EXACT = -1.0 / (4.0 * math.pi)
# 10^e for e over [-300, 300]
_DECADES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def integrand(coeffs, d):
    """_integrand's f carrying its written-out panel, as a plain shell samples it."""
    f, panel = _integrand(coeffs, d)
    f._gk_panel = panel()
    return f


class TestLGParamsAt:
    def test_vanishes_at_critical_temperature(self):
        exp = TemperatureExpansion(Tc=1.0, t_coeffs=(2.0,), K_coeffs=(1.0,), L_coeffs=(0.0,))
        params = lg_params_at(exp, 1.0)
        assert params.t == 0.0 and params.K == 1.0 and params.L == 0.0
        assert params.correlation_length == math.inf

    def test_linear_term(self):
        exp = TemperatureExpansion(Tc=1.0, t_coeffs=(2.0,), K_coeffs=(1.0,), L_coeffs=(0.0,))
        params = lg_params_at(exp, 1.5)
        assert params.t == pytest.approx(1.0, rel=1e-15)
        assert params.correlation_length == pytest.approx(1.0, rel=1e-15)

    def test_quadratic_term(self):
        exp = TemperatureExpansion(Tc=1.0, t_coeffs=(1.0, 1.0), K_coeffs=(1.0,))
        params = lg_params_at(exp, 1.2)
        assert params.t == pytest.approx(0.24, rel=1e-14)

    def test_below_critical_rejected(self):
        exp = TemperatureExpansion(Tc=1.0, t_coeffs=(1.0,), K_coeffs=(1.0,))
        with pytest.raises(BelowCriticalityError):
            lg_params_at(exp, 0.5)

    def test_unstable_gradient_rejected(self):
        exp = TemperatureExpansion(Tc=1.0, t_coeffs=(1.0,), K_coeffs=(1.0, -10.0))
        with pytest.raises(UnstableKernelError):
            lg_params_at(exp, 1.5)


class TestKernel:
    def test_constant_part(self):
        assert kernel(LGParams(t=1.0, K=1.0), 0.0) == 1.0

    def test_quartic(self):
        assert kernel(LGParams(t=1.0, K=1.0, L=1.0), 2.0) == pytest.approx(21.0, rel=1e-15)

    def test_gradient_only(self):
        assert kernel(LGParams(t=0.0, K=2.0), 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_higher_terms(self):
        params = LGParams(t=1.0, K=1.0, L=1.0, higher=(1.0, 0.5))
        q = 2.0
        expected = 1.0 + 4.0 + 16.0 + 64.0 + 0.5 * 256.0
        assert kernel(params, q) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("params, g", [
        (LGParams(t=1.0, K=1.0), math.inf),
        (LGParams(t=2.0, K=0.0), 2.0),
        (LGParams(t=1.0, K=1.0, higher=(0.0, 1.0)), math.inf),
    ])
    def test_zero_terms_where_u_overflows(self, params, g):
        # q^2 overflows; a zero coefficient times it was nan
        assert kernel(params, 1e300) == g
        assert integrand(params.coefficients, 1)(1e300) == 1.0 / g

    def test_validation(self):
        with pytest.raises(BelowCriticalityError):
            LGParams(t=-1.0, K=1.0)
        with pytest.raises(ValueError):
            LGParams(t=1.0, K=-1.0)
        with pytest.raises(ValueError):
            LGParams(t=1.0, K=1.0, L=-0.5)


def quotient(fn, q):
    """fn(q) as a hex float, or the name of the arithmetic error it raises."""
    try:
        return fn(q).hex()
    except ArithmeticError as exc:    # q^(d-1) overflows, or g is exactly 0
        return type(exc).__name__


NON_NEGATIVE = st.floats(0.0, 1e6)
# from the smallest subnormal up, and around the q where u = q^2 (2^512),
# u^3 (2^171) and u^4 (2^128) overflow
SAMPLE_Q = st.one_of(st.floats(5e-324, 1e300),
                     st.sampled_from([2.0 ** k for k in (127, 128, 170, 171, 511, 512)]))


class TestIntegrand:
    @pytest.mark.parametrize("n_higher", range(5))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), t=NON_NEGATIVE, K=NON_NEGATIVE, L=NON_NEGATIVE,
           d=st.integers(1, 4), q=SAMPLE_Q)
    @example(data=None, t=0.0, K=0.0, L=0.0, d=2, q=2.0 ** 128)
    def test_equals_kernel_quotient(self, n_higher, data, t, K, L, d, q):
        # the closure's samples are kernel's bits, whichever pattern of
        # nonzero coefficients it is written for
        higher = () if data is None else data.draw(
            st.lists(st.floats(-1e3, 1e3), min_size=n_higher, max_size=n_higher))
        params = LGParams(t=t, K=K, L=L, higher=tuple(higher))
        expected = quotient(lambda x: x ** (d - 1) / kernel(params, x), q)
        assert quotient(integrand(params.coefficients, d), q) == expected

    @pytest.mark.parametrize("higher, q, g", [((), 2.0 ** 171, 2.0 ** 684),
                                              ((1.0,), 2.0 ** 128, 2.0 ** 768)])
    def test_powers_beyond_the_degree_are_never_formed(self, higher, q, g):
        # u^3 (u^4) overflows here; zero-padding the kernel to a higher degree
        # would add 0 * inf = nan to a finite g
        params = LGParams(t=1.0, K=1.0, L=1.0, higher=higher)
        assert kernel(params, q) == g
        assert integrand(params.coefficients, 1)(q) == 1.0 / g

    @pytest.mark.parametrize("higher", [(1e-3,) * 3000, (0.0,) * 2999 + (1e-3,), (1e-3, 0.0) * 1500],
                             ids=["dense", "one-term", "alternating"])
    def test_kernel_of_any_degree(self, higher):
        # from u^5 on each power and term is a statement of its own: as one
        # expression, 3000 terms or 3000 factors u are too deep for the compiler
        params = LGParams(t=1.0, K=1.0, L=1.0, higher=higher)
        for q in (0.5, 1.0, 1.0001):
            assert integrand(params.coefficients, 3)(q) == q ** 2 / kernel(params, q)

    def test_panel_compiled_only_on_the_plain_path(self, monkeypatch):
        # on [1e-200, 1] u = q^2 underflows at the lower edge, so the shell
        # is sampled through _wide: a fresh pattern compiles no written-out
        # panel there, and one on a plain shell
        compiled = []
        monkeypatch.setattr(gaussian, "_compile_panel", lambda *args: compiled.append(1) or _compile_panel(*args))
        _integrand_maker.cache_clear()
        params = LGParams(t=1.0, K=1.0, higher=(0.0, 0.0, 0.0, 0.0, 0.0, 1e-3))
        casimir_energy_density(params, ShellSpec(dim=3, cutoff=1.0, shell_factor=1e200, temperature=1.0))
        assert compiled == []
        casimir_energy_density(params, ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0))
        assert compiled == [1]

    def test_one_maker_per_pattern_of_nonzero_coefficients(self):
        integrand((1.0, 2.0, 0.0, 3.0), 2)
        hits = _integrand_maker.cache_info().hits
        f = integrand((5.0, 1e-3, 0.0, 7.0), 4)
        assert _integrand_maker.cache_info().hits == hits + 1
        assert f(2.0) == 2.0 ** 3 / (5.0 + 4.0 * 1e-3 + 7.0 * (4.0 * 4.0 * 4.0))


def positive_on_shell(coeffs, lo, hi):
    """Oracle: sympy's exact root count of sum c_m u^m on [lo^2, hi^2]."""
    u = sympy.Symbol("u")
    poly = sympy.Poly([sympy.Rational(*c.as_integer_ratio()) for c in reversed(coeffs)], u)
    a, b = (sympy.Rational(*q.as_integer_ratio()) ** 2 for q in (lo, hi))
    return not poly.is_zero and poly.eval(a) > 0 and poly.eval(b) > 0 and poly.count_roots(a, b) == 0


def dip_minimum(coeffs, lo, hi):
    """The r that _shell_integral expands g about: _dip's least minimum u_m
    where a coefficient is negative and _dip finds one, else 0."""
    ladder = _dip(coeffs, lo, hi) if min(coeffs) < 0.0 else []
    return ladder[0] * ladder[0] if ladder else 0.0


def check_positive(coeffs, lo, hi):
    """_check_positive_on as _shell_integral calls it."""
    _check_positive_on(tuple(coeffs), lo, hi, dip_minimum(coeffs, lo, hi))


def decides_positive(coeffs, lo, hi):
    try:
        check_positive(coeffs, lo, hi)
    except UnstableKernelError as exc:
        assert "non-positive" in str(exc)
        return False
    return True


def chain_free(coeffs, lo, hi, r):
    """Whether _check_positive_on about r returns without taking a Sturm
    remainder: Descartes' rule or the certificate decided.  (Of degree 1 or
    less, which takes none, the certificate is exact: it decides all.)"""
    with mock.patch.object(gaussian, "_negated_remainder", wraps=_negated_remainder) as remainder:
        try:
            _check_positive_on(tuple(coeffs), lo, hi, r)
        except UnstableKernelError:
            return False
    return not remainder.called


def dip_kernel(roots, eps):
    """prod (u - r) over roots, plus eps, expanded in u = q^2, lowest power first."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [low - r * high for low, high in zip([0.0] + coeffs, coeffs + [0.0])]
    coeffs[0] += eps
    return tuple(coeffs)


def peaked(u0, c, eps):
    """(u - u0)^2 (u + c)^2 + eps expanded in u = q^2, lowest power first."""
    return dip_kernel([u0, u0, -c, -c], eps)


COEFFICIENT = st.one_of(st.integers(-4, 4).map(float),
                        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
EDGE = st.one_of(st.integers(0, 6).map(lambda k: k / 2.0), st.floats(0.0, 3.0))


class TestPositivity:
    """The kernel positivity test is exact: it agrees with sympy's root count."""

    @given(coeffs=st.lists(COEFFICIENT, min_size=1, max_size=7), lo=EDGE, width=EDGE)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_exact_root_count(self, coeffs, lo, width):
        hi = lo + width
        assert decides_positive(coeffs, lo, hi) == positive_on_shell(coeffs, lo, hi)

    @given(u0=st.floats(0.5, 3.0), c=st.floats(0.05, 0.26), log_eps=st.floats(-12.0, -3.0),
           sign=st.sampled_from([1.0, -1.0]), lo=st.floats(0.3, 1.0), width=st.floats(0.5, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_agrees_on_peaked_kernels(self, u0, c, log_eps, sign, lo, width):
        coeffs = peaked(u0, c * u0, sign * u0 ** 4 * 10.0 ** log_eps)
        hi = lo + width
        assert decides_positive(coeffs, lo, hi) == positive_on_shell(coeffs, lo, hi)

    def test_touching_double_root_rejected(self):
        # (u - 2)^2 touches 0 at q = sqrt(2), inside 1 <= q <= sqrt(3)
        with pytest.raises(UnstableKernelError, match=r"non-positive for 1.0 < q < 1.73"):
            check_positive((4.0, -4.0, 1.0), 1.0, math.sqrt(3.0))
        check_positive((4.0, -4.0, 1.0), 1.5, 2.0)

    def test_zero_at_shell_edge_rejected(self):
        # 4 - u^3 / 16 vanishes at u = 4, the edge q = 2; u^2 - 1 at the edge q = 1
        with pytest.raises(UnstableKernelError, match="non-positive at the shell edge q = 2.0"):
            check_positive((4.0, 0.0, 0.0, -1.0 / 16.0), 1.0, 2.0)
        with pytest.raises(UnstableKernelError, match="non-positive at the shell edge q = 1.0"):
            check_positive((-1.0, 0.0, 1.0), 1.0, 2.0)

    @pytest.mark.parametrize("coeffs, lo, hi", [
        ((-3.0, 2.0, 2.0, 0.0, 0.0, 2.0), 1.0, 1.5),    # chain degree drops by 2, lead < 0
        ((3.0, 0.0, -2.0, 3.0), 0.0, 1.0),              # g'(u) vanishes at the edge u = 0
    ])
    def test_degenerate_sturm_chains(self, coeffs, lo, hi):
        assert positive_on_shell(coeffs, lo, hi)
        check_positive(coeffs, lo, hi)

    def test_zero_kernel_rejected(self):
        with pytest.raises(UnstableKernelError, match="non-positive at the shell edge q = 1.0"):
            check_positive(LGParams(t=0.0, K=0.0, L=0.0).coefficients, 1.0, 2.0)

    def test_critical_point_needs_a_positive_lower_edge(self):
        check_positive(LGParams(t=0.0, K=1.0).coefficients, 5e-324, 1.0)
        with pytest.raises(UnstableKernelError, match="shell edge q = 0.0"):
            check_positive(LGParams(t=0.0, K=1.0).coefficients, 0.0, 1.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_peaked_family(self, eps):
        check_positive(peaked(2.1, 0.42, eps), 1.0, 2.0)
        with pytest.raises(UnstableKernelError, match="non-positive for 1.0 < q < 2.0"):
            check_positive(peaked(2.1, 0.42, -eps), 1.0, 2.0)

    @given(coeffs=st.lists(st.just(0.0) | _DECADES.flatmap(lambda v: st.sampled_from([v, -v])),
                           min_size=1, max_size=5),
           lo=_DECADES, log_b=st.floats(0.0, 4.0), at=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_certificate_is_sound_over_the_float_range(self, coeffs, lo, log_b, at):
        # about any float r of the shell, a kernel the certificate accepts is
        # positive by sympy's exact root count, and the check as a whole agrees
        hi = lo * 10.0 ** log_b
        assume(0.0 < lo * lo and hi * hi < math.inf)
        r = lo * lo * (hi / lo) ** (2.0 * at)
        exact = positive_on_shell(coeffs, lo, hi)
        assert exact or not chain_free(coeffs, lo, hi, r)
        assert decides_positive(coeffs, lo, hi) == exact

    @given(u0=st.floats(-60.0, 60.0).map(lambda e: 10.0 ** e), c=st.floats(0.05, 0.26),
           log_eps=st.floats(-16.0, -2.0), sign=st.sampled_from([1.0, -1.0]),
           size=st.floats(-50.0, 50.0).map(lambda e: 10.0 ** e), lo=st.floats(0.3, 1.0),
           width=st.floats(0.5, 2.0))
    @example(u0=1.0, c=0.2, log_eps=-16.0, sign=1.0, size=1.0, lo=0.5, width=1.0)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_certificate_on_near_double_roots(self, u0, c, log_eps, sign, size, lo, width):
        # size P(u / u0), P(x) = (x - 1)^2 (x + c)^2 -+ eps, a near-double root
        # at u = u0: the certificate about _dip's minimum accepts only positive
        # kernels, and the check agrees with sympy whichever path decides
        coeffs = tuple(size * (pm / u0 ** m) for m, pm in enumerate(peaked(1.0, c, sign * 10.0 ** log_eps)))
        root = math.sqrt(u0)
        lo, hi = lo * root, (lo + width) * root
        exact = positive_on_shell(coeffs, lo, hi)
        assert exact or not chain_free(coeffs, lo, hi, dip_minimum(coeffs, lo, hi))
        assert decides_positive(coeffs, lo, hi) == exact

    @pytest.mark.parametrize("coeffs, lo, hi, chain", [
        # the certificate about the minimum u = 2.1 decides
        (peaked(2.1, 0.42, 1e-6), 1.0, 2.0, False),
        # (u - 1)^2 (u - 2)^2 (u + 0.1) + 1e-3, two dips: degree 5 goes to the chain
        (dip_kernel([1.0, 1.0, 2.0, 2.0, -0.1], 1e-3), 0.5, 2.0, True),
        # 1e-3 + (u - 2)^2 ((u - 3)^2 + delta) over 1.5 <= u <= 4, about the
        # minimum near u = 2: Q = (y - 1)^2 + delta has its vertex inside,
        # and the certificate's vertex test holds at delta = 0.1 ...
        ((36.401, -60.4, 37.1, -10.0, 1.0), math.sqrt(1.5), 2.0, False),
        # ... and fails at delta = -1e-4, where Q < 0 near u = 3 but g > 0
        ((36.0006, -59.9996, 36.9999, -10.0, 1.0), math.sqrt(1.5), 2.0, True),
    ], ids=["peaked", "degree-five", "convex-vertex", "negative-vertex"])
    def test_whether_a_sturm_chain_is_built(self, coeffs, lo, hi, chain):
        assert positive_on_shell(coeffs, lo, hi)
        assert decides_positive(coeffs, lo, hi)
        assert chain_free(coeffs, lo, hi, dip_minimum(coeffs, lo, hi)) != chain

    def test_one_integer_form_for_the_certificate_and_the_chain(self, monkeypatch):
        # the chain starts from the very list the certificate was given
        forms, dividends = [], []
        monkeypatch.setattr(gaussian, "_certified", lambda b, edges: forms.append(b) or _certified(b, edges))
        monkeypatch.setattr(gaussian, "_negated_remainder",
                            lambda a, b: dividends.append(a) or _negated_remainder(a, b))
        check_positive((36.0006, -59.9996, 36.9999, -10.0, 1.0), math.sqrt(1.5), 2.0)
        assert len(forms) == 1 and dividends[0] is forms[0]

    def test_coefficients_are_one_tuple_in_u(self):
        params = LGParams(t=1, K=2, L=3, higher=(-4, 5))
        assert params.coefficients == (1.0, 2.0, 3.0, -4.0, 5.0)
        assert all(type(c) is float for c in params.coefficients)


class TestSolidAngle:
    def test_line(self):
        assert solid_angle(1) == pytest.approx(2.0, rel=1e-15)

    def test_circle(self):
        assert solid_angle(2) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_sphere(self):
        assert solid_angle(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert radial_measure(3) == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-14)
        assert radial_measure(3) == pytest.approx(0.0506606, rel=1e-5)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            solid_angle(0)


class TestCasimirEnergyDensity:
    def test_d3_arctan_oracle(self):
        out = casimir_energy_density(
            LGParams(t=1.0, K=1.0), ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        )
        assert out.value == pytest.approx(D3_EXACT, rel=1e-10)
        assert out.value == pytest.approx(-4.51511e-3, rel=1e-5)
        assert abs(out.value - D3_EXACT) <= max(out.abs_error_estimate, 1e-14 * abs(D3_EXACT))

    def test_d1_constant_kernel_oracle(self):
        out = casimir_energy_density(
            LGParams(t=1.0, K=0.0), ShellSpec(dim=1, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        )
        assert out.value == pytest.approx(D1_EXACT, rel=1e-10)
        assert out.value == pytest.approx(-7.95775e-2, rel=1e-5)

    def test_agrees_with_scipy_oracle(self):
        params = LGParams(t=0.5, K=2.0, L=0.1)
        shell = ShellSpec(dim=2, cutoff=1.5, shell_factor=3.0, temperature=2.0)
        out = casimir_energy_density(params, shell)
        integral, _ = scipy_quad(
            lambda q: q / (0.5 + 2.0 * q * q + 0.1 * q ** 4),
            1.5 / 3.0, 1.5, epsabs=1e-14, epsrel=1e-14,
        )
        expected = -0.5 * 4.0 * radial_measure(2) * integral
        assert out.value == pytest.approx(expected, rel=1e-9)

    def test_numpy_coefficients_fail_fast(self):
        # (u - 2.1)^2 (u + 0.42)^2 - 1e-8 in u = q^2: a dip 8e-5 wide in u,
        # where the integrand would divide by an exact 0
        shell = ShellSpec(dim=3, cutoff=2.0, shell_factor=2.0, temperature=1.0)
        for number in (float, np.float64):
            params = LGParams(t=number(0.77792399), K=number(2.96352), L=number(1.0584),
                              higher=(number(-3.36), number(1.0)))
            assert all(type(v) is float for v in params.coefficients)
            for energy in (casimir_energy_density, dimensionless_energy_density):
                with pytest.raises(UnstableKernelError, match="non-positive for 1.0 < q < 2.0"):
                    energy(params, shell)

    def test_empty_shell_limit(self):
        out = casimir_energy_density(
            LGParams(t=1.0, K=1.0),
            ShellSpec(dim=3, cutoff=1.0, shell_factor=1.0 + 1e-12, temperature=1.0),
        )
        assert abs(out.value) < 1e-12

    def test_negativity_and_monotonicity_in_shell_factor(self):
        params = LGParams(t=0.5, K=1.0, L=0.1)
        previous = 0.0
        for b in (1.2, 1.5, 2.0, 3.0):
            out = casimir_energy_density(
                params, ShellSpec(dim=2, cutoff=1.0, shell_factor=b, temperature=1.0)
            )
            assert out.value < 0.0
            assert abs(out.value) > abs(previous)
            previous = out.value

    def test_critical_point_accepted_with_gradient_term(self):
        out = casimir_energy_density(
            LGParams(t=0.0, K=1.0), ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        )
        assert out.value < 0.0
        exact = power_law_energy(3, 1.0, 2.0, 1.0, 1.0)
        assert abs(out.value - exact) <= out.abs_error_estimate + 4.0 * math.ulp(exact)

    def test_unstable_kernel_rejected(self):
        with pytest.raises(UnstableKernelError):
            casimir_energy_density(
                LGParams(t=0.0, K=0.0),
                ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0),
            )

    def test_equals_t_derivative_of_shell_log_partition(self):
        # the energy density is T^2 d/dt of the shell's log-partition
        # density -(1/2) k_d integral q^(d-1) ln g(q) dq; finite differences
        # of that integral give an independent route to the same number
        from sscasimir.quadrature import integrate

        lo, hi = 0.5, 1.0
        L = 0.1

        def shell_log_partition(t):
            out = integrate(
                lambda q: q * q * math.log(t + q * q + L * q ** 4), lo, hi
            )
            return -0.5 * radial_measure(3) * out.value

        h = 1e-6
        fd = (shell_log_partition(1.0 + h) - shell_log_partition(1.0 - h)) / (2.0 * h)
        energy = casimir_energy_density(
            LGParams(t=1.0, K=1.0, L=L),
            ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0),
        )
        assert energy.value == pytest.approx(fd, rel=1e-8)


class TestShellEnergyFloatRange:
    """A shell energy beyond the float range names that range, one below it
    is -0.0, and one that is a float is within its error estimate."""

    @pytest.mark.parametrize("d, lam, b, T, t, K", [
        (3, 1.0, 2.0, 1e200, 1.0, 1.0),         # T^2 overflows
        (344, 1.0, 2.0, 1.0, 1.0, 1.0),         # Gamma(d/2) overflows
        (10 ** 400, 1.0, 2.0, 1.0, 1.0, 1.0),   # d is no float
        (3, 1.7e308, 1.1, 1.0, 1.0, 0.0),       # the shell's first midpoint overflowed
        (1, 1e-10, 2.0, 1.0, 0.0, 5e-324),      # g = K q^2 underflows to 0
        (3, 1e200, 2.0, 1e200, 1.0, 1.0),       # T^2 and q^2 overflow
    ], ids=["T-squared", "gamma", "400-digit-d", "midpoint", "kernel-underflow", "T-and-q-power"])
    def test_names_the_float_range(self, d, lam, b, T, t, K):
        shell = ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=T)
        with pytest.raises(ValueError, match="^value beyond the float range: "):
            casimir_energy_density(LGParams(t=t, K=K), shell)

    def test_q_power_beyond_the_float_range(self):
        # q^(d-1) = q^2 overflows at the top edge, the energy -(1/4pi^2)
        # (hi - lo - atan hi + atan lo) is a float
        shell = ShellSpec(dim=3, cutoff=1e308, shell_factor=2.0, temperature=1.0)
        out = casimir_energy_density(LGParams(t=1.0, K=1.0), shell)
        closed = -1.2665147955292221e+306
        assert abs(out.value - closed) <= out.abs_error_estimate + 4 * math.ulp(closed)
        assert out.abs_error_estimate <= 1e-10 * abs(closed)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), lam=_DECADES, log_b=st.floats(0.001, 300.0),
           T=st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e),
           t=st.just(0.0) | _DECADES, K=st.just(0.0) | _DECADES)
    def test_matches_the_closed_form_over_the_float_range(self, d, lam, log_b, T, t, K):
        b = 10.0 ** log_b
        assume((t or K) and lam / b > 0.0)
        exact = float(linear_kernel_energy(d, lam, b, T, t, K))
        shell = ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=T)
        if math.isinf(exact):
            with pytest.raises(ValueError, match="^value beyond the float range: "):
                casimir_energy_density(LGParams(t=t, K=K), shell)
            return
        out = casimir_energy_density(LGParams(t=t, K=K), shell)
        if exact == 0.0:
            assert out.value == 0.0 and math.copysign(1.0, out.value) == -1.0
        else:
            assert abs(out.value - exact) <= out.abs_error_estimate + 4 * math.ulp(exact)

    def test_dip_whose_sample_leaves_the_floats(self):
        # g is about 1.6e-308 at its minimum u = 2, where q^2 / g overflows
        # while every step at the shell edges is a normal float; this raised
        # "panel [1.4140625, 1.4150390625] is beyond the float range"
        params = LGParams(t=3.60016e-304, K=2.0399999999999996e-303, L=1.6899999999999996e-303,
                          higher=(-3.3999999999999995e-303, 1e-303))
        out = casimir_energy_density(params, ShellSpec(dim=3, cutoff=2.0, shell_factor=2.0, temperature=1.0))
        exact = -6.1126934717105187e+303    # 40-digit mpmath.quad split at the minimum
        assert abs(out.value - exact) <= out.abs_error_estimate
        assert out.abs_error_estimate <= 1e-10 * abs(exact)

    def test_dimensionless_form_names_the_float_range(self):
        # (t/K)^(d/2) overflows
        shell = ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        with pytest.raises(ValueError, match="^value beyond the float range: "):
            dimensionless_energy_density(LGParams(t=1e300, K=1e-300), shell)

    def test_dimensionless_form_whose_mapped_shell_leaves_the_floats(self):
        # sqrt(K/t) is inf; this raised "integration limits must be finite"
        shell = ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        with pytest.raises(ValueError, match="^value beyond the float range: "):
            dimensionless_energy_density(LGParams(t=1e-300, K=1e300), shell)

    def test_positivity_is_decided_before_the_float_range(self):
        # g is negative at the edge q = 0.5, and the mapped shell, sqrt(K/t)
        # = 1e155 times this one, leaves the floats: the kernel's error comes
        # first, as the positivity check runs before the form maps anything
        shell = ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        with pytest.raises(UnstableKernelError, match="^kernel is non-positive at the shell edge q = 0.5$"):
            dimensionless_energy_density(LGParams(t=1e-300, K=1e10, higher=(-1e20,)), shell)

    @pytest.mark.parametrize("energy", [casimir_energy_density, dimensionless_energy_density])
    @pytest.mark.parametrize("d, lam", [(250, 10.0), (300, 30.0)])
    def test_prefactor_below_the_normal_floats(self, energy, d, lam):
        # k_d is subnormal from d = 227 and 0 from d = 238: both energies
        # were -0.0; the reference takes q^(d-1) / (1 + q^2) to 40 digits
        with mpmath.workdps(40):
            half_d = mpmath.mpf(d) / 2
            k_d = 2 * mpmath.pi ** half_d / mpmath.gamma(half_d) / (2 * mpmath.pi) ** d
            exact = float(-k_d / 2 * mpmath.quad(lambda q: q ** (d - 1) / (1 + q * q), [lam / 2, lam]))
        shell = ShellSpec(dim=d, cutoff=lam, shell_factor=2.0, temperature=1.0)
        out = energy(LGParams(t=1.0, K=1.0), shell)
        assert abs(out.value - exact) <= out.abs_error_estimate + 4 * math.ulp(exact)

    def test_energy_below_the_float_range_is_minus_zero(self):
        # d = 343: Gamma(d/2) is a float, k_d is below the float range, and the
        # energy is the limit -0.0
        shell = ShellSpec(dim=343, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        out = casimir_energy_density(LGParams(t=1.0, K=1.0), shell)
        assert out.value == 0.0 and math.copysign(1.0, out.value) == -1.0


class TestShellEnergyWhereGOverflows:
    """Where g overflows at the shell's top edge, the samples of the plain
    integrand are 0 or nan there; the wide-range integrand takes its place."""

    @pytest.mark.parametrize("d, lam, b, L, closed", [
        # -(1/2pi) (atan(hi) - atan(lo)) = -(1/2pi) (atan(1/lo) - atan(1/hi))
        (1, 1e300, 2.0, 0.0, -(math.atan(1 / 5e299) - math.atan(1 / 1e300)) / (2 * math.pi)),
        # -(1/8pi) ln((1 + hi^2) / (1 + lo^2))
        (2, 1e300, 2.0, 0.0, -math.log(4.0) / (8 * math.pi)),
        # u^2 overflows: -(1/2pi) (lo^-3 - hi^-3) / 3, to 1e-200
        (1, 1e100, 2.0, 1.0, -(5e99 ** -3 - 1e100 ** -3) / (6 * math.pi)),
        # g overflows above q = 1.3e154 only: -(1/2pi) (atan(1e300) - atan(1))
        (1, 1e300, 1e300, 0.0, -0.125),
        # g overflows above q = 1.2e77 only, where the integrand is below
        # 1e-308 and adds almost nothing: -(1/2pi) (lo^-3 - hi^-3) / 3 and
        # -(1/4pi^2) (1/lo - 1/hi), to 1e-20
        (1, 1e100, 1e90, 1.0, -(1e10 ** -3 - 1e100 ** -3) / (6 * math.pi)),
        (3, 1e100, 1e90, 1.0, -(1e-10 - 1e-100) / (4 * math.pi ** 2)),
        # q^2 overflows at the top edge but at no node: -(1/4pi^2) (hi - lo),
        # to 1e-150
        (3, 1.3409e154, 2.0, 0.0, -0.5 * 1.3409e154 / (4 * math.pi ** 2)),
    ])
    def test_against_closed_forms(self, d, lam, b, L, closed):
        params = LGParams(t=1.0, K=1.0, L=L)
        shell = ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=1.0)
        for energy in (casimir_energy_density, dimensionless_energy_density):
            out = energy(params, shell)
            assert math.isclose(out.value, closed, rel_tol=1e-12)
            assert out.abs_error_estimate <= 1e-10 * abs(out.value)


@pytest.mark.parametrize("make, message", [
    (lambda: LGParams(t=math.inf, K=1.0), "t must be finite"),
    (lambda: LGParams(t=1.0, K=1.0, higher=(math.nan,)), "higher coefficients must be finite"),
    (lambda: ShellSpec(dim=3, cutoff=math.inf, shell_factor=2.0, temperature=1.0),
     "cutoff must be positive"),
    (lambda: ShellSpec(dim=3, cutoff=1.0, shell_factor=1.0, temperature=1.0),
     "shell factor must be > 1"),
    (lambda: ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=0.0),
     "temperature must be positive"),
    (lambda: mode_split_log_partition([], 2.0, math.nan), "cutoff must be positive"),
    (lambda: mode_split_log_partition([], math.inf, 1.0), "split factor b must be > 1"),
])
def test_input_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def power_law_energy(d, lam, b, T, K):
    """The shell energy at t = L = 0, from 40 digits: with g = K q^2 the
    integral of q^(d-3)/K is lam^(d-2) (1 - b^(2-d)) / (K (d-2)), or ln b / K
    at d = 2."""
    with mpmath.workdps(40):
        d, lam, b, T, K = (mpmath.mpf(v) for v in (d, lam, b, T, K))
        k_d = 2 * mpmath.pi ** (d / 2) / mpmath.gamma(d / 2) / (2 * mpmath.pi) ** d
        if d == 2:
            integral = mpmath.log(b) / K
        else:
            integral = lam ** (d - 2) * (1 - b ** (2 - d)) / (K * (d - 2))
        return float(-T * T / 2 * k_d * integral)


class TestInfiniteRange:
    """At the critical point t = 0 with L = 0 the kernel K q^2 has no length
    scale: the correlation length is infinite and the shell energy is the
    pure power law of the paper's Gaussian section."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam, b, T, K", [
        (1.0, 2.0, 1.0, 1.0), (0.3, 7.5, 2.0, 0.25), (40.0, 1.05, 0.5, 3.0), (2.5, 1e3, 1.0, 1e-3),
    ])
    def test_pure_power_law(self, d, lam, b, T, K):
        params = LGParams(t=0.0, K=K)
        shell = ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=T)
        out = casimir_energy_density(params, shell)
        exact = power_law_energy(d, lam, b, T, K)
        assert abs(out.value - exact) <= out.abs_error_estimate + 4.0 * math.ulp(exact)
        # the substitution q = sqrt(t/K) x collapses at this point
        with pytest.raises(ValueError, match="undefined for t <= 0"):
            dimensionless_energy_density(params, shell)


def _shell_primitive(d, q, a):
    """A primitive of q^(d-1) / (q^2 + a), a > 0."""
    r = mpmath.sqrt(a)
    if d == 1:
        return mpmath.atan(q / r) / r
    if d == 2:
        return mpmath.log(q * q + a) / 2
    if d == 3:
        return q - r * mpmath.atan(q / r)
    return q * q / 2 - a / 2 * mpmath.log(q * q + a)


def linear_kernel_energy(d, lam, b, T, t, K):
    """The shell energy of g = t + K u (t, K >= 0, not both 0) over the float
    shell lam/b < q < lam, from its closed form.  The primitives at the two
    edges cancel to about min(x, 1/x)^2 of their size (d = 4 at small x),
    x = K q^2 / t, so the working digits grow by twice the decades of x."""
    lo = lam / b
    digits = 40
    if t and K:
        digits += max(int(2 * abs(math.log10(t) - math.log10(K) - 2 * math.log10(q))) for q in (lo, lam))
    with mpmath.workdps(digits):
        lo, hi, T, t, K = (mpmath.mpf(v) for v in (lo, lam, T, t, K))
        if not K:
            integral = (hi ** d - lo ** d) / (d * t)
        elif not t:     # q^(d-3) / K
            integral = mpmath.log(hi / lo) / K if d == 2 else (hi ** (d - 2) - lo ** (d - 2)) / ((d - 2) * K)
        else:
            integral = (_shell_primitive(d, hi, t / K) - _shell_primitive(d, lo, t / K)) / K
        k_d = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2) / (2 * mpmath.pi) ** d
        return -T * T / 2 * k_d * integral


def quadratic_kernel_energy(d, lam, b, T, t, K, L):
    """The shell energy of g = t + K u + L u^2 (t, K > 0, L >= 0, K^2 > 4 t L)
    over the float shell lam/b < q < lam, exactly to 40 digits by partial
    fractions: g = L (u + a1)(u + a2) with a1, a2 > 0, or K (u + t/K) at L = 0."""
    with mpmath.workdps(40):
        lo, hi, T, t, K, L = (mpmath.mpf(v) for v in (lam / b, lam, T, t, K, L))

        def shell(a):
            return _shell_primitive(d, hi, a) - _shell_primitive(d, lo, a)
        if L == 0:
            integral = shell(t / K) / K
        else:
            s = mpmath.sqrt(K * K - 4 * t * L)
            a1, a2 = 2 * t / (K + s), (K + s) / (2 * L)
            integral = (shell(a1) - shell(a2)) / (L * (a2 - a1))
        k_d = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2) / (2 * mpmath.pi) ** d
        return -T * T / 2 * k_d * integral


class TestNearCriticalOracle:
    """Near criticality (t down to 1e-10, b up to 1e4) the whole feature of
    the integrand sits in the first few percent of the shell, where a single
    starting panel's 15 nodes can miss it; the geometric starting panels keep
    every panel's edge ratio at most 2."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), log_lam=st.floats(0.0, 1.0), log_b=st.floats(1.0, 4.0),
           T=st.floats(0.5, 2.0), log_t=st.floats(-10.0, -2.0), K=st.floats(0.5, 2.0),
           L=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), dimensionless=st.booleans())
    # shells that a single starting panel under-claimed by 1.6e-10 and
    # 2.6e-11 of their value
    @example(d=4, log_lam=math.log10(1.5904010268906799), log_b=math.log10(5224.342438481991),
             T=0.5481243326135424, log_t=math.log10(1.107096007263096e-10), K=1.2255154791361147,
             L=0.4226695569082125, dimensionless=False)
    @example(d=4, log_lam=math.log10(5.6962755851679105), log_b=math.log10(9548.90096419825),
             T=1.5246719620438265, log_t=math.log10(1.8381105577268032e-10), K=0.9463915730004264,
             L=0.0, dimensionless=True)
    def test_error_estimate_covers_the_exact_energy(self, d, log_lam, log_b, T, log_t, K, L, dimensionless):
        lam, b, t = 10.0 ** log_lam, 10.0 ** log_b, 10.0 ** log_t
        fn = dimensionless_energy_density if dimensionless else casimir_energy_density
        out = fn(LGParams(t=t, K=K, L=L), ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=T))
        exact = quadratic_kernel_energy(d, lam, b, T, t, K, L)
        assert abs(out.value - exact) <= out.abs_error_estimate

    @pytest.mark.parametrize("b", [1.05, 1.5, 2.0])
    def test_shells_up_to_ratio_two_keep_one_panel(self, b):
        # the same call, bit for bit, as integrate over the shell alone
        params, shell = LGParams(t=1e-6, K=1.0, L=0.5), ShellSpec(dim=3, cutoff=1.0, shell_factor=b, temperature=1.0)
        out = casimir_energy_density(params, shell)
        raw = integrate(integrand(params.coefficients, 3), 1.0 / b, 1.0, rel_tol=1e-10)
        pref = -0.5 * radial_measure(3)
        assert (out.value.hex(), out.evaluations) == ((pref * raw.value).hex(), raw.evaluations)

    def test_wide_shell_starts_from_one_panel_per_octave(self):
        # [1e-3, 1] spans ten octaves: ten starting panels, 150 evaluations
        # at least, and fewer than the one-panel run spends
        params, shell = LGParams(t=1e-10, K=1.0), ShellSpec(dim=1, cutoff=1.0, shell_factor=1e3, temperature=1.0)
        out = casimir_energy_density(params, shell)
        one_panel = integrate(integrand(params.coefficients, 1), 1e-3, 1.0, rel_tol=1e-10)
        assert 150 <= out.evaluations < one_panel.evaluations


def dip_energy(coeffs, d, lo, hi, minima):
    """-(1/2) k_d times the integral of q^(d-1) / g(q^2) over [lo, hi], g the
    float coefficients taken exactly, by 30-digit mpmath.quad split at the
    minima inside the shell."""
    with mpmath.workdps(30):
        c = [mpmath.mpf(cm) for cm in coeffs]
        splits = sorted(mpmath.sqrt(u) for u in minima if lo * lo < u < hi * hi)
        integral = mpmath.quad(lambda q: q ** (d - 1) / mpmath.polyval(c[::-1], q * q),
                               [lo, *splits, hi])
        k_d = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2) / (2 * mpmath.pi) ** d
        return float(-k_d / 2 * integral)


def octave_points(lo, hi):
    points, x = [], 2.0 * lo
    while x < hi:
        points.append(x)
        x *= 2.0
    return points


# a shell lam / b < q < lam, lam = sqrt(u0) b^x, around a dip at u0 (and one
# at u1 = ratio u0 for a quintic)
DIP_SHELLS = dict(d=st.integers(1, 4), b=st.floats(1.2, 8.0), x=st.floats(0.1, 0.9),
                  u0=st.floats(0.5, 3.0), c=st.floats(0.05, 0.26),
                  ratio=st.one_of(st.none(), st.floats(1.3, 2.5)))


def dip_shell(d, b, x, u0, c, ratio, log_eps):
    """(kernel, shell, minima): (u - u0)^2 (u + c u0)^2 + eps, or with ratio
    the two-dip quintic (u - u0)^2 (u - ratio u0)^2 (u + c u0) + eps, eps
    10^log_eps times the size of the expanded terms at the top minimum, sum
    |c_m| u^m, whose rounding sets how deep a dip integrate resolves.  The
    quintic needs K < 0 or L < 0, so LGParams does not admit it; the energy
    functions read only its coefficients."""
    if ratio is None:
        minima, roots = [u0], [u0, u0, -c * u0, -c * u0]
    else:
        minima = [u0, ratio * u0]
        roots = [u0, u0, ratio * u0, ratio * u0, -c * u0]
    size = math.fsum(abs(cm) * minima[-1] ** m for m, cm in enumerate(dip_kernel(roots, 0.0)))
    coeffs = dip_kernel(roots, 10.0 ** log_eps * size)
    params = LGParams(*coeffs[:3], coeffs[3:]) if ratio is None else SimpleNamespace(coefficients=coeffs)
    lam = math.sqrt(u0) * b ** x
    return params, ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=1.0), minima


class TestDipOracle:
    """Kernels with a near-zero minimum inside the shell, whose integrand is a
    narrow peak: their starting points include a ladder around the minimum."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_eps=st.floats(-4.0, -1.0),
           energy=st.sampled_from([casimir_energy_density, dimensionless_energy_density]), **DIP_SHELLS)
    def test_error_estimate_covers_the_exact_energy(self, d, b, x, u0, c, ratio, log_eps, energy):
        # below eps = 1e-4 of the terms the float kernel's own rounding near
        # the dip reaches about 1e-10 of the energy, integrate's tolerance;
        # the quintic's K may be negative, where the dimensionless form is
        # undefined
        assume(ratio is None or energy is casimir_energy_density)
        params, shell, minima = dip_shell(d, b, x, u0, c, ratio, log_eps)
        out = energy(params, shell)
        exact = dip_energy(params.coefficients, d, shell.cutoff / b, shell.cutoff, minima)
        assert abs(out.value - exact) <= out.abs_error_estimate

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(log_eps=st.floats(-6.0, -1.0), **DIP_SHELLS)
    def test_agrees_with_the_octave_start(self, d, b, x, u0, c, ratio, log_eps):
        # deeper dips, where the float kernel's rounding defeats the mpmath
        # reference: the octave-only run is the reference, to both estimates
        params, shell, _ = dip_shell(d, b, x, u0, c, ratio, log_eps)
        out = casimir_energy_density(params, shell)
        lo, hi = shell.cutoff / b, shell.cutoff
        raw = integrate(integrand(params.coefficients, d), lo, hi, rel_tol=1e-10,
                        breakpoints=octave_points(lo, hi))
        size = 0.5 * radial_measure(d)
        assert abs(out.value + size * raw.value) <= out.abs_error_estimate + size * raw.abs_error_estimate

    def test_peaked_kernel_spends_fewer_evaluations(self):
        # the golden case gaussian-energy-peaked-higher: the minimum is u = 2
        params = LGParams(t=0.25016, K=1.75, L=2.0625, higher=(-3.5, 1.0))
        out = casimir_energy_density(params, ShellSpec(dim=3, cutoff=2.0, shell_factor=2.0, temperature=1.0))
        octaves_only = integrate(integrand(params.coefficients, 3), 1.0, 2.0, rel_tol=1e-10)
        assert (out.evaluations, octaves_only.evaluations) == (315, 705)
        assert abs(out.value - -1.9734955180621338) <= out.abs_error_estimate

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), lam=st.floats(0.1, 10.0), b=st.floats(1.05, 1e3),
           t=st.floats(1e-6, 10.0), K=st.just(0.0) | st.floats(1e-3, 10.0),
           L=st.just(0.0) | st.floats(1e-3, 10.0), higher=st.lists(st.just(0.0) | st.floats(1e-3, 10.0), max_size=3))
    def test_no_negative_coefficient_keeps_the_octave_start(self, d, lam, b, t, K, L, higher):
        # no minimum inside the shell: the same call, bit for bit, as integrate
        # from the octave points
        params = LGParams(t=t, K=K, L=L, higher=tuple(higher))
        out = casimir_energy_density(params, ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=1.0))
        raw = integrate(integrand(params.coefficients, d), lam / b, lam, rel_tol=1e-10,
                        breakpoints=octave_points(lam / b, lam))
        assert (out.value.hex(), out.evaluations) == ((-0.5 * radial_measure(d) * raw.value).hex(),
                                                      raw.evaluations)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coeffs=st.lists(st.just(0.0) | _DECADES.flatmap(lambda v: st.sampled_from([v, -v])),
                           min_size=1, max_size=7),
           lam=_DECADES, log_b=st.floats(0.001, 300.0))
    def test_finder_stays_inside_the_shell(self, coeffs, lam, log_b):
        a = lam / 10.0 ** log_b
        assume(a > 0.0)
        points = _dip(coeffs, a, lam)
        assert all(a < q < lam for q in points)
        assert len(set(points)) == len(points)

    @pytest.mark.parametrize("b, evaluations", [(1e4, 525), (1e6, 645)])
    def test_finder_on_a_wide_shell(self, b, evaluations):
        # the least of the 17 samples is u = 1, the minimum, but its left
        # neighbour 10^-0.5 lies past g's local maximum u = 0.4, where g' > 0;
        # the two cells sampled once more bracket it.  Octaves alone took 750
        # and 930 evaluations
        coeffs = peaked(1.0, 0.2, 1e-4)
        assert _dip(coeffs, 1.0 / math.sqrt(b), math.sqrt(b))[0] == pytest.approx(1.0, rel=1e-9)
        out = casimir_energy_density(LGParams(*coeffs[:3], coeffs[3:]),
                                     ShellSpec(dim=3, cutoff=math.sqrt(b), shell_factor=b, temperature=1.0))
        assert out.evaluations == evaluations

    def test_finder_gives_up_where_the_second_sampling_brackets_nothing(self):
        # nearly flat: the least sample of the shell and then of its two
        # cells sits where g' does not change sign across them
        coeffs = (1.0000000000000013, -4.255283424180028e-14, 5.41440661047875e-13,
                  -3.061898039715702e-12, 6.493245899377898e-12)
        assert _dip(coeffs, 0.07827945926760778, 2.1946597080012977) == []

    def test_finder_stops_bisecting_a_closed_bracket(self):
        # Newton's steps leave the bracket until it closes to 2e-9 relative
        coeffs = (1.0000000002217522, -2.0780971835370655e-10, 8.114327922102871e-11, -1.689810419494116e-11,
                  1.979456395772104e-12, -1.2366665759459916e-13, 3.219200785226712e-15)
        assert _dip(coeffs, 0.3034237133658801, 13.480682436549985) == [2.5319597473884587]

    @pytest.mark.parametrize("energy", [casimir_energy_density, dimensionless_energy_density])
    def test_one_dip_search_per_shell(self, monkeypatch, energy):
        # the dimensionless form maps the ladder it integrates from, and
        # does not search the reduced kernel again
        calls = []
        monkeypatch.setattr(gaussian, "_dip", lambda *args: calls.append(args) or _dip(*args))
        params = LGParams(t=0.25016, K=1.75, L=2.0625, higher=(-3.5, 1.0))
        out = energy(params, ShellSpec(dim=3, cutoff=2.0, shell_factor=2.0, temperature=1.0))
        assert len(calls) == 1
        assert abs(out.value - -1.9734955180621338) <= out.abs_error_estimate

    @pytest.mark.parametrize("scale", [1e300, 1e-303])
    def test_finder_at_the_float_range_ends(self, scale):
        # the golden peaked kernel times scale: its minimum stays at u = 2
        coeffs = [scale * cm for cm in (0.25016, 1.75, 2.0625, -3.5, 1.0)]
        points = _dip(coeffs, 1.0, 2.0)
        assert points[0] == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert all(1.0 < q < 2.0 for q in points) and len(points) > 10


class TestDimensionlessForm:
    def test_identity_substitution(self):
        params = LGParams(t=1.0, K=1.0)
        shell = ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        direct = casimir_energy_density(params, shell)
        mapped = dimensionless_energy_density(params, shell)
        assert mapped.value == pytest.approx(-4.51511e-3, rel=1e-5)
        assert abs(mapped.value - direct.value) <= (
            direct.abs_error_estimate + mapped.abs_error_estimate
        )

    def test_nontrivial_substitution(self):
        params = LGParams(t=4.0, K=1.0)
        shell = ShellSpec(dim=2, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        direct = casimir_energy_density(params, shell)
        mapped = dimensionless_energy_density(params, shell)
        assert abs(mapped.value - direct.value) <= (
            direct.abs_error_estimate + mapped.abs_error_estimate
        )

    def test_change_of_variables_identity_on_subgrid(self):
        for t in (0.5, 4.0):
            for K in (0.5, 2.0):
                for L in (0.0, 0.1):
                    for d in (1, 3):
                        params = LGParams(t=t, K=K, L=L)
                        shell = ShellSpec(dim=d, cutoff=1.0, shell_factor=1.2, temperature=1.0)
                        direct = casimir_energy_density(params, shell)
                        mapped = dimensionless_energy_density(params, shell)
                        assert abs(mapped.value - direct.value) <= (
                            direct.abs_error_estimate + mapped.abs_error_estimate
                        )

    def test_subnormal_reduced_coefficient(self):
        # h t^3 = 9.0e-323 is subnormal: the plain reduced coefficient
        # h t^3 / K^4 was 1.6104e-249, not 1.6317e-249, and the energy -2.79487e21
        params = LGParams(t=1.482348213588199e-92, K=4.847610908422039e-19,
                          higher=(0.0, 2.7662531209866225e-47))
        shell = ShellSpec(3, 11744084129130.31, 1.0062205635208438e+68, 1.0)
        direct = casimir_energy_density(params, shell)
        mapped = dimensionless_energy_density(params, shell)
        assert abs(mapped.value - direct.value) <= (
            direct.abs_error_estimate + mapped.abs_error_estimate
        )

    def test_critical_point_rejected(self):
        with pytest.raises(ValueError):
            dimensionless_energy_density(
                LGParams(t=0.0, K=1.0),
                ShellSpec(dim=3, cutoff=1.0, shell_factor=2.0, temperature=1.0),
            )


class TestLeadingScaling:
    def test_matches_constant_kernel_quadrature_exactly(self):
        shell = ShellSpec(dim=1, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        prediction = leading_scaling_prediction(shell, 1.0)
        assert prediction == pytest.approx(D1_EXACT, rel=1e-15)
        quadrature = casimir_energy_density(LGParams(t=1.0, K=0.0), shell)
        assert prediction == pytest.approx(quadrature.value, rel=1e-12)

    def test_t_dominated_regime(self):
        # K cutoff^2 / t = 1e-4: correction to the constant-kernel form is
        # of that order, so 0.01% agreement
        shell = ShellSpec(dim=3, cutoff=0.01, shell_factor=2.0, temperature=1.0)
        quadrature = casimir_energy_density(LGParams(t=1.0, K=1.0), shell)
        prediction = leading_scaling_prediction(shell, 1.0)
        assert quadrature.value == pytest.approx(prediction, rel=1e-4)

    def test_regime_agreement_invariant(self):
        for d in (1, 2, 3, 4):
            for t, K, L in ((1.0, 1.0, 0.0), (2.0, 1.0, 1.0)):
                cutoff = 1e-3
                if K * cutoff ** 2 / t + L * cutoff ** 4 / t > 1e-4:
                    continue
                shell = ShellSpec(dim=d, cutoff=cutoff, shell_factor=1.5, temperature=1.0)
                quadrature = casimir_energy_density(LGParams(t=t, K=K, L=L), shell)
                prediction = leading_scaling_prediction(shell, t)
                assert quadrature.value == pytest.approx(prediction, rel=1e-4)

    def test_empty_shell_limit(self):
        shell = ShellSpec(dim=2, cutoff=1.0, shell_factor=1.0 + 1e-12, temperature=1.0)
        assert abs(leading_scaling_prediction(shell, 1.0)) < 1e-11

    def test_invalid_regime(self):
        shell = ShellSpec(dim=2, cutoff=1.0, shell_factor=2.0, temperature=1.0)
        with pytest.raises(ValueError):
            leading_scaling_prediction(shell, 0.0)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        samples = [(a, -2.5 * a ** -4) for a in (1.0, 2.0, 3.5, 7.0, 10.0)]
        exponent, r_squared = fit_power_law(samples)
        assert exponent == pytest.approx(-4.0, rel=1e-12)
        assert r_squared == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_sweep_d2(self):
        # scale = shell_factor / cutoff behaves like a plate distance
        b = 1.05
        samples = []
        for i in range(8):
            cutoff = 1e-3 * (10.0 ** (i / 7.0))
            shell = ShellSpec(dim=2, cutoff=cutoff, shell_factor=b, temperature=1.0)
            out = casimir_energy_density(LGParams(t=1.0, K=1.0), shell)
            samples.append((b / cutoff, out.value))
        exponent, r_squared = fit_power_law(samples)
        assert exponent == pytest.approx(-2.0, rel=0.02)
        assert r_squared > 0.9999

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, -1.0), (2.0, -0.1)])

    def test_mixed_signs_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, -1.0), (2.0, 0.1), (3.0, -0.01)])

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, -1.0), (2.0, 0.0), (3.0, -0.01)])

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.0, -1.0), (2.0, -0.1), (3.0, -0.01)])

    def test_equal_scales_rejected(self):
        with pytest.raises(ValueError, match="two distinct scales"):
            fit_power_law([(2.0, -1.0), (2.0, -0.1), (2.0, -0.01)])

    def test_slope_against_exact_least_squares(self):
        # noisy power laws of 3-16 points; the oracle is the exact rational
        # least-squares slope of the same float logs.  A scan of 3000 such
        # fits found a largest relative error of 3.9e-16 (np.polyfit: 3.4e-13)
        rng = random.Random(7)
        for _ in range(500):
            n, p, c = rng.randint(3, 16), rng.uniform(-6.0, 6.0), -rng.uniform(1e-3, 1e3)
            s0, span = math.exp(rng.uniform(-8.0, 8.0)), math.exp(rng.uniform(0.01, 6.0))
            scales = [s0 * span ** (i / (n - 1)) for i in range(n)]
            samples = [(s, c * s ** p * (1.0 + rng.gauss(0.0, 1e-3))) for s in scales]
            lx = [Fraction(math.log(s)) for s, _ in samples]
            ly = [Fraction(math.log(abs(e))) for _, e in samples]
            mx, my = sum(lx) / n, sum(ly) / n
            exact = (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
                     / sum((a - mx) ** 2 for a in lx))
            exponent, _ = fit_power_law(samples)
            assert abs(Fraction(exponent) - exact) <= 1e-15 * abs(exact)
