import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sscasimir.series import (
    ContinuedFraction,
    DegenerateSeriesError,
    InsufficientConvergentsError,
    NormalizationError,
    PowerSeries,
    RegularizedSum,
    SingularInputError,
    convergents,
    project_to_circle,
    regularized_geometric_sum,
    self_similar_sum,
    to_continued_fraction,
)


def brute_force_limit(coeffs, x, terms=20000):
    """Oracle: direct partial sums of a convergent series, no fraction involved."""
    acc = 0.0
    xp = 1.0
    ratio = coeffs[-1] / coeffs[-2] if len(coeffs) > 1 else 0.0
    for i in range(terms):
        c = coeffs[i] if i < len(coeffs) else coeffs[-1] * ratio ** (i - len(coeffs) + 1)
        term = c * xp
        acc += term
        xp *= x
        if abs(term) <= 1e-18 * abs(acc) and i >= len(coeffs):
            break
    return acc


def symbolic_fraction(b_coeffs, x):
    """Oracle: the nested fraction built symbolically, innermost level first."""
    expr = sympy.Integer(0)
    for b in reversed(b_coeffs[1:]):
        expr = sympy.Rational(b) * x / (1 + expr)
    return sympy.Rational(b_coeffs[0]) / (1 + expr)


class TestRegularizedGeometricSum:
    def test_divergent_point(self):
        assert regularized_geometric_sum(1.0, 2.0) == -1.0

    def test_convergent_point(self):
        assert regularized_geometric_sum(1.0, 0.5) == 2.0

    def test_zero_series(self):
        assert regularized_geometric_sum(0.0, 5.0) == 0.0

    def test_negative_for_all_x_above_one(self):
        for x in (1.5, 2.0, 3.0, 10.0, 1e6):
            assert regularized_geometric_sum(1.0, x) < 0.0

    def test_pole_rejected(self):
        with pytest.raises(SingularInputError):
            regularized_geometric_sum(1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            regularized_geometric_sum(math.inf, 2.0)

    @given(
        a=st.floats(min_value=-100, max_value=100, allow_nan=False),
        x=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_fixed_point_identity(self, a, x):
        # S = a + x S  <=>  S (1 - x) = a, up to a couple of roundings
        assume(abs(x - 1.0) > 1e-6)
        s = regularized_geometric_sum(a, x)
        assert abs(s * (1.0 - x) - a) <= 4.5e-16 * max(abs(a), 1e-300)


class TestToContinuedFraction:
    def test_geometric_series_coefficients(self):
        # expected coefficients derived by expanding the fraction symbolically
        # (see test_symbolic_round_trip); the tail terminates exactly
        cf = to_continued_fraction(PowerSeries((1.0, 1.0, 1.0, 1.0)))
        assert cf.coefficients == (1.0, -1.0, 0.0, 0.0)

    def test_single_coefficient(self):
        cf = to_continued_fraction(PowerSeries((4.25,)))
        assert cf.coefficients == (4.25,)
        assert convergents(cf, 17.0, 1) == [4.25]

    def test_powers_of_two_series(self):
        # brute-force partial sums of sum 2^i x^i at x = 0.25 head to 2
        cf = to_continued_fraction(PowerSeries((1.0, 2.0, 4.0, 8.0)))
        seq = convergents(cf, 0.25, 4)
        oracle = brute_force_limit([1.0, 2.0, 4.0, 8.0], 0.25)
        assert oracle == pytest.approx(2.0, rel=1e-12)
        assert seq[-1] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1.0, 1.0, 1.0, 1.0),
            (1.0, 2.0, 4.0, 8.0),
            (1.0, 1.0, 2.0),
            (2.0, -1.0, 0.75, 3.0),
            (3.0, 0.25, -1.5, 2.0, 1.0),
        ],
    )
    def test_symbolic_round_trip(self, coeffs):
        # expanding the fraction symbolically must reproduce the series
        # term by term up to the supplied order
        cf = to_continued_fraction(PowerSeries(coeffs))
        x = sympy.Symbol("x")
        expansion = sympy.series(symbolic_fraction(cf.coefficients, x), x, 0, len(coeffs))
        for i, expected in enumerate(coeffs):
            got = float(expansion.coeff(x, i))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(NormalizationError):
            to_continued_fraction(PowerSeries((0.0, 1.0, 2.0)))

    def test_degenerate_intermediate_division(self):
        # the remainder after the first level starts with an exact zero but
        # is not identically zero, so no fraction of this form exists
        with pytest.raises(DegenerateSeriesError):
            to_continued_fraction(PowerSeries((1.0, 0.0, 0.0, 1.0)))


class TestConvergents:
    def test_geometric_beyond_first(self):
        cf = to_continued_fraction(PowerSeries((1.0,) * 4))
        seq = convergents(cf, 2.0, 3)
        assert seq[0] == 1.0
        assert seq[1:] == [-1.0, -1.0]

    def test_short_series_against_partial_sums(self):
        series = PowerSeries((1.0, 1.0, 1.0))
        assert series.partial_sums(0.5) == [1.0, 1.5, 1.75]
        cf = to_continued_fraction(series)
        seq = convergents(cf, 0.5, 2)
        assert seq[-1] == pytest.approx(2.0, rel=1e-12)

    def test_zero_denominator_is_gap_not_abort(self):
        cf = ContinuedFraction((1.0, -1.0, 5.0))
        seq = convergents(cf, 1.0, 3)
        assert math.isnan(seq[1])  # 1/(1 - 1) below the top level
        assert not math.isnan(seq[0]) and not math.isnan(seq[2])

    def test_count_bounds(self):
        cf = ContinuedFraction((1.0, 2.0))
        with pytest.raises(ValueError):
            convergents(cf, 1.0, 0)
        with pytest.raises(ValueError):
            convergents(cf, 1.0, 3)


class TestSelfSimilarSum:
    def test_constant_series_divergent_point(self):
        out = self_similar_sum(PowerSeries((1.0,) * 5), 3.0, 1e-12)
        assert out.converged
        assert out.value == pytest.approx(-0.5, rel=1e-14)
        assert out.residual <= 1e-12

    def test_constant_series_convergent_point(self):
        out = self_similar_sum(PowerSeries((1.0,) * 5), 0.5, 1e-12)
        assert out.converged
        assert out.value == pytest.approx(2.0, rel=1e-14)

    def test_ratio_two_series(self):
        # composite ratio 2 * 2 = 4: the fixed point S = 1 + 4 S
        out = self_similar_sum(PowerSeries((1.0, 2.0, 4.0, 8.0, 16.0)), 2.0, 1e-12)
        assert out.converged
        assert out.value == pytest.approx(-1.0 / 3.0, rel=1e-14)

    def test_insufficient_convergents(self):
        with pytest.raises(InsufficientConvergentsError):
            self_similar_sum(PowerSeries((2.0,)), 1.0, 1e-10)

    def test_value_beyond_the_float_range_names_it(self):
        # the fifth convergent at x = 1e200 overflows, and so does its gap to the fourth
        series = PowerSeries((1.7976931348623157e+308, 1e+308, 1.7976931348623157e+308,
                              -1.0000000000000002, -3.0))
        with pytest.raises(ValueError, match="^value beyond the float range: "):
            self_similar_sum(series, 1e+200)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            self_similar_sum(PowerSeries((1.0, 1.0)), 2.0, 0.0)

    @given(
        cm=st.integers(min_value=1, max_value=80).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        rk=st.integers(min_value=1, max_value=28).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        x=st.floats(min_value=-0.85, max_value=0.85),
        n=st.integers(min_value=5, max_value=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_convergent_regime_matches_partial_sums(self, cm, rk, x, n):
        # dyadic c and r keep the products exact, so the coefficient
        # sequence is geometric in floating point too
        c, r = cm / 8.0, rk / 16.0
        assume(abs(x) > 1e-3)
        assume(abs(r * x) < 0.9)
        coeffs = [c]
        for _ in range(n - 1):
            coeffs.append(coeffs[-1] * r)
        tol = 1e-10
        out = self_similar_sum(PowerSeries(tuple(coeffs)), x, tol)
        oracle = brute_force_limit(coeffs, x)
        assert out.converged
        assert abs(out.value - oracle) <= 10 * tol * max(1.0, abs(oracle))

    @given(
        a=st.floats(min_value=0.1, max_value=10).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        x=st.floats(min_value=1.05, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_divergent_regime_matches_geometric_continuation(self, a, x):
        tol = 1e-10
        out = self_similar_sum(PowerSeries((a,) * 5), x, tol)
        target = regularized_geometric_sum(a, x)
        assert out.converged
        assert abs(out.value - target) <= 10 * tol * max(1.0, abs(target))


# The level-by-level transform and scan that the incremental tableau replaced,
# kept as the oracle.  The only departure from that code: the degenerate
# error carries the coefficients found before the degenerate level.


class OldDegenerate(Exception):
    def __init__(self, prefix):
        super().__init__("intermediate coefficient ~0")
        self.prefix = prefix


def old_divide_series(num, den, order):
    q = []
    for k in range(order):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, k + 1):
            if j < len(den):
                acc -= den[j] * q[k - j]
        q.append(acc / den[0])
    return q


def old_to_continued_fraction(coeffs):
    coeffs = list(coeffs)
    n = len(coeffs)
    if abs(coeffs[0]) < 1e-300:
        raise NormalizationError("leading coefficient a0 must be nonzero")
    b = []
    current = coeffs
    while len(b) < n:
        lead = current[0]
        if abs(lead) < 1e-300:
            if all(abs(c) < 1e-300 for c in current):
                b.extend([0.0] * (n - len(b)))
                break
            raise OldDegenerate(b)
        b.append(lead)
        if len(b) == n:
            break
        shifted = [-c for c in current[1:]]
        current = old_divide_series(shifted, current, len(current) - 1)
    return b


def old_convergents(b, x, n):
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


def old_scan(b, x):
    # the former self_similar_sum after its transform, tol = 1e-10
    tol = 1e-10
    seq = old_convergents(b, x, len(b))
    defined = [(i, v) for i, v in enumerate(seq) if not math.isnan(v)]
    if len(defined) < 2:
        raise InsufficientConvergentsError("fewer than two defined convergents")
    prev_val = defined[0][1]
    for idx, val in defined[1:]:
        residual = abs(val - prev_val)
        if residual <= tol:
            return RegularizedSum(val, True, idx + 1, residual)
        prev_val = val
    last_idx, last_val = defined[-1]
    return RegularizedSum(last_val, False, last_idx + 1, abs(last_val - defined[-2][1]))


def expected_sum(coeffs, x):
    """The former self_similar_sum, except that a convergent accepted before
    the degenerate level is returned instead of the error."""
    try:
        b = old_to_continued_fraction(coeffs)
    except OldDegenerate as err:
        try:
            accepted = old_scan(err.prefix, x)
        except InsufficientConvergentsError:
            accepted = None
        if accepted is None or not accepted.converged:
            raise DegenerateSeriesError("intermediate coefficient ~0") from None
        return accepted
    return old_scan(b, x)


def outcome(fn, *args):
    """What a call returned, floats as hex, or the class of the error it raised."""
    try:
        got = fn(*args)
    except (NormalizationError, DegenerateSeriesError, InsufficientConvergentsError) as err:
        return type(err).__name__
    except OldDegenerate:
        return "DegenerateSeriesError"
    if isinstance(got, RegularizedSum):
        return (got.value.hex(), got.converged, got.convergents_used, got.residual.hex())
    return [c.hex() for c in (got.coefficients if isinstance(got, ContinuedFraction) else got)]


def assert_same_as_old(coeffs, x):
    coeffs = tuple(float(c) for c in coeffs)
    series = PowerSeries(coeffs)
    b = outcome(to_continued_fraction, series)
    assert b == outcome(old_to_continued_fraction, coeffs)
    if isinstance(b, list):
        cf = ContinuedFraction(tuple(float.fromhex(c) for c in b))
        assert outcome(convergents, cf, x, len(b)) == outcome(old_convergents, cf.coefficients, x, len(b))
    assert outcome(self_similar_sum, series, x) == outcome(expected_sum, coeffs, x)


def rounded_geometric(a0, r, n):
    return [a0 * r ** i for i in range(n)]


class TestIncrementalTableau:
    """The tableau builds the former transform's coefficients bit for bit
    and self_similar_sum stops at the convergent the former scan accepted."""

    @given(
        coeffs=st.lists(
            st.one_of(st.floats(min_value=-4, max_value=4), st.integers(-2, 2).map(float)),
            min_size=1, max_size=60,
        ),
        x=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_prefixes_match_the_former_transform(self, coeffs, x):
        assert_same_as_old(coeffs, x)

    @pytest.mark.parametrize(
        "coeffs, x",
        [
            (rounded_geometric(1.3, 0.3067737357005033 / 1.3, 6), -2.818346432129218),
            (rounded_geometric(-0.7, 2.9, 30), 0.2),
            (rounded_geometric(1.1, -1.7, 25), 2.5),
            ([float((-1) ** i * math.factorial(i)) for i in range(40)], 0.05),
            ([float((-1) ** i * math.factorial(i)) for i in range(60)], 0.1),
            ([1.0, 2.0, 4.0, 8.0] + [0.0] * 12, 0.25),
            ([3.0, -1.0] + [0.0] * 20, 4.0),
            ([1.0, 0.0, 0.0, 1.0], 0.5),
            ([1.0, 0.0, 4.0, 0.0, 16.0, 0.0, 64.0], 0.3),
            ([1.0, 2.0, -1.0, 1.0, -1.0, 1.0, 2.0, 2.0, 0.0, -1.0, -1.0, -1.0, 0.0], 0.25),
            ([1e-310, 1.0, 2.0], 0.5),
            ([2.0, 1e-305, 1e-305], 1.5),
        ],
    )
    def test_families_match_the_former_transform(self, coeffs, x):
        assert_same_as_old(coeffs, x)

    def test_degenerate_level_after_the_accepted_convergent(self):
        # the former code raised DegenerateSeriesError here: level 8 of the
        # fraction is degenerate, but convergents 5 and 6 agree exactly
        coeffs = (1.0, 2.0, -1.0, 1.0, -1.0, 1.0, 2.0, 2.0, 0.0, -1.0, -1.0, -1.0, 0.0)
        with pytest.raises(OldDegenerate):
            old_to_continued_fraction(coeffs)
        out = self_similar_sum(PowerSeries(coeffs), 0.25)
        assert (out.value, out.converged, out.convergents_used) == (1.45, True, 6)
        # oracle: convergent 6 of the exact-rational fraction of a_0..a_5
        b = [Fraction(c) for c in old_to_continued_fraction([Fraction(c) for c in coeffs[:6]])]
        exact = Fraction(0)
        for bk in reversed(b[1:]):
            exact = bk * Fraction(1, 4) / (1 + exact)
        assert b[0] / (1 + exact) == Fraction(29, 20)
        assert out.value == float(Fraction(29, 20))
        with pytest.raises(DegenerateSeriesError):
            to_continued_fraction(PowerSeries(coeffs))

    @pytest.mark.parametrize(
        "coeffs, x, terminating, value",
        [
            # 1/(1 - r x) rounded: level 2 starts with an exact zero and the
            # rest of it is rounding noise
            (rounded_geometric(1.3, 0.3067737357005033 / 1.3, 6), -2.818346432129218, 4,
             0.780746635160357),
            # 1/(1 - 4 x^2): level 1 starts with an exact zero and the rest
            # of it is not small
            ([1.0, 0.0, 4.0, 0.0, 16.0, 0.0, 64.0], 0.3, 2, 1.0),
        ],
    )
    def test_zero_head_of_a_degenerate_level_is_no_convergent(self, coeffs, x, terminating, value):
        # a convergent ending with that zero would repeat the one before it
        # and be accepted: right for the first series, wrong for the second
        # (1/(1 - 0.36) = 1.5625).  Both raise, as before
        with pytest.raises(DegenerateSeriesError):
            self_similar_sum(PowerSeries(tuple(coeffs)), x)
        # a prefix whose zero level vanishes whole ends the fraction there
        out = self_similar_sum(PowerSeries(tuple(coeffs[:terminating])), x)
        assert (out.value, out.converged) == (value, True)


class TestProjectToCircle:
    def test_origin_maps_to_bottom(self):
        assert project_to_circle(0.0) == (0.0, -1.0)

    def test_unit_point(self):
        # oracle: intersection of the line through (0,1) and (1,0) with the
        # unit circle solves 2 u^2 - 2 u = 0 along (u, 1-u), so u = 1
        px, py = project_to_circle(1.0)
        assert (px, py) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_large_t_approaches_pole(self):
        for t in (1e6, -1e6, 1e300, -1e300):
            px, py = project_to_circle(t)
            assert abs(px) < 1e-5
            assert py == pytest.approx(1.0, abs=1e-11)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            project_to_circle(math.nan)

    @given(t=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    @settings(max_examples=500)
    def test_lands_on_unit_circle(self, t):
        px, py = project_to_circle(t)
        assert abs(px * px + py * py - 1.0) <= 1e-12

    @staticmethod
    def angle_from_bottom(t):
        # atan2(px, -py) grows from 0 at the bottom towards pi at the pole;
        # exactly, it is 2 atan(t)
        px, py = project_to_circle(t)
        return math.atan2(px, -py)

    @given(
        t1=st.floats(min_value=0, max_value=1e12),
        t2=st.floats(min_value=0, max_value=1e12),
    )
    @settings(max_examples=300)
    def test_angle_from_bottom_monotone(self, t1, t2):
        # the exact angle gap 2 (atan t2 - atan t1) must exceed the rounding
        # of two angles near pi
        assume(t1 < t2)
        assume(2.0 * math.atan((t2 - t1) / (1.0 + t1 * t2)) > 4 * math.ulp(math.pi))
        assert self.angle_from_bottom(t1) < self.angle_from_bottom(t2)

    @given(
        t1=st.floats(min_value=0, max_value=1e12),
        t2=st.floats(min_value=0, max_value=1e12),
    )
    @example(t1=509873650901.0, t2=509873651411.0)  # true angles 4e-21 apart
    @settings(max_examples=300)
    def test_angle_from_bottom_never_goes_back(self, t1, t2):
        # closer pairs than the strict test admits: no step back beyond the
        # angle's own rounding (adjacent floats such as 0.34301701820918457
        # and the next one above it go back by one ulp)
        assume(t1 < t2)
        angle1 = self.angle_from_bottom(t1)
        assert angle1 <= self.angle_from_bottom(t2) + 2 * math.ulp(angle1)


class TestPowerSeriesValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries(())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries((1.0, math.inf))
