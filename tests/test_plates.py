import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscasimir.plates import (
    EnergyDensity,
    FieldKind,
    StackConfig,
    StackDirection,
    combined_stack_energy,
    contraction_stack_energy,
    force_per_area,
    functional_equation_residual,
    inflation_stack_energy,
    pair_interaction_energy,
    stack_energy,
    truncated_stack_energy,
)
from sscasimir import plates
from sscasimir.plates import _pair_energy, _power, _scaled

PI_SQ = math.pi ** 2

GRID_A = (0.1, 1.0, 10.0)
GRID_X = (1.01, 1.5, 2.0, 3.0, 10.0)


def brute_force_stack(a, x, n_plates, direction):
    """Oracle: nearest-neighbor pair sum from explicit plate positions."""
    if direction is StackDirection.INFLATION:
        z = [x ** k * a for k in range(1, n_plates + 1)]
    else:
        z = [a / x ** k for k in range(n_plates)]
        z.reverse()  # ascending positions
    total = 0.0
    for lo, hi in zip(z, z[1:]):
        total += -PI_SQ / (1440.0 * (hi - lo) ** 3)
    return total


def contraction_closed_form(a, x):
    """Oracle: the direct closed form of the regularized contraction energy."""
    return PI_SQ * x ** 3 / (1440.0 * a ** 3 * (x - 1.0) ** 3 * (x ** 3 - 1.0))


class TestPairEnergy:
    def test_dirichlet_unit_spacing(self):
        result = pair_interaction_energy(1.0)
        assert result.value == pytest.approx(-PI_SQ / 1440.0, rel=1e-15)
        assert result.value == pytest.approx(-6.85389e-3, rel=1e-5)
        assert not result.regularized

    def test_electromagnetic_unit_spacing(self):
        result = pair_interaction_energy(1.0, FieldKind.ELECTROMAGNETIC)
        assert result.value == pytest.approx(-PI_SQ / 720.0, rel=1e-15)
        assert result.value == pytest.approx(-1.37078e-2, rel=1e-5)

    def test_inverse_cube_scaling(self):
        result = pair_interaction_energy(2.0)
        assert result.value == pytest.approx(-PI_SQ / 11520.0, rel=1e-15)

    def test_em_is_exactly_twice_dirichlet(self):
        for a in GRID_A:
            scalar = pair_interaction_energy(a).value
            em = pair_interaction_energy(a, FieldKind.ELECTROMAGNETIC).value
            assert em == 2.0 * scalar

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf])
    def test_invalid_spacing(self, a):
        with pytest.raises(ValueError):
            pair_interaction_energy(a)


class TestForcePerArea:
    def test_unit_spacing(self):
        assert force_per_area(1.0) == pytest.approx(-PI_SQ / 240.0, rel=1e-15)
        assert force_per_area(1.0) == pytest.approx(-4.11234e-2, rel=1e-5)

    def test_inverse_fourth_scaling(self):
        assert force_per_area(2.0) == pytest.approx(-PI_SQ / 3840.0, rel=1e-15)

    def test_matches_finite_difference_of_em_energy(self):
        # central difference of the electromagnetic pair energy
        a, h = 1.0, 1e-5
        em = lambda s: pair_interaction_energy(s, FieldKind.ELECTROMAGNETIC).value
        fd = -(em(a + h) - em(a - h)) / (2.0 * h)
        assert force_per_area(a) == pytest.approx(fd, rel=1e-8)

    def test_finite_difference_across_grid(self):
        for a in GRID_A:
            h = 1e-5 * a
            em = lambda s: pair_interaction_energy(s, FieldKind.ELECTROMAGNETIC).value
            fd = -(em(a + h) - em(a - h)) / (2.0 * h)
            assert force_per_area(a) == pytest.approx(fd, rel=1e-7)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            force_per_area(-2.0)


class TestInflationStack:
    def test_ratio_two(self):
        result = inflation_stack_energy(1.0, 2.0)
        assert result.value == pytest.approx(-PI_SQ / 10080.0, rel=1e-15)
        assert result.value == pytest.approx(-9.79128e-4, rel=1e-5)
        assert not result.regularized

    def test_ratio_three(self):
        assert inflation_stack_energy(1.0, 3.0).value == pytest.approx(
            -PI_SQ / 299520.0, rel=1e-15
        )

    def test_matches_brute_force_positions(self):
        closed = inflation_stack_energy(1.0, 2.0).value
        oracle = brute_force_stack(1.0, 2.0, 40, StackDirection.INFLATION)
        assert closed == pytest.approx(oracle, rel=1e-12)

    def test_invalid_ratio(self):
        for x in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                inflation_stack_energy(1.0, x)


class TestContractionStack:
    def test_ratio_two(self):
        result = contraction_stack_energy(1.0, 2.0)
        assert result.value == pytest.approx(PI_SQ / 1260.0, rel=1e-15)
        assert result.value == pytest.approx(7.83302e-3, rel=1e-5)
        assert result.regularized

    def test_ratio_three(self):
        assert contraction_stack_energy(1.0, 3.0).value == pytest.approx(
            27.0 * PI_SQ / 299520.0, rel=1e-15
        )

    def test_is_minus_x_cubed_times_inflation(self):
        for x in (1.5, 2.0, 3.0):
            c = contraction_stack_energy(1.0, x).value
            i = inflation_stack_energy(1.0, x).value
            assert c == pytest.approx(-(x ** 3) * i, rel=1e-14)

    def test_matches_direct_closed_form(self):
        for a in GRID_A:
            for x in GRID_X:
                via_regularizer = contraction_stack_energy(a, x).value
                assert via_regularizer == pytest.approx(
                    contraction_closed_form(a, x), rel=1e-13
                )

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            contraction_stack_energy(1.0, 1.0)


class TestTruncatedStack:
    def test_single_inflation_gap(self):
        cfg = StackConfig(1.0, 2.0, StackDirection.INFLATION, truncation=2)
        assert truncated_stack_energy(cfg).value == pytest.approx(
            -PI_SQ / 11520.0, rel=1e-15
        )

    def test_inflation_converges_to_closed_form(self):
        cfg = StackConfig(1.0, 2.0, StackDirection.INFLATION, truncation=40)
        assert truncated_stack_energy(cfg).value == pytest.approx(
            inflation_stack_energy(1.0, 2.0).value, rel=1e-12
        )

    def test_contraction_three_plates(self):
        # gaps 1/2 and 1/4: pair energies -(pi^2/1440)(8 + 64)
        cfg = StackConfig(1.0, 2.0, StackDirection.CONTRACTION, truncation=3)
        result = truncated_stack_energy(cfg)
        assert result.value == pytest.approx(-PI_SQ / 20.0, rel=1e-14)
        assert result.value == pytest.approx(-0.493480, rel=1e-5)
        assert not result.regularized

    def test_matches_position_oracle(self):
        for direction in (StackDirection.INFLATION, StackDirection.CONTRACTION):
            for x in (1.5, 2.0):
                cfg = StackConfig(0.7, x, direction, truncation=9)
                oracle = brute_force_stack(0.7, x, 9, direction)
                assert truncated_stack_energy(cfg).value == pytest.approx(
                    oracle, rel=1e-13
                )

    def test_tail_bound_against_closed_form(self):
        # analytic geometric tail: |trunc_N - closed| <= |closed| x^{-3(N-1)} / (1 - x^-3)
        for a in GRID_A:
            for x in GRID_X:
                n = 2 + math.ceil(8.0 * math.log(10.0) / (3.0 * math.log(x)))
                closed = inflation_stack_energy(a, x).value
                cfg = StackConfig(a, x, StackDirection.INFLATION, truncation=n)
                gap = abs(truncated_stack_energy(cfg).value - closed)
                bound = abs(closed) * x ** (-3 * (n - 1)) / (1.0 - x ** -3)
                assert gap <= bound

    def test_contraction_increment_ratio_is_x_cubed(self):
        # divergence witness: successive partial-sum increments grow by x^3
        for x in GRID_X:
            sums = [
                truncated_stack_energy(
                    StackConfig(1.0, x, StackDirection.CONTRACTION, truncation=n)
                ).value
                for n in range(2, 7)
            ]
            increments = [b - a for a, b in zip(sums, sums[1:])]
            for first, second in zip(increments, increments[1:]):
                assert second / first == pytest.approx(x ** 3, rel=1e-12)

    def test_missing_truncation(self):
        cfg = StackConfig(1.0, 2.0, StackDirection.INFLATION)
        with pytest.raises(ValueError):
            truncated_stack_energy(cfg)

    def test_combined_truncation_rejected(self):
        cfg = StackConfig(1.0, 2.0, StackDirection.COMBINED, truncation=4)
        with pytest.raises(ValueError):
            truncated_stack_energy(cfg)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            StackConfig(1.0, 2.0, StackDirection.INFLATION, truncation=1)


class TestCombinedStack:
    def test_cancels_at_ratio_two(self):
        assert abs(combined_stack_energy(1.0, 2.0).value) <= 1e-15

    def test_cancels_at_half_spacing_ratio_three(self):
        assert abs(combined_stack_energy(0.5, 3.0).value) <= 1e-13

    def test_cancels_under_near_degenerate_ratio(self):
        # large near-cancelling terms at x = 1.1
        assert abs(combined_stack_energy(1.0, 1.1).value) <= 1e-10

    def test_scaled_cancellation_across_grid(self):
        for a in GRID_A:
            for x in GRID_X:
                total = combined_stack_energy(a, x).value
                scale = (
                    abs(contraction_stack_energy(a, x).value)
                    + abs(inflation_stack_energy(a, x).value)
                    + abs(pair_interaction_energy((x - 1.0) * a).value)
                )
                assert abs(total) <= 1e-12 * scale


class TestFunctionalEquationResidual:
    def _largest_term(self, a, x, direction):
        if direction is StackDirection.INFLATION:
            return abs(inflation_stack_energy(a, x).value)
        return abs(contraction_stack_energy(a, x).value) * x ** 3

    def test_inflation_ratio_two(self):
        res = functional_equation_residual(1.0, 2.0, StackDirection.INFLATION)
        assert abs(res) <= 1e-16 * self._largest_term(1.0, 2.0, StackDirection.INFLATION)

    def test_contraction_ratio_two(self):
        res = functional_equation_residual(1.0, 2.0, StackDirection.CONTRACTION)
        assert abs(res) <= 1e-16 * self._largest_term(1.0, 2.0, StackDirection.CONTRACTION)

    def test_inflation_generic_point(self):
        res = functional_equation_residual(3.0, 1.5, StackDirection.INFLATION)
        assert abs(res) <= 1e-14 * self._largest_term(3.0, 1.5, StackDirection.INFLATION)

    def test_small_across_grid(self):
        for a in GRID_A:
            for x in GRID_X:
                for direction in (StackDirection.INFLATION, StackDirection.CONTRACTION):
                    res = functional_equation_residual(a, x, direction)
                    assert abs(res) <= 1e-14 * self._largest_term(a, x, direction)

    def test_combined_rejected(self):
        with pytest.raises(ValueError):
            functional_equation_residual(1.0, 2.0, StackDirection.COMBINED)


class TestHomogeneity:
    # every stack energy scales as spacing^-3
    @pytest.mark.parametrize("lam", [0.1, 2.0, 7.0])
    def test_closed_forms(self, lam):
        for a in GRID_A:
            for x in GRID_X:
                for op in (
                    lambda s: pair_interaction_energy(s).value,
                    lambda s: inflation_stack_energy(s, x).value,
                    lambda s: contraction_stack_energy(s, x).value,
                ):
                    scaled = op(lam * a)
                    expected = op(a) / lam ** 3
                    assert abs(scaled - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("lam", [0.1, 2.0, 7.0])
    def test_truncated_sum(self, lam):
        for x in (1.5, 2.0, 3.0):
            def op(s):
                cfg = StackConfig(s, x, StackDirection.CONTRACTION, truncation=6)
                return truncated_stack_energy(cfg).value

            assert abs(op(lam * 1.0) - op(1.0) / lam ** 3) <= 1e-14 * abs(op(1.0) / lam ** 3)

    @given(
        lam=st.floats(min_value=0.01, max_value=100),
        a=st.floats(min_value=0.05, max_value=20),
        x=st.floats(min_value=1.001, max_value=50),
    )
    @settings(max_examples=200)
    def test_property(self, lam, a, x):
        scaled = inflation_stack_energy(lam * a, x).value
        expected = inflation_stack_energy(a, x).value / lam ** 3
        assert abs(scaled - expected) <= 1e-13 * abs(expected)


POWERS_OF_TEN = st.floats(-110.0, 110.0).map(lambda e: 10.0 ** e)
# the ends of the float range, 1 + ulp, and bases whose products with a
# float are often exact ties between two floats
SCALED_EDGES = (5e-324, 2.0 ** -1022, sys.float_info.max, 1.0 + 2.0 ** -52, 1e308, 1.5, 0.75, 3.0)
SCALED_BASES = (st.floats(min_value=5e-324, max_value=sys.float_info.max)
                | st.sampled_from(SCALED_EDGES + (0.0, math.inf)))
POSITIVE = (st.floats(min_value=5e-324, max_value=sys.float_info.max)
            | st.sampled_from((5e-324, 2.0 ** -1022, 1.0, 1e-100, 1e103, sys.float_info.max)))
ABOVE_ONE = (st.floats(min_value=1.0, max_value=sys.float_info.max, exclude_min=True)
             | st.sampled_from((1.0 + 2.0 ** -52, 1.000001, 5.6e102, 1e103, sys.float_info.max)))


def check_against_exact(compute, exact):
    """compute() is float(exact): int / int rounds once, correctly, into the
    subnormals and to a zero of exact's sign below them; beyond the float
    range compute() raises ValueError naming it."""
    try:
        expected = float(exact)
    except OverflowError:
        with pytest.raises(ValueError, match="float range"):
            compute()
        return
    got = compute()
    assert got == expected
    assert math.copysign(1.0, got) == (1.0 if exact > 0 else -1.0)


class TestExactRationals:
    """Energies across the float range against exact Fraction values of
    their float inputs and the float pi^2."""

    @settings(max_examples=300, deadline=None)
    @given(a=POWERS_OF_TEN)
    @example(a=3.583711864256921e-104)  # a^3 is subnormal; the em energy is beyond the range
    @example(a=1e-103)
    def test_pair(self, a):
        exact = -Fraction(PI_SQ) / (1440 * Fraction(a) ** 3)
        check_against_exact(lambda: pair_interaction_energy(a).value, exact)
        check_against_exact(lambda: pair_interaction_energy(a, FieldKind.ELECTROMAGNETIC).value,
                            2 * exact)

    @settings(max_examples=300, deadline=None)
    @given(a=POWERS_OF_TEN)
    @example(a=4.053672827854099e-78)
    def test_force(self, a):
        check_against_exact(lambda: force_per_area(a), -Fraction(PI_SQ) / (240 * Fraction(a) ** 4))

    @settings(max_examples=300, deadline=None)
    @given(a=POWERS_OF_TEN, x=st.floats(0.0, 110.0).map(lambda e: 2.0 * 10.0 ** e))
    @example(a=1.4245928539753432e-108, x=3.54873614031611e+32)
    def test_inflation(self, a, x):
        exact = -Fraction(PI_SQ) / (1440 * Fraction(a) ** 3 * (Fraction(x) - 1) ** 3
                                    * (Fraction(x) ** 3 - 1))
        check_against_exact(lambda: inflation_stack_energy(a, x).value, exact)

    @settings(max_examples=500, deadline=None)
    @given(a=POSITIVE, x=ABOVE_ONE)
    @example(a=1.0, x=1.0 + 2.0 ** -52)     # (x - 1)^3 (x^3 - 1) is about 2^-154
    @example(a=0.7, x=1.000001)             # x^3 - 1 from a rounded x^3 lost digits
    @example(a=1e-100, x=1e103)             # x^3 overflows, the contraction energy does not
    @example(a=1.0, x=5.6e102)              # x^3 is beyond the float range from here on
    @example(a=5e-324, x=sys.float_info.max)
    def test_closed_forms_over_the_float_range(self, a, x):
        pair = -Fraction(PI_SQ) / (1440 * Fraction(a) ** 3)
        stack = pair / ((Fraction(x) - 1) ** 3 * (Fraction(x) ** 3 - 1))
        check_against_exact(lambda: pair_interaction_energy(a).value, pair)
        check_against_exact(lambda: pair_interaction_energy(a, FieldKind.ELECTROMAGNETIC).value, 2 * pair)
        check_against_exact(lambda: force_per_area(a), pair * 6 / Fraction(a))
        check_against_exact(lambda: inflation_stack_energy(a, x).value, stack)
        check_against_exact(lambda: contraction_stack_energy(a, x).value, -Fraction(x) ** 3 * stack)


class TestSigns:
    def test_signs_across_grid(self):
        for a in GRID_A:
            for x in GRID_X:
                assert pair_interaction_energy(a).value < 0.0
                assert inflation_stack_energy(a, x).value < 0.0
                assert contraction_stack_energy(a, x).value > 0.0


class TestStackConfigAndDispatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            StackConfig(-1.0, 2.0, StackDirection.INFLATION)
        with pytest.raises(ValueError):
            StackConfig(1.0, 0.9, StackDirection.INFLATION)

    def test_dispatch_matches_direct_calls(self):
        assert stack_energy(
            StackConfig(1.0, 2.0, StackDirection.INFLATION)
        ) == inflation_stack_energy(1.0, 2.0)
        assert stack_energy(
            StackConfig(1.0, 2.0, StackDirection.CONTRACTION)
        ) == contraction_stack_energy(1.0, 2.0)
        assert stack_energy(
            StackConfig(1.0, 2.0, StackDirection.COMBINED)
        ) == combined_stack_energy(1.0, 2.0)
        truncated = stack_energy(StackConfig(1.0, 2.0, StackDirection.INFLATION, 5))
        assert truncated == truncated_stack_energy(
            StackConfig(1.0, 2.0, StackDirection.INFLATION, 5)
        )

    def test_energy_density_is_plain_record(self):
        e = EnergyDensity(-1.0, regularized=True)
        assert e.value == -1.0 and e.regularized


def truncated_closed_form(a, x, n_plates):
    """Oracle: the finite geometric sum of the n-1 inflation pair energies."""
    first = -PI_SQ / (1440.0 * (a * (x - 1.0)) ** 3)
    x3 = x ** 3
    return first / x3 * (1.0 - x3 ** -(n_plates - 1)) / (1.0 - 1.0 / x3)


class TestFloatRange:
    """Energies whose terms leave the float range return their limit or a
    ValueError naming the cause, never OverflowError or ZeroDivisionError."""

    @pytest.mark.parametrize("x, n_plates", [(4.0, 400), (1e10, 40)])
    def test_truncated_inflation_returns_its_value(self, x, n_plates):
        config = StackConfig(1.0, x, StackDirection.INFLATION, truncation=n_plates)
        got = truncated_stack_energy(config).value
        assert got == pytest.approx(truncated_closed_form(1.0, x, n_plates), rel=1e-12)

    def test_pair_beyond_float_range_is_minus_zero(self):
        # 1e108 cubed overflows and -pi^2/(1440 a^3), ~7e-327, is below the
        # smallest subnormal
        value = pair_interaction_energy(1e108).value
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("a", [6.8e101, 1e103, 1e104, 5.7e102, 3e106, 1e107, 1e-103])
    def test_pair_whose_cube_overflows_keeps_its_value(self, a):
        # 1440 a^3 is beyond the float range, or a^3 is subnormal, and
        # -pi^2/(1440 a^3) is a normal or subnormal float
        exact = -Fraction(PI_SQ) / (1440 * Fraction(a) ** 3)
        for kind, scale in ((FieldKind.DIRICHLET_SCALAR, 1), (FieldKind.ELECTROMAGNETIC, 2)):
            got = pair_interaction_energy(a, kind).value
            assert got < 0.0
            assert abs(Fraction(got) - scale * exact) <= 5e-16 * abs(scale * exact) + 2.0 ** -1074

    def test_truncated_stack_whose_terms_all_underflow_is_minus_zero(self):
        # fsum of the -0.0 pair energies is 0.0; the attractive limit is -0.0
        config = StackConfig(1e200, 2.0, StackDirection.INFLATION, truncation=3)
        value = truncated_stack_energy(config).value
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_inflation_beyond_float_range_is_minus_zero(self):
        # -pi^2/(1440 a^3 (x-1)^3 (x^3-1)), ~1e-335, is below the smallest subnormal
        value = inflation_stack_energy(1e110, 2.0).value
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("a, x", [
        (1e103, 2.0),            # 1440 a^3 overflows, the energy is subnormal
        (1e104, 1.0 + 2 ** -17), # dividing by a three times first would underflow
        (1e-110, 1e103),         # a^3 underflows and (x-1)^3 overflows: 0 * inf
        (1e-100, 1e103),         # x^3 overflows, the energy is subnormal
        (1e-150, 1e50),          # a^3 underflows, the energy is large
        (1.4245928539753432e-108, 3.54873614031611e+32),  # a^3 is the subnormal 5e-324
    ])
    def test_inflation_whose_product_leaves_the_float_range(self, a, x):
        # x^3 - 1 rounds at most in its last bit for these x
        exact = -Fraction(PI_SQ) / (1440 * Fraction(a) ** 3 * (Fraction(x) - 1) ** 3
                                    * (Fraction(x) ** 3 - 1))
        got = inflation_stack_energy(a, x).value
        assert got < 0.0
        assert abs(Fraction(got) - exact) <= 1e-15 * abs(exact) + 2.0 ** -1074

    @pytest.mark.parametrize("a", [1e78, 1e80, 3e77, 4.053672827854099e-78])
    def test_force_whose_fourth_power_leaves_the_float_range(self, a):
        exact = -Fraction(PI_SQ) / (240 * Fraction(a) ** 4)
        got = force_per_area(a)
        assert got < 0.0
        assert abs(Fraction(got) - exact) <= 1e-15 * abs(exact) + 2.0 ** -1074

    def test_force_beyond_float_range(self):
        value = force_per_area(1e82)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
        with pytest.raises(ValueError, match="float range"):
            force_per_area(1e-78)

    def test_contraction_with_huge_ratio_is_its_limit(self):
        # pi^2 x^3 / (1440 (x-1)^3 (x^3-1)) is about pi^2 / (1440 x^3), a
        # subnormal; x^3 overflows, and a0 / (1 - inf) gave 0.0
        assert contraction_stack_energy(1.0, 1e103).value == 6.8538919452e-312
        assert contraction_stack_energy(1e-100, 1e103).value == 6.853891945200942e-12

    def test_pair_energy_beyond_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match="float range"):
            pair_interaction_energy(1e-110)

    def test_residual_with_cube_beyond_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match="float range"):
            functional_equation_residual(1.0, 1e103, StackDirection.CONTRACTION)

    @pytest.mark.parametrize("a, x", [(1e300, 1e10), (1e200, 1e60)])
    def test_residual_whose_bridge_gap_overflows(self, a, x):
        # x^2 a - x a is inf - inf or inf; the bridge energy is the limit -0.0,
        # as the stack energy and its scaled copy are
        assert inflation_stack_energy(a, x).value == 0.0
        assert functional_equation_residual(a, x, StackDirection.INFLATION) == 0.0

    def test_underflowed_contraction_gap_names_the_float_range(self):
        # the gap a (x - 1) / x^k underflows to 0 once x^k is beyond the float range
        config = StackConfig(1.0, 1e200, StackDirection.CONTRACTION, truncation=3)
        with pytest.raises(ValueError, match="float range"):
            truncated_stack_energy(config)

    def test_contraction_gaps_whose_numerator_overflows(self):
        # a (x - 1) is beyond the float range, the gaps a (x - 1) / x^k and
        # their energies are not (the last gap is 9e-91)
        config = StackConfig(1e308, 10.0, StackDirection.CONTRACTION, truncation=400)
        exact = sum(-Fraction(PI_SQ) / (1440 * (Fraction(1e308) * 9 / 10 ** k) ** 3) for k in range(1, 400))
        assert truncated_stack_energy(config).value == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("c, powers, expected", [
        (-1.0, [(math.inf, -3)], -0.0),                 # inf^-3 stands for 0
        (2.0, [(0.0, 3), (5.0, -2000)], 0.0),
        (-3.0, [(1.0, 10 ** 100), (2.0, -1074)], -1.5e-323),
        (3.0, [(2.0, -10 ** 19)], 0.0),                 # below 10^(-10^18): 0
    ])
    def test_scaled_limits_and_huge_exponents(self, c, powers, expected):
        got = _scaled(c, *powers)
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("powers", [[(0.0, -3)], [(math.inf, 2)], [(0.0, 3), (math.inf, 3)],
                                        [(2.0, 10 ** 19)]])     # beyond 10^(10^18): inf
    def test_scaled_limits_beyond_the_float_range(self, powers):
        with pytest.raises(ValueError, match="float range"):
            _scaled(-1.0, *powers)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(c=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SCALED_EDGES),
           powers=st.lists(st.tuples(SCALED_BASES, st.integers(-64, 64)), min_size=1, max_size=4))
    @example(c=2.4270071603837026e+220, powers=[(1.5, 1)])     # an exact tie of two floats
    @example(c=-8.1587408398627e-311, powers=[(716.5, 1)])
    def test_scaled_is_the_exact_product_rounded_once(self, c, powers):
        # float() of the exact Fraction rounds once, ties to even; an inf or 0
        # base with k = 0 is the factor 1
        limits = {(k > 0) == (base > 0.0) for base, k in powers if k and base in (0.0, math.inf)}
        if not c:
            expected = c
        elif limits == {False}:
            expected = math.copysign(0.0, c)
        elif limits:
            expected = None
        else:
            try:
                expected = float(Fraction(c) * math.prod(Fraction(base) ** k for base, k in powers
                                                          if 0.0 < base < math.inf))
            except OverflowError:
                expected = None
            else:
                expected = math.copysign(expected, c)
        if expected is None:
            with pytest.raises(ValueError, match="float range"):
                _scaled(c, *powers)
        else:
            got = _scaled(c, *powers)
            assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_contraction_gaps_whose_ratio_power_overflows(self):
        # x^k is beyond the float range from k = 31, where the gap a (x - 1) / x^k
        # is 0.01 and its energy the largest term of the sum
        a, x, n = 1e298, 1e10, 32
        config = StackConfig(a, x, StackDirection.CONTRACTION, truncation=n)
        exact = sum(-Fraction(PI_SQ) / (1440 * (Fraction(a) * (Fraction(x) - 1) / Fraction(x) ** k) ** 3)
                    for k in range(1, n))
        got = truncated_stack_energy(config).value
        assert abs(Fraction(got) - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("energy", [contraction_stack_energy, combined_stack_energy])
    def test_infinite_stacks_whose_numerator_overflows_are_their_limit(self, energy):
        # the first contraction gap, 9e307, has a pair energy below the float
        # range and the bridging gap, 9e308, is beyond it: the limit is 0
        assert energy(1e308, 10.0).value == 0.0

    @pytest.mark.parametrize("direction", [StackDirection.INFLATION, StackDirection.CONTRACTION])
    def test_truncated_sum_beyond_the_float_range(self, direction):
        # each of the 28 pair energies is a float near -7e306, their sum is
        # not; fsum's OverflowError ("intermediate overflow in fsum") got out
        config = StackConfig(1e-100, 1.001, direction, truncation=29)
        with pytest.raises(ValueError, match=r"^value beyond the float range: sum of 28 pair energies$"):
            truncated_stack_energy(config)

    def test_truncated_normal_path_is_bit_identical(self):
        for a in GRID_A:
            for x in GRID_X:
                for n in (2, 5, 40):
                    gaps = {StackDirection.INFLATION: [x ** k * a * (x - 1.0) for k in range(1, n)],
                            StackDirection.CONTRACTION: [a * (x - 1.0) / x ** k for k in range(1, n)]}
                    for direction, spacings in gaps.items():
                        expected = math.fsum(pair_interaction_energy(g).value for g in spacings)
                        config = StackConfig(a, x, direction, truncation=n)
                        assert truncated_stack_energy(config).value == expected

    def test_normal_path_is_bit_identical(self):
        # each closed form is float() of its exact Fraction, and the combined
        # stack the float sum of the two stacks and the bridging pair
        pi_sq = Fraction(PI_SQ)
        for a in GRID_A:
            exact_pair = -pi_sq / (1440 * Fraction(a) ** 3)
            assert pair_interaction_energy(a).value == float(exact_pair)
            assert force_per_area(a) == float(-pi_sq / (240 * Fraction(a) ** 4))
            for x in GRID_X:
                stack = exact_pair / ((Fraction(x) - 1) ** 3 * (Fraction(x) ** 3 - 1))
                inflation, contraction = float(stack), float(-Fraction(x) ** 3 * stack)
                assert inflation_stack_energy(a, x).value == inflation
                assert contraction_stack_energy(a, x).value == contraction
                bridge = float(-pi_sq / (1440 * Fraction((x - 1.0) * a) ** 3))
                assert combined_stack_energy(a, x).value == contraction + inflation + bridge


def full_inflation_sum(a, x, n_plates):
    """Oracle: math.fsum over all n - 1 inflation pair energies, no early stop."""
    terms = [_pair_energy(_power(x, k) * a * (x - 1.0)) for k in range(1, n_plates)]
    # fsum rounds the exact sum once, beyond the float range from half an ulp
    # past the largest float on
    if abs(sum(map(Fraction, terms))) >= 2 ** 1024 - 2 ** 970:
        raise ValueError(f"value beyond the float range: sum of {n_plates - 1} pair energies")
    return math.fsum(terms) or -0.0


class TestInflationEarlyStop:
    """A truncated inflation sum stops at its first -0.0 term."""

    @settings(max_examples=150, deadline=None)
    @given(mantissa=st.floats(1.0, 10.0, exclude_max=True), exponent=st.integers(-120, 307),
           x=st.floats(1.0 + 1e-3, 101.0), n_plates=st.integers(2, 500))
    @example(mantissa=1.0, exponent=0, x=4.0, n_plates=400)         # subnormal tail, then zeros
    @example(mantissa=3.73, exponent=0, x=3.73, n_plates=380)
    @example(mantissa=1.0, exponent=200, x=2.0, n_plates=3)         # every term is -0.0
    @example(mantissa=1.0, exponent=-110, x=2.0, n_plates=5)        # first energy beyond the range
    @example(mantissa=1.0, exponent=-100, x=1.001, n_plates=29)     # each a float, their sum beyond
    def test_same_value_and_error_as_the_full_sum(self, mantissa, exponent, x, n_plates):
        a = mantissa * 10.0 ** exponent
        config = StackConfig(a, x, StackDirection.INFLATION, truncation=n_plates)
        try:
            expected = full_inflation_sum(a, x, n_plates)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                truncated_stack_energy(config)
            assert str(raised.value) == str(error)
        else:
            assert truncated_stack_energy(config).value.hex() == expected.hex()

    def test_scaled_calls_stop_at_the_first_zero(self, monkeypatch):
        # the energies of k = 169..177 are subnormal and those from k = 178 on
        # are -0.0: the sum evaluates the terms up to that first zero, not
        # all 399
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _pair_energy(*args, **kwargs)

        monkeypatch.setattr(plates, "_pair_energy", counted)
        config = StackConfig(1.0, 4.0, StackDirection.INFLATION, truncation=400)
        value = truncated_stack_energy(config).value
        assert value == pytest.approx(truncated_closed_form(1.0, 4.0, 400), rel=1e-12)
        assert len(calls) == 178
