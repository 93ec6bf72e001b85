import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscasimir.gaussian import (
    LatticeField,
    LGParams,
    UnstableKernelError,
    fixed_point_field_scale,
    mode_split_log_partition,
    parseval_residuals,
    rg_rescale,
)
from sscasimir.gaussian import _half_spectrum


class TestRgRescale:
    def test_exponent_bookkeeping_example(self):
        # B chosen so the gradient coefficient is held fixed in d = 3
        out = rg_rescale(LGParams(t=1.0, K=1.0, L=1.0), 2.0, 2.0 ** 2.5, 3)
        assert out.t == pytest.approx(4.0, rel=1e-14)
        assert out.K == pytest.approx(1.0, rel=1e-14)
        assert out.L == pytest.approx(0.25, rel=1e-14)

    def test_t_preserving_field_scale(self):
        # B = b^(d/2) cancels the volume factor on the constant term
        for d in (1, 2, 3, 4):
            for b in (1.5, 2.0, 3.0):
                out = rg_rescale(LGParams(t=0.7, K=1.0), b, b ** (d / 2.0), d)
                assert out.t == pytest.approx(0.7, rel=1e-14)

    def test_identity_limit(self):
        eps = 1e-9
        params = LGParams(t=1.0, K=2.0, L=0.5, higher=(0.25,))
        out = rg_rescale(params, 1.0 + eps, 1.0, 3)
        for before, after in (
            (params.t, out.t),
            (params.K, out.K),
            (params.L, out.L),
            (params.higher[0], out.higher[0]),
        ):
            assert abs(after - before) <= (3 + 4 + 2 * 1) * eps * 2 * abs(before)

    def test_higher_coefficients(self):
        out = rg_rescale(LGParams(t=0.0, K=1.0, higher=(1.0,)), 2.0, 1.0, 1)
        # q^6 coefficient scales as b^(-d-6) B^2 = 2^-7
        assert out.higher[0] == pytest.approx(2.0 ** -7, rel=1e-14)

    def test_composition_law(self):
        params = LGParams(t=1.0, K=1.0, L=1.0, higher=(0.3,))
        for d in (1, 2, 3, 4):
            for b1 in (1.25, 1.5, 2.0, 3.0):
                for b2 in (1.25, 1.5, 2.0, 3.0):
                    for B1 in (0.8, 1.0, 2.5):
                        for B2 in (0.8, 1.0, 2.5):
                            two = rg_rescale(rg_rescale(params, b1, B1, d), b2, B2, d)
                            one = rg_rescale(params, b1 * b2, B1 * B2, d)
                            for u, v in (
                                (two.t, one.t),
                                (two.K, one.K),
                                (two.L, one.L),
                                (two.higher[0], one.higher[0]),
                            ):
                                assert abs(u - v) <= 1e-15 * abs(v)

    def test_normal_path_is_bit_identical(self):
        # wherever its steps stay in the normal range the value is the plain
        # float form c * (B / b^e)^2
        params = LGParams(t=0.7, K=1.3, L=0.45, higher=(-0.2, 0.05))
        for d in (1, 2, 3, 4, 7):
            for b in (1.0000001, 1.05, 1.5, 2.0, 3.7, 1e10):
                for B in (0.3, 1.0, 2.5, fixed_point_field_scale(b, d), 1e20):
                    out = rg_rescale(params, b, B, d)
                    plain = [c * (B / b ** ((d + 2 * m) / 2.0)) ** 2
                             for m, c in enumerate(params.coefficients)]
                    assert [out.t, out.K, out.L, *out.higher] == plain

    # the command-line cases are in test_cli; these need `higher` or a large d
    @pytest.mark.parametrize("params, b, B, d", [
        (LGParams(t=1e-250, K=1.0, higher=(0.5, -1e300)), 3e100, 7e150, 2),  # b^4 overflows
        (LGParams(t=1.0, K=1.0), 2.0, 1e300, 2100),  # b^1050 overflows
    ])
    def test_values_whose_steps_leave_the_float_range(self, params, b, B, d):
        out = rg_rescale(params, b, B, d)
        for m, (c, value) in enumerate(zip(params.coefficients, [out.t, out.K, out.L, *out.higher])):
            exact = Fraction(c) * Fraction(B) ** 2 / Fraction(b) ** (d + 2 * m)
            assert value == pytest.approx(float(exact), rel=1e-15, abs=0.0)
            assert math.copysign(1.0, value) == math.copysign(1.0, c)

    def test_huge_dimension_with_b_near_one(self):
        # b^(d/2) ~ 1.65 and (B / b^(d/2))^2 ~ 3.7e-311 is
        # subnormal; an exact b^d would have 5e8 bits, the fallback's cost
        # grows with log d instead
        params, b, B, d = LGParams(t=1.0, K=1e10, higher=(-1.0,)), 1.0000001, 1e-155, 10 ** 7
        start = time.perf_counter()
        out = rg_rescale(params, b, B, d)
        assert time.perf_counter() - start < 1.0
        with localcontext() as context:
            context.prec = 60
            for m, (c, value) in enumerate(zip(params.coefficients, [out.t, out.K, out.L, *out.higher])):
                exact = Decimal(c) * Decimal(B) ** 2 / Decimal(b) ** (d + 2 * m)
                assert abs(Decimal(value) - exact) <= Decimal(1e-15) * abs(exact) + Decimal(2.0 ** -1074)
                assert math.copysign(1.0, value) == math.copysign(1.0, c)

    def test_below_the_float_range_for_any_dimension(self):
        # B / b^e is far below every float
        out = rg_rescale(LGParams(t=1.0, K=1.0, higher=(-1.0,)), 1.05, 2.0, 10 ** 18)
        assert (out.t, out.K) == (0.0, 0.0)
        assert out.higher[0] == 0.0 and math.copysign(1.0, out.higher[0]) == -1.0

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), min_size=4, max_size=4),
           b=st.floats(-12.0, 300.0).map(lambda e: 1.0 + 10.0 ** e),
           B=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
           d=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 50, 400, 2100]))
    @example(coeffs=[1e-250, 1.0, 0.5, 1e300], b=3e100, B=7e150, d=2)
    @example(coeffs=[1.0, 1.0, 1.0, 1.0], b=2.0, B=1e300, d=2100)
    @example(coeffs=[1e300, 1e300, 1e300, 1e300], b=4.0, B=2e-154, d=1)  # subnormal (B / b^e)^2
    @example(coeffs=[0.0, 1.0, 0.0, 1.0], b=1e200, B=2.0, d=3)  # the critical point t = 0
    def test_exact_across_the_float_range(self, coeffs, b, B, d):
        # each coefficient c B^2 / b^(d + 2m) rounds its exact value to
        # 1e-15 relative, or to a zero with c's sign below the float range;
        # one beyond the float range raises ValueError
        t, K, L, h = coeffs
        params = LGParams(t=t, K=K, L=L, higher=(-h,))
        exact = [Fraction(c) * Fraction(B) ** 2 / Fraction(b) ** (d + 2 * m)
                 for m, c in enumerate(params.coefficients)]
        largest = max(abs(e) for e in exact)
        top = Fraction(sys.float_info.max)
        if largest > top * (1 + Fraction(1, 10 ** 15)):
            with pytest.raises(ValueError, match="float range"):
                rg_rescale(params, b, B, d)
        elif largest < top * (1 - Fraction(1, 10 ** 15)):
            out = rg_rescale(params, b, B, d)
            for value, c, e in zip([out.t, out.K, out.L, *out.higher], params.coefficients, exact):
                assert abs(Fraction(value) - e) <= 1e-15 * abs(e) + 2.0 ** -1074
                assert math.copysign(1.0, value) == math.copysign(1.0, c)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rg_rescale(LGParams(t=1.0, K=1.0), 1.0, 1.0, 3)
        with pytest.raises(ValueError):
            rg_rescale(LGParams(t=1.0, K=1.0), 2.0, 0.0, 3)


class TestFixedPointFieldScale:
    def test_d3(self):
        assert fixed_point_field_scale(2.0, 3) == pytest.approx(2.0 ** 2.5, rel=1e-15)
        assert fixed_point_field_scale(2.0, 3) == pytest.approx(5.65685, rel=1e-5)

    def test_d2(self):
        assert fixed_point_field_scale(2.0, 2) == 4.0

    def test_identity_limit(self):
        assert fixed_point_field_scale(1.0 + 1e-12, 5) == pytest.approx(1.0, abs=1e-11)

    def test_gradient_coefficient_held_bit_exact(self):
        for d in (1, 2, 3, 4):
            for b in (1.25, 1.5, 2.0, 3.0, 7.3):
                B = fixed_point_field_scale(b, d)
                params = LGParams(t=1.0, K=0.8, L=0.6)
                out = rg_rescale(params, b, B, d)
                assert out.K == params.K
                assert out.t == pytest.approx(b * b * params.t, rel=1e-15)
                assert out.L == pytest.approx(params.L / (b * b), rel=1e-15)


class TestModeSplit:
    def test_two_mode_hand_computation(self):
        shell, interior, total = mode_split_log_partition(
            [(0.4, 1.0), (0.9, 4.0)], 2.0, 1.0
        )
        assert interior == 0.0
        assert shell == pytest.approx(-0.5 * math.log(4.0), rel=1e-15)
        assert shell == pytest.approx(-0.693147, rel=1e-5)
        assert total == shell + interior

    def test_unit_weights_contribute_nothing(self):
        shell, interior, total = mode_split_log_partition(
            [(q / 10.0, 1.0) for q in range(10)], 2.0, 1.0
        )
        assert shell == 0.0 and interior == 0.0 and total == 0.0

    def test_additivity_exact(self):
        rng = np.random.default_rng(3)
        modes = [(float(q), float(g)) for q, g in zip(rng.uniform(0, 1, 100), rng.uniform(0.1, 5, 100))]
        shell, interior, total = mode_split_log_partition(modes, 1.7, 1.0)
        assert shell + interior - total == 0.0

    def test_total_invariant_under_repartition(self):
        rng = np.random.default_rng(4)
        modes = [(float(q), float(g)) for q, g in zip(rng.uniform(0, 1, 100), rng.uniform(0.1, 5, 100))]
        totals = [mode_split_log_partition(modes, b, 1.0)[2] for b in (1.1, 1.5, 2.0, 5.0, 50.0)]
        for total in totals[1:]:
            assert total == pytest.approx(totals[0], rel=1e-12)

    def test_unstable_mode_rejected(self):
        with pytest.raises(UnstableKernelError):
            mode_split_log_partition([(0.5, 0.0)], 2.0, 1.0)

    def test_mode_outside_cutoff_rejected(self):
        with pytest.raises(ValueError):
            mode_split_log_partition([(1.5, 1.0)], 2.0, 1.0)


class TestParseval:
    def test_constant_field(self):
        lattice = LatticeField(np.full(64, 3.0), spacing=0.5)
        phi2, grad2 = parseval_residuals(lattice)
        assert phi2 <= 1e-12
        assert grad2 <= 1e-12

    def test_single_cosine_mode(self):
        # one-mode oracle: integral of phi^2 is V/2
        n, h = 128, 0.25
        x = np.arange(n) * h
        box = n * h
        lattice = LatticeField(np.cos(2.0 * math.pi * x / box), spacing=h)
        cell_sum = h * float(np.sum(lattice.values ** 2))
        assert cell_sum == pytest.approx(box / 2.0, rel=1e-12)
        phi2, grad2 = parseval_residuals(lattice)
        assert phi2 <= 1e-10
        assert grad2 <= 1e-10

    def test_white_noise_1d(self):
        rng = np.random.default_rng(11)
        lattice = LatticeField(rng.standard_normal(64), spacing=1.0)
        phi2, grad2 = parseval_residuals(lattice)
        assert phi2 <= 1e-10
        assert grad2 <= 1e-10

    def test_white_noise_2d(self):
        rng = np.random.default_rng(12)
        lattice = LatticeField(rng.standard_normal((32, 32)), spacing=0.3)
        phi2, grad2 = parseval_residuals(lattice)
        assert phi2 <= 1e-10
        assert grad2 <= 1e-10

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_fields_property(self, seed):
        rng = np.random.default_rng(seed)
        lattice = LatticeField(rng.standard_normal(256), spacing=0.7)
        phi2, grad2 = parseval_residuals(lattice)
        assert phi2 <= 1e-10
        assert grad2 <= 1e-10

    def test_all_zero_field(self):
        for phi in (np.zeros(8), np.zeros((5, 4)), -np.zeros((3, 3))):
            assert parseval_residuals(LatticeField(phi, spacing=0.5)) == (0.0, 0.0)

    # each gave nan, let OverflowError or ZeroDivisionError out, or passed
    # with both sums underflowed to 0
    @pytest.mark.parametrize("scale, spacing, row, message", [
        (1e160, 1.0, False, "phi^2 sum in real space = inf"),
        (1.0, 1e-200, False, "cell volume h^d = 0.0"),
        (1.0, 1e200, False, "cell volume h^d = inf"),
        (1.0, 1e300, True, "phi^2 sum in mode space = inf"),
        (1.0, 1e-160, False, "cell volume h^d = 1e-320"),
        (1e-200, 1.0, False, "phi^2 sum in real space = 0.0"),
    ])
    def test_beyond_the_float_range(self, scale, spacing, row, message):
        phi = np.random.default_rng(1).standard_normal((16, 16))
        phi = phi[0] if row else phi * scale
        with pytest.raises(ValueError, match="beyond the float range") as info:
            parseval_residuals(LatticeField(phi, spacing=spacing))
        assert message in str(info.value)

    def test_constant_field_whose_zero_mode_underflows(self):
        # a constant field's gradient sums may vanish; its phi^2 sums may not
        lattice = LatticeField(np.full((5, 6), -2.5), spacing=1e-150)
        with pytest.raises(ValueError, match="phi\\^2 sum in mode space = 0.0"):
            parseval_residuals(lattice)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeField(np.zeros((2, 2, 2)), spacing=1.0)
        with pytest.raises(ValueError):
            LatticeField(np.array([1.0]), spacing=1.0)
        with pytest.raises(ValueError):
            LatticeField(np.array([1.0, math.nan]), spacing=1.0)
        with pytest.raises(ValueError):
            LatticeField(np.array([1.0, 2.0]), spacing=0.0)


LATTICE_SHAPES = st.one_of(st.tuples(st.integers(2, 300)),
                           st.tuples(st.integers(2, 40), st.integers(2, 40)))


class TestHalfSpectrum:
    """The packed half spectrum against numpy's full complex transform."""

    @given(shape=LATTICE_SHAPES, seed=st.integers(0, 10 ** 6),
           spacing=st.floats(0.1, 3.0))
    @settings(max_examples=150, deadline=None)
    @example(shape=(2, 2), seed=0, spacing=1.0)
    @example(shape=(3, 2), seed=0, spacing=0.1)     # an odd last row, a Nyquist column
    @example(shape=(40, 39), seed=1, spacing=3.0)
    @example(shape=(2,), seed=2, spacing=1.0)
    def test_matches_fftn_on_the_kept_half(self, shape, seed, spacing):
        phi = np.random.default_rng(seed).standard_normal(shape)
        expected = np.fft.fftn(phi)[..., : shape[-1] // 2 + 1]
        got = _half_spectrum(phi)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        phi2, grad2 = parseval_residuals(LatticeField(phi, spacing=spacing))
        assert phi2 <= 1e-13
        assert grad2 <= 1e-13

    @given(shape=LATTICE_SHAPES, seed=st.integers(0, 10 ** 6),
           spacing=st.one_of(st.just(1.0), st.floats(0.05, 20.0)),
           exponent=st.integers(-400, 400), fortran=st.booleans())
    @settings(max_examples=200, deadline=None)
    @example(shape=(3, 2), seed=0, spacing=1.0, exponent=0, fortran=False)
    @example(shape=(2, 3), seed=1, spacing=0.3, exponent=0, fortran=False)
    @example(shape=(3, 3), seed=2, spacing=1.0, exponent=-400, fortran=True)
    @example(shape=(2, 2), seed=3, spacing=7.0, exponent=400, fortran=False)
    def test_same_bits_as_the_allocating_form(self, shape, seed, spacing, exponent, fortran):
        phi = np.random.default_rng(seed).standard_normal(shape) * 2.0 ** exponent
        if fortran:
            phi = np.asfortranarray(phi)
        lattice = LatticeField(phi, spacing=spacing)
        before = lattice.values.tobytes()
        assert _half_spectrum(phi).tobytes() == _allocating_half_spectrum(phi).tobytes()
        got = parseval_residuals(lattice)
        expected = _allocating_parseval_residuals(phi, spacing)
        assert [r.hex() for r in got] == [r.hex() for r in expected]
        assert lattice.values.tobytes() == before   # nothing writes into the field


def _allocating_half_spectrum(phi):
    """_half_spectrum as it was before it wrote into its own arrays."""
    if phi.ndim == 1:
        return np.fft.rfft(phi)
    n0, n1 = phi.shape
    half = n1 // 2 + 1
    even = n0 - n0 % 2
    packed = np.fft.fft(phi[0:even:2] + 1j * phi[1:even:2], axis=1)
    kept = packed[:, :half]
    mirror = packed[:, -np.arange(half)].conj()
    rows = np.empty((n0, half), dtype=complex)
    rows[0:even:2] = 0.5 * (kept + mirror)
    rows[1:even:2] = -0.5j * (kept - mirror)
    if n0 % 2:
        rows[-1] = np.fft.rfft(phi[-1])
    return np.fft.fft(rows, axis=0)


def _allocating_parseval_residuals(phi, h):
    """parseval_residuals as it was before it wrote into its own arrays."""
    d = phi.ndim
    cell = h ** d
    volume = float(phi.size) * cell
    modes = _allocating_half_spectrum(phi) * cell
    power = modes.real ** 2 + modes.imag ** 2
    power[..., 1 : (phi.shape[-1] + 1) // 2] *= 2.0
    phi2_real = cell * float(np.sum(phi * phi))
    phi2_mode = float(np.sum(power)) / volume
    grad2_real = 0.0
    grad2_mode = 0.0
    for axis in range(d):
        diff = (np.roll(phi, -1, axis=axis) - phi) / h
        grad2_real += cell * float(np.sum(diff * diff))
        marginal = power.sum(axis=tuple(a for a in range(d) if a != axis))
        q = 2.0 * math.pi * np.fft.fftfreq(phi.shape[axis], d=h)[: marginal.size]
        grad2_mode += float((2.0 / h * np.sin(q * h / 2.0)) ** 2 @ marginal)
    grad2_mode /= volume
    floor = 1e-30
    return (abs(phi2_real - phi2_mode) / max(abs(phi2_real), floor),
            abs(grad2_real - grad2_mode) / max(abs(grad2_real), floor))
