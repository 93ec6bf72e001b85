import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from sscasimir.gaussian import (
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
    radial_measure,
    solid_angle,
)

# closed-form oracle for the d=3, t=K=1, L=0 shell: antiderivative q - arctan q
D3_EXACT = -(0.5 - math.pi / 4.0 + math.atan(0.5)) / (4.0 * math.pi ** 2)
# constant-kernel oracle in d=1: -(1/2)(1/pi)(1 - 1/2)
D1_EXACT = -1.0 / (4.0 * math.pi)


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

    def test_validation(self):
        with pytest.raises(BelowCriticalityError):
            LGParams(t=-1.0, K=1.0)
        with pytest.raises(ValueError):
            LGParams(t=1.0, K=-1.0)
        with pytest.raises(ValueError):
            LGParams(t=1.0, K=1.0, L=-0.5)


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
        # (u - 2.1)^2 (u + 0.42)^2 - 1e-8 in u = q^2: a dip the positivity
        # sampler misses, where the integrand divides by an exact 0
        params = LGParams(t=np.float64(0.77792399), K=np.float64(2.96352), L=np.float64(1.0584),
                          higher=(np.float64(-3.36), np.float64(1.0)))
        assert all(type(v) is float for v in (params.t, params.K, params.L, *params.higher))
        shell = ShellSpec(dim=3, cutoff=2.0, shell_factor=2.0, temperature=1.0)
        with pytest.raises((ArithmeticError, ValueError)):
            casimir_energy_density(params, shell)

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
