import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from sscasimir import quadrature
from sscasimir.gaussian import LGParams, _integrand, kernel
from sscasimir.quadrature import QuadratureConvergenceError, QuadratureResult, integrate


class TestIntegrate:
    def test_polynomial_is_nailed_by_one_panel(self):
        out = integrate(lambda x: x * x, 0.0, 1.0)
        assert out.value == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert out.evaluations == 15

    def test_sine_full_arch(self):
        out = integrate(math.sin, 0.0, math.pi)
        assert out.value == pytest.approx(2.0, rel=1e-12)

    def test_error_estimate_covers_true_error(self):
        for f, lo, hi, exact in [
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: math.exp(-x) * x ** 2, 0.0, 5.0, 2.0 - 37.0 * math.exp(-5.0)),
            (lambda x: math.sqrt(x + 0.01), 0.0, 2.0, (2.01 ** 1.5 - 0.01 ** 1.5) / 1.5),
        ]:
            out = integrate(f, lo, hi)
            assert abs(out.value - exact) <= max(out.abs_error_estimate, 1e-13 * abs(exact))

    def test_agrees_with_scipy(self):
        # independent adaptive-quadrature oracle
        for f, lo, hi in [
            (lambda x: x ** 2 / (1.0 + x ** 2), 0.5, 1.0),
            (lambda x: math.log(1.0 + x) / (2.0 + math.cos(x)), 0.0, 3.0),
        ]:
            mine = integrate(f, lo, hi)
            ref, _ = scipy_quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
            assert mine.value == pytest.approx(ref, rel=1e-10)

    def test_zero_integrand(self):
        out = integrate(lambda x: 0.0, 0.0, 1.0)
        assert out.value == 0.0
        assert out.abs_error_estimate == 0.0

    def test_evaluation_budget_raises_with_best_estimate(self):
        # needs several bisections; a 45-evaluation budget cannot finish
        wiggly = lambda x: math.sin(40.0 * x) ** 2 + 1e-3
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate(wiggly, 0.0, 10.0, rel_tol=1e-12, max_evals=45)
        err = excinfo.value
        assert err.evaluations <= 45
        assert math.isfinite(err.value)
        assert err.abs_error_estimate > 0.0

    def test_deterministic(self):
        f = lambda x: math.exp(-x * x)
        a = integrate(f, 0.0, 4.0)
        b = integrate(f, 0.0, 4.0)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, math.inf)

    def test_evaluations_counted_in_panel_units(self):
        out = integrate(lambda x: 1.0 / (1.0 + 50.0 * x * x), 0.0, 1.0)
        assert out.evaluations % 15 == 0
        assert out.evaluations >= 15

    def test_result_validation(self):
        with pytest.raises(ValueError):
            QuadratureResult(math.nan, 0.0, 15)
        with pytest.raises(ValueError):
            QuadratureResult(1.0, -1.0, 15)


# ---------------------------------------------------------------------------
# Oracle for the refinement order: the plain O(P^2 log P) list-of-panels loop
# (re-sort, fsum every value and error, and scan for the worst panel at each
# step) with a G7/K15 panel that branches on the centre node.  integrate must
# refine the same panels in the same order, so every returned or raised
# number is bit-identical to it.

def _oracle_panel(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gauss = 0.0
    kronrod = 0.0
    resabs = 0.0
    for node, wk, wg in zip(quadrature._NODES, quadrature._WK, quadrature._WG):
        if node == 0.0:
            fv = f(mid)
            kronrod += wk * fv
            gauss += wg * fv
            resabs += wk * abs(fv)
            continue
        f_plus = f(mid + half * node)
        f_minus = f(mid - half * node)
        kronrod += wk * (f_plus + f_minus)
        gauss += wg * (f_plus + f_minus)
        resabs += wk * (abs(f_plus) + abs(f_minus))
    value = kronrod * half
    resabs *= abs(half)
    err = max(abs(kronrod - gauss) * abs(half), 50.0 * quadrature._EPS * resabs)
    return value, err


def _oracle_integrate(f, lo, hi, rel_tol=1e-10, max_evals=10 ** 6, breakpoints=()):
    """(outcome, number of steps whose worst panel was tied with another)."""
    edges = [lo, *breakpoints, hi]
    panels = [(a, b, *_oracle_panel(f, a, b)) for a, b in zip(edges, edges[1:])]
    evaluations = 15 * len(panels)
    ties = 0
    while True:
        total = math.fsum(p[2] for p in sorted(panels))
        total_err = math.fsum(p[3] for p in panels)
        if total_err <= rel_tol * abs(total) or total_err == 0.0:
            return QuadratureResult(total, total_err, evaluations), ties
        if evaluations + 30 > max_evals:
            return QuadratureConvergenceError(total, total_err, evaluations), ties
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        ties += sum(p[3] == panels[worst][3] for p in panels) > 1
        plo, phi, _, _ = panels[worst]
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            return QuadratureConvergenceError(total, total_err, evaluations), ties
        lv, le = _oracle_panel(f, plo, mid)
        rv, re = _oracle_panel(f, mid, phi)
        panels[worst] = (plo, mid, lv, le)
        panels.append((mid, phi, rv, re))
        evaluations += 30


def _bits(outcome):
    if isinstance(outcome, QuadratureResult):
        return outcome.value.hex(), outcome.abs_error_estimate.hex(), outcome.evaluations
    return str(outcome), outcome.value.hex(), outcome.abs_error_estimate.hex(), outcome.evaluations


def _assert_same_as_oracle(f, lo, hi, **kwargs):
    """Compare integrate with the oracle bit for bit; returns the oracle's tie count."""
    expected, ties = _oracle_integrate(f, lo, hi, **kwargs)
    try:
        got = integrate(f, lo, hi, **kwargs)
    except QuadratureConvergenceError as exc:
        got = exc
    assert _bits(got) == _bits(expected)
    return ties


def _peak(p, w):
    return lambda x: 1.0 / ((x - p) ** 2 + w * w)


# The benchmark's below-cliff shell integrand: a peaked quartic kernel whose
# own rounding near the peak keeps refinement from ever meeting 1e-10.
_CLIFF_PARAMS = LGParams(t=1.3550048977326725, K=4.200044624973002, L=0.926576418276182,
                         higher=(-3.608140775341437, 1.0))


def _below_cliff(q):
    return q ** 3 / kernel(_CLIFF_PARAMS, q)


_CLIFF_SHELL = (1.968013745306391 / 1.6771105877512666, 1.968013745306391)


class TestRefinementOrder:
    @pytest.mark.parametrize("max_evals", [75, 255, 1005, 3015])
    @pytest.mark.parametrize("f", [
        lambda x: 1.0 / (1.0 + 100.0 * x * x),
        lambda x: math.sqrt(abs(x)),
        lambda x: math.exp(-1e4 * (abs(x) - 0.5) ** 2),
        lambda x: math.copysign(math.sqrt(abs(x)), x),
        lambda x: math.sin(20.0 * x) / (1.0 + x * x),
    ])
    def test_symmetric_integrands_break_ties_by_lowest_index(self, f, max_evals):
        # Panels mirrored about 0 carry exactly equal errors.  Even integrands
        # reach the same totals whichever tied panel goes first; odd ones flip
        # the sign of the value, so a budget that runs out between two tied
        # splits shows which one went first.
        assert _assert_same_as_oracle(f, -1.0, 1.0, max_evals=max_evals) > 0

    @pytest.mark.parametrize("p, w", [(0.5, 1e-3), (0.1234, 1e-4), (0.0, 1e-2), (0.9999, 1e-5)])
    def test_peaked_integrands(self, p, w):
        _assert_same_as_oracle(_peak(p, w), 0.0, 1.0)

    @pytest.mark.parametrize("f, lo, hi, rel_tol, max_evals", [
        (lambda x: math.sin(40.0 * x) ** 2 + 1e-3, 0.0, 10.0, 1e-12, 45),
        (_below_cliff, *_CLIFF_SHELL, 1e-10, 3015),
        # one panel at floating resolution: its midpoint is an end, so it
        # stops after 15 evaluations
        (lambda x: 1.0 if x == 1.0 else 0.0, 1.0, math.nextafter(1.0, 2.0), 1e-10, 10 ** 6),
    ])
    def test_budget_limited_runs(self, f, lo, hi, rel_tol, max_evals):
        _assert_same_as_oracle(f, lo, hi, rel_tol=rel_tol, max_evals=max_evals)

    def test_below_cliff_budget_is_spent_exactly(self):
        # never converging, it splits 3332 times, the most that fit in the
        # budget: 15 + 30 * 3332 evaluations over 3333 panels
        _assert_same_as_oracle(_below_cliff, *_CLIFF_SHELL, max_evals=10 ** 5)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate(_below_cliff, *_CLIFF_SHELL, max_evals=10 ** 5)
        assert excinfo.value.evaluations == 99975

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(-0.5, 1.5), log_w=st.floats(-4.0, 0.0), log_tol=st.floats(-13.0, -4.0))
    def test_peak_position_width_and_tolerance(self, p, log_w, log_tol):
        _assert_same_as_oracle(_peak(p, 10.0 ** log_w), 0.0, 1.0, rel_tol=10.0 ** log_tol)


class TestStartingPanels:
    @pytest.mark.parametrize("f, lo, hi, breakpoints, max_evals", [
        (_peak(0.3, 1e-3), 0.0, 1.0, [0.25, 0.5, 0.75], 10 ** 6),
        (lambda x: 1.0 / x, 1e-3, 1.0, [2e-3 * 2.0 ** k for k in range(9)], 10 ** 6),
        (lambda x: math.sin(20.0 * x) / (1.0 + x * x), -1.0, 1.0, [-0.5, 0.0, 0.5], 1005),
        # equal errors in mirrored starting panels: the lower index goes first
        (lambda x: math.copysign(math.sqrt(abs(x)), x), -1.0, 1.0, [-0.5, 0.0, 0.5], 255),
        # a budget below the starting panels' 60 evaluations
        (_peak(0.3, 1e-3), 0.0, 1.0, [0.25, 0.5, 0.75], 45),
    ])
    def test_same_as_the_oracle(self, f, lo, hi, breakpoints, max_evals):
        _assert_same_as_oracle(f, lo, hi, breakpoints=breakpoints, max_evals=max_evals)

    def test_one_panel_per_gap(self):
        out = integrate(lambda x: x * x, 0.0, 1.0, breakpoints=(0.125, 0.5))
        assert out.evaluations == 45
        assert out.value == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("breakpoints", [
        (0.0,), (1.0,), (1.5,), (-0.5,), (0.5, 0.5), (0.6, 0.4), (math.nan,), (math.inf,),
    ])
    def test_breakpoints_must_increase_inside_the_interval(self, breakpoints):
        with pytest.raises(ValueError, match="breakpoints must increase strictly inside"):
            integrate(lambda x: x, 0.0, 1.0, breakpoints=breakpoints)


# integrands of TestFilteredStopTest: peaked, with an integrable end
# singularity, mixed-sign, and one whose total nearly cancels
_FILTERED = [
    (_peak(0.3, 1e-3), 0.0, 1.0),
    (lambda x: 1.0 / math.sqrt(x), 1e-12, 1.0),
    (lambda x: math.sin(1.0 / x), 0.05, 1.0),
    (lambda x: math.sin(20.0 * x), -1.0, 1.0 + 2.0 ** -20),
]


def _after(f, lo, hi, splits):
    """The oracle's outcome after the given number of bisections."""
    return _oracle_integrate(f, lo, hi, rel_tol=1e-300, max_evals=15 + 30 * splits)[0]


class TestFilteredStopTest:
    """The stop test skips its exact sums only where floats prove the run
    goes on; tolerances at the ratio of some step and at its float
    neighbours put the exact test on its edge."""

    @pytest.mark.parametrize("f, lo, hi", _FILTERED)
    def test_tolerance_at_a_ratio_and_its_neighbours(self, f, lo, hi):
        try:
            final = integrate(f, lo, hi, max_evals=3015)
        except QuadratureConvergenceError as exc:
            final = exc
        outcomes = [final] + [_after(f, lo, hi, k) for k in (0, 1, 3, 8)]
        ratios = [out.abs_error_estimate / abs(out.value) for out in outcomes if out.value]
        assert len(ratios) == 5
        for r in ratios:
            for rel_tol in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)):
                _assert_same_as_oracle(f, lo, hi, rel_tol=rel_tol, max_evals=3015)

    @pytest.mark.parametrize("f, lo, hi, rel_tol, max_evals", [
        # subnormal panel values and errors
        (lambda x: 1e-310 * math.sqrt(x), 0.0, 1.0, 1e-10, 10 ** 6),
        (lambda x: 5e-324 * (1.0 + 1e3 * x * x), 0.0, 1.0, 1e-3, 10 ** 4),
        (lambda x: 1e-300 * math.sin(1.0 / x), 0.05, 1.0, 1e-12, 3015),
        # values and running masses near the largest float
        (lambda x: 5e307 * math.sqrt(x), 0.0, 1.0, 1e-13, 10 ** 4),
        (lambda x: 5e307 / (1.0 + 1e4 * (x - 0.4) ** 2), 0.0, 1.0, 1e-12, 10 ** 4),
    ])
    def test_panel_values_at_the_ends_of_the_float_range(self, f, lo, hi, rel_tol, max_evals):
        _assert_same_as_oracle(f, lo, hi, rel_tol=rel_tol, max_evals=max_evals)

    @pytest.mark.parametrize("f, lo, hi, rel_tol", [
        (lambda x: math.sin(1.0 / x), 1e-6, 1.0, 1e-10),
        (lambda x: math.sin(20.0 * x), -1.0, 1.0, 1e-15),
        (_below_cliff, *_CLIFF_SHELL, 1e-10),
        # error bounds n eps mass that underflow
        (lambda x: 1e-300 * math.sin(1.0 / x), 1e-6, 1.0, 1e-10),
        (lambda x: 1e-310 * math.sin(1.0 / x), 1e-6, 1.0, 1e-10),
    ])
    def test_exact_sums_on_a_long_budget_limited_run(self, monkeypatch, f, lo, hi, rel_tol):
        # 3332 bisections; the exact path (two fsums) is taken a few times,
        # not once per step
        calls = []

        def fsum(terms):
            calls.append(len(terms))
            return math.fsum(terms)
        monkeypatch.setattr(quadrature, "math", SimpleNamespace(**{**vars(math), "fsum": fsum}))
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate(f, lo, hi, rel_tol=rel_tol, max_evals=10 ** 5)
        assert excinfo.value.evaluations == 99975
        assert len(calls) <= 8


class TestNonFiniteSamples:
    @staticmethod
    def _counted(f):
        calls = []

        def wrapped(x):
            calls.append(x)
            return f(x)
        return wrapped, calls

    @pytest.mark.parametrize("f, message", [
        (lambda x: math.nan, "integrand is not finite at x = 0.9957276855604065: f(x) = nan"),
        (lambda x: math.inf if x == 0.5 else 1.0, "integrand is not finite at x = 0.5: f(x) = inf"),
    ])
    def test_raises_after_one_panel(self, f, message):
        # the first panel's 15 samples decide, and the node is named from
        # those samples, so f is called once per node of the first panel
        wrapped, calls = self._counted(f)
        with pytest.raises(ValueError) as excinfo:
            integrate(wrapped, 0.0, 1.0)
        assert str(excinfo.value) == message
        assert len(calls) == 15

    def test_panel_beyond_float_range(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            integrate(lambda x: 1e308, 0.0, 10.0)


class TestNearTheLargestFloat:
    def test_midpoint_whose_sum_overflows(self):
        # 1e308 + 1.7e308 overflows; every node stays inside the interval
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / x
        out = integrate(f, 1e308, 1.7e308)
        assert all(1e308 <= x <= 1.7e308 for x in calls)
        assert abs(out.value - math.log(1.7)) <= out.abs_error_estimate

    def test_bisected_midpoint_whose_sum_overflows(self):
        # a peak of width 1e305 at 1.35e308: the panels are bisected, and each
        # bisection's plo + phi overflows; the value is within its estimate
        # of 1e305 (atan(350) - atan(-350))
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / (1.0 + ((x - 1.35e308) / 1e305) ** 2)
        out = integrate(f, 1e308, 1.7e308)
        assert out.evaluations > 15
        assert all(1e308 <= x <= 1.7e308 for x in calls)
        assert abs(out.value - 3.1358783834245077e+305) <= out.abs_error_estimate

    def test_half_width_whose_difference_overflows(self):
        out = integrate(lambda x: 1e-300, -1e308, 1e308)
        assert out.value == pytest.approx(2e8, rel=1e-14)


# ---------------------------------------------------------------------------
# The unrolled panel against _oracle_panel, the rolled loop: both are fed the
# same samples in call order, so they must sample the same nodes in the same
# order and return the same bits, or raise the same message.

def _replay(samples):
    """An integrand that records its nodes and returns samples in call order;
    a panel samples each of its 15 nodes once, so a 16th call raises."""
    calls, values = [], iter(samples)

    def f(x):
        calls.append(x)
        return next(values)
    return f, calls


def _panel_outcome(panel, samples, lo, hi):
    """(value and error as hex, or the ValueError message; the first 15 nodes)."""
    f, calls = _replay(samples)
    try:
        value, err = panel(f, lo, hi)
    except ValueError as exc:
        return str(exc), calls
    if math.isfinite(value) and math.isfinite(err):
        assert len(calls) == 15
        return (value.hex(), err.hex()), calls
    # the rolled loop does not raise: name the cause as integrate does
    bad = [(x, fx) for x, fx in zip(calls, samples) if not math.isfinite(fx)]
    if bad:
        return f"integrand is not finite at x = {bad[0][0]!r}: f(x) = {bad[0][1]!r}", calls
    return (f"panel [{lo!r}, {hi!r}] is beyond the float range: "
            f"value {value!r}, error estimate {err!r}"), calls


def _dipped(c, d, k, flip):
    """Samples c, but the pair of node k is c + d and c - d < 0, in either order."""
    pair = [c - d, c + d] if flip else [c + d, c - d]
    return [c] * (2 * k) + pair + [c] * (13 - 2 * k)


SAMPLES = st.one_of(
    # comparable magnitudes of either sign, where every rounding shows
    st.lists(st.floats(-4.0, 4.0), min_size=15, max_size=15),
    st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    ), min_size=15, max_size=15),
    # no sample negative, where the panel skips its absolute-sum pass: signed
    # zeros, subnormals, sums that overflow and +inf
    st.lists(st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, -0.0])), min_size=15, max_size=15),
    st.lists(st.one_of(
        st.floats(allow_nan=False, min_value=0.0),
        st.sampled_from([0.0, -0.0, 5e-324, 1e308, math.inf]),
    ), min_size=15, max_size=15),
    # one negative sample, at any node, among non-negative ones
    st.tuples(st.lists(st.floats(0.0, 4.0), min_size=15, max_size=15), st.integers(0, 14),
              st.floats(-4.0, -5e-324)).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
    # K15 and G7 see only pair sums, so here the error is the floor, which
    # the absolute sum sets
    st.builds(_dipped, st.floats(0.5, 4.0), st.floats(4.5, 8.0), st.integers(0, 6), st.booleans()),
)


class TestUnrolledPanel:
    @settings(max_examples=400, deadline=None)
    @given(samples=SAMPLES, lo=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e3))
    @example(samples=[-0.0] * 15, lo=0.0, width=1.0)
    @example(samples=[1.0, -1.0] * 7 + [0.0], lo=-1.0, width=2.0)
    @example(samples=[-5e-324, 0.0] * 7 + [-0.0], lo=0.0, width=1.0)
    @example(samples=[-0.0, 0.0] * 7 + [1.0], lo=0.0, width=1.0)
    @example(samples=[1.0] * 14 + [math.inf], lo=0.0, width=1.0)
    @example(samples=[1.0] * 14 + [math.nan], lo=0.0, width=1.0)
    # only the outermost pair sum overflows; its Gauss weight is zero
    @example(samples=[1e308, 1e308] + [1.0] * 13, lo=-1.0, width=2.0)
    def test_same_nodes_and_bits_as_the_rolled_loop(self, samples, lo, width):
        hi = lo + width
        assert _panel_outcome(quadrature._panel, samples, lo, hi) == \
            _panel_outcome(_oracle_panel, samples, lo, hi)

    def test_negative_centre_under_the_error_floor(self):
        # samples 10 and a centre of -1, with the pair of node 7 (no Gauss
        # weight) moved so that K15 - G7 stays at rounding: the error is the
        # floor, which the absolute sum sets above 50 eps of the value
        s7 = 20.0 + (quadrature._WK[7] - quadrature._WG[7]) * 11.0 / quadrature._WK[6]
        samples = [10.0] * 12 + [s7 / 2.0, s7 / 2.0, -1.0]
        (value, err), _ = _panel_outcome(_oracle_panel, samples, 0.0, 1.0)
        assert float.fromhex(err) > float.fromhex(value) * quadrature._FLOOR
        assert _panel_outcome(quadrature._panel, samples, 0.0, 1.0) == \
            _panel_outcome(_oracle_panel, samples, 0.0, 1.0)

    @pytest.mark.parametrize("f", [
        lambda x: -0.0,
        lambda x: x - 0.3,
        lambda x: -1.0 / (1e-4 + (x - 0.25) ** 2),
        lambda x: 1.0 / (1e-4 + (x - 0.25) ** 2),
        lambda x: abs(x) ** 0.5,
    ])
    def test_integrands(self, f):
        got = quadrature._panel(f, -1.0, 2.0)
        assert [v.hex() for v in got] == [v.hex() for v in _oracle_panel(f, -1.0, 2.0)]

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(0.1, 50.0), phase=st.floats(-4.0, 4.0), lo=st.floats(-10.0, 10.0),
           width=st.floats(1e-3, 10.0))
    def test_mixed_sign_integrands(self, k, phase, lo, width):
        f = lambda x: math.sin(k * x + phase)
        got = quadrature._panel(f, lo, lo + width)
        assert [v.hex() for v in got] == [v.hex() for v in _oracle_panel(f, lo, lo + width)]

    def test_pair_sum_overflow_names_the_panel(self):
        # finite samples, an outer pair sum beyond the float range: 0 * inf
        # makes the rolled loop's error estimate nan, and the message says so
        with pytest.raises(ValueError) as excinfo:
            integrate(lambda x: 1e308 if abs(x) > 0.99 else 1.0, -1.0, 1.0)
        assert str(excinfo.value) == ("panel [-1.0, 1.0] is beyond the float range: "
                                      "value inf, error estimate nan")



# ---------------------------------------------------------------------------
# The shell panels, with the kernel written out at each node, against
# _oracle_panel over the integrand's closure: every pattern of nonzero
# coefficients of a kernel of degree 4 at most (those of both perfbench
# pools among them), and some of higher degree, whose powers and terms are
# statements of their own, d = 1 to 4.

_NONZERO = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


class TestShellPanel:
    @pytest.mark.parametrize("nonzero", [p for n in (3, 4, 5)
                                         for p in itertools.product((False, True), repeat=n)]
                             + [(True,) * 6, (True, False, False, False, False, True),
                                (True, True, False, True, False, True, False, True)],
                             ids=lambda p: "".join("x" if c else "0" for c in p))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(1, 4), lo=st.floats(0.0, 4.0) | st.floats(0.0, 1e200),
           width=st.floats(1e-6, 4.0) | st.floats(1e-6, 1e200))
    def test_same_bits_as_the_rolled_loop(self, nonzero, data, d, lo, width):
        # coefficients of moderate size, or of any size, where samples
        # overflow, underflow or divide by a zero g: a panel that raises
        # raises as the callable's panel does, over the same closure
        size = data.draw(st.sampled_from([st.floats(-4.0, 4.0).filter(bool), _NONZERO]))
        coeffs = [data.draw(size) if c else 0.0 for c in nonzero]
        hi = lo + width
        f, panel = _integrand(coeffs, d)
        try:
            got = panel()(f, lo, hi)
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as expected:
                quadrature._panel(f, lo, hi)
            assert (type(expected.value), str(expected.value)) == (type(exc), str(exc))
        else:
            assert [v.hex() for v in got] == [v.hex() for v in _oracle_panel(f, lo, hi)]
