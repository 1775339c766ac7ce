import dataclasses
import math

import numpy as np
import pytest

from convexgof import (
    TAU,
    TWO_SAMPLE,
    ConvexGenerator,
    GeneratorSpecError,
    InvalidParameterError,
    LogConvexGenerator,
    NotStrictlyConvexError,
    NumericalError,
    QuadratureError,
    Sample,
    bernstein_generator,
    exp_sq_generator,
    parse_generator_spec,
    polynomial_generator,
    power_generator,
    run_test,
    simulate_null,
    validate_generator,
)
from convexgof import generators
from convexgof.generators import adaptive_quad

from oracle_helpers import all_pairs_strict, expsq_antiderivative, expsq_square_integral, simpson

GRID = np.linspace(0.0, 1.0, 129)

# (name, callable, convex): the verdicts straddle every cutoff of the strictness bound
AGREEMENT_CASES = (
    [(f"u^{m}", lambda u, m=m: np.asarray(u, dtype=float) ** m, True)
     for m in (2, 3, 5, 7, 12, 30, 60, 100, 140, 150, 153, 154, 160)]
    + [(f"u+{c:g}u^2", lambda u, c=c: u + c * u * u, True)
       for c in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 2e-7, 1e-6)]
    + [("sqrt", np.sqrt, True), ("kink", lambda u: np.abs(u - 0.3) - 0.3, True),
       ("square+kink", lambda u: u * u + np.abs(u - 0.3) - 0.3, True), ("exp-1", lambda u: np.expm1(u), True),
       ("exp", np.exp, False), ("one", lambda u: np.ones_like(np.asarray(u, dtype=float)), False)]
    + [(f"exp({a:g}u^2)", lambda u, a=a: np.exp(a * np.asarray(u, dtype=float) ** 2), False)
       for a in (1e-12, 1e-10, 1e-8, 3e-8, 6e-8, 6.5e-8, 7e-8, 1e-7, 1e-6, 1e-4, 0.01, 0.25, 1.0, 4.0, 20.0)]
)


class TestPowerGenerator:
    def test_square_worked_values(self):
        h = power_generator(2)
        assert h.eval(0.5) == 0.25
        assert h.integral_0_1 == 1.0 / 3.0

    def test_cube_integral(self):
        assert power_generator(3).integral_0_1 == 0.25

    def test_boundary_values(self):
        h = power_generator(2)
        assert h.eval(0.0) == 0.0
        assert h.eval(1.0) == 1.0

    def test_vectorized_eval(self):
        h = power_generator(4)
        out = h.eval(GRID)
        assert out.shape == GRID.shape
        assert np.allclose(out, GRID**4)

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_rejects_degree_below_two(self, m):
        with pytest.raises(InvalidParameterError):
            power_generator(m)

    @pytest.mark.parametrize("m", [2.5, "2", True])
    def test_rejects_non_integers(self, m):
        with pytest.raises(InvalidParameterError):
            power_generator(m)


class TestPolynomialGenerator:
    def test_reduces_to_power_case(self):
        poly = polynomial_generator([0.0, 1.0])
        square = power_generator(2)
        assert poly.integral_0_1 == square.integral_0_1
        assert np.max(np.abs(poly.eval(GRID) - square.eval(GRID))) <= 1e-14

    def test_mixed_integral(self):
        h = polynomial_generator([1.0, 1.0])  # u + u^2
        assert abs(h.integral_0_1 - 5.0 / 6.0) < 1e-15
        assert abs(h.eval(0.5) - 0.75) < 1e-15

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InvalidParameterError):
            polynomial_generator([0.0, -1.0])

    def test_linear_only_rejected(self):
        with pytest.raises(NotStrictlyConvexError):
            polynomial_generator([1.0])

    def test_all_higher_coefficients_zero_rejected(self):
        with pytest.raises(NotStrictlyConvexError):
            polynomial_generator([2.0, 0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            polynomial_generator([])


class TestBernsteinGenerator:
    # for h = u^2 the smoothing has the closed form u^2 + u(1-u)/m

    def test_degree_four_midpoint(self):
        b4 = bernstein_generator(power_generator(2), 4)
        assert abs(b4.eval(0.5) - 0.3125) < 1e-15

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_matches_closed_form(self, m):
        bm = bernstein_generator(power_generator(2), m)
        expected = GRID**2 + GRID * (1.0 - GRID) / m
        assert np.max(np.abs(bm.eval(GRID) - expected)) < 1e-13

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_sup_error_is_quarter_over_m(self, m):
        bm = bernstein_generator(power_generator(2), m)
        sup = np.max(np.abs(bm.eval(GRID) - GRID**2))
        assert abs(sup - 1.0 / (4.0 * m)) < 1e-12

    def test_endpoints(self):
        for h in (power_generator(3), polynomial_generator([0.5, 2.0])):
            for m in (2, 7):
                bm = bernstein_generator(h, m)
                assert bm.eval(0.0) == 0.0
                assert abs(bm.eval(1.0) - h.eval(1.0)) < 1e-12

    def test_integral_closed_form_vs_quadrature(self):
        for h in (power_generator(2), power_generator(3)):
            for m in (4, 8):
                bm = bernstein_generator(h, m)
                assert abs(bm.integral_0_1 - adaptive_quad(bm.eval, 0.0, 1.0)) < 1e-10
                assert abs(bm.integral_0_1 - simpson(bm.eval, 0.0, 1.0, panels=20000)) < 1e-10

    @pytest.mark.parametrize("base", ["square", "cube"])
    def test_integral_converges_monotonically(self, base):
        h = power_generator(2 if base == "square" else 3)
        errors = [
            abs(bernstein_generator(h, m).integral_0_1 - h.integral_0_1)
            for m in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_high_degree_matches_closed_form(self):
        # C(2000, k) overflows a double; the log-space basis does not
        bm = bernstein_generator(power_generator(2), 2000)
        u = np.array([0.0, 0.3, 0.5, 1.0])
        assert np.max(np.abs(bm.eval(u) - (u**2 + u * (1.0 - u) / 2000))) < 1e-14

    @pytest.mark.parametrize("m", [8, 300])
    def test_value_does_not_depend_on_the_array(self, m):
        bm = bernstein_generator(power_generator(2), m)
        u = np.linspace(0.0, 1.0, 301)
        values = bm.eval(u)
        assert [bm.eval(float(t)) for t in u] == list(values)
        assert np.array_equal(bm.eval(u[:7]), values[:7])
        assert np.array_equal(bm.eval(u.reshape(7, 43)), values.reshape(7, 43))

    def test_rejects_low_degree(self):
        with pytest.raises(InvalidParameterError):
            bernstein_generator(power_generator(2), 1)

    def test_rejects_negative_valued_base(self):
        dipped = ConvexGenerator(
            "dip", lambda u: u * u - 0.4 * u, integral_0_1=1.0 / 3.0 - 0.2, validated=False)
        with pytest.raises(InvalidParameterError):
            bernstein_generator(dipped, 4)


class TestExpSqGenerator:
    def test_endpoint_values(self):
        xi = exp_sq_generator(1.0)
        assert xi.eval(0.0) == 1.0
        assert abs(xi.eval(1.0) - math.e) < 1e-15

    def test_square_integral_matches_closed_form(self):
        for alpha in (0.5, 1.0, 2.0):
            xi = exp_sq_generator(alpha)
            assert abs(xi.integral_sq_0_1 - expsq_square_integral(alpha)) < 1e-10

    def test_known_constants(self):
        xi = exp_sq_generator(1.0)
        assert abs(xi.antiderivative_grid(1)[1] - 1.4626517459071815) < 1e-9
        assert abs(xi.integral_sq_0_1 - 2.3644538928052094) < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("n", [1, 4, 7, 50, 5000])
    def test_grid_matches_closed_form(self, alpha, n):
        grid = exp_sq_generator(alpha).antiderivative_grid(n)
        exact = expsq_antiderivative(alpha, np.arange(n + 1) / n)
        assert grid[0] == 0.0
        assert np.max(np.abs(grid[1:] / exact[1:] - 1.0)) < 2e-14

    def test_grid_is_cached(self):
        xi = exp_sq_generator(1.0)
        assert xi.antiderivative_grid(8) is xi.antiderivative_grid(8)

    # a positive alpha this small rounds xi to log-linear on the validator's grid
    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), 2e-12, 1e-20])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InvalidParameterError, match="failed validation" if alpha > 0 else "alpha"):
            exp_sq_generator(alpha)


class TestAdaptiveQuad:
    def test_array_ends_match_scalar_calls(self):
        a = np.array([[0.0, 0.1, 0.25], [0.5, 0.9, 1.0]])
        b = np.array([[0.1, 0.6, 0.25], [0.75, 1.0, 0.3]])  # one empty panel, one reversed
        values = adaptive_quad(lambda u: np.exp(u * u) / (1.0 + u), a, b, tol=1e-13)
        assert values.shape == a.shape
        for idx in np.ndindex(a.shape):
            scalar = adaptive_quad(lambda u: np.exp(u * u) / (1.0 + u), a[idx], b[idx], tol=1e-13)
            assert isinstance(scalar, float)
            assert abs(values[idx] - scalar) <= 1e-13

    def test_scalar_only_callable(self):
        edges = np.linspace(0.0, 1.0, 5)
        values = adaptive_quad(math.exp, edges[:-1], edges[1:])
        assert np.max(np.abs(values - np.diff(np.exp(edges)))) < 1e-14
        assert abs(adaptive_quad(math.exp, 0.0, 1.0) - (math.e - 1.0)) < 1e-14

    def test_interior_kink_falls_back_to_quadpack(self):
        value = adaptive_quad(lambda u: np.abs(u - 0.3), 0.0, 1.0)
        assert abs(value - 0.29) < 1e-12

    def test_integrable_end_singularities(self):
        assert abs(adaptive_quad(np.log, 0.0, 1.0) + 1.0) < 1e-12
        assert abs(adaptive_quad(lambda u: 1.0 / np.sqrt(1.0 - u), 0.0, 1.0) - 2.0) < 1e-10

    @pytest.mark.parametrize("fn", [lambda u: 1.0 / u, lambda u: np.exp(800.0 * u * u)],
                             ids=["divergent", "overflow"])
    def test_failure_raises_without_warnings(self, fn):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QuadratureError, match="quadrature failed"):
                adaptive_quad(fn, 0.0, 1.0)
        assert [str(w.message) for w in caught] == []

    def test_overflowing_rule_sum_is_not_accepted(self):
        # the tanh-sinh sums overflow to inf, which must not count as converged
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = adaptive_quad(lambda u: np.where(u < 0.9, 0.0, 1e308 * ((u - 0.9) / 0.1) ** 2), 0.0, 1.0)
        assert abs(value / (1e308 / 30.0) - 1.0) < 1e-10
        assert [str(w.message) for w in caught] == []


class TestValidateGenerator:
    def test_builders_pass_at_default_grid(self):
        for g in (
            power_generator(2),
            power_generator(5),
            polynomial_generator([1.0, 0.0, 2.0]),
            bernstein_generator(power_generator(2), 8),
            exp_sq_generator(1.0),
            exp_sq_generator(0.25),
            exp_sq_generator(1e-6),
        ):
            report = validate_generator(g)
            assert report.passed, report.first_violation
            assert report.grid_size == 128

    def test_linear_function_fails(self):
        linear = ConvexGenerator("line", lambda u: u, integral_0_1=0.5, validated=False)
        report = validate_generator(linear)
        assert not report.passed
        assert "midpoint" in report.first_violation

    @pytest.mark.parametrize("m", [7, 12])
    def test_high_powers_pass(self, m):
        # gaps near 0 are of order 128^-m; the bound is relative to the values compared
        g = ConvexGenerator(f"p{m}", lambda u: u ** m)
        assert g.validated
        assert validate_generator(g).passed

    def test_non_finite_value_is_a_violation(self):
        def fn(u):
            u = np.asarray(u, dtype=float)
            return np.where(u == 0.5, np.nan, u * u)

        forced = ConvexGenerator("nan", fn, integral_0_1=1.0 / 3.0, validated=False)
        report = validate_generator(forced)
        assert not report.passed
        assert report.first_violation == "h(0.5) = nan is not finite"
        with pytest.raises(InvalidParameterError, match="not finite"):
            ConvexGenerator("nan", fn, integral_0_1=1.0 / 3.0)

    def test_nonzero_origin_fails(self):
        shifted = ConvexGenerator(
            "shifted", lambda u: u * u + 0.5, integral_0_1=1.0 / 3.0 + 0.5, validated=False)
        report = validate_generator(shifted)
        assert not report.passed
        assert "h(0)" in report.first_violation

    def test_wrong_integral_fails(self):
        wrong = ConvexGenerator("off", lambda u: u * u, integral_0_1=0.4, validated=False)
        report = validate_generator(wrong)
        assert not report.passed
        assert "integral" in report.first_violation

    def test_log_linear_xi_fails(self):
        # exp(u) is log-linear: strict log-convexity must reject it
        loglin = LogConvexGenerator("exp", lambda u: math.exp(u), validated=False)
        report = validate_generator(loglin)
        assert not report.passed
        assert "log-convexity" in report.first_violation

    def test_wrong_square_integral_fails(self):
        def fn(u):
            return np.exp(np.asarray(u) ** 2)

        with pytest.raises(InvalidParameterError, match="integral_sq_0_1"):
            LogConvexGenerator("e", fn, integral_sq_0_1=5.0)
        forced = LogConvexGenerator("e", fn, integral_sq_0_1=5.0, validated=False)
        report = validate_generator(forced)
        assert not report.passed
        assert "integral" in report.first_violation
        assert validate_generator(LogConvexGenerator("e", fn)).passed

    def test_constant_xi_fails(self):
        const = LogConvexGenerator("one", lambda u: 1.0, validated=False)
        assert not validate_generator(const).passed

    def test_overflowing_pair_mean_is_no_pass(self):
        # concave on [0, 0.9]; h(u) + h(v) overflows for u, v near 1
        def fn(u):
            u = np.asarray(u, dtype=float)
            return 0.01 * np.sqrt(u) + np.where(u < 0.9, 0.0, 1e308 * ((u - 0.9) / 0.1) ** 2)

        forced = ConvexGenerator("steep", fn, integral_0_1=0.0, validated=False)
        report = validate_generator(forced)
        assert not report.passed
        assert "midpoint convexity" in report.first_violation

    @pytest.mark.parametrize("name, fn, convex", AGREEMENT_CASES, ids=[c[0] for c in AGREEMENT_CASES])
    def test_agrees_with_all_pairs_probe(self, name, fn, convex):
        build = ConvexGenerator if convex else LogConvexGenerator
        g = build(name, fn, validated=False)
        assert validate_generator(g).passed == all_pairs_strict(fn, convex)

    @pytest.mark.parametrize("spec", ["expsq:1e-8", "expsq:6e-8", "power:160", "poly:1,1e-14"])
    def test_builders_reject_what_the_validator_rejects(self, spec):
        with pytest.raises(InvalidParameterError, match="failed validation"):
            parse_generator_spec(spec)

    @pytest.mark.parametrize("spec", [
        "expsq:7e-8", "power:140", "power:2", "power:3", "poly:0,1", "poly:0,1,1", "poly:0.5,1.5",
        "poly:0,1.0000001", "poly:0,1e308", "expsq:0.5", "expsq:1", "expsq:1.0000001", "bernstein:power:2:4",
        "bernstein:power:2:8", "bernstein:power:2:300", "bernstein:bernstein:power:2:4:8",
        "bernstein:poly:0,1e308:2",
    ])
    def test_specs_in_use_are_validated(self, spec):
        assert parse_generator_spec(spec).validated

    def test_bernstein_knot_sum_overflow_is_numerical(self):
        with pytest.raises(NumericalError, match="knot values"):
            parse_generator_spec("bernstein:poly:0,1e308:8")

    def test_from_callable_validates_by_default(self):
        with pytest.raises(InvalidParameterError):
            ConvexGenerator("line", lambda u: u, integral_0_1=0.5)

    def test_unvalidated_flag_recorded(self):
        g = ConvexGenerator("line", lambda u: u, integral_0_1=0.5, validated=False)
        assert not g.validated


def _square(u):
    return np.asarray(u, dtype=float) ** 2


class TestConstruction:
    """The generator types validate on construction and integrate an omitted constant once."""

    @pytest.mark.parametrize("build", [
        lambda: ConvexGenerator("lin", lambda u: np.asarray(u, float), 0.5),
        lambda: LogConvexGenerator("exp", np.exp),
        lambda: dataclasses.replace(power_generator(2), eval=lambda u: np.asarray(u, float)),
    ], ids=["linear-h", "log-linear-xi", "replace"])
    def test_constructor_rejects_what_the_validator_rejects(self, build):
        with pytest.raises(InvalidParameterError, match="failed validation: .*not strict"):
            build()

    def test_omitted_constant_is_one_quadrature(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return adaptive_quad(*args, **kwargs)

        monkeypatch.setattr(generators, "adaptive_quad", counting)
        h = ConvexGenerator("p2", _square)
        assert len(calls) == 1
        assert h.validated and h.integral_0_1 == adaptive_quad(_square, 0.0, 1.0)

    def test_omitted_constants_are_the_validator_quadratures(self):
        xi = LogConvexGenerator("e", lambda u: np.exp(np.asarray(u) ** 2))
        assert xi.integral_sq_0_1 == adaptive_quad(lambda v: np.exp(v * v) ** 2, 0.0, 1.0)

    def test_nan_generator_names_its_point(self):
        def fn(u):
            u = np.asarray(u, dtype=float)
            return np.where(u == 0.5, np.nan, u * u)

        with pytest.raises(InvalidParameterError, match=r"failed validation: h\(0.5\) = nan is not finite"):
            ConvexGenerator("nan", fn)

    @pytest.mark.parametrize("constant", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("validated", [True, False])
    def test_non_finite_constant_is_always_rejected(self, constant, validated):
        with pytest.raises(InvalidParameterError, match="integral_0_1 = .* is not finite"):
            ConvexGenerator("p2", _square, constant, validated=validated)
        with pytest.raises(InvalidParameterError, match="integral_sq_0_1 = .* is not finite"):
            LogConvexGenerator("e", np.exp, constant, validated=validated)

    @pytest.mark.parametrize("g", [ConvexGenerator("p2", _square, 1.0 / 3.0),
                                   exp_sq_generator(1.0)], ids=["h", "xi"])
    def test_nan_constant_is_a_violation(self, g):
        # set past construction, which rejects it: the comparison itself must not pass a NaN
        key = "integral_0_1" if isinstance(g, ConvexGenerator) else "integral_sq_0_1"
        object.__setattr__(g, key, float("nan"))
        report = validate_generator(g)
        assert not report.passed
        assert report.first_violation.startswith(f"{key} = nan but quadrature gives")


class TestSpecGrammar:
    def test_power_spec(self):
        g = parse_generator_spec("power:2")
        assert g.name == "power:2"
        assert g.integral_0_1 == 1.0 / 3.0

    def test_poly_spec(self):
        g = parse_generator_spec("poly:0,1")
        assert abs(g.eval(0.5) - 0.25) < 1e-15

    def test_bernstein_spec(self):
        g = parse_generator_spec("bernstein:power:2:4")
        assert abs(g.eval(0.5) - 0.3125) < 1e-15

    def test_nested_bernstein_spec(self):
        g = parse_generator_spec("bernstein:bernstein:power:2:4:8")
        assert g.name == "bernstein:bernstein:power:2:4:8"
        assert g.eval(0.0) == 0.0

    def test_names_are_lossless(self):
        for spec in ("power:2", "poly:0,1,1", "expsq:1", "bernstein:power:2:8", "poly:0.5,1.5"):
            assert parse_generator_spec(spec).name == spec
        for near, exact in (("poly:0,1.0000001", "poly:0,1"), ("expsq:1.0000001", "expsq:1")):
            assert parse_generator_spec(near).name == near != parse_generator_spec(exact).name

    def test_table_for_a_nearby_generator_is_rejected(self):
        samples = [Sample([0.1, 0.5, 0.9]), Sample([0.2, 0.3, 0.7])]
        for near, exact, kind in (("poly:0,1.0000001", "poly:0,1", TWO_SAMPLE),
                                  ("expsq:1.0000001", "expsq:1", TAU)):
            table = simulate_null(kind, parse_generator_spec(exact), (3, 3), B=20, seed=0)
            with pytest.raises(InvalidParameterError, match="generator"):
                run_test(kind, parse_generator_spec(near), samples, table=table)

    def test_expsq_spec_is_log_convex(self):
        g = parse_generator_spec("expsq:1.0")
        assert isinstance(g, LogConvexGenerator)

    def test_unknown_family_cites_token(self):
        with pytest.raises(GeneratorSpecError, match="gauss"):
            parse_generator_spec("gauss:1")

    def test_bad_number_cites_token(self):
        with pytest.raises(GeneratorSpecError, match="x"):
            parse_generator_spec("power:x")

    def test_missing_argument(self):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec("power")

    def test_bernstein_rejects_log_convex_inner(self):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec("bernstein:expsq:1:4")

    def test_invalid_parameters_propagate(self):
        with pytest.raises(InvalidParameterError):
            parse_generator_spec("power:1")


class TestImmutability:
    def test_generators_are_frozen(self):
        h = power_generator(2)
        with pytest.raises(AttributeError):
            h.integral_0_1 = 0.5
