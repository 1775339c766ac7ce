import numpy as np
import pytest

from convexgof import (
    MID,
    RIGHT_CONTINUOUS,
    ConvexGenerator,
    EnumerationTooLargeError,
    InvalidParameterError,
    K_SAMPLE,
    LogConvexGenerator,
    Sample,
    TAU,
    TWO_SAMPLE,
    WeightVector,
    bernstein_generator,
    cvm_distance,
    enumerate_null,
    exp_sq_generator,
    exponential_cdf,
    jensen_gap,
    log_convex_functional,
    logistic_cdf,
    max_probability,
    polynomial_generator,
    population_functional,
    population_gap,
    power_cdf,
    power_generator,
    run_battery,
    simulate_null,
    two_sample_statistic,
    uniform_cdf,
)
from convexgof import generators, oracle
from convexgof.generators import adaptive_quad, parse_generator_spec
from convexgof.oracle import battery_cdf_pairs, battery_generators, battery_to_csv

from oracle_helpers import LIBM_KERNELS, expsq_square_integral, label_batches, reference_statistic

UNIFORM = uniform_cdf()
SQUARE_CDF = power_cdf(2)
SQUARE = power_generator(2)

# case_id, check, generator, f, g, value.hex(), tolerance and passed of every battery case, in order
BATTERY_PIN = """\
inequality/power:2/uniform-vs-power[2] strict-inequality power:2 uniform power[2] 0x1.1111111111120p-5 1e-06 True
inequality/power:2/uniform-vs-power[3] strict-inequality power:2 uniform power[3] 0x1.3813813813810p-4 1e-06 True
inequality/power:2/logistic[0,1]-vs-logistic[0,2] strict-inequality power:2 logistic[0,1] logistic[0,2] 0x1.768ea443b9380p-7 1e-06 True
equality/power:2/uniform equality-characterization power:2 uniform uniform 0x0.0p+0 1e-08 True
equality/power:2/power[2] equality-characterization power:2 power[2] power[2] 0x0.0p+0 1e-08 True
equality/power:2/power[3] equality-characterization power:2 power[3] power[3] -0x1.0000000000000p-52 1e-08 True
equality/power:2/logistic[0,1] equality-characterization power:2 logistic[0,1] logistic[0,1] 0x0.0p+0 1e-08 True
equality/power:2/logistic[0,2] equality-characterization power:2 logistic[0,2] logistic[0,2] 0x0.0p+0 1e-08 True
inequality/power:3/uniform-vs-power[2] strict-inequality power:3 uniform power[2] 0x1.5f15f15f15f20p-5 1e-06 True
inequality/power:3/uniform-vs-power[3] strict-inequality power:3 uniform power[3] 0x1.9999999999998p-4 1e-06 True
inequality/power:3/logistic[0,1]-vs-logistic[0,2] strict-inequality power:3 logistic[0,1] logistic[0,2] 0x1.18eafb32caec0p-6 1e-06 True
equality/power:3/uniform equality-characterization power:3 uniform uniform 0x0.0p+0 1e-08 True
equality/power:3/power[2] equality-characterization power:3 power[2] power[2] 0x1.0000000000000p-52 1e-08 True
equality/power:3/power[3] equality-characterization power:3 power[3] power[3] -0x1.0000000000000p-54 1e-08 True
equality/power:3/logistic[0,1] equality-characterization power:3 logistic[0,1] logistic[0,1] 0x0.0p+0 1e-08 True
equality/power:3/logistic[0,2] equality-characterization power:3 logistic[0,2] logistic[0,2] 0x0.0p+0 1e-08 True
inequality/poly:0,1,0,1/uniform-vs-power[2] strict-inequality poly:0,1,0,1 uniform power[2] 0x1.3e93e93e93e90p-4 1e-06 True
inequality/poly:0,1,0,1/uniform-vs-power[3] strict-inequality poly:0,1,0,1 uniform power[3] 0x1.7417417417410p-3 1e-06 True
inequality/poly:0,1,0,1/logistic[0,1]-vs-logistic[0,2] strict-inequality poly:0,1,0,1 logistic[0,1] logistic[0,2] 0x1.1e6e64ffb33c0p-5 1e-06 True
equality/poly:0,1,0,1/uniform equality-characterization poly:0,1,0,1 uniform uniform 0x0.0p+0 1e-08 True
equality/poly:0,1,0,1/power[2] equality-characterization poly:0,1,0,1 power[2] power[2] 0x0.0p+0 1e-08 True
equality/poly:0,1,0,1/power[3] equality-characterization poly:0,1,0,1 power[3] power[3] -0x1.0000000000000p-51 1e-08 True
equality/poly:0,1,0,1/logistic[0,1] equality-characterization poly:0,1,0,1 logistic[0,1] logistic[0,1] 0x0.0p+0 1e-08 True
equality/poly:0,1,0,1/logistic[0,2] equality-characterization poly:0,1,0,1 logistic[0,2] logistic[0,2] 0x0.0p+0 1e-08 True
inequality/bernstein:power:2:8/uniform-vs-power[2] strict-inequality bernstein:power:2:8 uniform power[2] 0x1.ddddddddddde0p-6 1e-06 True
inequality/bernstein:power:2:8/uniform-vs-power[3] strict-inequality bernstein:power:2:8 uniform power[3] 0x1.1111111111108p-4 1e-06 True
inequality/bernstein:power:2:8/logistic[0,1]-vs-logistic[0,2] strict-inequality bernstein:power:2:8 logistic[0,1] logistic[0,2] 0x1.47bccfbb42100p-7 1e-06 True
equality/bernstein:power:2:8/uniform equality-characterization bernstein:power:2:8 uniform uniform 0x0.0p+0 1e-08 True
equality/bernstein:power:2:8/power[2] equality-characterization bernstein:power:2:8 power[2] power[2] 0x1.0000000000000p-53 1e-08 True
equality/bernstein:power:2:8/power[3] equality-characterization bernstein:power:2:8 power[3] power[3] -0x1.0000000000000p-53 1e-08 True
equality/bernstein:power:2:8/logistic[0,1] equality-characterization bernstein:power:2:8 logistic[0,1] logistic[0,1] 0x0.0p+0 1e-08 True
equality/bernstein:power:2:8/logistic[0,2] equality-characterization bernstein:power:2:8 logistic[0,2] logistic[0,2] 0x0.0p+0 1e-08 True
cvm-identity/uniform-vs-power[2] cvm-identity power:2 uniform power[2] 0x1.e000000000000p-54 1e-08 True
cvm-identity/uniform-vs-power[3] cvm-identity power:2 uniform power[3] -0x1.0000000000000p-54 1e-08 True
cvm-identity/logistic[0,1]-vs-logistic[0,2] cvm-identity power:2 logistic[0,1] logistic[0,2] -0x1.1800000000000p-53 1e-08 True
log-convex-inequality/uniform-vs-power[2] log-convex-inequality expsq:1 uniform power[2] 0x1.cca9edd2d8e80p-5 1e-06 True
log-convex-equality/uniform log-convex-equality expsq:1 uniform uniform 0x0.0p+0 1e-07 True
log-convex-equality/power[2] log-convex-equality expsq:1 power[2] power[2] 0x0.0p+0 1e-07 True
log-convex-inequality/uniform-vs-power[3] log-convex-inequality expsq:1 uniform power[3] 0x1.0de6eca253c80p-3 1e-06 True
log-convex-equality/power[3] log-convex-equality expsq:1 power[3] power[3] 0x0.0p+0 1e-07 True
log-convex-inequality/logistic[0,1]-vs-logistic[0,2] log-convex-inequality expsq:1 logistic[0,1] logistic[0,2] 0x1.c3ccc3e742800p-6 1e-06 True
log-convex-equality/logistic[0,1] log-convex-equality expsq:1 logistic[0,1] logistic[0,1] 0x0.0p+0 1e-07 True
log-convex-equality/logistic[0,2] log-convex-equality expsq:1 logistic[0,2] logistic[0,2] 0x0.0p+0 1e-07 True
"""

# the battery rows that differ under numpy's libm kernels (see oracle_helpers.LIBM_KERNELS)
BATTERY_PIN_LIBM = """\
inequality/power:2/uniform-vs-power[3] strict-inequality power:2 uniform power[3] 0x1.3813813813818p-4 1e-06 True
inequality/power:2/logistic[0,1]-vs-logistic[0,2] strict-inequality power:2 logistic[0,1] logistic[0,2] 0x1.768ea443b93c0p-7 1e-06 True
equality/power:2/power[2] equality-characterization power:2 power[2] power[2] 0x1.0000000000000p-53 1e-08 True
equality/power:2/power[3] equality-characterization power:2 power[3] power[3] 0x1.0000000000000p-53 1e-08 True
equality/power:3/power[2] equality-characterization power:3 power[2] power[2] 0x1.0000000000000p-53 1e-08 True
equality/power:3/power[3] equality-characterization power:3 power[3] power[3] 0x0.0p+0 1e-08 True
inequality/poly:0,1,0,1/uniform-vs-power[2] strict-inequality poly:0,1,0,1 uniform power[2] 0x1.3e93e93e93ea0p-4 1e-06 True
inequality/poly:0,1,0,1/logistic[0,1]-vs-logistic[0,2] strict-inequality poly:0,1,0,1 logistic[0,1] logistic[0,2] 0x1.1e6e64ffb33e0p-5 1e-06 True
equality/poly:0,1,0,1/power[2] equality-characterization poly:0,1,0,1 power[2] power[2] 0x1.0000000000000p-52 1e-08 True
equality/poly:0,1,0,1/power[3] equality-characterization poly:0,1,0,1 power[3] power[3] 0x0.0p+0 1e-08 True
inequality/bernstein:power:2:8/uniform-vs-power[3] strict-inequality bernstein:power:2:8 uniform power[3] 0x1.1111111111110p-4 1e-06 True
equality/bernstein:power:2:8/power[3] equality-characterization bernstein:power:2:8 power[3] power[3] 0x0.0p+0 1e-08 True
cvm-identity/uniform-vs-power[2] cvm-identity power:2 uniform power[2] 0x1.c000000000000p-54 1e-08 True
cvm-identity/uniform-vs-power[3] cvm-identity power:2 uniform power[3] 0x1.0000000000000p-54 1e-08 True
cvm-identity/logistic[0,1]-vs-logistic[0,2] cvm-identity power:2 logistic[0,1] logistic[0,2] -0x1.8000000000000p-57 1e-08 True
log-convex-inequality/uniform-vs-power[2] log-convex-inequality expsq:1 uniform power[2] 0x1.cca9edd2d8f00p-5 1e-06 True
log-convex-equality/power[2] log-convex-equality expsq:1 power[2] power[2] 0x1.0000000000000p-50 1e-07 True
log-convex-inequality/logistic[0,1]-vs-logistic[0,2] log-convex-inequality expsq:1 logistic[0,1] logistic[0,2] 0x1.c3ccc3e742900p-6 1e-06 True
"""


class TestAnalyticCdfCatalog:
    @pytest.mark.parametrize("cdf", [
        uniform_cdf(), power_cdf(2), power_cdf(0.5),
        logistic_cdf(0.0, 1.0), logistic_cdf(1.0, 2.0), exponential_cdf(1.5),
    ])
    def test_quantile_inverts_cdf(self, cdf):
        us = np.linspace(0.01, 0.99, 33)
        roundtrip = cdf.eval(cdf.quantile(us))
        assert np.max(np.abs(roundtrip - us)) < 1e-9

    @pytest.mark.parametrize("cdf", [
        uniform_cdf(), power_cdf(3), logistic_cdf(0.0, 2.0), exponential_cdf(0.5),
    ])
    def test_cdf_monotone(self, cdf):
        xs = cdf.quantile(np.linspace(0.01, 0.99, 50))
        assert np.all(np.diff(cdf.eval(xs)) >= 0)

    # a NaN parameter would build a CDF of NaNs, an infinite power or rate a point mass
    @pytest.mark.parametrize("build, args", [
        (power_cdf, (np.nan,)), (power_cdf, (np.inf,)), (power_cdf, (0.0,)),
        (logistic_cdf, (np.nan, 1.0)), (logistic_cdf, (np.inf, 1.0)), (logistic_cdf, (0.0, np.nan)),
        (logistic_cdf, (0.0, np.inf)), (logistic_cdf, (0.0, -1.0)),
        (exponential_cdf, (np.nan,)), (exponential_cdf, (np.inf,)), (exponential_cdf, (-2.0,)),
    ], ids=["power-nan", "power-inf", "power-0", "logistic-loc-nan", "logistic-loc-inf", "logistic-scale-nan",
            "logistic-scale-inf", "logistic-scale-neg", "exponential-nan", "exponential-inf", "exponential-neg"])
    def test_rejects_non_finite_or_non_positive_parameters(self, build, args):
        with pytest.raises(InvalidParameterError, match="CDF needs a finite"):
            build(*args)

    # run_battery deduplicates CDFs by name, so a name must tell nearby parameters apart
    @pytest.mark.parametrize("build, near, exact, name", [
        (power_cdf, (2.0000001,), (2,), "power[2]"),
        (logistic_cdf, (0.0, 1.0000001), (0, 1), "logistic[0,1]"),
        (exponential_cdf, (2.0000001,), (2,), "exponential[2]"),
    ], ids=["power", "logistic", "exponential"])
    def test_names_are_lossless(self, build, near, exact, name):
        assert build(*exact).name == name
        assert build(*near).name != name


class TestPopulationFunctional:
    def test_equal_cdfs_hit_centering(self):
        assert abs(population_functional(SQUARE, UNIFORM, UNIFORM) - 2.0 / 3.0) < 1e-8
        assert abs(population_functional(power_generator(3), UNIFORM, UNIFORM) - 0.5) < 1e-8

    def test_uniform_vs_square_closed_form(self):
        # int F^2 dG + int G^2 dF = 1/2 + 1/5 with F = x and G = x^2
        assert abs(population_functional(SQUARE, UNIFORM, SQUARE_CDF) - 0.7) < 1e-9

    def test_polynomial_linearity(self):
        h_mixed = polynomial_generator([0.0, 1.0, 0.0, 1.0])  # u^2 + u^4
        parts = (population_functional(SQUARE, UNIFORM, SQUARE_CDF)
                 + population_functional(power_generator(4), UNIFORM, SQUARE_CDF))
        assert abs(population_functional(h_mixed, UNIFORM, SQUARE_CDF) - parts) < 1e-9

    def test_concave_mirror_flips_sign(self):
        base_gap = population_gap(SQUARE, UNIFORM, SQUARE_CDF)
        negated = ConvexGenerator(
            "neg-square", lambda u: -(np.asarray(u, dtype=float) ** 2),
            integral_0_1=-1.0 / 3.0, validated=False)
        assert abs(population_gap(negated, UNIFORM, SQUARE_CDF) + base_gap) < 1e-10

    def test_bernstein_functionals_converge(self):
        target = population_functional(SQUARE, UNIFORM, SQUARE_CDF)
        errors = [
            abs(population_functional(bernstein_generator(SQUARE, m), UNIFORM, SQUARE_CDF) - target)
            for m in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))


# float.hex of each public functional on exponential[1] vs exponential[2] (jensen_gap adds logistic[0,1],
# weights 0.2, 0.3, 0.5), as each integrated its terms one adaptive_quad call at a time
FUNCTIONAL_PIN = {
    "population_functional": "0x1.6666666666666p-1",
    "population_functional_bernstein": "0x1.496f783f3207ap-1",
    "population_gap": "0x1.1111111111100p-5",
    "population_gap_poly": "0x1.7297297297290p-4",
    "cvm_distance": "0x1.1111111111112p-5",
    "log_convex_functional": "0x1.338f3b1a91634p+2",
    "generator_integral": "0x1.5555555555556p-2",
    "generator_integral_bernstein": "0x1.3333333333334p-2",
    "jensen_gap": "0x1.0672f12e46fc8p-6",
}
# the functionals that differ under numpy's libm kernels (see oracle_helpers.LIBM_KERNELS)
FUNCTIONAL_PIN_LIBM = {
    "population_functional": "0x1.6666666666667p-1",
    "population_gap": "0x1.1111111111120p-5",
    "population_gap_poly": "0x1.72972972972a0p-4",
    "generator_integral": "0x1.5555555555555p-2",
    "generator_integral_bernstein": "0x1.3333333333333p-2",
    "jensen_gap": "0x1.0672f12e46fd0p-6",
}


def test_public_functionals_pinned_bit_for_bit():
    f, g = exponential_cdf(1), exponential_cdf(2)
    bern = bernstein_generator(power_generator(3), 5)
    values = {
        "population_functional": population_functional(SQUARE, f, g),
        "population_functional_bernstein": population_functional(bern, f, g),
        "population_gap": population_gap(SQUARE, f, g),
        "population_gap_poly": population_gap(polynomial_generator([0, 1, 1]), f, g),
        "cvm_distance": cvm_distance(f, g),
        "log_convex_functional": log_convex_functional(exp_sq_generator(1.0), f, g),
        "generator_integral": oracle.generator_integral(SQUARE),
        "generator_integral_bernstein": oracle.generator_integral(bern),
        "jensen_gap": jensen_gap(SQUARE, [f, g, logistic_cdf(0, 1)], WeightVector((0.2, 0.3, 0.5))),
    }
    assert all(type(v) is float for v in values.values())
    assert {name: v.hex() for name, v in values.items()} == (
        {**FUNCTIONAL_PIN, **FUNCTIONAL_PIN_LIBM} if LIBM_KERNELS else FUNCTIONAL_PIN)


def test_kinked_term_alone_falls_back_in_a_batched_pass(monkeypatch):
    # |u - 1/3| never settles on the tanh-sinh levels; the other rows must not notice it
    from scipy import integrate

    xi = exp_sq_generator(1.0)
    terms = [(1.0, oracle._of_v(SQUARE), UNIFORM, SQUARE_CDF),
             (1.0, lambda v, u: np.abs(u - 1.0 / 3.0), UNIFORM, UNIFORM),
             (1.0, lambda v, u: xi.eval(v) * xi.eval(u), logistic_cdf(0.0, 1.0), logistic_cdf(0.0, 2.0)),
             (1.0, oracle._of_v(SQUARE), SQUARE_CDF, UNIFORM)]
    alone = [oracle._integrate([term])[0] for term in terms]
    calls = []
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad", lambda fn, a, b, **k: calls.append(fn(0.5)) or quad(fn, a, b, **k))
    batched = oracle._integrate(*([term] for term in terms))
    assert calls == [abs(0.5 - 1.0 / 3.0)]
    assert [v.hex() for v in batched] == [v.hex() for v in alone]
    assert abs(batched[1] - 5.0 / 18.0) < 1e-12


class TestCvmDistance:
    def test_equal_cdfs_vanish(self):
        assert abs(cvm_distance(UNIFORM, UNIFORM)) < 1e-10

    def test_uniform_vs_square_closed_form(self):
        assert abs(cvm_distance(UNIFORM, SQUARE_CDF) - 1.0 / 30.0) < 1e-9

    def test_identity_with_population_functional(self):
        for f, g in battery_cdf_pairs():
            gap = population_gap(SQUARE, f, g)
            assert abs(gap - cvm_distance(f, g)) < 1e-8


class TestMaxProbability:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_equal_cdfs_symmetry(self, m):
        est = max_probability(m, UNIFORM, UNIFORM, n_trials=20000, seed=5)
        expected = 1.0 / (m + 1)
        assert abs(est.estimate - expected) <= 4.0 * max(est.std_error, 1e-6)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_unequal_cdfs_match_quadrature(self, m):
        # P{max of m uniform draws < Y} with G = x^2 equals int F^m dG = 2/(m+2)
        est = max_probability(m, UNIFORM, SQUARE_CDF, n_trials=20000, seed=6 + m)
        target = adaptive_quad(
            lambda u: float(UNIFORM.eval(SQUARE_CDF.quantile(u))) ** m, 0.0, 1.0)
        assert abs(target - 2.0 / (m + 2)) < 1e-9
        assert abs(est.estimate - target) <= 4.0 * max(est.std_error, 1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            max_probability(0, UNIFORM, UNIFORM, n_trials=10)

    @pytest.mark.parametrize("m, n_trials, seed", [(True, 10, 0), (2.0, 10, 0), (1, 2.5, 0), (1, 10, -1),
                                                  (1, 10, 2**64), (1, 10, None), (1, 10, 1.0)])
    def test_rejects_non_integers_and_bad_seeds(self, m, n_trials, seed):
        with pytest.raises(InvalidParameterError):
            max_probability(m, UNIFORM, UNIFORM, n_trials=n_trials, seed=seed)


class TestJensenGap:
    @pytest.mark.parametrize("weights", [(0.2, 0.3, 0.5), [0.2, 0.3, 0.5], np.array([0.2, 0.3, 0.5])])
    def test_plain_weights_are_a_weight_vector(self, weights):
        cdfs = [UNIFORM, SQUARE_CDF, logistic_cdf(0, 1)]
        assert jensen_gap(SQUARE, cdfs, weights) == jensen_gap(SQUARE, cdfs, WeightVector((0.2, 0.3, 0.5)))

    def test_plain_weights_are_checked(self):
        with pytest.raises(InvalidParameterError, match="sum to"):
            jensen_gap(SQUARE, [UNIFORM, SQUARE_CDF], (0.5, 0.6))

    def test_equal_cdfs_give_zero(self):
        gap = jensen_gap(SQUARE, [UNIFORM, UNIFORM], WeightVector((0.5, 0.5)))
        assert abs(gap) < 1e-8

    def test_two_sample_worked_value(self):
        gap = jensen_gap(SQUARE, [UNIFORM, SQUARE_CDF], WeightVector((0.5, 0.5)))
        assert abs(gap - 1.0 / 120.0) < 1e-9

    def test_three_cdfs_with_one_outlier(self):
        gap = jensen_gap(SQUARE, [UNIFORM, UNIFORM, SQUARE_CDF], WeightVector.uniform(3))
        assert gap > 1e-6

    def test_rejects_mismatched_weights(self):
        with pytest.raises(InvalidParameterError):
            jensen_gap(SQUARE, [UNIFORM, SQUARE_CDF], WeightVector.uniform(3))

    def test_rejects_a_single_cdf(self):
        with pytest.raises(InvalidParameterError, match="at least 2 CDFs"):
            jensen_gap(SQUARE, [UNIFORM], WeightVector.uniform(1))


class TestLogConvexFunctional:
    def test_equal_cdfs_hit_centering(self):
        xi = exp_sq_generator(1.0)
        target = 2.0 * expsq_square_integral(1.0)
        assert abs(log_convex_functional(xi, UNIFORM, UNIFORM) - target) < 1e-7

    def test_unequal_cdfs_exceed_centering(self):
        xi = exp_sq_generator(1.0)
        target = 2.0 * expsq_square_integral(1.0)
        assert log_convex_functional(xi, UNIFORM, SQUARE_CDF) > target + 1e-6

    def test_constant_xi_reaches_equality_everywhere(self):
        # without strict log-convexity the inequality degenerates to equality
        one = LogConvexGenerator(
            "one", lambda u: np.ones_like(np.asarray(u, dtype=float)),
            integral_sq_0_1=1.0, validated=False)
        assert abs(log_convex_functional(one, UNIFORM, SQUARE_CDF) - 2.0) < 1e-9


class TestEnumerateNull:
    def test_single_point_sizes(self):
        dist = enumerate_null(TWO_SAMPLE, SQUARE, (1, 1))
        assert dist.values.size == 1
        assert abs(dist.values[0] - 1.0 / 3.0) < 1e-15
        assert dist.probabilities[0] == 1.0

    def test_single_point_general_generator(self):
        h = polynomial_generator([0.5, 1.5])
        dist = enumerate_null(TWO_SAMPLE, h, (1, 1))
        expected = h.eval(1.0) - 2.0 * h.integral_0_1
        assert abs(dist.values[0] - expected) < 1e-15

    def test_two_by_two_support(self):
        dist = enumerate_null(TWO_SAMPLE, SQUARE, (2, 2))
        assert dist.configurations == 6
        assert np.allclose(dist.values, [1.0 / 12.0, 1.0 / 3.0], atol=1e-12)
        assert np.allclose(dist.probabilities, [4.0 / 6.0, 2.0 / 6.0])

    def test_probabilities_sum_to_one(self):
        for sizes in ((2, 3), (1, 4), (2, 2, 2)):
            kind = K_SAMPLE if len(sizes) > 2 else TWO_SAMPLE
            dist = enumerate_null(kind, SQUARE, sizes)
            assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_tau_kind_enumerates(self):
        xi = exp_sq_generator(1.0)
        dist = enumerate_null(TAU, xi, (2, 2))
        assert dist.configurations == 6
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_budget_enforced(self):
        with pytest.raises(EnumerationTooLargeError):
            enumerate_null(TWO_SAMPLE, SQUARE, (500, 500))

    def test_matches_fresh_statistics(self):
        # every enumerated value must be reachable by the statistic itself
        dist = enumerate_null(TWO_SAMPLE, SQUARE, (2, 2))
        observed = two_sample_statistic(SQUARE, Sample([1.0, 3.0]), Sample([2.0, 4.0])).value
        assert np.any(np.isclose(dist.values, observed, atol=1e-12))

    # fixed tie patterns: tie-block lengths of the sorted pooled data
    TIED_CASES = [
        (TWO_SAMPLE, "power:2", (6, 6), None, (2, 1, 3, 1, 1, 2, 2)),
        (TAU, "expsq:1", (5, 4), None, (1, 3, 2, 1, 2)),
        (K_SAMPLE, "poly:0,1,1", (3, 3, 3), (0.2, 0.3, 0.5), (2, 1, 3, 1, 2)),
    ]

    @pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
    @pytest.mark.parametrize("kind, spec, sizes, weights, ties", TIED_CASES, ids=["6x6", "tau_5x4", "3x3x3"])
    def test_tied_enumeration_scores_every_assignment_of_the_pooled_data(self, kind, spec, sizes, weights,
                                                                        ties, convention):
        # the exact conditional null: each assignment of the tied pooled values to the groups, scored
        # by the reference statistic of the values themselves, in itertools order
        gen = parse_generator_spec(spec)
        pooled = np.repeat(np.arange(len(ties), dtype=float), ties)
        labels = np.concatenate(list(label_batches(sizes, 4096)))
        values, counts = np.unique([reference_statistic(kind, gen, [pooled[row == g] for g in range(len(sizes))],
                                                        weights, convention) for row in labels],
                                   return_counts=True)
        dist = enumerate_null(kind, gen, sizes, None if weights is None else WeightVector(weights),
                              ties=ties, convention=convention)
        assert dist.configurations == len(labels)
        assert dist.values.tobytes() == values.tobytes()
        assert dist.probabilities.tobytes() == (counts / len(labels)).tobytes()

    @pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
    @pytest.mark.parametrize("kind, spec, sizes, weights, ties", [TIED_CASES[0], TIED_CASES[2]],
                             ids=["6x6", "3x3x3"])
    def test_tied_table_agrees_in_law_with_the_enumeration(self, kind, spec, sizes, weights, ties, convention):
        # every replicate is an enumerated atom, bit for bit, and tail frequencies stay within a
        # binomial bound of the exact tail probabilities
        gen, B = parse_generator_spec(spec), 4000
        weights = None if weights is None else WeightVector(weights)
        dist = enumerate_null(kind, gen, sizes, weights, ties=ties, convention=convention)
        table = simulate_null(kind, gen, sizes, B=B, seed=37, weights=weights, ties=ties, convention=convention)
        assert np.isin(table.replicates, dist.values).all()
        tail = np.cumsum(dist.probabilities[::-1])[::-1]  # P(T >= value) at each atom
        for level in (0.5, 0.2, 0.1, 0.05):
            at = np.flatnonzero(tail >= level)[-1]  # the largest atom whose tail reaches the level
            exact, seen = tail[at], np.mean(table.replicates >= dist.values[at])
            assert abs(seen - exact) <= 4.5 * np.sqrt(exact * (1.0 - exact) / B), (level, seen, exact)

    def test_tie_blocks_of_one_are_the_tie_free_enumeration(self):
        plain = enumerate_null(TWO_SAMPLE, SQUARE, (4, 5))
        for convention in (RIGHT_CONTINUOUS, MID):
            dist = enumerate_null(TWO_SAMPLE, SQUARE, (4, 5), ties=[1] * 9, convention=convention)
            assert dist.values.tobytes() == plain.values.tobytes()
            assert dist.probabilities.tobytes() == plain.probabilities.tobytes()


class TestEmpiricalToPopulationConsistency:
    def test_large_sample_statistic_near_population_gap(self):
        rng = np.random.default_rng(123)
        n = 10_000
        x = Sample(rng.random(n))
        y = Sample(np.sqrt(rng.random(n)))  # quantile transform for G = x^2
        stat = two_sample_statistic(SQUARE, x, y)
        assert abs(stat.value - 1.0 / 30.0) < 0.01


class TestBattery:
    def test_all_cases_pass(self):
        cases = run_battery()
        failing = [c.case_id for c in cases if not c.passed]
        assert not failing, f"oracle battery failures: {failing}"

    def test_cases_pinned_bit_for_bit(self):
        # test_values_match_quadpack allows 1e-11, which a reordered sum would pass
        rows = [" ".join(map(str, (c.case_id, c.check, c.generator_name, c.f_name, c.g_name,
                                   c.value.hex(), c.tolerance, c.passed))) for c in run_battery()]
        libm = {row.split()[0]: row for row in BATTERY_PIN_LIBM.splitlines()} if LIBM_KERNELS else {}
        assert rows == [libm.get(row.split()[0], row) for row in BATTERY_PIN.splitlines()]

    def test_each_term_integrated_once(self, monkeypatch):
        # one tanh-sinh pass over every term: int(h) per generator, int(xi^2), 2 per functional,
        # and the CvM cases reuse the power:2 gaps; 4 * (1 + 2 * (3 + 5)) + 2 * 3 + 1 + 2 * (3 + 5) = 91
        passes = []
        tanh_sinh = oracle._tanh_sinh
        monkeypatch.setattr(oracle, "_tanh_sinh", lambda *a: passes.append(a[1].size) or tanh_sinh(*a))
        run_battery()
        assert passes == [91]

    def test_second_battery_constructs_no_generator(self, monkeypatch):
        built = []
        check = generators._check_on_construction
        monkeypatch.setattr(generators, "_check_on_construction", lambda g: built.append(g.name) or check(g))
        parse_generator_spec.cache_clear()
        first = run_battery()  # power:2 serves the square cases, the CvM cases and Bernstein's inner one
        assert sorted(built) == ["bernstein:power:2:8", "expsq:1", "poly:0,1,0,1", "power:2", "power:3"]
        built.clear()
        assert run_battery() == first and built == []

    def test_covers_generators_and_pairs(self):
        cases = run_battery()
        gens = {c.generator_name for c in cases if c.check == "strict-inequality"}
        assert len(gens) == len(battery_generators())
        pair_cases = [c for c in cases if c.check == "strict-inequality"]
        assert len(pair_cases) == len(battery_generators()) * len(battery_cdf_pairs())

    def test_values_match_quadpack(self):
        # every case recomputed with scalar integrands and scipy's QUADPACK
        from scipy import integrate

        def quad(fn):
            return integrate.quad(lambda u: float(fn(u)), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
                                  limit=200)[0]

        gens = {h.name: h for h in battery_generators()}
        cdfs = {c.name: c for pair in battery_cdf_pairs() for c in pair}
        xi = exp_sq_generator(1.0)
        cases = run_battery()
        assert len(cases) == 43
        for case in cases:
            f, g = cdfs[case.f_name], cdfs[case.g_name]
            if case.check.startswith("log-convex"):
                expected = (quad(lambda u: xi.eval(g.eval(f.quantile(u))) * xi.eval(u))
                            + quad(lambda u: xi.eval(f.eval(g.quantile(u))) * xi.eval(u))
                            - 2.0 * quad(lambda u: xi.eval(u) ** 2))
            else:
                h = gens[case.generator_name]
                expected = (quad(lambda u: h.eval(f.eval(g.quantile(u))))
                            + quad(lambda u: h.eval(g.eval(f.quantile(u)))) - 2.0 * quad(h.eval))
                if case.check == "cvm-identity":
                    expected -= 0.5 * (quad(lambda u: (u - g.eval(f.quantile(u))) ** 2)
                                       + quad(lambda u: (f.eval(g.quantile(u)) - u) ** 2))
            assert abs(case.value - expected) < 1e-11, case.case_id

    def test_csv_export(self, tmp_path):
        import csv

        cases = run_battery()
        path = tmp_path / "battery.csv"
        battery_to_csv(cases, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["case_id", "check"]
        assert len(rows) == len(cases) + 1
        assert all(row[-1] == "pass" for row in rows[1:])
