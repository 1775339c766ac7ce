import numpy as np
import pytest

from convexgof import (
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
    two_sample_statistic,
    uniform_cdf,
)
from convexgof.generators import adaptive_quad
from convexgof.oracle import battery_cdf_pairs, battery_generators, battery_to_csv

from oracle_helpers import expsq_square_integral

UNIFORM = uniform_cdf()
SQUARE_CDF = power_cdf(2)
SQUARE = power_generator(2)


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


class TestJensenGap:
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
