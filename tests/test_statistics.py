from itertools import combinations

import numpy as np
import pytest

from convexgof import (
    TWO_SAMPLE,
    InvalidParameterError,
    LogConvexGenerator,
    Sample,
    WeightVector,
    enumerate_null,
    exp_sq_generator,
    k_sample_statistic,
    parse_generator_spec,
    power_generator,
    tau_statistic,
    two_sample_statistic,
)

from oracle_helpers import brute_k_sample, brute_tau, brute_two_sample, expsq_antiderivative, expsq_square_integral

X_WORKED = Sample([1.0, 3.0], label="x")
Y_WORKED = Sample([2.0, 4.0], label="y")


class TestWeightVector:
    def test_uniform(self):
        w = WeightVector.uniform(3)
        assert len(w) == 3
        assert abs(w.equality_factor - 2.0 / 3.0) < 1e-15

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidParameterError):
            WeightVector((0.5, 0.6))

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidParameterError):
            WeightVector((1.0, 0.0))
        with pytest.raises(InvalidParameterError):
            WeightVector((1.5, -0.5))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            WeightVector(())
        with pytest.raises(InvalidParameterError, match="k >= 1"):
            WeightVector.uniform(0)

    def test_equality_factor_in_unit_interval(self):
        for k in (2, 3, 10):
            assert 0.0 < WeightVector.uniform(k).equality_factor < 1.0


class TestTwoSampleStatistic:
    def test_worked_example(self):
        s = two_sample_statistic(power_generator(2), X_WORKED, Y_WORKED)
        assert abs(s.value - 1.0 / 12.0) < 1e-15
        assert s.raw_functional == 0.75
        assert s.tie_count == 0

    def test_identical_samples_at_n_two(self):
        s = Sample([1.0, 2.0])
        stat = two_sample_statistic(power_generator(2), s, s)
        assert abs(stat.value - 7.0 / 12.0) < 1e-15

    def test_symmetry_exact(self):
        rng = np.random.default_rng(4)
        h = power_generator(3)
        for _ in range(10):
            x = Sample(rng.normal(size=rng.integers(2, 20)))
            y = Sample(rng.normal(size=rng.integers(2, 20)))
            assert two_sample_statistic(h, x, y).value == two_sample_statistic(h, y, x).value

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        h = power_generator(2)
        x = rng.normal(size=15)
        y = rng.normal(size=23)
        base = two_sample_statistic(h, Sample(x), Sample(y)).value
        for fn in (np.exp, np.arctan, lambda t: t**3 + t):
            assert two_sample_statistic(h, Sample(fn(x)), Sample(fn(y))).value == base

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        h = power_generator(2)
        for _ in range(15):
            xs = list(rng.normal(size=rng.integers(1, 12)))
            ys = list(rng.normal(size=rng.integers(1, 12)))
            got = two_sample_statistic(h, Sample(xs), Sample(ys)).value
            want = brute_two_sample(lambda u: u * u, 1.0 / 3.0, xs, ys)
            assert abs(got - want) < 1e-12

    def test_value_equals_raw_minus_centering(self):
        s = two_sample_statistic(power_generator(2), X_WORKED, Y_WORKED)
        assert s.value == s.raw_functional - s.centering_constant

    def test_tie_count_reported(self):
        s = two_sample_statistic(power_generator(2), Sample([1.0, 2.0]), Sample([2.0, 3.0]))
        assert s.tie_count == 1

    @pytest.mark.parametrize("sizes", [(6, 6), (5, 7)])
    def test_bernstein_observed_values_are_exact_pmf_atoms(self, sizes):
        # Bernstein eval rounds differently by array shape; the observed path
        # must share the enumeration's grid so its values hit the atoms exactly
        h = parse_generator_spec("bernstein:power:2:8")
        atoms = set(enumerate_null(TWO_SAMPLE, h, sizes).values.tolist())
        ranks = range(sum(sizes))
        for chosen in combinations(ranks, sizes[0]):
            rest = [r for r in ranks if r not in chosen]
            value = two_sample_statistic(h, Sample(chosen), Sample(rest)).value
            assert value in atoms


class TestKSampleStatistic:
    def test_worked_example(self):
        s = k_sample_statistic(power_generator(2), [X_WORKED, Y_WORKED],
                               WeightVector((0.5, 0.5)))
        assert abs(s.value - 1.0 / 48.0) < 1e-15

    def test_uniform_weights_default(self):
        explicit = k_sample_statistic(power_generator(2), [X_WORKED, Y_WORKED],
                                      WeightVector((0.5, 0.5)))
        implicit = k_sample_statistic(power_generator(2), [X_WORKED, Y_WORKED])
        assert explicit.value == implicit.value

    def test_two_group_quarter_identity(self):
        # with equal weights the k=2 statistic is exactly a quarter of the
        # two-sample statistic
        rng = np.random.default_rng(21)
        h = power_generator(2)
        for _ in range(10):
            x = Sample(rng.normal(size=rng.integers(2, 15)))
            y = Sample(rng.normal(size=rng.integers(2, 15)))
            pair = two_sample_statistic(h, x, y).value
            k2 = k_sample_statistic(h, [x, y], WeightVector((0.5, 0.5))).value
            assert abs(k2 - pair / 4.0) < 1e-15

    def test_matches_brute_force_three_groups(self):
        rng = np.random.default_rng(30)
        h = power_generator(2)
        weights = WeightVector((0.2, 0.3, 0.5))
        groups = [list(rng.normal(size=rng.integers(2, 10))) for _ in range(3)]
        got = k_sample_statistic(h, [Sample(g) for g in groups], weights).value
        want = brute_k_sample(lambda u: u * u, 1.0 / 3.0, groups, weights.weights)
        assert abs(got - want) < 1e-12

    def test_rejects_single_group(self):
        with pytest.raises(InvalidParameterError):
            k_sample_statistic(power_generator(2), [X_WORKED])

    def test_rejects_weight_mismatch(self):
        with pytest.raises(InvalidParameterError):
            k_sample_statistic(power_generator(2), [X_WORKED, Y_WORKED],
                               WeightVector.uniform(3))


class TestTauStatistic:
    def test_constant_xi_gives_zero(self):
        xi = LogConvexGenerator(
            "one", lambda u: np.ones_like(np.asarray(u, dtype=float)),
            integral_sq_0_1=1.0, validated=False)
        s = tau_statistic(xi, X_WORKED, Y_WORKED)
        assert abs(s.raw_functional - 2.0) < 1e-12
        assert abs(s.value) < 1e-12

    def test_worked_example(self):
        s = tau_statistic(exp_sq_generator(1.0), X_WORKED, Y_WORKED)
        assert abs(s.raw_functional - 4.917540241907675) < 1e-9
        assert abs(s.value - 0.188632456297257) < 1e-9
        assert abs(s.centering_constant - 2.0 * expsq_square_integral(1.0)) < 1e-9

    def test_symmetry_exact(self):
        xi = exp_sq_generator(1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = Sample(rng.normal(size=7))
            y = Sample(rng.normal(size=11))
            assert tau_statistic(xi, x, y).value == tau_statistic(xi, y, x).value

    def test_matches_brute_force(self):
        xi = exp_sq_generator(1.0)
        rng = np.random.default_rng(17)
        for _ in range(5):
            xs = list(rng.normal(size=rng.integers(1, 9)))
            ys = list(rng.normal(size=rng.integers(1, 9)))
            got = tau_statistic(xi, Sample(xs), Sample(ys)).value
            want = brute_tau(
                lambda u: float(np.exp(u * u)),
                lambda u: expsq_antiderivative(1.0, u),
                expsq_square_integral(1.0), xs, ys)
            assert abs(got - want) < 1e-9

    def test_tied_values_collapse_to_one_jump(self):
        xi = exp_sq_generator(1.0)
        s = tau_statistic(xi, Sample([1.0, 1.0, 2.0]), Sample([0.5, 1.5]))
        x_grid, y_grid = xi.antiderivative_grid(3), xi.antiderivative_grid(2)
        # x's tied pair is one jump Xi(2/3) - Xi(0), weighted by xi(G_y(1)) = xi(1/2)
        expected = (xi.eval(0.5) * (x_grid[2] - x_grid[0]) + xi.eval(1.0) * (x_grid[3] - x_grid[2])
                    + xi.eval(0.0) * (y_grid[1] - y_grid[0]) + xi.eval(2.0 / 3.0) * (y_grid[2] - y_grid[1]))
        assert abs(s.raw_functional - expected) < 1e-14
        assert abs(s.raw_functional - 4.833200104750235) < 1e-12

    def test_monotone_transform_invariance(self):
        xi = exp_sq_generator(1.0)
        rng = np.random.default_rng(8)
        x = rng.normal(size=9)
        y = rng.normal(size=13)
        base = tau_statistic(xi, Sample(x), Sample(y)).value
        for fn in (np.exp, np.arctan):
            assert tau_statistic(xi, Sample(fn(x)), Sample(fn(y))).value == base
