import numpy as np
import pytest

from convexgof import (
    MID,
    RIGHT_CONTINUOUS,
    TWO_SAMPLE,
    DataIngestionError,
    InvalidParameterError,
    LogConvexGenerator,
    Sample,
    exp_sq_generator,
    k_sample_statistic,
    power_generator,
    read_sample,
    run_test,
    tau_statistic,
    two_sample_statistic,
)

MONOTONE_MAPS = (np.exp, np.arctan, lambda t: t**3 + t)
SQUARE = power_generator(2)


def unit_xi():
    """Constant xi forced past validation; its grid antiderivative_grid(n) is i/n."""
    return LogConvexGenerator(
        "one", lambda u: np.ones_like(np.asarray(u, dtype=float)),
        integral_sq_0_1=1.0, validated=False)


class TestSample:
    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            Sample([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParameterError):
            Sample([1.0, bad])

    def test_values_are_read_only(self):
        s = Sample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestEmpiricalCdf:
    """ECDF values under each convention, read off the statistics that use them."""

    def test_right_continuous_worked(self):
        # with y = {p} and h(u) = u^2: raw = h(F_x(p)) + mean of h(G_y(x_i))
        x = Sample([1.0, 3.0])
        for p, f_at_p, g_at_x in ((2.0, 0.5, (0.0, 1.0)), (3.0, 1.0, (0.0, 1.0)),
                                  (0.5, 0.0, (1.0, 1.0)), (10.0, 1.0, (0.0, 0.0))):
            raw = two_sample_statistic(SQUARE, x, Sample([p])).raw_functional
            assert raw == f_at_p**2 + (g_at_x[0]**2 + g_at_x[1]**2) / 2

    def test_mid_convention_with_ties(self):
        x, y = Sample([1.0, 2.0, 2.0, 5.0]), Sample([2.0])
        # F_x(2) = (0.25 + 0.75) / 2; G_y at x is 0, 1/2, 1/2, 1
        assert two_sample_statistic(SQUARE, x, y, "mid").raw_functional == 0.5**2 + 1.5 / 4
        # right-continuous: F_x(2) = 3/4; G_y at x is 0, 1, 1, 1
        assert two_sample_statistic(SQUARE, x, y).raw_functional == 0.75**2 + 3.0 / 4

    def test_rejects_unknown_convention(self):
        x, y = Sample([1.0, 2.0]), Sample([1.5, 3.0])
        calls = (
            lambda: two_sample_statistic(SQUARE, x, y, "left"),
            lambda: k_sample_statistic(SQUARE, [x, y], convention="left"),
            lambda: tau_statistic(exp_sq_generator(1.0), x, y, "left"),
            lambda: run_test(TWO_SAMPLE, SQUARE, [x, y], B=9, convention="left"),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match="convention"):
                call()


class TestIntegralHFdg:
    """The integral of h(F_n) against the jumps of G_m, as the two-sample statistic sums it."""

    def test_worked_values(self):
        x, y = Sample([1.0, 2.0]), Sample([2.0, 3.0])
        # right-continuous: F_x at y is 1, 1; G_y at x is 0, 1/2
        assert two_sample_statistic(SQUARE, x, y).raw_functional == 1.0 + 0.25 / 2
        # mid: F_x at y is 3/4, 1; G_y at x is 0, 1/4
        assert two_sample_statistic(SQUARE, x, y, "mid").raw_functional == (
            (0.5625 + 1.0) / 2 + 0.0625 / 2)

    def test_self_integral_identity(self):
        # a sample against itself: each side is the mean of h(i/n), or h((2i-1)/2n) under mid
        h = power_generator(3)
        rng = np.random.default_rng(0)
        for n in (1, 5, 17):
            s = Sample(rng.normal(size=n))
            right = np.sum(h.eval(np.arange(1, n + 1) / n)) / n
            mid = np.sum(h.eval(np.arange(1, 2 * n, 2) / (2 * n))) / n
            assert two_sample_statistic(h, s, s).raw_functional == 2.0 * right
            assert two_sample_statistic(h, s, s, "mid").raw_functional == 2.0 * mid

    def test_bounded_by_h_at_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = Sample(np.round(rng.normal(size=rng.integers(1, 30)), 1))
            y = Sample(np.round(rng.normal(size=rng.integers(1, 30)), 1))
            for convention in (RIGHT_CONTINUOUS, MID):
                raw = two_sample_statistic(SQUARE, x, y, convention).raw_functional
                assert 0.0 <= raw <= 2.0 * SQUARE.eval(1.0)

    @pytest.mark.parametrize("transform", MONOTONE_MAPS)
    def test_monotone_transform_invariance(self, transform):
        rng = np.random.default_rng(7)
        xs = np.round(rng.normal(size=25), 1)  # tied within and across samples
        ys = np.round(rng.normal(size=19), 1)
        for convention in (RIGHT_CONTINUOUS, MID):
            before = two_sample_statistic(SQUARE, Sample(xs), Sample(ys), convention)
            after = two_sample_statistic(
                SQUARE, Sample(transform(xs)), Sample(transform(ys)), convention)
            assert before == after  # ranks and ties unchanged, bit-identical


class TestIntegralXiDxi:
    """The integral of xi(G_m) against the jumps of Xi(F_n), as tau sums it."""

    def test_constant_xi_telescopes_to_one(self):
        xi = unit_xi()
        rng = np.random.default_rng(11)
        for n, m in ((1, 1), (4, 9), (20, 7)):
            for digits in (None, 0):  # tie-free, then tied
                x, y = (rng.normal(size=k) for k in (n, m))
                if digits is not None:
                    x, y = np.round(x, digits), np.round(y, digits)
                raw = tau_statistic(xi, Sample(x), Sample(y)).raw_functional
                assert abs(raw - 2.0) < 1e-12

    def test_single_point_samples(self):
        xi = exp_sq_generator(1.0)
        # the tied pair: each ECDF is 1 at the other's point, Xi jumps by Xi(1)
        expected = 2.0 * xi.eval(1.0) * xi.antiderivative_grid(1)[1]
        raw = tau_statistic(xi, Sample([0.0]), Sample([0.0])).raw_functional
        assert abs(raw - expected) < 1e-14

    def test_worked_example(self):
        # xi = exp(u^2), X = {1,3}, Y = {2,4}; both sides assembled from the erfi oracle
        from oracle_helpers import expsq_antiderivative

        xi_half = expsq_antiderivative(1.0, 0.5)
        xi_one = expsq_antiderivative(1.0, 1.0)
        x_jumps = 1.0 * xi_half + np.exp(0.25) * (xi_one - xi_half)  # xi(G) at 1, 3
        y_jumps = np.exp(0.25) * xi_half + np.exp(1.0) * (xi_one - xi_half)  # xi(F) at 2, 4
        assert abs(x_jumps - 1.7232918281523226) < 1e-9
        raw = tau_statistic(exp_sq_generator(1.0), Sample([1.0, 3.0]),
                            Sample([2.0, 4.0])).raw_functional
        assert abs(raw - (x_jumps + y_jumps)) < 1e-9


class TestCrossTieCount:
    def test_counts_tied_pairs(self):
        def count(x, y):
            return two_sample_statistic(SQUARE, Sample(x), Sample(y)).tie_count

        assert count([1.0, 2.0], [2.0, 3.0]) == 1
        assert count([2.0, 2.0], [2.0, 5.0]) == 2
        assert count([1.0], [3.0]) == 0
        assert count([2.0, 2.0, 1.0], [3.0, 1.0]) == 1  # ties within a sample are not counted

    def test_k_sample_count_is_every_pair_of_samples(self):
        rng = np.random.default_rng(15)
        groups = [rng.integers(0, 6, n).astype(float) for n in (7, 9, 11)]
        pairs = sum(int(np.sum(a[:, None] == b[None, :]))
                    for i, a in enumerate(groups) for b in groups[i + 1:])
        assert pairs > 0
        assert k_sample_statistic(SQUARE, [Sample(g) for g in groups]).tie_count == pairs
        assert tau_statistic(exp_sq_generator(1.0), Sample(groups[0]), Sample(groups[2])).tie_count == \
            int(np.sum(groups[0][:, None] == groups[2][None, :]))


class TestReadSample:
    def test_reads_comments_and_blanks(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# header comment\n1.5\n\n2.5 # inline\n3.5,\n")
        s = read_sample(path)
        assert np.array_equal(s.values, [1.5, 2.5, 3.5])
        assert s.label == "data.csv"

    def test_bad_token_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(DataIngestionError, match="bad.csv:2"):
            read_sample(path)

    def test_multi_column_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(DataIngestionError, match="wide.csv:1"):
            read_sample(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(DataIngestionError, match="no data"):
            read_sample(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIngestionError, match="nope.csv"):
            read_sample(tmp_path / "nope.csv")

    def test_leading_byte_order_mark_is_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with EF BB BF
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        assert np.array_equal(read_sample(path).values, [1.5, 2.5, 3.5])

    @pytest.mark.parametrize("token", ["1_5", "1_000.25", "1e1_0", "_1"])
    def test_digit_underscores_rejected(self, tmp_path, token):
        # float() reads '1_5' as 15.0; a sample file's numbers have no digit separators
        path = tmp_path / "under.csv"
        path.write_text(f"1.0\n{token}\n")
        with pytest.raises(DataIngestionError, match=f"under.csv:2: cannot parse '{token}' as a number"):
            read_sample(path)

    def test_non_finite_token_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0\ninf\n")
        with pytest.raises(DataIngestionError, match="inf.csv:2"):
            read_sample(path)
