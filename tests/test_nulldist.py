import warnings

import numpy as np
import pytest

from convexgof import (
    ConvexGenerator,
    InvalidParameterError,
    K_SAMPLE,
    NullTable,
    Sample,
    TAU,
    TWO_SAMPLE,
    WeightVector,
    critical_value,
    enumerate_null,
    exp_sq_generator,
    load_table,
    p_value,
    power_generator,
    power_study,
    replicate_stream,
    run_test,
    save_table,
    simulate_null,
    two_sample_statistic,
)
from convexgof.nulldist import CHUNK, TABLE_FORMAT_VERSION, parse_alternative

SQUARE = power_generator(2)


def toy_table(values, **meta):
    reps = np.sort(np.asarray(values, dtype=float))
    defaults = dict(statistic_kind=TWO_SAMPLE, generator_name="power:2",
                    sample_sizes=(2, 2), seed=0)
    defaults.update(meta)
    return NullTable(replicates=reps, **defaults)


class TestReplicateStreams:
    def test_stream_is_reproducible(self):
        a = replicate_stream(42, 7).random(16)
        b = replicate_stream(42, 7).random(16)
        assert np.array_equal(a, b)

    def test_block_matches_streams(self):
        # at 10 pooled observations a chunk holds CHUNK rows; chunk c draws one block
        values = [two_sample_statistic(SQUARE, Sample(row[:5]), Sample(row[5:])).value
                  for c, rows in enumerate((CHUNK, CHUNK, 5))
                  for row in replicate_stream(42, c).random((rows, 10))]
        table = simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=2 * CHUNK + 5, seed=42)
        assert np.array_equal(table.replicates, np.sort(values))

    def test_distinct_indices_distinct_draws(self):
        assert not np.array_equal(replicate_stream(1, 0).random(8),
                                  replicate_stream(1, 1).random(8))


class TestSimulateNull:
    def test_deterministic_for_fixed_seed(self):
        a = simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=200, seed=9)
        b = simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=200, seed=9)
        assert np.array_equal(a.replicates, b.replicates)

    def test_different_seeds_differ(self):
        a = simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=200, seed=9)
        b = simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=200, seed=10)
        assert not np.array_equal(a.replicates, b.replicates)

    def test_single_replicate(self):
        t = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=1, seed=0)
        assert t.B == 1

    def test_replicates_sorted(self):
        t = simulate_null(TWO_SAMPLE, SQUARE, (4, 6), B=500, seed=2)
        assert np.all(np.diff(t.replicates) >= 0)

    def test_chunk_memory_is_bounded(self):
        shapes = []

        def record(block):
            shapes.append(block.shape)
            return block

        simulate_null(TWO_SAMPLE, SQUARE, (3000, 3000), B=1500, seed=3, transform=record)
        assert sum(rows for rows, _ in shapes) == 1500
        assert all(rows * cols <= 2**22 for rows, cols in shapes)

    @pytest.mark.parametrize("transform", [np.exp, np.arctan])
    def test_distribution_freeness(self, transform):
        plain = simulate_null(TWO_SAMPLE, SQUARE, (20, 20), B=400, seed=3)
        mapped = simulate_null(TWO_SAMPLE, SQUARE, (20, 20), B=400, seed=3,
                               transform=transform)
        assert np.array_equal(plain.replicates, mapped.replicates)

    def test_matches_exact_distribution_at_tiny_sizes(self):
        exact = enumerate_null(TWO_SAMPLE, SQUARE, (2, 2))
        table = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=20000, seed=13)
        for value, prob in zip(exact.values, exact.probabilities):
            freq = np.mean(np.isclose(table.replicates, value, atol=1e-12))
            assert abs(freq - prob) < 3.0 * np.sqrt(prob * (1 - prob) / table.B)

    def test_tau_kind(self):
        xi = exp_sq_generator(1.0)
        t = simulate_null(TAU, xi, (6, 4), B=300, seed=1)
        assert t.B == 300
        assert t.statistic_kind == TAU

    def test_k_sample_kind_uniform_weights(self):
        t = simulate_null(K_SAMPLE, SQUARE, (4, 5, 6), B=200, seed=1)
        assert t.weights == WeightVector.uniform(3).weights

    def test_simulated_k_sample_matches_observed_path(self):
        # tie-free simulated draws and observed samples must reach the kernel alike
        from convexgof import k_sample_statistic

        sizes = (4, 7, 5)
        w = WeightVector((0.25, 0.4, 0.35))
        table = simulate_null(K_SAMPLE, SQUARE, sizes, B=50, seed=77, weights=w)  # one chunk
        splits = np.cumsum(sizes)[:-1]
        observed = [k_sample_statistic(SQUARE, [Sample(p) for p in np.split(row, splits)], w).value
                    for row in replicate_stream(77, 0).random((50, sum(sizes)))]
        assert np.array_equal(table.replicates, np.sort(observed))

    def test_simulated_tau_matches_observed_path(self):
        from convexgof import tau_statistic

        xi = exp_sq_generator(1.0)
        table = simulate_null(TAU, xi, (6, 9), B=40, seed=78)  # one chunk
        observed = [tau_statistic(xi, Sample(row[:6]), Sample(row[6:])).value
                    for row in replicate_stream(78, 0).random((40, 15))]
        assert np.array_equal(table.replicates, np.sort(observed))

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=0, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_null(TWO_SAMPLE, SQUARE, (), B=10, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_null(TWO_SAMPLE, SQUARE, (5, 0), B=10, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_null("bogus", SQUARE, (5, 5), B=10, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=10, seed=-1)
        with pytest.raises(InvalidParameterError):
            simulate_null(TWO_SAMPLE, SQUARE, (5, 5, 5), B=10, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_null(TAU, SQUARE, (5, 5), B=10, seed=0)
        with pytest.raises(InvalidParameterError):
            simulate_null(TWO_SAMPLE, exp_sq_generator(1.0), (5, 5), B=10, seed=0)


class TestPValue:
    def test_observed_above_all(self):
        table = toy_table(np.arange(1.0, 100.0))
        assert p_value(table, 1000.0) == 1.0 / 100.0

    def test_observed_below_all(self):
        table = toy_table(np.arange(1.0, 100.0))
        assert p_value(table, -np.inf) == 1.0

    def test_ties_count_as_greater_or_equal(self):
        table = toy_table(np.arange(1.0, 100.0))
        assert p_value(table, 50.0) == (1 + 50) / 100.0

    def test_atom_reached_by_two_summation_orders_is_counted_whole(self):
        # at (6, 7) configurations with one exact power:2 value sum their
        # terms in different orders and land a few ulps apart; every copy of
        # the observed atom must count as >= observed
        from fractions import Fraction
        from itertools import combinations

        n, m = 6, 7
        exact, stats = [], []
        for xs in combinations(range(n + m), n):
            ys = [p for p in range(n + m) if p not in xs]
            exact.append(sum(Fraction(sum(x < v for x in xs), n) ** 2 for v in ys) / m
                         + sum(Fraction(sum(v < x for v in ys), m) ** 2 for x in xs) / n)
            stats.append(two_sample_statistic(SQUARE, Sample(np.array(xs, float)),
                                              Sample(np.array(ys, float))))
        table = toy_table([s.value for s in stats], sample_sizes=(n, m))
        split = [i for i, e in enumerate(exact)
                 if any(e == f and s.value < stats[i].value for f, s in zip(exact, stats))]
        assert split  # the defect's precondition: some atom has several floats
        for i in split:
            atom = sum(e >= exact[i] for e in exact)
            assert p_value(table, stats[i]) == (1 + atom) / (table.B + 1)

    def test_bounds_and_monotonicity(self):
        table = toy_table(np.random.default_rng(0).normal(size=99))
        probes = np.linspace(-4, 4, 41)
        ps = [p_value(table, v) for v in probes]
        assert all(1.0 / 100.0 <= p <= 1.0 for p in ps)
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestCriticalValue:
    def test_rank_arithmetic(self):
        table = toy_table(np.arange(1.0, 100.0))  # order statistics 1..99
        assert critical_value(table, 0.05) == 95.0
        assert critical_value(table, 0.5) == 50.0

    def test_tiny_alpha_clamps_with_warning(self):
        table = toy_table(np.arange(1.0, 100.0))
        with pytest.warns(RuntimeWarning, match="too small"):
            assert critical_value(table, 1e-9) == 99.0

    def test_monotone_in_alpha(self):
        table = toy_table(np.random.default_rng(1).normal(size=999))
        cvs = [critical_value(table, a) for a in (0.01, 0.05, 0.1, 0.5)]
        assert all(a >= b for a, b in zip(cvs, cvs[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(InvalidParameterError):
            critical_value(toy_table([1.0, 2.0]), alpha)


class TestRunTest:
    def test_report_is_deterministic(self):
        x, y = Sample([1.0, 3.0, 5.0]), Sample([2.0, 4.0, 6.0])
        a = run_test(TWO_SAMPLE, SQUARE, [x, y], B=499, seed=11)
        b = run_test(TWO_SAMPLE, SQUARE, [x, y], B=499, seed=11)
        assert a.p_value == b.p_value
        assert a.critical_values == b.critical_values
        assert np.array_equal(a.table.replicates, b.table.replicates)

    def test_p_value_consistent_with_table(self):
        x, y = Sample([1.0, 3.0, 5.0]), Sample([2.0, 4.0, 6.0])
        report = run_test(TWO_SAMPLE, SQUARE, [x, y], B=499, seed=11)
        assert report.p_value == p_value(report.table, report.statistic.value)

    def test_tie_warning(self):
        report = run_test(TWO_SAMPLE, SQUARE, [Sample([1.0, 2.0]), Sample([2.0, 3.0])],
                          B=99, seed=0)
        assert any("tie" in w for w in report.warnings)

    def test_unvalidated_generator_warning(self):
        rough = ConvexGenerator("line", lambda u: u, integral_0_1=0.5, validated=False)
        report = run_test(TWO_SAMPLE, rough, [Sample([1.0, 3.0]), Sample([2.0, 4.0])],
                          B=99, seed=0)
        assert any("characterization not guaranteed" in w for w in report.warnings)

    def test_clamped_level_warning(self):
        report = run_test(TWO_SAMPLE, SQUARE, [Sample([1.0, 3.0]), Sample([2.0, 4.0])],
                          B=9, seed=0, levels=(0.05,))
        assert any("too small" in w for w in report.warnings)

    def test_permutation_method(self):
        x = Sample([1.0, 2.0, 2.0, 4.0])
        y = Sample([2.0, 3.0, 5.0, 6.0])
        a = run_test(TWO_SAMPLE, SQUARE, [x, y], B=199, seed=4, method="permutation")
        b = run_test(TWO_SAMPLE, SQUARE, [x, y], B=199, seed=4, method="permutation")
        assert a.p_value == b.p_value
        assert np.array_equal(a.table.replicates, b.table.replicates)
        assert a.method == "permutation"

    def test_prebuilt_table_reused(self):
        x, y = Sample([1.0, 3.0]), Sample([2.0, 4.0])
        table = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=99, seed=1)
        report = run_test(TWO_SAMPLE, SQUARE, [x, y], table=table)
        assert report.table is table

    def test_prebuilt_table_cannot_answer_permutation(self):
        table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=99, seed=1)
        tied = [Sample([1.0, 1.0, 5.0]), Sample([1.0, 4.0, 6.0])]
        with pytest.raises(InvalidParameterError, match="permutation"):
            run_test(TWO_SAMPLE, SQUARE, tied, method="permutation", table=table)

    def test_prebuilt_table_size_mismatch_rejected(self):
        table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=99, seed=1)
        with pytest.raises(InvalidParameterError):
            run_test(TWO_SAMPLE, SQUARE, [Sample([1.0, 3.0]), Sample([2.0, 4.0])],
                     table=table)

    def test_prebuilt_table_generator_mismatch_rejected(self):
        table = simulate_null(TWO_SAMPLE, power_generator(3), (2, 2), B=99, seed=1)
        with pytest.raises(InvalidParameterError):
            run_test(TWO_SAMPLE, SQUARE, [Sample([1.0, 3.0]), Sample([2.0, 4.0])],
                     table=table)

    def test_prebuilt_table_weights_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        groups = [Sample(rng.random(6)) for _ in range(3)]
        table = simulate_null(K_SAMPLE, SQUARE, (6, 6, 6), B=99, seed=1,
                              weights=WeightVector((0.2, 0.3, 0.5)))
        with pytest.raises(InvalidParameterError, match="weights"):
            run_test(K_SAMPLE, SQUARE, groups, table=table)
        report = run_test(K_SAMPLE, SQUARE, groups, weights=(0.2, 0.3, 0.5), table=table)
        assert report.table is table

    def test_k_sample_end_to_end(self):
        rng = np.random.default_rng(2)
        groups = [Sample(rng.random(8)) for _ in range(3)]
        report = run_test(K_SAMPLE, SQUARE, groups, B=199, seed=3)
        assert 0.0 < report.p_value <= 1.0


class TestPowerStudy:
    def test_null_case_hits_nominal_level(self):
        result = power_study(TWO_SAMPLE, SQUARE, "shift:0", (20, 20),
                             B_null=199, B_power=400, seed=6, levels=(0.05,))
        est, se = result.power[0.05]
        binom_se = np.sqrt(0.05 * 0.95 / 400)
        assert abs(est - 0.05) <= 3.0 * binom_se

    def test_degenerate_scale_equals_null(self):
        shifted = power_study(TWO_SAMPLE, SQUARE, "shift:0", (15, 15),
                              B_null=99, B_power=150, seed=6, levels=(0.05,))
        scaled = power_study(TWO_SAMPLE, SQUARE, "scale:1", (15, 15),
                             B_null=99, B_power=150, seed=6, levels=(0.05,))
        assert shifted.power == scaled.power  # identical data lattice

    def test_power_increases_with_shift(self):
        small = power_study(TWO_SAMPLE, SQUARE, "shift:0.25", (30, 30),
                            B_null=199, B_power=200, seed=7, levels=(0.05,))
        large = power_study(TWO_SAMPLE, SQUARE, "shift:0.5", (30, 30),
                            B_null=199, B_power=200, seed=7, levels=(0.05,))
        assert large.power[0.05][0] > small.power[0.05][0]

    def test_unknown_alternative_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_alternative("wiggle:1")
        for spec in ("shift:nan", "scale:inf", "lehmann:inf"):
            with pytest.raises(InvalidParameterError, match=spec):
                parse_alternative(spec)
        with pytest.raises(InvalidParameterError):
            power_study(TWO_SAMPLE, SQUARE, "wiggle:1", (10, 10),
                        B_null=9, B_power=5, seed=0)

    def test_tuple_alternative_is_validated(self):
        # only spec strings are accepted, so a (name, value) pair cannot skip parse_alternative's checks
        with pytest.raises(InvalidParameterError):
            power_study(TWO_SAMPLE, SQUARE, ("scale", -1.0), (3, 3), B_null=9, B_power=1, seed=0)

    def test_alternative_name_is_lossless(self):
        names = {spec: power_study(TWO_SAMPLE, SQUARE, spec, (3, 3), B_null=9, B_power=1,
                                   seed=0).alternative
                 for spec in ("shift:0.5", "shift:0.50000001")}
        assert names["shift:0.5"] == "shift:0.5"
        assert parse_alternative(names["shift:0.50000001"]) == ("shift", 0.50000001)

    def test_lehmann_alternative_parses(self):
        assert parse_alternative("lehmann:2") == ("lehmann", 2.0)


class TestTableSerialization:
    def test_round_trip_is_bit_identical(self, tmp_path):
        table = simulate_null(TWO_SAMPLE, SQUARE, (7, 7), B=250, seed=19)
        path = tmp_path / "table.csv"
        save_table(table, path)
        loaded = load_table(path)
        assert np.array_equal(loaded.replicates, table.replicates)
        assert loaded.statistic_kind == table.statistic_kind
        assert loaded.sample_sizes == table.sample_sizes
        assert loaded.seed == table.seed

    def test_weights_round_trip(self, tmp_path):
        w = WeightVector((0.25, 0.4, 0.35))
        table = simulate_null(K_SAMPLE, SQUARE, (3, 4, 5), B=20, seed=1, weights=w)
        path = tmp_path / "table.csv"
        save_table(table, path)
        assert load_table(path).weights == w.weights

    def test_version_mismatch_rejected(self, tmp_path):
        table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        intact = path.read_text()
        from convexgof import ConvexGofError

        for version in (1, 2, 99):  # files from older contracts, and a future one
            path.write_text(intact.replace(f"format_version={TABLE_FORMAT_VERSION}",
                                           f"format_version={version}"))
            with pytest.raises(ConvexGofError, match="format version"):
                load_table(path)

    def test_truncated_file_rejected_at_every_cut(self, tmp_path):
        from convexgof import ConvexGofError

        path = tmp_path / "table.csv"
        save_table(simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0), path)
        text = path.read_text()
        for cut in range(1, 3 * len(text.splitlines()[-1])):
            path.write_text(text[:-cut])
            with pytest.raises(ConvexGofError, match="table.csv"):
                load_table(path)

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:-1] + ["0x1.zz"],             # not a hex float
        lambda lines: [l for l in lines if not l.startswith("# seed=")],  # missing key
        lambda lines: lines[:-1],                          # count mismatch
        lambda lines: lines[:-2] + lines[-1:] + lines[-2:-1],  # unsorted
        lambda lines: lines[:-1] + ["inf"],                # non-finite
        lambda lines: ["garbage"] * 5,
    ], ids=["token", "key", "count", "unsorted", "non_finite", "garbage"])
    def test_damaged_file_rejected(self, tmp_path, damage):
        from convexgof import ConvexGofError

        path = tmp_path / "table.csv"
        save_table(simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0), path)
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        with pytest.raises(ConvexGofError, match="table.csv"):
            load_table(path)

    def test_save_replaces_in_place(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("stale\n")
        table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0)
        save_table(table, path)
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        assert np.array_equal(load_table(path).replicates, table.replicates)
