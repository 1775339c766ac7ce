import dataclasses
import io
import os
import re
import struct
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convexgof import (
    ConvexGenerator,
    ConvexGofError,
    InvalidParameterError,
    K_SAMPLE,
    LogConvexGenerator,
    NullTable,
    NumericalError,
    Sample,
    StatisticValue,
    TAU,
    TWO_SAMPLE,
    WeightVector,
    critical_value,
    enumerate_null,
    exp_sq_generator,
    load_table,
    p_value,
    parse_generator_spec,
    power_generator,
    power_study,
    replicate_stream,
    run_test,
    save_table,
    simulate_null,
    tau_statistic,
    two_sample_statistic,
)
from convexgof import cli, generators, nulldist, statistics
from convexgof.nulldist import CHUNK, TABLE_FORMAT_VERSION, parse_alternative
from oracle_helpers import hand_uniforms

SQUARE = power_generator(2)
# tokens a damaged table file may hold: format-6 hex floats (one out of float range), format-7 words
# (0.5, -0.0, +inf, NaN, uppercase, a digit short or long, halves, an inner space, a non-hex digit,
# two on one line), and header lines
_TOKENS = ["0x1p99999", "-0x1p99999", "nan", "inf", "-0x0p+0", "0x1.8p-1", "", "replicate_hex", "# B=10",
           "# seed=0", "# B=", "# format_version=5", "#", "# =", "1e999",
           "3fe0000000000000", "8000000000000000", "7ff0000000000000", "7ff8000000000000", "3FE0000000000000",
           "3fe000000000000", "3fe00000000000000", "3fe00000", "00000000", "3fe00000 0000000", "3fe000000000000g",
           "3fe0000000000000 3fe0000000000000",
           "# format_version=6", "# format_version=7"]


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
                  for row in hand_uniforms((5, 5), 42, c, rows)]
        table = simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=2 * CHUNK + 5, seed=42)
        assert np.array_equal(table.replicates, np.sort(values))

    def test_distinct_indices_distinct_draws(self):
        assert not np.array_equal(replicate_stream(1, 0).random(8),
                                  replicate_stream(1, 1).random(8))


@pytest.fixture
def unit_pool(monkeypatch):
    """Two pool threads, even on one CPU, so that work units leave the calling thread."""
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: pool)
        yield pool


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

    @pytest.mark.parametrize("kind, sizes", [(TWO_SAMPLE, (5, 7)), (K_SAMPLE, (4, 4, 6)),
                                             (TWO_SAMPLE, (150, 120)), (K_SAMPLE, (80, 90, 100, 110))])
    def test_each_grid_evaluated_once_per_table(self, kind, sizes, unit_pool):
        # three chunks; at the larger sizes (N > 256) the last two are drawn and scored on the
        # unit pool, whose threads must run no generator code
        calls = []

        def counted(u):
            calls.append((threading.get_ident(), np.size(u)))
            return SQUARE.eval(u)

        gen = ConvexGenerator("counted", counted, integral_0_1=1.0 / 3.0, validated=False)
        table = simulate_null(kind, gen, sizes, B=2 * CHUNK + 5, seed=4)
        assert sorted(calls) == [(threading.get_ident(), n + 1) for n in sorted(set(sizes))]
        assert np.array_equal(table.replicates, simulate_null(kind, SQUARE, sizes, B=2 * CHUNK + 5, seed=4).replicates)

    def test_tau_grids_built_once_on_the_calling_thread(self, monkeypatch, unit_pool):
        xi = exp_sq_generator(1.0)
        builds, evals = [], []
        grid = LogConvexGenerator.antiderivative_grid

        def recorded_grid(generator, n):
            builds.append((threading.get_ident(), n))
            return grid(generator, n)

        def recorded_eval(u):
            evals.append(threading.get_ident())
            return xi.eval(u)

        def build(gen):
            return [simulate_null(TAU, gen, (150, 120), B=2 * CHUNK + 5, seed=5),
                    run_test(TAU, gen, [x, y], B=2 * CHUNK + 5, seed=5, convention="mid").table]

        x, y = (np.round(np.random.default_rng(g).normal(0.0, 1.0, n), 1) for g, n in ((1, 150), (2, 120)))
        reference = build(xi)
        monkeypatch.setattr(LogConvexGenerator, "antiderivative_grid", recorded_grid)
        gen = LogConvexGenerator(xi.name, recorded_eval, xi.integral_sq_0_1, validated=False)
        tables = build(gen) + build(gen)
        me = threading.get_ident()
        # one Xi grid per (eval, size) per process: both rounds' tables and observed statistics share it
        assert sorted(builds) == [(me, 120), (me, 150)]
        assert set(evals) == {me}
        for table, expected in zip(tables, reference * 2):
            assert np.array_equal(table.replicates, expected.replicates)

    def test_table_keeps_its_grids_past_the_memo_bound(self, monkeypatch, unit_pool):
        # 65 distinct sizes, more than MEMO_SIZE, need 2210 floats of grids, past a memo bound of 100
        # floats: the first unit keeps them all, so three tables evaluate each size once, on the calling
        # thread, and each table equals the one built on one thread
        monkeypatch.setattr(generators, "CHUNK_ELEMENTS", 100)
        sizes = tuple(range(1, generators.MEMO_SIZE + 2))
        B = 2 * nulldist._chunk_rows(sum(sizes)) + 5  # three units, on the pool from the second
        assert sum(sizes) > 256
        calls = []

        def counted(u):
            calls.append((threading.get_ident(), np.size(u)))
            return SQUARE.eval(u)

        def build(gen):
            return simulate_null(K_SAMPLE, gen, sizes, B=B, seed=12).replicates.tobytes()

        gen = ConvexGenerator("counted", counted, integral_0_1=1.0 / 3.0, validated=False)
        first = build(gen)
        assert build(gen) == first
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: None)
        assert build(gen) == first
        assert sorted(calls) == [(threading.get_ident(), n + 1) for n in sizes]
        assert build(SQUARE) == first

    def test_replaced_log_convex_eval_gets_its_own_grids(self):
        # expsq:1 rebuilt with expsq:3's eval (a replaced copy keeps every other field) scores as expsq:3,
        # not with expsq:1's Xi grids
        rng = np.random.default_rng(20)
        x, y = Sample(rng.normal(size=20)), Sample(rng.normal(size=30))
        one, three = exp_sq_generator(1.0), exp_sq_generator(3.0)
        tau_statistic(one, x, y)
        swapped = dataclasses.replace(one, name="expsq:3", eval=three.eval, integral_sq_0_1=None)
        assert tau_statistic(swapped, x, y) == tau_statistic(three, x, y)

    def test_unhashable_eval_builds_its_table(self):
        # the grid memo keys an eval by identity, so a callable that cannot be hashed still works
        @dataclasses.dataclass
        class Power:
            m: int

            def __call__(self, u):
                return np.asarray(u, dtype=float) ** self.m

        gen = ConvexGenerator("p2", Power(2), 1.0 / 3.0)
        with pytest.raises(TypeError):
            hash(gen.eval)
        table = simulate_null(TWO_SAMPLE, gen, (5, 7), B=200, seed=3)
        assert table.replicates.tobytes() == simulate_null(TWO_SAMPLE, SQUARE, (5, 7), B=200, seed=3).replicates.tobytes()

    def test_swapped_convex_eval_gets_its_own_grids(self):
        # after a power:2 table, a generator still named power:2 but with u^3 as its eval (a replaced
        # copy, then the same object edited in place) builds power:3's table: grids follow the eval
        cube, square = power_generator(3), ConvexGenerator("power:2", SQUARE.eval, 1.0 / 3.0)
        simulate_null(TWO_SAMPLE, square, (5, 7), B=200, seed=3)
        expected = simulate_null(TWO_SAMPLE, cube, (5, 7), B=200, seed=3).replicates.tobytes()
        replaced = dataclasses.replace(square, eval=cube.eval, integral_0_1=0.25)
        object.__setattr__(square, "eval", cube.eval)
        object.__setattr__(square, "integral_0_1", 0.25)
        for gen in (replaced, square):
            assert gen.name == "power:2"
            assert simulate_null(TWO_SAMPLE, gen, (5, 7), B=200, seed=3).replicates.tobytes() == expected

    def test_error_on_a_slab_thread_is_raised_and_the_next_table_builds(self, monkeypatch, unit_pool, tmp_path):
        # a unit scored on a pool thread fails: the table raises, the CLI exits 4 with one
        # error line and writes nothing, and the next table builds as it does on no pool; once the
        # units are shared, the calling thread waits in its unit for that failure, so that it
        # cannot take every unit itself
        score, me = nulldist._rank_statistic, threading.get_ident()
        shared, raised = threading.Event(), threading.Event()

        def fails_off_the_calling_thread(*args):
            if threading.get_ident() != me:
                raised.set()
                raise NumericalError("non-finite statistic on a pool thread")
            if shared.is_set():
                raised.wait(10)
            return score(*args)

        monkeypatch.setattr(nulldist, "_unit_pool", lambda: shared.set() or unit_pool)
        monkeypatch.setattr(nulldist, "_rank_statistic", fails_off_the_calling_thread)
        with pytest.raises(NumericalError, match="pool thread"):
            simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=2 * CHUNK + 5, seed=6)
        out, err, path = io.StringIO(), io.StringIO(), tmp_path / "t.csv"
        argv = ["null-table", "--kind", "two_sample", "--generator", "power:2", "--sizes", "150,150",
                "--B", str(2 * CHUNK + 5), "--seed", "6", "--no-cache", "--out", str(path)]
        shared.clear()
        raised.clear()
        assert cli.run(argv, out=out, err=err) == cli.EXIT_NUMERICAL
        assert out.getvalue() == "" and not path.exists()
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        monkeypatch.setattr(nulldist, "_rank_statistic", score)
        assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == cli.EXIT_OK
        table = load_table(path)
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: None)
        alone = simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=2 * CHUNK + 5, seed=6)
        assert table.replicates.tobytes() == alone.replicates.tobytes()

    def test_pool_failure_is_raised_once_every_thread_has_stopped(self, monkeypatch, unit_pool):
        # of a 24-unit table, the first unit a pool thread takes raises and every other unit takes 20 ms:
        # when simulate_null raises, no unit is being scored, the two other threads took at most the units
        # they had claimed, and none starts later; the same pool then builds the table as no pool does
        score, me, lock = nulldist._rank_statistic, threading.get_ident(), threading.Lock()
        started, running, failed_at = [], [0], []

        def fails_once_on_a_pool_thread(*args):
            with lock:
                started.append(threading.get_ident())
                running[0] += 1
                fail = threading.get_ident() != me and not failed_at
                if fail:
                    failed_at.append(len(started))
            try:
                if fail:
                    raise NumericalError("non-finite statistic on a pool thread")
                time.sleep(0.02)
                return score(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(nulldist, "_rank_statistic", fails_once_on_a_pool_thread)
        with pytest.raises(NumericalError, match="pool thread"):
            simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=20 * CHUNK, seed=6)
        count = len(started)
        assert running == [0] and count <= failed_at[0] + 2
        time.sleep(0.1)
        assert len(started) == count and running == [0]
        monkeypatch.setattr(nulldist, "_rank_statistic", score)
        pooled = simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=20 * CHUNK, seed=6)
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: None)
        alone = simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=20 * CHUNK, seed=6)
        assert pooled.replicates.tobytes() == alone.replicates.tobytes()

    def test_calling_thread_scores_beside_at_most_cpus_minus_one_pool_threads(self, monkeypatch):
        # a power:2 1000/1000 table is 77 units: the calling thread scores the first and keeps taking
        # units, so no more threads score it than the process has CPUs
        score, threads = nulldist._rank_statistic, []

        def recorded(*args):
            threads.append(threading.get_ident())
            return score(*args)

        monkeypatch.setattr(nulldist, "_rank_statistic", recorded)
        table = simulate_null(TWO_SAMPLE, SQUARE, (1000, 1000), B=9999, seed=3)
        assert len(threads) == 77 and threads[0] == threading.get_ident()
        assert len(set(threads)) <= len(os.sched_getaffinity(0))
        assert threads.count(threading.get_ident()) > 1
        monkeypatch.setattr(nulldist, "_rank_statistic", score)
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: None)
        assert table.replicates.tobytes() == simulate_null(TWO_SAMPLE, SQUARE, (1000, 1000), B=9999, seed=3).replicates.tobytes()

    def test_transform_runs_on_the_calling_thread(self, unit_pool, monkeypatch):
        # the reference path draws and scores every chunk here, one at a time: nothing goes to the pool
        threads, score = [], nulldist._rank_statistic

        def recorded(uniforms):
            threads.append(threading.get_ident())
            return uniforms

        def scored(*args):
            threads.append(threading.get_ident())
            return score(*args)

        monkeypatch.setattr(nulldist, "_rank_statistic", scored)
        table = simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=2 * CHUNK + 5, seed=8, transform=recorded)
        assert threads == [threading.get_ident()] * 6
        monkeypatch.setattr(nulldist, "_rank_statistic", score)
        plain = simulate_null(TWO_SAMPLE, SQUARE, (150, 150), B=2 * CHUNK + 5, seed=8)
        assert table.replicates.tobytes() == plain.replicates.tobytes()

    def test_transform_holds_one_chunk_at_a_time(self):
        # the reference path holds one of a 1000/1000 table's 77 chunks at a time: 8.6 MiB under tracemalloc
        # with this thread's scratch built afresh, where all 77 chunks' label rows take 19 MiB
        statistics._SCRATCH.__dict__.clear()
        tracemalloc.start()
        try:
            table = simulate_null(TWO_SAMPLE, SQUARE, (1000, 1000), B=9999, seed=3, transform=lambda u: u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        plain = simulate_null(TWO_SAMPLE, SQUARE, (1000, 1000), B=9999, seed=3)
        assert table.replicates.tobytes() == plain.replicates.tobytes()

    def test_chunk_memory_is_bounded(self):
        shapes = []

        def record(block):
            shapes.append(block.shape)
            return block

        simulate_null(TWO_SAMPLE, SQUARE, (3000, 3000), B=1500, seed=3, transform=record)
        assert sum(rows for rows, _ in shapes) == 1500
        assert all(rows * cols <= nulldist.CHUNK_ELEMENTS == 2**18 for rows, cols in shapes)

    @pytest.mark.parametrize("kind, spec, sizes, transform", [
        pytest.param(TWO_SAMPLE, "power:2", (20, 20), np.exp, id="exp"),
        pytest.param(TWO_SAMPLE, "power:2", (20, 20), np.arctan, id="arctan"),
        pytest.param(K_SAMPLE, "poly:0,1,1", (7, 7, 7), np.exp, id="k_sample-exp"),
        pytest.param(K_SAMPLE, "poly:0,1,1", (7, 7, 7), np.arctan, id="k_sample-arctan"),
        pytest.param(TAU, "expsq:1", (6, 4), np.exp, id="tau-exp"),
        pytest.param(TAU, "expsq:1", (6, 4), np.arctan, id="tau-arctan"),
    ])
    def test_distribution_freeness(self, kind, spec, sizes, transform):
        # with transform= a chunk argsorts the mapped uniforms; without, it sorts tagged raw words
        gen = parse_generator_spec(spec)
        plain = simulate_null(kind, gen, sizes, B=400, seed=3)
        mapped = simulate_null(kind, gen, sizes, B=400, seed=3, transform=transform)
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
                    for row in hand_uniforms(sizes, 77, 0, 50)]
        assert np.array_equal(table.replicates, np.sort(observed))

    def test_simulated_tau_matches_observed_path(self):
        from convexgof import tau_statistic

        xi = exp_sq_generator(1.0)
        table = simulate_null(TAU, xi, (6, 9), B=40, seed=78)  # one chunk
        observed = [tau_statistic(xi, Sample(row[:6]), Sample(row[6:])).value
                    for row in hand_uniforms((6, 9), 78, 0, 40)]
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
        with pytest.raises(InvalidParameterError, match="only meaningful for k_sample"):
            simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=10, seed=0, weights=WeightVector.uniform(2))

    def test_bool_replicate_count_rejected(self):
        # True is an int equal to 1: it would build a table of one replicate
        with pytest.raises(InvalidParameterError, match="replicate count B"):
            simulate_null(TWO_SAMPLE, SQUARE, (5, 5), B=True, seed=0)

    @pytest.mark.parametrize("size", [2.7, 2.0, True, "3"])
    def test_non_integer_sample_size_rejected(self, size):
        # int() would run (2.7, 3) as (2, 3), (True, 3) as (1, 3) and ('3', 3) as (3, 3); a numpy integer is a size
        for request in (lambda: simulate_null(TWO_SAMPLE, SQUARE, (size, 3), B=10, seed=0),
                        lambda: enumerate_null(TWO_SAMPLE, SQUARE, (size, 3)),
                        lambda: power_study(TWO_SAMPLE, SQUARE, "shift:0.5", (size, 3), 10, 2, 0)):
            with pytest.raises(InvalidParameterError, match="sample sizes must all be integers >= 1"):
                request()
        assert simulate_null(TWO_SAMPLE, SQUARE, (np.int64(2), 3), B=10, seed=0).sample_sizes == (2, 3)


class TestPValue:
    def test_empty_table_rejected(self):
        with pytest.raises(InvalidParameterError, match="empty"):
            p_value(toy_table([]), 0.5)

    def test_observed_above_all(self):
        table = toy_table(np.arange(1.0, 100.0))
        assert p_value(table, 1000.0) == 1.0 / 100.0

    def test_observed_below_all(self):
        table = toy_table(np.arange(1.0, 100.0))
        assert p_value(table, -np.inf) == 1.0

    def test_nan_observed_rejected(self):
        # a NaN compares below no replicate, which would read as the smallest p-value there is
        table = toy_table(np.arange(1.0, 100.0))
        for observed in (float("nan"), StatisticValue(float("nan"), float("nan"), 0.0, 0, "power:2")):
            with pytest.raises(InvalidParameterError, match="NaN"):
                p_value(table, observed)
        assert (p_value(table, np.inf), p_value(table, -np.inf)) == (1.0 / 100.0, 1.0)

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

    def test_repeated_level_is_reported_once(self):
        data = [Sample([1.0, 3.0]), Sample([2.0, 4.0])]
        once = run_test(TWO_SAMPLE, SQUARE, data, B=9, seed=0, levels=(0.05,))
        twice = run_test(TWO_SAMPLE, SQUARE, data, B=9, seed=0, levels=(0.05, 0.05))
        assert twice.warnings == once.warnings
        assert twice.critical_values == once.critical_values

    def test_tied_data_use_the_permutation_null_of_their_tie_pattern(self):
        x = Sample([1.0, 2.0, 2.0, 4.0])
        y = Sample([2.0, 3.0, 5.0, 6.0])
        a = run_test(TWO_SAMPLE, SQUARE, [x, y], B=199, seed=4)
        b = run_test(TWO_SAMPLE, SQUARE, [Sample(x.values * 10 + 3), Sample(y.values * 10 + 3)], B=199, seed=4)
        assert a.p_value == b.p_value and a.table.identity == b.table.identity
        assert np.array_equal(a.table.replicates, b.table.replicates)
        ties = simulate_null(TWO_SAMPLE, SQUARE, (4, 4), B=199, seed=4, ties=(1, 3, 1, 1, 1, 1))
        assert ties.identity == a.table.identity and ties.replicates.tobytes() == a.table.replicates.tobytes()
        assert a.method == "permutation" and a.table.ties.startswith("right-continuous:")
        mid = run_test(TWO_SAMPLE, SQUARE, [x, y], B=199, seed=4, convention="mid")
        assert mid.method == "permutation" and mid.table.identity[:6] == a.table.identity[:6]
        assert mid.table.ties == "mid:" + a.table.ties.partition(":")[2]
        assert run_test(TWO_SAMPLE, SQUARE, [Sample([1.0, 3.0]), Sample([2.0, 4.0])], B=9).method == "simulation"

    def test_prebuilt_table_reused(self):
        x, y = Sample([1.0, 3.0]), Sample([2.0, 4.0])
        table = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=99, seed=1)
        report = run_test(TWO_SAMPLE, SQUARE, [x, y], table=table)
        assert report.table is table

    def test_prebuilt_table_must_have_the_data_tie_pattern(self):
        tied = [Sample([1.0, 1.0, 5.0]), Sample([1.0, 4.0, 6.0])]
        for ties, convention in ((None, "right-continuous"), ((2, 1, 1, 1, 1), "right-continuous"),
                                 ((3, 1, 1, 1), "mid")):
            table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=99, seed=1, ties=ties, convention=convention)
            with pytest.raises(InvalidParameterError, match="the data needs .*'right-continuous:[0-9a-f]{64}'"):
                run_test(TWO_SAMPLE, SQUARE, tied, table=table)
        table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=99, seed=1, ties=(3, 1, 1, 1))
        assert run_test(TWO_SAMPLE, SQUARE, tied, table=table).table is table

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

    def test_tie_key_is_pinned(self):
        # the key names a tied request's cache file: a change to it would turn every cached tied table into a miss
        key = "right-continuous:fa7c63f601691b958793c6d5ebe2ec4456e1a35b2b448b4f3e55cd1f86787673"
        for ties in ([2, 2], (2, 2), np.array([2, 2], np.uint8), np.array([2, 2], np.int64)):
            table = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=9, seed=1, ties=ties)
            assert table.ties == key and table.identity[-1] == key
        table = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=9, seed=1, ties=(1, 3))
        assert table.ties == "right-continuous:8e8f6841378f772c40db2f07e876776d50c481ed7329ebcab75312e3b1fa7807"
        tie_free = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=9, seed=1)
        table = simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=9, seed=1, ties=[1, 1, 1, 1])
        assert table.ties is None and table.identity == tie_free.identity
        assert table.replicates.tobytes() == tie_free.replicates.tobytes()
        for ties in ([[2, 2]], np.array([], int), np.array([2, 2], object), [2, 3]):
            with pytest.raises(InvalidParameterError, match="integers >= 1 that sum to the 4 pooled values"):
                simulate_null(TWO_SAMPLE, SQUARE, (2, 2), B=9, seed=1, ties=ties)

    @pytest.mark.parametrize("ties", [(2, 2), (2, 4), (2, 0, 3), (2.0, 3), (True,) * 5, [[2, 3]], ()])
    def test_bad_tie_pattern_rejected(self, ties):
        with pytest.raises(InvalidParameterError, match="integers >= 1 that sum to the 5 pooled values"):
            simulate_null(TWO_SAMPLE, SQUARE, (2, 3), B=9, seed=0, ties=ties)

    def test_k_sample_end_to_end(self):
        rng = np.random.default_rng(2)
        groups = [Sample(rng.random(8)) for _ in range(3)]
        report = run_test(K_SAMPLE, SQUARE, groups, B=199, seed=3)
        assert 0.0 < report.p_value <= 1.0


@pytest.mark.parametrize("convention", ["right-continuous", "mid"])
def test_tied_null_data_are_rejected_at_the_nominal_rate(convention):
    # 400 null data sets of 30/30 on 5 levels: calibrated by the tie-free table, they were rejected at
    # alpha = 0.05 with rate about 1.000 (right-continuous) or 0.0075 (mid)
    rng, trials, alpha = np.random.default_rng(37), 400, 0.05
    rejected = 0
    for trial in range(trials):
        x, y = rng.choice(5, size=(2, 30), p=(0.1, 0.2, 0.4, 0.2, 0.1)).astype(float)
        report = run_test(TWO_SAMPLE, SQUARE, [x, y], B=199, seed=trial, levels=(alpha,), convention=convention)
        rejected += report.p_value <= alpha
    assert abs(rejected / trials - alpha) <= 3.5 * np.sqrt(alpha * (1.0 - alpha) / trials), rejected


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

    def test_repeated_level_counts_once(self):
        # counted once per listed level, (0.5, 0.5) gave 0.5 where (0.5,) gave 0.25
        for B_power in (4, 5):
            once, twice = (power_study(TWO_SAMPLE, SQUARE, "shift:0.2", (5, 5), B_null=19,
                                       B_power=B_power, seed=0, levels=levels).power
                           for levels in ((0.5,), (0.5, 0.5)))
            assert twice == once

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

    def test_malformed_alternative_value_rejected(self):
        with pytest.raises(InvalidParameterError, match="offending token 'x'"):
            parse_alternative("shift:x")
        with pytest.raises(InvalidParameterError, match="positive factor"):
            parse_alternative("scale:-1")

    def test_non_positive_trial_count_rejected(self):
        with pytest.raises(InvalidParameterError, match="B_power"):
            power_study(TWO_SAMPLE, SQUARE, "shift:0.5", (3, 3), B_null=9, B_power=0, seed=0)

    def test_bool_counts_rejected(self):
        # True would run one trial, or build each trial's null table of one replicate
        with pytest.raises(InvalidParameterError, match="B_power"):
            power_study(TWO_SAMPLE, SQUARE, "shift:0.5", (3, 3), B_null=9, B_power=True, seed=0)
        with pytest.raises(InvalidParameterError, match="replicate count B"):
            power_study(TWO_SAMPLE, SQUARE, "shift:0.5", (3, 3), B_null=True, B_power=2, seed=0)

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

    def test_lehmann_power_study(self):
        # G = F^1 is the null itself, on the data lattice of shift:0; G = F^2 is rejected more often
        null, alt = (power_study(TWO_SAMPLE, SQUARE, spec, (20, 20), B_null=99, B_power=60,
                                 seed=3, levels=(0.05,)) for spec in ("lehmann:1", "lehmann:2"))
        shifted = power_study(TWO_SAMPLE, SQUARE, "shift:0", (20, 20), B_null=99, B_power=60,
                              seed=3, levels=(0.05,))
        assert alt.alternative == "lehmann:2" and null.power == shifted.power
        assert alt.power[0.05][0] > null.power[0.05][0]


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

        for version in (1, 2, 3, 4, 5, 6, 99):  # files from older contracts, and a future one
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
        # metadata among the replicates must not relabel the table
        lambda lines: lines[:-3] + ["# seed=12345", "# generator_name=power:3"] + lines[-3:],
        # nor may a second header line for a key (here just before '# B=')
        lambda lines: lines[:6] + ["# seed=12345"] + lines[6:],
        lambda lines: lines[:-1] + ["0x1p99999"],          # a format-6 hex float, out of float range
        lambda lines: lines[:-1] + ["7ff0000000000000"],   # the bits of +inf
        lambda lines: lines[:-1] + ["7ff8000000000000"],   # the bits of a NaN
        lambda lines: lines[:-1] + [lines[-1][:15]],       # one digit short
        lambda lines: lines[:-1] + [lines[-1][:8], lines[-1][8:]],  # split into two halves
        lambda lines: lines[:-1] + [lines[-1][:8] + " " + lines[-1][9:]],  # 16 characters, one a space
        lambda lines: lines[:-1] + [lines[-1][:15] + "g"],  # 16 characters, one not a hex digit
        lambda lines: lines[:-2] + [lines[-2] + " " + lines[-1]],  # two words on one line of 33 characters
        # the replicates as format 6 wrote them, under a current header
        lambda lines: lines[:9] + [struct.unpack(">d", bytes.fromhex(word))[0].hex() for word in lines[9:]],
        # every replicate a copy of the first: sorted, finite and B lines, but not the header's sha256 digest
        lambda lines: lines[:-10] + lines[-10:-9] * 10,
        lambda lines: [l for l in lines if not l.startswith("# sha256=")],  # a format-7 file under a version-8 header
    ], ids=["token", "key", "count", "unsorted", "non_finite", "garbage", "header_in_body", "repeated_key",
            "out_of_range", "inf_bits", "nan_bits", "short_word", "split_word", "inner_space", "non_hex_digit",
            "joined_words", "format6_body", "copied_first", "no_digest"])
    def test_damaged_file_rejected(self, tmp_path, damage):
        from convexgof import ConvexGofError

        path = tmp_path / "table.csv"
        save_table(simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0), path)
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        with pytest.raises(ConvexGofError, match="table.csv"):
            load_table(path)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # the file is rewritten per example
    @given(st.lists(st.tuples(st.sampled_from(["cut", "drop", "duplicate", "edit", "insert"]),
                              st.integers(0, 10**6), st.sampled_from(_TOKENS) | st.text(max_size=12)),
                    max_size=4))
    @example([("edit", 17, "0x1p99999")])  # the last replicate as a format-6 hex float out of float range
    @example([("edit", 17, "3fe00000\n00000000")])  # the last replicate split into halves
    def test_mutated_file_loads_or_is_rejected(self, tmp_path, mutations):
        # a valid file cut, with lines dropped, duplicated, edited or inserted: a table or ConvexGofError
        path = tmp_path / "table.csv"
        save_table(simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0), path)
        text = path.read_text()
        for op, at, token in mutations:
            if op == "cut":
                text = text[:at % (len(text) + 1)]
                continue
            lines = text.split("\n")
            i = at % len(lines)
            lines[i:i + 1] = {"drop": [], "duplicate": [lines[i]] * 2, "edit": [token]}.get(op, [token, lines[i]])
            text = "\n".join(lines)
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            table = load_table(path)
        except ConvexGofError as exc:
            assert "table.csv" in str(exc)
        else:
            reps = table.replicates
            assert reps.size == table.B and np.all(np.isfinite(reps)) and np.all(reps[1:] >= reps[:-1])

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
           st.sampled_from([TWO_SAMPLE, K_SAMPLE, TAU]), st.lists(st.integers(1, 10**6), min_size=2, max_size=4),
           st.none() | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
           st.integers(0, 2**64 - 1), st.text("abcdefghijklmnopqrstuvwxyz0123456789:,.+-_=", min_size=1))
    def test_save_then_load_is_bit_exact(self, tmp_path, values, kind, sizes, weights, seed, name):
        table = toy_table(values, statistic_kind=kind, generator_name=name, sample_sizes=tuple(sizes),
                          seed=seed, weights=None if weights is None else tuple(weights))
        path = tmp_path / "table.csv"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.identity == table.identity
        assert loaded.replicates.tobytes() == table.replicates.tobytes()  # -0.0 and subnormals included

    def test_body_is_one_ieee754_hex_word_per_line(self, tmp_path):
        path = tmp_path / "table.csv"
        save_table(toy_table([-0.0, 5e-324, 0.5]), path)
        body = path.read_text().partition("replicate_hex\n")[2]
        assert body == "8000000000000000\n0000000000000001\n3fe0000000000000\n"  # -0.0, 5e-324, 0.5
        assert load_table(path).replicates.tobytes() == np.array([-0.0, 5e-324, 0.5]).tobytes()
        save_table(toy_table([]), path)
        empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no bytes
        assert path.read_text().endswith(f"# B=0\n# sha256={empty}\nreplicate_hex\n") and load_table(path).B == 0

    @pytest.mark.parametrize("damage, named", [
        (lambda w: [w[:8], w[8:]], lambda w: f"body line 10 {w[:8]!r} is not 16 lowercase hex digits"),
        (lambda w: [w[:15]], lambda w: f"body line 10 {w[:15]!r} is not 16 lowercase hex digits"),
        (lambda w: ["3fe0000000000000", w[1:] + "z"], lambda w: "body line 11 "),
        (lambda w: [w, w], lambda w: "replicate count mismatch"),
        (lambda w: ["7ff8000000000000"], lambda w: "replicates are not finite and sorted"),
    ], ids=["split_word", "short_word", "later_non_hex", "extra_word", "nan_bits"])
    def test_corrupt_message_names_the_first_bad_body_line(self, tmp_path, damage, named):
        from convexgof import ConvexGofError

        path = tmp_path / "table.csv"
        save_table(simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0), path)
        *lines, last = path.read_text().splitlines()
        path.write_text("\n".join(lines + damage(last)) + "\n")
        with pytest.raises(ConvexGofError, match=re.escape(f"table.csv' is corrupt: {named(last)}")):
            load_table(path)

    def test_generator_named_like_the_body_marker_round_trips(self, tmp_path):
        table = toy_table([0.125, 0.5, 1.0 / 3.0], generator_name="replicate_hex", seed=5)
        path = tmp_path / "table.csv"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.identity == table.identity
        assert [v.hex() for v in loaded.replicates] == [v.hex() for v in table.replicates]

    @pytest.mark.parametrize("name", ["my gen ", "my\ngen", "my\rgen"])
    def test_name_that_would_not_load_back_is_rejected_before_writing(self, tmp_path, name):
        with pytest.raises(InvalidParameterError, match="generator_name"):
            save_table(toy_table([0.5], generator_name=name), tmp_path / "table.csv")
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_in_place(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("stale\n")
        table = simulate_null(TWO_SAMPLE, SQUARE, (3, 3), B=10, seed=0)
        save_table(table, path)
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        assert np.array_equal(load_table(path).replicates, table.replicates)

    def test_threads_saving_one_path_do_not_collide(self, tmp_path):
        # each thread writes its own temporary file beside the path, so no thread renames or removes
        # another's: 80 saves of one B = 99999 table to one path by 4 threads all succeed
        path = tmp_path / "table.csv"
        table = toy_table(np.random.default_rng(3).random(99999))
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(save_table, table, path) for _ in range(80)]
        assert [f.exception() for f in futures] == [None] * 80
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        assert load_table(path).replicates.tobytes() == table.replicates.tobytes()
