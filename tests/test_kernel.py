"""The count-indexed statistic kernel shared by observed data, simulation, permutation and enumeration."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from convexgof import (
    K_SAMPLE,
    MID,
    NumericalError,
    RIGHT_CONTINUOUS,
    TAU,
    TWO_SAMPLE,
    Sample,
    WeightVector,
    enumerate_null,
    parse_generator_spec,
    power_generator,
    run_test,
    simulate_null,
    two_sample_statistic,
)
from convexgof.nulldist import CHUNK, _chunk_rows, replicate_stream
from convexgof.statistics import _centering, _group_labels, _rank_statistic, _tie_blocks
from convexgof.oracle import _label_batches

from oracle_helpers import reference_statistic

# generators whose eval is elementwise, so a grid lookup equals evaluating in place
GENERATORS = {
    TWO_SAMPLE: ("power:2", "power:3", "poly:0.5,1.5"),
    K_SAMPLE: ("power:2", "poly:0,1,1"),
    TAU: ("expsq:1", "expsq:0.5"),
}


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from((TWO_SAMPLE, K_SAMPLE, TAU)))
    k = draw(st.integers(3, 4)) if kind == K_SAMPLE else 2
    sizes = tuple(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)))
    total = sum(sizes)
    if draw(st.booleans()):  # tied: values on a coarse grid
        pooled = draw(st.lists(st.integers(0, 4), min_size=total, max_size=total))
    else:
        pooled = draw(st.permutations(range(total)))
    rows = draw(st.lists(st.permutations(range(total)), min_size=1, max_size=4))
    weights = None
    if kind == K_SAMPLE:
        raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        weights = WeightVector(tuple(v / sum(raw) for v in raw))
    return (kind, draw(st.sampled_from(GENERATORS[kind])), sizes, np.asarray(pooled, dtype=float),
            rows, weights, draw(st.sampled_from((RIGHT_CONTINUOUS, MID))))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_equals_reference_bit_for_bit(case):
    kind, spec, sizes, pooled, rows, weights, convention = case
    gen = parse_generator_spec(spec)
    order = np.argsort(pooled, kind="stable")
    slot_group = _group_labels(sizes)
    labels, expected = [], []
    for perm in rows:  # each row splits pooled[perm] into the groups in order
        slot = np.empty(len(perm), dtype=np.intp)
        slot[list(perm)] = np.arange(len(perm))
        labels.append(slot_group[slot[order]])
        groups = np.split(pooled[list(perm)], np.cumsum(sizes)[:-1])
        w = None if weights is None else weights.weights
        expected.append(reference_statistic(kind, gen, groups, w, convention))
    got = _rank_statistic(kind, gen, sizes, weights, np.array(labels),
                          _tie_blocks(pooled[order]), convention) - _centering(kind, gen, weights)
    assert list(got) == expected


def test_tie_blocks():
    lo, hi = _tie_blocks(np.array([1.0, 2.0, 2.0, 2.0, 5.0, 7.0, 7.0]))
    assert list(lo) == [0, 1, 1, 1, 4, 5, 5]
    assert list(hi) == [1, 4, 4, 4, 5, 7, 7]
    assert _tie_blocks(np.array([1.0, 2.0, 3.0])) is None


@pytest.mark.parametrize("sizes", [(3, 4), (2, 2, 3), (1, 1, 4, 7)])
def test_label_batches_cover_every_assignment_once(sizes):
    batches = list(_label_batches(sizes))
    assert all(len(b) <= CHUNK for b in batches)
    rows = np.concatenate(batches)
    expected = math.prod(math.comb(sum(sizes[g:]), s) for g, s in enumerate(sizes))
    assert len(np.unique(rows, axis=0)) == len(rows) == expected
    assert all(np.array_equal(np.bincount(row, minlength=len(sizes)), sizes) for row in rows[:50])


def _hand_labels(sizes, seed, chunk, rows):
    """Chunk ``chunk``'s label rows drawn by hand: argsorted uniforms from its stream."""
    draws = replicate_stream(seed, chunk).random((rows, sum(sizes)))
    return _group_labels(sizes)[np.argsort(draws, axis=1)]


# sha256 digests of enumerated pmfs, computed by the per-replicate
# observed-data statistic path that the kernel replaced; the kernel must
# reproduce them.  Permutation digests pin the (seed, chunk) stream contract.
# The tau digests are those of table format 3, whose tanh-sinh Xi(i/n) grid
# differs from the earlier per-panel QUADPACK grid by a few ulps.

def _table_digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _pmf_digest(dist):
    h = hashlib.sha256(np.ascontiguousarray(dist.values, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(dist.probabilities, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, spec, sizes, digest", [
    (TWO_SAMPLE, "power:2", (8, 8), "d53bf49f28c304d9e209e6903a2e184d188c6fb13ad31e1cf8d16d6d2fb28161"),
    (TAU, "expsq:1", (7, 7), "014781949b218002a22bf9a63de631a563cef6bb8ade841cf230b913cea247f9"),
    (K_SAMPLE, "poly:0,1,1", (3, 3, 3), "3d34399e4bb8a8675bd4bccca8bed7554e986840e906bf5a3b5846e488b162a6"),
    (K_SAMPLE, "power:3", (2, 3, 2, 2), "ff37bb3ff810a203faa718c4b54178d4d550c6ad975a2bc11f845830e583407e"),
    (TWO_SAMPLE, "power:2", (10, 10), "c88dd7269f1827afe355a45548d98d39f01f580e6f5acfb3fc98bd7edfb4d816"),
])
def test_enumerated_pmf_digests(kind, spec, sizes, digest):
    assert _pmf_digest(enumerate_null(kind, parse_generator_spec(spec), sizes)) == digest


PERMUTATION_DIGESTS = {
    (TWO_SAMPLE, RIGHT_CONTINUOUS): "c4fed87227372c9ed879c7b530f43972e8f43d7ab9c8a1206c9267480283321a",
    (K_SAMPLE, RIGHT_CONTINUOUS): "4f5774c72a63065f2a2439d8724c4f6e00c17b8e18371a2c509497676fe4ee49",
    (TAU, RIGHT_CONTINUOUS): "aae126291726f929e344530e4cadc475f6e2ed1b98d13d5d2f5f1b140d2e189a",
    (TWO_SAMPLE, MID): "049e5eb2d60e06ca44872f2f313d6a3854ea1c99c8f853b45d329cd609aa707d",
    (K_SAMPLE, MID): "d7281df940a7c5510a2730c47e36053453a6fe8573df6233c48d19d64f13242a",
    (TAU, MID): "b1f94bb563abd693790fb79e6d067267cc9b5660b75c876a3299c97d625b867d",
}


@pytest.mark.parametrize("kind, convention", sorted(PERMUTATION_DIGESTS))
def test_permutation_table_digests(kind, convention):
    rng = np.random.default_rng(2024)
    x = np.round(rng.normal(0.0, 1.0, 25), 1)
    y = np.round(rng.normal(0.3, 1.0, 30), 1)
    groups = [np.round(rng.normal(0.2 * g, 1.0, 12 + g), 1) for g in range(3)]
    spec, samples, weights = {
        TWO_SAMPLE: ("power:2", [x, y], None),
        K_SAMPLE: ("poly:0,1,1", groups, WeightVector((0.2, 0.3, 0.5))),
        TAU: ("expsq:1", [x, y], None),
    }[kind]
    gen, sizes = parse_generator_spec(spec), tuple(len(s) for s in samples)
    table = run_test(kind, gen, samples, weights=weights, B=300, seed=11, convention=convention,
                     method="permutation").table
    # one chunk; row r of its label block assigns the sorted pooled values to groups
    assert _chunk_rows(sum(sizes)) >= 300
    pooled = np.sort(np.concatenate(samples))
    labels = _hand_labels(sizes, 11, 0, 300)
    w = None if weights is None else weights.weights
    expected = sorted(reference_statistic(kind, gen, [pooled[row == g] for g in range(len(sizes))],
                                          w, convention) for row in labels)
    assert list(table.replicates) == expected
    assert _table_digest(table.replicates) == PERMUTATION_DIGESTS[(kind, convention)]


def test_permutation_chunks_match_streams():
    # at 24 pooled values a chunk holds CHUNK rows; chunk c draws its label rows from stream (4, c)
    rng = np.random.default_rng(3)
    samples = [Sample(np.round(rng.normal(0.0, 1.0, 12), 1)) for _ in range(2)]
    gen, sizes = power_generator(2), (12, 12)
    table = run_test(TWO_SAMPLE, gen, samples, B=2 * CHUNK + 5, seed=4, convention=MID,
                     method="permutation").table
    ties = _tie_blocks(np.sort(np.concatenate([s.values for s in samples])))
    assert ties is not None
    values = np.concatenate([
        _rank_statistic(TWO_SAMPLE, gen, sizes, None, _hand_labels(sizes, 4, c, rows), ties, MID)
        for c, rows in enumerate((CHUNK, CHUNK, 5))])
    assert np.array_equal(table.replicates, np.sort(values - _centering(TWO_SAMPLE, gen, None)))


@pytest.mark.parametrize("kind, spec, sizes, weights", [
    (TWO_SAMPLE, "power:2", (5, 7), None),
    (K_SAMPLE, "poly:0,1,1", (3, 4, 5), WeightVector((0.2, 0.3, 0.5))),
    (TAU, "expsq:1", (6, 4), None),
])
def test_permutation_null_of_tie_free_data_is_the_simulated_table(kind, spec, sizes, weights):
    # both draw the same label rows; without ties the kernel sees the same input
    gen, B = parse_generator_spec(spec), 2 * CHUNK + 5
    pooled = np.random.default_rng(5).permutation(sum(sizes)).astype(float)
    samples = np.split(pooled, np.cumsum(sizes)[:-1])
    permuted = run_test(kind, gen, samples, weights=weights, B=B, seed=6, method="permutation").table
    simulated = simulate_null(kind, gen, sizes, B=B, seed=6, weights=weights)
    assert np.array_equal(permuted.replicates, simulated.replicates)


@pytest.mark.parametrize("path", ["observed", "simulation", "permutation", "enumeration"])
def test_non_finite_statistic_raises(path):
    huge = parse_generator_spec("poly:0,1e308")  # sums of h(1) = 1e308 overflow
    x, y = Sample([1.0, 2.0, 3.0]), Sample([4.0, 5.0, 6.0])
    build = {
        "observed": lambda: two_sample_statistic(huge, x, y),
        "simulation": lambda: simulate_null(TWO_SAMPLE, huge, (3, 3), B=99, seed=0),
        "permutation": lambda: run_test(TWO_SAMPLE, huge, [x, y], B=99, convention=MID,
                                        method="permutation"),
        "enumeration": lambda: enumerate_null(TWO_SAMPLE, huge, (3, 3)),
    }[path]
    with pytest.raises(NumericalError, match="non-finite"):
        build()


def _enumerated_tail(x, y):
    dist = enumerate_null(TWO_SAMPLE, power_generator(2), (len(x), len(y)))
    observed = two_sample_statistic(power_generator(2), Sample(x), Sample(y)).value
    return float(dist.probabilities[dist.values >= observed - 1e-12].sum())


def test_enumerated_tail_matches_scipy_exact_cvm_6_7():
    x = [-0.25, -0.28, 1.54, 1.12, 0.82, -0.84]
    y = [0.4, 0.43, -1.65, 0.29, 0.66, 0.55, 0.22]
    exact = sps.cramervonmises_2samp(x, y, method="exact").pvalue
    assert abs(exact - 0.311771561771) < 1e-12
    assert abs(_enumerated_tail(x, y) - exact) < 1e-12


def test_enumerated_tail_matches_scipy_exact_cvm_8_8():
    rng = np.random.default_rng(8)
    x, y = rng.normal(0.0, 1.0, 8), rng.normal(0.5, 1.0, 8)
    exact = sps.cramervonmises_2samp(x, y, method="exact").pvalue
    assert abs(_enumerated_tail(x, y) - exact) < 1e-12


# Tables whose counts the small property cases above never reach: sizes past
# one chunk, wide bit fields, and a 7-group k-sample whose 10-bit fields (its
# group of 600) fill two packed words.  Digests computed by the per-group
# prefix-sum kernel that the packed and two-group count paths replaced.
SEVEN_GROUPS = (600, 3, 8, 1, 20, 5, 12)


@pytest.mark.parametrize("kind, spec, sizes, weights, B, seed, digest", [
    (TWO_SAMPLE, "power:2", (1000, 1000), None, 2048, 31,
     "b40b3b7bc1ceaac2c5b652d62eb8cc7c50506c22483384a241bd4f90678ef682"),
    (TAU, "expsq:1", (300, 200), None, 1500, 32,
     "581e7554efc68107f975d1c049bc092af6b772da99484eb7ff1defc3e504dd5d"),
    (K_SAMPLE, "poly:0,1,1", (250, 250, 250, 250), (0.1, 0.2, 0.3, 0.4), 1100, 33,
     "f4eeff0652724e368e3b9d789444a599d0057e6c0086754ed66da69a69119bfe"),
    (K_SAMPLE, "power:2", SEVEN_GROUPS, None, 1100, 34,
     "29b1cac041930fe9163354a981129f413e1912e0e46deab3866a2daa8543515e"),
], ids=["two_sample_1000x1000", "tau_300x200", "k_sample_4x250", "k_sample_7_groups"])
def test_large_table_digests(kind, spec, sizes, weights, B, seed, digest):
    assert B > _chunk_rows(sum(sizes))  # at least two chunks
    table = simulate_null(kind, parse_generator_spec(spec), sizes, B=B, seed=seed,
                          weights=None if weights is None else WeightVector(weights))
    assert _table_digest(table.replicates) == digest


@pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "tied"])
@pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
def test_two_packed_words_match_reference(tied, convention):
    gen, sizes = power_generator(2), SEVEN_GROUPS
    weights = WeightVector(tuple(s / sum(sizes) for s in sizes))
    pooled = np.sort(np.random.default_rng(12).normal(0.0, 1.0, sum(sizes)))
    if tied:
        pooled = np.round(pooled, 1)
    labels = _hand_labels(sizes, 13, 0, 3)
    got = _rank_statistic(K_SAMPLE, gen, sizes, weights, labels, _tie_blocks(pooled), convention)
    expected = [reference_statistic(K_SAMPLE, gen, [pooled[row == g] for g in range(len(sizes))],
                                    weights.weights, convention) for row in labels]
    assert list(got - _centering(K_SAMPLE, gen, weights)) == expected


@pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
@pytest.mark.parametrize("kind, spec", [(TWO_SAMPLE, "power:2"), (TAU, "expsq:1"),
                                        (K_SAMPLE, "poly:0,1,1")])
def test_tie_free_counts_equal_singleton_tie_blocks(kind, spec, convention):
    # the two-group path (column minus own index) against the packed path, which
    # any ``ties`` selects; singleton blocks describe the same tie-free rows, on
    # which ``mid`` gives the right-continuous floats (k_sample has no two-group path)
    gen = parse_generator_spec(spec)
    sizes, weights = (((300, 400, 500), WeightVector((0.2, 0.3, 0.5))) if kind == K_SAMPLE
                      else ((1000, 1000), None))
    labels = _hand_labels(sizes, 14, 0, _chunk_rows(sum(sizes)))
    lo = np.arange(sum(sizes))
    tie_free = _rank_statistic(kind, gen, sizes, weights, labels, None, convention)
    singleton = _rank_statistic(kind, gen, sizes, weights, labels, (lo, lo + 1), convention)
    assert np.array_equal(tie_free, singleton)
    right = _rank_statistic(kind, gen, sizes, weights, labels, None, RIGHT_CONTINUOUS)
    assert np.array_equal(tie_free, right)
