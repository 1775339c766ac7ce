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
    simulate_null,
    two_sample_statistic,
)
from convexgof.nulldist import CHUNK, _chunk_rows, _permutation_null, replicate_stream
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


# sha256 digests of enumerated pmfs, computed by the per-replicate
# observed-data statistic path that the kernel replaced; the kernel must
# reproduce them.  Permutation digests pin the (seed, chunk) stream contract.

def _table_digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _pmf_digest(dist):
    h = hashlib.sha256(np.ascontiguousarray(dist.values, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(dist.probabilities, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, spec, sizes, digest", [
    (TWO_SAMPLE, "power:2", (8, 8), "d53bf49f28c304d9e209e6903a2e184d188c6fb13ad31e1cf8d16d6d2fb28161"),
    (TAU, "expsq:1", (7, 7), "ad1f0728813f94574b929df309b6a0d9433bbcbd403aa381275be4de73793002"),
    (K_SAMPLE, "poly:0,1,1", (3, 3, 3), "3d34399e4bb8a8675bd4bccca8bed7554e986840e906bf5a3b5846e488b162a6"),
    (K_SAMPLE, "power:3", (2, 3, 2, 2), "ff37bb3ff810a203faa718c4b54178d4d550c6ad975a2bc11f845830e583407e"),
    (TWO_SAMPLE, "power:2", (10, 10), "c88dd7269f1827afe355a45548d98d39f01f580e6f5acfb3fc98bd7edfb4d816"),
])
def test_enumerated_pmf_digests(kind, spec, sizes, digest):
    assert _pmf_digest(enumerate_null(kind, parse_generator_spec(spec), sizes)) == digest


PERMUTATION_DIGESTS = {
    (TWO_SAMPLE, RIGHT_CONTINUOUS): "08655d7f51d2073c0071b2f15305e00b3015192448bc3cda32eb6c0050e6afbd",
    (K_SAMPLE, RIGHT_CONTINUOUS): "30bcbe3f4f57c124365b4702ee699b086c883dd97bc07cef4352abbf9e8af74e",
    (TAU, RIGHT_CONTINUOUS): "0ca1038ea2dd828737ea540aaeddcd6f40169ae1d82fba6a3bacee57347639ec",
    (TWO_SAMPLE, MID): "dadadd89278c55930d3ebaf05f57564bb2d93f4de1042f7bdd082dbc238957cf",
    (K_SAMPLE, MID): "731ac58f25bad77f3910d1ba26cc11b07e73eaaa4096eeffc5ddccd38c6eab51",
    (TAU, MID): "6e4ef265e38910abfc8af0941753d11b4bcc4101bf5cbc369afb3b3019cf18e5",
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
    table = _permutation_null(kind, gen, [Sample(s) for s in samples], weights, 300, 11, convention)
    # one chunk; row r of its shuffled label matrix assigns the sorted pooled values to groups
    assert _chunk_rows(sum(sizes)) >= 300
    pooled = np.sort(np.concatenate(samples))
    labels = replicate_stream(11, 0).permuted(np.tile(_group_labels(sizes), (300, 1)), axis=1)
    w = None if weights is None else weights.weights
    expected = sorted(reference_statistic(kind, gen, [pooled[row == g] for g in range(len(sizes))],
                                          w, convention) for row in labels)
    assert list(table.replicates) == expected
    assert _table_digest(table.replicates) == PERMUTATION_DIGESTS[(kind, convention)]


def test_permutation_chunks_match_streams():
    # at 24 pooled values a chunk holds CHUNK rows; chunk c shuffles its label rows with stream (4, c)
    rng = np.random.default_rng(3)
    samples = [Sample(np.round(rng.normal(0.0, 1.0, 12), 1)) for _ in range(2)]
    gen, sizes = power_generator(2), (12, 12)
    table = _permutation_null(TWO_SAMPLE, gen, samples, None, 2 * CHUNK + 5, 4, MID)
    ties = _tie_blocks(np.sort(np.concatenate([s.values for s in samples])))
    assert ties is not None
    values = np.concatenate([
        _rank_statistic(TWO_SAMPLE, gen, sizes, None, replicate_stream(4, c).permuted(
            np.tile(_group_labels(sizes), (rows, 1)), axis=1), ties, MID)
        for c, rows in enumerate((CHUNK, CHUNK, 5))])
    assert np.array_equal(table.replicates, np.sort(values - _centering(TWO_SAMPLE, gen, None)))


@pytest.mark.parametrize("path", ["observed", "simulation", "permutation", "enumeration"])
def test_non_finite_statistic_raises(path):
    huge = parse_generator_spec("poly:0,1e308")  # sums of h(1) = 1e308 overflow
    x, y = Sample([1.0, 2.0, 3.0]), Sample([4.0, 5.0, 6.0])
    build = {
        "observed": lambda: two_sample_statistic(huge, x, y),
        "simulation": lambda: simulate_null(TWO_SAMPLE, huge, (3, 3), B=99, seed=0),
        "permutation": lambda: _permutation_null(TWO_SAMPLE, huge, [x, y], None, 99, 0, MID),
        "enumeration": lambda: enumerate_null(TWO_SAMPLE, huge, (3, 3)),
    }[path]
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
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
