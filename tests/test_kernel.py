"""The count-indexed statistic kernel shared by observed data, simulation, permutation and enumeration."""

import hashlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
from convexgof import nulldist, oracle, statistics
from convexgof.nulldist import CHUNK, CHUNK_ELEMENTS, _chunk_rows, _label_blocks, replicate_stream
from convexgof.statistics import (_SCRATCH, _centering, _check_kind_and_generator, _group_labels, _offsets,
                                  _rank_statistic, _tie_lengths)
from convexgof.oracle import _label_units

from oracle_helpers import LIBM_KERNELS, hand_keys, label_batches, reference_statistic

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
    got = _rank_statistic(gen, sizes, weights, np.array(labels),
                          _tie_lengths(pooled[order]), convention) - _centering(gen, weights)
    assert list(got) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((-2.5, -0.0, 0.0, 1.0, 3.0)), min_size=1, max_size=30))
def test_tie_lengths_are_the_unique_counts(values):
    # drawn from a few levels, -0.0 and 0.0 among them, which compare equal and so share a block
    v = np.sort(np.array(values))
    counts = np.unique(v, return_counts=True)[1]
    lengths = _tie_lengths(v)
    if np.all(counts == 1):
        assert lengths is None
    else:
        assert lengths.dtype == np.intp and list(lengths) == list(counts)


@pytest.mark.parametrize("values, lengths", [
    ([-0.0, 0.0], [2]),  # signed zeros are one block
    ([0.0, -0.0, 0.0, 1.0], [3, 1]),
    ([4.0] * 5, [5]),  # one block of every value
    ([1.0, 1.0, 2.0, 5.0, 7.0, 7.0, 7.0], [2, 1, 1, 3]),  # tied blocks at both ends
    ([1.0, 2.0, 2.0, 2.0, 5.0, 7.0, 7.0], [1, 3, 1, 2]),
    ([1.0, 2.0, 3.0], None),
    ([3.0], None),  # N = 1
])
def test_tie_lengths_edge_cases(values, lengths):
    got = _tie_lengths(np.array(values))
    assert (got if got is None else list(got)) == lengths


@pytest.mark.parametrize("sizes", [(3, 4), (2, 2, 3), (1, 1, 4, 7)])
def test_label_batches_cover_every_assignment_once(sizes):
    batches = [unit() for unit in _label_units(sizes)]
    assert all(b.size <= CHUNK_ELEMENTS for b in batches)
    rows = np.concatenate(batches)
    expected = math.prod(math.comb(sum(sizes[g:]), s) for g, s in enumerate(sizes))
    assert len(np.unique(rows, axis=0)) == len(rows) == expected
    assert all(np.array_equal(np.bincount(row, minlength=len(sizes)), sizes) for row in rows[:50])


@pytest.mark.parametrize("sizes", [(3, 4), (2, 2, 3), (1, 1, 4, 7), (1, 9), (9, 1), (8, 8), (1, 1, 6, 6), (2, 300)])
def test_label_units_equal_the_itertools_batches(sizes):
    # a unit holds at most CHUNK_ELEMENTS // N rows: every case but (1, 1, 6, 6), whose 12012 rows of the
    # other groups make one unit per first-group set, and (2, 300), 53 units of 868 rows, is one unit
    rows = max(1, CHUNK_ELEMENTS // sum(sizes))
    reference, units = list(label_batches(sizes, rows)), [unit() for unit in _label_units(sizes)]
    assert all(len(unit) <= rows for unit in units)
    expected, got = np.concatenate(reference), np.concatenate(units)
    assert got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert [(u.shape, u.tobytes()) for u in units] == [(b.shape, b.tobytes()) for b in reference]


@pytest.mark.parametrize("sizes, rows", [((1, 1, 6, 6), 1024), ((2, 2, 3), 5), ((9, 1), 1)])
def test_label_units_split_the_rows_like_the_itertools_batches(sizes, rows, monkeypatch):
    # a smaller label bound: one first-group set's 12012 rows of the other groups span 12 units of at
    # most 1024 rows, (2, 2, 3)'s 10 such rows two units of 5, and (9, 1)'s sets are one row each
    monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", rows * sum(sizes))
    reference, units = list(label_batches(sizes, rows)), [unit() for unit in _label_units(sizes)]
    assert len(units) > 1 and all(len(unit) <= rows for unit in units)
    assert [(u.shape, u.tobytes()) for u in units] == [(b.shape, b.tobytes()) for b in reference]


@pytest.mark.parametrize("sizes, rows", [((8, 8), None), ((10, 10), None), ((4, 4), 7)])
def test_label_unit_prefixes_equal_the_first_itertools_rows(sizes, rows, monkeypatch):
    # the first C(N - 1, n - 1) rank sets, those holding rank 0, which enumerate_null scores at equal sizes:
    # (8, 8)'s 6435 rows are one unit, (10, 10)'s 92378 eight, and (4, 4)'s 35 five of at most 7 rows
    if rows is not None:
        monkeypatch.setattr(oracle, "CHUNK_ELEMENTS", rows * sum(sizes))
    rows = max(1, oracle.CHUNK_ELEMENTS // sum(sizes))
    stop = math.comb(sum(sizes) - 1, sizes[0] - 1)
    reference, units = np.concatenate(list(label_batches(sizes, rows))), [unit() for unit in _label_units(sizes, stop)]
    assert len(units) == -(-stop // rows) and all(len(unit) <= rows for unit in units)
    expected, got = reference[:stop], np.concatenate(units)
    assert got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert np.all(reference[:stop, 0] == 0) and np.all(reference[stop:, 0] == 1)


def test_enumeration_units_are_sized_by_labels():
    # no RNG stream fixes an enumeration unit's length, as one does a Monte Carlo chunk's CHUNK rows, so
    # a unit holds CHUNK_ELEMENTS // N rows: (8, 8) and (3, 3, 3) are one unit each, (10, 10) fifteen
    assert [unit().shape for unit in _label_units((8, 8))] == [(12870, 16)]
    assert [unit().shape for unit in _label_units((3, 3, 3))] == [(1680, 9)]
    assert [unit().shape for unit in _label_units((10, 10))] == [(13107, 20)] * 14 + [(1258, 20)]


@pytest.mark.parametrize("kind, spec, sizes, bound_mib", [
    (TWO_SAMPLE, "power:2", (1, 3000), 25),
    (K_SAMPLE, "poly:0,1,1", (1, 1, 600), 80),
    (TWO_SAMPLE, "power:2", (10, 10), 8),
])
def test_wide_enumerations_have_bounded_memory(kind, spec, sizes, bound_mib, monkeypatch):
    # at N > 256 the calling thread and each pool thread build and score one unit of at most 2**18 labels
    # at a time; with two pool threads beside the calling thread these peak at 13.7 and 48.6 MiB, against
    # 96 and 244 MiB when every label row was built up front; (10, 10) scores the 92378 rows holding rank 0,
    # 8 units of up to 13107 rows, on the calling thread alone and peaks at 4.4 MiB, of which its values take
    # 0.7 MiB per copy
    gen = parse_generator_spec(spec)
    _SCRATCH.__dict__.clear()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: pool)
        tracemalloc.start()
        try:
            dist = enumerate_null(kind, gen, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert round(dist.probabilities.sum() * dist.configurations) == dist.configurations
    assert peak < bound_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind, spec, sizes, weights, scored", [
    (TWO_SAMPLE, "power:2", (1, 1), None, 1),
    (TWO_SAMPLE, "power:2", (6, 6), None, 462),
    (TAU, "expsq:1", (5, 5), None, 126),
    (K_SAMPLE, "poly:0,1,1", (4, 4), (0.3, 0.7), 35),
    (TWO_SAMPLE, "power:2", (6, 7), None, 1716),
    (K_SAMPLE, "poly:0,1,1", (3, 3, 3), None, 1680),
])
def test_equal_two_group_enumerations_score_the_rows_holding_rank_0(kind, spec, sizes, weights, scored, monkeypatch):
    # a row and its label swap score the same bit for bit at two equal sizes, so C(N - 1, n - 1) rows are
    # scored and each counted twice; unequal sizes and three groups score every one of the configurations
    gen = parse_generator_spec(spec)
    weights = _check_kind_and_generator(kind, gen, sizes, None if weights is None else WeightVector(weights))[1]
    rows = []

    def counting(generator, sizes, weights, units, *tie_pattern):
        rows.append(sum(len(unit()) for unit in units))
        return nulldist._table_values(generator, sizes, weights, units, *tie_pattern)

    monkeypatch.setattr(oracle, "_table_values", counting)
    dist = enumerate_null(kind, gen, sizes, weights)
    labels = np.concatenate(list(label_batches(sizes, 1024)))
    values, counts = np.unique(_rank_statistic(gen, sizes, weights, labels) - _centering(gen, weights),
                               return_counts=True)
    assert rows == [scored] and len(labels) == dist.configurations
    assert dist.values.tobytes() == values.tobytes()
    assert dist.probabilities.tobytes() == (counts / len(labels)).tobytes()


@pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
@pytest.mark.parametrize("kind, spec", [(TWO_SAMPLE, "power:2"), (TAU, "expsq:1"), (K_SAMPLE, "poly:0,1,1"),
                                        (TWO_SAMPLE, "bernstein:power:2:8")])
def test_equal_size_halving_holds_with_ties(kind, spec, convention):
    # tie blocks belong to positions, not groups, so a label swap still scores the same bit for bit:
    # the halved pmf is the one scored from every interleaving
    gen, sizes = parse_generator_spec(spec), (6, 6)
    weights = _check_kind_and_generator(kind, gen, sizes, None)[1]
    for ties in ((3, 1, 2, 1, 1, 4), (2,) * 6, (12,), (1,) * 10 + (2,), (5, 1, 1, 5)):
        dist = enumerate_null(kind, gen, sizes, ties=ties, convention=convention)
        lengths = nulldist._tie_pattern(ties, 12, convention)[0]
        values, counts = np.unique(nulldist._table_values(gen, sizes, weights, _label_units(sizes), lengths, convention),
                                   return_counts=True)
        assert dist.values.tobytes() == values.tobytes()
        assert dist.probabilities.tobytes() == (counts / dist.configurations).tobytes()


def _hand_labels(sizes, seed, chunk, rows):
    """Chunk ``chunk``'s label rows drawn by hand: argsorted keys from its stream."""
    return _group_labels(sizes)[np.argsort(hand_keys(sizes, seed, chunk, rows)[0], axis=1)]


# sha256 digests of enumerated pmfs, computed by the per-replicate
# observed-data statistic path that the kernel replaced; the kernel must
# reproduce them.  The tau pmf digest is that of the tanh-sinh Xi(i/n) grid,
# a few ulps from the earlier per-panel QUADPACK grid.  Permutation digests
# pin the (seed, chunk) stream contract of table format 4, which format 5
# keeps at N <= 256.

# the digests that differ under numpy's libm kernels (see oracle_helpers.LIBM_KERNELS), by their AVX-512 digest
LIBM_DIGESTS = {
    "014781949b218002a22bf9a63de631a563cef6bb8ade841cf230b913cea247f9":  # tau expsq:1 pmf at 7/7
        "bc6c8daf68d7bd2dfc3e6f34043f16152aa31ca9a0bdd5d5c4a03f3a7b4d9128",
    "dda4c2df7cf63393cd72d5e230240b01dc341aadd86fa145b70a12a31e43ea69":  # tau permutation, mid
        "99ea52d0dd2f302e26b44cddda78e6db44112206beb6883e3394b1431a0f7abb",
    "1e9317ffe8c3a2ec6412752bda27c45e8cfbcf0ad9877e12d440a3594f99fccf":  # tau permutation, right-continuous
        "35d68d900acacd80a0fae846440c19d7fa5905a165452efa830c9599ce36d091",
    "761ae3ea6e53198638e24c6f9184924f25ae2d4d4fcba83164b0a890faf63f51":  # tau 300x200 table
        "b17c1eb2a7dac9000980c4d3fc2f01850874731e9dfa63f20d438c6c008bdad3",
}


def _pinned(digest):
    return LIBM_DIGESTS.get(digest, digest) if LIBM_KERNELS else digest


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
    assert _pmf_digest(enumerate_null(kind, parse_generator_spec(spec), sizes)) == _pinned(digest)


PERMUTATION_DIGESTS = {
    (TWO_SAMPLE, RIGHT_CONTINUOUS): "8fe824284f528f66c9e9925cb3f1dec901dd12b73b40068c5aa7549891b92fdd",
    (K_SAMPLE, RIGHT_CONTINUOUS): "558001df75917ae8a57be09ec7d873e61dce7f766c24895bfe5919a8d60474d7",
    (TAU, RIGHT_CONTINUOUS): "1e9317ffe8c3a2ec6412752bda27c45e8cfbcf0ad9877e12d440a3594f99fccf",
    (TWO_SAMPLE, MID): "3db08c89a788776d46763af848ce7c74aa3f7c6878a2eac141c34019ebf1f637",
    (K_SAMPLE, MID): "40cf85b9bac259ce362712576dad09a3bd151ba35e0c3a5916c8b5eadb29712a",
    (TAU, MID): "dda4c2df7cf63393cd72d5e230240b01dc341aadd86fa145b70a12a31e43ea69",
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
    table = run_test(kind, gen, samples, weights=weights, B=300, seed=11, convention=convention).table
    # one chunk; row r of its label block assigns the sorted pooled values to groups
    assert _chunk_rows(sum(sizes)) >= 300
    pooled = np.sort(np.concatenate(samples))
    labels = _hand_labels(sizes, 11, 0, 300)
    w = None if weights is None else weights.weights
    expected = sorted(reference_statistic(kind, gen, [pooled[row == g] for g in range(len(sizes))],
                                          w, convention) for row in labels)
    assert list(table.replicates) == expected
    assert _table_digest(table.replicates) == _pinned(PERMUTATION_DIGESTS[(kind, convention)])


def test_permutation_chunks_match_streams():
    # at 24 pooled values a chunk holds CHUNK rows; chunk c draws its label rows from stream (4, c)
    rng = np.random.default_rng(3)
    samples = [Sample(np.round(rng.normal(0.0, 1.0, 12), 1)) for _ in range(2)]
    gen, sizes = power_generator(2), (12, 12)
    table = run_test(TWO_SAMPLE, gen, samples, B=2 * CHUNK + 5, seed=4, convention=MID).table
    ties = _tie_lengths(np.sort(np.concatenate([s.values for s in samples])))
    assert ties is not None
    values = np.concatenate([
        _rank_statistic(gen, sizes, None, _hand_labels(sizes, 4, c, rows), ties, MID)
        for c, rows in enumerate((CHUNK, CHUNK, 5))])
    assert np.array_equal(table.replicates, np.sort(values - _centering(gen, None)))


@pytest.mark.parametrize("sizes, B, width", [
    ((3, 5, 7), CHUNK + 7, 32),  # two chunks, 2 tag bits
    ((1,) * 300, 40, 32),  # uint16 labels, 9 tag bits
    ((1,) * 2100, 3, 64),  # 12 tag bits: 2100**2 > 2**16
    ((5793, 5793), 2, 64),  # the smallest two-group N past 32-bit keys: 11586**2 > 2**27
], ids=["3x5x7", "300x1", "2100x1", "5793x5793"])
def test_label_blocks_match_argsorted_streams(sizes, B, width):
    # the tagged in-place key sort gives the labels of argsorting the keys drawn by
    # hand, and the transform= reference path argsorts the same keys' uniforms
    rows, calls = _chunk_rows(sum(sizes)), []
    assert hand_keys(sizes, 8, 0, 1)[1] == width - max(1, (len(sizes) - 1).bit_length())
    blocks = [unit() for unit in _label_blocks(sizes, B, 8)]
    reference = [unit() for unit in _label_blocks(sizes, B, 8, transform=lambda u: calls.append(u.shape) or u)]
    assert [len(b) for b in blocks] == [min(rows, B - start) for start in range(0, B, rows)]
    assert calls == [b.shape for b in blocks]  # one transform call per chunk
    for c, labels in enumerate(blocks):
        expected = _hand_labels(sizes, 8, c, len(labels))
        assert labels.dtype == expected.dtype == reference[c].dtype
        assert np.array_equal(labels, expected)
        assert np.array_equal(reference[c], expected)


def test_tied_rows_are_redrawn_in_row_order():
    # chunk 0 of seed 20 at 1000/1000, its 131 rows: rows 10 and 68 of the first draw
    # each hold two keys equal in their 31 untagged bits, so the continuation's next
    # 2000 keys replace row 10 and the 2000 after them row 68
    sizes, tag, N = (1000, 1000), 1, 2000
    rows = _chunk_rows(N)
    bits = np.random.SFC64(np.random.SeedSequence([20, 0]))
    words = bits.random_raw(rows * N // 2 + N)
    keys = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel() >> tag
    first, fresh = keys[:rows * N].reshape(rows, N), keys[rows * N:].reshape(2, N)
    ordered = np.sort(first, axis=1)
    assert list(np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))) == [10, 68]
    assert all(len(np.unique(row)) == N for row in fresh)
    first[[10, 68]] = fresh
    expected = _group_labels(sizes)[np.argsort(first, axis=1)]
    labels = _label_blocks(sizes, rows, 20)[0]()
    assert np.array_equal(labels, expected)
    assert np.array_equal(next(iter(_label_blocks(sizes, rows, 20, transform=np.log)))(), expected)


def _configuration_counts(sizes, B, seed):
    labels = np.concatenate([unit() for unit in _label_blocks(sizes, B, seed)])
    _, counts = np.unique(labels, axis=0, return_counts=True)
    return counts


@pytest.mark.parametrize("sizes", [(3, 3), (2, 2, 2)])
def test_label_law_is_uniform(sizes):
    # chi-squared over every assignment of the pooled ranks to the groups
    configurations = math.factorial(sum(sizes)) // math.prod(math.factorial(s) for s in sizes)
    B = 500 * configurations
    counts = _configuration_counts(sizes, B, 21)
    assert counts.size == configurations
    assert sps.chisquare(counts).pvalue > 0.001


class _CoarseWords:
    """A bit generator whose raw words keep the low 4 bits of each 32-bit half."""

    def __init__(self, seed, index):
        self.bit_generator = self
        self._words = replicate_stream(seed, index).bit_generator

    def random_raw(self, size):
        return self._words.random_raw(size) & np.uint64(0x0000000F0000000F)


def test_redraw_keeps_the_law_uniform_when_ties_are_common(monkeypatch):
    # two groups take 1 tag bit, so a key keeps 3 untagged bits: most rows of 6 keys are
    # tied and redrawn, some many times; breaking those ties by group would bias the law
    import convexgof.nulldist as nulldist

    monkeypatch.setattr(nulldist, "replicate_stream", _CoarseWords)
    counts = _configuration_counts((3, 3), 10000, 22)
    assert counts.size == 20
    assert sps.chisquare(counts).pvalue > 0.001


def _format_3_table(gen, sizes, B, seed):
    """The table of format 3: chunk c argsorts uniforms from Philox keyed by (seed, c)."""
    rows = _chunk_rows(sum(sizes))
    raw = [_rank_statistic(gen, sizes, None, _group_labels(sizes)[np.argsort(
        np.random.Generator(np.random.Philox(key=[seed, c])).random((min(rows, B - start), sum(sizes))),
        axis=1)]) for c, start in enumerate(range(0, B, rows))]
    return np.sort(np.concatenate(raw) - _centering(gen, None))


@pytest.mark.parametrize("sizes, B", [((100, 100), 9999), ((1000, 1000), 3000)])
def test_tables_follow_the_format_3_law(sizes, B):
    # a different draw of the same law: two-sample KS between equal-B tables
    gen = power_generator(2)
    table = simulate_null(TWO_SAMPLE, gen, sizes, B=B, seed=41)
    old = _format_3_table(gen, sizes, B, 41)
    assert not np.array_equal(table.replicates, old)
    assert sps.ks_2samp(table.replicates, old).pvalue > 0.001


@pytest.mark.parametrize("kind, spec, sizes, weights", [
    (TWO_SAMPLE, "power:2", (5, 7), None),
    (K_SAMPLE, "poly:0,1,1", (3, 4, 5), WeightVector((0.2, 0.3, 0.5))),
    (TAU, "expsq:1", (6, 4), None),
])
def test_permutation_null_of_tie_free_data_is_the_simulated_table(kind, spec, sizes, weights):
    # tie blocks of one (or none) under either convention: the kernel sees the simulated table's input,
    # and the table keeps the tie-free identity, so its cache key and file are the simulated table's
    gen, B = parse_generator_spec(spec), 2 * CHUNK + 5
    pooled = np.random.default_rng(5).permutation(sum(sizes)).astype(float)
    samples = np.split(pooled, np.cumsum(sizes)[:-1])
    simulated = simulate_null(kind, gen, sizes, B=B, seed=6, weights=weights)
    for convention in (RIGHT_CONTINUOUS, MID):
        for table in (run_test(kind, gen, samples, weights=weights, B=B, seed=6, convention=convention).table,
                      simulate_null(kind, gen, sizes, B=B, seed=6, weights=weights, convention=convention),
                      simulate_null(kind, gen, sizes, B=B, seed=6, weights=weights, ties=[1] * sum(sizes),
                                    convention=convention)):
            assert table.replicates.tobytes() == simulated.replicates.tobytes()
            assert table.ties is None and table.identity == simulated.identity


@pytest.mark.parametrize("path", ["observed", "simulation", "permutation", "enumeration", "slabs"])
def test_non_finite_statistic_raises(path):
    huge = parse_generator_spec("poly:0,1e308")  # sums of h(1) = 1e308 overflow
    x, y = Sample([1.0, 2.0, 3.0]), Sample([4.0, 5.0, 6.0])
    build = {
        "observed": lambda: two_sample_statistic(huge, x, y),
        "simulation": lambda: simulate_null(TWO_SAMPLE, huge, (3, 3), B=99, seed=0),
        "permutation": lambda: simulate_null(TWO_SAMPLE, huge, (3, 3), B=99, seed=0, ties=(2, 1, 3),
                                             convention=MID),
        "enumeration": lambda: enumerate_null(TWO_SAMPLE, huge, (3, 3)),
        "slabs": lambda: simulate_null(TWO_SAMPLE, huge, (150, 150), B=2 * CHUNK + 5, seed=0),
    }[path]
    with pytest.raises(NumericalError, match="non-finite"):
        build()
    if path == "slabs":  # several units of CHUNK_ELEMENTS draws; the failed table leaves nothing behind
        assert _chunk_rows(300) < CHUNK
        table = simulate_null(TWO_SAMPLE, power_generator(2), (150, 150), B=2 * CHUNK + 5, seed=0)
        assert table.B == 2 * CHUNK + 5 and np.all(np.isfinite(table.replicates))


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
# group of 600) fill two packed words.  Under table format 3 these digests
# were computed by the per-group prefix-sum kernel that the packed and
# two-group count paths replaced; format 4 re-pinned them for its label draw,
# and format 5 for its 2**18-draw chunks (the format-4 code with that chunk
# size gives the same digests).
SEVEN_GROUPS = (600, 3, 8, 1, 20, 5, 12)


@pytest.mark.parametrize("kind, spec, sizes, weights, B, seed, digest", [
    (TWO_SAMPLE, "power:2", (1000, 1000), None, 2048, 31,
     "1a2036924231fd07f8c2a1ad09cd987f50641d9773850ce48b4207c4448e4686"),
    (TAU, "expsq:1", (300, 200), None, 1500, 32,
     "761ae3ea6e53198638e24c6f9184924f25ae2d4d4fcba83164b0a890faf63f51"),
    (K_SAMPLE, "poly:0,1,1", (250, 250, 250, 250), (0.1, 0.2, 0.3, 0.4), 1100, 33,
     "3395de144d97b638f87702527eb323847099c9f9b97666116c99226998618b20"),
    (K_SAMPLE, "power:2", SEVEN_GROUPS, None, 1100, 34,
     "9933c321a30b4325e01f4f0200645d383db9f3a8cf79fa053a0a4b2717e79d00"),
], ids=["two_sample_1000x1000", "tau_300x200", "k_sample_4x250", "k_sample_7_groups"])
def test_large_table_digests(kind, spec, sizes, weights, B, seed, digest):
    assert B > _chunk_rows(sum(sizes))  # at least two chunks
    table = simulate_null(kind, parse_generator_spec(spec), sizes, B=B, seed=seed,
                          weights=None if weights is None else WeightVector(weights))
    assert _table_digest(table.replicates) == _pinned(digest)


def _null_arrays(case):
    """The float64 arrays a case's null carries: table replicates, or pmf values and probabilities."""
    method, kind, spec, sizes, weights = case
    gen = parse_generator_spec(spec)
    weights = None if weights is None else WeightVector(weights)
    if method == "enumeration":
        dist = enumerate_null(kind, gen, sizes, weights)
        return dist.values, dist.probabilities
    if method == "simulation":
        return (simulate_null(kind, gen, sizes, B=2 * CHUNK + 5, seed=51, weights=weights).replicates,)
    rng = np.random.default_rng(52)  # tied data: values on a grid of 0.1
    samples = [np.round(rng.normal(0.0, 1.0, n), 1) for n in sizes]
    return (run_test(kind, gen, samples, weights=weights, B=2 * CHUNK + 5, seed=53,
                     convention=MID).table.replicates,)


@pytest.mark.parametrize("case", [
    ("simulation", TWO_SAMPLE, "power:2", (150, 150), None),
    ("simulation", K_SAMPLE, "poly:0,1,1", (80, 80, 80, 80), (0.1, 0.2, 0.3, 0.4)),
    ("simulation", TAU, "expsq:1", (150, 150), None),
    ("permutation", TWO_SAMPLE, "power:2", (150, 150), None),
    ("permutation", K_SAMPLE, "poly:0,1,1", (80, 80, 80, 80), (0.1, 0.2, 0.3, 0.4)),
    ("permutation", TAU, "expsq:1", (150, 150), None),
    ("enumeration", K_SAMPLE, "poly:0,1,1", (3, 3, 3), None),
    ("enumeration", TWO_SAMPLE, "power:2", (2, 300), None),
], ids=lambda case: "-".join(case[:2]))
def test_slabs_are_bit_identical(case, monkeypatch):
    # work units (format 4's 2**18-draw slabs, now whole chunks) give the same null on the
    # default pool, on no pool, on a forced two-thread pool, and on two threads that switch
    # every microsecond; each thread reuses its own scratch arrays
    method, _, _, sizes, _ = case
    assert method == "enumeration" or _chunk_rows(sum(sizes)) < CHUNK
    default = _null_arrays(case)
    monkeypatch.setattr(nulldist, "_unit_pool", lambda: None)
    alone = _null_arrays(case)
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(nulldist, "_unit_pool", lambda: pool)
        pooled = _null_arrays(case)
        sys.setswitchinterval(1e-6)
        try:
            switching = _null_arrays(case)
        finally:
            sys.setswitchinterval(interval)
    for arrays in (default, pooled, switching):
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in alone]


@pytest.mark.parametrize("case", [
    ("simulation", TWO_SAMPLE, "power:2", (128, 128), None),
    ("permutation", TAU, "expsq:1", (128, 128), None),
    ("enumeration", K_SAMPLE, "poly:0,1,1", (3, 3, 3), None),
], ids=lambda case: case[0])
def test_uncapped_units_never_ask_for_the_pool(case, monkeypatch):
    # at N <= 256 every Monte Carlo chunk holds CHUNK rows, and such a table, or an enumeration, runs on
    # the calling thread alone
    def no_pool():
        raise AssertionError("a table at N <= 256 asked for the unit pool")

    assert _chunk_rows(sum(case[3])) == CHUNK
    monkeypatch.setattr(nulldist, "_unit_pool", no_pool)
    _null_arrays(case)


@pytest.mark.parametrize("kind, spec, sizes, weights", [
    (TWO_SAMPLE, "power:2", (150, 150), None),
    (K_SAMPLE, "poly:0,1,1", (80, 80, 80, 80), WeightVector((0.1, 0.2, 0.3, 0.4))),
    (TAU, "expsq:1", (150, 150), None),
])
def test_results_never_alias_the_scratch(kind, spec, sizes, weights):
    # two units and two kernel calls on one thread: each result owns its memory, shares none
    # with the thread's scratch arrays or the shared offset memo, and keeps its values when the
    # next call reuses them
    gen = parse_generator_spec(spec)
    first_unit, second_unit = _label_blocks(sizes, 2 * _chunk_rows(sum(sizes)), 17)
    labels = first_unit()
    kept = labels.copy()
    others = second_unit()
    assert not np.shares_memory(labels, others) and np.array_equal(labels, kept)
    first = _rank_statistic(gen, sizes, weights, labels)
    kept = first.copy()
    second = _rank_statistic(gen, sizes, weights, others)
    assert not np.shares_memory(first, second) and np.array_equal(first, kept)
    buffers, offsets = list(_SCRATCH.__dict__.values()), list(statistics._OFFSETS.values())
    assert buffers and offsets
    for result in (labels, others, first, second):
        assert not any(np.shares_memory(result, buffer) for buffer in buffers + offsets)


def test_offsets_are_read_only_prefixes_dropped_least_recently_used_first(monkeypatch):
    monkeypatch.setattr(statistics, "_OFFSET_ELEMENTS", 100)
    monkeypatch.setattr(statistics, "_OFFSETS", {})
    memo = statistics._OFFSETS
    wide = _offsets(6, 10, 12, 1)
    assert wide.tolist() == [r * 12 + m for r in range(6) for m in range(10)] and not wide.flags.writeable
    short = _offsets(2, 10, 12, 1)  # fewer rows: a prefix of the kept entry
    assert np.shares_memory(short, wide) and short.tolist() == wide[:20].tolist()
    assert _offsets(3, 10, -1, 0, -1).tolist() == [-r - 1 for r in range(3) for _ in range(10)]
    assert _offsets(7, 10, 12, 1).tolist() == [r * 12 + m for r in range(7) for m in range(10)]  # more rows: rebuilt
    assert list(memo) == [(-1, 0, -1, 10), (12, 1, 0, 10)] and memo[12, 1, 0, 10].size == 70
    _offsets(1, 10, -1, 0, -1)  # a hit makes its entry the most recently used
    assert list(memo) == [(12, 1, 0, 10), (-1, 0, -1, 10)]
    assert _offsets(2, 10, 7).tolist() == [0] * 10 + [7] * 10  # 20 more: the least recently used goes first
    assert list(memo) == [(-1, 0, -1, 10), (7, 0, 0, 10)]
    assert _offsets(11, 10, 7).size == 110 and memo == {}  # an array above the bound is never kept
    for step in range(70):  # nor more than 64 entries, however small, so that a lookup stays cheap
        _offsets(1, 1, step)
    assert len(memo) == 64 and (5, 0, 0, 1) not in memo and (6, 0, 0, 1) in memo
    for rows, n, row_step, start in [(4, 5, 3, 0), (2, 30, 31, 0), (9, 5, 3, 0), (1, 101, 1, 0), (3, 5, -1, -1)]:
        got = _offsets(rows, n, row_step, 0, start)
        assert got.tolist() == [r * row_step + start for r in range(rows) for _ in range(n)]
        assert sum(entry.size for entry in memo.values()) <= 100
        assert not any(entry.flags.writeable for entry in memo.values())


# kernel calls of several shapes, one after another: a unit shorter than the one before, tied rows
# under both conventions, and k-sample words whose fields are bytes by nature (4x250), bytes by
# rounding (7x100: 7-bit fields in an int64 word; tied 40/40: 6-bit fields in a uint16 word), or
# neither (4x15: four 4-bit fields fill a uint16 word; tied 3x20: three 5-bit fields); the 20/20
# case comes back at the end, after the small memo bound below has dropped its offsets
MEMO_CASES = [
    (TWO_SAMPLE, "power:2", (20, 20), None, False, RIGHT_CONTINUOUS, 50),
    (TWO_SAMPLE, "power:2", (20, 20), None, False, RIGHT_CONTINUOUS, 17),
    (TWO_SAMPLE, "power:2", (40, 40), None, True, RIGHT_CONTINUOUS, 30),
    (TWO_SAMPLE, "power:2", (40, 40), None, True, MID, 30),
    (TAU, "expsq:1", (40, 40), None, True, MID, 12),
    (K_SAMPLE, "poly:0,1,1", (15,) * 4, (0.1, 0.2, 0.3, 0.4), False, RIGHT_CONTINUOUS, 40),
    (K_SAMPLE, "poly:0,1,1", (250,) * 4, (0.1, 0.2, 0.3, 0.4), False, RIGHT_CONTINUOUS, 8),
    (K_SAMPLE, "power:2", (100,) * 7, None, False, RIGHT_CONTINUOUS, 6),
    (K_SAMPLE, "poly:0,1,1", (20,) * 3, None, True, RIGHT_CONTINUOUS, 25),
    (K_SAMPLE, "poly:0,1,1", (20,) * 3, None, True, MID, 25),
    (TWO_SAMPLE, "power:2", (1000, 1000), None, False, RIGHT_CONTINUOUS, 3),
    (TWO_SAMPLE, "power:2", (20, 20), None, False, RIGHT_CONTINUOUS, 50),
]


def test_offset_memo_keeps_every_kernel_call_equal_to_the_reference(monkeypatch):
    bound = 4000
    monkeypatch.setattr(statistics, "_OFFSET_ELEMENTS", bound)
    monkeypatch.setattr(statistics, "_OFFSETS", {})
    calls, expected = [], []
    for kind, spec, sizes, weights, tied, convention, rows in MEMO_CASES:
        gen = parse_generator_spec(spec)
        sizes, weights = _check_kind_and_generator(kind, gen, sizes, weights)
        pooled = np.sort(np.random.default_rng(sum(sizes)).normal(0.0, 1.0, sum(sizes)))
        pooled = np.round(pooled, 1) if tied else pooled
        labels = _hand_labels(sizes, 25, 0, rows)
        calls.append((gen, sizes, weights, labels, _tie_lengths(pooled), convention))
        expected.append([reference_statistic(kind, gen, [pooled[row == g] for g in range(len(sizes))],
                                              None if weights is None else weights.weights, convention)
                         for row in labels])

    def score_all():
        got = []
        for i, (gen, sizes, weights, labels, ties, convention) in enumerate(calls):
            if i == len(calls) - 1 and threading.current_thread() is threading.main_thread():
                assert (40, 1, 0, 20) not in statistics._OFFSETS  # dropped: the last call rebuilds it
            got.append(list(_rank_statistic(gen, sizes, weights, labels, ties, convention) - _centering(gen, weights)))
            with statistics._OFFSETS_LOCK:
                entries = list(statistics._OFFSETS.values())
            assert sum(entry.size for entry in entries) <= bound and not any(e.flags.writeable for e in entries)
        return got

    assert score_all() == expected
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # three threads share the memo, each scoring every call, switching every microsecond
        with ThreadPoolExecutor(3) as pool:
            runs = [pool.submit(score_all) for _ in range(3)]
            assert all(run.result(timeout=120) == expected for run in runs)
    finally:
        sys.setswitchinterval(interval)


def test_scratch_keeps_no_array_above_its_bound():
    # a unit above N = 2**18 is one row of N draws; its arrays are dropped after the unit, not kept per thread
    assert statistics._SCRATCH_ELEMENTS == nulldist.CHUNK_ELEMENTS + CHUNK
    _SCRATCH.__dict__.clear()
    table = simulate_null(TWO_SAMPLE, power_generator(2), (300000, 300000), B=2, seed=11)
    assert [v.hex() for v in table.replicates] == ["0x1.2ac39be300000p-21", "0x1.107cd50b60000p-18"]
    # a kept buffer is bytes, viewed as at most _SCRATCH_ELEMENTS elements of at most 8 bytes
    assert all(buffer.nbytes <= 8 * statistics._SCRATCH_ELEMENTS for buffer in _SCRATCH.__dict__.values())
    # the widest array at N <= 2**18, the count word of a k_sample 4x250 unit (262 x 1001 uint32), is kept
    simulate_null(K_SAMPLE, parse_generator_spec("poly:0,1,1"), (250,) * 4, B=_chunk_rows(1000), seed=11)
    assert _SCRATCH.__dict__["words"].nbytes == 262 * 1001 * 4


@pytest.mark.parametrize("kind, spec, sizes, weights, roles, bound_mb", [
    (K_SAMPLE, "poly:0,1,1", (250,) * 4, WeightVector((0.1, 0.2, 0.3, 0.4)), {"block", "flags", "words"}, 2.4),
    (TWO_SAMPLE, "power:2", (1000, 1000), None, {"block", "flags"}, 1.35),
], ids=["k_sample_4x250", "two_sample_1000x1000"])
def test_one_unit_keeps_one_buffer_per_role(kind, spec, sizes, weights, roles, bound_mb):
    # a thread's draw and kernel temporaries share a buffer per role, and the 4x250 counts are one
    # uint32 word: 2.36 and 1.31 MB, where buffers kept per name and dtype held 6.29 and 2.62 MB
    gen = parse_generator_spec(spec)
    unit = _label_blocks(sizes, _chunk_rows(sum(sizes)), 5)[0]

    def score():  # on a fresh thread, so with fresh scratch
        _rank_statistic(gen, sizes, weights, unit())
        return {role: buffer.nbytes for role, buffer in _SCRATCH.__dict__.items()}

    with ThreadPoolExecutor(1) as pool:
        kept = pool.submit(score).result(timeout=60)
    assert set(kept) == roles and sum(kept.values()) <= bound_mb * 1e6, kept


@pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "tied"])
@pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
@pytest.mark.parametrize("n, itemsize, kind", [(255, 4, "u"), (256, 8, "i")], ids=["uint32_word", "uint64_word"])
def test_packed_word_width_boundary_matches_reference(n, itemsize, kind, tied, convention, monkeypatch):
    # four groups of 255 have 8-bit counts, 32 bits in all: one uint32 word; of 256, 9 bits: one 64-bit word,
    # signed, since no field reaches bit 63, so that a field is cast to intp by a view
    gen, sizes, weights = power_generator(2), (n,) * 4, WeightVector((0.1, 0.2, 0.3, 0.4))
    pooled = np.sort(np.random.default_rng(21).normal(0.0, 1.0, sum(sizes)))
    if tied:
        pooled = np.round(pooled, 1)
    labels = _hand_labels(sizes, 22, 0, 3)
    scratch, asked = statistics._scratch, {}

    def recorded(role, shape, dtype):
        asked.setdefault(role, np.dtype(dtype))
        return scratch(role, shape, dtype)

    monkeypatch.setattr(statistics, "_scratch", recorded)
    _SCRATCH.__dict__.clear()
    got = _rank_statistic(gen, sizes, weights, labels, _tie_lengths(pooled), convention)
    assert _SCRATCH.__dict__["words"].nbytes == 3 * (sum(sizes) + 1) * itemsize
    assert asked["words"].kind == kind and asked["words"].itemsize == itemsize
    expected = [reference_statistic(K_SAMPLE, gen, [pooled[row == g] for g in range(len(sizes))],
                                    weights.weights, convention) for row in labels]
    assert list(got - _centering(gen, weights)) == expected


@pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "tied"])
@pytest.mark.parametrize("convention", [RIGHT_CONTINUOUS, MID])
def test_two_packed_words_match_reference(tied, convention):
    gen, sizes = power_generator(2), SEVEN_GROUPS
    weights = WeightVector(tuple(s / sum(sizes) for s in sizes))
    pooled = np.sort(np.random.default_rng(12).normal(0.0, 1.0, sum(sizes)))
    if tied:
        pooled = np.round(pooled, 1)
    labels = _hand_labels(sizes, 13, 0, 3)
    got = _rank_statistic(gen, sizes, weights, labels, _tie_lengths(pooled), convention)
    expected = [reference_statistic(K_SAMPLE, gen, [pooled[row == g] for g in range(len(sizes))],
                                    weights.weights, convention) for row in labels]
    assert list(got - _centering(gen, weights)) == expected


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
    tie_free = _rank_statistic(gen, sizes, weights, labels, None, convention)
    singleton = _rank_statistic(gen, sizes, weights, labels, np.ones(sum(sizes), int), convention)
    assert np.array_equal(tie_free, singleton)
    right = _rank_statistic(gen, sizes, weights, labels, None, RIGHT_CONTINUOUS)
    assert np.array_equal(tie_free, right)
