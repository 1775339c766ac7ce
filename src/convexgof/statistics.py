"""Test statistics: two-sample, weighted k-sample, and the log-convex tau.

Each statistic is the empirical plug-in of one sum over ordered pairs of groups
j != l of p_j p_l times the integral of h(F_j) dF_l, minus its value when all F_j
coincide; the two-group kinds take p_j = 1, and a log-convex generator selects tau,
which integrates xi(F_j) dXi(F_l).  No finite-n bias correction is applied: calibration absorbs it.

Every ECDF value the functionals need is a member count over a sample size, so one count-indexed
kernel, :func:`_rank_statistic`, computes the raw functional for observed data, simulated tables,
permutations and exact enumeration alike, from generator grids memoised per ``eval`` and size.  Its
counts come from column arithmetic in tie-free rows of two groups, and from prefix sums of bit-packed
counts otherwise.  Every integral, tau's included, has one term per member of the integrating group.
A tie pattern has one form, the pooled data's tie-block lengths in sorted order (:func:`_tie_lengths`,
None without ties), which only the kernel expands to each position's block bounds.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .ecdf import CONVENTIONS, RIGHT_CONTINUOUS, Sample
from .errors import InvalidParameterError, NumericalError
from .generators import CHUNK_ELEMENTS, ConvexGenerator, LogConvexGenerator, _check_int, _memo_grids, eval_on_array

TWO_SAMPLE = "two_sample"
K_SAMPLE = "k_sample"
TAU = "tau"
KINDS = (TWO_SAMPLE, K_SAMPLE, TAU)

WEIGHT_SUM_TOL = 1e-12
CHUNK = 1024  # most replicates per Monte Carlo chunk; CHUNK_ELEMENTS bounds its pooled draws, memory and cache use


@dataclass(frozen=True)
class WeightVector:
    """Positive weights p_1..p_k summing to one."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) == 0:
            raise InvalidParameterError("weight vector must be nonempty")
        if any(not np.isfinite(v) or v <= 0 for v in w):
            raise InvalidParameterError(f"weights must be positive reals, got {w}")
        if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidParameterError(f"weights sum to {sum(w)!r}, expected 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, k: int) -> "WeightVector":
        if k < 1:
            raise InvalidParameterError("weight vector needs k >= 1")
        return cls(tuple(1.0 / k for _ in range(k)))

    def __len__(self):
        return len(self.weights)

    @property
    def equality_factor(self) -> float:
        """1 - sum(p_j^2), the k-sample centering multiplier."""
        return 1.0 - sum(v * v for v in self.weights)


@dataclass(frozen=True)
class StatisticValue:
    """A computed statistic with its raw functional and centering constant."""

    value: float
    raw_functional: float
    centering_constant: float
    tie_count: int
    generator_name: str


_SCRATCH = threading.local()
_SCRATCH_ELEMENTS = CHUNK_ELEMENTS + CHUNK  # a Monte Carlo chunk's count word, rows x (N + 1), at N <= 2**18
_OFFSETS, _OFFSETS_LOCK, _OFFSET_ELEMENTS = {}, threading.Lock(), 2**18  # by steps and n, least recently used first


def _scratch(role, shape, dtype) -> np.ndarray:
    """This thread's bytes for ``role`` as a ``shape`` array of ``dtype``, reused by the next call for ``role``, so
    a role's temporaries must never live at once: ``block`` holds tie gaps, then label codes, then terms; ``flags``
    tie flags, then member masks; ``words`` packed counts.  No result aliases them; malloc need not refault them."""
    size = math.prod(shape)
    if size > _SCRATCH_ELEMENTS:  # the caller's alone, and freed with it
        return np.empty(shape, dtype)
    nbytes = size * np.dtype(dtype).itemsize
    buffer = _SCRATCH.__dict__.get(role)
    if buffer is None or buffer.size < nbytes:
        buffer = _SCRATCH.__dict__[role] = np.empty(nbytes, np.uint8)
    return buffer[:nbytes].view(dtype).reshape(shape)


def _offsets(rows, n, row_step, column_step=0, start=0) -> np.ndarray:
    """r * row_step + m * column_step + start for r < rows and m < n, flat: a prefix of the read-only entry all threads
    share for the other arguments.  Before an entry is built, the least recently used go until it fits beside the rest
    in 64 entries and ``_OFFSET_ELEMENTS`` elements; one larger than that bound is built but not kept."""
    key, size = (row_step, column_step, start, n), rows * n
    with _OFFSETS_LOCK:
        kept = _OFFSETS.pop(key, None)
        if kept is None or kept.size < size:
            while _OFFSETS and (len(_OFFSETS) > 63 or sum(map(np.size, _OFFSETS.values())) + size > _OFFSET_ELEMENTS):
                del _OFFSETS[next(iter(_OFFSETS))]
            kept = np.add.outer(np.arange(rows) * row_step + start, np.arange(n) * column_step).ravel()
            kept.setflags(write=False)
        if size <= _OFFSET_ELEMENTS:
            _OFFSETS[key] = kept
    return kept[:size]


def _group_labels(sizes) -> np.ndarray:
    """Group index of each pooled slot when the groups are laid end to end."""
    return np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))), sizes)


def _tie_lengths(sorted_values):
    """Lengths of the tie blocks of sorted values, ``np.unique(values, return_counts=True)[1]``; None without ties."""
    edges = np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1], [True])))  # starts, N
    return None if edges.size > sorted_values.size else edges[1:] - edges[:-1]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises below
def _rank_statistic(generator, sizes, weights, labels, ties=None,
                    convention=RIGHT_CONTINUOUS) -> np.ndarray:
    """Raw functional of every row of a label matrix in pooled rank order: the sum over ordered
    pairs of groups, in (j, l) order from 0.0, of p_j p_l times the integral of group j's ECDF
    over group l's values, with p_j = 1 where ``weights`` is None (the two-group kinds).

    ``labels[r, p]`` is the group of replicate r's p-th smallest pooled value, so each ECDF value is a
    member count and each functional a sum of lookups into the grid h(i/n), i = 0..n.  ``ties`` holds
    the pooled data's tie-block lengths in sorted order (:func:`_tie_lengths`), or None; this kernel
    alone expands them, once per call, to each position's block start and end.  Only with ties does
    ``mid`` change a count, to the sum of those below and through its block, looked up in h(i/2n).
    Each integral sums one term per member of the integrating group l in sorted order, one ordered
    pair of groups at a time.  A log-convex generator selects tau: each term is weighted by its
    member's jump Xi((i+1)/n_l) - Xi(i/n_l), the difference of ``antiderivative_grid(n_l)``; a tie
    block's members share one count of the other group, so their jumps add up to the block's jump.
    Every grid comes from one call of ``generators._memo_grids`` before any count, so a call whose
    grids are all kept there runs no generator code.
    Each member's flat index r * width + c, from ``np.flatnonzero``, becomes the index a path needs by one
    subtract or add of a shared read-only ``_offsets`` array.  In tie-free rows of two groups the other group's
    count before a member is its column c less its index in its own group.  Otherwise every group's running
    count is a ``bits``-wide field of a word of ``min(k, 63 // bits)`` fields, the narrowest unsigned integer
    up to 32 bits that holds them, else int64, ``bits`` rounded up to 8 or 16 (read by a byte view) where those
    words hold that: one cumsum per word and one gather per (integrating group, word) give every count exactly,
    so no index path changes a value or the summation order.  A non-finite result raises :class:`NumericalError`.
    """
    if convention not in CONVENTIONS:
        raise InvalidParameterError(f"unknown CDF convention '{convention}'; expected one of {CONVENTIONS}")
    nrep, width = labels.shape
    k, mid = len(sizes), convention != RIGHT_CONTINUOUS and ties is not None
    if ties is not None:  # each position's block start and end (exclusive)
        ties = np.repeat((ends := np.cumsum(ties)) - ties, ties), np.repeat(ends, ties)
    fn, integrals, tau = generator.eval, {}, isinstance(generator, LogConvexGenerator)
    grids = _memo_grids(fn, [(n, "values", lambda n=n: eval_on_array(fn, np.arange(n + 1) / n))
                             for n in (2 * s if mid else s for s in sizes)]  # h(i/n) for group j's ECDF
                        + [(n, "jumps", lambda n=n: np.diff(generator.antiderivative_grid(n)))
                           for n in sizes if tau])
    values, jumps = grids[:k], grids[k:]

    def integral(j, l, index):  # group j's ECDF over group l's values
        terms = np.take(values[j], index.reshape(nrep, sizes[l]), mode="clip",  # index lies in 0..n
                        out=_scratch("block", (nrep, sizes[l]), float))
        if tau:
            return np.multiply(terms, jumps[l], out=terms).sum(axis=1)
        return terms.sum(axis=1) / sizes[l]

    def members(l, *steps):  # flat index r * width + c of each of group l's members, less ``_offsets`` of ``steps``
        index = np.flatnonzero(np.equal(labels, l, out=_scratch("flags", labels.shape, bool)))
        index -= _offsets(nrep, sizes[l], *steps)
        return index

    if ties is None and k == 2:
        for l in (0, 1):  # the other group's count: column c less the member's index in its own group
            integrals[1 - l, l] = integral(1 - l, l, members(l, width, 1))
    else:
        bits = max(sizes).bit_length()  # then rounded up to 8 or 16 where the same words hold that
        per = min(k, 63 // bits)  # fields per word, in the narrowest uint to 32 bits, else int64; none reaches bit 63
        dtype = np.dtype(np.int64 if per * bits > 32 else np.min_scalar_type((1 << per * bits) - 1)).newbyteorder("<")
        bits = next((b for b in (8, 16) if bits <= b and per * b <= min(63, 8 * dtype.itemsize)), bits)
        g = np.arange(k)
        code = np.where(np.arange(-(-k // per))[:, None] == g // per, 1 << bits * (g % per), 0).astype(dtype)
        words = _scratch("words", (len(code), nrep, width + 1), dtype)  # members before each column
        words[:, :, 0] = 0
        for word, c in zip(words, code):  # clip: mode="raise" would gather through a fresh temporary
            codes = np.take(c, labels, mode="clip", out=_scratch("block", labels.shape, dtype))
            np.cumsum(codes, axis=1, out=word[:, 1:])
        words = words.reshape(len(code), -1)

        def counts(index, end):  # packed members valued < (not end) or <= (end) those at each member's column c
            if ties is not None:  # ``index`` holds c, and row r's words start at r * (width + 1)
                index = np.take(ties[end], index)
                index += _offsets(nrep, len(index) // nrep, width + 1)
            return np.take(words, index, axis=1)

        def field(group, packed):  # as intp: an 8- or 16-bit field through a little-endian view, else shift and mask
            word = packed[group // per]
            if bits in (8, 16):
                return word.view(f"<u{bits // 8}")[group % per::8 * dtype.itemsize // bits].astype(np.intp)
            return ((word >> bits * (group % per)) & ((1 << bits) - 1)).astype(np.intp, copy=False)

        for l in range(k):  # to c with ties, else to r * (width + 1) + c + 1: row r's word through column c
            index = members(l, width) if ties is not None else members(l, -1, 0, -1)
            through = counts(index, True)
            before = counts(index, False) if mid else through
            for j in range(k):
                if j != l:
                    integrals[j, l] = integral(j, l, field(j, through) + field(j, before) if mid
                                               else field(j, through))
    p = (1.0,) * k if weights is None else weights.weights  # summed in (j, l) order, however the pairs were computed
    raw = sum((p[j] * p[l] * integrals[j, l] for j, l in sorted(integrals)), 0.0)
    if not np.all(np.isfinite(raw)):
        raise NumericalError(f"generator '{generator.name}' gives a non-finite statistic "
                             f"at sample sizes {tuple(sizes)}")
    return raw


def _centering(generator, weights) -> float:
    """Raw functional when all F_j coincide: sum_{j != l} p_j p_l (2 unweighted) times the centering integral."""
    return (2.0 if weights is None else weights.equality_factor) * getattr(generator, generator._constant_key)


def _check_kind_and_generator(kind, generator, sizes, weights):
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown statistic kind '{kind}'; expected one of {KINDS}")
    sizes = tuple(_check_int(s, "sample sizes must all be integers >= 1") for s in sizes)
    if kind in (TWO_SAMPLE, TAU) and len(sizes) != 2:
        raise InvalidParameterError(f"{kind} needs exactly 2 sample sizes, got {len(sizes)}")
    if kind == K_SAMPLE:
        if len(sizes) < 2:
            raise InvalidParameterError("k_sample needs at least 2 sample sizes")
        if weights is None:
            weights = WeightVector.uniform(len(sizes))
        elif not isinstance(weights, WeightVector):
            weights = WeightVector(tuple(weights))
        if len(weights) != len(sizes):
            raise InvalidParameterError(f"weight count {len(weights)} does not match sample count {len(sizes)}")
    elif weights is not None:
        raise InvalidParameterError(f"weights are only meaningful for {K_SAMPLE}")
    if kind == TAU:
        if not isinstance(generator, LogConvexGenerator):
            raise InvalidParameterError("tau needs a log-convex generator (e.g. expsq:alpha)")
    elif not isinstance(generator, ConvexGenerator):
        raise InvalidParameterError(f"{kind} needs a convex generator (e.g. power:2)")
    return sizes, weights


def _observed_statistic(kind, generator, samples, weights, convention) -> StatisticValue:
    """Statistic of observed samples: their pooled rank order is one kernel row."""
    sizes, weights = _check_kind_and_generator(kind, generator, [s.n for s in samples], weights)
    pooled = np.concatenate([s.values for s in samples])
    order = np.argsort(pooled, kind="stable")
    labels = _group_labels(sizes)[order][None, :]
    ties = _tie_lengths(pooled[order])
    raw = float(_rank_statistic(generator, sizes, weights, labels, ties, convention)[0])
    centering = _centering(generator, weights)
    tie_count = 0
    if ties is not None:  # a tie block of n values, c_g in group g, has (n^2 - sum c_g^2) / 2 cross pairs
        per_group = np.bincount(np.repeat(np.arange(ties.size) * len(sizes), ties) + labels[0])
        tie_count = int(ties @ ties - per_group @ per_group) // 2
    return StatisticValue(raw - centering, raw, centering, tie_count, generator.name)


def two_sample_statistic(h: ConvexGenerator, x: Sample, y: Sample,
                         convention: str = RIGHT_CONTINUOUS) -> StatisticValue:
    """Symmetric two-sample statistic centered at twice the h integral."""
    return _observed_statistic(TWO_SAMPLE, h, (x, y), None, convention)


def k_sample_statistic(h: ConvexGenerator, samples, weights: WeightVector | None = None,
                       convention: str = RIGHT_CONTINUOUS) -> StatisticValue:
    """Weighted k-sample statistic over all ordered pairs of samples.

    Both ordered pairs (j, l) and (l, j) enter the sum; centering is
    (1 - sum p^2) times the h integral.  Weights default to uniform.
    """
    return _observed_statistic(K_SAMPLE, h, list(samples), weights, convention)


def tau_statistic(xi: LogConvexGenerator, x: Sample, y: Sample,
                  convention: str = RIGHT_CONTINUOUS) -> StatisticValue:
    """Log-convex two-sample statistic centered at twice the xi^2 integral."""
    return _observed_statistic(TAU, xi, (x, y), None, convention)
