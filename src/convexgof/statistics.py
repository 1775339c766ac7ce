"""Test statistics: two-sample, weighted k-sample, and the log-convex tau.

Each statistic is the empirical plug-in of a population functional minus
its centering constant (the value the functional takes when all
distributions coincide).  No finite-n bias correction is applied; Monte
Carlo calibration of the null absorbs it.

Every ECDF value the functionals need is a member count over a sample size,
so one count-indexed kernel, :func:`_rank_statistic`, computes the raw
functional for observed data, simulated tables, permutations and exact
enumeration alike.  Its counts come from column arithmetic in tie-free rows
of two groups, and from prefix sums of bit-packed counts otherwise.  Every
integral, tau's included, has one term per member of the integrating group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ecdf import CONVENTIONS, RIGHT_CONTINUOUS, Sample, cross_tie_count
from .errors import InvalidParameterError, NumericalError
from .generators import ConvexGenerator, LogConvexGenerator, eval_on_array

TWO_SAMPLE = "two_sample"
K_SAMPLE = "k_sample"
TAU = "tau"
KINDS = (TWO_SAMPLE, K_SAMPLE, TAU)

WEIGHT_SUM_TOL = 1e-12


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


def _group_labels(sizes) -> np.ndarray:
    """Group index of each pooled slot when the groups are laid end to end."""
    return np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))), sizes)


def _tie_blocks(sorted_values):
    """Start and end (exclusive) of each position's tie block; None without ties."""
    if not np.any(sorted_values[1:] == sorted_values[:-1]):
        return None
    lo = np.searchsorted(sorted_values, sorted_values, side="left")
    hi = np.searchsorted(sorted_values, sorted_values, side="right")
    return lo, hi


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises below
def _rank_statistic(kind, generator, sizes, weights, labels, ties=None,
                    convention=RIGHT_CONTINUOUS) -> np.ndarray:
    """Raw functional of every row of a label matrix in pooled rank order.

    ``labels[r, p]`` is the group of replicate r's p-th smallest pooled value,
    so each ECDF value is a member count and each functional a sum of lookups
    into the grid h(i/n), i = 0..n.  ``ties`` holds each position's tie-block
    start and end, or None; only with ties does ``mid`` change a count, to the
    sum of those below and through its block, looked up in h(i/2n).  Each
    integral sums one term per member of the integrating group l in sorted
    order, one ordered pair of groups at a time; a grid is evaluated when a
    pair first needs it.  A tau term is weighted by its member's jump
    Xi((i+1)/n_l) - Xi(i/n_l); a tie block's members share one count of the
    other group, so their jumps add up to the block's jump.  In tie-free rows
    of two groups the other group's count before a member is the member's
    column minus its index in its own group.  Otherwise every group's running
    count is a ``bits``-wide field of an int64 word, ``63 // bits`` groups per
    word: one cumsum per word and one gather per (integrating group, word)
    give every count.  A non-finite result raises :class:`NumericalError`.
    """
    if convention not in CONVENTIONS:
        raise InvalidParameterError(f"unknown CDF convention '{convention}'; expected one of {CONVENTIONS}")
    nrep, width = labels.shape
    k, mid = len(sizes), convention != RIGHT_CONTINUOUS and ties is not None
    grids, integrals = {}, {}

    def integral(j, l, index):  # group j's ECDF over group l's values
        if sizes[j] not in grids:
            n = 2 * sizes[j] if mid else sizes[j]
            grids[sizes[j]] = eval_on_array(generator.eval, np.arange(n + 1) / n)
        terms = np.take(grids[sizes[j]], index).reshape(nrep, sizes[l])
        if kind == TAU:
            return (terms * np.diff(generator.antiderivative_grid(sizes[l]))).sum(axis=1)
        return terms.sum(axis=1) / sizes[l]

    if ties is None and k == 2:
        for l in (0, 1):
            count = np.flatnonzero(labels == l).reshape(nrep, -1)
            count -= np.arange(0, nrep * width, width)[:, None]
            count -= np.arange(sizes[l])
            integrals[1 - l, l] = integral(1 - l, l, count)
    else:
        bits = max(sizes).bit_length()
        per, mask = 63 // bits, (1 << bits) - 1
        g = np.arange(k)
        code = np.where(np.arange(-(-k // per))[:, None] == g // per, 1 << bits * (g % per), 0)
        words = np.zeros((len(code), nrep, width + 1), np.int64)  # members before each column
        for word, c in zip(words, code):
            np.cumsum(c[labels], axis=1, out=word[:, 1:])
        words = words.reshape(len(code), -1)
        row_start = np.arange(0, nrep * (width + 1), width + 1)[:, None]

        def counts(col, end):  # packed members valued < (not end) or <= (end) those at ``col``
            bound = col + 1 if ties is None else np.take(ties[end], col)
            return np.take(words, (row_start + bound).ravel(), axis=1)

        def field(group, packed):
            return (packed[group // per] >> bits * (group % per)) & mask

        for l in range(k):
            col = np.flatnonzero(labels == l).reshape(nrep, -1)
            col -= np.arange(0, nrep * width, width)[:, None]
            through = counts(col, True)
            before = counts(col, False) if mid else through
            for j in range(k):
                if j != l:
                    integrals[j, l] = integral(j, l, field(j, through) + field(j, before) if mid
                                               else field(j, through))
    if kind == K_SAMPLE:
        w = weights.weights  # summed in (j, l) order, whatever order the pairs were computed in
        raw = sum((w[j] * w[l] * integrals[j, l] for j, l in sorted(integrals)), 0.0)
    else:
        raw = integrals[0, 1] + integrals[1, 0]
    if not np.all(np.isfinite(raw)):
        raise NumericalError(f"generator '{generator.name}' gives a non-finite statistic "
                             f"at sample sizes {tuple(sizes)}")
    return raw


def _centering(kind, generator, weights) -> float:
    """The raw functional's value when all distributions coincide."""
    if kind == K_SAMPLE:
        return weights.equality_factor * generator.integral_0_1
    return 2.0 * (generator.integral_sq_0_1 if kind == TAU else generator.integral_0_1)


def _check_kind_and_generator(kind, generator, sizes, weights):
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown statistic kind '{kind}'; expected one of {KINDS}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) == 0 or any(s < 1 for s in sizes):
        raise InvalidParameterError(f"sample sizes must all be >= 1, got {sizes}")
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
            raise InvalidParameterError(
                f"weight count {len(weights)} does not match sample count {len(sizes)}"
            )
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
    ties = _tie_blocks(pooled[order])
    raw = float(_rank_statistic(kind, generator, sizes, weights, labels, ties, convention)[0])
    centering = _centering(kind, generator, weights)
    return StatisticValue(
        value=raw - centering,
        raw_functional=raw,
        centering_constant=centering,
        tie_count=0 if ties is None else sum(cross_tie_count(a, b) for a, b in combinations(samples, 2)),
        generator_name=generator.name,
    )


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
