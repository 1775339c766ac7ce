"""Test statistics: two-sample, weighted k-sample, and the log-convex tau.

Each statistic is the empirical plug-in of a population functional minus
its centering constant (the value the functional takes when all
distributions coincide).  No finite-n bias correction is applied; Monte
Carlo calibration of the null absorbs it.

Every ECDF value the functionals need is a member count over a sample size,
so one count-indexed kernel, :func:`_rank_statistic`, computes the raw
functional for observed data, simulated tables, permutations and exact
enumeration alike.
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


def _ragged_sums(terms, counts) -> np.ndarray:
    """Sum of each row's terms, with ``terms`` holding the rows' entries end to end.

    Rows of equal length are summed as one 2-d block, in ``np.sum``'s order for one row.
    """
    if counts.min() == counts.max():
        return terms.reshape(counts.size, -1).sum(axis=1)
    owner = np.repeat(counts, counts)  # length of the row each term belongs to
    out = np.empty(counts.size)
    for c in np.unique(counts):
        out[counts == c] = terms[owner == c].reshape(-1, c).sum(axis=1)
    return out


def _rank_statistic(kind, generator, sizes, weights, labels, ties=None,
                    convention=RIGHT_CONTINUOUS) -> np.ndarray:
    """Raw functional of every row of a label matrix in pooled rank order.

    ``labels[r, p]`` is the group of replicate r's p-th smallest pooled value,
    so each ECDF value is a member count and each functional a sum of lookups
    into the grid h(i/n), i = 0..n (h(i/2n), i = 0..2n, under ``mid``).
    ``ties`` holds each position's tie-block start and end, or None.  Each
    integral sums its terms over the integrating group's sorted values (tau:
    its distinct values).  Grids are evaluated after the counts.  A
    non-finite result raises :class:`NumericalError`.
    """
    if convention not in CONVENTIONS:
        raise InvalidParameterError(
            f"unknown CDF convention '{convention}'; expected one of {CONVENTIONS}"
        )
    nrep, width = labels.shape
    mid = convention != RIGHT_CONTINUOUS
    member = [labels == g for g in range(len(sizes))]
    through = [np.cumsum(mask, axis=1, dtype=np.int32) for mask in member]  # members at or before
    padded = None if ties is None else [
        np.concatenate((np.zeros((nrep, 1), np.int32), c), axis=1).ravel() for c in through]

    def count(g, at, strict=False):  # members of g valued < (strict) or <= those at flat ``at``
        if ties is None:
            c = np.take(through[g], at)
            return c - np.take(member[g], at) if strict else c
        row, col = np.divmod(at, width)
        return np.take(padded[g], row * (width + 1) + np.take(ties[0 if strict else 1], col))

    places = [np.flatnonzero(mask) for mask in member]
    if kind == TAU and ties is not None:  # one term per distinct value, at its last member
        places = [at[np.take(through[g], at) == count(g, at)] for g, at in enumerate(places)]
    pairs = [(j, l) for j in range(len(sizes)) for l in range(len(sizes)) if j != l]
    # group j's ECDF at group l's observations, as grid indices
    indices = [count(j, places[l]) + (count(j, places[l], strict=True) if mid else 0) for j, l in pairs]
    steps = {s: 2 * s if mid else s for s in sizes}
    grids = {s: eval_on_array(generator.eval, np.arange(n + 1) / n) for s, n in steps.items()}
    integrals = []
    for (j, l), index in zip(pairs, indices):
        terms = np.take(grids[sizes[j]], index)
        if kind == TAU:
            anti, at = generator.antiderivative_grid(sizes[l]), places[l]
            terms = terms * (np.take(anti, count(l, at)) - np.take(anti, count(l, at, strict=True)))
            integrals.append(_ragged_sums(terms, np.bincount(at // width, minlength=nrep)))
        else:
            integrals.append(terms.reshape(nrep, -1).sum(axis=1) / sizes[l])
    if kind == K_SAMPLE:
        w = weights.weights
        raw = sum((w[j] * w[l] * integral for (j, l), integral in zip(pairs, integrals)), 0.0)
    else:
        raw = integrals[0] + integrals[1]
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
