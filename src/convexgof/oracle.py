"""Population-level verification oracles.

The population functionals and the battery are independent of the empirical machinery.  Every
population functional is a sum over ordered pairs j != l of CDFs F_1..F_k (weights p_j = 1 unless
k-sample weights are given) of p_j p_l int_0^1 phi(F_j(F_l^-1(u)), u) du: phi = h(v) gives
int h(F) dG + int h(G) dF, (u - v)^2 twice the Cramer-von Mises distance and xi(v) xi(u) the
log-convex functional.  Substituting u = F_l(x) makes each term an integral over [0,1], singular at
worst at the ends, where the tanh-sinh nodes cluster.  A functional is the list of its terms
(p_j p_l, phi, F_j, F_l), and one tanh-sinh pass integrates the terms of many, the battery's 91 among
them: each level evaluates every distinct F_j(F_l^-1), then every distinct phi, once over all its
open rows.  Centering constants are recomputed by quadrature rather than trusted from the generator
objects.  Small-sample null distributions are enumerated exhaustively over rank interleavings, in
lexicographic order, by work units of at most ``CHUNK_ELEMENTS`` labels that unrank their own, and
scored by ``nulldist._table_values`` and the shared kernel; ``tests/test_kernel.py`` checks them
against ``tests/oracle_helpers.label_batches`` and scipy's exact Cramer-von Mises tail.  At two equal
sizes only the half in which group 0 holds rank 0 is scored and counted twice, as a label swap gives the
same statistic bit for bit (see :func:`enumerate_null`); ``ENUMERATION_BUDGET`` counts every configuration.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EnumerationTooLargeError, InvalidParameterError
from .generators import CHUNK_ELEMENTS, _check_int, _name_token, _tanh_sinh, eval_on_array, parse_generator_spec
from .nulldist import RIGHT_CONTINUOUS, _check_seed, _table_values, _tie_pattern
from .statistics import WeightVector, _check_kind_and_generator

POP_TOL = 1e-9
ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class AnalyticCdf:
    """A continuous CDF with its quantile function, for sampling and quadrature."""

    name: str
    eval: Callable
    quantile: Callable


def _param(family, what, value, positive=True):
    """``value`` as a float; ``InvalidParameterError`` unless it is finite (and > 0 if ``positive``)."""
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        raise InvalidParameterError(f"{family} CDF needs a finite {what}{' > 0' if positive else ''}, got {value!r}")
    return value


def uniform_cdf() -> AnalyticCdf:
    """Uniform distribution on [0,1]: one object, whose F(F^-1(u)) is u bit for bit."""
    return _UNIFORM


_UNIFORM = AnalyticCdf("uniform", lambda x: np.clip(x, 0.0, 1.0), lambda u: np.asarray(u, dtype=float))


def power_cdf(a: float) -> AnalyticCdf:
    """F(x) = x^a on [0,1], a finite and > 0."""
    a = _param("power", "a", a)
    return AnalyticCdf(
        name=f"power[{_name_token(a)}]",
        eval=lambda x, _a=a: np.clip(x, 0.0, 1.0) ** _a,
        quantile=lambda u, _a=a: np.asarray(u, dtype=float) ** (1.0 / _a),
    )


def logistic_cdf(loc: float = 0.0, scale: float = 1.0) -> AnalyticCdf:
    """Logistic distribution with a finite location and a finite scale > 0."""
    loc, scale = _param("logistic", "loc", loc, positive=False), _param("logistic", "scale", scale)
    return AnalyticCdf(
        name=f"logistic[{_name_token(loc)},{_name_token(scale)}]",
        eval=lambda x, _l=loc, _s=scale: 1.0 / (1.0 + np.exp(-(np.asarray(x, dtype=float) - _l) / _s)),
        quantile=lambda u, _l=loc, _s=scale: _l + _s * np.log(np.asarray(u, dtype=float) / (1.0 - np.asarray(u, dtype=float))),
    )


def exponential_cdf(rate: float = 1.0) -> AnalyticCdf:
    """Exponential distribution with a finite rate > 0."""
    rate = _param("exponential", "rate", rate)
    return AnalyticCdf(
        name=f"exponential[{_name_token(rate)}]",
        eval=lambda x, _r=rate: np.where(np.asarray(x, dtype=float) > 0, -np.expm1(-_r * np.asarray(x, dtype=float)), 0.0),
        quantile=lambda u, _r=rate: -np.log1p(-np.asarray(u, dtype=float)) / _r,
    )


def _integrate(*functionals) -> list:
    """Each functional's value from one tanh-sinh pass over all their terms; a term object they share, once."""
    terms = list({id(term): term for functional in functionals for term in functional}.values())

    def evaluate(u, rows):  # each distinct composition, then each distinct phi, over all its open rows
        compositions, phis, v, out = {}, {}, np.empty_like(u), np.empty_like(u)
        for position, row in enumerate(rows.tolist()):
            compositions.setdefault(terms[row][2:], []).append(position)
            phis.setdefault(terms[row][1], []).append(position)
        for (fj, fl), sel in compositions.items():
            v[sel] = fj.eval(fl.quantile(u[sel]))
        for phi, sel in phis.items():
            out[sel] = eval_on_array(phi, v[sel], u[sel])
        return out

    lo = np.zeros(len(terms))
    integrals = dict(zip(map(id, terms), _tanh_sinh(evaluate, lo, lo + 1.0, POP_TOL).tolist()))
    return [functools.reduce(lambda total, term: total + term[0] * integrals[id(term)], functional, 0.0)
            for functional in functionals]


def _pairwise(phi, cdfs, weights=None) -> list:
    """The ordered-pair terms of the module docstring; p_j = 1 if ``weights`` is None."""
    p = [1.0] * len(cdfs) if weights is None else weights.weights
    return [(p[j] * p[l], phi, fj, fl) for j, fj in enumerate(cdfs) for l, fl in enumerate(cdfs) if j != l]


def _of_v(h):  # phi = h(v): its terms make int h(F_j) dF_l
    return lambda v, u: h.eval(v)


def generator_integral(h) -> float:
    """Quadrature of a generator over [0,1], independent of its stored constant."""
    return _integrate([(1.0, _of_v(h), _UNIFORM, _UNIFORM)])[0]


def population_functional(h, f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Integral of h(F) dG plus h(G) dF."""
    return _integrate(_pairwise(_of_v(h), (f, g)))[0]


def population_gap(h, f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Excess of the population functional over its equality value 2*int(h)."""
    return population_functional(h, f, g) - 2.0 * generator_integral(h)


def cvm_distance(f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Integral of (F - G)^2 against the mixture (F + G)/2."""
    return _integrate([(0.5, _squared_difference, f, g), (0.5, _squared_difference, g, f)])[0]


def _squared_difference(v, u):
    return (u - v) ** 2


@dataclass(frozen=True)
class MaxProbabilityEstimate:
    """Monte Carlo estimate of P{max of m F-draws < one G-draw}."""

    estimate: float
    std_error: float
    trials: int


def max_probability(m: int, f: AnalyticCdf, g: AnalyticCdf, n_trials: int,
                    seed: int = 0) -> MaxProbabilityEstimate:
    """Estimate P{max_{j<=m} X_j < Y} with X_j ~ F and Y ~ G independent."""
    m = _check_int(m, "max_probability needs an integer m >= 1")
    n_trials = _check_int(n_trials, "max_probability needs an integer n_trials >= 1")
    rng = np.random.default_rng(_check_seed(seed))
    xs = f.quantile(rng.random((n_trials, m)))
    ys = g.quantile(rng.random(n_trials))
    est = float(np.mean(np.max(xs, axis=1) < ys))
    se = math.sqrt(est * (1.0 - est) / n_trials)
    return MaxProbabilityEstimate(estimate=est, std_error=se, trials=int(n_trials))


def jensen_gap(h, cdfs, weights) -> float:
    """Weighted pairwise functional minus (1 - sum p^2) times the h integral.

    ``weights`` is a :class:`WeightVector` or a sequence of weights.  Positive for any strictly convex h
    unless all CDFs coincide.
    """
    cdfs = list(cdfs)
    if not isinstance(weights, WeightVector):
        weights = WeightVector(tuple(weights))
    k = len(cdfs)
    if k < 2:
        raise InvalidParameterError("jensen_gap needs at least 2 CDFs")
    if len(weights) != k:
        raise InvalidParameterError(f"weight count {len(weights)} does not match CDF count {k}")
    return _integrate(_pairwise(_of_v(h), cdfs, weights))[0] - weights.equality_factor * generator_integral(h)


def log_convex_functional(xi, f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Left side of the log-convex inequality, int xi(F) dXi(G) + int xi(G) dXi(F).

    Substituting dXi(G(x)) = xi(G(x)) dG(x) gives two smooth [0,1]
    integrals; equality with 2*int(xi^2) holds only at F = G.
    """
    return _integrate(_pairwise(lambda v, u: xi.eval(v) * xi.eval(u), (f, g)))[0]


@dataclass(frozen=True)
class ExactNullDistribution:
    """Exact null pmf of a statistic over all rank interleavings."""

    statistic_kind: str
    generator_name: str
    sample_sizes: tuple
    values: np.ndarray
    probabilities: np.ndarray

    @property
    def configurations(self) -> int:
        return _configurations(self.sample_sizes)


def _configurations(sizes) -> int:
    """Number of rank interleavings: the multinomial coefficient of the sizes."""
    return math.prod(math.comb(sum(sizes[g:]), s) for g, s in enumerate(sizes))


def _label_units(sizes, stop=None):
    """Every assignment of pooled ranks to two or more groups, in work units of <= ``CHUNK_ELEMENTS`` labels or one row;
    with ``stop``, only the rows of the first group's first ``stop`` rank sets.

    Row r, column p holds the group of pooled rank p in assignment r.  The first group's
    rank sets run in lexicographic order, each followed by every row of the other groups'
    assignments (``rest``) on its free ranks.  Lex rank r is colex rank C(N, n) - 1 - r of
    the set reflected by p -> N - 1 - p, whose i-th largest member is the largest c with
    C(c, n + 1 - i) <= the rank left (Knuth, TAOCP 4A 7.2.1.3): a unit unranks its own sets.
    """
    total, n = sum(sizes), sizes[0]
    rest = (np.concatenate([unit() for unit in _label_units(sizes[1:])]) if len(sizes) > 2
            else np.zeros((1, total - n), np.int8)) + 1
    rows, sets = max(1, CHUNK_ELEMENTS // total), math.comb(total, n)
    binomial = [np.ones(total, dtype=np.int64)]  # min(C(c, i), sets) at [i][c]: exact below sets
    for i in range(n):
        binomial.append(np.minimum(np.cumsum(binomial[i]) - binomial[i], sets))

    def unit(first, count, lo):  # lex ranks first .. first + count - 1, each with rest rows lo .. lo + rows - 1
        free = np.ones((count, total), dtype=bool)  # ranks left for the other groups
        last = np.arange(total - 1, count * total, total)  # flat index of each row's last rank
        colex = np.arange(sets - 1 - first, sets - 1 - first - count, -1)
        for i in range(n, 0, -1):
            member = np.searchsorted(binomial[i], colex, side="right") - 1
            colex -= binomial[i][member]
            free.ravel()[last - member] = False
        if len(sizes) == 2:  # rest is one row of ones: the second group takes every free rank
            return free.view(np.int8)
        part = rest[lo:lo + rows]
        batch = np.zeros((count, total, len(part)), dtype=np.int8)
        batch[free] = np.tile(part.T, (count, 1))
        return batch.transpose(0, 2, 1).reshape(-1, total)

    step, stop = max(1, rows // len(rest)), sets if stop is None else stop
    return [functools.partial(unit, first, min(step, stop - first), lo)
            for first in range(0, stop, step) for lo in range(0, len(rest), rows)]


def enumerate_null(kind, generator, sizes, weights=None, ties=None, convention=RIGHT_CONTINUOUS) -> ExactNullDistribution:
    """Exact null distribution by enumerating all rank interleavings.

    Every interleaving is equally likely under the null, given the tie pattern
    (tie-block lengths ``ties`` and ``convention`` as in ``simulate_null``, whose tables sample this
    law); work units of them go through the table executor.  At two equal sizes a
    label swap exchanges the two pair integrals, each summed from the same terms (tie
    blocks belong to positions), and p_0 p_1 = p_1 p_0 and a + b = b + a are exact in
    IEEE arithmetic: only the C(N - 1, n - 1) rows in which group 0 holds rank 0, the first
    in lexicographic order, are scored, each atom's count doubled.  Otherwise a group
    permutation reorders a sum of more than two terms, which is not exact, and every
    interleaving is scored.  ``ENUMERATION_BUDGET`` counts configurations.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    ties = _tie_pattern(ties, sum(sizes), convention)[0]
    count = _configurations(sizes)
    if count > ENUMERATION_BUDGET:
        raise EnumerationTooLargeError(
            f"{count} rank interleavings at sizes {sizes} exceed the "
            f"budget of {ENUMERATION_BUDGET}"
        )
    half = len(sizes) == 2 and sizes[0] == sizes[1]  # the rows holding rank 0, each twice
    units = _label_units(sizes, math.comb(sum(sizes) - 1, sizes[0] - 1) if half else None)
    values, counts = np.unique(_table_values(generator, sizes, weights, units, ties, convention), return_counts=True)
    return ExactNullDistribution(kind, generator.name, sizes, values, counts * (1 + half) / count)


# ---------------------------------------------------------------------------
# Verification battery

EQUALITY_TOL = 1e-8
INEQUALITY_MARGIN = 1e-6
CVM_TOL = 1e-8
LOG_EQUALITY_TOL = 1e-7


@dataclass(frozen=True)
class BatteryCase:
    """One oracle check: an identity or a strict inequality with its margin."""

    case_id: str
    check: str
    generator_name: str
    f_name: str
    g_name: str
    value: float
    tolerance: float
    passed: bool


def battery_generators():
    return tuple(map(parse_generator_spec, ("power:2", "power:3", "poly:0,1,0,1", "bernstein:power:2:8")))


def battery_cdf_pairs():
    return ((uniform_cdf(), power_cdf(2)), (uniform_cdf(), power_cdf(3)),
            (logistic_cdf(0.0, 1.0), logistic_cdf(0.0, 2.0)))


def run_battery():
    """Run the full oracle battery; returns a list of BatteryCase results.

    Covers the strict inequality for unequal CDF pairs, the equality
    characterization at F = G, the Cramer-von Mises identity for the square
    generator, and the log-convex analogue.  All 91 terms of its functionals
    are integrated in one pass: each centering integral is one term, and the
    identity reuses the square generator's gaps.  Its generators are :func:`parse_generator_spec`'s.
    """
    pairs = battery_cdf_pairs()
    cdfs = list({c.name: c for pair in pairs for c in pair}.values())  # in order of first use
    square, xi = map(parse_generator_spec, ("power:2", "expsq:1"))
    checks, gaps, seen = [], {}, set()

    def add(prefix, check, gen, f, g, tolerance, functional, minus=()):  # value: functional - minus
        case_id = f"{prefix}/{f.name}" if f is g else f"{prefix}/{f.name}-vs-{g.name}"
        checks.append((case_id, check, gen.name, f.name, g.name, tolerance, functional, minus))

    for h in battery_generators():
        phi = _of_v(h)
        centre = [(-2.0, phi, _UNIFORM, _UNIFORM)]  # one term in every gap of h
        for f, g in pairs:
            gaps[h.name, f.name, g.name] = gap = _pairwise(phi, (f, g)) + centre
            add(f"inequality/{h.name}", "strict-inequality", h, f, g, INEQUALITY_MARGIN, gap)
        for c in cdfs:
            add(f"equality/{h.name}", "equality-characterization", h, c, c, EQUALITY_TOL,
                _pairwise(phi, (c, c)) + centre)
    for f, g in pairs:
        add("cvm-identity", "cvm-identity", square, f, g, CVM_TOL, gaps[square.name, f.name, g.name],
            [(0.5, _squared_difference, f, g), (0.5, _squared_difference, g, f)])  # cvm_distance's terms
    phi, centre = (lambda v, u: xi.eval(v) * xi.eval(u)), [(-2.0, lambda v, u: xi.eval(u) ** 2, _UNIFORM, _UNIFORM)]
    for f, g in pairs:
        add("log-convex-inequality", "log-convex-inequality", xi, f, g, INEQUALITY_MARGIN,
            _pairwise(phi, (f, g)) + centre)
        for c in (f, g):
            if c.name not in seen:
                seen.add(c.name)
                add("log-convex-equality", "log-convex-equality", xi, c, c, LOG_EQUALITY_TOL,
                    _pairwise(phi, (c, c)) + centre)
    values, cases = iter(_integrate(*(part for *_, functional, minus in checks for part in (functional, minus)))), []
    for case_id, check, *names, tolerance, _, _ in checks:
        value = next(values) - next(values)
        passed = value > tolerance if check.endswith("inequality") else abs(value) < tolerance
        cases.append(BatteryCase(case_id, check, *names, value, tolerance, passed))
    return cases


def battery_to_csv(cases, path) -> None:
    """Export battery results in the documented CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "check", "generator", "f", "g", "value", "tolerance", "passed"])
        for c in cases:
            writer.writerow([c.case_id, c.check, c.generator_name, c.f_name, c.g_name,
                             repr(c.value), repr(c.tolerance), "pass" if c.passed else "fail"])
