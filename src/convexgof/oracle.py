"""Population-level verification oracles.

Everything here is independent of the empirical machinery: population
functionals are computed by tanh-sinh quadrature in the quantile domain
(substituting u = F(x) turns every integral into one over [0,1], singular at
worst at the ends, where the rule's nodes cluster; integrands take arrays),
and small-sample null distributions are enumerated exhaustively over rank
interleavings.  Centering constants are recomputed by quadrature
rather than trusted from the generator objects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable

import numpy as np

from .errors import EnumerationTooLargeError, InvalidParameterError
from .generators import adaptive_quad, bernstein_generator, exp_sq_generator, polynomial_generator, power_generator
from .nulldist import CHUNK, _table_values
from .statistics import WeightVector, _check_kind_and_generator

POP_TOL = 1e-9
ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class AnalyticCdf:
    """A continuous CDF with its quantile function, for sampling and quadrature."""

    name: str
    eval: Callable
    quantile: Callable


def uniform_cdf() -> AnalyticCdf:
    """Uniform distribution on [0,1]."""
    return AnalyticCdf(
        name="uniform",
        eval=lambda x: np.clip(x, 0.0, 1.0),
        quantile=lambda u: np.asarray(u, dtype=float),
    )


def power_cdf(a: float) -> AnalyticCdf:
    """F(x) = x^a on [0,1], a > 0."""
    a = float(a)
    if a <= 0:
        raise InvalidParameterError(f"power CDF needs a > 0, got {a!r}")
    return AnalyticCdf(
        name=f"power[{a:g}]",
        eval=lambda x, _a=a: np.clip(x, 0.0, 1.0) ** _a,
        quantile=lambda u, _a=a: np.asarray(u, dtype=float) ** (1.0 / _a),
    )


def logistic_cdf(loc: float = 0.0, scale: float = 1.0) -> AnalyticCdf:
    """Logistic distribution with the given location and scale."""
    if scale <= 0:
        raise InvalidParameterError(f"logistic CDF needs scale > 0, got {scale!r}")
    return AnalyticCdf(
        name=f"logistic[{loc:g},{scale:g}]",
        eval=lambda x, _l=loc, _s=scale: 1.0 / (1.0 + np.exp(-(np.asarray(x, dtype=float) - _l) / _s)),
        quantile=lambda u, _l=loc, _s=scale: _l + _s * np.log(np.asarray(u, dtype=float) / (1.0 - np.asarray(u, dtype=float))),
    )


def exponential_cdf(rate: float = 1.0) -> AnalyticCdf:
    """Exponential distribution with the given rate."""
    if rate <= 0:
        raise InvalidParameterError(f"exponential CDF needs rate > 0, got {rate!r}")
    return AnalyticCdf(
        name=f"exponential[{rate:g}]",
        eval=lambda x, _r=rate: np.where(np.asarray(x, dtype=float) > 0, -np.expm1(-_r * np.asarray(x, dtype=float)), 0.0),
        quantile=lambda u, _r=rate: -np.log1p(-np.asarray(u, dtype=float)) / _r,
    )


def generator_integral(h) -> float:
    """Quadrature of a generator over [0,1], independent of its stored constant."""
    return adaptive_quad(h.eval, 0.0, 1.0, tol=POP_TOL)


def population_functional(h, f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Integral of h(F) dG plus h(G) dF, in the quantile domain."""
    term1 = adaptive_quad(lambda u: h.eval(f.eval(g.quantile(u))), 0.0, 1.0, tol=POP_TOL)
    term2 = adaptive_quad(lambda u: h.eval(g.eval(f.quantile(u))), 0.0, 1.0, tol=POP_TOL)
    return term1 + term2


def population_gap(h, f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Excess of the population functional over its equality value 2*int(h)."""
    return population_functional(h, f, g) - 2.0 * generator_integral(h)


def cvm_distance(f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Integral of (F - G)^2 against the mixture (F + G)/2."""
    half1 = adaptive_quad(lambda u: (u - g.eval(f.quantile(u))) ** 2, 0.0, 1.0, tol=POP_TOL)
    half2 = adaptive_quad(lambda u: (f.eval(g.quantile(u)) - u) ** 2, 0.0, 1.0, tol=POP_TOL)
    return 0.5 * (half1 + half2)


@dataclass(frozen=True)
class MaxProbabilityEstimate:
    """Monte Carlo estimate of P{max of m F-draws < one G-draw}."""

    estimate: float
    std_error: float
    trials: int


def max_probability(m: int, f: AnalyticCdf, g: AnalyticCdf, n_trials: int,
                    seed: int = 0) -> MaxProbabilityEstimate:
    """Estimate P{max_{j<=m} X_j < Y} with X_j ~ F and Y ~ G independent."""
    if m < 1 or n_trials < 1:
        raise InvalidParameterError("max_probability needs m >= 1 and n_trials >= 1")
    rng = np.random.default_rng(seed)
    xs = f.quantile(rng.random((n_trials, m)))
    ys = g.quantile(rng.random(n_trials))
    est = float(np.mean(np.max(xs, axis=1) < ys))
    se = math.sqrt(est * (1.0 - est) / n_trials)
    return MaxProbabilityEstimate(estimate=est, std_error=se, trials=int(n_trials))


def jensen_gap(h, cdfs, weights: WeightVector) -> float:
    """Weighted pairwise functional minus (1 - sum p^2) times the h integral.

    Positive for any strictly convex h unless all CDFs coincide.
    """
    cdfs = list(cdfs)
    k = len(cdfs)
    if k < 2:
        raise InvalidParameterError("jensen_gap needs at least 2 CDFs")
    if len(weights) != k:
        raise InvalidParameterError(f"weight count {len(weights)} does not match CDF count {k}")
    w = weights.weights
    total = 0.0
    for j in range(k):
        for l in range(k):
            if j == l:
                continue
            term = adaptive_quad(lambda u, _j=j, _l=l: h.eval(cdfs[_j].eval(cdfs[_l].quantile(u))),
                                 0.0, 1.0, tol=POP_TOL)
            total += w[j] * w[l] * term
    return total - weights.equality_factor * generator_integral(h)


def log_convex_functional(xi, f: AnalyticCdf, g: AnalyticCdf) -> float:
    """Left side of the log-convex inequality, in the quantile domain.

    Substituting dXi(F(x)) = xi(F(x)) dF(x) gives two smooth [0,1]
    integrals; equality with 2*int(xi^2) holds only at F = G.
    """
    term1 = adaptive_quad(lambda u: xi.eval(g.eval(f.quantile(u))) * xi.eval(u), 0.0, 1.0, tol=POP_TOL)
    term2 = adaptive_quad(lambda u: xi.eval(f.eval(g.quantile(u))) * xi.eval(u), 0.0, 1.0, tol=POP_TOL)
    return term1 + term2


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


def _label_batches(sizes):
    """Every assignment of pooled ranks to groups, as label matrices of <= ``CHUNK`` rows.

    Row r, column p holds the group of pooled rank p in assignment r.
    """
    total = sum(sizes)
    if len(sizes) == 1:
        yield np.zeros((1, total), dtype=np.int8)
        return
    rest = np.concatenate(list(_label_batches(sizes[1:]))) + 1  # the other groups' assignments
    combos = combinations(range(total), sizes[0])
    for chosen in iter(lambda: list(islice(combos, max(1, CHUNK // len(rest)))), []):
        free = np.ones((len(chosen), total), dtype=bool)  # ranks left for the other groups
        free[np.arange(len(chosen))[:, None], chosen] = False
        for lo in range(0, len(rest), CHUNK):
            part = rest[lo:lo + CHUNK]
            batch = np.zeros((len(chosen), total, len(part)), dtype=np.int8)
            batch[free] = np.tile(part.T, (len(chosen), 1))
            yield batch.transpose(0, 2, 1).reshape(-1, total)


def enumerate_null(kind, generator, sizes, weights=None) -> ExactNullDistribution:
    """Exact null distribution by enumerating all rank interleavings.

    Under the null with a continuous common distribution every interleaving
    of the pooled sample is equally likely.  Batches of interleavings go
    through the table executor that simulation and permutation use.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    count = _configurations(sizes)
    if count > ENUMERATION_BUDGET:
        raise EnumerationTooLargeError(
            f"{count} rank interleavings at sizes {sizes} exceed the "
            f"budget of {ENUMERATION_BUDGET}"
        )
    values, counts = np.unique(_table_values(kind, generator, sizes, weights, _label_batches(sizes)),
                               return_counts=True)
    return ExactNullDistribution(kind, generator.name, sizes, values, counts / count)


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
    return (
        power_generator(2),
        power_generator(3),
        polynomial_generator([0.0, 1.0, 0.0, 1.0]),  # u^2 + u^4
        bernstein_generator(power_generator(2), 8),
    )


def battery_cdf_pairs():
    return (
        (uniform_cdf(), power_cdf(2)),
        (uniform_cdf(), power_cdf(3)),
        (logistic_cdf(0.0, 1.0), logistic_cdf(0.0, 2.0)),
    )


def run_battery():
    """Run the full oracle battery; returns a list of BatteryCase results.

    Covers the strict inequality for unequal CDF pairs, the equality
    characterization at F = G, the Cramer-von Mises identity for the square
    generator, and the log-convex analogue.
    """
    cases = []
    pairs = battery_cdf_pairs()
    gens = battery_generators()

    for h in gens:
        for f, g in pairs:
            gap = population_gap(h, f, g)
            cases.append(BatteryCase(
                case_id=f"inequality/{h.name}/{f.name}-vs-{g.name}",
                check="strict-inequality",
                generator_name=h.name, f_name=f.name, g_name=g.name,
                value=gap, tolerance=INEQUALITY_MARGIN,
                passed=gap > INEQUALITY_MARGIN,
            ))
        seen = set()
        for f, g in pairs:
            for cdf in (f, g):
                if cdf.name in seen:
                    continue
                seen.add(cdf.name)
                gap = population_gap(h, cdf, cdf)
                cases.append(BatteryCase(
                    case_id=f"equality/{h.name}/{cdf.name}",
                    check="equality-characterization",
                    generator_name=h.name, f_name=cdf.name, g_name=cdf.name,
                    value=gap, tolerance=EQUALITY_TOL,
                    passed=abs(gap) < EQUALITY_TOL,
                ))

    square = power_generator(2)
    for f, g in pairs:
        discrepancy = population_gap(square, f, g) - cvm_distance(f, g)
        cases.append(BatteryCase(
            case_id=f"cvm-identity/{f.name}-vs-{g.name}",
            check="cvm-identity",
            generator_name=square.name, f_name=f.name, g_name=g.name,
            value=discrepancy, tolerance=CVM_TOL,
            passed=abs(discrepancy) < CVM_TOL,
        ))

    xi = exp_sq_generator(1.0)
    xi_sq = 2.0 * adaptive_quad(lambda u: xi.eval(u) ** 2, 0.0, 1.0, tol=POP_TOL)
    seen = set()
    for f, g in pairs:
        excess = log_convex_functional(xi, f, g) - xi_sq
        cases.append(BatteryCase(
            case_id=f"log-convex-inequality/{f.name}-vs-{g.name}",
            check="log-convex-inequality",
            generator_name=xi.name, f_name=f.name, g_name=g.name,
            value=excess, tolerance=INEQUALITY_MARGIN,
            passed=excess > INEQUALITY_MARGIN,
        ))
        for cdf in (f, g):
            if cdf.name in seen:
                continue
            seen.add(cdf.name)
            excess = log_convex_functional(xi, cdf, cdf) - xi_sq
            cases.append(BatteryCase(
                case_id=f"log-convex-equality/{cdf.name}",
                check="log-convex-equality",
                generator_name=xi.name, f_name=cdf.name, g_name=cdf.name,
                value=excess, tolerance=LOG_EQUALITY_TOL,
                passed=abs(excess) < LOG_EQUALITY_TOL,
            ))
    return cases


def battery_to_csv(cases, path) -> None:
    """Export battery results in the documented CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "check", "generator", "f", "g", "value", "tolerance", "passed"])
        for c in cases:
            writer.writerow([c.case_id, c.check, c.generator_name, c.f_name, c.g_name,
                             repr(c.value), repr(c.tolerance), "pass" if c.passed else "fail"])
