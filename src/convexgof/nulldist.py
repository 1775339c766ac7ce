"""Monte Carlo null calibration: tables, p-values, critical values, power.

Under the null the statistics are rank-based, so their law does not depend
on the common continuous distribution; null tables are therefore simulated
from standard uniforms.  Replicate i draws from its own RNG stream, a
Philox generator keyed by (seed, i) -- tables are bit-identical no matter
how replicates are partitioned across workers.  Simulation, permutation and
exact enumeration share one count-indexed kernel over pooled-rank labels.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ecdf import RIGHT_CONTINUOUS, Sample
from .errors import ConvexGofError, InvalidParameterError
from .generators import ConvexGenerator, LogConvexGenerator, eval_on_array
from .statistics import (
    StatisticValue,
    WeightVector,
    k_sample_statistic,
    tau_statistic,
    two_sample_statistic,
)

TWO_SAMPLE = "two_sample"
K_SAMPLE = "k_sample"
TAU = "tau"
KINDS = (TWO_SAMPLE, K_SAMPLE, TAU)

DEFAULT_B = 9999
CHUNK = 1024  # replicates per work unit; fixed so chunking never affects values
TABLE_FORMAT_VERSION = 1
MAX_SEED = 2**64


@dataclass(frozen=True)
class NullTable:
    """Sorted simulated null statistics plus the metadata to regenerate them."""

    statistic_kind: str
    generator_name: str
    sample_sizes: tuple
    replicates: np.ndarray
    seed: int
    weights: tuple | None = None

    @property
    def B(self) -> int:
        return self.replicates.size


@dataclass(frozen=True)
class TestReport:
    """Observed statistic, Monte Carlo p-value and critical values."""

    statistic: StatisticValue
    p_value: float
    critical_values: dict
    table: NullTable
    warnings: tuple
    method: str = "simulation"


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """The RNG stream owned by replicate ``index`` of a table seeded ``seed``."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= int(seed) < MAX_SEED:
        raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _uniform_block(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """Uniform draws for replicates [start, stop), one row per replicate.

    Row i reproduces ``replicate_stream(seed, i).random(count)`` exactly;
    the Philox state is reassigned in place to skip per-replicate generator
    construction.
    """
    bitgen = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bitgen)
    out = np.empty((stop - start, count))
    for row, index in enumerate(range(start, stop)):
        state = bitgen.state
        state["state"]["key"][0] = seed
        state["state"]["key"][1] = index
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        bitgen.state = state
        out[row] = gen.random(count)
    return out


def _group_labels(sizes) -> np.ndarray:
    """Group index of each pooled slot when the groups are laid end to end."""
    return np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))), sizes)


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
    """Statistic of every row of a label matrix in pooled rank order.

    ``labels[r, p]`` is the group of replicate r's p-th smallest pooled value,
    so each ECDF value is a member count and each statistic a sum of lookups
    into the grid h(i/n), i = 0..n (h(i/2n), i = 0..2n, under ``mid``).
    ``ties`` holds each position's tie-block start and end, or None.  Terms
    sum in the observed-data path's order: for elementwise generators the
    values are bit-identical to it.  Grids are evaluated after the counts.
    """
    nrep, width = labels.shape
    mid = convention != RIGHT_CONTINUOUS
    member = [labels == g for g in range(len(sizes))]
    through = [np.cumsum(mask, axis=1, dtype=np.int32) for mask in member]  # members at or before
    padded = None if ties is None else [np.pad(c, ((0, 0), (1, 0))).ravel() for c in through]

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
        return raw - weights.equality_factor * generator.integral_0_1
    centering = generator.integral_sq_0_1 if kind == TAU else generator.integral_0_1
    return integrals[0] + integrals[1] - 2.0 * centering


def _batch_statistic(kind, generator, sizes, weights, data) -> np.ndarray:
    """Statistic of every row of tie-free pooled draws: one argsort, then the kernel."""
    labels = np.take(_group_labels(sizes), np.argsort(data, axis=1))
    return _rank_statistic(kind, generator, sizes, weights, labels)


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


def simulate_null(kind, generator, sizes, B: int, seed: int, weights=None,
                  workers: int = 1, transform=None) -> NullTable:
    """Simulate the null distribution of a statistic at the given sizes.

    Draws B independent replicate sets of standard uniforms (distribution-
    freeness makes the choice immaterial), computes the statistic for each
    and returns the sorted table.  ``transform`` applies a strictly
    increasing map to the draws before ranking; because the statistics are
    rank-based this must not change the table, which is the checkable form
    of distribution-freeness.

    Deterministic for a fixed seed regardless of ``workers``.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    seed = _check_seed(seed)
    total = int(sum(sizes))

    def run_chunk(start, stop):
        data = _uniform_block(seed, start, stop, total)
        if transform is not None:
            data = transform(data)
        return _batch_statistic(kind, generator, sizes, weights, data)

    return _chunked_table(kind, generator, sizes, weights, B, seed, workers, run_chunk)


def _chunked_table(kind, generator, sizes, weights, B, seed, workers, run_chunk) -> NullTable:
    """Run ``run_chunk(start, stop)`` over fixed replicate ranges; sort into a table."""
    if not isinstance(B, (int, np.integer)) or B < 1:
        raise InvalidParameterError(f"replicate count B must be >= 1, got {B!r}")
    if kind == TAU:
        # warm the antiderivative cache before any worker threads share it
        for s in set(sizes):
            generator.antiderivative_grid(s)
    tasks = [(a, min(a + CHUNK, B)) for a in range(0, B, CHUNK)]
    if workers <= 1 or len(tasks) == 1:
        parts = [run_chunk(*t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda t: run_chunk(*t), tasks))
    replicates = np.sort(np.concatenate(parts))
    replicates.setflags(write=False)
    return NullTable(kind, generator.name, sizes, replicates, seed,
                     None if weights is None else weights.weights)


def p_value(table: NullTable, observed) -> float:
    """Add-one upper-tail Monte Carlo p-value: (1 + #{t >= observed - tol}) / (B+1).

    ``observed`` is a :class:`StatisticValue` or a bare value.  Equal exact
    values summed in different orders land ulps apart; ``tol`` keeps the whole
    observed atom.  It bounds the error of summing non-negative terms,
    ``L * eps * |raw_functional|`` with ``L = (k - 1) * N + 2`` terms over k
    groups of N pooled observations; a bare value uses ``max(1, |value|)``.
    """
    reps = table.replicates
    if reps.size == 0:
        raise InvalidParameterError("null table is empty")
    stat = isinstance(observed, StatisticValue)
    value = observed.value if stat else float(observed)
    scale = abs(observed.raw_functional) if stat else max(1.0, abs(value))
    terms = (len(table.sample_sizes) - 1) * sum(table.sample_sizes) + 2
    tol = terms * np.finfo(float).eps * scale if math.isfinite(scale) else 0.0
    count_ge = reps.size - int(np.searchsorted(reps, value - tol, side="left"))
    return (1 + count_ge) / (reps.size + 1)


def _critical_rank(B: int, alpha: float):
    """Order-statistic rank for the empirical (1-alpha) quantile, with clamping."""
    if not (isinstance(alpha, (int, float, np.floating)) and 0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    # rank = ceil((1-alpha)(B+1)) computed as (B+1) - floor(alpha(B+1)); the
    # nudge keeps float rounding from shifting ranks at exact multiples
    rank = (B + 1) - math.floor(alpha * (B + 1) + 1e-9)
    clamped = rank > B or rank < 1
    return min(max(rank, 1), B), clamped


def critical_value(table: NullTable, alpha: float) -> float:
    """Empirical (1-alpha) quantile of the null table (upper-tail test)."""
    rank, clamped = _critical_rank(table.B, alpha)
    if clamped:
        warnings.warn(
            f"null table of size {table.B} is too small for level {alpha:g}; "
            f"critical value clamped to order statistic {rank}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(table.replicates[rank - 1])


_OBSERVED = {
    TWO_SAMPLE: lambda gen, samples, w, conv: two_sample_statistic(gen, samples[0], samples[1], conv),
    K_SAMPLE: lambda gen, samples, w, conv: k_sample_statistic(gen, samples, w, conv),
    TAU: lambda gen, samples, w, conv: tau_statistic(gen, samples[0], samples[1], conv),
}


def _tie_blocks(sorted_values):
    """Start and end (exclusive) of each position's tie block; None without ties."""
    lo = np.searchsorted(sorted_values, sorted_values, side="left")
    hi = np.searchsorted(sorted_values, sorted_values, side="right")
    return None if np.all(hi - lo == 1) else (lo, hi)


def _permutation_null(kind, generator, samples, weights, B, seed, workers, convention):
    """Null table from permutations of the pooled observed data.

    Fallback for tied data, where continuous uniforms miss the observed step
    functions.  Replicate i splits ``replicate_stream(seed, i).permutation(pooled)``
    into the groups; chunks go to the kernel with the pooled tie blocks.
    """
    pooled = np.concatenate([s.values for s in samples])
    sizes, total = tuple(s.n for s in samples), pooled.size
    order = np.argsort(pooled, kind="stable")
    ties, slot_group = _tie_blocks(pooled[order]), _group_labels(sizes)

    def run_chunk(start, stop):
        # permutation(pooled) == pooled[permutation(total)]: pooled value perm[q] lands in slot q
        perms = np.array([replicate_stream(seed, i).permutation(total) for i in range(start, stop)])
        slot = np.empty_like(perms)
        np.put_along_axis(slot, perms, np.arange(total), axis=1)
        labels = slot_group[slot[:, order]]
        return _rank_statistic(kind, generator, sizes, weights, labels, ties, convention)

    return _chunked_table(kind, generator, sizes, weights, B, seed, workers, run_chunk)


def run_test(kind, generator, samples, weights=None, B: int = DEFAULT_B, seed: int = 0,
             levels=(0.05, 0.01), convention: str = RIGHT_CONTINUOUS,
             workers: int = 1, method: str = "simulation",
             table: NullTable | None = None) -> TestReport:
    """Compute the observed statistic, calibrate its null, and report.

    The null table is simulated at the data's sample sizes (or built from
    permutations of the pooled data when ``method="permutation"``).  A
    pre-built ``table`` -- for example one loaded from a cache, which is
    bit-identical to regeneration -- skips the simulation; its kind, sizes,
    generator and weights must match.  Warnings surface cross-sample ties,
    unvalidated generators and levels the table is too small to resolve.
    """
    samples = [s if isinstance(s, Sample) else Sample(np.asarray(s, dtype=float)) for s in samples]
    sizes = tuple(s.n for s in samples)
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    if method not in ("simulation", "permutation"):
        raise InvalidParameterError(f"unknown method '{method}'; expected simulation or permutation")
    observed = _OBSERVED[kind](generator, samples, weights, convention)
    if table is not None:
        built = (table.statistic_kind, tuple(table.sample_sizes), table.generator_name,
                 None if table.weights is None else tuple(table.weights))
        wanted = (kind, sizes, generator.name, None if weights is None else weights.weights)
        if built != wanted:
            raise InvalidParameterError(
                f"null table is for (kind, sizes, generator, weights) = {built}, "
                f"but the data needs {wanted}"
            )
    elif method == "simulation":
        table = simulate_null(kind, generator, sizes, B=B, seed=seed,
                              weights=weights, workers=workers)
    else:
        table = _permutation_null(kind, generator, samples, weights, B,
                                  _check_seed(seed), workers, convention)
    notes = []
    if observed.tie_count > 0:
        notes.append(
            f"{observed.tie_count} cross-sample tie pair(s) observed; the "
            f"continuous-distribution assumption is violated"
        )
        if method == "simulation":
            notes.append("consider method='permutation' for tied data")
    if not generator.validated:
        notes.append(
            f"generator '{generator.name}' was constructed without validation; "
            f"characterization not guaranteed"
        )
    cvs = {}
    for alpha in levels:
        rank, clamped = _critical_rank(table.B, alpha)
        if clamped:
            notes.append(
                f"null table too small for level {alpha:g}; critical value clamped"
            )
        cvs[float(alpha)] = float(table.replicates[rank - 1])
    return TestReport(
        statistic=observed,
        p_value=p_value(table, observed),
        critical_values=cvs,
        table=table,
        warnings=tuple(notes),
        method=method,
    )


ALTERNATIVES = ("shift", "scale", "lehmann")


def parse_alternative(spec: str):
    """Parse an alternative spec 'shift:d' | 'scale:s' | 'lehmann:t'."""
    head, sep, arg = str(spec).strip().partition(":")
    if not sep or head not in ALTERNATIVES:
        raise InvalidParameterError(
            f"unknown alternative spec '{spec}'; expected one of "
            + ", ".join(f"{a}:<value>" for a in ALTERNATIVES)
        )
    try:
        value = float(arg)
    except ValueError:
        raise InvalidParameterError(f"offending token '{arg}' in alternative spec '{spec}'") from None
    if head == "scale" and value <= 0:
        raise InvalidParameterError("scale alternative needs a positive factor")
    if head == "lehmann" and value <= 0:
        raise InvalidParameterError("lehmann alternative needs a positive exponent")
    return head, value


def _apply_alternative(kind_param, uniforms):
    name, value = kind_param
    if name == "shift":
        return uniforms + value
    if name == "scale":
        return uniforms * value
    return uniforms ** (1.0 / value)  # lehmann: G = F^value on the uniform baseline


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, tag)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PowerStudyResult:
    """Estimated rejection rates with binomial standard errors."""

    statistic_kind: str
    generator_name: str
    alternative: str
    sample_sizes: tuple
    B_null: int
    B_power: int
    seed: int
    power: dict  # level -> (estimate, standard error)


def power_study(kind, generator, alternative, sizes, B_null: int, B_power: int,
                seed: int, levels=(0.05,), weights=None, workers: int = 1) -> PowerStudyResult:
    """Estimate rejection rates against a uniform-baseline alternative.

    All groups draw standard uniforms; the last group is pushed through the
    alternative (location shift, scale factor, or Lehmann exponent).  Each
    trial computes its own fresh null table, so the per-level rejection
    indicator is exactly Bernoulli at the nominal level when the alternative
    is degenerate.  The data uniforms do not depend on the alternative's
    parameter, so power curves over the parameter share one seed lattice.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    alt = parse_alternative(alternative) if isinstance(alternative, str) else alternative
    if not isinstance(B_power, (int, np.integer)) or B_power < 1:
        raise InvalidParameterError(f"B_power must be >= 1, got {B_power!r}")
    seed = _check_seed(seed)
    data_seed = _derive_seed(seed, 1)
    table_seed_base = _derive_seed(seed, 2)
    total = int(sum(sizes))
    splits = np.cumsum(sizes)[:-1]
    rejections = {float(a): 0 for a in levels}
    for trial in range(int(B_power)):
        draws = replicate_stream(data_seed, trial).random(total)
        parts = np.split(draws, splits)
        parts[-1] = _apply_alternative(alt, parts[-1])
        samples = [Sample(p, label=f"group{g}") for g, p in enumerate(parts)]
        report = run_test(kind, generator, samples, weights=weights, B=B_null,
                          seed=_derive_seed(table_seed_base, trial),
                          levels=levels, workers=workers)
        for a in levels:
            if report.p_value <= a:
                rejections[float(a)] += 1
    power = {}
    for a, count in rejections.items():
        est = count / B_power
        power[a] = (est, math.sqrt(est * (1.0 - est) / B_power))
    return PowerStudyResult(
        statistic_kind=kind,
        generator_name=generator.name,
        alternative=alt[0] + f":{alt[1]:g}",
        sample_sizes=sizes,
        B_null=int(B_null),
        B_power=int(B_power),
        seed=seed,
        power=power,
    )


def save_table(table: NullTable, path) -> None:
    """Write a null table as a versioned CSV cache file.

    Metadata travels in ``# key=value`` header comments; replicates are
    stored as hex floats so loading is bit-identical to regeneration.
    """
    weights = "-" if table.weights is None else ",".join(repr(w) for w in table.weights)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# format_version={TABLE_FORMAT_VERSION}\n")
        fh.write(f"# statistic_kind={table.statistic_kind}\n")
        fh.write(f"# generator_name={table.generator_name}\n")
        fh.write(f"# sample_sizes={','.join(str(s) for s in table.sample_sizes)}\n")
        fh.write(f"# weights={weights}\n")
        fh.write(f"# seed={table.seed}\n")
        fh.write(f"# B={table.B}\n")
        fh.write("replicate_hex\n")
        for v in table.replicates:
            fh.write(float(v).hex() + "\n")


def load_table(path) -> NullTable:
    """Load a table written by :func:`save_table`."""
    meta = {}
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif line != "replicate_hex":
                values.append(float.fromhex(line))
    version = meta.get("format_version")
    if version != str(TABLE_FORMAT_VERSION):
        raise ConvexGofError(
            f"null table file '{path}' has format version {version!r}, "
            f"expected {TABLE_FORMAT_VERSION}"
        )
    replicates = np.asarray(values)
    if replicates.size != int(meta["B"]):
        raise ConvexGofError(f"null table file '{path}' is corrupt: replicate count mismatch")
    replicates.setflags(write=False)
    weights = meta.get("weights", "-")
    return NullTable(
        statistic_kind=meta["statistic_kind"],
        generator_name=meta["generator_name"],
        sample_sizes=tuple(int(s) for s in meta["sample_sizes"].split(",")),
        replicates=replicates,
        seed=int(meta["seed"]),
        weights=None if weights == "-" else tuple(float(w) for w in weights.split(",")),
    )
