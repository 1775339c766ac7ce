"""Monte Carlo null calibration: tables, p-values, critical values, power.

Under the null the statistics are rank-based, so every assignment of the
pooled ranks to the groups is equally likely.  Every Monte Carlo table draws
those assignments one way: a table is built in chunks whose length depends
only on the pooled sample size, and chunk c argsorts a block of standard
uniforms from its own RNG stream, a Philox generator keyed by (seed, c), into
rows of group labels.  So a chunk's memory is bounded and a table is
reproducible from its seed.  The permutation null sends those rows to the
count-indexed kernel (``statistics``) with the pooled data's tie blocks and
ECDF convention; a simulated table is the permutation null without ties,
under the right-continuous convention.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .ecdf import RIGHT_CONTINUOUS, Sample
from .errors import ConvexGofError, InvalidParameterError
from .generators import _name_token
from .statistics import (
    K_SAMPLE,
    KINDS,
    TAU,
    TWO_SAMPLE,
    StatisticValue,
    WeightVector,
    _centering,
    _check_kind_and_generator,
    _group_labels,
    _rank_statistic,
    _tie_blocks,
    k_sample_statistic,
    tau_statistic,
    two_sample_statistic,
)

DEFAULT_B = 9999
CHUNK = 1024  # most replicates per work unit
CHUNK_ELEMENTS = 2**22  # most pooled draws per work unit, which bounds its memory
TABLE_FORMAT_VERSION = 3
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

    @property
    def identity(self) -> tuple:
        """(kind, generator name, sizes, weights, B, seed): the request it answers."""
        return (self.statistic_kind, self.generator_name, tuple(self.sample_sizes),
                self.weights, self.B, self.seed)


def _request_identity(kind, generator, sizes, weights=None, B=None, seed=None) -> tuple:
    """``NullTable.identity`` of the table a request builds (default weights: uniform)."""
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    return (kind, generator.name, sizes, None if weights is None else weights.weights, B, seed)


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
    """The RNG stream of work unit ``index`` under ``seed``.

    A work unit is one chunk of a null table (see :func:`_chunk_rows`) or the
    data of one power-study trial.
    """
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= int(seed) < MAX_SEED:
        raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _chunk_rows(total: int) -> int:
    """Replicates per table chunk at ``total`` pooled observations.

    A pure function of the sizes: it bounds a chunk's memory, and with the
    seed it fixes the stream each replicate draws from.
    """
    return min(CHUNK, max(1, CHUNK_ELEMENTS // total))


def _label_blocks(sizes, B, seed, transform=None):
    """Label rows of ``B`` null replicates in pooled rank order, one block per chunk.

    Chunk c draws a block of standard uniforms from ``replicate_stream(seed, c)``
    and argsorts each row, so row r assigns the pooled ranks to groups
    uniformly at random.  ``transform`` maps each block right after its draw.
    """
    if not isinstance(B, (int, np.integer)) or B < 1:
        raise InvalidParameterError(f"replicate count B must be >= 1, got {B!r}")
    total, slot_group = sum(sizes), _group_labels(sizes)
    rows = _chunk_rows(total)
    for chunk, start in enumerate(range(0, B, rows)):
        data = replicate_stream(seed, chunk).random((min(rows, B - start), total))
        if transform is not None:
            data = transform(data)
        yield slot_group[np.argsort(data, axis=1)]


def _table_values(kind, generator, sizes, weights, blocks, ties=None,
                  convention=RIGHT_CONTINUOUS) -> np.ndarray:
    """Sorted, centered statistics of every label row in ``blocks``; read-only."""
    raw = np.concatenate([_rank_statistic(kind, generator, sizes, weights, labels, ties, convention)
                          for labels in blocks])
    values = np.sort(raw - _centering(kind, generator, weights))
    values.setflags(write=False)
    return values


def simulate_null(kind, generator, sizes, B: int, seed: int, weights=None,
                  transform=None) -> NullTable:
    """Simulate the null distribution of a statistic at the given sizes.

    Draws B replicate sets of standard uniforms (distribution-freeness makes
    the choice immaterial) and returns their sorted statistics: the
    permutation null of tie-free data.  ``transform`` maps each chunk's draws
    before ranking; a strictly increasing map must not change the table,
    which is the checkable form of distribution-freeness.  Deterministic
    for a fixed seed.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    seed = _check_seed(seed)
    values = _table_values(kind, generator, sizes, weights, _label_blocks(sizes, B, seed, transform))
    return NullTable(kind, generator.name, sizes, values, seed,
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


def _critical(table: NullTable, alpha: float):
    """Empirical (1-alpha) quantile of the table, and whether its rank was clamped to 1..B."""
    if not (isinstance(alpha, (int, float, np.floating)) and 0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    # rank = ceil((1-alpha)(B+1)) computed as (B+1) - floor(alpha(B+1)); the
    # nudge keeps float rounding from shifting ranks at exact multiples
    rank = (table.B + 1) - math.floor(alpha * (table.B + 1) + 1e-9)
    return float(table.replicates[min(max(rank, 1), table.B) - 1]), not 1 <= rank <= table.B


def critical_value(table: NullTable, alpha: float) -> float:
    """Empirical (1-alpha) quantile of the null table (upper-tail test)."""
    value, clamped = _critical(table, alpha)
    if clamped:
        warnings.warn(f"null table of size {table.B} is too small for level {alpha:g}; "
                      f"critical value clamped", RuntimeWarning, stacklevel=2)
    return value


_OBSERVED = {
    TWO_SAMPLE: lambda gen, samples, w, conv: two_sample_statistic(gen, samples[0], samples[1], conv),
    K_SAMPLE: lambda gen, samples, w, conv: k_sample_statistic(gen, samples, w, conv),
    TAU: lambda gen, samples, w, conv: tau_statistic(gen, samples[0], samples[1], conv),
}


def run_test(kind, generator, samples, weights=None, B: int = DEFAULT_B, seed: int = 0,
             levels=(0.05, 0.01), convention: str = RIGHT_CONTINUOUS,
             method: str = "simulation", table: NullTable | None = None) -> TestReport:
    """Compute the observed statistic, calibrate its null, and report.

    The null table is simulated at the data's sample sizes (or built from
    permutations of the pooled data when ``method="permutation"``).  A
    pre-built ``table`` -- for example one loaded from a cache, which is
    bit-identical to regeneration -- skips the simulation; its kind, sizes,
    generator and weights must match.  A permutation null depends on the
    data's ties, so it never comes from a pre-built table.  Warnings surface
    cross-sample ties, unvalidated generators and levels the table is too
    small to resolve.
    """
    samples = [s if isinstance(s, Sample) else Sample(np.asarray(s, dtype=float)) for s in samples]
    sizes = tuple(s.n for s in samples)
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    if method not in ("simulation", "permutation"):
        raise InvalidParameterError(f"unknown method '{method}'; expected simulation or permutation")
    if method == "permutation" and table is not None:
        raise InvalidParameterError("method='permutation' builds its table from the data, not a pre-built one")
    observed = _OBSERVED[kind](generator, samples, weights, convention)
    if table is not None:
        built, wanted = table.identity[:4], _request_identity(kind, generator, sizes, weights)[:4]
        if built != wanted:
            raise InvalidParameterError(f"null table is for (kind, generator, sizes, weights) "
                                        f"= {built}, but the data needs {wanted}")
    elif method == "simulation":
        table = simulate_null(kind, generator, sizes, B=B, seed=seed, weights=weights)
    else:  # the pooled data's ranks, tie blocks included, shuffled by the same label draw
        seed, pooled = _check_seed(seed), np.sort(np.concatenate([s.values for s in samples]))
        values = _table_values(kind, generator, sizes, weights, _label_blocks(sizes, B, seed),
                               _tie_blocks(pooled), convention)
        table = NullTable(kind, generator.name, sizes, values, seed,
                          None if weights is None else weights.weights)
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
        cvs[float(alpha)], clamped = _critical(table, alpha)
        if clamped:
            notes.append(f"null table too small for level {alpha:g}; critical value clamped")
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
    if not math.isfinite(value):
        raise InvalidParameterError(f"alternative spec '{spec}' needs a finite value")
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
                seed: int, levels=(0.05,), weights=None) -> PowerStudyResult:
    """Estimate rejection rates against a uniform-baseline alternative.

    All groups draw standard uniforms; the last group is pushed through the
    alternative, a :func:`parse_alternative` spec string (location shift,
    scale factor, or Lehmann exponent).  Each trial computes its own fresh
    null table, so the per-level rejection indicator is exactly Bernoulli at
    the nominal level when the alternative is degenerate.  The data uniforms do not depend on the alternative's
    parameter, so power curves over the parameter share one seed lattice.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    alt = parse_alternative(alternative)
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
                          levels=levels)
        for a in levels:
            if report.p_value <= a:
                rejections[float(a)] += 1
    power = {}
    for a, count in rejections.items():
        est = count / B_power
        power[a] = (est, math.sqrt(est * (1.0 - est) / B_power))
    return PowerStudyResult(kind, generator.name, f"{alt[0]}:{_name_token(alt[1])}", sizes,
                            int(B_null), int(B_power), seed, power)


def save_table(table: NullTable, path) -> None:
    """Write a null table as a versioned CSV cache file.

    Metadata travels in ``# key=value`` header comments; replicates are
    stored as hex floats so loading is bit-identical to regeneration.  The
    file is written beside ``path`` and renamed into place, so readers never
    see a partial table.
    """
    header = {
        "format_version": TABLE_FORMAT_VERSION,
        "statistic_kind": table.statistic_kind,
        "generator_name": table.generator_name,
        "sample_sizes": ",".join(str(s) for s in table.sample_sizes),
        "weights": "-" if table.weights is None else ",".join(repr(w) for w in table.weights),
        "seed": table.seed,
        "B": table.B,
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(f"# {key}={value}\n" for key, value in header.items())
            fh.write("replicate_hex\n")
            fh.writelines(float(v).hex() + "\n" for v in table.replicates)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_table(path) -> NullTable:
    """Load a table written by :func:`save_table`.

    A truncated or unparsable file, a missing metadata key, or replicates
    that are miscounted, non-finite or unsorted raise :class:`ConvexGofError`
    naming the file.
    """
    meta, values = {}, []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.endswith("\n"):
            raise ValueError("its last line is cut off")
        for line in filter(None, map(str.strip, text.splitlines())):
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
            raise ValueError("replicate count mismatch")
        if not np.all(np.isfinite(replicates)) or np.any(replicates[1:] < replicates[:-1]):
            raise ValueError("replicates are not finite and sorted")
        weights = meta["weights"]
        table = NullTable(
            statistic_kind=meta["statistic_kind"],
            generator_name=meta["generator_name"],
            sample_sizes=tuple(int(s) for s in meta["sample_sizes"].split(",")),
            replicates=replicates,
            seed=int(meta["seed"]),
            weights=None if weights == "-" else tuple(float(w) for w in weights.split(",")),
        )
    except KeyError as exc:
        raise ConvexGofError(f"null table file '{path}' lacks metadata key {exc}") from None
    except ValueError as exc:
        raise ConvexGofError(f"null table file '{path}' is corrupt: {exc}") from None
    replicates.setflags(write=False)
    return table
