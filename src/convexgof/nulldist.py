"""Monte Carlo null calibration: tables, p-values, critical values, power.

Under the null the statistics are rank-based, so every assignment of the
pooled ranks to the groups is equally likely.  Every Monte Carlo table draws
those assignments one way: a table is built in chunks of at most 2**18 draws,
whose length depends only on the pooled sample size, and chunk c sorts a
block of random keys from its own RNG stream, an SFC64 generator seeded by
(seed, c), each tagged with its slot's group, into rows of group labels; a
row with two keys equal but for their tags is redrawn.  A chunk is the work
unit: it stays in cache, one thread draws, sorts and scores it, and the table
is the same whatever thread runs which chunk.  The calling thread runs chunk 0,
which leaves the generator grids in the memo of ``generators``, and then takes
the other chunks from a shared index, beside the pool's threads where N > 256.
Every table is the permutation null of a tie pattern: the rows go to the count-indexed
kernel (``statistics``) with the pooled data's tie-block lengths and ECDF convention, which act
only on ties; a tied table's identity carries both as its tie key.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .ecdf import RIGHT_CONTINUOUS, Sample
from .errors import ConvexGofError, InvalidParameterError
from .generators import _check_int, _name_token
from .statistics import (
    CHUNK,
    CHUNK_ELEMENTS,
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
    _scratch,
    _tie_lengths,
    k_sample_statistic,
    tau_statistic,
    two_sample_statistic,
)

DEFAULT_B = 9999
TABLE_FORMAT_VERSION = 8
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
    ties: str | None = None  # the tie key of tied data (see :func:`_tie_pattern`); None without ties

    @property
    def B(self) -> int:
        return self.replicates.size

    @property
    def identity(self) -> tuple:
        """(kind, generator name, sizes, weights, B, seed), and a tied table's tie key: the request it answers."""
        return (self.statistic_kind, self.generator_name, tuple(self.sample_sizes),
                self.weights, self.B, self.seed) + ((self.ties,) if self.ties else ())


def _tie_pattern(ties, total, convention):
    """The checked tie-block lengths ``ties`` in pooled order, as the kernel takes them, and their tie key
    '<convention>:<sha256 of the lengths as little-endian int64>'; (None, None) without ties (blocks of one)."""
    if ties is None:
        return None, None
    lengths = np.asarray(ties)
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not np.all(lengths >= 1) or lengths.sum() != total:
        raise InvalidParameterError(f"tie-block lengths must be integers >= 1 that sum to the {total} pooled values")
    if lengths.size == total:  # blocks of one
        return None, None
    lengths = lengths.astype("<i8", copy=False)
    return lengths, f"{convention}:{hashlib.sha256(lengths.tobytes()).hexdigest()}"


def _request_identity(kind, generator, sizes, weights, B, seed, ties, convention) -> tuple:
    """``NullTable.identity`` of the table a request builds (default weights: uniform)."""
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    key = _tie_pattern(ties, sum(sizes), convention)[1]
    return (kind, generator.name, sizes, None if weights is None else weights.weights, B, seed) + ((key,) if key else ())


def _pooled_ties(samples):  # the tie-block lengths of the pooled samples, None without ties: the ``ties`` of their null
    return _tie_lengths(np.sort(np.concatenate([s.values for s in samples])))


@dataclass(frozen=True)
class TestReport:
    """Observed statistic, Monte Carlo p-value and critical values."""

    statistic: StatisticValue
    p_value: float
    critical_values: dict
    table: NullTable
    warnings: tuple
    method = property(lambda self: "permutation" if self.table.ties else "simulation")  # as the table's tie key says


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """The RNG stream ``index`` under ``seed``: of one chunk of a null table (see
    :func:`_chunk_rows`), or of the data of one power-study trial."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, index])))


def _check_seed(seed) -> int:
    return _check_int(seed, "seed must be an unsigned 64-bit integer", 0, MAX_SEED)


def _chunk_rows(total: int) -> int:
    """Replicates per chunk of a simulated or permutation table at ``total`` pooled observations: a
    pure function of the sizes, so it bounds a chunk's memory and, with the seed, fixes each replicate's stream."""
    return min(CHUNK, max(1, CHUNK_ELEMENTS // total))


@functools.cache
def _unit_pool():
    """One thread per CPU the process may use, less the calling thread's; None on one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so a one-unit table never imports it
        return ThreadPoolExecutor(cpus - 1, thread_name_prefix="convexgof-unit")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unit_pool.cache_clear)  # a forked child has no pool threads


def _label_blocks(sizes, B, seed, transform=None):
    """Work units of ``B`` null replicates: per chunk, a callable that returns its label rows.

    Chunk c's unit takes keys from the raw words of ``replicate_stream(seed, c)``,
    each word's low 32 bits then its high 32 bits, or whole words where a row
    of N keys would expect a tie more than once in 32 rows (N**2 > 2**(28 - tag)).
    Each slot's group goes in the low ``tag`` bits (the fewest, at least one,
    that hold every group) and each row is sorted in place.  Rows in which two
    keys share their untagged bits are redrawn, in row order, from the stream's
    continuation until none is, so each row assigns the pooled ranks to groups
    exactly uniformly.  A unit touches only its own stream and arrays, so any
    thread may run it.  ``transform`` selects the reference path, an iterator of
    the units, each drawn and scored on the calling thread: it is called once per
    chunk with the uniforms ((key >> tag) + 0.5) * 2**(tag - width) of the final
    rows, which are then argsorted; with 32-bit keys they are exact, so a strictly
    increasing map gives the same labels.
    """
    B = _check_int(B, "replicate count B must be >= 1")
    total, slot_group = sum(sizes), _group_labels(sizes)
    tag = max(1, (len(sizes) - 1).bit_length())
    dtype = np.dtype("<u8" if total * total > 2 ** (28 - tag) else "<u4")
    rows, low = _chunk_rows(total), dtype.type((1 << tag) - 1)
    tags = slot_group.astype(dtype)

    def drawn(bit_generator, n):  # the stream's next n rows of untagged keys
        words = bit_generator.random_raw(-(-n * total * dtype.itemsize // 8)).astype("<u8", copy=False)
        return words.view(dtype)[:n * total].reshape(n, total)

    def tied(keys):  # tags and sorts the rows in place; the indices of those with two keys equal but for their tags
        keys &= ~low
        keys |= tags
        keys.sort(axis=1)
        gaps = np.bitwise_xor(keys[:, 1:], keys[:, :-1], out=_scratch("block", (len(keys), total - 1), dtype))
        flags = np.less_equal(gaps, low, out=_scratch("flags", gaps.shape, bool))
        return np.flatnonzero(flags.any() and flags.any(axis=1))  # per row only once some row is tied

    def unit(chunk, n):
        bit_generator = replicate_stream(seed, chunk).bit_generator
        keys = drawn(bit_generator, n)
        ranked = keys if transform is None else keys.copy()
        redo = tied(ranked)
        while redo.size:
            fresh = drawn(bit_generator, redo.size)
            keys[redo] = fresh
            again = tied(fresh)
            ranked[redo] = fresh
            redo = redo[again]
        if transform is not None:  # the tags lie below the uniforms' bits
            uniforms = ((keys >> tag) + 0.5) * 2.0 ** (tag - 8 * dtype.itemsize)
            return slot_group[np.argsort(transform(uniforms), axis=1)]
        ranked &= low
        return ranked.astype(slot_group.dtype)

    units = [functools.partial(unit, chunk, min(rows, B - start))
             for chunk, start in enumerate(range(0, B, rows))]
    return units if transform is None else iter(units)


def _table_values(generator, sizes, weights, units, ties=None, convention=RIGHT_CONTINUOUS) -> np.ndarray:
    """Sorted, centered statistics of the label rows of every work unit in ``units``; read-only.

    Each row scores as the kernel's one pair sum less ``_centering``, which the generator's type (tau
    for a log-convex one) and ``weights`` (None for the two-group kinds) decide.  The calling thread runs
    the first unit, which builds every grid the memo lacks and keeps them all, then takes the rest from
    one shared index, beside the pool's threads where ``units`` is a list whose units ``CHUNK_ELEMENTS``
    caps (N > 256); they only read those grids, unless a table built meanwhile on another thread fills
    the memo past its bound.  Results are kept by unit index.  After a unit raises, no thread takes
    another, and its error is raised once every thread has stopped.
    """
    lock, failed = threading.Lock(), []

    def take(indexed):  # scores the shared (index, unit) pairs until none is left or a unit has raised
        while not failed:
            with lock:
                i, unit = next(indexed, (0, None))
            if unit is None:
                return
            try:
                raw[i] = _rank_statistic(generator, sizes, weights, unit(), ties, convention)
            except BaseException as exc:
                failed.append(exc)

    indexed = enumerate(units)
    raw = {0: _rank_statistic(generator, sizes, weights, next(indexed)[1](), ties, convention)}
    pool = _unit_pool() if isinstance(units, list) and len(units) > 1 and _chunk_rows(sum(sizes)) < CHUNK else None
    pending = () if pool is None else pool.map(take, [indexed] * (len(units) - 1))  # one per unit: any pool size is used
    take(indexed)
    list(pending)  # returns once every pool thread has stopped taking units
    if failed:
        raise failed[0]
    values = np.sort(np.concatenate([raw[i] for i in range(len(raw))]) - _centering(generator, weights))
    values.setflags(write=False)
    return values


def simulate_null(kind, generator, sizes, B: int, seed: int, weights=None, ties=None,
                  convention: str = RIGHT_CONTINUOUS, transform=None) -> NullTable:
    """The permutation null of a statistic at the given sizes and tie pattern.

    Assigns the pooled ranks to the groups B times at random and returns the
    sorted statistics.  ``ties`` lists the pooled data's tie-block lengths in
    sorted order (``np.unique(pooled, return_counts=True)[1]``), which go checked
    but unexpanded to the kernel, counted by the ``convention``; without ties
    (None, or blocks of one) neither matters, and the table is that of ranked
    uniforms.  ``transform`` maps each chunk's uniforms, which are then
    argsorted (the reference path); a strictly increasing map must give the
    table drawn without it, the checkable form of distribution-freeness.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    seed = _check_seed(seed)
    ties, key = _tie_pattern(ties, sum(sizes), convention)
    values = _table_values(generator, sizes, weights, _label_blocks(sizes, B, seed, transform), ties, convention)
    return NullTable(kind, generator.name, sizes, values, seed,
                     None if weights is None else weights.weights, key)


def p_value(table: NullTable, observed) -> float:
    """Add-one upper-tail Monte Carlo p-value: (1 + #{t >= observed - tol}) / (B+1).

    ``observed`` is a :class:`StatisticValue` or a bare value, not NaN.  Equal exact
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
    if math.isnan(value):  # it would compare below no replicate: the smallest p-value there is
        raise InvalidParameterError("observed statistic is NaN")
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


def run_test(kind, generator, samples, weights=None, B: int = DEFAULT_B, seed: int = 0,
             levels=(0.05, 0.01), convention: str = RIGHT_CONTINUOUS,
             table: NullTable | None = None) -> TestReport:
    """Compute the observed statistic, calibrate its null, and report.

    The null table is :func:`simulate_null`'s at the data's sizes and tie
    pattern: the permutation null of the pooled data.  A pre-built ``table``
    -- for example one loaded from a cache, which is bit-identical to
    regeneration -- skips the build; it must answer the same request but for B
    and seed.  Warnings surface cross-sample ties, unvalidated generators and
    levels the table is too small to resolve.
    """
    samples = [s if isinstance(s, Sample) else Sample(np.asarray(s, dtype=float)) for s in samples]
    sizes, weights = _check_kind_and_generator(kind, generator, [s.n for s in samples], weights)
    if kind == K_SAMPLE:
        observed = k_sample_statistic(generator, samples, weights, convention)
    else:
        observed = (tau_statistic if kind == TAU else two_sample_statistic)(generator, *samples, convention)
    ties = _pooled_ties(samples)
    if table is None:
        table = simulate_null(kind, generator, sizes, B, seed, weights, ties, convention)
    elif table.identity != (wanted := _request_identity(kind, generator, sizes, weights, table.B, table.seed,
                                                        ties, convention)):
        raise InvalidParameterError(f"null table is for (kind, generator, sizes, weights, B, seed[, ties]) "
                                    f"= {table.identity}, but the data needs {wanted}")
    notes = []
    if observed.tie_count > 0:
        notes.append(f"{observed.tie_count} cross-sample tie pair(s) observed; the "
                     f"continuous-distribution assumption is violated")
    if not generator.validated:
        notes.append(f"generator '{generator.name}' was constructed without validation; "
                     f"characterization not guaranteed")
    cvs = {}
    for alpha in levels:
        value, clamped = _critical(table, alpha)
        if clamped and float(alpha) not in cvs:
            notes.append(f"null table too small for level {alpha:g}; critical value clamped")
        cvs[float(alpha)] = value
    return TestReport(statistic=observed, p_value=p_value(table, observed), critical_values=cvs,
                      table=table, warnings=tuple(notes))


ALTERNATIVES = ("shift", "scale", "lehmann")


def parse_alternative(spec: str):
    """Parse an alternative spec 'shift:d' | 'scale:s' | 'lehmann:t'."""
    head, sep, arg = str(spec).strip().partition(":")
    if not sep or head not in ALTERNATIVES:
        raise InvalidParameterError(f"unknown alternative spec '{spec}'; expected one of "
                                    + ", ".join(f"{a}:<value>" for a in ALTERNATIVES))
    try:
        value = float(arg)
    except ValueError:
        raise InvalidParameterError(f"offending token '{arg}' in alternative spec '{spec}'") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"alternative spec '{spec}' needs a finite value")
    if head != "shift" and value <= 0:
        raise InvalidParameterError(f"{head} alternative needs a positive "
                                    f"{'factor' if head == 'scale' else 'exponent'}")
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
    """Estimated rejection rates with binomial standard errors, and the
    distinct warnings of the trials' reports (a level the null tables cannot
    resolve, say)."""

    statistic_kind: str
    generator_name: str
    alternative: str
    sample_sizes: tuple
    B_null: int
    B_power: int
    seed: int
    power: dict  # level -> (estimate, standard error)
    warnings: tuple = ()


def power_study(kind, generator, alternative, sizes, B_null: int, B_power: int,
                seed: int, levels=(0.05,), weights=None) -> PowerStudyResult:
    """Estimate rejection rates against a uniform-baseline alternative.

    All groups draw standard uniforms; the last group is pushed through the
    alternative, a :func:`parse_alternative` spec string (location shift,
    scale factor, or Lehmann exponent).  Each trial computes its own fresh
    null table, so the per-level rejection indicator is exactly Bernoulli at
    the nominal level when the alternative is degenerate.  The data uniforms
    do not depend on the alternative's parameter, so power curves over the
    parameter share one seed lattice.
    """
    sizes, weights = _check_kind_and_generator(kind, generator, sizes, weights)
    alt = parse_alternative(alternative)
    B_power = _check_int(B_power, "B_power must be >= 1")
    seed = _check_seed(seed)
    data_seed, table_seed_base = _derive_seed(seed, 1), _derive_seed(seed, 2)
    rejections, notes = {float(a): 0 for a in levels}, {}
    for trial in range(B_power):
        parts = np.split(replicate_stream(data_seed, trial).random(sum(sizes)), np.cumsum(sizes)[:-1])
        parts[-1] = _apply_alternative(alt, parts[-1])
        samples = [Sample(p, label=f"group{g}") for g, p in enumerate(parts)]
        report = run_test(kind, generator, samples, weights=weights, B=B_null,
                          seed=_derive_seed(table_seed_base, trial), levels=levels)
        notes.update(dict.fromkeys(report.warnings))
        for a in rejections:  # a repeated level counts once
            if report.p_value <= a:
                rejections[a] += 1
    estimates = {a: count / B_power for a, count in rejections.items()}
    power = {a: (est, math.sqrt(est * (1.0 - est) / B_power)) for a, est in estimates.items()}
    return PowerStudyResult(kind, generator.name, f"{alt[0]}:{_name_token(alt[1])}", sizes,
                            int(B_null), B_power, seed, power, tuple(notes))


def save_table(table: NullTable, path) -> None:
    """Write a null table as a versioned CSV cache file.

    The file is a header block of ``# key=value`` lines, a ``replicate_hex``
    line, and a body of one replicate per line, the 16 hex digits of its
    big-endian IEEE-754 bits, so loading is bit-identical to regeneration.
    The header's last key, ``sha256``, is the digest of those bits; a tied
    table's tie key comes before it, as ``ties``.
    It is written beside ``path`` and renamed into place, so readers never
    see a partial table.  A header value that :func:`load_table` would not
    read back as written (one with a line break, or leading or trailing
    whitespace) raises ``InvalidParameterError`` before anything is written.
    """
    words = table.replicates.astype(">f8").tobytes()
    header = {
        "format_version": TABLE_FORMAT_VERSION,
        "statistic_kind": table.statistic_kind,
        "generator_name": table.generator_name,
        "sample_sizes": ",".join(str(s) for s in table.sample_sizes),
        "weights": "-" if table.weights is None else ",".join(repr(w) for w in table.weights),
        "seed": table.seed,
        "B": table.B,
        **({"ties": table.ties} if table.ties else {}),
        "sha256": hashlib.sha256(words).hexdigest(),
    }
    for key, value in header.items():
        text = str(value)
        if text != text.strip() or "\n" in text or "\r" in text:
            raise InvalidParameterError(f"null table {key} {text!r} would not load back as written")
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(f"# {key}={value}\n" for key, value in header.items())
            fh.write("replicate_hex\n" + words.hex("\n", 8) + "\n" * bool(table.B))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_table(path) -> NullTable:
    """Load a table written by :func:`save_table`.

    Its first line that is exactly ``replicate_hex`` ends the ``# key=value``
    header.  A cut-off file, any other header line, a repeated, missing or bad key,
    a body that is not ``B`` lines of 16 hex digits (the first bad line is named),
    non-finite or unsorted replicates, or a body whose bits do not have the header's
    ``sha256`` digest raise :class:`ConvexGofError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.endswith("\n"):
            raise ValueError("its last line is cut off")
        head, found, body = ("\n" + text).partition("\nreplicate_hex\n")  # the marker may be line 1
        if not found:
            raise ValueError("it has no 'replicate_hex' line")
        meta = {}
        for line in head.split("\n")[1:]:
            key, eq, value = line[1:].partition("=")
            if not (line.startswith("#") and eq):
                raise ValueError(f"header line {line!r} is not '# key=value'")
            if key.strip() in meta:
                raise ValueError(f"header key {key.strip()!r} is repeated")
            meta[key.strip()] = value.strip()
        version = meta.get("format_version")
        if version != str(TABLE_FORMAT_VERSION):
            raise ConvexGofError(f"null table file '{path}' has format version {version!r}, "
                                 f"expected {TABLE_FORMAT_VERSION}")
        count = int(meta["B"])
        try:  # fromhex skips whitespace, so every line must first be 16 characters
            if len(body) != 17 * count or body[16::17] != "\n" * count:
                raise ValueError
            words = bytes.fromhex(body)
            replicates = np.frombuffer(words, ">f8", count).astype(float)
        except ValueError:
            bad = [(i, w) for i, w in enumerate(body.split("\n")[:-1], 1) if len(w) != 16 or w.strip("0123456789abcdef")]
            raise ValueError(f"body line {bad[0][0]} {bad[0][1]!r} is not 16 lowercase hex digits" if bad
                             else "replicate count mismatch") from None
        if not np.all(np.isfinite(replicates)) or np.any(replicates[1:] < replicates[:-1]):
            raise ValueError("replicates are not finite and sorted")
        if hashlib.sha256(words).hexdigest() != meta["sha256"]:
            raise ValueError("replicates do not match the header's sha256 digest")
        weights = None if meta["weights"] == "-" else tuple(float(w) for w in meta["weights"].split(","))
        table = NullTable(meta["statistic_kind"], meta["generator_name"],
                          tuple(int(s) for s in meta["sample_sizes"].split(",")), replicates, int(meta["seed"]),
                          weights, meta.get("ties") or None)
    except KeyError as exc:
        raise ConvexGofError(f"null table file '{path}' lacks metadata key {exc}") from None
    except ValueError as exc:
        raise ConvexGofError(f"null table file '{path}' is corrupt: {exc}") from None
    replicates.setflags(write=False)
    return table
