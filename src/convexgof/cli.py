"""Command-line front end.

Exit codes: 0 success, 1 verification battery failure, 2 configuration
error (including a path that cannot be read or written), 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import errno
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__, oracle
from .ecdf import CONVENTIONS, RIGHT_CONTINUOUS, read_sample
from .errors import (
    ConvexGofError,
    DataIngestionError,
    GeneratorSpecError,
    InvalidParameterError,
    NumericalError,
)
from .generators import parse_generator_spec
from .nulldist import (
    DEFAULT_B,
    K_SAMPLE,
    KINDS,
    TAU,
    TWO_SAMPLE,
    _pooled_ties,
    _request_identity,
    load_table,
    power_study,
    run_test,
    save_table,
    simulate_null,
)
from .statistics import WeightVector

EXIT_OK = 0
EXIT_BATTERY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

CACHE_ENV = "CONVEXGOF_CACHE_DIR"


def _parse_list(text, what, convert, kind):
    """The comma-separated tokens of ``text`` through ``convert``; a bad token is a spec error."""
    try:
        return tuple(convert(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise GeneratorSpecError(f"offending token in {what} '{text}': not {kind}") from None


def _parse_levels(text):
    levels = _parse_list(text, "levels", float, "numbers")
    if not levels or any(not 0.0 < a < 1.0 for a in levels):
        raise InvalidParameterError(f"levels must lie in (0, 1), got '{text}'")
    return levels


def _parse_weights(text):
    return None if text is None else WeightVector(_parse_list(text, "weights", float, "numbers"))


def _parse_sizes(text):
    sizes = _parse_list(text, "sizes", int, "integers")
    if not sizes:
        raise InvalidParameterError(f"no sizes given in '{text}'")
    return sizes


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error line, as for every other failure, not the usage block
        raise InvalidParameterError(f"{self.prog}: {message}")


@functools.cache  # built once per process: building it costs about a third of a cached request
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, shared by every :func:`run` call of the process."""
    parser = _Parser(
        prog="convexgof",
        description="Distribution-free two- and k-sample tests from convex generators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, levels="0.05,0.01"):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (unsigned 64-bit)")
        if levels:
            p.add_argument("--levels", default=levels, help="comma-separated test levels")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress the timestamp so output is byte-reproducible")

    def add_table(p):
        p.add_argument("--B", type=int, default=DEFAULT_B, help="Monte Carlo replicates")
        p.add_argument("--cache-dir", default=None, help="null-table cache directory")
        p.add_argument("--no-cache", action="store_true", help="bypass the null-table cache")

    def add_test_common(p):
        add_common(p)
        add_table(p)
        p.add_argument("--convention", choices=CONVENTIONS, default=RIGHT_CONTINUOUS)
        p.add_argument("--method", choices=("simulation", "permutation"),
                       help="accepted and ignored: every test uses the permutation null of its data's ties")

    p2 = sub.add_parser("test2", help="two-sample test with a convex generator")
    p2.add_argument("--h", "--generator", dest="generator_spec", required=True,
                    help="generator spec, e.g. power:2")
    p2.add_argument("--x", required=True, help="first sample file")
    p2.add_argument("--y", required=True, help="second sample file")
    add_test_common(p2)

    pk = sub.add_parser("testk", help="k-sample test with a convex generator")
    pk.add_argument("--h", "--generator", dest="generator_spec", required=True)
    pk.add_argument("--inputs", nargs="+", required=True, help="sample files (>= 2)")
    pk.add_argument("--weights", default=None, help="comma-separated positive weights summing to 1")
    add_test_common(pk)

    pt = sub.add_parser("tau", help="two-sample test with a log-convex generator")
    pt.add_argument("--xi", "--generator", dest="generator_spec", required=True,
                    help="generator spec, e.g. expsq:1")
    pt.add_argument("--x", required=True)
    pt.add_argument("--y", required=True)
    add_test_common(pt)

    pn = sub.add_parser("null-table", help="simulate and store a null table")
    pn.add_argument("--kind", choices=KINDS, required=True)
    pn.add_argument("--generator", dest="generator_spec", required=True)
    pn.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    pn.add_argument("--weights", default=None)
    pn.add_argument("--out", default=None, help="output file (default: cache directory)")
    add_common(pn, levels=None)
    add_table(pn)

    pp = sub.add_parser("power", help="power study against a uniform-baseline alternative")
    pp.add_argument("--kind", choices=KINDS, default=TWO_SAMPLE)
    pp.add_argument("--generator", dest="generator_spec", required=True)
    pp.add_argument("--alternative", required=True, help="shift:d | scale:s | lehmann:t")
    pp.add_argument("--sizes", required=True)
    pp.add_argument("--weights", default=None)
    pp.add_argument("--B-null", type=int, default=999, dest="B_null")
    pp.add_argument("--B-power", type=int, default=500, dest="B_power")
    add_common(pp, levels="0.05")

    pv = sub.add_parser("verify", help="run the population-level oracle battery")
    pv.add_argument("--csv", default=None, help="also export battery results to this CSV file")
    return parser


def _generator_for(kind, spec):
    """The generator of ``spec`` (see :func:`parse_generator_spec`, which keeps it for the
    process), once its family fits ``kind``: a mismatch is rejected before any quadrature."""
    family = str(spec).strip().partition(":")[0]
    if kind == TAU and family in ("power", "poly", "bernstein"):
        raise GeneratorSpecError(f"generator spec '{spec}' is not log-convex; tau needs e.g. expsq:alpha")
    if kind != TAU and family == "expsq":
        raise GeneratorSpecError(f"generator spec '{spec}' is not a convex generator; use power/poly/bernstein")
    return parse_generator_spec(spec)


def _cache_path(args, identity):
    """Cache file named by the hash of the request ``identity`` alone; None with --no-cache."""
    if args.no_cache:
        return None
    xdg = os.environ.get("XDG_CACHE_HOME", "")  # the XDG spec calls a relative one invalid: it counts as unset
    base = (args.cache_dir or os.environ.get(CACHE_ENV)  # an empty variable counts as unset
            or Path(xdg if os.path.isabs(xdg) else Path.home() / ".cache") / "convexgof")
    key = repr((identity, 8))  # 8: the format at which keys stopped changing; load_table rejects other formats
    return Path(base) / f"{hashlib.sha256(key.encode('utf-8')).hexdigest()}.csv"


@contextlib.contextmanager
def _naming(flag, path):
    """Re-raise an ``OSError`` as one that names ``flag`` and the user's ``path``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{flag} '{path}': {exc.strerror or exc}") from None


def _table_via_cache(args, kind, generator, sizes, weights, err, ties=None, convention=RIGHT_CONTINUOUS):
    """The requested table, whether it came from the cache, and its cache file.

    A missing table is built and cached.  A file that fails to load, or holds
    a table built for another request (its tie key too), is a miss.
    """
    wanted = _request_identity(kind, generator, sizes, weights, args.B, args.seed, ties, convention)
    path = _cache_path(args, wanted)
    with _naming("--cache-dir" if args.cache_dir else "cache directory", path and path.parent):
        if path is not None and path.exists():
            try:
                cached = load_table(path)
            except ConvexGofError as exc:
                err.write(f"warning: {exc}; rebuilding it\n")
            else:
                if cached.identity == wanted:
                    return cached, True, path
                err.write(f"warning: null table file '{path}' holds (kind, generator, sizes, "
                          f"weights, B, seed[, ties]) = {cached.identity}, not {wanted}; rebuilding it\n")
        if path is not None:  # a directory that cannot be made fails before the build, not after it
            path.parent.mkdir(parents=True, exist_ok=True)
        table = simulate_null(kind, generator, sizes, args.B, args.seed, weights, ties, convention)
        if path is not None:
            save_table(table, path)
    return table, False, path


def _report_dict(args, kind, report, inputs):
    table = report.table
    return {
        "command": args.command,
        "version": __version__,
        "kind": kind,
        "generator": args.generator_spec,
        "inputs": list(inputs),
        "convention": args.convention,
        "method": report.method,
        "statistic": dataclasses.asdict(report.statistic),
        "p_value": report.p_value,
        "critical_values": {f"{a:g}": v for a, v in report.critical_values.items()},
        "null_table": {
            "kind": table.statistic_kind,
            "B": table.B,
            "seed": table.seed,
            "sizes": list(table.sample_sizes),
            "weights": None if table.weights is None else list(table.weights),
            "generator_name": table.generator_name,
        },
        "warnings": list(report.warnings),
    }


def _emit(args, out, doc, csv_rows):
    """Write ``doc`` as JSON, or the rows ``csv_rows(doc)`` as CSV.

    ``doc`` gets a timestamp unless ``--deterministic``.
    """
    if not args.deterministic:
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.output_format == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
    else:
        csv.writer(out).writerows(csv_rows(doc))


def _report_csv(doc):
    stat = doc["statistic"]
    header = ["command", "generator", "value", "raw_functional", "centering_constant",
              "tie_count", "p_value"]
    row = [doc["command"], doc["generator"], repr(stat["value"]), repr(stat["raw_functional"]),
           repr(stat["centering_constant"]), stat["tie_count"], repr(doc["p_value"])]
    for level, cv in doc["critical_values"].items():
        header.append(f"critical_value_{level}")
        row.append(repr(cv))
    header += ["B", "seed", "warnings"]
    row += [doc["null_table"]["B"], doc["null_table"]["seed"], ";".join(doc["warnings"])]
    return [header, row]


def _cmd_test(args, out, err):
    kind = {"test2": TWO_SAMPLE, "tau": TAU, "testk": K_SAMPLE}[args.command]
    if kind == K_SAMPLE:
        paths = list(args.inputs)
        if len(paths) < 2:
            raise InvalidParameterError("testk requires at least two samples")
        weights = _parse_weights(args.weights)
    else:
        paths, weights = [args.x, args.y], None
    generator = _generator_for(kind, args.generator_spec)
    samples = [read_sample(p) for p in paths]
    levels = _parse_levels(args.levels)
    # cache hits are bit-identical to regeneration, so reports are too
    table = _table_via_cache(args, kind, generator, tuple(s.n for s in samples), weights, err,
                             _pooled_ties(samples), args.convention)[0]
    report = run_test(kind, generator, samples, weights=weights, levels=levels, convention=args.convention, table=table)
    _emit(args, out, _report_dict(args, kind, report, paths), _report_csv)
    return EXIT_OK


def _cmd_null_table(args, out, err):
    if args.no_cache and args.out is None:
        raise InvalidParameterError("--no-cache requires --out to store the table")
    if args.out is not None:  # a directory --out, or one under a missing directory or a file, fails before the build
        with _naming("--out", args.out):
            os.stat(os.path.join(os.path.dirname(args.out), "."))
            if os.path.isdir(args.out) and not os.path.islink(args.out):  # os.replace replaces a link
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    kind = args.kind
    generator = _generator_for(kind, args.generator_spec)
    sizes = _parse_sizes(args.sizes)
    weights = _parse_weights(args.weights)
    table, cached, path = _table_via_cache(args, kind, generator, sizes, weights, err)
    location = str(path) if args.out is None else args.out
    if args.out is not None:
        with _naming("--out", args.out):
            save_table(table, args.out)
    doc = {
        "command": "null-table",
        "version": __version__,
        "kind": kind,
        "generator": args.generator_spec,
        "sizes": list(sizes),
        "weights": None if weights is None else list(weights.weights),
        "B": table.B,
        "seed": table.seed,
        "cache_hit": cached,
        "path": location,
    }

    def csv_rows(doc):  # one column per key, lists joined by commas
        return [list(doc), [",".join(map(str, v)) if isinstance(v, list) else v for v in doc.values()]]

    _emit(args, out, doc, csv_rows)
    return EXIT_OK


def _cmd_power(args, out):
    kind = args.kind
    generator = _generator_for(kind, args.generator_spec)
    sizes = _parse_sizes(args.sizes)
    weights = _parse_weights(args.weights)
    levels = _parse_levels(args.levels)
    result = power_study(kind, generator, args.alternative, sizes,
                         B_null=args.B_null, B_power=args.B_power, seed=args.seed,
                         levels=levels, weights=weights)
    doc = {
        "command": "power",
        "version": __version__,
        "kind": kind,
        "generator": args.generator_spec,
        "alternative": result.alternative,
        "sizes": list(result.sample_sizes),
        "B_null": result.B_null,
        "B_power": result.B_power,
        "seed": result.seed,
        "power": {f"{a:g}": {"estimate": est, "std_error": se}
                  for a, (est, se) in sorted(result.power.items())},
        "warnings": list(result.warnings),
    }
    rows = [["level", "power", "std_error", "alternative", "B_null", "B_power", "seed", "warnings"]]
    rows += [[a, repr(est), repr(se), result.alternative, result.B_null, result.B_power, result.seed,
              ";".join(result.warnings)] for a, (est, se) in sorted(result.power.items())]
    _emit(args, out, doc, lambda doc: rows)
    return EXIT_OK


def _cmd_verify(args, out):
    cases = oracle.run_battery()
    failed = sum(not case.passed for case in cases)
    for case in cases:
        out.write(f"[{'PASS' if case.passed else 'FAIL'}] {case.case_id} value={case.value:.6e} "
                  f"tolerance={case.tolerance:g}\n")
    out.write(f"{len(cases) - failed}/{len(cases)} oracle checks passed\n")
    if args.csv is not None:
        with _naming("--csv", args.csv):
            oracle.battery_to_csv(cases, args.csv)
    return EXIT_OK if failed == 0 else EXIT_BATTERY_FAIL


def run(argv=None, out=None, err=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("test2", "testk", "tau"):
            return _cmd_test(args, out, err)
        if args.command == "null-table":
            return _cmd_null_table(args, out, err)
        if args.command == "power":
            return _cmd_power(args, out)
        return _cmd_verify(args, out)
    except SystemExit:  # argparse's only exit left: --help or --version, printed
        return EXIT_OK
    except (ConvexGofError, OSError) as exc:
        err.write("error: {}\n".format(str(exc).replace("\r", "\\r").replace("\n", "\\n")))  # one line
        return (EXIT_DATA if isinstance(exc, DataIngestionError)
                else EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_CONFIG)


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
