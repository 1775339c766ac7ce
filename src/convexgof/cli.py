"""Command-line front end.

Exit codes: 0 success, 1 verification battery failure, 2 configuration
error (including a path that cannot be read or written), 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .ecdf import CONVENTIONS, RIGHT_CONTINUOUS, read_sample
from .errors import (
    ConvexGofError,
    DataIngestionError,
    EnumerationTooLargeError,
    GeneratorSpecError,
    InvalidParameterError,
    NumericalError,
)
from .generators import parse_generator_spec
from .nulldist import (
    DEFAULT_B,
    K_SAMPLE,
    KINDS,
    TABLE_FORMAT_VERSION,
    TAU,
    TWO_SAMPLE,
    _request_identity,
    load_table,
    power_study,
    run_test,
    save_table,
    simulate_null,
)
from .oracle import battery_to_csv, run_battery
from .statistics import WeightVector

EXIT_OK = 0
EXIT_BATTERY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

CACHE_ENV = "CONVEXGOF_CACHE_DIR"


def _parse_levels(text):
    try:
        levels = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise GeneratorSpecError(f"offending token in levels '{text}': not numbers") from None
    if not levels or any(not 0.0 < a < 1.0 for a in levels):
        raise InvalidParameterError(f"levels must lie in (0, 1), got '{text}'")
    return levels


def _parse_weights(text):
    if text is None:
        return None
    try:
        return WeightVector(tuple(float(t) for t in text.split(",") if t.strip()))
    except ValueError as exc:
        if isinstance(exc, InvalidParameterError):
            raise
        raise GeneratorSpecError(f"offending token in weights '{text}': not numbers") from None


def _parse_sizes(text):
    try:
        sizes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise GeneratorSpecError(f"offending token in sizes '{text}': not integers") from None
    if not sizes:
        raise InvalidParameterError(f"no sizes given in '{text}'")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexgof",
        description="Distribution-free two- and k-sample tests from convex generators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, levels=True):
        p.add_argument("--B", type=int, default=DEFAULT_B, help="Monte Carlo replicates")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (unsigned 64-bit)")
        if levels:
            p.add_argument("--levels", default="0.05,0.01", help="comma-separated test levels")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress the timestamp so output is byte-reproducible")

    def add_cache(p):
        p.add_argument("--cache-dir", default=None, help="null-table cache directory")
        p.add_argument("--no-cache", action="store_true", help="bypass the null-table cache")

    def add_test_common(p):
        add_common(p)
        add_cache(p)
        p.add_argument("--convention", choices=CONVENTIONS, default=RIGHT_CONTINUOUS)
        p.add_argument("--method", choices=("simulation", "permutation"), default="simulation")

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
    add_common(pn, levels=False)
    add_cache(pn)

    pp = sub.add_parser("power", help="power study against a uniform-baseline alternative")
    pp.add_argument("--kind", choices=KINDS, default=TWO_SAMPLE)
    pp.add_argument("--generator", dest="generator_spec", required=True)
    pp.add_argument("--alternative", required=True, help="shift:d | scale:s | lehmann:t")
    pp.add_argument("--sizes", required=True)
    pp.add_argument("--weights", default=None)
    pp.add_argument("--B-null", type=int, default=999, dest="B_null")
    pp.add_argument("--B-power", type=int, default=500, dest="B_power")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--levels", default="0.05")
    pp.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
    pp.add_argument("--deterministic", action="store_true")

    pv = sub.add_parser("verify", help="run the population-level oracle battery")
    pv.add_argument("--csv", default=None, help="also export battery results to this CSV file")
    return parser


def _generator_for(kind, spec):
    """Parse ``spec`` once its family fits ``kind``; building an expsq generator runs quadrature."""
    family = str(spec).strip().partition(":")[0]
    if kind == TAU and family in ("power", "poly", "bernstein"):
        raise GeneratorSpecError(
            f"generator spec '{spec}' is not log-convex; tau needs e.g. expsq:alpha")
    if kind != TAU and family == "expsq":
        raise GeneratorSpecError(
            f"generator spec '{spec}' is not a convex generator; use power/poly/bernstein")
    return parse_generator_spec(spec)


def _cache_path(args, identity):
    """Cache file of the table with ``NullTable.identity`` ``identity``; None with --no-cache."""
    if args.no_cache:
        return None
    base = args.cache_dir or os.environ.get(CACHE_ENV)
    if base is None:
        base = Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "convexgof"
    key = repr((identity, TABLE_FORMAT_VERSION))
    return Path(base) / f"{hashlib.sha256(key.encode('utf-8')).hexdigest()}.csv"


@contextlib.contextmanager
def _naming(flag, path):
    """Re-raise an ``OSError`` as one that names ``flag`` and the user's ``path``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{flag} '{path}': {exc.strerror or exc}") from None


def _table_via_cache(args, kind, generator, sizes, weights, err):
    """The requested table, whether it came from the cache, and its cache file.

    A missing table is simulated and cached.  A file that fails to load, or
    holds a table built for another request, is a miss.
    """
    wanted = _request_identity(kind, generator, sizes, weights, args.B, args.seed)
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
                          f"weights, B, seed) = {cached.identity}, not {wanted}; rebuilding it\n")
        table = simulate_null(kind, generator, sizes, B=args.B, seed=args.seed, weights=weights)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_table(table, path)
    return table, False, path


def _report_dict(args, kind, report, inputs):
    stat = report.statistic
    table = report.table
    doc = {
        "command": args.command,
        "version": __version__,
        "kind": kind,
        "generator": args.generator_spec,
        "inputs": list(inputs),
        "convention": args.convention,
        "method": report.method,
        "statistic": {
            "value": stat.value,
            "raw_functional": stat.raw_functional,
            "centering_constant": stat.centering_constant,
            "tie_count": stat.tie_count,
            "generator_name": stat.generator_name,
        },
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
    return doc


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
    if args.method == "simulation":
        # cache hits are bit-identical to regeneration, so reports are too
        table = _table_via_cache(args, kind, generator,
                                 tuple(s.n for s in samples), weights, err)[0]
        report = run_test(kind, generator, samples, weights=weights, levels=levels,
                          convention=args.convention, table=table)
    else:
        report = run_test(kind, generator, samples, weights=weights, B=args.B,
                          seed=args.seed, levels=levels, convention=args.convention,
                          method="permutation")
    _emit(args, out, _report_dict(args, kind, report, paths), _report_csv)
    return EXIT_OK


def _cmd_null_table(args, out, err):
    kind = args.kind
    generator = _generator_for(kind, args.generator_spec)
    sizes = _parse_sizes(args.sizes)
    weights = _parse_weights(args.weights)
    table, cached, path = _table_via_cache(args, kind, generator, sizes, weights, err)
    if args.out is not None:
        with _naming("--out", args.out):
            save_table(table, args.out)
        location = args.out
    elif path is None:
        raise InvalidParameterError("--no-cache requires --out to store the table")
    else:
        location = str(path)
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
    }
    rows = [["level", "power", "std_error", "alternative", "B_null", "B_power", "seed"]]
    rows += [[a, repr(est), repr(se), result.alternative, result.B_null, result.B_power, result.seed]
             for a, (est, se) in sorted(result.power.items())]
    _emit(args, out, doc, lambda doc: rows)
    return EXIT_OK


def _cmd_verify(args, out):
    cases = run_battery()
    failed = 0
    for case in cases:
        status = "PASS" if case.passed else "FAIL"
        if not case.passed:
            failed += 1
        out.write(f"[{status}] {case.case_id} value={case.value:.6e} tolerance={case.tolerance:g}\n")
    out.write(f"{len(cases) - failed}/{len(cases)} oracle checks passed\n")
    if args.csv is not None:
        with _naming("--csv", args.csv):
            battery_to_csv(cases, args.csv)
    return EXIT_OK if failed == 0 else EXIT_BATTERY_FAIL


def run(argv=None, out=None, err=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; map its failure to a config error
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        if args.command in ("test2", "testk", "tau"):
            return _cmd_test(args, out, err)
        if args.command == "null-table":
            return _cmd_null_table(args, out, err)
        if args.command == "power":
            return _cmd_power(args, out)
        return _cmd_verify(args, out)
    except (GeneratorSpecError, InvalidParameterError, EnumerationTooLargeError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except DataIngestionError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_DATA
    except NumericalError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
