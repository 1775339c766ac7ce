"""The benchmark's three workloads: inputs, one round of requests, checks.

A round is a fixed mix of requests sent one after another by a single
client (a closed loop).  Every input is derived from the workload seed.
Requests go through ``convexgof.cli.run`` in-process, or through the
library where the CLI has no command (``enumerate_null``).  Checks run
after the timed loop and mark the requests they judge as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np


def derive_seed(seed: int, *tags: int) -> int:
    """A 64-bit request seed derived from the workload seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0])


def write_sample(path: Path, values) -> str:
    path.write_text("".join(repr(float(v)) + "\n" for v in values), encoding="utf-8")
    return str(path)


def table_digest(replicates) -> str:
    return hashlib.sha256(np.ascontiguousarray(replicates, dtype="<f8").tobytes()).hexdigest()


def pmf_digest(dist) -> str:
    h = hashlib.sha256(np.ascontiguousarray(dist.values, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(dist.probabilities, dtype="<f8").tobytes())
    return h.hexdigest()


_REFERENCE_DATA = np.random.default_rng(12345).random((64, 256))
_REFERENCE_BLOCK = np.random.default_rng(54321).random((1024, 60))
_REFERENCE_HEX = [float(v).hex() for v in _REFERENCE_DATA[0]] * 2


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel that does not touch convexgof.

    It mixes what the program spends its time on: interpreter work, small
    numpy sorts and scans, a row-wise argsort and cumsum over a block the
    size of one null-table chunk, and parsing and joining text.  Timed next
    to every request, it says how fast this host runs at that moment, so
    request times can be divided by it.
    """
    t0 = time.perf_counter()
    order = np.argsort(_REFERENCE_BLOCK, axis=1)
    acc = float(np.cumsum(order < 30, axis=1)[:, -1].sum())
    for i in range(200):
        acc += float(np.cumsum(np.argsort(_REFERENCE_DATA[i % 64]))[-1])
        acc += sum({j: j * 0.5 for j in range(40)}.values())
    acc += sum(float.fromhex(s) for s in _REFERENCE_HEX)
    acc += len("\n".join(_REFERENCE_HEX).split())
    return time.perf_counter() - t0


def upper_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, float(np.percentile(samples, q))


class Result:
    """One timed request: its case, latency, output and check outcome."""

    __slots__ = ("case", "seconds", "stats", "out", "meta", "problems", "ref")

    def __init__(self, case, seconds, stats, code, out, err, meta):
        self.case = case
        self.seconds = seconds
        self.stats = stats      # null statistic evaluations the request performed
        self.out = out
        self.meta = meta
        self.ref = None  # mean reference-kernel time just before and after the request
        self.problems = [] if code == 0 else [f"exit code {code}: {err.strip()[:200]}"]

    def fail(self, problem):
        self.problems.append(problem)


class Workload:
    """Base class: runs requests and collects their results."""

    name = ""

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        import convexgof.cli

        self.cli = convexgof.cli
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.tracer = None  # set once set-up is over, to trace the timed loop
        self.results = []
        self.refs = []  # reference-kernel time before each request, plus one after the last
        self.digests = {}
        self.diagnostics = {}  # figures the checks computed, for the run record
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def cli_request(self, case, argv, stats, cache=False, meta=None):
        out, err = io.StringIO(), io.StringIO()
        self.refs.append(reference_kernel())
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                code = self.cli.run(argv, out=out, err=err)
            else:
                with self.tracer.request(cache):
                    code = self.cli.run(argv, out=out, err=err)
        except Exception as exc:  # a traceback is a failed request, not a crash
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        result = Result(case, seconds, stats, code, out.getvalue(), err.getvalue(), meta or {})
        self.results.append(result)
        return result

    def library_request(self, case, fn, stats_of, meta=None):
        self.refs.append(reference_kernel())
        t0 = time.perf_counter()
        try:
            value, code, err = fn(), 0, ""
        except Exception as exc:
            value, code, err = None, -1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        stats = stats_of(value) if value is not None else 0
        result = Result(case, seconds, stats, code, "", err, meta or {})
        result.meta["value"] = value
        self.results.append(result)
        return result

    def warm_up_request(self, argv):
        """One untimed request; a failure here aborts the run."""
        res = self.cli_request("warmup", argv, 0)
        self.results.clear()
        self.refs.clear()
        if res.problems:
            raise RuntimeError(f"warm-up request failed: {res.problems[0]}")

    def finish_timing(self):
        """Attach to each request the reference time measured around it."""
        self.refs.append(reference_kernel())
        for i, res in enumerate(self.results):
            res.ref = 0.5 * (self.refs[i] + self.refs[i + 1])

    def record_digest(self, case, digest):
        self.digests.setdefault(case, []).append(digest)

    def by_prefix(self, prefix):
        return [r for r in self.results if r.case.startswith(prefix)]

    # subclasses: prepare(), warm_up(), run_round(r), check(), summary()


# ---------------------------------------------------------------------------

class SmallTests(Workload):
    """Cold test2/testk/tau requests, repeated as cache hits, plus a power study."""

    name = "small_tests"
    COLD_SETS_PER_ROUND = 2
    HITS_PER_KEY = 3  # hits are short, so take more of them for a steady median

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        d = self.inputs
        self.B = 99 if self.smoke else 9999
        x20 = write_sample(d / "x20.txt", rng.normal(0.0, 1.0, 20))
        y20 = write_sample(d / "y20.txt", rng.normal(0.3, 1.0, 20))
        x50 = write_sample(d / "x50.txt", rng.normal(0.0, 1.0, 50))
        y50 = write_sample(d / "y50.txt", rng.normal(0.2, 1.0, 50))
        ks = [write_sample(d / f"k{g}.txt", rng.normal(0.1 * g, 1.0, 15)) for g in range(4)]
        xt = write_sample(d / "tau_x20.txt", rng.normal(0.0, 1.0, 20))
        yt = write_sample(d / "tau_y50.txt", rng.normal(0.3, 1.0, 50))
        self.cases = [
            ("test2_power2_20x20", ["test2", "--h", "power:2", "--x", x20, "--y", y20]),
            ("test2_power3_50x50", ["test2", "--h", "power:3", "--x", x50, "--y", y50]),
            ("testk_poly011_4x15", ["testk", "--h", "poly:0,1,1", "--inputs", *ks,
                                    "--weights", "0.1,0.2,0.3,0.4"]),
            ("tau_expsq1_20x50", ["tau", "--xi", "expsq:1", "--x", xt, "--y", yt]),
        ]
        if self.smoke:
            self.cases = [(n, argv + ["--B", str(self.B)]) for n, argv in self.cases]
        self.B_null, self.B_power = (99, 5) if self.smoke else (999, 100)
        self.cvm_data = (x20, y20)

    def warm_up(self):
        _, argv = self.cases[0]
        self.warm_up_request(argv + ["--seed", "1", "--no-cache", "--deterministic"])

    def run_round(self, r):
        for s in range(self.COLD_SETS_PER_ROUND):
            keys = []
            for i, (name, argv) in enumerate(self.cases):
                cache_dir = self.workdir / "cache" / f"r{r}s{s}c{i}"
                full = argv + ["--seed", str(derive_seed(self.seed, 2, r, s, i)),
                               "--cache-dir", str(cache_dir), "--deterministic"]
                cold = self.cli_request(f"cold/{name}", full, self.B, cache=True,
                                        meta={"cache_dir": cache_dir})
                keys.append((name, full, cold))
            for _ in range(self.HITS_PER_KEY):
                for name, full, cold in keys:
                    self.cli_request(f"hit/{name}", full, 0, cache=True, meta={"cold": cold})
        argv = ["power", "--generator", "power:2", "--alternative", "shift:0.5",
                "--sizes", "20,20", "--B-null", str(self.B_null), "--B-power", str(self.B_power),
                "--seed", str(derive_seed(self.seed, 3, r)), "--deterministic"]
        self.cli_request("power", argv, self.B_null * self.B_power)

    def check(self):
        from scipy import stats as sps
        from convexgof.nulldist import load_table
        from convexgof.ecdf import read_sample

        x, y = (read_sample(p).values for p in self.cvm_data)
        exact = float(sps.cramervonmises_2samp(x, y, method="exact").pvalue)
        tol = 4.0 * math.sqrt(exact * (1.0 - exact) / self.B) + 1.0 / (self.B + 1)
        mc = []
        for res in self.by_prefix("cold/"):
            if res.problems:
                continue
            files = sorted(Path(res.meta["cache_dir"]).glob("*.csv"))
            if len(files) != 1:
                res.fail(f"expected one cache file, found {len(files)}")
                continue
            table = load_table(files[0])
            reps = table.replicates
            if reps.size != self.B or not np.all(np.isfinite(reps)) or np.any(np.diff(reps) < 0):
                res.fail("null table is not B finite sorted values")
            self.record_digest(res.case, table_digest(reps))
            p = json.loads(res.out)["p_value"]
            if res.case == "cold/test2_power2_20x20":
                mc.append(p)
                if abs(p - exact) > tol:
                    res.fail(f"p-value {p} is more than 4 MC standard errors "
                             f"from scipy's exact {exact}")
        self.diagnostics["power2_20x20_p"] = {"scipy_exact": exact, "tolerance": tol,
                                               "monte_carlo": mc}
        for res in self.by_prefix("hit/"):
            if not res.problems and res.out != res.meta["cold"].out:
                res.fail("cached report differs from the cold report")
        for res in self.by_prefix("power"):
            if res.problems:
                continue
            doc = json.loads(res.out)
            if not all(0.0 <= v["estimate"] <= 1.0 for v in doc["power"].values()):
                res.fail("power estimate outside [0, 1]")

    def summary(self):
        cold = [r.seconds * 1e3 for r in self.by_prefix("cold/")]
        hit = [r.seconds * 1e3 for r in self.by_prefix("hit/")]
        power = self.by_prefix("power")
        out = {
            "test_p50_ms": (statistics.median(cold), "ms", len(cold)),
            "cached_p50_ms": (statistics.median(hit), "ms", len(hit)),
            "power_trials_per_s": (self.B_power * len(power) / sum(r.seconds for r in power),
                                   "trials/s", len(power)),
        }
        for label, samples in (("test", cold), ("cached", hit)):
            tail = upper_percentile(samples)
            if tail is not None:
                out[f"{label}_p{tail[0]}_ms"] = (tail[1], "ms", len(samples))
        return out


class LargeTables(Workload):
    """Uncached null-table builds at B = 9999 for large samples."""

    name = "large_tables"

    def prepare(self):
        self.B = 199 if self.smoke else 9999
        scale = 10 if self.smoke else 1
        self.cases = [
            ("two_sample_power2_1000x1000", ["--kind", "two_sample", "--generator", "power:2",
                                             "--sizes", f"{1000 // scale},{1000 // scale}"]),
            ("two_sample_bernstein8_300x300", ["--kind", "two_sample", "--generator",
                                               "bernstein:power:2:8",
                                               "--sizes", f"{300 // scale},{300 // scale}"]),
            ("k_sample_poly011_4x250", ["--kind", "k_sample", "--generator", "poly:0,1,1",
                                        "--sizes", ",".join([str(250 // scale)] * 4),
                                        "--weights", "0.1,0.2,0.3,0.4"]),
        ]
        (self.workdir / "tables").mkdir(exist_ok=True)

    def warm_up(self):
        out = self.workdir / "tables" / "warmup.csv"
        self.warm_up_request(["null-table", "--kind", "two_sample", "--generator", "power:2",
                              "--sizes", "20,20", "--B", "999", "--seed", "1", "--no-cache",
                              "--out", str(out), "--deterministic"])

    def run_round(self, r):
        for i, (name, spec) in enumerate(self.cases):
            path = self.workdir / "tables" / f"r{r}c{i}.csv"
            argv = ["null-table", *spec, "--B", str(self.B),
                    "--seed", str(derive_seed(self.seed, 4, r, i)),
                    "--no-cache", "--out", str(path), "--deterministic"]
            self.cli_request(f"build/{name}", argv, self.B, meta={"path": path})

    def check(self):
        from convexgof.nulldist import load_table

        for res in self.results:
            if res.problems:
                continue
            doc = json.loads(res.out)
            table = load_table(res.meta["path"])
            reps = table.replicates
            if doc["B"] != self.B or doc["cache_hit"]:
                res.fail("null-table report does not describe an uncached build of B replicates")
            if reps.size != self.B or not np.all(np.isfinite(reps)) or np.any(np.diff(reps) < 0):
                res.fail("null table is not B finite sorted values")
            self.record_digest(res.case, table_digest(reps))
            res.meta["path"].unlink()

    def summary(self):
        total = sum(r.seconds for r in self.results)
        return {"table_replicates_per_s": (self.B * len(self.results) / total, "replicates/s",
                                           len(self.results))}


class ExactResample(Workload):
    """Permutation tests on tied data, exact enumeration and the oracle battery."""

    name = "exact_resample"

    def prepare(self):
        rng = np.random.default_rng([self.seed, 5])
        d = self.inputs
        small = self.smoke
        n2, nk, nt = (10, 6, 10) if small else (40, 20, 40)

        def tied(n, *locs):
            """Samples rounded to one decimal, the first value shared by all."""
            groups = [np.round(rng.normal(loc, 1.0, n), 1) for loc in locs]
            for g in groups[1:]:
                g[0] = groups[0][0]
            return groups

        x, y = (write_sample(d / f"tied_{g}.txt", v) for g, v in zip("xy", tied(n2, 0.0, 0.3)))
        ks = [write_sample(d / f"tied_k{g}.txt", v) for g, v in enumerate(tied(nk, 0.0, 0.2, 0.4))]
        tx, ty = (write_sample(d / f"tied_tau_{g}.txt", v)
                  for g, v in zip("xy", tied(nt, 0.0, 0.3)))
        b2, bk, bt = (49, 49, 49) if small else (1999, 999, 999)
        self.perm_cases = [
            ("test2_power2", ["test2", "--h", "power:2", "--x", x, "--y", y], b2),
            ("testk_poly011", ["testk", "--h", "poly:0,1,1", "--inputs", *ks], bk),
            ("tau_expsq1", ["tau", "--xi", "expsq:1", "--x", tx, "--y", ty], bt),
        ]
        self.perm_cases = [
            (name, argv + ["--method", "permutation", "--B", str(B), "--no-cache",
                           "--seed", str(derive_seed(self.seed, 6, i)), "--deterministic"], B)
            for i, (name, argv, B) in enumerate(self.perm_cases)
        ]
        self.enum_cases = [
            ("two_sample_power2", "two_sample", "power:2", (4, 4) if small else (8, 8)),
            ("tau_expsq1", "tau", "expsq:1", (3, 3) if small else (7, 7)),
            ("k_sample_poly011", "k_sample", "poly:0,1,1", (2, 2, 2) if small else (3, 3, 3)),
        ]
        n8 = self.enum_cases[0][3][0]
        self.tail_data = (rng.normal(0.0, 1.0, n8), rng.normal(0.5, 1.0, n8))

    def warm_up(self):
        self.warm_up_request(["verify"])

    def _enumerate(self, kind, spec, sizes):
        import convexgof.generators as generators
        import convexgof.oracle as oracle

        return oracle.enumerate_null(kind, generators.parse_generator_spec(spec), sizes)

    def run_round(self, r):
        for name, argv, B in self.perm_cases:
            self.cli_request(f"perm/{name}", argv, B)
        for name, kind, spec, sizes in self.enum_cases:
            self.library_request(f"enum/{name}",
                                 lambda k=kind, s=spec, z=sizes: self._enumerate(k, s, z),
                                 lambda dist: dist.configurations, meta={"sizes": sizes})
        self.cli_request("verify", ["verify"], 0)

    def check(self):
        from scipy import stats as sps
        from convexgof import Sample, power_generator, two_sample_statistic

        first = {}
        for res in self.by_prefix("perm/"):
            if res.problems:
                continue
            doc = json.loads(res.out)
            B = doc["null_table"]["B"]
            if not 1.0 / (B + 1) <= doc["p_value"] <= 1.0:
                res.fail(f"permutation p-value {doc['p_value']} outside [1/(B+1), 1]")
            if doc["statistic"]["tie_count"] == 0:
                res.fail("permutation input has no cross-sample ties")
            if first.setdefault(res.case, res.out) != res.out:
                res.fail("permutation report differs between rounds at the same seed")
            doc.pop("inputs")  # file paths differ between runs
            self.record_digest(res.case, hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest())
        x, y = self.tail_data
        observed = two_sample_statistic(power_generator(2), Sample(x), Sample(y)).value
        exact = float(sps.cramervonmises_2samp(x, y, method="exact").pvalue)
        for res in self.by_prefix("enum/"):
            if res.problems:
                continue
            dist = res.meta.pop("value")
            total = math.prod(math.comb(sum(res.meta["sizes"][g:]), s)
                              for g, s in enumerate(res.meta["sizes"]))
            counts = dist.probabilities * total
            if abs(dist.probabilities.sum() - 1.0) > 1e-12:
                res.fail(f"enumerated pmf sums to {dist.probabilities.sum()!r}")
            if np.max(np.abs(counts - np.round(counts))) > 1e-6 or int(np.round(counts).sum()) != total:
                res.fail(f"enumerated pmf does not cover {total} configurations")
            self.record_digest(res.case, pmf_digest(dist))
            if res.case == "enum/two_sample_power2":
                tail = float(dist.probabilities[dist.values >= observed - 1e-12].sum())
                if abs(tail - exact) > 1e-9:
                    res.fail(f"enumerated tail {tail} differs from scipy's exact {exact}")
        for res in self.by_prefix("verify"):
            if not res.problems and "oracle checks passed" not in res.out:
                res.fail("verify printed no summary line")

    def summary(self):
        perm = self.by_prefix("perm/")
        enum = self.by_prefix("enum/")
        verify = [r.seconds for r in self.by_prefix("verify")]
        return {
            "perm_replicates_per_s": (sum(r.stats for r in perm) / sum(r.seconds for r in perm),
                                      "replicates/s", len(perm)),
            "enum_configs_per_s": (sum(r.stats for r in enum) / sum(r.seconds for r in enum),
                                   "configurations/s", len(enum)),
            "verify_s": (statistics.median(verify), "s", len(verify)),
        }


WORKLOADS = {cls.name: cls for cls in (SmallTests, LargeTables, ExactResample)}

