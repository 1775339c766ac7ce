"""Per-layer tracing of convexgof from outside its source tree.

Spans are recorded by wrapping public names in the ``convexgof.cli``,
``convexgof.nulldist``, ``convexgof.oracle`` and ``convexgof.generators``
namespaces; nothing under ``src/`` is edited.  A Monte Carlo table build is
split into its layers with two public hooks of ``simulate_null``:

* an identity ``transform=``, which ``simulate_null`` calls once per chunk
  right after drawing that chunk's uniforms;
* a generator rebuilt with ``dataclasses.replace`` whose ``eval`` is timed
  (same name, integral, ``validated`` flag and antiderivative cache).

From those boundaries, inside one ``simulate_null`` call:

* rng  = transform entry minus the previous boundary (call entry or the
  previous chunk's last eval exit);
* rank = the gaps from transform exit to the eval entries of that chunk;
* eval = the eval spans;
* sort = call exit minus the last eval exit.

``antiderivative_grid`` spans are timed on their own and subtracted from
whichever gap holds them.  Spans are aggregated as they close, so memory
stays flat however many statistics a run evaluates.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics a traced run reports, in output order, with their units.
LAYER_METRICS = {
    "nulldist.simulate.busy_s": "s",
    "nulldist.simulate.replicates": "count",
    "nulldist.rng.busy_s": "s",
    "nulldist.rng.draws": "count",
    "nulldist.rank.busy_s": "s",
    "nulldist.rank.elements": "count",
    "generators.eval.busy_s": "s",
    "generators.eval.points": "count",
    "nulldist.sort.busy_s": "s",
    "nulldist.cache.load_s": "s",
    "nulldist.cache.save_s": "s",
    "nulldist.cache.hits": "count",
    "nulldist.cache.misses": "count",
    "nulldist.cache.hit_ratio": "ratio",
    "nulldist.cache.bytes": "B",
    "generators.antiderivative_grid.busy_s": "s",
    "generators.antiderivative_grid.panels": "count",
    "generators.parse.busy_s": "s",
    "ecdf.read_sample.busy_s": "s",
    "cli.self_s": "s",
    "statistics.observed.busy_s": "s",
    "statistics.observed.calls": "count",
    "nulldist.permutation.busy_s": "s",
    "nulldist.permutation.replicates": "count",
    "oracle.enumerate.busy_s": "s",
    "oracle.enumerate.configs": "count",
    "oracle.battery.busy_s": "s",
    "oracle.battery.cases": "count",
    "oracle.battery.failed": "count",
    "nulldist.power_study.busy_s": "s",
    "nulldist.power_study.trials": "count",
    "trace.hook_s": "s",
}


class HookError(RuntimeError):
    """A public hook the split relies on is missing or was never called."""


class _Frame:
    __slots__ = ("name", "t0", "child", "attrs", "events", "first_obs")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs
        self.child = 0.0      # summed duration of direct child spans
        self.events = None    # (kind, t0, t1) boundaries inside a simulate_null call
        self.first_obs = None  # duration of the first statistic call under run_test
        self.t0 = time.perf_counter()


class Tracer:
    """Stack of open spans plus running per-layer totals."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.stack = []
        self._sim = []        # open simulate_null frames, innermost last
        self._restore = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name, **attrs):
        frame = _Frame(name, attrs)
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        dur = t1 - frame.t0
        popped = self.stack.pop()
        if popped is not frame:
            raise HookError(f"span '{frame.name}' closed out of order")
        if self.stack:
            self.stack[-1].child += dur
        return t1, dur

    def request(self, cache: bool):
        """Span for one CLI request; its self time is ``cli.self_s``."""
        return _RequestSpan(self, cache)

    def _enclosing(self, name):
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    # -- installing hooks ------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))
        self._restore.append((owner, attr, original))

    def install(self):
        import convexgof.cli as cli
        import convexgof.generators as generators
        import convexgof.nulldist as nulldist
        import convexgof.oracle as oracle

        sig = inspect.signature(nulldist.simulate_null)
        if "transform" not in sig.parameters:
            raise HookError("simulate_null has no transform= hook; the layer split needs it")
        for ns, owner in (("cli", cli), ("nulldist", nulldist)):
            self._patch(owner, "simulate_null", lambda orig, ns=ns: self._simulate(orig, sig, ns))
            self._patch(owner, "run_test", self._run_test)
        for name in ("two_sample_statistic", "k_sample_statistic", "tau_statistic"):
            self._patch(nulldist, name, self._observed)
        self._patch(cli, "load_table", lambda orig: self._file_span(orig, "load"))
        self._patch(cli, "save_table", lambda orig: self._file_span(orig, "save"))
        self._patch(cli, "read_sample", lambda orig: self._plain(orig, "read_sample"))
        self._patch(cli, "parse_generator_spec", lambda orig: self._plain(orig, "parse"))
        self._patch(cli, "power_study", self._power_study)
        self._patch(oracle, "run_battery", self._battery)
        self._patch(oracle, "enumerate_null", self._enumerate)
        self._patch(generators.LogConvexGenerator, "antiderivative_grid", self._grid)
        self._patch(generators, "adaptive_quad", self._quad)
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------
    def _plain(self, orig, name):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.totals[name] += self._exit(frame)[1]
        return wrapper

    def _file_span(self, orig, kind):
        def wrapper(table_or_path, *args, **kwargs):
            frame = self._enter("cache_" + kind)
            try:
                return orig(table_or_path, *args, **kwargs)
            finally:
                dur = self._exit(frame)[1]
                path = table_or_path if kind == "load" else args[0] if args else kwargs["path"]
                self.totals["cache_" + kind] += dur
                self.totals["cache_bytes"] += os.path.getsize(path) if os.path.exists(path) else 0
                if kind == "load":
                    self.totals["cache_hits"] += 1
        return wrapper

    def _timed_eval(self, orig_eval):
        def timed(u):
            if self.stack and self.stack[-1].name == "grid":
                return orig_eval(u)  # quadrature inside a grid build, not a table eval
            frame = self._enter("eval")
            try:
                return orig_eval(u)
            finally:
                t1, dur = self._exit(frame)
                self.totals["eval_points"] += np.size(u)
                self._event("eval", frame.t0, t1)
        return timed

    def _event(self, kind, t0, t1):
        if self._sim:
            self._sim[-1].events.append((kind, t0, t1))

    def _simulate(self, orig, sig, ns):
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            user_transform = bound.arguments["transform"]
            generator = bound.arguments["generator"]
            bound.arguments["generator"] = dataclasses.replace(
                generator, eval=self._timed_eval(generator.eval))

            def hook(data):
                t0 = time.perf_counter()
                out = data if user_transform is None else user_transform(data)
                self.totals["draws"] += data.size
                self._event("transform", t0, time.perf_counter())
                return out

            bound.arguments["transform"] = hook
            frame = self._enter("simulate", ns=ns)
            frame.events = []
            self._sim.append(frame)
            try:
                table = orig(*bound.args, **bound.kwargs)
            finally:
                self._sim.pop()
                t1, dur = self._exit(frame)
            self._split(frame, t1, dur, table.B)
            request = self._enclosing("request")
            if ns == "cli" and request is not None and request.attrs["cache"]:
                self.totals["cache_misses"] += 1
            return table
        return wrapper

    def _split(self, frame, t1, dur, replicates):
        events = frame.events
        if not any(kind == "transform" for kind, _, _ in events):
            raise HookError("simulate_null never called its transform= hook")
        if not any(kind == "eval" for kind, _, _ in events):
            raise HookError("simulate_null never called the generator's eval")
        self.totals["simulate"] += dur
        self.totals["replicates"] += replicates
        markers = events + [("end", t1, t1)]
        # each gap belongs to the phase named by the next non-grid marker
        label_for = {"transform": "rng", "eval": "rank", "end": "sort"}
        next_phase = [None] * len(markers)
        upcoming = "sort"
        for i in range(len(markers) - 1, -1, -1):
            kind = markers[i][0]
            if kind != "grid":
                upcoming = label_for[kind]
            next_phase[i] = upcoming
        prev = frame.t0
        for (kind, a, b), phase in zip(markers, next_phase):
            self.totals[phase] += a - prev
            if kind == "eval":
                self.totals["eval"] += b - a
            elif kind == "transform":
                self.totals["hook"] += b - a
            prev = b  # grid spans fall between gaps, so they count only as grid

    def _run_test(self, orig):
        def wrapper(*args, **kwargs):
            method = kwargs.get("method", "simulation")
            frame = self._enter("run_test", method=method)
            try:
                return orig(*args, **kwargs)
            finally:
                dur = self._exit(frame)[1]
                if method == "permutation":
                    self.totals["permutation"] += dur - (frame.first_obs or 0.0)
                    self.totals["perm_replicates"] += kwargs["B"]
        return wrapper

    def _observed(self, orig):
        def wrapper(*args, **kwargs):
            frame = self._enter("observed")
            try:
                return orig(*args, **kwargs)
            finally:
                dur = self._exit(frame)[1]
                self.totals["observed"] += dur
                self.totals["observed_calls"] += 1
                parent = self.stack[-1] if self.stack else None
                if parent is not None and parent.name == "run_test" and parent.first_obs is None:
                    parent.first_obs = dur
        return wrapper

    def _power_study(self, orig):
        def wrapper(*args, **kwargs):
            frame = self._enter("power_study")
            try:
                return orig(*args, **kwargs)
            finally:
                self.totals["power_study"] += self._exit(frame)[1]
                self.totals["power_trials"] += kwargs["B_power"]
        return wrapper

    def _battery(self, orig):
        def wrapper(*args, **kwargs):
            frame = self._enter("battery")
            cases = None
            try:
                cases = orig(*args, **kwargs)
                return cases
            finally:
                self.totals["battery"] += self._exit(frame)[1]
                if cases is not None:
                    self.totals["battery_cases"] += len(cases)
                    self.totals["battery_failed"] += sum(not c.passed for c in cases)
        return wrapper

    def _enumerate(self, orig):
        def wrapper(*args, **kwargs):
            frame = self._enter("enumerate")
            dist = None
            try:
                dist = orig(*args, **kwargs)
                return dist
            finally:
                self.totals["enumerate"] += self._exit(frame)[1]
                if dist is not None:
                    self.totals["configs"] += dist.configurations
        return wrapper

    def _grid(self, orig):
        def wrapper(generator, n):
            frame = self._enter("grid")
            try:
                return orig(generator, n)
            finally:
                t1, dur = self._exit(frame)
                self.totals["grid"] += dur
                self._event("grid", frame.t0, t1)
        return wrapper

    def _quad(self, orig):
        def wrapper(*args, **kwargs):
            if self.stack and self.stack[-1].name == "grid":
                self.totals["panels"] += 1
            return orig(*args, **kwargs)
        return wrapper

    # -- results ---------------------------------------------------------
    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer totals divided by the number of workload rounds run."""
        t = self.totals
        attempts = t["cache_hits"] + t["cache_misses"]
        raw = {
            "nulldist.simulate.busy_s": t["simulate"],
            "nulldist.simulate.replicates": t["replicates"],
            "nulldist.rng.busy_s": t["rng"],
            "nulldist.rng.draws": t["draws"],
            "nulldist.rank.busy_s": t["rank"],
            "nulldist.rank.elements": t["draws"],
            "generators.eval.busy_s": t["eval"],
            "generators.eval.points": t["eval_points"],
            "nulldist.sort.busy_s": t["sort"],
            "nulldist.cache.load_s": t["cache_load"],
            "nulldist.cache.save_s": t["cache_save"],
            "nulldist.cache.hits": t["cache_hits"],
            "nulldist.cache.misses": t["cache_misses"],
            "nulldist.cache.bytes": t["cache_bytes"],
            "generators.antiderivative_grid.busy_s": t["grid"],
            "generators.antiderivative_grid.panels": t["panels"],
            "generators.parse.busy_s": t["parse"],
            "ecdf.read_sample.busy_s": t["read_sample"],
            "cli.self_s": t["cli_self"],
            "statistics.observed.busy_s": t["observed"],
            "statistics.observed.calls": t["observed_calls"],
            "nulldist.permutation.busy_s": t["permutation"],
            "nulldist.permutation.replicates": t["perm_replicates"],
            "oracle.enumerate.busy_s": t["enumerate"],
            "oracle.enumerate.configs": t["configs"],
            "oracle.battery.busy_s": t["battery"],
            "oracle.battery.cases": t["battery_cases"],
            "oracle.battery.failed": t["battery_failed"],
            "nulldist.power_study.busy_s": t["power_study"],
            "nulldist.power_study.trials": t["power_trials"],
            "trace.hook_s": t["hook"],
        }
        out = {name: value / rounds for name, value in raw.items()}
        out["nulldist.cache.hit_ratio"] = t["cache_hits"] / attempts if attempts else 0.0
        return {name: out[name] for name in LAYER_METRICS}


class _RequestSpan:
    def __init__(self, tracer, cache):
        self.tracer = tracer
        self.cache = cache

    def __enter__(self):
        self.frame = self.tracer._enter("request", cache=self.cache)
        return self

    def __exit__(self, *exc):
        dur = self.tracer._exit(self.frame)[1]
        self.tracer.totals["cli_self"] += dur - self.frame.child
        return False
