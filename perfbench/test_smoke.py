"""Smoke test of the benchmark: every workload, check and hook, in seconds.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line)["record"] for line in lines if line.startswith('{"record"'))
    return record, json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def both_modes(request):
    plain = run_bench(request.param, 0)
    traced = run_bench(request.param, 1)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    return parse(plain), parse(traced)


def test_result_line_has_every_metric(both_modes):
    (_, plain), (_, traced) = both_modes
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_traced_tables_match_untraced(both_modes):
    (plain_record, _), (traced_record, _) = both_modes
    assert plain_record["sha256"] and plain_record["sha256"] == traced_record["sha256"]


def test_traced_table_builds_are_split(both_modes):
    (_, _), (record, traced) = both_modes
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    if layers["nulldist.simulate.replicates"] == 0:
        return  # this workload builds no Monte Carlo table
    parts = sum(layers[k] for k in ("nulldist.rng.busy_s", "nulldist.rank.busy_s",
                                    "generators.eval.busy_s", "nulldist.sort.busy_s"))
    assert 0 < parts <= layers["nulldist.simulate.busy_s"]
    assert layers["nulldist.rng.draws"] > 0 and layers["generators.eval.points"] > 0


def test_missing_transform_hook_is_reported(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import convexgof.nulldist as nulldist
    from tracer import HookError, Tracer

    monkeypatch.setattr(nulldist, "simulate_null", lambda kind, generator, sizes, B, seed: None)
    with pytest.raises(HookError):
        Tracer().install()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
