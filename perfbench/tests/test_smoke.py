"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each run goes through the command line in a fresh interpreter, exactly as
the benchmark is driven, with a fixed op count instead of a time limit so
that the deterministic counts can be compared between runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: ops per tiny run: enough for every op class, flushes and a merge
TINY_OPS = {"ingest": 100, "mixed": 60, "analytics": 12}


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "60",
         "--trace", str(trace), "--size", "tiny",
         "--ops", str(TINY_OPS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def runs():
    """Two untraced and two traced tiny runs per workload, same seed."""
    return {(w, trace, i): result_of(run_bench(w, 5, trace))
            for w in WORKLOADS for trace in (0, 1) for i in (0, 1)}


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
        metrics = runs[(workload, trace, 0)]["metrics"]
        assert set(metrics) == set(units)
        for name, metric in metrics.items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], float)
    end_to_end = runs[(workload, 0, 0)]["metrics"]
    for name, metric in end_to_end.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_deterministic_counts_repeat_at_a_fixed_seed(runs, workload):
    first, second = (runs[(workload, 0, i)]["metrics"] for i in (0, 1))
    assert first["sim_us_per_op"] == second["sim_us_per_op"]
    first, second = (runs[(workload, 1, i)]["metrics"] for i in (0, 1))
    for name in ("storage.flushes", "storage.merges", "txn.wal_forces",
                 "txn.commits", "hyracks.sim_us"):
        assert first[name] == second[name], name


def test_traced_ingest_shows_the_write_path(runs):
    metrics = runs[("ingest", 1, 0)]["metrics"]
    assert metrics["storage.flushes"]["value"] > 0
    assert metrics["storage.merges"]["value"] > 0
    assert metrics["txn.forces_per_commit"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    cls = WORKLOADS[workload]
    digest = cls(3, "tiny").input_digest(40)
    assert cls(3, "tiny").input_digest(40) == digest
    assert cls(4, "tiny").input_digest(40) != digest


def test_fails_without_the_system_sources():
    bare = os.path.join(BENCH, ".work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".out", ".work",
                                                      "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("mixed", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
