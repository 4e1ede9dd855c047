"""Smoke test of the benchmark on its tiny pools.

    python3 -m pytest bench

Every workload runs a few small instances with and without tracing; the
result line must carry exactly the metrics BENCHMARK.json names, each with
its unit, and no operation may fail.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import run  # noqa: E402
from workloads import TINY, WORKLOADS, pool_digest, pool_texts, select  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(HERE, "pins.json"), encoding="ascii") as _handle:
    PINS = json.load(_handle)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.05", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float)
    detail = json.loads(lines[-2][len("detail "):])
    assert detail["failed_share"] == 0
    assert detail["fingerprint_match"] is True
    if trace:
        assert result["metrics"]["fingerprint.match"]["value"] == 1.0
    else:
        assert result["metrics"]["certified_share"]["value"] == 1.0


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(TINY) == list(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert TINY[name].config == workload.config


def test_per_layer_units_match_spec():
    assert run.per_layer_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("profile,table", [("full", WORKLOADS), ("tiny", TINY)])
def test_generated_inputs_match_pins(profile, table):
    for name, workload in table.items():
        pinned = PINS[profile][name]
        assert len(pinned["instances"]) == workload.pool_size
        assert pool_digest(pool_texts(workload)) == pinned["dimacs_sha256"]


@pytest.mark.parametrize("profile,table", [("full", WORKLOADS), ("tiny", TINY)])
def test_selection_is_seeded_and_stratified(profile, table):
    for name, workload in table.items():
        pinned = PINS[profile][name]
        groups = pinned["strata"]
        assert sorted(i for g in groups for i in g) == list(range(workload.pool_size))
        picks = select(groups, 7)
        assert picks == select(groups, 7)
        assert len(picks) == len(groups)
        assert any(pinned["instances"][i]["verdict"] == "UNSAT" for i in picks)


def test_tracer_restores_wrapped_functions():
    from proofsat import RefutationGraph
    from proofsat import engine

    before = (engine.init_refutation, RefutationGraph.add_node, RefutationGraph.extract_derivation)
    with ops.Tracer().wrapped():
        assert engine.init_refutation is not before[0]
    assert before == (engine.init_refutation, RefutationGraph.add_node, RefutationGraph.extract_derivation)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("rand3_tree", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
