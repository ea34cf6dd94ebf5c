"""Smoke tests of the benchmark, at a tiny budget through the same code path.

    python3 -m pytest perfbench
"""

import json
import shutil
import types
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import (LAYER_METRICS, SELF_TIME_METRICS, SpanRecorder,  # noqa: E402
                    layer_metrics)

TINY_FES = 300


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return run.measure("manyobj-hv", 0, 0.0, False, max_fes=TINY_FES,
                       work=tmp_path_factory.mktemp("plain") / "w")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    # The first (untraced) repetition sets the reference digest, so the
    # traced repetition passes only if the wrappers leave results unchanged.
    return run.measure("manyobj-hv", 0, 0.0, True, max_fes=TINY_FES,
                       work=tmp_path_factory.mktemp("traced") / "w")


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_end_to_end_metrics_are_emitted_with_units(plain):
    # two repetitions of 1 problem x 2 algorithms x 2 seeds
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 8
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_keeps_results(traced):
    # one untraced and one traced repetition of 1 problem x 2 algorithms x 2 seeds
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] == 8
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == LAYER_METRICS
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert values["metrics.hv.mc_samples"] > 0 and values["metrics.gd.ms"] > 0
    # 2 framework runs of 2 generations each: 126 FEs, then 252 and 378
    assert values["framework.generations"] == 4
    assert values["trace.span_cost_us"] > 0
    assert values["trace.overhead_frac"] == pytest.approx(
        values["trace.spans"] * values["trace.span_cost_us"] * 1e-6
        / values["trace.untraced_matrix_s"])


def test_self_times_and_remainder_add_up_to_the_traced_wall_time(traced):
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    self_ms = sum(values[m] for m in SELF_TIME_METRICS.values())
    assert all(values[m] >= 0 for m in SELF_TIME_METRICS.values())
    assert values["trace.unattributed_ms"] >= 0
    assert self_ms + values["trace.unattributed_ms"] == pytest.approx(
        values["trace.matrix_s"] * 1000.0, rel=1e-9)


def test_recorder_traces_every_module_that_holds_a_target(monkeypatch):
    import temof.dominance
    import temof.nsga3
    original = temof.dominance.sort_fronts
    caller = types.ModuleType("temof._new_caller")  # a caller the targets do not name
    caller.sort_fronts = original
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    recorder = SpanRecorder()
    recorder.install()
    try:
        wrapper = temof.dominance.sort_fronts
        assert wrapper is not original
        assert caller.sort_fronts is wrapper and temof.nsga3.sort_fronts is wrapper
        caller.sort_fronts([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    finally:
        recorder.uninstall()
    assert caller.sort_fronts is original and temof.dominance.sort_fronts is original
    assert [s[1] for s in recorder.spans] == ["dominance.sort_fronts"]
    assert not recorder.missing


def test_self_time_excludes_child_spans():
    spans = [
        {"id": 0, "name": "harness.run_matrix", "start": 0.0, "end": 1.0,
         "parent": None, "run": None, "attrs": {}},
        {"id": 1, "name": "nsga3.nsga3_run", "start": 0.1, "end": 0.9,
         "parent": 0, "run": 0, "attrs": {}},
        {"id": 2, "name": "dominance.sort_fronts", "start": 0.2, "end": 0.5,
         "parent": 1, "run": 0, "attrs": {"rows": 200}},
    ]
    m = layer_metrics(spans, 1.25)
    assert m["harness.run_matrix.self_ms"] == pytest.approx(200.0)
    assert m["nsga3.nsga3_run.self_ms"] == pytest.approx(500.0)
    assert m["dominance.sort_fronts.ms"] == pytest.approx(300.0)
    assert m["dominance.sort_fronts.rows"] == 200
    assert m["trace.unattributed_ms"] == pytest.approx(250.0)


def test_changed_cell_counts_as_failed():
    expected = {"rows": 4, "cells": {"A/x/0": "1", "A/y/0": "2"},
                "reports": {"ranks.csv": "3"}}
    got = json.loads(json.dumps(expected))
    assert run.failed_cells(got, expected) == 0
    got["cells"]["A/y/0"] = "9"
    assert run.failed_cells(got, expected) == 1
    got["reports"]["ranks.csv"] = "9"
    assert run.failed_cells(got, expected) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "manyobj-hv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
