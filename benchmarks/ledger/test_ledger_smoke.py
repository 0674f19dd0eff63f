"""Harness self-test: the four workloads at toy scale, both modes.

Checks what a change to the harness could break — the metric
vocabulary against ``BENCHMARK.json``, the result schema, the span
tree, input determinism, process hygiene — and nothing about speed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(HERE), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import ledger_stack  # noqa: E402
import ledger_trace  # noqa: E402
import run as ledger_run  # noqa: E402
from ledger_load import WORKLOADS, WORKLOADS_BY_NAME, Inputs  # noqa: E402
from ledger_metrics import (  # noqa: E402
    BOUNDED,
    PER_LAYER,
    benchmark_document,
)

TOY = {
    "warm_small": dict(machines=192, stripes=24),
    "warm_large": dict(machines=192, stripes=2),
    "cold_create": dict(machines=200, stripes=50),
    "monitor_mix": dict(machines=192, stripes=24),
}


def toy(name: str):
    return dataclasses.replace(WORKLOADS_BY_NAME[name], reps=2, **TOY[name])


def test_benchmark_json_matches_the_metric_tables():
    document = json.loads((REPO / "BENCHMARK.json").read_text())
    assert document == benchmark_document(document["run_seconds"], WORKLOADS)
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in document["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])


def test_a_seed_regenerates_identical_inputs():
    for name in TOY:
        first, again, other = (Inputs(toy(name), seed) for seed in (5, 5, 6))

        def fingerprint(inputs):
            stripes, updates = inputs.stripes(1), inputs.monitor_updates()
            return ([r.to_row() for r in inputs.records],
                    [next(stripes) for _ in range(50)],
                    inputs.cold_round(1),
                    [next(updates) for _ in range(20)])
        assert fingerprint(first) == fingerprint(again)
        assert fingerprint(first) != fingerprint(other)


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_end_to_end_and_traced(name, tmp_path):
    workload = toy(name)
    result = asyncio.run(ledger_run.run_untraced(
        workload, 11, 0.5, setup_repeats=1, work_root=tmp_path))
    assert result["correct"], result["failure_notes"]
    line = json.loads(ledger_run._contract_line(BOUNDED, result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in BOUNDED}
    for spec in BOUNDED:
        entry = line["metrics"][spec.name]
        assert entry["unit"] == spec.unit
        assert math.isfinite(entry["value"]) and entry["value"] > 0, spec.name

    traced, tracer = asyncio.run(ledger_run.run_traced(
        workload, 11, 0.8, work_root=tmp_path))
    assert traced["correct"], traced["failure_notes"]
    assert traced["absent"] == []
    line = json.loads(ledger_run._contract_line(PER_LAYER, traced))
    assert set(line["metrics"]) == {m.name for m in PER_LAYER}
    values = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    assert 0.9 <= values["trace.coverage"] <= 1.1
    assert values["service.ops_per_cycle"] == pytest.approx(
        sum(values[f"service.{verb}_per_cycle"] for verb in
            ("get", "update_dynamic", "match", "take_all", "release_pool")))
    if workload.cold:
        assert values["pool_manager.pools_created"] > 0
    else:
        assert values["pool_manager.pools_created"] == 0
    # Every verb is exercised somewhere in the traced run (warm-up,
    # window or sweep), so every per-call time has a measurement.
    for verb in ("get", "update_dynamic", "match", "take_all",
                 "release_pool"):
        assert values[f"service.rtt_p50_us.{verb}"] > 0, verb

    # Span tree: a parent starts first, belongs to the same trace and
    # encloses its child; only roots have none.
    roots = {"client.query", "client.release", "sweep"}
    assert len(tracer) > 0
    for i in range(len(tracer)):
        parent = tracer.parent[i]
        if parent < 0:
            assert tracer.name[i] in roots, tracer.name[i]
            continue
        assert parent < i
        assert tracer.trace[parent] == tracer.trace[i]
        assert tracer.start[parent] <= tracer.start[i]
        assert tracer.end[i] <= tracer.end[parent]
    assert not list(tmp_path.iterdir()), "run directories left behind"


def test_missing_layer_is_absent_not_fatal(monkeypatch):
    from repro.runtime.client import ActYPClient
    original = ActYPClient.query
    monkeypatch.setattr(ledger_trace, "SPAN_TABLE", ledger_trace.SPAN_TABLE + (
        ("wire_core.dispatch", "repro.runtime.wire_core", "Core", "dispatch"),
        ("pool_manager.gone", "repro.core.pool_manager", "PoolManager",
         "no_such_method")))
    tracer = ledger_trace.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.attach()
    try:
        assert tracer.absent == ["wire_core.dispatch", "pool_manager.gone"]
        assert len(caught) == 2
        assert ActYPClient.query is not original
    finally:
        tracer.detach()
    assert ActYPClient.query is original


def test_leftover_process_fails_the_next_run(tmp_path):
    stale = tmp_path / "run-stale"
    stale.mkdir()
    (stale / "pids.json").write_text(json.dumps(
        {"worker0": [os.getpid(), ledger_stack._start_time(os.getpid())]}))
    with pytest.raises(ledger_stack.LeftoverProcessError, match="worker0"):
        ledger_stack.Stack([], work_root=tmp_path).start()
    # A recorded process that is gone is swept, not reported.
    (stale / "pids.json").write_text(json.dumps({"worker0": [1, "0"]}))
    ledger_stack.check_no_leftovers(tmp_path)
    assert not stale.exists()
