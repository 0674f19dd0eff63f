"""End-to-end telemetry (ISSUE 10): metrics, traces, and the slow-op log.

The load-bearing properties:

- **Exact histogram merge** (property test): because every
  :class:`~repro.obs.telemetry.LatencyHistogram` shares the fixed
  :data:`~repro.obs.telemetry.BUCKET_EDGES`, merging per-shard
  histograms bucket-wise yields *identical* percentiles to one
  histogram fed the pooled samples — fleet p99 is exact, not an
  approximation.
- **Trace ids survive the wire**, including continuation-frame
  reassembly of >1 MiB replies, so a fan-out straggler's worker-side
  span is findable from the client's trace id.
- **End-to-end attribution**: a brownout injected on one shard's
  ``match`` is singled out by worker verb p99, confirmed by the fault
  block's fired counters, and leaves spans carrying the client's trace
  ids in that shard's slow-op JSONL.

Also covered: registry units (including the single-lock ``observe_op``
hot path and the disabled early-return), Prometheus text exposition,
the span ring + slow-op JSONL (torn-final-line tolerance), window
deltas, ``set_telemetry`` runtime toggling, fault-injector trigger
counters, structured logging config, the ``repro metrics`` / ``repro
top`` CLI faces, and a subprocess smoke of the shipped
``examples/observability_tour.py``.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import Op
from repro.core.plan import compile_plan
from repro.core.query import Clause, Query
from repro.database.service import ShardServiceClient, ShardSupervisor
from repro.fleet import FleetSpec, build_fleet
from repro.obs.logconfig import configure_logging
from repro.obs.telemetry import (
    BUCKET_EDGES,
    LatencyHistogram,
    MetricsRegistry,
    histogram_delta,
    merge_counters,
    merge_histograms,
    prometheus_lines,
    summarize_histogram,
)
from repro.obs.tracing import SpanRecorder, new_trace_id, read_slow_ops
from repro.runtime import faults
from repro.runtime.protocol import MAX_FRAME_BYTES, encode_message, read_frame

# ---------------------------------------------------------------------------
# Histograms: recording, percentiles, and the exact-merge property
# ---------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_empty_percentile_is_nan(self):
        hist = LatencyHistogram()
        assert math.isnan(hist.percentile(99.0))
        summary = summarize_histogram(hist)
        assert summary["count"] == 0 and math.isnan(summary["mean_s"])

    def test_percentile_is_bucket_upper_edge(self):
        hist = LatencyHistogram()
        hist.record(0.0015)  # lands in the bucket whose edges straddle it
        p = hist.percentile(50.0)
        assert p >= 0.0015  # conservative bias: resolve to the upper edge
        assert p in BUCKET_EDGES

    def test_negative_and_nan_samples_clamp_to_zero(self):
        hist = LatencyHistogram()
        hist.record(-3.0)
        hist.record(float("nan"))
        assert hist.count == 2
        assert hist.sum == 0.0 and hist.max == 0.0

    def test_overflow_clamps_to_top_edge(self):
        hist = LatencyHistogram()
        hist.record(1e6)  # way past the last (100 s) edge
        assert hist.percentile(100.0) == BUCKET_EDGES[-1]
        assert hist.max == 1e6  # the exact max still rides along

    def test_percentile_range_is_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            LatencyHistogram().percentile(101.0)

    def test_wire_roundtrip(self):
        hist = LatencyHistogram()
        for s in (1e-5, 3e-4, 0.02, 0.02, 7.0):
            hist.record(s)
        back = LatencyHistogram.from_dict(
            json.loads(json.dumps(hist.to_dict())))
        assert back.count == hist.count
        assert back.buckets == hist.buckets
        assert back.max == hist.max
        for q in (50.0, 99.0):
            assert back.percentile(q) == hist.percentile(q)


class TestExactMergeProperty:
    """The merge contract behind every fleet percentile in this repo."""

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=200.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=120),
        shards=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_merged_per_shard_equals_pooled(self, samples, shards, seed):
        import random
        rng = random.Random(seed)
        per_shard = [LatencyHistogram() for _ in range(shards)]
        pooled = LatencyHistogram()
        for s in samples:
            per_shard[rng.randrange(shards)].record(s)
            pooled.record(s)
        merged = merge_histograms(h.to_dict() for h in per_shard)
        assert merged.count == pooled.count
        assert merged.buckets == pooled.buckets
        assert merged.max == pooled.max
        assert merged.sum == pytest.approx(pooled.sum)
        for q in (50.0, 90.0, 99.0, 100.0):
            assert merged.percentile(q) == pooled.percentile(q)

    def test_merge_skips_missing_shards(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        merged = merge_histograms([None, hist.to_dict(), None])
        assert merged.count == 1


class TestHistogramDelta:
    def test_window_is_after_minus_before(self):
        before = LatencyHistogram()
        for _ in range(5):
            before.record(0.001)
        after = LatencyHistogram.from_dict(before.to_dict())
        after.record(0.05)
        after.record(0.05)
        window = histogram_delta(after.to_dict(), before.to_dict())
        assert window.count == 2
        assert window.percentile(50.0) >= 0.05

    def test_worker_restart_clamps_instead_of_going_negative(self):
        """A restart shrinks the after picture below the before one;
        the delta degrades to the after picture, never negative."""
        before = LatencyHistogram()
        for _ in range(100):
            before.record(0.001)
        after = LatencyHistogram()
        after.record(0.001)
        window = histogram_delta(after.to_dict(), before.to_dict())
        assert window.count == 0
        assert all(n >= 0 for n in window.buckets.values())

    def test_none_before_means_full_picture(self):
        after = LatencyHistogram()
        after.record(0.01)
        assert histogram_delta(after.to_dict(), None).count == 1


# ---------------------------------------------------------------------------
# Registry units
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_observe_op_folds_sample_and_counters(self):
        reg = MetricsRegistry()
        reg.observe_op("verb.match", 0.002, 1234)
        reg.observe_op("verb.match", 0.004, 766)
        snap = reg.snapshot()
        assert snap["counters"]["ops"] == 2
        assert snap["counters"]["reply_bytes"] == 2000
        assert snap["histograms"]["verb.match"]["count"] == 2

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("ops")
        reg.set_gauge("depth", 3.0)
        reg.observe("verb.match", 0.01)
        reg.observe_op("verb.match", 0.01, 99)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reenabling_resumes_existing_series(self):
        reg = MetricsRegistry()
        reg.observe_op("verb.match", 0.01, 10)
        reg.enabled = False
        reg.observe_op("verb.match", 0.01, 10)
        reg.enabled = True
        reg.observe_op("verb.match", 0.01, 10)
        assert reg.counter("ops") == 2

    def test_snapshot_is_json_safe_and_detached(self):
        reg = MetricsRegistry()
        reg.inc("reconnects")
        reg.set_gauge("lag", 1.5)
        reg.observe("rtt.shard0", 0.003)
        snap = json.loads(json.dumps(reg.snapshot()))
        reg.inc("reconnects")
        assert snap["counters"]["reconnects"] == 1  # detached copy
        reg.clear()
        assert reg.snapshot()["histograms"] == {}

    def test_merge_counters_sums_keywise(self):
        total = merge_counters([{"ops": 3, "errors.X": 1}, {"ops": 4}])
        assert total == {"ops": 7, "errors.X": 1}


class TestPrometheusExposition:
    def test_counter_gauge_histogram_lines(self):
        reg = MetricsRegistry()
        reg.inc("ops", 7)
        reg.set_gauge("wal_lag", 2.0)
        reg.observe("verb.match", 0.003)
        reg.observe("verb.match", 40.0)
        lines = prometheus_lines(reg.snapshot(), {"shard": "2"})
        text = "\n".join(lines)
        assert '# TYPE repro_ops_total counter' in text
        assert 'repro_ops_total{shard="2"} 7' in text
        assert '# TYPE repro_wal_lag gauge' in text
        assert '# TYPE repro_verb_match_seconds histogram' in text
        assert 'repro_verb_match_seconds_count{shard="2"} 2' in text
        # The +Inf bucket is cumulative over everything.
        assert 'le="+Inf"' in text and '} 2' in text

    def test_bucket_counts_are_cumulative(self):
        reg = MetricsRegistry()
        reg.observe("h", 1e-5)
        reg.observe("h", 1.0)
        lines = prometheus_lines(reg.snapshot())
        buckets = [ln for ln in lines if "_bucket{" in ln]
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 2


# ---------------------------------------------------------------------------
# Spans, trace ids, and the slow-op JSONL
# ---------------------------------------------------------------------------


class TestTraceIds:
    def test_prefix_plus_sequence(self):
        prefix = new_trace_id()
        assert len(prefix) == 16  # 8 random bytes, hex
        assert new_trace_id(prefix, 42) == f"{prefix}-42"

    def test_prefixes_are_unique_per_client(self):
        assert new_trace_id() != new_trace_id()


class TestSpanRecorder:
    def test_ring_is_bounded_and_oldest_first(self):
        rec = SpanRecorder(ring_size=4, slow_op_threshold=10.0)
        for i in range(9):
            rec.record("match", i * 0.001, trace=f"t-{i}")
        tail = rec.tail()
        assert [s["trace"] for s in tail] == [f"t-{i}" for i in (5, 6, 7, 8)]
        assert rec.tail(limit=0) == []

    def test_span_wire_shape(self):
        rec = SpanRecorder(shard_index=3, slow_op_threshold=10.0)
        rec.record("take", 0.002, trace="ab-1", error="MachineTaken")
        (span,) = rec.tail()
        assert set(span) == {"ts", "shard", "verb", "trace",
                             "duration_s", "error"}
        assert span["shard"] == 3 and span["error"] == "MachineTaken"

    def test_slow_ops_spill_to_jsonl(self, tmp_path):
        path = tmp_path / "shard_0.slow.jsonl"
        rec = SpanRecorder(slow_op_threshold=0.01, slow_op_path=str(path))
        rec.record("match", 0.002, trace="fast")  # below threshold
        rec.record("match", 0.01, trace="at")     # at threshold: spills
        rec.record("match", 0.5, trace="slow")
        rec.close()
        assert rec.slow_ops == 2
        spans = read_slow_ops(str(path))
        assert [s["trace"] for s in spans] == ["at", "slow"]

    def test_healthy_shard_never_touches_the_filesystem(self, tmp_path):
        path = tmp_path / "never.slow.jsonl"
        rec = SpanRecorder(slow_op_threshold=1.0, slow_op_path=str(path))
        rec.record("match", 0.001)
        rec.close()
        assert not path.exists()

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "torn.slow.jsonl"
        good = json.dumps({"verb": "match", "duration_s": 0.5})
        path.write_text(good + "\n" + '{"verb": "mat', encoding="utf-8")
        spans = read_slow_ops(str(path))
        assert len(spans) == 1 and spans[0]["verb"] == "match"

    def test_missing_log_reads_empty(self, tmp_path):
        assert read_slow_ops(str(tmp_path / "nope.jsonl")) == []

    def test_ring_size_validated(self):
        with pytest.raises(ValueError, match="ring_size"):
            SpanRecorder(ring_size=0)


class TestTraceSurvivesContinuationFrames:
    """ISSUE 10 satellite: a >1 MiB reply splits into continuation
    frames; the trace id stamped on the message must reassemble
    byte-exact on the far side."""

    def test_trace_id_reassembles_across_frames(self):
        trace = new_trace_id(new_trace_id(), 7)
        message = {
            "kind": "match_reply",
            "trace": trace,
            "rows": ["x" * 1024] * ((MAX_FRAME_BYTES // 1024) + 16),
        }
        blob = encode_message(message)
        assert len(blob) > MAX_FRAME_BYTES + 4  # really multi-frame

        async def reassemble():
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            return await read_frame(reader)

        back = asyncio.run(reassemble())
        assert back["trace"] == trace
        assert back["rows"] == message["rows"]


# ---------------------------------------------------------------------------
# Fault-injector trigger counters (ISSUE 10 satellite)
# ---------------------------------------------------------------------------


class TestFaultCounters:
    def test_delay_injector_counts_fired_per_verb(self):
        inj = faults.DelayInjector({"match": 0.0125, "take": 0.0},
                                   known_verbs=("match", "take", "add"))
        assert inj.delay_for("match") == 0.0125
        inj.delay_for("match")
        assert inj.delay_for("take") == 0.0   # zero delay never "fires"
        assert inj.delay_for("add") == 0.0
        assert inj.fired == {"match": 2}

    def test_wildcard_delay_attributes_to_the_slowed_verb(self):
        inj = faults.DelayInjector({"*": 0.001})
        inj.delay_for("match")
        inj.delay_for("update_dynamic")
        assert inj.fired == {"match": 1, "update_dynamic": 1}

    def test_crash_injector_hit_counts(self):
        inj = faults.FaultInjector({"wal.after_append": 3})
        assert not inj.should_fire("wal.after_append")
        assert not inj.should_fire("wal.after_append")
        assert not inj.should_fire("wal.before_append")  # unarmed: no hit
        assert inj.should_fire("wal.after_append")
        assert inj.hit_counts() == {"wal.after_append": 3}


# ---------------------------------------------------------------------------
# Structured logging (ISSUE 10 satellite)
# ---------------------------------------------------------------------------


class TestLogConfig:
    def _obs_handlers(self):
        return [h for h in logging.getLogger("repro").handlers
                if getattr(h, "name", None) == "repro-obs-handler"]

    def test_idempotent_reconfigure(self):
        configure_logging("info")
        configure_logging("debug")
        configure_logging("debug", json_mode=True)
        assert len(self._obs_handlers()) == 1
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_json_mode_emits_one_object_per_line(self):
        stream = io.StringIO()
        logger = configure_logging("info", json_mode=True, stream=stream)
        logger.info("shard %d recovered", 2)
        line = stream.getvalue().strip()
        payload = json.loads(line)
        assert payload["level"] == "INFO"
        assert payload["message"] == "shard 2 recovered"
        assert payload["logger"] == "repro"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def teardown_method(self):
        for handler in self._obs_handlers():
            logging.getLogger("repro").removeHandler(handler)


# ---------------------------------------------------------------------------
# Live fleet: wire shapes, attribution, toggling, and the CLI faces
# ---------------------------------------------------------------------------

QUERY = Query(clauses=(
    Clause("punch", "rsrc", "arch", Op.EQ, "sun"),
    Clause("punch", "rsrc", "memory", Op.GE, 64.0),
))
SHARDS = 3
SLOW_SHARD = 1


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    records = build_fleet(FleetSpec(size=300, seed=9))
    sup = ShardSupervisor(
        SHARDS, snapshot_dir=tmp_path_factory.mktemp("telemetry"),
        records=records, slow_op_threshold=0.02)
    sup.start()
    yield sup
    sup.stop()


@pytest.fixture(scope="module")
def client(fleet):
    return fleet.client()


@pytest.fixture(scope="module")
def plan():
    return compile_plan(QUERY)


class TestMetricsVerbWire:
    def test_per_shard_reply_shape(self, client):
        client.match_names(compile_plan(QUERY))
        snap = client.metrics(max_spans=4)
        assert snap["shards"] == SHARDS
        for i, reply in enumerate(snap["per_shard"]):
            assert reply["kind"] == "metrics"
            assert reply["shard_index"] == i
            assert {"counters", "gauges", "histograms"} \
                <= set(reply["metrics"])
            assert reply["metrics"]["histograms"]["verb.match"]["count"] > 0
            assert isinstance(reply["spans"], list)
            assert {"slow_ops", "slow_op_threshold", "wal",
                    "faults"} <= set(reply)
            assert reply["slow_op_threshold"] == pytest.approx(0.02)

    def test_fleet_merge_and_client_view(self, client, plan):
        for _ in range(3):
            client.match_names(plan)
        snap = client.metrics(max_spans=0)
        fleet_match = snap["fleet"]["histograms"]["verb.match"]
        per_shard_total = sum(
            r["metrics"]["histograms"]["verb.match"]["count"]
            for r in snap["per_shard"])
        assert fleet_match["count"] == per_shard_total
        assert snap["fleet"]["counters"]["ops"] > 0
        view = snap["client"]
        assert view["trace_prefix"] == client.trace_prefix
        assert any(name.startswith("rtt.shard")
                   for name in view["histograms"])

    def test_worker_spans_carry_client_trace_ids(self, client, plan):
        client.match_names(plan)
        snap = client.metrics(max_spans=16)
        traces = [s["trace"]
                  for reply in snap["per_shard"]
                  for s in reply["spans"]
                  if s["verb"] == "match" and s["trace"]]
        assert traces
        assert any(t.startswith(client.trace_prefix) for t in traces)
        # One fan-out shares one id across every shard it touched.
        last_by_shard = [
            [s["trace"] for s in reply["spans"] if s["verb"] == "match"][-1]
            for reply in snap["per_shard"]]
        assert len(set(last_by_shard)) == 1


class TestBrownoutAttribution:
    """The acceptance scenario: a DelayInjector brownout on one shard's
    ``match`` must be attributable from all three telemetry surfaces."""

    def test_slow_shard_singled_out_end_to_end(self, fleet, plan):
        # The incident is measured as a window, not against the module
        # fleet's history: a private client has its own trace prefix
        # and client-side histograms, and the worker histograms are
        # read as after-minus-before.  On cumulative histograms with a
        # dozen samples per shard, p99 is the slowest op any earlier
        # test ever ran, and the shared client's slow-op spans include
        # every earlier op that crossed the threshold.
        with ShardServiceClient(fleet.endpoints) as client:
            before = client.metrics(max_spans=0)
            client.inject_fault(SLOW_SHARD, delays={"match": 0.05})
            try:
                for _ in range(8):
                    client.match_names(plan)
                snap = client.metrics(max_spans=16)
            finally:
                client.inject_fault(SLOW_SHARD, delays={})
            trace_prefix = client.trace_prefix

        # 1. Worker verb histograms over the incident window: p99
        #    argmax names the shard.
        windows = [histogram_delta(
                       after["metrics"]["histograms"]["verb.match"],
                       prior["metrics"]["histograms"].get("verb.match"))
                   for after, prior in zip(snap["per_shard"],
                                           before["per_shard"])]
        assert [w.count for w in windows] == [8] * SHARDS
        p99 = [summarize_histogram(w)["p99_s"] for w in windows]
        assert max(range(SHARDS), key=lambda i: p99[i]) == SLOW_SHARD
        # 2. The fault block proves the delay fired (captured before
        #    the disarm above reset it).
        fired = snap["per_shard"][SLOW_SHARD]["faults"]["delays_fired"]
        assert fired.get("match", 0) >= 8
        # 3. The durable tail: every delayed match left a slow-op JSONL
        #    span carrying this client's trace ids.  (Other verbs of
        #    this client may cross the threshold on a loaded machine;
        #    they are slow ops too, not part of the incident.)
        spans = fleet.slow_ops(SLOW_SHARD)
        ours = [s for s in spans
                if str(s.get("trace", "")).startswith(trace_prefix)
                and s["verb"] == "match"]
        assert len(ours) == 8, f"want 8 delayed match spans in {spans!r}"
        assert all(s["shard"] == SLOW_SHARD and s["duration_s"] >= 0.02
                   for s in ours)
        # The client saw the same incident from its side of the wire.
        assert snap["per_shard"][SLOW_SHARD]["slow_ops"] >= len(ours)
        rtt = snap["client"]["histograms"][f"rtt.shard{SLOW_SHARD}"]
        assert rtt["max_s"] >= 0.05


class TestSetTelemetryToggle:
    def test_off_freezes_counters_and_reenable_resumes(self, client, plan):
        client.match_names(plan)  # ensure series exist
        try:
            client.set_telemetry(False)
            before = client.metrics(max_spans=0)["fleet"]
            client.match_names(plan)
            mid = client.metrics(max_spans=0)["fleet"]
            assert mid["counters"]["ops"] == before["counters"]["ops"]
            client.set_telemetry(True)
            client.match_names(plan)
            after = client.metrics(max_spans=0)["fleet"]
        finally:
            client.set_telemetry(True)
        assert after["counters"]["ops"] > mid["counters"]["ops"]
        # Existing histograms survived the off window.
        assert after["histograms"]["verb.match"]["count"] \
            >= mid["histograms"]["verb.match"]["count"]

    def test_toggle_reply_echoes_state(self, client):
        try:
            replies = client.set_telemetry(False)
            assert all(r == {"kind": "set_telemetry", "enabled": False}
                       for r in replies)
        finally:
            client.set_telemetry(True)


class TestCliFaces:
    def _endpoints(self, fleet):
        return ",".join(f"{h}:{p}" for h, p in fleet.endpoints)

    def test_metrics_json(self, fleet, capsys):
        from repro.cli import main
        assert main(["metrics", "--endpoints", self._endpoints(fleet),
                     "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["shards"] == SHARDS
        assert "verb.match" in snap["fleet"]["histograms"]

    def test_metrics_prometheus(self, fleet, capsys):
        from repro.cli import main
        assert main(["metrics", "--endpoints", self._endpoints(fleet),
                     "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_ops_total counter" in out
        for shard in range(SHARDS):
            assert f'shard="{shard}"' in out
        # One TYPE declaration per metric despite three shards.
        type_lines = [ln for ln in out.splitlines()
                      if ln == "# TYPE repro_ops_total counter"]
        assert len(type_lines) == 1

    def test_metrics_table(self, fleet, capsys):
        from repro.cli import main
        assert main(["metrics", "--endpoints",
                     self._endpoints(fleet)]) == 0
        out = capsys.readouterr().out
        assert "verb.match" in out and "p99 ms" in out

    def test_top_single_frame(self, fleet, capsys):
        from repro.cli import main
        assert main(["top", "--endpoints", self._endpoints(fleet),
                     "--iterations", "1", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "hotspot: shard" in out
        for shard in range(SHARDS):
            assert f"\n{shard:>5} " in out

    def test_log_flags_parse(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-json", "metrics",
             "--endpoints", "127.0.0.1:7171"])
        assert args.log_level == "debug" and args.log_json


class TestTopFrameRendering:
    """``_top_frame`` is a pure function of the snapshot — assert the
    hotspot attribution logic without a TTY or sleeping."""

    def _snapshot(self):
        slow = LatencyHistogram()
        slow.record(0.08)
        fast = LatencyHistogram()
        fast.record(0.001)
        def shard(i, hist, spans=()):
            return {
                "shard_index": i, "requests": 10, "slow_ops": len(spans),
                "slow_op_threshold": 0.02,
                "metrics": {"counters": {}, "gauges": {},
                            "histograms": {"verb.match": hist.to_dict()}},
                "spans": list(spans),
                "wal": {"last_lsn": 5, "synced_lsn": 3 if i == 1 else 5},
            }
        spans = [{"ts": 1.0, "shard": 1, "verb": "match",
                  "trace": "cafe-1", "duration_s": 0.08, "error": None}]
        return {"shards": 2, "epoch": 0,
                "per_shard": [shard(0, fast), shard(1, slow, spans)]}

    def test_hotspot_and_slow_tail(self):
        from repro.cli import _top_frame
        lines = _top_frame(self._snapshot(), rates=["3.0", "4.0"])
        text = "\n".join(lines)
        assert "hotspot: shard 1 / match" in text
        assert "slow-op tail:" in text
        assert "trace=cafe-1" in text
        # WAL lag column: shard 1 is 2 records behind its fsync.
        shard1_row = next(ln for ln in lines if ln.startswith("    1 "))
        assert " 2 " in shard1_row


class TestExampleSmoke:
    """The shipped observability tour is executable documentation;
    run it small (same idiom as the live-resharding smoke)."""

    def test_observability_tour_runs(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable,
             str(repo / "examples" / "observability_tour.py"),
             "--machines", "600", "--seconds", "0.4"],
            capture_output=True, text=True, timeout=180,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin",
                 "HOME": str(tmp_path)},
        )
        assert result.returncode == 0, result.stderr
        assert "identified by worker p99" in result.stdout
