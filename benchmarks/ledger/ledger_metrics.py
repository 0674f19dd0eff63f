"""The ledger's metric vocabulary: names, units, layers, predictions.

``BENCHMARK.json`` at the repository root carries the contract subset
(name, unit, better, bound); this table adds what the contract has no
key for — the layer each metric measures and, written down *before*
measuring, which end-to-end metric on which workload it should move
(W-S / W-L / C / M = ``warm_small`` / ``warm_large`` / ``cold_create``
/ ``monitor_mix``).  The smoke test keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["WIRE_VERBS", "WORKER_VERBS", "WHITEPAGES_VERBS",
           "EndToEnd", "PerLayer", "END_TO_END", "BOUNDED", "PER_LAYER",
           "benchmark_document"]

#: ``ShardServiceClient`` verbs on the query path, timed client-side.
WIRE_VERBS: Tuple[str, ...] = (
    "get", "update_dynamic", "match", "take_all", "release_pool")
#: Of those, the ones reported worker-side under ``shard_worker.*`` ...
WORKER_VERBS: Tuple[str, ...] = ("get", "update_dynamic", "release_pool")
#: ... and the plan/index/bulk-take kernels reported under ``whitepages.*``.
WHITEPAGES_VERBS: Tuple[str, ...] = ("match", "take_all")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median it may worsen by; ``None`` = printed
    #: and stored with the others but outside the contract (not steady
    #: enough on a shared box to gate on).
    bound: Optional[float]
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "fleet build + worker spawn + front-end spawn + warm-up; "
             "median of the set-ups in a run"),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25,
             "client-observed ActYPClient.query latency, median"),
    EndToEnd("query_p90_ms", "ms", "lower", None,
             "same, p90 (highest percentile with >=10 samples beyond it "
             "on every workload)"),
    EndToEnd("release_p50_ms", "ms", "lower", 0.25,
             "client-observed ActYPClient.release latency, median"),
    EndToEnd("cycles_per_s", "1/s", "higher", 0.25,
             "completed query+release cycles per second of timed window"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "sum of VmHWM of the front end and both shard workers"),
    EndToEnd("update_p50_ms", "ms", "lower", 0.25,
             "update_dynamic latency from its due time on the 200/s "
             "monitor schedule, median (beside queries on monitor_mix, "
             "alone in the write probe elsewhere)"),
    EndToEnd("update_p90_ms", "ms", "lower", 0.25, "same, p90"),
)

#: The end-to-end metrics the contract bounds.
BOUNDED: Tuple[EndToEnd, ...] = tuple(
    metric for metric in END_TO_END if metric.bound is not None)


def _per_verb(template: str, unit: str, layer: str, moves: Dict[str, str],
              verbs: Tuple[str, ...] = WIRE_VERBS) -> List[PerLayer]:
    return [PerLayer(template.format(verb), unit, "lower", layer,
                     moves[verb]) for verb in verbs]


_VERB_MOVES = {
    "get": "query_p50_ms, cycles_per_s on W-L (and half of W-S)",
    "update_dynamic": "release_p50_ms everywhere; update_p50_ms on M",
    "match": "query_p50_ms on C",
    "take_all": "query_p50_ms on C",
    "release_pool": "none of the timed metrics (idle sweep only)",
}

_FRONT = "runtime.client+runtime.server"
_SERVICE = "database.service"
_WORKER = "runtime.shard_worker"
_WP = "database.whitepages+core.plan+database.indexes"
_POOL = "core.resource_pool+core.scheduler"

PER_LAYER: Tuple[PerLayer, ...] = tuple([
    PerLayer("front.self_us", "us", "lower", _FRONT,
             "query_p50_ms, cycles_per_s on W-S; nothing on W-L"),
    PerLayer("tail.query_p90_ms", "ms", "lower", _FRONT,
             "diagnostic (untraced 1-client legs); no bound"),
    PerLayer("tail.query_p99_ms", "ms", "lower", _FRONT,
             "diagnostic (untraced 1-client legs); no bound"),
    PerLayer("monitor.late_p90_ms", "ms", "lower", "load generator",
             "validity of update_p50_ms/update_p90_ms: how late the "
             "open-loop writer ran"),
    PerLayer("protocol.codec_us", "us", "lower", "runtime.protocol",
             "query_p50_ms on W-S; query_p50_ms on C via match-reply size"),
    PerLayer("protocol.bytes_per_cycle", "B", "lower", "runtime.protocol",
             "query_p50_ms on W-L and C"),
    PerLayer("protocol.frames_per_cycle", "count", "lower",
             "runtime.protocol", "query_p50_ms on W-L"),
    PerLayer("language.translate_us", "us", "lower", "core.language",
             "query_p50_ms on W-S only"),
    PerLayer("query_manager.admit_self_us", "us", "lower",
             "core.query_manager", "query_p50_ms on W-S only"),
    PerLayer("query_manager.complete_us", "us", "lower",
             "core.query_manager", "query_p50_ms on W-S only"),
    PerLayer("query_manager.components_per_query", "count", "lower",
             "core.query_manager", "query_p50_ms (1 on every workload here)"),
    PerLayer("pipeline.self_us", "us", "lower", "core.pipeline",
             "query_p50_ms on W-S only"),
    PerLayer("pool_manager.route_self_us", "us", "lower",
             "core.pool_manager", "query_p50_ms on W-S only"),
    PerLayer("pool_manager.create_self_us", "us", "lower",
             "core.pool_manager", "query_p50_ms on C"),
    PerLayer("pool_manager.pools_created", "count", "lower",
             "core.pool_manager",
             "query_p50_ms on C; 0 in the window on W-S, W-L, M"),
    PerLayer("resource_pool.allocate_self_us", "us", "lower", _POOL,
             "query_p50_ms, cycles_per_s on W-L"),
    PerLayer("resource_pool.release_self_us", "us", "lower", _POOL,
             "release_p50_ms everywhere"),
    PerLayer("resource_pool.initialize_self_us", "us", "lower", _POOL,
             "query_p50_ms on C"),
    PerLayer("resource_pool.records_examined_per_alloc", "count", "lower",
             _POOL, "query_p50_ms, cycles_per_s on W-L"),
    PerLayer("service.ops_per_cycle", "count", "lower", _SERVICE,
             "query_p50_ms, cycles_per_s on W-L"),
    *_per_verb("service.{}_per_cycle", "count", _SERVICE, _VERB_MOVES),
    *_per_verb("service.rtt_p50_us.{}", "us", _SERVICE, _VERB_MOVES),
    *_per_verb("service.wire_self_us.{}", "us", _SERVICE, {
        verb: "query_p50_ms on W-S and W-L (JSON + syscalls + loopback)"
        for verb in WIRE_VERBS}),
    PerLayer("service.time_share", "ratio", "lower", _SERVICE,
             "query_p50_ms on W-L (most of it) and W-S (about half)"),
    PerLayer("service.reconnects", "count", "lower", _SERVICE,
             "failed ops; 0 at baseline"),
    PerLayer("service.stale_routing", "count", "lower", _SERVICE,
             "failed ops; 0 at baseline"),
    PerLayer("service.stragglers", "ratio", "lower", _SERVICE,
             "query_p50_ms on C: share of fan-outs that waited for the "
             "most-often-slowest shard (0.5 = the shards take turns)"),
    *_per_verb("shard_worker.verb_p50_us.{}", "us", _WORKER, _VERB_MOVES,
               WORKER_VERBS),
    PerLayer("shard_worker.busy_share", "ratio", "lower", _WORKER,
             "cycles_per_s on W-L; update_p50_ms on M"),
    PerLayer("shard_worker.reply_bytes_per_cycle", "B", "lower", _WORKER,
             "query_p50_ms on W-L and C"),
    PerLayer("shard_worker.errors", "count", "lower", _WORKER,
             "failed ops; 0 at baseline"),
    PerLayer("whitepages.match_p50_us", "us", "lower", _WP,
             "query_p50_ms on C only"),
    PerLayer("whitepages.take_all_p50_us", "us", "lower", _WP,
             "query_p50_ms on C only"),
    PerLayer("wal.append_p50_us", "us", "lower", "database.wal",
             "update_p50_ms on M; release_p50_ms on W-S"),
    PerLayer("wal.fsync_p50_us", "us", "lower", "database.wal",
             "update_p50_ms, update_p90_ms on M; release_p50_ms on W-S; "
             "query_p50_ms on C"),
    PerLayer("wal.fsyncs_per_cycle", "count", "lower", "database.wal",
             "release_p50_ms on W-S; update_p50_ms on M"),
    PerLayer("wal.records_per_cycle", "count", "lower", "database.wal",
             "release_p50_ms on W-S"),
    PerLayer("wal.bytes_per_cycle", "B", "lower", "database.wal",
             "query_p50_ms on C (the take_all record)"),
    PerLayer("wal.lag_max", "count", "lower", "database.wal",
             "durability: acknowledged-but-unsynced records; 0 with "
             "wal=fsync"),
    PerLayer("trace.query_ms", "ms", "lower", "trace bookkeeping",
             "1-client unloaded p50 of the traced window"),
    PerLayer("trace.coverage", "ratio", "higher", "trace bookkeeping",
             "sum of span self times / client-observed time; 0.9-1.1"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "trace bookkeeping",
             "traced / untraced query p50 at 1 client"),
])


def benchmark_document(run_seconds: int, workloads) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document these tables imply."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in BOUNDED],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
