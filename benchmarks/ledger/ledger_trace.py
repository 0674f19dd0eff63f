"""The traced run: spans around each layer's public methods, from outside.

Nothing under ``src/`` knows it is being measured.  :data:`SPAN_TABLE`
names, per layer, the public method whose calls become spans; the
wrappers are attached by name for the traced phases and removed again
for the untraced leg that calibrates their overhead.  A name that no
longer resolves is reported as *absent* with a warning — the layer's
time then shows up as its caller's self time — so a refactor of
``src/`` cannot break the end-to-end numbers, only thin out the
attribution under them.

Spans stay in memory (name, trace id, parent, phase, start, end) until
the run ends.  A layer's self time is its span minus the part its child
spans cover.  Worker-side numbers are windowed deltas of the public
``metrics`` verb, read through :meth:`ShardServiceClient.metrics`.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib
import inspect
import threading
import time
import warnings
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from ledger_load import MONITOR_THREAD_NAME, Rep, percentile
from ledger_metrics import WHITEPAGES_VERBS, WIRE_VERBS, WORKER_VERBS
from ledger_stack import SHARDS, Stack
from repro.obs.telemetry import (
    BUCKET_EDGES,
    LatencyHistogram,
    histogram_delta,
)

__all__ = ["SPAN_TABLE", "FRAME_TAPS", "Tracer", "InProcessFront",
           "FleetWindow", "wire_self_us", "per_layer_metrics",
           "spans_summary", "sample_traces"]

#: span name -> (module, class, method).  One public method per layer
#: boundary; the span name's prefix is the layer's short name.
SPAN_TABLE: Tuple[Tuple[str, str, str, str], ...] = (
    ("client.query", "repro.runtime.client", "ActYPClient", "query"),
    ("client.release", "repro.runtime.client", "ActYPClient", "release"),
    ("pipeline.submit", "repro.core.pipeline", "ActYPService", "submit"),
    ("pipeline.release", "repro.core.pipeline", "ActYPService", "release"),
    ("language.translate", "repro.core.translation", "TranslatorRegistry",
     "translate"),
    ("query_manager.admit", "repro.core.query_manager", "QueryManager",
     "admit"),
    ("query_manager.complete", "repro.core.query_manager", "QueryManager",
     "complete_component"),
    ("pool_manager.route", "repro.core.pool_manager", "PoolManager", "route"),
    ("pool_manager.create", "repro.core.pool_manager", "PoolManager",
     "create_pool"),
    ("resource_pool.allocate", "repro.core.resource_pool", "ResourcePool",
     "allocate"),
    ("resource_pool.release", "repro.core.resource_pool", "ResourcePool",
     "release"),
    ("resource_pool.initialize", "repro.core.resource_pool", "ResourcePool",
     "initialize"),
) + tuple(
    (f"service.{verb}", "repro.database.service", "ShardServiceClient", verb)
    for verb in WIRE_VERBS)

#: Frame functions tapped where a *client* imports them, so each frame
#: of both wires (desktop <-> front end, front end <-> shard worker) is
#: seen exactly once: (module, function, frame is the result?).
FRAME_TAPS: Tuple[Tuple[str, str, bool], ...] = (
    ("repro.runtime.client", "write_frame", False),
    ("repro.runtime.client", "read_frame", True),
    ("repro.database.service", "write_frame_sock", False),
    ("repro.database.service", "read_frame_sock", True),
)
#: Cycles of the traced window whose frames are kept for the codec replay.
CAPTURE_CYCLES = 64

_ROOTS = ("client.query", "client.release")


class Tracer:
    """In-memory spans for calls made on the load generator's thread.

    Spans are stored as columns (one list per field, indexed by span
    number) so that a hundred thousand of them add six containers to
    the garbage collector's work, not a hundred thousand.
    """

    def __init__(self) -> None:
        self.name: List[str] = []
        self.trace: List[int] = []
        self.parent: List[int] = []
        self.phase_of: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.phase = "warmup"
        self.absent: List[str] = []
        #: (trace id, worker port) -> (verb, seconds): every shard round
        #: trip at the socket boundary, to pair with the worker's span.
        self.wire: Dict[Tuple[Any, int], Tuple[str, float]] = {}
        self.frames: List[Dict[str, Any]] = []
        self.capture = False
        self.captured_cycles = 0
        self._thread = threading.get_ident()
        self._open: List[int] = []
        self._trace = 0
        self._sent = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.name)

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    # -- span recording ------------------------------------------------------

    def _begin(self, name: str) -> int:
        if not self._open and name == "client.query":
            self._trace += 1
            if self.capture:
                self.captured_cycles += 1
                self.capture = self.captured_cycles <= CAPTURE_CYCLES
        index = len(self.name)
        self.name.append(name)
        self.trace.append(self._trace)
        self.parent.append(self._open[-1] if self._open else -1)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A caller-made root span (work no client request causes)."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index = self._begin(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._end(index)
            return traced_async

        def traced(*args: Any, **kwargs: Any) -> Any:
            # Other threads (the monitor, fan-out workers) are not part
            # of the request's blocking path as the client sees it.
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)
        return traced

    # -- frame taps ----------------------------------------------------------

    def _keep(self, frame: Dict[str, Any]) -> None:
        if self.capture and \
                threading.current_thread().name != MONITOR_THREAD_NAME:
            self.frames.append(frame)

    def _tap_wrapper(self, fn: Callable, returns_frame: bool) -> Callable:
        if inspect.iscoroutinefunction(fn):
            async def tapped_async(*args: Any) -> Any:
                result = await fn(*args)
                self._keep(result if returns_frame else args[1])
                return result
            return tapped_async
        if returns_frame:
            def tapped_read(sock: Any) -> Any:
                reply = fn(sock)
                trace, verb, t0 = self._sent.last
                self.wire[trace, sock.getpeername()[1]] = (
                    verb, time.perf_counter() - t0)
                self._keep(reply)
                return reply
            return tapped_read

        def tapped_write(sock: Any, frame: Dict[str, Any]) -> Any:
            self._keep(frame)
            self._sent.last = (frame.get("trace"), frame.get("kind"),
                               time.perf_counter())
            return fn(sock, frame)
        return tapped_write

    # -- attaching by name ---------------------------------------------------

    def _patch(self, label: str, module: str, path: Sequence[str],
               make: Callable[[Callable], Callable]) -> None:
        try:
            owner: Any = importlib.import_module(module)
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            if label not in self.absent:
                self.absent.append(label)
                warnings.warn(f"ledger: {module}.{'.'.join(path)} not "
                              f"found; {label} reported as absent")
            return
        setattr(owner, path[-1], make(original))
        self._undo.append((owner, path[-1], original))

    def attach(self) -> None:
        for name, module, cls, method in SPAN_TABLE:
            self._patch(name, module, (cls, method),
                        lambda fn, name=name: self._span_wrapper(name, fn))
        for module, function, returns_frame in FRAME_TAPS:
            self._patch(f"protocol.{function}", module, (function,),
                        lambda fn, r=returns_frame:
                        self._tap_wrapper(fn, r))

    def detach(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class InProcessFront:
    """The front end ``repro serve --shard-service`` assembles —
    ``ShardServiceClient`` + ``build_service`` (default config) +
    ``ActYPServer`` on port 0 — built inside the harness so the span
    wrappers see its calls."""

    def __init__(self, stack: Stack):
        self._stack = stack
        self.counters: Dict[str, int] = defaultdict(int)
        self.service: Any = None
        self._db: Any = None
        self._server: Any = None

    async def start(self) -> "InProcessFront":
        from repro.core.pipeline import build_service
        from repro.database.service import (ShardServiceClient,
                                            parse_endpoints)
        from repro.runtime.server import ActYPServer
        spec = ",".join(f"{h}:{p}" for h, p in self._stack.endpoints)
        self._db = ShardServiceClient(parse_endpoints(spec))
        self.service = build_service(self._db)
        self._server = ActYPServer(self.service)
        await self._server.start("127.0.0.1", 0)
        return self

    @property
    def port(self) -> int:
        return self._server.port

    async def stop(self) -> None:
        if self._server is None:
            return
        await self._server.stop()
        self._server = None
        # Let the connection handlers see their clients' EOF and close;
        # asyncio.run would otherwise cancel them mid-close, which
        # Python 3.11 logs as an error.
        await asyncio.sleep(0.05)
        snapshot = self._db.metrics_registry.snapshot()["counters"]
        for name, value in snapshot.items():
            self.counters[name] += int(value)
        manager = self.service.query_manager
        self.counters["queries_admitted"] += manager.queries_admitted
        self.counters["components_dispatched"] += \
            manager.components_dispatched
        self._db.close()

    async def restart(self) -> None:
        await self.stop()
        self._stack.reset_fleet()
        await self.start()

    def sweep_idle_pools(self, now: float) -> int:
        """Destroy every (idle) pool, as the paper's janitor would."""
        return self.service.sweep_idle_pools(now, idle_timeout_s=0.0)


# -- worker-side windows -------------------------------------------------------


class FleetWindow:
    """What the workers did between pairs of fleet telemetry snapshots
    (the public ``metrics`` verb), merged over the shards."""

    def __init__(self, pairs: Sequence[Tuple[Dict[str, Any],
                                             Dict[str, Any]]]):
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.counters: Dict[str, int] = defaultdict(int)
        self.wal: Dict[str, int] = defaultdict(int)
        self.wal_lag = 0
        for before, after in pairs:
            for old, new in zip(before["per_shard"], after["per_shard"]):
                old_hists = old["metrics"]["histograms"]
                for name, data in new["metrics"]["histograms"].items():
                    delta = histogram_delta(data, old_hists.get(name))
                    self.histograms.setdefault(
                        name, LatencyHistogram()).merge(delta)
                old_counters = old["metrics"]["counters"]
                for name, value in new["metrics"]["counters"].items():
                    self.counters[name] += value - old_counters.get(name, 0)
                for key in ("appended", "syncs", "bytes"):
                    self.wal[key] += new["wal"].get(key, 0) \
                        - old["wal"].get(key, 0)
                for shard in (old, new):
                    self.wal_lag = max(
                        self.wal_lag, shard["wal"].get("last_lsn", 0)
                        - shard["wal"].get("synced_lsn", 0))

    def p50_us(self, series: str) -> float:
        """Median of ``series``, interpolated inside its log bucket."""
        hist = self.histograms.get(series)
        if hist is None or not hist.count:
            return 0.0
        rank, seen = hist.count / 2.0, 0
        for index in sorted(hist.buckets):
            n = hist.buckets[index]
            if seen + n >= rank:
                low = BUCKET_EDGES[index - 1] if index else 0.0
                high = BUCKET_EDGES[min(index, len(BUCKET_EDGES) - 1)]
                return (low + (high - low) * (rank - seen) / n) * 1e6
            seen += n
        return hist.max * 1e6

    def busy_s(self) -> float:
        """Worker seconds spent on the query path's verbs (the
        harness's own checks and telemetry reads are not the workload)."""
        return sum(self.histograms[f"verb.{verb}"].sum for verb in WIRE_VERBS
                   if f"verb.{verb}" in self.histograms)


def wire_self_us(tracer: Tracer, tails: Sequence[Dict[str, Any]],
                 ports: Sequence[int]) -> Dict[str, float]:
    """Per verb, the median over matched operations of (round trip at
    the client's socket) - (the worker's own clock for that op): JSON
    both ways, syscalls, loopback, scheduler hand-offs.

    ``tails`` are ``metrics`` replies carrying each worker's recent-span
    ring; ops are matched by trace id and worker port.  Matching op by
    op and taking the median keeps out the ops on which a worker was
    descheduled after its reply left but before it stopped its clock.
    """
    matched: Dict[Tuple[Any, int], Tuple[str, float]] = {}
    for tail in tails:
        for shard, port in zip(tail["per_shard"], ports):
            for span in shard["spans"]:
                key = (span["trace"], port)
                sent = tracer.wire.get(key)
                if sent is not None and sent[0] == span["verb"]:
                    matched[key] = (sent[0], sent[1] - span["duration_s"])
    by_verb: Dict[str, List[float]] = defaultdict(list)
    for verb, difference in matched.values():
        by_verb[verb].append(difference)
    return {verb: percentile(values, 50) * 1e6
            for verb, values in by_verb.items()}


# -- analysis ------------------------------------------------------------------


def _self_times(tracer: Tracer) -> List[float]:
    covered = [0.0] * len(tracer)
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            covered[parent] += tracer.duration(i)
    return [max(0.0, tracer.duration(i) - covered[i])
            for i in range(len(tracer))]


def _codec_replay(frames: Sequence[Dict[str, Any]]) -> Tuple[float, int]:
    """Seconds to encode and decode ``frames`` once each, and their
    total wire size."""
    from repro.runtime.protocol import decode_frame, encode_frame
    seconds, size = 0.0, 0
    for frame in frames:
        t0 = time.perf_counter()
        data = encode_frame(frame)
        decode_frame(data[4:])
        seconds += time.perf_counter() - t0
        size += len(data)
    return seconds, size


def per_layer_metrics(tracer: Tracer, front: InProcessFront,
                      everything: FleetWindow, window: FleetWindow,
                      wire_self: Dict[str, float],
                      untraced: Sequence[Rep], traced: Sequence[Rep],
                      ) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric, from the spans, the taps, the two
    worker-side windows (whole run / traced legs) and the two kinds of
    leg (``untraced`` and ``traced``, alternated)."""
    selfs = _self_times(tracer)
    in_window: Dict[str, List[int]] = defaultdict(list)
    anywhere: Dict[str, List[int]] = defaultdict(list)
    for i, name in enumerate(tracer.name):
        anywhere[name].append(i)
        if tracer.phase_of[i] == "window":
            in_window[name].append(i)
    cycles = max(1, len(in_window["client.query"]))
    window_s = sum(rep.elapsed_s for rep in traced)

    def calls(name: str) -> List[int]:
        # Hot-path layers are judged on the traced window; a layer the
        # window never enters (pool creation on a warm workload, the
        # idle sweep) on whichever phase did call it.
        return in_window[name] or anywhere[name]

    def mean_us(values: Sequence[float]) -> float:
        return sum(values) / len(values) * 1e6 if values else 0.0

    def self_us(name: str) -> float:
        return mean_us([selfs[i] for i in calls(name)])

    def per_cycle_us(names: Sequence[str]) -> float:
        return sum(selfs[i] for name in names
                   for i in in_window[name]) / cycles * 1e6

    out: Dict[str, float] = {}
    end_to_end_s = sum(tracer.duration(i) for name in _ROOTS
                       for i in in_window[name])
    out["front.self_us"] = per_cycle_us(_ROOTS)
    untraced_queries = [q for rep in untraced for q in rep.queries]
    traced_queries = [q for rep in traced for q in rep.queries]
    out["tail.query_p90_ms"] = percentile(untraced_queries, 90) * 1e3
    out["tail.query_p99_ms"] = percentile(untraced_queries, 99) * 1e3
    out["monitor.late_p90_ms"] = percentile(
        [late for rep in untraced for _latency, late in rep.updates],
        90) * 1e3

    if any(label.startswith("protocol.") for label in tracer.absent):
        codec_s, wire_bytes = 0.0, 0
    else:
        codec_s, wire_bytes = _codec_replay(tracer.frames)
    captured = max(1, min(tracer.captured_cycles, CAPTURE_CYCLES))
    out["protocol.codec_us"] = codec_s / captured * 1e6
    out["protocol.bytes_per_cycle"] = wire_bytes / captured
    out["protocol.frames_per_cycle"] = len(tracer.frames) / captured

    out["language.translate_us"] = mean_us(
        [tracer.duration(i) for i in calls("language.translate")])
    out["query_manager.admit_self_us"] = self_us("query_manager.admit")
    out["query_manager.complete_us"] = mean_us(
        [tracer.duration(i) for i in calls("query_manager.complete")])
    out["query_manager.components_per_query"] = (
        front.counters["components_dispatched"]
        / max(1, front.counters["queries_admitted"]))
    out["pipeline.self_us"] = per_cycle_us(
        ("pipeline.submit", "pipeline.release"))
    out["pool_manager.route_self_us"] = self_us("pool_manager.route")
    out["pool_manager.create_self_us"] = self_us("pool_manager.create")
    out["pool_manager.pools_created"] = len(in_window["pool_manager.create"])
    for step in ("allocate", "release", "initialize"):
        out[f"resource_pool.{step}_self_us"] = \
            self_us(f"resource_pool.{step}")
    examined = sum(
        1 for i in in_window["service.get"] if tracer.parent[i] >= 0
        and tracer.name[tracer.parent[i]] == "resource_pool.allocate")
    out["resource_pool.records_examined_per_alloc"] = \
        examined / max(1, len(in_window["resource_pool.allocate"]))

    service_s = 0.0
    service_ops = 0
    for verb in WIRE_VERBS:
        name = f"service.{verb}"
        service_ops += len(in_window[name])
        service_s += sum(tracer.duration(i) for i in in_window[name])
        out[f"service.{verb}_per_cycle"] = len(in_window[name]) / cycles
        out[f"service.rtt_p50_us.{verb}"] = percentile(
            [tracer.duration(i) for i in calls(name)], 50) * 1e6 \
            if calls(name) else 0.0
        out[f"service.wire_self_us.{verb}"] = wire_self.get(verb, 0.0)
    out["service.ops_per_cycle"] = service_ops / cycles
    out["service.time_share"] = service_s / end_to_end_s \
        if end_to_end_s else 0.0
    out["service.reconnects"] = front.counters["reconnects"]
    out["service.stale_routing"] = front.counters["stale_routing_retries"]
    # The client counts, per fan-out, which shard answered last.  Half
    # means the shards take turns; one means one shard bounds them all.
    out["service.stragglers"] = max(
        [value for name, value in front.counters.items()
         if name.startswith("straggler.")] or [0]
    ) / max(1, front.counters["fanouts"])

    for verb in WORKER_VERBS:
        out[f"shard_worker.verb_p50_us.{verb}"] = \
            everything.p50_us(f"verb.{verb}")
    for verb in WHITEPAGES_VERBS:
        out[f"whitepages.{verb}_p50_us"] = everything.p50_us(f"verb.{verb}")
    out["shard_worker.busy_share"] = window.busy_s() / (window_s * SHARDS) \
        if window_s else 0.0
    out["shard_worker.reply_bytes_per_cycle"] = \
        window.counters["reply_bytes"] / cycles
    out["shard_worker.errors"] = sum(
        value for name, value in everything.counters.items()
        if name.startswith("errors."))
    out["wal.append_p50_us"] = everything.p50_us("wal.append")
    out["wal.fsync_p50_us"] = everything.p50_us("wal.fsync")
    out["wal.fsyncs_per_cycle"] = window.wal["syncs"] / cycles
    out["wal.records_per_cycle"] = window.wal["appended"] / cycles
    out["wal.bytes_per_cycle"] = window.wal["bytes"] / cycles
    out["wal.lag_max"] = max(everything.wal_lag, window.wal_lag)

    traced_p50 = percentile(traced_queries, 50)
    untraced_p50 = percentile(untraced_queries, 50)
    out["trace.query_ms"] = traced_p50 * 1e3
    out["trace.coverage"] = sum(
        selfs[i] for i, phase in enumerate(tracer.phase_of)
        if phase == "window") / end_to_end_s if end_to_end_s else 0.0
    out["trace.overhead_ratio"] = traced_p50 / untraced_p50 \
        if untraced_p50 else 0.0
    return out


def spans_summary(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name over the traced window: calls, total and self time."""
    selfs = _self_times(tracer)
    summary: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(tracer.name):
        if tracer.phase_of[i] != "window":
            continue
        row = summary.setdefault(
            name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
        row["calls"] += 1
        row["total_us"] += tracer.duration(i) * 1e6
        row["self_us"] += selfs[i] * 1e6
    return summary


def sample_traces(tracer: Tracer, count: int = 2,
                  max_spans: int = 64) -> List[List[Dict[str, Any]]]:
    """The first ``count`` cycles of the window as span trees (span
    index, parent index, name, start offset and duration in us)."""
    traces: Dict[int, List[Dict[str, Any]]] = {}
    for i, trace in enumerate(tracer.trace):
        if tracer.phase_of[i] != "window":
            continue
        rows = traces.get(trace)
        if rows is None:
            if len(traces) == count:
                break  # spans are in start order and cycles do not overlap
            rows = traces[trace] = []
        if len(rows) < max_spans:
            origin = tracer.start[rows[0]["span"]] if rows \
                else tracer.start[i]
            rows.append({
                "span": i, "parent": tracer.parent[i],
                "name": tracer.name[i], "trace": trace,
                "start_us": (tracer.start[i] - origin) * 1e6,
                "duration_us": tracer.duration(i) * 1e6})
    return list(traces.values())
