"""Long-lived shard workers: live white-pages shards behind the wire.

A :class:`ShardWorker` is how the white pages match on more than one
core: one process owns one **live** :class:`~repro.database.whitepages
.WhitePagesDatabase` shard — attribute indexes, subscription map, and
query-class caches stay warm across requests — and serves shard verbs
over the length-prefixed JSON frame protocol
(:mod:`repro.runtime.protocol`).  The client half
(:class:`~repro.database.service.ShardServiceClient`) routes point
operations by CRC-32 of the machine name and fans queries out across
workers, so the whole service presents the duck-typed ``WhitePages``
surface out-of-process.

The verbs themselves are the rows of :data:`repro.runtime.verbs.VERBS`:
one table says, per verb, how a frame routes, whether it mutates (and
so is logged and replayed), and whether a retired worker still serves
it.

Routing epochs (live resharding)
--------------------------------
A worker serves one routing **epoch** (0 for a fleet that never
resharded).  A frame stamped with another epoch, or any frame to a
**retired** worker (its shard migrated away by
:class:`~repro.database.resharding.ShardMigrator`), is refused with
``StaleRoutingError`` — carrying the worker's routing table when it
knows one — unless its row is ``served_when_retired``.  The client
refreshes and retries (see :mod:`repro.database.service`).

Durability (the write-ahead op log)
-----------------------------------
With a :class:`~repro.database.wal.WriteAheadLog` attached, every
``mutates`` verb that succeeds is appended to the log — the wire frame
verbatim, so the log reuses the v3 row codec — and, in ``fsync`` mode,
made durable *before the reply frame is sent*.  Concurrent connections
group-commit: appends that land in the same event-loop batch (or the
same ``group_commit_interval`` window) share one ``fdatasync``.
Restart is snapshot-load + log-tail replay (:meth:`ShardWorker.replay`),
with the snapshot's embedded LSN watermark skipping records already
included and any torn tail discarded fail-closed.  Without a log the
worker keeps PR 5's lossy last-checkpoint contract unchanged.

Database errors cross the wire as error frames; the client re-raises
the named :mod:`repro.errors` class, so remote error paths are
type-identical to the in-process ones.  Replies larger than one frame
(bulk matches, inline snapshots) ride the protocol's continuation
frames.

A worker validates routing on every ``register``, ``update`` and
``reset``: a record whose name CRC-routes to a different shard is
refused, so a mis-configured client cannot silently split the name
space.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import time
import zlib
from typing import Any, Dict, List, Optional

from repro.database.records import (
    MachineRecord,
    _FLAGS_BY_BITS,
    _STATE_BY_VALUE,
)
from repro.database.sharding import shard_of
from repro.database.wal import WriteAheadLog
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import (
    ConfigError,
    DatabaseError,
    RuntimeProtocolError,
    StaleRoutingError,
)
from repro.obs.telemetry import MetricsRegistry
from repro.obs.tracing import SpanRecorder
from repro.runtime import faults
from repro.runtime.protocol import (
    HANDLER_ERRORS,
    FrameServer,
    encode_message,
    error_frame,
    read_frame,
)
from repro.runtime.verbs import VERBS, Verb
from repro.runtime.wire import clause_from_dict, clause_to_dict

__all__ = [
    "ShardWorker",
    "run_shard_worker",
    "encode_dynamic",
    "decode_dynamic",
    "clauses_to_wire",
    "clauses_from_wire",
]

logger = logging.getLogger(__name__)

#: Dynamic fields (1-7) that need a codec beyond JSON's native types.
_STATE_KEY = "state"
_FLAGS_KEY = "service_status_flags"


def encode_dynamic(dynamic: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe encoding of ``update_dynamic`` kwargs (state → value
    string, service flags → bit mask; numbers pass through)."""
    out: Dict[str, Any] = {}
    for key, value in dynamic.items():
        if key == _STATE_KEY and value is not None:
            out[key] = str(value)
        elif key == _FLAGS_KEY and value is not None:
            out[key] = ((1 if value.execution_unit_up else 0)
                        | (2 if value.pvfs_manager_up else 0)
                        | (4 if value.proxy_server_up else 0))
        else:
            out[key] = value
    return out


def decode_dynamic(dynamic: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`encode_dynamic`: wire values back to the
    :class:`MachineRecord` domain types (state enum, flags object)."""
    out: Dict[str, Any] = {}
    for key, value in dynamic.items():
        if key == _STATE_KEY and value is not None:
            out[key] = _STATE_BY_VALUE[value]
        elif key == _FLAGS_KEY and value is not None:
            out[key] = _FLAGS_BY_BITS[int(value)]
        else:
            out[key] = value
    return out


def clauses_to_wire(plan: Any) -> Optional[List[Dict[str, Any]]]:
    """Normalise any ``match()`` plan argument to a wire clause list.

    ``None`` (match-all) stays ``None``; a compiled plan contributes its
    clause set, so compilation on the worker side reproduces the exact
    plan the caller held.
    """
    from repro.core.plan import ClauseSet, QueryPlan
    from repro.core.query import Query
    if plan is None:
        return None
    if isinstance(plan, QueryPlan):
        clause_set = plan.clause_set
    elif isinstance(plan, ClauseSet):
        clause_set = plan
    elif isinstance(plan, Query):
        clause_set = ClauseSet.from_query(plan)
    else:  # raw clause iterable
        clause_set = ClauseSet.from_clauses(plan)
    return [clause_to_dict(c) for c in clause_set.clauses]


def clauses_from_wire(data: Optional[List[Dict[str, Any]]]) -> Any:
    """Decode a wire clause list back to clause objects (``None`` stays
    the match-all plan)."""
    if data is None:
        return None
    return [clause_from_dict(c) for c in data]


#: The shared field codecs for positional database-call arguments:
#: frame field -> decoder.  ``dynamic`` and ``include_taken`` are the
#: keyword fields.
_POSITIONAL = {
    "name": str,
    "names": lambda names: [str(n) for n in names],
    "clauses": clauses_from_wire,
    "pool": str,
}


class ShardWorker(FrameServer):
    """One live shard behind a TCP endpoint.

    Parameters
    ----------
    database:
        The shard's live :class:`WhitePagesDatabase` (indexes and caches
        stay warm for the worker's lifetime).
    shard_index, shards:
        This worker's slot in the N-shard layout; ``register`` refuses
        records that :func:`~repro.database.sharding.shard_of` routes
        elsewhere.  ``shards=1`` accepts every name.
    wal:
        An open :class:`~repro.database.wal.WriteAheadLog`, or ``None``
        for PR 5's lossy last-checkpoint contract.  With a log in
        ``fsync`` mode, mutating verbs are made durable (group-commit)
        before their reply frame is sent.
    epoch:
        The routing epoch this worker serves (0 for a fleet that never
        resharded).  Point-op frames carrying a different ``"epoch"``
        are refused with :class:`~repro.errors.StaleRoutingError`.
    telemetry:
        ``False`` disables the metrics registry and span recording —
        the off arm of the overhead scale gate.  The ``metrics`` verb
        still answers (with empty series).
    slow_op_threshold:
        Ops taking at least this many seconds (injected delay, WAL
        commit wait, and reply write included) are appended to the
        slow-op JSONL at ``slow_op_path``.
    slow_op_path:
        Where slow spans are logged, conventionally beside the shard's
        WAL.  ``None`` keeps the in-memory span ring only.
    """

    def __init__(self, database: Optional[WhitePagesDatabase] = None, *,
                 shard_index: int = 0, shards: int = 1,
                 wal: Optional[WriteAheadLog] = None,
                 epoch: int = 0,
                 telemetry: bool = True,
                 slow_op_threshold: float = 0.25,
                 slow_op_path: Optional[str] = None):
        if not 0 <= shard_index < shards:
            raise DatabaseError(
                f"shard index {shard_index} outside 0..{shards - 1}")
        super().__init__()
        self.database = database if database is not None \
            else WhitePagesDatabase()
        self.shard_index = shard_index
        self.shards = shards
        self.wal = wal
        self.epoch = int(epoch)
        #: Set by ``migrate_cutover {retire: true}``: this shard's data
        #: has moved to a new fleet; refuse (almost) everything.
        self.retired = False
        #: The current routing table as a wire dict, once known (set at
        #: cutover).  Carried on StaleRoutingError frames so refused
        #: clients can refresh without a second round trip.
        self.routing: Optional[Dict[str, Any]] = None
        #: ``migrate_begin`` pins the log: checkpoint-triggered
        #: truncation is deferred until cutover/rollback so the
        #: migrator's tail stream can never lose records underneath it.
        self._wal_pinned = False
        self.requests = 0
        self.started_at = time.monotonic()
        self._shutdown = asyncio.Event()
        #: The in-flight group-commit sync, shared by every handler
        #: whose op is waiting to become durable.
        self._sync_task: Optional[asyncio.Task] = None
        #: Per-verb latency histograms, WAL append/fsync timings, reply
        #: bytes, and error-class counters (see :mod:`repro.obs`).
        self.metrics = MetricsRegistry(enabled=telemetry)
        #: Recent-span ring + slow-op JSONL appender.
        self.spans = SpanRecorder(shard_index,
                                  slow_op_threshold=slow_op_threshold,
                                  slow_op_path=slow_op_path)
        #: Set by ``shutdown``: stop once its reply is sent.
        self._stopping = False
        #: kind -> (row, handler, ``verb.<kind>`` series name): the one
        #: lookup each op makes.
        self._verbs = {name: (verb, self._handler(verb), "verb." + name)
                       for name, verb in VERBS.items()}

    # -- lifecycle -----------------------------------------------------------

    async def stop(self) -> None:
        """Close the listener, drain live connections, and flush/close
        the op log — the graceful-shutdown path (a clean stop is
        replay-free)."""
        await super().stop()
        if self.wal is not None and not self.wal.closed:
            try:
                self.wal.close()
            except DatabaseError:  # pragma: no cover - disk failure
                logger.exception("shard %d: wal close failed",
                                 self.shard_index)
        self.spans.close()

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` verb arrives, then stop."""
        await self._shutdown.wait()
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def serve_frame(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """One worker turn: clock, dispatch + log, commit, reply,
        observe — in that order (see the module docstring's durability
        contract)."""
        frame = await read_frame(reader)
        # The verb clock starts here, before the injected brownout
        # delay and the group-commit wait — so a DelayInjector on
        # `match` shows up in *this shard's* match histogram, which is
        # the whole point of server-side attribution.
        t0 = time.perf_counter()
        kind = str(frame.get("kind"))
        entry = self._verbs.get(kind)
        delay = faults.delay_for(kind)
        if delay > 0:
            # A brownout: the sleep yields, so other connections to
            # this worker are delayed only by their own ops.
            await asyncio.sleep(delay)
        response = self._dispatch(frame, entry)
        if entry is not None and entry[0].mutates:
            response = await self._commit_wal(response)
        reply_bytes = await self._send_reply(writer, response)
        if self.metrics.enabled:
            self._observe_op(kind, frame, response, entry,
                             time.perf_counter() - t0, reply_bytes)
        if self._stopping:
            self._shutdown.set()
            return False
        return True

    # -- durability plumbing ---------------------------------------------------

    async def _commit_wal(self, response: Dict[str, Any]
                          ) -> Dict[str, Any]:
        """Group-commit barrier for a ``mutates`` verb's reply: in
        ``fsync`` mode, an acknowledged mutation is a durable mutation.

        Only the op's own reply waits — error replies pass straight
        through.  Concurrent committers share one sync: the first waiter
        schedules the sync task (optionally delayed by the group-commit
        interval so more appends pile into the same ``fdatasync``);
        everyone whose LSN it covers awaits the same task.  A sync
        failure turns the success reply into an error frame — the client
        must never believe an op is durable when the disk said no.
        """
        wal = self.wal
        if (wal is None or wal.mode != "fsync"
                or response.get("kind") == "error"):
            return response
        target = wal.last_lsn
        try:
            while wal.synced_lsn < target:
                if self._sync_task is None:
                    self._sync_task = asyncio.ensure_future(self._run_sync())
                await self._sync_task
        except DatabaseError as exc:
            return error_frame(DatabaseError(f"wal sync failed: {exc}"))
        return response

    async def _run_sync(self) -> None:
        try:
            if self.wal.group_commit_interval > 0:
                await asyncio.sleep(self.wal.group_commit_interval)
            else:
                # One trip through the event loop: handlers already
                # scheduled in this batch append before the sync runs.
                await asyncio.sleep(0)
            t0 = time.perf_counter()
            self.wal.sync()
            self.metrics.observe("wal.fsync", time.perf_counter() - t0)
        finally:
            self._sync_task = None

    async def _send_reply(self, writer: asyncio.StreamWriter,
                          response: Dict[str, Any]) -> int:
        # Encode once (write_frame would encode again) so the reply's
        # wire size feeds the reply_bytes counter for free.
        data = encode_message(response)
        # The `fault` verb's own acknowledgement is immune: its reply is
        # the first one sent after arming, so without this exemption a
        # reply.mid_frame trigger could never survive to a real op.
        if "armed" not in response and \
                faults.should_fire("reply.mid_frame"):  # pragma: no cover
            # Torn-reply scenario: half the frame reaches the client,
            # then the process dies.  The client must fail closed.
            writer.write(data[:max(1, len(data) // 2)])
            await writer.drain()
            faults.die()
        writer.write(data)
        await writer.drain()
        return len(data)

    def _observe_op(self, kind: str, frame: Dict[str, Any],
                    response: Dict[str, Any], entry: Optional[tuple],
                    duration_s: float, reply_bytes: int) -> None:
        """Fold one completed op into the registry and the span ring."""
        error = response.get("error") \
            if response.get("kind") == "error" else None
        # A known verb's series name was built once, with its table row.
        series = entry[2] if entry is not None else "verb." + kind
        self.metrics.observe_op(series, duration_s, reply_bytes)
        if error is not None:
            self.metrics.inc(f"errors.{error}")
        trace = frame.get("trace")
        self.spans.record(kind, duration_s,
                          trace=str(trace) if trace is not None else None,
                          error=error)

    # -- dispatch --------------------------------------------------------------

    def _stale_routing(self, message: str) -> Dict[str, Any]:
        """An error frame that carries the worker's routing table (when
        known) so the refused client can refresh in one round trip."""
        reply = error_frame(StaleRoutingError(message))
        if self.routing is not None:
            reply["routing"] = self.routing
        return reply

    def _handler(self, verb: Verb) -> Any:
        """The callable serving ``verb``: its ``_verb_<name>`` method, or
        one serving it as the same-named database method — the row's
        ``args`` decoded by the shared field codecs, the result sent as
        the row's ``reply``."""
        handler = getattr(self, "_verb_" + verb.name, None)
        if handler is not None:
            return handler
        if verb.reply is None:
            raise TypeError(f"shard verb {verb.name!r} has neither a "
                            "handler nor a database reply")
        positional = [(field, _POSITIONAL[field]) for field in verb.args
                      if field not in ("dynamic", "include_taken")]
        dynamic = "dynamic" in verb.args
        include_taken = "include_taken" in verb.args
        name = verb.name
        kind, key = verb.reply

        def serve(frame: Dict[str, Any]) -> Dict[str, Any]:
            """Decode, call, encode."""
            args = [decode(frame[field]) for field, decode in positional]
            kwargs = decode_dynamic(frame.get("dynamic", {})) \
                if dynamic else {}
            if include_taken:
                kwargs["include_taken"] = bool(frame.get("include_taken"))
            value = getattr(self.database, name)(*args, **kwargs)
            if key is None:
                return {"kind": kind}
            if isinstance(value, MachineRecord):
                value = value.to_row()
            return {"kind": kind, key: value}
        return serve

    def _dispatch(self, frame: Dict[str, Any],
                  entry: Optional[tuple]) -> Dict[str, Any]:
        self.requests += 1
        if entry is None:
            return error_frame(RuntimeProtocolError(
                f"unknown shard verb {frame.get('kind')!r}"))
        verb, handler, _ = entry
        if not verb.served_when_retired:
            if self.retired:
                return self._stale_routing(
                    f"shard {self.shard_index} (epoch {self.epoch}) is "
                    "retired: its records migrated to a newer fleet")
            if "epoch" in frame:
                try:
                    frame_epoch = int(frame["epoch"])
                except (TypeError, ValueError):
                    return error_frame(RuntimeProtocolError(
                        f"malformed epoch {frame['epoch']!r}"))
                if frame_epoch != self.epoch:
                    return self._stale_routing(
                        f"op stamped epoch {frame_epoch}, worker serves "
                        f"epoch {self.epoch}")
        try:
            response = handler(frame)
        except HANDLER_ERRORS as exc:
            return error_frame(exc, verb.name)
        if verb.mutates and self.wal is not None:
            # Apply-then-log: the handler validated and applied the op,
            # so the log records only mutations that really happened.
            # The reply has not been sent yet — a crash in this window
            # loses an *unacknowledged* op, which is crash-exact.
            try:
                t0 = time.perf_counter()
                self.wal.append(frame)
                self.metrics.observe("wal.append",
                                     time.perf_counter() - t0)
            except DatabaseError as exc:
                logger.error("shard %d: %s", self.shard_index, exc)
                return error_frame(exc)
        return response

    def replay(self, entries: Any, watermark: int = 0) -> int:
        """Apply recovered WAL entries past the snapshot watermark.

        ``entries`` is :attr:`WalRecoveryResult.entries` (``(lsn,
        frame)`` pairs in append order).  Only ``mutates`` verbs are
        legal, and every one must apply cleanly — the log records ops
        that *succeeded* against exactly this state, so a failure means
        the snapshot/log pair is inconsistent and recovery must stop
        loudly rather than continue from a diverged registry.  Returns
        the number of ops applied.
        """
        applied = 0
        for lsn, frame in entries:
            if lsn <= watermark:
                continue
            kind = frame.get("kind")
            entry = self._verbs.get(str(kind))
            if entry is None or not entry[0].mutates:
                raise DatabaseError(
                    f"wal replay: non-mutating verb {kind!r} at lsn {lsn}")
            try:
                entry[1](frame)
            except HANDLER_ERRORS as exc:
                raise DatabaseError(
                    f"wal replay diverged at lsn {lsn} ({kind}): "
                    f"{exc}") from exc
            applied += 1
        return applied

    def _check_routing(self, name: str) -> None:
        if self.shards > 1 and shard_of(name, self.shards) != self.shard_index:
            raise DatabaseError(
                f"record {name!r} routes to shard "
                f"{shard_of(name, self.shards)}, not {self.shard_index}")

    # -- verbs that are more than one database call ----------------------------

    def _verb_register(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Add a record, refusing one that routes to another shard."""
        record = MachineRecord.from_row(frame["row"])
        self._check_routing(record.machine_name)
        self.database.add(record)
        return {"kind": "ok"}

    def _verb_update(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Replace a record, refusing one that routes to another shard."""
        record = MachineRecord.from_row(frame["row"])
        self._check_routing(record.machine_name)
        self.database.update(record)
        return {"kind": "ok"}

    def _verb_match(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """This shard's matches in name order, as rows or names."""
        clauses = clauses_from_wire(frame.get("clauses"))
        include_taken = bool(frame.get("include_taken", False))
        matches = self.database.match(clauses, include_taken=include_taken)
        if frame.get("names_only"):
            return {"kind": "names",
                    "names": [r.machine_name for r in matches]}
        return {"kind": "records", "rows": [r.to_row() for r in matches]}

    def _verb_len(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """``len()`` of the shard database."""
        return {"kind": "count", "count": len(self.database)}

    def _verb_contains(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """``name in`` the shard database."""
        return {"kind": "ok",
                "contains": str(frame["name"]) in self.database}

    def _verb_release_pool(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Release every machine ``pool`` holds on this shard.

        With ``only_from`` = ``[old_shards, source_index]``, release
        only machines the *old* partition routed to ``source_index``.  A
        live reshard replays each source shard's ``release_pool`` copy
        scoped this way: each record's op history is totally ordered by
        its old owner's log, so an unscoped replay of another source's
        copy could release a machine re-taken later in its own log.
        """
        pool = str(frame["pool"])
        only_from = frame.get("only_from")
        if only_from is None:
            return {"kind": "count",
                    "count": self.database.release_pool(pool)}
        old_shards, source_index = int(only_from[0]), int(only_from[1])
        count = 0
        for name in self.database.names():
            if shard_of(name, old_shards) != source_index:
                continue
            if self.database.holder_of(name) == pool:
                self.database.release(name, pool)
                count += 1
        return {"kind": "count", "count": count}

    # -- observability / persistence / lifecycle -------------------------------

    def _status(self, kind: str) -> Dict[str, Any]:
        """The ``health``/``metrics`` reply head: shard geometry, routing
        epoch and fence, counts, uptime, and WAL stats."""
        return {
            "kind": kind,
            "shard_index": self.shard_index,
            "shards": self.shards,
            "epoch": self.epoch,
            "retired": self.retired,
            "machines": len(self.database),
            "requests": self.requests,
            "uptime_s": time.monotonic() - self.started_at,
            "wal": (self.wal.stats() if self.wal is not None
                    else {"mode": "off"}),
        }

    def _verb_health(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Liveness probe: the status head plus pid, index stats and
        armed brownout delays."""
        delays = faults.installed_delays()
        return {**self._status("health"), "pid": os.getpid(),
                "index_stats": self.database.index_stats(),
                "delays": delays.delays if delays is not None else {}}

    def _verb_metrics(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Telemetry snapshot: the status head plus the
        :class:`~repro.obs.telemetry.MetricsRegistry` series (per-verb
        latency, WAL append/fsync, reply bytes, error classes), the
        last ``max_spans`` spans (default 32), slow-op counts, and the
        armed/fired brownout delays and crash-point hits, so a scenario
        can assert its injection landed where intended."""
        delays = faults.installed_delays()
        injector = faults.installed()
        return {
            **self._status("metrics"),
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.tail(int(frame.get("max_spans", 32))),
            "slow_ops": self.spans.slow_ops,
            "slow_op_path": self.spans.slow_op_path,
            "slow_op_threshold": self.spans.slow_op_threshold,
            "faults": {
                "delays_armed": (delays.delays
                                 if delays is not None else {}),
                "delays_fired": (delays.fired
                                 if delays is not None else {}),
                "crash_hits": (injector.hit_counts()
                               if injector is not None else {}),
            },
        }

    def _verb_set_telemetry(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Flip per-op telemetry recording at runtime.

        Already-recorded series are kept (re-enabling resumes the same
        histograms).  The overhead scale gate uses this to A/B-time a
        *single* live fleet — two separate fleets never share process
        placement, so their baseline difference can exceed the
        telemetry tax being measured.
        """
        self.metrics.enabled = bool(frame["enabled"])
        return {"kind": "set_telemetry", "enabled": self.metrics.enabled}

    def _verb_fault(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Arm (or with empty maps, disarm) fault injection in this
        worker: ``triggers`` are crash-point countdowns (SIGKILL on
        expiry), ``delays`` per-verb brownout seconds.  An unknown
        crash point or verb is a malformed request.  A frame carrying
        one map leaves the other family armed as it was.
        """
        armed: List[str] = []
        if "triggers" in frame or "delays" not in frame:
            triggers = {str(point): int(count)
                        for point, count in dict(
                            frame.get("triggers", {})).items()}
            faults.install(
                faults.FaultInjector(triggers) if triggers else None)
            armed.extend(sorted(triggers))
        if "delays" in frame:
            delays = {str(verb): float(seconds)
                      for verb, seconds in dict(frame["delays"]).items()}
            faults.install_delays(
                faults.DelayInjector(delays, known_verbs=VERBS)
                if delays else None)
            armed.extend(sorted(f"delay:{v}" for v in delays))
        return {"kind": "ok", "armed": armed}

    def _verb_snapshot(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Write a v3 snapshot of the live shard to ``path`` worker-side
        (a 100 MB checkpoint costs one small reply), or return its text.

        With a write-ahead log the snapshot embeds ``last_lsn`` as its
        watermark (dispatch is single-threaded, so every applied op has
        been appended), and a path-backed snapshot — one that durably
        landed — truncates the log afterwards.  Inline text leaves the
        log alone: the worker cannot know the caller persisted it.
        """
        from repro.database.persistence import (
            atomic_write_text,
            dumps_database,
        )
        path = frame.get("path")
        watermark = self.wal.last_lsn if self.wal is not None else None
        text = dumps_database(self.database, wal_lsn=watermark)
        crc = zlib.crc32(text.encode("utf-8"))
        reply = {"kind": "snapshot", "crc": crc,
                 "machines": len(self.database)}
        if path:
            try:
                atomic_write_text(path, text)
            except OSError as exc:
                # Surface filesystem failures (deleted snapshot dir,
                # disk full) as an error frame, not a dead connection.
                raise DatabaseError(
                    f"snapshot write to {path!r} failed: {exc}") from exc
            self._truncate_wal()
            reply["path"] = str(path)
        else:
            reply["text"] = text
        return reply

    def _truncate_wal(self) -> None:
        """Drop the op log after a checkpoint durably landed.

        Best-effort: the snapshot's embedded watermark already makes
        every record it covers a replay no-op, so a failed truncation
        costs disk space and replay time, never correctness.
        """
        if self.wal is None or self.wal.closed:
            return
        if self._wal_pinned:
            # A live migration is streaming this log's tail; dropping
            # records now would lose ops the target has not replayed.
            # The watermark makes deferral safe (covered records replay
            # as no-ops), so truncation simply waits for cutover.
            logger.info("shard %d: wal truncate deferred (migration "
                        "in progress)", self.shard_index)
            return
        try:
            self.wal.truncate()
        except DatabaseError:  # pragma: no cover - disk failure
            logger.exception("shard %d: wal truncate after checkpoint "
                             "failed", self.shard_index)

    # -- live migration --------------------------------------------------------

    def _verb_routing(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Report this worker's routing view; ``routing`` is the table
        wire dict once a cutover published one.  Clients poll it after a
        :class:`~repro.errors.StaleRoutingError` whose frame carried no
        table yet (the mid-cutover window)."""
        return {"kind": "routing", "epoch": self.epoch,
                "shards": self.shards, "retired": self.retired,
                "routing": self.routing}

    def _verb_migrate_begin(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Write a migration snapshot to ``path`` worker-side; its
        ``watermark`` is the log LSN it embeds, and the migrator streams
        the entries after it with ``migrate_tail``.

        Unlike ``snapshot``, the log is left intact **and pinned**:
        checkpoints racing the migration defer their truncation until
        ``migrate_cutover`` unpins, so the tail stays streamable.  Needs
        a write-ahead log (``DatabaseError`` without one).
        """
        if self.wal is None:
            raise DatabaseError(
                f"shard {self.shard_index}: live migration needs a "
                "write-ahead log (wal mode is 'off')")
        from repro.database.persistence import save_database
        path = str(frame["path"])
        watermark = self.wal.last_lsn
        try:
            save_database(self.database, path, wal_lsn=watermark)
        except OSError as exc:
            raise DatabaseError(
                f"migration snapshot write to {path!r} failed: "
                f"{exc}") from exc
        self._wal_pinned = True
        return {"kind": "snapshot", "path": path,
                "machines": len(self.database), "watermark": watermark}

    def _verb_migrate_tail(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Stream up to ``max_records`` (default 512) log entries
        past ``after_lsn`` as ``[lsn, frame]`` pairs.

        ``wal_lsn`` is the last LSN the worker acknowledged: the stream
        is drained when the last returned (or requested) LSN reaches
        it; a torn ``reason`` at the boundary means a concurrent append
        raced the read — poll again.  A retired worker serves it for
        the post-fence drain.  Needs a write-ahead log.
        """
        if self.wal is None:
            raise DatabaseError(
                f"shard {self.shard_index}: no write-ahead log to "
                "stream (wal mode is 'off')")
        from repro.database.wal import read_wal_tail
        after_lsn = int(frame.get("after_lsn", 0))
        max_records = int(frame.get("max_records", 512))
        tail = read_wal_tail(self.wal.path, after_lsn=after_lsn,
                             max_records=max_records)
        return {"kind": "tail",
                "entries": [[lsn, f] for lsn, f in tail.entries],
                "wal_lsn": self.wal.last_lsn,
                "reason": tail.reason}

    def _verb_migrate_cutover(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Flip this worker's role in a live reshard.

        ``retire`` true fences a source (every verb not
        ``served_when_retired`` is refused with ``StaleRoutingError``);
        false rolls the fence back (the migrator's abort path).
        ``epoch`` is adopted, so a retired source's error frames name
        the current epoch.  ``routing`` is the table wire dict handed to
        refused clients; the migrator sends it to targets first, then
        to the fenced sources, so a client can never learn an endpoint
        that is not yet serving.  Unpins the op log (see
        ``migrate_begin``); a deferred checkpoint truncation becomes
        effective at the next checkpoint.
        """
        if "epoch" in frame:
            self.epoch = int(frame["epoch"])
        if frame.get("routing") is not None:
            self.routing = dict(frame["routing"])
        if "retire" in frame:
            self.retired = bool(frame["retire"])
        self._wal_pinned = False
        return {"kind": "ok", "epoch": self.epoch,
                "retired": self.retired}

    def _verb_reset(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Replace the live shard with a fresh database seeded from
        ``rows``, refusing a row that routes to another shard."""
        records = [MachineRecord.from_row(row)
                   for row in frame.get("rows", [])]
        for record in records:
            self._check_routing(record.machine_name)
        self.database = WhitePagesDatabase(records)
        return {"kind": "ok", "machines": len(records)}

    def _verb_shutdown(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Acknowledge, then stop the worker's server loop once the
        reply is sent (graceful: connections drain, the WAL flushes and
        closes)."""
        self._stopping = True
        return {"kind": "ok"}


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


def _load_shard_database(snapshot_path: Optional[str]):
    """(database, wal watermark) for a worker cold start."""
    if not snapshot_path or not os.path.exists(snapshot_path):
        return WhitePagesDatabase(), 0
    from repro.database.persistence import loads_database, snapshot_wal_lsn
    with open(snapshot_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_database(text), snapshot_wal_lsn(text)


def run_shard_worker(shard_index: int, shards: int, host: str, port: int,
                     snapshot_path: Optional[str] = None,
                     ready_conn: Any = None,
                     wal_mode: str = "off",
                     wal_path: Optional[str] = None,
                     wal_interval: float = 0.0,
                     epoch: int = 0,
                     telemetry: bool = True,
                     slow_op_threshold: float = 0.25,
                     slow_op_path: Optional[str] = None) -> None:
    """Process entry: own one shard, serve verbs until ``shutdown``.

    Builds the shard database (empty, or cold-started from a per-shard
    v3 snapshot file), binds the TCP endpoint, reports the bound
    port through ``ready_conn`` (a :func:`multiprocessing.Pipe` end) so
    the supervisor can hand out real endpoints even when ``port=0``,
    then serves until a ``shutdown`` verb or SIGTERM.

    ``wal_mode``/``wal_path``/``wal_interval`` configure the write-ahead
    op log (:mod:`repro.database.wal`).  With a mode other than
    ``"off"``, startup is *crash-exact recovery*: load the snapshot,
    take its embedded LSN watermark, recover the log (physically
    truncating any torn tail), and replay the records past the
    watermark — so the served state is identical to the pre-crash state
    at the last acknowledged op.

    ``epoch`` is the routing epoch the worker serves (bumped by every
    live reshard; see the module docstring's epoch protocol).

    ``telemetry``/``slow_op_threshold``/``slow_op_path`` configure the
    worker's observability (:mod:`repro.obs`): per-verb histograms via
    the ``metrics`` verb, and a slow-op JSONL.  When no explicit
    ``slow_op_path`` is given but the worker has a WAL, the log lands
    beside it (``<wal stem>.slow.jsonl``).

    Importable and picklable, so it works under both the ``fork`` and
    ``spawn`` start methods (and as a CLI foreground process via
    ``repro shard-serve``).
    """
    # Crash-point countdowns can arrive by env (shard-scoped), so tests
    # can kill a worker *during recovery* — e.g. mid-checkpoint replay.
    faults.install_from_env(shard_index)
    database, watermark = _load_shard_database(snapshot_path)
    wal = None
    replayed = 0
    if wal_mode not in ("off", "async", "fsync"):
        raise ConfigError(
            f"wal mode must be off|async|fsync, got {wal_mode!r}")
    if wal_mode != "off":
        if not wal_path:
            raise ConfigError(f"wal mode {wal_mode!r} needs a wal path")
        wal, recovery = WriteAheadLog.open(
            wal_path, mode=wal_mode, group_commit_interval=wal_interval)
        # LSN continuity across checkpoints: a truncated (empty) log
        # recovers at LSN 0, but the snapshot's watermark is the true
        # high-water mark — new appends must count from there or the
        # *next* recovery would watermark-skip them.
        wal.last_lsn = max(wal.last_lsn, watermark)
        wal.synced_lsn = wal.last_lsn
        if recovery.discarded_bytes:
            logger.warning(
                "shard %d: wal %s: discarded %d-byte torn tail (%s)",
                shard_index, wal_path, recovery.discarded_bytes,
                recovery.reason)
    if slow_op_path is None and wal_path:
        slow_op_path = os.path.splitext(wal_path)[0] + ".slow.jsonl"
    worker = ShardWorker(database, shard_index=shard_index, shards=shards,
                         wal=wal, epoch=epoch, telemetry=telemetry,
                         slow_op_threshold=slow_op_threshold,
                         slow_op_path=slow_op_path)
    if wal is not None and recovery.entries:
        replayed = worker.replay(recovery.entries, watermark)
        if replayed:
            logger.info("shard %d: replayed %d wal op(s) past lsn %d",
                        shard_index, replayed, watermark)

    async def main() -> None:
        """Serve until a signal or ``shutdown`` verb stops the loop."""
        import signal
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                # Ctrl-C in foreground mode (or a supervisor's TERM)
                # becomes a graceful shutdown: connections drain, no
                # cancelled-task noise at loop teardown.
                loop.add_signal_handler(signum, worker._shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break  # non-POSIX loop: fall back to KeyboardInterrupt
        await worker.start(host, port)
        # worker.database, not the load-time local: a replayed `reset`
        # op swaps in a fresh database object.
        if ready_conn is not None:
            ready_conn.send({"shard_index": shard_index,
                             "port": worker.port, "pid": os.getpid(),
                             "machines": len(worker.database),
                             "replayed": replayed})
            ready_conn.close()
        else:  # CLI foreground mode: print the endpoint for operators
            print(json.dumps({"shard_index": shard_index,
                              "port": worker.port,
                              "machines": len(worker.database),
                              "replayed": replayed}), flush=True)
        await worker.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        # Ctrl-C in foreground mode signals the whole process group;
        # the supervisor (or operator) is already tearing us down —
        # exit quietly instead of spraying one traceback per worker.
        pass
