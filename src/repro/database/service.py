"""The shard service: out-of-process live shards, one ``WhitePages`` face.

Two halves:

- :class:`ShardServiceClient` — a synchronous client that presents
  the duck-typed ``WhitePages`` surface over N
  :class:`~repro.runtime.shard_worker.ShardWorker`
  endpoints.  Point operations route by CRC-32 of the machine name
  (the same :func:`~repro.database.sharding.shard_of` partition the
  per-shard snapshot manifest uses);
  queries fan out concurrently over the worker sockets and merge in
  machine-name order, reproducing the single-shard engine's result
  exactly.  Pools, :class:`~repro.core.scheduler.IndexedPoolScheduler`,
  the centralized baseline, and the deployments run against it
  unchanged.
- :class:`ShardSupervisor` — spawns the worker processes, seeds them
  from per-shard v3 snapshot files, health-checks them, and restarts a
  dead worker from its last checkpoint (the per-shard manifest format,
  so a checkpoint is also loadable in-process, as one database, via
  :func:`~repro.database.sharding.load_sharded_database`).

Semantics and scope
-------------------
The client mirrors the in-process database's semantics with two
documented deltas inherent to crossing a process boundary:

- **Listeners are client-side.**  ``subscribe`` / ``unsubscribe``
  register callbacks in *this client*; they fire for mutations made
  through this client (which returns the authoritative post-mutation
  record from the worker).  Mutations made by other clients of the same
  workers are not observed — same single-writer assumption the indexed
  pool scheduler already makes for its own cache.
- **``exclusive()`` is client-scoped.**  It returns the client's
  operation lock — every *mutation* through this client acquires it —
  giving scheduler attachment and snapshot capture the atomicity they
  need against other threads sharing the client.  Read-only operations
  (each shard-atomic worker-side) deliberately bypass it so concurrent
  queries are not serialised behind one in-flight round trip.
  Cross-*client* atomicity is out of scope, exactly as cross-*process*
  atomicity was for the in-process database.

Failures surface faithfully: worker-side :mod:`repro.errors` exceptions
are re-raised by class name, so ``UnknownMachineError`` from a live
shard behaves like one from a local registry.

Routing epochs (live resharding)
--------------------------------
The client's view of the fleet is a versioned
:class:`~repro.database.sharding.RoutingTable` ``(epoch, shards,
endpoints)``.  Point ops are stamped with the table's epoch; a worker
serving a different epoch — or retired by a live reshard — refuses the
op with :class:`~repro.errors.StaleRoutingError`, whose error frame
carries the worker's current table.  The client then *refreshes and
retries transparently*: it installs the newer table (new connections,
new fan-out pool) and re-routes the op, so a reshard driven by
:meth:`ShardSupervisor.rebalance` (or :meth:`split` / :meth:`merge`)
is invisible to callers beyond a bounded pause at cutover.  The refusal
happens before the worker applies or logs anything, so the retry is
safe even for non-idempotent verbs.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import operator
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import repro.errors as _errors
from repro.database.records import MachineRecord
from repro.database.sharding import (
    RoutingTable,
    is_shard_manifest,
    partition,
    read_manifest,
    save_sharded_database,
    shard_file_name,
    write_manifest,
)
from repro.database.wal import WAL_MODES
from repro.database.whitepages import Listener, Subscriptions
from repro.errors import (
    ConfigError,
    DatabaseError,
    RuntimeProtocolError,
    StaleRoutingError,
)
from repro.obs.telemetry import (
    MetricsRegistry,
    merge_counters,
    merge_histograms,
    summarize_histogram,
)
from repro.obs.tracing import new_trace_id
from repro.runtime.protocol import read_frame_sock, write_frame_sock
from repro.runtime.verbs import (
    FAN_MERGE,
    FAN_SUM,
    GROUP_NAMES,
    GROUP_ROWS,
    ONE_SHARD,
    POINT_ROUTES,
    VERBS,
    Verb,
    group_by_shard,
    point_key,
)

__all__ = [
    "ShardServiceClient",
    "ShardSupervisor",
    "parse_endpoints",
    "backoff_delay",
]

#: Seconds a worker gets to report readiness before startup fails.
_READY_TIMEOUT_S = 30.0

#: Dials per (re)connect before the ``OSError`` surfaces.
_DIAL_ATTEMPTS = 5


def backoff_delay(attempt: int, *, base: float = 0.05, cap: float = 2.0,
                  jitter: float = 0.25,
                  rng: Optional[random.Random] = None) -> float:
    """Exponential backoff with jitter for retry loop ``attempt``
    (0-based): ``min(cap, base·2^attempt)`` scaled by a uniform
    ``±jitter`` factor.  The jitter de-synchronises clients hammering a
    worker endpoint that is mid-restart — without it every retry wave
    lands in lockstep on the exact moment the last one failed."""
    delay = min(cap, base * (2.0 ** attempt))
    spread = (rng or random).uniform(-jitter, jitter)
    return max(0.0, delay * (1.0 + spread))


def parse_endpoints(spec: str) -> List[Tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or space-separated) into pairs."""
    endpoints: List[Tuple[str, int]] = []
    for part in spec.replace(",", " ").split():
        host, _, port = part.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"bad shard endpoint {part!r}; want host:port")
        endpoints.append((host, int(port)))
    if not endpoints:
        raise ConfigError("no shard endpoints given")
    return endpoints


def _merge_ordered(replies: Sequence[Dict[str, Any]]) -> List[Any]:
    """Merge per-shard name-ordered ``rows`` (or ``names``) into one
    global order.

    Shards partition the name space, so an N-way merge of sorted runs is
    exactly the sorted concatenation — the single database's order.
    """
    key = "rows" if "rows" in replies[0] else "names"
    runs = [r[key] for r in replies if r[key]]
    if len(runs) <= 1:
        return runs[0] if runs else []
    return list(heapq.merge(
        *runs, key=operator.itemgetter(0) if key == "rows" else None))


def _raise_remote(reply: Dict[str, Any]) -> None:
    """Re-raise a worker error frame as its original exception class.

    A ``StaleRoutingError`` frame may carry the worker's current
    routing table; it rides along on the exception so the client can
    refresh without a second round trip.
    """
    name = reply.get("error", "RuntimeProtocolError")
    exc_type = getattr(_errors, str(name), None)
    if not (isinstance(exc_type, type)
            and issubclass(exc_type, _errors.ReproError)):
        exc_type = RuntimeProtocolError
    if exc_type is StaleRoutingError:
        raise StaleRoutingError(
            reply.get("message", "stale routing epoch"),
            routing=reply.get("routing"))
    raise exc_type(reply.get("message", "shard worker error"))


class _WorkerConnection:
    """One persistent blocking socket to one shard worker.

    A lock serialises request/response pairs (the protocol has no
    correlation ids); on a connection error the next round trip redials
    — with bounded exponential backoff and jitter, because the usual
    cause is a worker mid-restart whose endpoint comes back after a
    beat — and a restarted worker re-binds its old endpoint, so
    recovery is transparent to callers.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        #: Shared client registry; each dropped-socket redial bumps its
        #: ``reconnects`` counter for the fleet-health view.
        self._metrics = metrics

    def _dial(self) -> socket.socket:
        for attempt in range(_DIAL_ATTEMPTS):
            try:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=self.timeout)
            except OSError:
                if attempt + 1 >= _DIAL_ATTEMPTS:
                    raise
                time.sleep(backoff_delay(attempt))
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        raise OSError("unreachable")  # pragma: no cover - loop always exits

    def close(self) -> None:
        """Close the cached socket, if any; safe to call repeatedly."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
            self._sock = None

    def roundtrip(self, frame: Dict[str, Any], *,
                  retry: bool = True) -> Dict[str, Any]:
        """Send one request frame and return the worker's reply.

        Redials once on a failed send (always safe: the worker never saw
        a complete frame).  A lost *reply* is retried only when
        ``retry`` is true, since the request may already have been
        applied.

        Args:
            frame: Wire frame with at least a ``kind`` key.
            retry: Whether the verb may be resent after a lost reply
                without risking double application (its row's
                ``retry``).

        Returns:
            The decoded reply frame.

        Raises:
            DatabaseError: Re-raised from an ``error`` reply frame.
            OSError: When the worker stays unreachable after a redial.
        """
        with self._lock:
            for attempt in (0, 1):
                if self._sock is None:
                    self._sock = self._dial()
                try:
                    write_frame_sock(self._sock, frame)
                except OSError:
                    # The worker drops a truncated frame with the
                    # connection, so resending is safe for every verb.
                    self._drop()
                    if self._metrics is not None:
                        self._metrics.inc("reconnects")
                    if attempt:
                        raise
                    continue
                try:
                    reply = read_frame_sock(self._sock)
                    break
                except (OSError, RuntimeProtocolError):
                    # The request may have applied and only the reply
                    # been lost: only a retryable verb is resent.
                    self._drop()
                    if self._metrics is not None:
                        self._metrics.inc("reconnects")
                    if attempt or not retry:
                        raise
        if reply.get("kind") == "error":
            _raise_remote(reply)
        return reply


class _RouteState(NamedTuple):
    """One immutable routing generation: table + connections + pool.

    The client swaps the whole object atomically on a refresh, so a
    concurrent op always sees a *coherent* (table, connections) pair —
    never a new shard count indexing into an old connection list.
    """

    table: RoutingTable
    conns: List[_WorkerConnection]
    executor: Optional[ThreadPoolExecutor]


class ShardServiceClient(Subscriptions):
    """``WhitePages`` surface over live out-of-process shard workers.

    Parameters
    ----------
    endpoints:
        One ``(host, port)`` per shard, **in shard order** — endpoint
        ``i`` must serve shard ``i`` of ``len(endpoints)``, since point
        operations route by :func:`shard_of`.
    epoch:
        The routing epoch of ``endpoints`` (0 for a never-resharded
        fleet).  Point ops are stamped with it; a mismatch triggers the
        transparent refresh-and-retry described in the module
        docstring.
    refresh_timeout:
        Upper bound in seconds on one routing refresh — how long an op
        may stall inside a reshard's cutover window before the
        ``StaleRoutingError`` is surfaced instead of retried.
    """

    #: Routing-refresh retries per op.  Each retry means the table
    #: moved *again* mid-op — more than a couple is pathological.
    _MAX_ROUTE_RETRIES = 8

    def __init__(self, endpoints: Sequence[Tuple[str, int]], *,
                 timeout: float = 30.0, epoch: int = 0,
                 refresh_timeout: float = 15.0):
        endpoints = list(endpoints)
        if not endpoints:
            raise ConfigError("need at least one shard endpoint")
        self._timeout = timeout
        self._refresh_timeout = float(refresh_timeout)
        #: Client-side telemetry: per-shard RTT histograms, reconnect /
        #: stale-routing / fan-out-straggler counters.
        self._metrics = MetricsRegistry()
        #: Trace identity: one random prefix per client, one sequence
        #: number per logical op (a whole fan-out shares one id, so the
        #: straggler shard's span is findable from the client's trace).
        self._trace_prefix = new_trace_id()
        self._trace_seq = itertools.count(1)
        #: Serialises table installs; ops never hold it.
        self._route_lock = threading.Lock()
        #: Superseded connection generations: an in-flight op on another
        #: thread may still hold a stale conn, so they are closed at
        #: :meth:`close`, not at refresh.
        self._graveyard: List[_RouteState] = []
        self._route = self._build_route(
            RoutingTable(epoch, len(endpoints), endpoints))
        #: One lock for the whole client: every *mutation* acquires it,
        #: so ``exclusive()`` gives multi-op atomicity w.r.t. other
        #: writers sharing this client; reads bypass it (see module
        #: docstring).  It also guards the client-side subscription map,
        #: which survives routing refreshes (client state, not worker
        #: state).
        self._lock = threading.RLock()
        self._subscriptions: Dict[str, Tuple[Listener, ...]] = {}

    def _build_route(self, table: RoutingTable) -> _RouteState:
        conns = [_WorkerConnection(h, p, timeout=self._timeout,
                                   metrics=self._metrics)
                 for h, p in table.endpoints]
        # One fan-out thread per shard: the per-shard work runs in the
        # worker processes; these threads only overlap socket I/O and
        # JSON decode.
        executor = (ThreadPoolExecutor(
            max_workers=len(conns), thread_name_prefix="wp-remote")
            if len(conns) >= 2 else None)
        return _RouteState(table, conns, executor)

    # -- topology -------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Shard count under the client's current routing table."""
        return self._route.table.shards

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """Current ``(host, port)`` per shard, in shard order."""
        return [(c.host, c.port) for c in self._route.conns]

    def routing_table(self) -> RoutingTable:
        """The client's current :class:`RoutingTable` (epoch, shards,
        endpoints)."""
        return self._route.table

    def close(self) -> None:
        """Close every connection and fan-out pool, including
        generations superseded by routing refreshes."""
        for state in [self._route] + self._graveyard:
            if state.executor is not None:
                state.executor.shutdown(wait=True)
            for conn in state.conns:
                conn.close()
        self._graveyard = []

    def __enter__(self) -> "ShardServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def exclusive(self):
        """The client's operation lock (see module docstring for the
        client-scoped atomicity contract)."""
        return self._lock

    # -- tracing --------------------------------------------------------------

    @property
    def trace_prefix(self) -> str:
        """This client's trace-id prefix: every frame it stamps carries
        ``<prefix>-<seq>``, so its ops are greppable in any shard's
        slow-op JSONL."""
        return self._trace_prefix

    def _next_trace(self) -> str:
        """Mint the next trace id (one per logical op; a fan-out's
        shards all carry the same id)."""
        return new_trace_id(self._trace_prefix, next(self._trace_seq))

    # -- routing refresh ------------------------------------------------------

    def _install_table(self, payload: Dict[str, Any]) -> bool:
        """Swap in the routing table ``payload`` (its wire dict) when it
        is newer than the current one (old generation → graveyard);
        returns whether it was installed."""
        table = RoutingTable.from_wire(payload)
        with self._route_lock:
            if table.epoch <= self._route.table.epoch or not table.endpoints:
                return False  # stale, or another thread won the race
            self._graveyard.append(self._route)
            self._route = self._build_route(table)
        return True

    def _poll_routing(self, state: _RouteState) -> Optional[Dict[str, Any]]:
        """Ask the old fleet for the new table (``routing`` verb)."""
        for i in range(len(state.conns)):
            try:
                reply = self._send(state, i, {"kind": "routing"})
            except (OSError, _errors.ReproError):
                continue
            if reply.get("routing") is not None:
                return reply["routing"]
        return None

    def _refresh_routing(self,
                         exc: Optional[StaleRoutingError] = None) -> None:
        """Install a newer routing table after a stale-epoch refusal.

        Prefers the table carried on the error frame; during the
        cutover window — fenced sources, table not yet published — it
        polls the old endpoints' ``routing`` verb with backoff until the
        migrator publishes, bounded by ``refresh_timeout``.

        Raises:
            StaleRoutingError: when no newer table appears in time.
        """
        self._metrics.inc("stale_routing_retries")
        payload = getattr(exc, "routing", None) if exc is not None else None
        before = self._route
        deadline = time.monotonic() + self._refresh_timeout
        attempt = 0
        while True:
            if payload is not None and self._install_table(payload):
                return
            if self._route is not before:
                return  # another thread refreshed while we waited
            if time.monotonic() >= deadline:
                raise StaleRoutingError(
                    "routing table refresh timed out after "
                    f"{self._refresh_timeout:.1f}s (still at epoch "
                    f"{self._route.table.epoch}, "
                    f"{self._route.table.shards} shards)")
            time.sleep(backoff_delay(attempt, base=0.02, cap=0.25))
            attempt += 1
            payload = self._poll_routing(before)

    def refresh_routing(self) -> RoutingTable:
        """Force a routing refresh against the current endpoints and
        return the (possibly unchanged) table.

        Returns the newest table any worker advertises; on a quiescent
        fleet this is a no-op round trip.
        """
        payload = self._poll_routing(self._route)
        if payload is not None:
            self._install_table(payload)
        return self._route.table

    def _routed(self, attempt: Callable[[_RouteState], Any]) -> Any:
        """Run ``attempt`` against the current routing generation; on a
        stale-epoch refusal refresh the table and run it again (safe for
        every verb — a refused op was never applied or logged).  Every
        routed op goes through here."""
        for _ in range(self._MAX_ROUTE_RETRIES):
            try:
                return attempt(self._route)
            except StaleRoutingError as exc:
                self._refresh_routing(exc)
        raise StaleRoutingError(
            f"routing kept moving: {self._MAX_ROUTE_RETRIES} epoch bumps "
            "during one op")

    def _send(self, state: _RouteState, shard: int, frame: Dict[str, Any],
              retry: bool = True) -> Dict[str, Any]:
        """One timed round trip to shard ``shard`` of ``state``."""
        t0 = time.perf_counter()
        reply = state.conns[shard].roundtrip(frame, retry=retry)
        self._metrics.observe(f"rtt.shard{shard}", time.perf_counter() - t0)
        return reply

    def _call(self, verb: str, shard: int = 0, **fields: Any) -> Any:
        """Send one ``verb`` frame the way its :data:`VERBS` row routes it.

        Returns the reply (point and one-shard routes), the summed
        count, the merged rows or names, the per-shard replies, or the
        names a grouped op answered.  One trace id per op; every route
        but one-shard is stamped with the routing epoch.
        """
        spec = VERBS[verb]
        route = spec.route
        frame = fields  # a fresh dict per call: the frame, uncopied
        frame["kind"] = verb
        frame["trace"] = self._next_trace()
        if route in POINT_ROUTES:
            key = point_key(spec, frame)

            def attempt(state: _RouteState) -> Dict[str, Any]:
                """Stamp with this generation's epoch and send."""
                frame["epoch"] = state.table.epoch
                return self._send(state, state.table.shard_of(key), frame,
                                  spec.retry)
            return self._routed(attempt)
        if route == ONE_SHARD:
            return self._routed(
                lambda state: self._send(state, shard, frame, spec.retry))
        if route == GROUP_NAMES:
            return self._send_groups(spec, frame)
        if route == GROUP_ROWS:
            rows = frame.pop("rows")

            def attempt(state: _RouteState) -> List[Dict[str, Any]]:
                """Group the rows by shard under this table; fan out."""
                groups = group_by_shard(
                    rows, lambda row: state.table.shard_of(row[0]))
                return self._fan_out(state, [
                    dict(frame, rows=groups.get(i, []),
                         epoch=state.table.epoch)
                    for i in range(len(state.conns))], spec.retry)
            return self._routed(attempt)

        def attempt(state: _RouteState) -> List[Dict[str, Any]]:
            """The same epoch-stamped frame to every shard."""
            frame["epoch"] = state.table.epoch
            return self._fan_out(state, [frame] * len(state.conns),
                                 spec.retry)
        replies = self._routed(attempt)
        if route == FAN_SUM:
            return sum(r["count"] for r in replies)
        if route == FAN_MERGE:
            return _merge_ordered(replies)
        return replies

    def _send_groups(self, spec: Verb, frame: Dict[str, Any]) -> List[str]:
        """A :data:`GROUP_NAMES` op: one frame per involved shard, the
        names answered in the caller's order (see :meth:`take_all`)."""
        names = frame.pop("names")
        answered: Set[str] = set()
        done: Set[str] = set()  # sent, under whichever table

        def attempt(state: _RouteState) -> None:
            """Group the not-yet-sent names by shard and send."""
            groups = group_by_shard([n for n in names if n not in done],
                                    state.table.shard_of)
            for i, group in groups.items():
                reply = self._send(
                    state, i,
                    dict(frame, names=group, epoch=state.table.epoch),
                    spec.retry)
                answered.update(reply["names"])
                done.update(group)
        self._routed(attempt)
        return [name for name in names if name in answered]

    def _fan_out(self, state: _RouteState, frames: Sequence[Dict[str, Any]],
                 retry: bool) -> List[Dict[str, Any]]:
        """Frame ``i`` to worker ``i`` of ``state``, concurrently;
        replies in shard order.  Each shard's RTT feeds its histogram —
        the slowest shard takes the per-fan-out ``straggler.shard<i>``
        attribution."""
        def timed(i: int) -> Tuple[Dict[str, Any], float]:
            """(reply, RTT seconds) for shard ``i``'s round trip."""
            t0 = time.perf_counter()
            reply = state.conns[i].roundtrip(frames[i], retry=retry)
            return reply, time.perf_counter() - t0
        if state.executor is not None:
            futures = [state.executor.submit(timed, i)
                       for i in range(len(state.conns))]
            results = [f.result() for f in futures]
        else:
            results = [timed(i) for i in range(len(state.conns))]
        self._metrics.inc("fanouts")
        slowest, slowest_rtt = 0, -1.0
        for i, (_, rtt) in enumerate(results):
            self._metrics.observe(f"rtt.shard{i}", rtt)
            if rtt > slowest_rtt:
                slowest, slowest_rtt = i, rtt
        if len(results) > 1:
            # Straggler attribution: which shard bounded this fan-out.
            self._metrics.inc(f"straggler.shard{slowest}")
        return [reply for reply, _ in results]

    # -- registry CRUD --------------------------------------------------------

    def add(self, record: MachineRecord) -> None:
        """Register a machine (point op, WAL-durable worker-side).

        Args: record — routed by CRC-32 of its name under the current
            table, epoch-stamped.
        Raises: ``DuplicateMachineError``.
        """
        with self._lock:
            self._call("register", row=record.to_row())
            self._notify(record.machine_name, record)

    def remove(self, machine_name: str) -> MachineRecord:
        """Remove a machine by name (point op, WAL-durable).

        Returns: the removed record.
        Raises: ``UnknownMachineError``.
        """
        with self._lock:
            record = MachineRecord.from_row(
                self._call("remove", name=machine_name)["row"])
            self._notify(machine_name, None)
            return record

    def get(self, machine_name: str) -> MachineRecord:
        """Fetch one record by name (point read, epoch-stamped).

        Raises: ``UnknownMachineError``.
        """
        return MachineRecord.from_row(
            self._call("get", name=machine_name)["row"])

    def update(self, record: MachineRecord) -> None:
        """Replace a record wholesale (point op, WAL-durable).

        Raises: ``UnknownMachineError``.
        """
        with self._lock:
            self._call("update", row=record.to_row())
            self._notify(record.machine_name, record)

    def update_dynamic(self, machine_name: str, **dynamic) -> MachineRecord:
        """Update a record's dynamic fields (point op, WAL-durable).

        Returns: the authoritative post-update record from the worker.
        Raises: ``UnknownMachineError``.
        """
        from repro.runtime.shard_worker import encode_dynamic
        with self._lock:
            record = MachineRecord.from_row(self._call(
                "update_dynamic", name=machine_name,
                dynamic=encode_dynamic(dynamic))["row"])
            self._notify(machine_name, record)
            return record

    def __len__(self) -> int:
        return self._call("len")

    def __contains__(self, machine_name: str) -> bool:
        return bool(self._call("contains", name=machine_name)["contains"])

    def names(self) -> List[str]:
        """Every machine name in the fleet, in global name order
        (per-shard sorted runs merged client-side)."""
        return self._call("names")

    # -- matching -------------------------------------------------------------

    def _plan_fields(self, plan: Any,
                     include_taken: bool) -> Optional[Dict[str, Any]]:
        """The ``clauses``/``include_taken`` fields of a query verb, or
        None for an unsatisfiable plan (answered without the wire)."""
        from repro.core.plan import QueryPlan, compile_plan
        from repro.runtime.shard_worker import clauses_to_wire
        if not isinstance(plan, QueryPlan):
            plan = compile_plan(plan)
        if plan.unsatisfiable:
            return None
        return {"clauses": clauses_to_wire(plan),
                "include_taken": include_taken}

    def match(self, plan: Any = None, *, include_taken: bool = False
              ) -> List[MachineRecord]:
        """Fan the compiled clauses out to every worker; merge rows in
        name order (record- and order-identical to the in-process
        engines — the shard-service property tests gate this)."""
        fields = self._plan_fields(plan, include_taken)
        if fields is None:
            return []
        return [MachineRecord.from_row(row)
                for row in self._call("match", names_only=False, **fields)]

    def match_names(self, plan: Any = None, *,
                    include_taken: bool = False) -> List[str]:
        """Names only — the cheap-wire form for bulk candidate
        enumeration."""
        fields = self._plan_fields(plan, include_taken)
        if fields is None:
            return []
        return self._call("match", names_only=True, **fields)

    def count(self, plan: Any = None, *, include_taken: bool = False) -> int:
        """Count matches fleet-wide (fan-out; per-shard counts summed)."""
        fields = self._plan_fields(plan, include_taken)
        return 0 if fields is None else self._call("count", **fields)

    # -- take / release -------------------------------------------------------

    def take(self, machine_name: str, pool_name: str) -> bool:
        """Mark one machine taken by a pool (point op, WAL-durable).

        Returns: ``True`` when this call took it; ``False`` when it was
        already held (no exception — a losing race is a normal outcome).
        Raises: ``UnknownMachineError``.
        """
        with self._lock:
            return bool(self._call("take", name=machine_name,
                                   pool=pool_name)["taken"])

    def take_all(self, machine_names: Iterable[str],
                 pool_name: str) -> List[str]:
        """Bulk take: one ``take_all`` round trip per involved shard,
        result in the caller's name order (matching the in-process
        loop's semantics without a per-machine round trip).

        Routing-epoch safe: on a stale refusal mid-batch, only the
        not-yet-attempted names re-route under the refreshed table.
        """
        names = list(machine_names)
        if not names:
            return []
        with self._lock:
            return self._call("take_all", names=names, pool=pool_name)

    def release(self, machine_name: str, pool_name: str) -> None:
        """Release one machine from a pool (point op, WAL-durable).

        Raises: ``UnknownMachineError``; ``MachineTakenError`` when a
            different pool holds it.
        """
        with self._lock:
            self._call("release", name=machine_name, pool=pool_name)

    def release_pool(self, pool_name: str) -> int:
        """Release every machine a pool holds (fan-out mutation;
        per-shard release counts summed)."""
        with self._lock:
            return self._call("release_pool", pool=pool_name)

    def holder_of(self, machine_name: str) -> Optional[str]:
        """The pool holding a machine, or ``None`` (point read).

        Raises: ``UnknownMachineError``.
        """
        return self._call("holder_of", name=machine_name)["holder"]

    def taken_count(self) -> int:
        """How many machines are taken fleet-wide (fan-out)."""
        return self._call("taken_count")

    # -- observability / persistence ------------------------------------------

    def health(self) -> List[Dict[str, Any]]:
        """Per-worker health frames, in shard order."""
        return self._call("health")

    def index_stats(self) -> Dict[str, Any]:
        """Fleet-wide index/record counters aggregated from ``health``."""
        per_shard = [h["index_stats"] for h in self.health()]
        return {
            "shards": len(per_shard),
            "machines": sum(s["machines"] for s in per_shard),
            "free": sum(s["free"] for s in per_shard),
            "taken": sum(s["taken"] for s in per_shard),
            "per_shard": per_shard,
        }

    def inject_fault(self, shard_index: int,
                     triggers: Optional[Dict[str, int]] = None, *,
                     delays: Optional[Dict[str, float]] = None
                     ) -> Dict[str, Any]:
        """Arm fault injection in one worker — the client face of the
        harness, for durability tests, adversarial scenarios, and
        game-day drills.

        ``triggers`` are crash-point countdowns (SIGKILL on expiry;
        empty dict disarms); ``delays`` map shard verbs (or ``"*"``) to
        seconds of added latency — the slow-worker brownout knob (empty
        dict disarms).  Passing only one map leaves the other family's
        armed state untouched.
        """
        fields: Dict[str, Any] = {}
        if triggers is not None:
            fields["triggers"] = dict(triggers)
        if delays is not None:
            fields["delays"] = dict(delays)
        return self._call("fault", shard_index, **fields)

    def set_telemetry(self, enabled: bool) -> List[Dict[str, Any]]:
        """Flip worker-side telemetry recording fleet-wide at runtime.

        Existing series are kept either way — re-enabling resumes the
        same histograms.  The telemetry overhead scale gate A/B-times
        one live fleet with this toggle (two separate fleets never
        share process placement, so their baseline spread can exceed
        the per-op tax under test); operators get the same lever for
        ruling telemetry in or out during an incident.
        """
        return self._call("set_telemetry", enabled=bool(enabled))

    def wal_stats(self) -> Dict[str, Any]:
        """Fleet-wide write-ahead-log counters (from ``health``):
        per-shard mode/LSN/sync stats plus the aggregate append, sync,
        and byte totals — the observability face of the durability
        knob."""
        per_shard = [h.get("wal", {"mode": "off"}) for h in self.health()]
        return {
            "shards": len(per_shard),
            "modes": sorted({str(s.get("mode", "off")) for s in per_shard}),
            "appended": sum(int(s.get("appended", 0)) for s in per_shard),
            "syncs": sum(int(s.get("syncs", 0)) for s in per_shard),
            "bytes": sum(int(s.get("bytes", 0)) for s in per_shard),
            "per_shard": per_shard,
        }

    def metrics(self, *, max_spans: int = 32) -> Dict[str, Any]:
        """Fleet telemetry: per-shard ``metrics`` replies plus exact
        fleet aggregation and the client's own wire-level view.

        Because every shard's histograms share the fixed bucket edges
        of :mod:`repro.obs.telemetry`, the fleet percentiles here are
        computed from an *exact* bucket-wise merge — identical to one
        histogram over the pooled samples, not an approximation.

        Args:
            max_spans: Recent spans each worker returns (0 for none).

        Returns:
            ``{"shards", "epoch", "per_shard", "fleet", "client"}`` —
            ``per_shard`` is the raw worker replies in shard order;
            ``fleet`` has merged histogram summaries (p50/p99/max per
            series), summed counters, total ``requests``/``slow_ops``,
            and per-shard WAL lag (``last_lsn - synced_lsn``);
            ``client`` has this client's RTT summaries per shard, its
            reconnect/stale-routing/straggler counters, and its
            ``trace_prefix``.
        """
        per_shard = self._call("metrics", max_spans=int(max_spans))
        hist_maps = [r.get("metrics", {}).get("histograms", {})
                     for r in per_shard]
        names: Set[str] = set()
        for hists in hist_maps:
            names.update(hists)
        fleet_hists = {
            name: summarize_histogram(
                merge_histograms(hists.get(name) for hists in hist_maps))
            for name in sorted(names)
        }
        wal_lag = [max(0, int(r.get("wal", {}).get("last_lsn", 0))
                       - int(r.get("wal", {}).get("synced_lsn", 0)))
                   for r in per_shard]
        client_snap = self._metrics.snapshot()
        return {
            "shards": len(per_shard),
            "epoch": self._route.table.epoch,
            "per_shard": per_shard,
            "fleet": {
                "histograms": fleet_hists,
                "counters": merge_counters(
                    [r.get("metrics", {}).get("counters", {})
                     for r in per_shard]),
                "requests": sum(int(r.get("requests", 0))
                                for r in per_shard),
                "slow_ops": sum(int(r.get("slow_ops", 0))
                                for r in per_shard),
                "wal_lag": wal_lag,
            },
            "client": {
                "trace_prefix": self._trace_prefix,
                "histograms": {
                    name: summarize_histogram(data)
                    for name, data in sorted(
                        client_snap["histograms"].items())},
                "counters": client_snap["counters"],
            },
        }

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The client's own registry (RTTs, reconnects, stragglers)."""
        return self._metrics

    def snapshot_shard(self, shard_index: int,
                       path: Union[str, Path]) -> Dict[str, Any]:
        """Ask one worker to write its own snapshot file.

        ``shard_index`` names a shard of the *current* routing table;
        with a WAL attached the worker truncates its log after the
        checkpoint durably lands (unless a live migration pins it).
        """
        with self._lock:
            return self._call("snapshot", shard_index, path=str(path))

    def reset(self, records: Iterable[MachineRecord] = ()) -> None:
        """Replace every worker's shard with freshly seeded state
        (test and re-seed tooling; rows are pre-routed per shard under
        the current table and re-grouped if it moves mid-call)."""
        with self._lock:
            self._call("reset", rows=[r.to_row() for r in records])
            self._subscriptions.clear()

    def shutdown_workers(self) -> None:
        """Best-effort ``shutdown`` verb to every worker of the current
        table (retired workers of older epochs are the supervisor's to
        reap, not the client's)."""
        for i in range(self.shard_count):
            try:
                self._call("shutdown", i)
            except (OSError, _errors.ReproError):
                pass

    # -- migration plumbing (used by ShardMigrator) ---------------------------

    def migrate_begin(self, shard_index: int,
                      path: Union[str, Path]) -> Dict[str, Any]:
        """Ask one worker to write its migration snapshot (no WAL
        truncation; the log is pinned until cutover).

        Returns: the worker's ``snapshot`` reply, including the
        ``watermark`` LSN that anchors the tail stream.
        Raises: ``DatabaseError`` when the worker runs without a WAL.
        """
        return self._call("migrate_begin", shard_index, path=str(path))

    def migrate_tail(self, shard_index: int, *, after_lsn: int = 0,
                     max_records: int = 512) -> Dict[str, Any]:
        """Stream one bounded slice of a worker's op-log tail
        (entries with LSN > ``after_lsn``; served even when retired).

        Returns: the ``tail`` reply — ``entries``, the worker's
        authoritative ``wal_lsn``, and the scan-stop ``reason``.
        """
        return self._call("migrate_tail", shard_index,
                          after_lsn=int(after_lsn),
                          max_records=int(max_records))

    def migrate_cutover(self, shard_index: int, *,
                        epoch: Optional[int] = None,
                        retire: Optional[bool] = None,
                        routing: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
        """Flip one worker's migration role: fence/unfence a source
        (``retire``), adopt an ``epoch``, and/or publish a ``routing``
        table (see the worker verb's docstring for the ordering
        contract).  Returns the worker's acknowledgement."""
        fields: Dict[str, Any] = {}
        if epoch is not None:
            fields["epoch"] = int(epoch)
        if retire is not None:
            fields["retire"] = bool(retire)
        if routing is not None:
            fields["routing"] = dict(routing)
        return self._call("migrate_cutover", shard_index, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardServiceClient(shards={self.shard_count}, "
                f"endpoints={self.endpoints})")


# ---------------------------------------------------------------------------
# Supervisor: spawn / health-check / restart with snapshot recovery
# ---------------------------------------------------------------------------


class ShardSupervisor:
    """Own N shard-worker processes; seed, checkpoint, and restart them.

    Parameters
    ----------
    shards:
        Worker count (one live shard each).
    snapshot_dir:
        Directory for seed and checkpoint files.  The supervisor writes
        the per-shard v3 manifest layout here, so a checkpoint is also
        loadable in-process via :func:`load_sharded_database`.
    records:
        Initial fleet.  Seeded via per-shard snapshot files — workers
        cold-start from disk in parallel instead of replaying one
        ``register`` round trip per record.
    wal, wal_interval:
        The durability knob (see :mod:`repro.database.wal`).
        ``wal="off"`` (the default) keeps the PR 5 contract below;
        ``"async"``/``"fsync"`` give every worker a per-shard op log
        (``shard_<i>.wal`` in ``snapshot_dir``, which becomes
        mandatory), with ``wal_interval`` as the group-commit window in
        seconds (0 = batch only what shares an event-loop tick).

    Recovery contract: :meth:`restart` re-spawns a dead worker **on its
    original endpoint** from the newest snapshot for its shard (last
    :meth:`checkpoint`, else the initial seed, else empty).  With
    ``wal="off"``, mutations after that snapshot are lost — the white
    pages is a cache of monitoring state, and the paper's monitors
    re-populate it.  With a write-ahead log, the worker replays its op
    log tail over the snapshot and recovery is **crash-exact**: every
    acknowledged mutation survives (``fsync`` — process and power
    crash; ``async`` — process crash), restart converts from a
    data-loss event into a bounded-latency one.

    Live resharding: :meth:`rebalance` (and the :meth:`split` /
    :meth:`merge` wrappers) changes the shard count **under traffic**
    via :class:`~repro.database.resharding.ShardMigrator` — snapshot at
    a WAL watermark, warm the new fleet, replay the log tail, flip the
    routing epoch.  Afterwards :attr:`shards`, :attr:`epoch`, and the
    endpoints describe the new fleet; retired source processes linger
    as tombstones (redirecting stale clients) until :meth:`stop` or the
    next reshard reaps them.  Checkpoint manifests record the epoch, so
    a *resumed* supervisor adopts the post-reshard topology from disk
    even when constructed with the old shard count.
    """

    def __init__(self, shards: int, *, host: str = "127.0.0.1",
                 snapshot_dir: Optional[Union[str, Path]] = None,
                 records: Iterable[MachineRecord] = (),
                 wal: str = "off", wal_interval: float = 0.0,
                 telemetry: bool = True,
                 slow_op_threshold: float = 0.25):
        if shards < 1:
            raise ConfigError(f"shard count must be >= 1, got {shards}")
        if wal not in WAL_MODES:
            raise ConfigError(
                f"wal must be one of {'|'.join(WAL_MODES)}, got {wal!r}")
        if wal_interval < 0:
            raise ConfigError("wal_interval must be >= 0")
        if wal != "off" and snapshot_dir is None:
            raise ConfigError(
                f"wal={wal!r} needs a snapshot_dir to hold the per-shard "
                "op logs")
        self.shards = shards
        self.host = host
        self.wal = wal
        self.wal_interval = float(wal_interval)
        #: Worker observability: ``telemetry=False`` spawns workers
        #: with the registry disabled (the overhead gate's off arm);
        #: ops at or above ``slow_op_threshold`` seconds land in each
        #: shard's slow-op JSONL beside its WAL (see :mod:`repro.obs`).
        self.telemetry = bool(telemetry)
        self.slow_op_threshold = float(slow_op_threshold)
        # ``fork`` where available for fast spawn, else ``spawn``; the
        # worker entry point is spawn-safe either way.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self._seed_records = list(records)
        self._processes: List[Optional[Any]] = [None] * shards
        self._ports: List[int] = [0] * shards
        #: Newest on-disk snapshot per shard (seed, then checkpoints).
        self._snapshots: List[Optional[Path]] = [None] * shards
        self._client: Optional[ShardServiceClient] = None
        self.restarts = 0
        #: Routing epoch of the current fleet (0 until the first
        #: reshard; adopted from the checkpoint manifest on resume).
        self.epoch = 0
        #: Retired source processes from past reshards — kept alive as
        #: tombstones that redirect stale clients, reaped at stop() or
        #: by the next rebalance.
        self._retired: List[Any] = []
        #: Guards checkpoint-vs-migration interleaving supervisor-side
        #: (the workers also pin their logs during migration).
        self._migrating = False

    # -- seeding --------------------------------------------------------------

    def _manifest_path(self, stem: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{stem}.json"

    def _write_seed(self) -> None:
        if not self._seed_records or self._dir is None:
            return
        self._dir.mkdir(parents=True, exist_ok=True)
        manifest = self._manifest_path("seed")
        written = save_sharded_database(
            partition(self._seed_records, self.shards), manifest)
        # A single shard is the plain snapshot itself; otherwise the
        # shard files follow the manifest.
        self._snapshots = written[-self.shards:]

    def _resize(self, shards: int) -> None:
        """Re-shape the per-shard bookkeeping for a new shard count
        (no processes may be running)."""
        self.shards = shards
        self._processes = [None] * shards
        self._ports = [0] * shards
        self._snapshots = [None] * shards

    def _adopt_snapshots(self) -> Optional[str]:
        """Point ``_snapshots`` at existing on-disk state, newest first.

        The restart-the-world path: a supervisor started over a
        ``snapshot_dir`` that already holds a checkpoint (or seed)
        adopts those files, so the workers cold-start from them — and,
        with a write-ahead log, replay their op-log tails on top.

        Migration-aware: a manifest that records an ``epoch`` (written
        by any checkpoint after a live reshard, or any new checkpoint)
        is authoritative about the fleet *topology* — the supervisor
        adopts its shard count and epoch even when constructed with a
        different ``shards``, because the on-disk truth is what the op
        logs (``shard_<i>.e<epoch>.wal``) belong to.  Legacy manifests
        without the field keep the old contract: a different shard
        count is somebody else's layout, skip it.  Returns the adopted
        stem, or None.
        """
        if self._dir is None:
            return None
        for stem in ("checkpoint", "seed"):
            manifest = self._manifest_path(stem)
            if not manifest.exists():
                continue
            if not is_shard_manifest(manifest):
                # A plain snapshot written in place of the manifest:
                # the single-shard, epoch-0 artifact.
                if self.shards != 1:
                    continue
                self._snapshots[0] = manifest
                return stem
            meta = read_manifest(manifest)
            if meta is None:
                continue
            shards_meta = meta.get("shards")
            epoch_meta = meta.get("epoch")
            if not isinstance(shards_meta, int) or shards_meta < 1:
                continue
            if shards_meta != self.shards and epoch_meta is None:
                continue
            files = [self._dir / str(name)
                     for name in meta.get("files", [])]
            if len(files) != shards_meta or \
                    not all(f.exists() for f in files):
                continue
            if shards_meta != self.shards:
                self._resize(shards_meta)
            self.epoch = int(epoch_meta or 0)
            self._snapshots = list(files)
            return stem
        return None

    def _shard_path(self, shard_index: int, extension: str,
                    epoch: Optional[int] = None) -> str:
        """``shard_<i>[.e<epoch>]<extension>`` in the snapshot dir;
        epoch-qualified after a reshard so a target fleet's files never
        collide with the fleet it replaces (epoch 0 keeps the bare name
        for seed compatibility)."""
        assert self._dir is not None
        epoch = self.epoch if epoch is None else epoch
        suffix = "" if epoch == 0 else f".e{epoch}"
        return str(self._dir / f"shard_{shard_index}{suffix}{extension}")

    def _wal_path(self, shard_index: int,
                  epoch: Optional[int] = None) -> Optional[str]:
        """This shard's op-log path, or ``None`` with the WAL off."""
        if self.wal == "off" or self._dir is None:
            return None
        return self._shard_path(shard_index, ".wal", epoch)

    def _slow_op_path(self, shard_index: int) -> Optional[str]:
        """This shard's slow-op JSONL path, beside its WAL; ``None``
        without a snapshot dir or with telemetry off."""
        if self._dir is None or not self.telemetry:
            return None
        return self._shard_path(shard_index, ".slow.jsonl")

    def slow_ops(self, shard_index: int) -> List[Dict[str, Any]]:
        """Parse one shard's on-disk slow-op JSONL (empty when the
        shard never logged a slow op or telemetry is off)."""
        from repro.obs.tracing import read_slow_ops
        path = self._slow_op_path(shard_index)
        return read_slow_ops(path) if path else []

    # -- lifecycle ------------------------------------------------------------

    def _spawn_worker(self, shard_index: int, port: int, *, shards: int,
                      epoch: int, snapshot_path: Optional[str],
                      wal_path: Optional[str],
                      slow_op_path: Optional[str] = None
                      ) -> Tuple[Any, int]:
        """Start one worker process with an explicit geometry (used both
        for the supervisor's own fleet and for a migration's target
        fleet); returns ``(process, bound_port)`` without touching the
        supervisor's bookkeeping.  Without an explicit ``slow_op_path``
        the worker derives one beside its WAL (migration targets get
        theirs that way)."""
        from repro.runtime.shard_worker import run_shard_worker
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=run_shard_worker,
            args=(shard_index, shards, self.host, port,
                  snapshot_path, child_conn,
                  self.wal, wal_path,
                  self.wal_interval, epoch,
                  self.telemetry, self.slow_op_threshold, slow_op_path),
            daemon=True,
            name=(f"shard-worker-{shard_index}" if epoch == 0
                  else f"shard-worker-{shard_index}.e{epoch}"),
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_READY_TIMEOUT_S):
            process.terminate()
            raise DatabaseError(
                f"shard worker {shard_index} did not report ready within "
                f"{_READY_TIMEOUT_S}s")
        try:
            ready = parent_conn.recv()
        except EOFError as exc:
            # Worker died before reporting (e.g. a transient bind
            # failure racing a just-killed listener during restart).
            process.join(timeout=5.0)
            raise DatabaseError(
                f"shard worker {shard_index} died during startup") from exc
        finally:
            parent_conn.close()
        return process, ready["port"]

    def _spawn(self, shard_index: int, port: int) -> int:
        """Start worker ``shard_index``; returns the bound port."""
        snapshot = self._snapshots[shard_index]
        process, bound = self._spawn_worker(
            shard_index, port, shards=self.shards, epoch=self.epoch,
            snapshot_path=str(snapshot) if snapshot else None,
            wal_path=self._wal_path(shard_index),
            slow_op_path=self._slow_op_path(shard_index))
        self._processes[shard_index] = process
        self._ports[shard_index] = bound
        return bound

    def start(self) -> "ShardSupervisor":
        """Seed (or adopt on-disk state) and spawn the worker fleet;
        returns ``self`` for chaining.

        Explicit ``records`` re-seed the directory (stale op logs are
        deleted — they describe the previous fleet); without records,
        existing checkpoints/seeds are adopted, including a
        post-reshard topology recorded in the manifest.
        Raises ``DatabaseError`` if already started, ``ConfigError``
        when seeding without a ``snapshot_dir``.
        """
        if any(p is not None for p in self._processes):
            raise DatabaseError("supervisor already started")
        if self._seed_records and self._dir is None:
            raise ConfigError(
                "seeding from records needs a snapshot_dir to stage the "
                "per-shard files in")
        if self._seed_records:
            # Explicit records are an explicit re-seed: they win over
            # whatever the snapshot directory already holds — including
            # any stale op logs, which describe the *previous* fleet
            # and must not replay over the new seed.
            self._write_seed()
            for i in range(self.shards):
                wal_path = self._wal_path(i)
                if wal_path:
                    try:
                        Path(wal_path).unlink()
                    except FileNotFoundError:
                        pass
        else:
            self._adopt_snapshots()
        if self.wal != "off":
            assert self._dir is not None  # enforced in __init__
            self._dir.mkdir(parents=True, exist_ok=True)
        for i in range(self.shards):
            self._spawn(i, 0)
        return self

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """The ``(host, port)`` pairs of the current fleet, shard order."""
        return [(self.host, port) for port in self._ports]

    def client(self, **kwargs: Any) -> ShardServiceClient:
        """A connected client over this supervisor's endpoints (one
        shared instance; pass kwargs through for a private one).

        The client is created at the supervisor's current routing
        epoch, so it survives live reshards: workers retired by a
        migration answer with the new routing table and the client
        re-routes transparently.
        """
        if kwargs:
            kwargs.setdefault("epoch", self.epoch)
            return ShardServiceClient(self.endpoints, **kwargs)
        if self._client is None:
            self._client = ShardServiceClient(self.endpoints,
                                              epoch=self.epoch)
        return self._client

    def reap_retired(self) -> int:
        """Terminate and join every worker retired by a past reshard
        (they linger only to redirect stale clients); returns the
        number reaped."""
        reaped = 0
        for process in self._retired:
            if process is None:
                continue
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            reaped += 1
        self._retired.clear()
        return reaped

    def stop(self) -> None:
        """Shut the fleet down: polite ``shutdown`` to every worker,
        then join (terminate on timeout); retired workers from past
        reshards are reaped too.  Idempotent."""
        self.reap_retired()
        # A client dials lazily and shutdown_workers is best-effort, so
        # neither can raise for a dead fleet.
        client, self._client = self._client, None
        if client is None:
            client = ShardServiceClient(self.endpoints, timeout=5.0)
        with client:
            client.shutdown_workers()
        for i, process in enumerate(self._processes):
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            self._processes[i] = None

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- health / recovery ----------------------------------------------------

    def alive(self) -> List[bool]:
        """Per-shard liveness of the worker processes (no network I/O)."""
        return [p is not None and p.is_alive() for p in self._processes]

    def health(self) -> List[Dict[str, Any]]:
        """Per-shard ``health`` replies from the live fleet."""
        return self.client().health()

    def checkpoint(self, stem: str = "checkpoint") -> Path:
        """Ask every worker to write its shard's v3 snapshot; compose
        the manifest.  Returns the manifest path (a valid
        :func:`load_sharded_database` input).

        The snapshot text never crosses the wire — each worker writes
        its own file (atomic rename) and reports the CRC the manifest
        needs.  The per-shard captures run under the client's exclusive
        hold, so a concurrent multi-shard mutation (through this client)
        cannot straddle two shard files.

        After a live reshard the manifest also records the routing
        ``epoch``, so a cold restart adopts the post-reshard topology.
        Raises ``DatabaseError`` while a migration is in flight (a
        checkpoint taken mid-cutover could name a fleet that no longer
        exists by the time it is read back).
        """
        if self._migrating:
            raise DatabaseError("checkpoint refused: reshard in progress")
        if self._dir is None:
            raise ConfigError("checkpoint needs a snapshot_dir")
        self._dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self._manifest_path(stem)
        client = self.client()
        if self.shards == 1 and self.epoch == 0:
            reply = client.snapshot_shard(0, manifest_path)
            self._snapshots[0] = Path(reply["path"])
            return manifest_path
        files = [shard_file_name(manifest_path, i)
                 for i in range(self.shards)]
        checksums: List[int] = []
        machines = 0
        with client.exclusive():
            for i, name in enumerate(files):
                reply = client.snapshot_shard(i, self._dir / name)
                checksums.append(int(reply["crc"]))
                machines += int(reply["machines"])
                self._snapshots[i] = self._dir / name
        write_manifest(manifest_path, files, checksums, machines,
                       epoch=self.epoch)
        return manifest_path

    def restart(self, shard_index: int) -> int:
        """Re-spawn one worker on its original endpoint from the newest
        snapshot for its shard.  Returns the (unchanged) port."""
        process = self._processes[shard_index]
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            self._processes[shard_index] = None
        port = self._ports[shard_index]
        # The dead listener may linger in TIME_WAIT for a beat; retry
        # the rebind with backoff + jitter (so N shards recovering at
        # once don't re-collide on every wave) rather than failing.
        deadline = time.monotonic() + _READY_TIMEOUT_S
        attempt = 0
        while True:
            try:
                self._spawn(shard_index, port)
                break
            except DatabaseError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(backoff_delay(attempt, base=0.1))
                attempt += 1
        self.restarts += 1
        return port

    def ensure_alive(self) -> List[int]:
        """Health sweep: restart every dead worker; returns the shard
        indexes that were restarted."""
        restarted = [i for i, ok in enumerate(self.alive()) if not ok]
        for i in restarted:
            self.restart(i)
        return restarted

    # -- live resharding ------------------------------------------------------

    def rebalance(self, new_shards: int, *, batch: int = 512,
                  drain_threshold: int = 64,
                  max_rounds: int = 256) -> "Any":
        """Live-migrate the fleet to ``new_shards`` workers on the op
        log, without stopping service.

        The old workers keep serving while a new fleet is seeded from
        an LSN-watermarked snapshot and caught up by replaying the WAL
        tail; only the final drain-and-cutover pauses writes (the pause
        is reported in the returned
        :class:`~repro.database.resharding.MigrationReport`).  The old
        workers linger retired — answering every op with the new
        routing table so stale clients re-route — until
        :meth:`reap_retired` or :meth:`stop`.

        Args:
            new_shards: Target shard count (>= 1; may be smaller than
                the current count — that is a merge).
            batch: Max WAL records fetched per ``migrate_tail`` call.
            drain_threshold: Tail lag (records) under which the
                migrator fences writes for the final exact drain.
            max_rounds: Catch-up round budget before aborting.

        Returns:
            The :class:`~repro.database.resharding.MigrationReport`.

        Raises:
            DatabaseError: If a migration is already in flight, the
                fleet is not running, or the migration aborts (the old
                fleet keeps serving in that case).
            ConfigError: If the supervisor runs without a WAL or
                ``snapshot_dir`` (live resharding replays the op log).
        """
        from repro.database.resharding import ShardMigrator
        return ShardMigrator(self, new_shards, batch=batch,
                             drain_threshold=drain_threshold,
                             max_rounds=max_rounds).run()

    def split(self, factor: int = 2, **kwargs: Any) -> "Any":
        """Live-split every shard ``factor`` ways (N -> N*factor); see
        :meth:`rebalance` for kwargs and semantics."""
        return self.rebalance(self.shards * factor, **kwargs)

    def merge(self, factor: int = 2, **kwargs: Any) -> "Any":
        """Live-merge ``factor`` shards into one (N -> N//factor); see
        :meth:`rebalance` for kwargs and semantics.

        Raises ``DatabaseError`` when the current count does not divide
        evenly by ``factor``.
        """
        if factor < 1 or self.shards % factor:
            raise DatabaseError(
                f"cannot merge {self.shards} shards by factor {factor}")
        return self.rebalance(self.shards // factor, **kwargs)

