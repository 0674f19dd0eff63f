"""Live shard migration (split / merge / rebalance) on the op log.

The white-pages fleet can change its shard count **without stopping
service**.  The trick is the same one the write-ahead log already plays
for crash recovery, pointed at a different problem: a shard's state is
``snapshot + log tail``, and both halves can be shipped to a new fleet
while the old one keeps serving.

:class:`ShardMigrator` drives the phases:

1. **Snapshot at a watermark** — every source worker writes a v3
   snapshot embedding its current WAL LSN (``migrate_begin``).  The op
   log is *pinned*: a checkpoint racing the migration defers its
   truncation, so the tail past the watermark stays streamable.
2. **Seed the target fleet** — the snapshots are loaded, re-partitioned
   to the new shard count (holder state re-applied), and written as one
   seed file per target.  New workers spawn from the seeds at the
   **next routing epoch**, on fresh ports, with epoch-suffixed WALs.
   Clients cannot see them yet.
3. **Catch up on the tail** — while sources keep serving, the migrator
   streams each source's log tail past its watermark
   (``migrate_tail``), re-routes every frame under the *new* partition,
   and applies it to the targets.  Rounds repeat until the remaining
   lag is small.
4. **Fence, drain, flip** — sources are retired (every client op now
   gets a :class:`~repro.errors.StaleRoutingError`), the last few
   records are drained *exactly*, and the new routing table is
   published — **targets first, then the fenced sources** — so a client
   can never learn an endpoint that is not yet serving.  Blocked
   clients pick up the table from the refusal (or by polling the
   ``routing`` verb) and retry transparently; the only client-visible
   effect is a pause bounded by the drain, reported as
   :attr:`MigrationReport.cutover_pause_s`.
5. **Adopt and anchor** — the supervisor swaps in the new fleet
   (retired sources linger only to redirect stale clients, see
   :meth:`~repro.database.service.ShardSupervisor.reap_retired`) and
   takes a checkpoint, so a cold restart adopts the *post*-reshard
   topology from the manifest's ``epoch`` field.

Replay correctness notes (a logged frame re-routes by its verb's
``route`` in :data:`~repro.runtime.verbs.VERBS`):

- Point frames re-route one-to-one; each record's history is totally
  ordered by its old owner's log, so per-source in-order replay
  preserves per-record order.
- A grouped-names frame (``take_all``) splits its names anew.
- A fan-out mutation (``release_pool``) carries no names, so replaying
  source *i*'s logged copy is scoped with ``only_from`` to machines the
  *old* partition owned on *i* — an unscoped replay could release a
  machine re-taken later in another source's not-yet-replayed log.
- A grouped-rows frame (``reset``) replaces whole shards, cannot be
  re-partitioned, and aborts the migration; the old fleet serves on.
- Logged frames carry the epoch stamp of the *old* fleet; every
  replayed frame is re-stamped with the target epoch.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.database.sharding import RoutingTable, shard_of
from repro.errors import ConfigError, DatabaseError
from repro.runtime.verbs import (
    GROUP_NAMES,
    GROUP_ROWS,
    POINT_ROUTES,
    VERBS,
    Verb,
    group_by_shard,
    point_key,
)

__all__ = ["MigrationReport", "ShardMigrator"]

logger = logging.getLogger(__name__)

#: Per-source retry budget for the post-fence exact drain.  After the
#: fence no new appends can race the reads, so more than a couple of
#: torn-boundary retries means something is genuinely wrong.
_DRAIN_ATTEMPTS = 100


@dataclass
class MigrationReport:
    """What one live reshard did, and what it cost.

    ``cutover_pause_s`` is the client-visible window: the time between
    fencing the sources and publishing the new routing table to them —
    point ops issued inside it stall (retrying transparently) instead
    of failing.  Everything before the fence ran concurrently with
    normal service.
    """

    old_shards: int
    new_shards: int
    old_epoch: int
    new_epoch: int
    machines: int
    tail_records: int
    catchup_rounds: int
    cutover_pause_s: float
    duration_s: float
    checkpoint: Optional[Path] = None
    endpoints: List[Tuple[str, int]] = field(default_factory=list)

    def summary(self) -> str:
        """One log-friendly line describing the migration."""
        return (f"resharded {self.old_shards}->{self.new_shards} shards "
                f"(epoch {self.old_epoch}->{self.new_epoch}): "
                f"{self.machines} machines, {self.tail_records} tail ops "
                f"over {self.catchup_rounds} rounds, cutover pause "
                f"{self.cutover_pause_s * 1e3:.1f} ms, total "
                f"{self.duration_s:.2f} s")


class ShardMigrator:
    """Drive one live reshard of a running
    :class:`~repro.database.service.ShardSupervisor` fleet.

    One-shot: construct, :meth:`run`, discard.  On any failure before
    the routing flip the migration aborts cleanly — sources are
    unfenced (their pinned op logs released), the half-built target
    fleet is torn down, temp files are removed, and the old fleet keeps
    serving as if nothing happened.
    """

    def __init__(self, supervisor: Any, new_shards: int, *,
                 batch: int = 512, drain_threshold: int = 64,
                 max_rounds: int = 256):
        """See :meth:`ShardSupervisor.rebalance` for the knobs.

        Raises:
            ConfigError: when the supervisor has no WAL or no
                ``snapshot_dir`` (live migration is built on both), or
                the counts/knobs are out of range.
        """
        if supervisor.wal == "off":
            raise ConfigError(
                "live resharding replays the op log; start the "
                "supervisor with wal='sync' or wal='async'")
        if supervisor._dir is None:
            raise ConfigError("live resharding needs a snapshot_dir")
        # Range-check the target count through the table type so the
        # backstop lives in exactly one place.
        RoutingTable(0, new_shards)
        if batch < 1 or drain_threshold < 0 or max_rounds < 1:
            raise ConfigError(
                f"bad migration knobs: batch={batch}, "
                f"drain_threshold={drain_threshold}, "
                f"max_rounds={max_rounds}")
        self.supervisor = supervisor
        self.new_shards = int(new_shards)
        self.batch = int(batch)
        self.drain_threshold = int(drain_threshold)
        self.max_rounds = int(max_rounds)
        self.new_epoch = int(supervisor.epoch) + 1
        # Filled in as run() progresses; the abort path tears down
        # whatever subset exists.
        self._began: List[int] = []
        self._target_procs: List[Any] = []
        self._target_ports: List[int] = []
        self._target_conns: List[Any] = []
        self._src_paths: List[Path] = []
        self._seed_paths: List[Path] = []

    # -- phases ---------------------------------------------------------------

    def run(self) -> MigrationReport:
        """Execute the migration; returns the :class:`MigrationReport`.

        Raises:
            DatabaseError: if a migration is already in flight, the
                fleet is not fully alive, the tail never drains within
                ``max_rounds``, or a ``reset`` op appears in a log tail
                (none of these leave the old fleet degraded).
        """
        sup = self.supervisor
        if sup._migrating:
            raise DatabaseError("a reshard is already in progress")
        if not all(sup.alive()):
            raise DatabaseError(
                "cannot reshard a degraded fleet; run ensure_alive() "
                "first")
        t_start = time.monotonic()
        sup._migrating = True
        try:
            try:
                watermarks, machines = self._snapshot_sources()
                self._seed_targets()
                self._spawn_targets()
                tail_records, rounds, last = self._catch_up(watermarks)
                pause, drained = self._cutover(last)
                tail_records += drained
            except BaseException as exc:
                self._abort(exc)
                raise
            self._adopt()
        finally:
            sup._migrating = False
        checkpoint = self._anchor()
        report = MigrationReport(
            old_shards=len(watermarks), new_shards=self.new_shards,
            old_epoch=self.new_epoch - 1, new_epoch=self.new_epoch,
            machines=machines, tail_records=tail_records,
            catchup_rounds=rounds, cutover_pause_s=pause,
            duration_s=time.monotonic() - t_start,
            checkpoint=checkpoint, endpoints=list(sup.endpoints))
        logger.info("%s", report.summary())
        return report

    def _snapshot_sources(self) -> Tuple[List[int], int]:
        """Phase 1: watermarked snapshot per source, op logs pinned."""
        sup = self.supervisor
        client = sup.client()
        sup._dir.mkdir(parents=True, exist_ok=True)
        watermarks: List[int] = []
        machines = 0
        for i in range(sup.shards):
            path = sup._dir / f"reshard_src_{i}.e{self.new_epoch}.json"
            reply = client.migrate_begin(i, path)
            self._began.append(i)
            self._src_paths.append(path)
            watermarks.append(int(reply["watermark"]))
            machines += int(reply["machines"])
        return watermarks, machines

    def _seed_targets(self) -> None:
        """Phase 2: re-partition the snapshots into per-target seeds."""
        from repro.database.persistence import loads_records, save_database
        from repro.database.sharding import partition, shard_database
        sup = self.supervisor
        records = []
        holders: Dict[str, str] = {}
        for path in self._src_paths:
            src_records, src_holders = loads_records(
                path.read_text(encoding="utf-8"))
            records.extend(src_records)
            holders.update(src_holders)
        parts = partition(records, self.new_shards, holders)
        for j, (group, group_holders) in enumerate(parts):
            path = sup._dir / f"reshard_seed_{j}.e{self.new_epoch}.json"
            save_database(shard_database(group, group_holders), path)
            self._seed_paths.append(path)

    def _spawn_targets(self) -> None:
        """Phase 3: start the next-epoch fleet, invisible to clients."""
        from repro.database.service import _WorkerConnection
        sup = self.supervisor
        for j in range(self.new_shards):
            process, port = sup._spawn_worker(
                j, 0, shards=self.new_shards, epoch=self.new_epoch,
                snapshot_path=str(self._seed_paths[j]),
                wal_path=sup._wal_path(j, epoch=self.new_epoch))
            self._target_procs.append(process)
            self._target_ports.append(port)
            self._target_conns.append(
                _WorkerConnection(sup.host, port))

    def _catch_up(self, watermarks: List[int]
                  ) -> Tuple[int, int, List[int]]:
        """Phase 4: replay log tails until the lag is under threshold.

        Returns ``(records_replayed, rounds, last_lsn_per_source)``.
        """
        sup = self.supervisor
        client = sup.client()
        last = list(watermarks)
        replayed = 0
        for rounds in range(1, self.max_rounds + 1):
            lag = 0
            for i in range(len(last)):
                reply = self._pull(client, i, last)
                replayed += len(reply["entries"])
                lag += max(0, int(reply["wal_lsn"]) - last[i])
            if lag <= self.drain_threshold:
                return replayed, rounds, last
        raise DatabaseError(
            f"reshard could not catch up within {self.max_rounds} "
            f"rounds (write load too high for batch={self.batch}?)")

    def _cutover(self, last: List[int]) -> Tuple[float, int]:
        """Phase 5: fence, drain exactly, publish routing new-side
        first.  Returns ``(pause_seconds, records_drained)``."""
        sup = self.supervisor
        client = sup.client()
        t_fence = time.monotonic()
        for i in range(len(last)):
            client.migrate_cutover(i, retire=True)
        # Exact drain: the sources are fenced, so the tails are frozen
        # — stream until each worker's acknowledged LSN is replayed.
        drained = 0
        for i in range(len(last)):
            for _ in range(_DRAIN_ATTEMPTS):
                reply = self._pull(client, i, last)
                drained += len(reply["entries"])
                if not reply["entries"] and \
                        int(reply["wal_lsn"]) <= last[i]:
                    break
            else:
                raise DatabaseError(
                    f"source shard {i} tail did not drain after "
                    f"fencing (stuck at lsn {last[i]})")
        table = RoutingTable(
            self.new_epoch, self.new_shards,
            [(sup.host, port) for port in self._target_ports])
        wire = table.to_wire()
        # Targets first: only once every target serves the table do the
        # fenced sources start handing it to refused clients.
        for conn in self._target_conns:
            conn.roundtrip({"kind": "migrate_cutover", "routing": wire})
        for i in range(len(last)):
            client.migrate_cutover(i, epoch=self.new_epoch, retire=True,
                                   routing=wire)
        return time.monotonic() - t_fence, drained

    def _adopt(self) -> None:
        """Phase 6a: swap the supervisor's bookkeeping to the new
        fleet; old workers move to the retired list."""
        sup = self.supervisor
        sup._retired.extend(p for p in sup._processes if p is not None)
        sup._resize(self.new_shards)
        sup.epoch = self.new_epoch
        for j in range(self.new_shards):
            sup._processes[j] = self._target_procs[j]
            sup._ports[j] = self._target_ports[j]
            sup._snapshots[j] = self._seed_paths[j]
        for conn in self._target_conns:
            conn.close()
        if sup._client is not None:
            # The shared client would discover the flip lazily on its
            # next refused op; refresh it eagerly so supervisor-level
            # helpers (health, checkpoint) route correctly right away.
            sup._client.refresh_routing()

    def _anchor(self) -> Optional[Path]:
        """Phase 6b: checkpoint the new fleet and sweep temp files.

        Without this a cold restart would adopt the *pre*-reshard
        manifest and miss every op applied after the flip; the fresh
        manifest records the new ``epoch`` so
        :meth:`~repro.database.service.ShardSupervisor.start` resumes
        the post-reshard topology.  Best-effort: a checkpoint failure
        logs and returns ``None`` (the fleet itself is healthy).
        """
        sup = self.supervisor
        try:
            manifest = sup.checkpoint()
        except Exception as exc:  # pragma: no cover - disk-full etc.
            logger.error("post-reshard checkpoint failed: %s", exc)
            return None
        # The checkpoint supersedes the migration artifacts *and* the
        # old fleet's logs (retired workers accept no more writes).
        for path in self._src_paths + self._seed_paths:
            self._unlink(path)
        for i in range(len(self._src_paths)):
            old_wal = sup._wal_path(i, epoch=self.new_epoch - 1)
            if old_wal:
                self._unlink(Path(old_wal))
        return manifest

    # -- replay routing -------------------------------------------------------

    def _pull(self, client: Any, i: int, last: List[int]) -> Dict[str, Any]:
        """Replay one ``migrate_tail`` slice of source ``i`` past
        ``last[i]`` (advanced as entries apply); returns the reply."""
        reply = client.migrate_tail(i, after_lsn=last[i],
                                    max_records=self.batch)
        for lsn, frame in reply["entries"]:
            self._apply(frame, source_index=i, old_shards=len(last))
            last[i] = int(lsn)
        return reply

    def _apply(self, frame: Dict[str, Any], *, source_index: int,
               old_shards: int) -> None:
        """Re-route one logged frame onto the target fleet by its verb's
        ``route`` under the new shard count.

        Raises ``DatabaseError`` on a frame that cannot be
        re-partitioned (a :data:`~repro.runtime.verbs.GROUP_ROWS` verb,
        i.e. ``reset``) or is not a known mutation — either aborts the
        migration.
        """
        kind = frame.get("kind")
        verb = VERBS.get(str(kind))
        if verb is None or not verb.mutates:
            raise DatabaseError(f"unexpected verb {kind!r} in log tail")
        out = dict(frame)
        out["epoch"] = self.new_epoch
        if verb.route in POINT_ROUTES:
            self._send(shard_of(point_key(verb, out), self.new_shards),
                       out, verb)
        elif verb.route == GROUP_NAMES:
            for j, names in group_by_shard(
                    out["names"],
                    lambda name: shard_of(name, self.new_shards)).items():
                self._send(j, dict(out, names=names), verb)
        elif verb.route == GROUP_ROWS:
            raise DatabaseError(
                f"a {kind} op appeared in the log tail; it replaces "
                "whole shards and cannot be re-partitioned — aborting "
                "the live reshard")
        else:
            # A fan-out mutation: every target replays source i's copy,
            # scoped to the records the old partition gave source i.
            out["only_from"] = [old_shards, source_index]
            for j in range(self.new_shards):
                self._send(j, out, verb)

    def _send(self, shard: int, frame: Dict[str, Any], verb: Verb) -> None:
        """Send one replayed frame to target ``shard``."""
        self._target_conns[shard].roundtrip(frame, retry=verb.retry)

    # -- failure handling -----------------------------------------------------

    def _abort(self, cause: BaseException) -> None:
        """Roll back: unfence sources, tear down targets, sweep files.

        The old fleet resumes exactly where it was — fences lift, the
        pinned op logs release (deferred checkpoint truncations become
        effective at the next checkpoint), and nothing was published,
        so no client ever saw the aborted epoch.
        """
        sup = self.supervisor
        logger.warning("aborting reshard to %d shards: %s",
                       self.new_shards, cause)
        client = sup._client
        for i in self._began:
            try:
                if client is not None:
                    client.migrate_cutover(i, retire=False)
            except Exception:  # pragma: no cover - worker crashed too
                logger.exception("could not unfence source shard %d", i)
        for conn in self._target_conns:
            conn.close()
        for process in self._target_procs:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        for path in self._src_paths + self._seed_paths:
            self._unlink(path)
        for j in range(len(self._target_procs)):
            wal_path = sup._wal_path(j, epoch=self.new_epoch)
            if wal_path:
                self._unlink(Path(wal_path))

    @staticmethod
    def _unlink(path: Path) -> None:
        """Best-effort temp-file removal."""
        try:
            Path(path).unlink()
        except OSError:
            pass
