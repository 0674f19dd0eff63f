"""Sharded white-pages database: hash-partitioned shards, fanned-out reads.

One :class:`~repro.database.whitepages.WhitePagesDatabase` holds every
record behind one registry lock and one
:class:`~repro.database.indexes.AttributeIndexCatalog` — a single-core,
single-heap ceiling.  :class:`ShardedWhitePagesDatabase` partitions the
machine records across N shards by a **stable hash of the machine name**
(:func:`shard_of`, CRC-32 — deterministic across processes and runs,
unlike ``hash()`` under ``PYTHONHASHSEED``), each shard owning its own
catalog, free set, subscription map, and lock.

Routing and fan-out
-------------------
Point operations (``get`` / ``take`` / ``update_dynamic`` / ``subscribe``
...) route to the owning shard and touch only that shard's lock.  Queries
(``match`` / ``count`` / ``names``) fan out to every shard and
**merge by machine name**: each shard returns its matches in name order
and the shards partition the name space, so an N-way
:func:`heapq.merge` reproduces *exactly* the single-shard engine's
name-ordered result — same records, same deterministic order.

Fan-out here is serial and in-process: this class is the reference
engine.  Multi-core matching is the shard service
(:mod:`repro.database.service`), one worker process per shard, which
is property-tested against this class.

Persistence
-----------
:func:`save_sharded_database` dumps one v3 (or, with ``version=4``, one
v4-plus-column-sidecar) snapshot *per shard* plus a small manifest, so
cold start can load (and eventually stream) shards independently;
``shards=1`` falls back to the plain whole-file snapshot.
:func:`load_sharded_database` accepts a manifest **or** any plain
v3/v4 snapshot, coercing it into the requested shard count
(``shards=1`` keeps a restored index catalog; re-sharding rebuilds the
per-shard catalogs from records).

Scheduling layers (:class:`~repro.core.resource_pool.ResourcePool`,
:class:`~repro.core.scheduler.IndexedPoolScheduler`,
:class:`~repro.baselines.central.CentralizedScheduler`) accept either
database through the same duck-typed surface; ``shards=1`` keeps the
single-shard behaviour unchanged.
"""

from __future__ import annotations

import heapq
import json
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.database.records import MachineRecord
from repro.database.whitepages import Listener, WhitePagesDatabase
from repro.errors import ConfigError, DatabaseError

__all__ = [
    "shard_of",
    "RoutingTable",
    "ShardedWhitePagesDatabase",
    "save_sharded_database",
    "load_sharded_database",
    "is_shard_manifest",
    "WhitePages",
]

#: Either database flavour; every consumer below the persistence layer is
#: duck-typed against the shared surface.
WhitePages = Union[WhitePagesDatabase, "ShardedWhitePagesDatabase"]

_MANIFEST_FORMAT = "repro.whitepages.shards"
_MANIFEST_VERSION = 1
#: Partition-function tag recorded in the manifest; a future content- or
#: range-partitioner would mint a new tag rather than reinterpret files.
_PARTITION_CRC32 = "crc32"
#: Backstop against a typo'd shard count turning one snapshot into a
#: directory of thousands of files.
_MAX_SHARDS = 4096


def shard_of(machine_name: str, shards: int) -> int:
    """Stable shard index of ``machine_name`` in an N-shard layout.

    CRC-32 of the UTF-8 name, modulo the shard count: deterministic
    across processes, platforms, and interpreter restarts, which is what
    lets per-shard snapshot files be written by one process and loaded by
    another without a routing table.
    """
    if shards == 1:
        return 0
    return zlib.crc32(machine_name.encode("utf-8")) % shards


class RoutingTable:
    """A versioned shard-routing layout: ``(epoch, shards, endpoints)``.

    PR 4 fixed the shard count at creation; live resharding makes it an
    online knob, so routing is now parameterized by a *table* rather
    than a bare N.  The ``epoch`` is a monotonically increasing version:
    every live reshard bumps it, point-op frames carry it, and a worker
    that sees a frame stamped with a different epoch refuses it with
    :class:`~repro.errors.StaleRoutingError` so the client refreshes
    this table and retries.  ``endpoints`` may be empty for in-process
    (serviceless) uses where only the partition function matters.
    """

    __slots__ = ("epoch", "shards", "endpoints")

    def __init__(self, epoch: int, shards: int,
                 endpoints: Sequence[Tuple[str, int]] = ()):
        if shards < 1 or shards > _MAX_SHARDS:
            raise ConfigError(
                f"routing table shard count must be 1..{_MAX_SHARDS}, "
                f"got {shards}")
        if endpoints and len(endpoints) != shards:
            raise ConfigError(
                f"routing table has {shards} shards but "
                f"{len(endpoints)} endpoints")
        self.epoch = int(epoch)
        self.shards = int(shards)
        self.endpoints = tuple((str(h), int(p)) for h, p in endpoints)

    def shard_of(self, machine_name: str) -> int:
        """The shard index owning ``machine_name`` under this table."""
        return shard_of(machine_name, self.shards)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe encoding carried on ``routing`` reply frames."""
        return {"epoch": self.epoch, "shards": self.shards,
                "endpoints": [list(ep) for ep in self.endpoints]}

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "RoutingTable":
        """Decode a :meth:`to_wire` payload (raises on malformed input)."""
        try:
            return cls(int(data["epoch"]), int(data["shards"]),
                       [(str(h), int(p)) for h, p in
                        data.get("endpoints") or ()])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(
                f"malformed routing table payload: {data!r}") from exc

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RoutingTable)
                and self.epoch == other.epoch
                and self.shards == other.shards
                and self.endpoints == other.endpoints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RoutingTable(epoch={self.epoch}, shards={self.shards}, "
                f"endpoints={len(self.endpoints)})")


def _merge_by_name(parts: Sequence[List[MachineRecord]]
                   ) -> List[MachineRecord]:
    """Merge per-shard name-ordered record lists into one global order.

    Shards partition the name space, so an N-way merge of sorted runs is
    exactly the sorted concatenation — the single-shard engine's order.
    """
    live = [p for p in parts if p]
    if len(live) == 1:
        return live[0]
    return list(heapq.merge(*live, key=lambda r: r.machine_name))


def _merge_names(parts: Sequence[List[str]]) -> List[str]:
    """Same merge for bare name lists (names() / match_names() shapes,
    here and in the shard-service client)."""
    live = [p for p in parts if p]
    if len(live) <= 1:
        return live[0] if live else []
    return list(heapq.merge(*live))


class ShardedWhitePagesDatabase:
    """N hash-partitioned :class:`WhitePagesDatabase` shards, one surface.

    Parameters
    ----------
    records:
        Initial machine records, distributed by :func:`shard_of`.
    shards:
        Shard count (>= 1).  ``shards=1`` delegates every operation to
        the single shard — behaviour (and performance) identical to a
        plain :class:`WhitePagesDatabase`.
    columnar:
        Build each shard with the columnar match kernel
        (:mod:`repro.database.columnar`).
    """

    def __init__(self, records: Iterable[MachineRecord] = (), *,
                 shards: int = 1, columnar: bool = False):
        if shards < 1:
            raise ConfigError(f"shard count must be >= 1, got {shards}")
        if shards > _MAX_SHARDS:
            raise ConfigError(
                f"shard count {shards} exceeds the {_MAX_SHARDS} backstop")
        groups: List[List[MachineRecord]] = [[] for _ in range(shards)]
        for record in records:
            groups[shard_of(record.machine_name, shards)].append(record)
        self._shards: List[WhitePagesDatabase] = [
            WhitePagesDatabase(g, columnar=columnar) for g in groups]

    @classmethod
    def from_shard_databases(
            cls, shard_dbs: Sequence[WhitePagesDatabase], *,
            validate_routing: bool = True) -> "ShardedWhitePagesDatabase":
        """Adopt already-built shard databases (the snapshot load path).

        ``validate_routing`` checks every record lives on the shard
        :func:`shard_of` routes it to — a manifest whose files were
        shuffled or renamed would otherwise silently mis-route every
        subsequent point operation.
        """
        shard_dbs = list(shard_dbs)
        if not shard_dbs:
            raise ConfigError("need at least one shard database")
        if len(shard_dbs) > _MAX_SHARDS:
            raise ConfigError(
                f"shard count {len(shard_dbs)} exceeds the "
                f"{_MAX_SHARDS} backstop")
        if validate_routing and len(shard_dbs) > 1:
            n = len(shard_dbs)
            for i, db in enumerate(shard_dbs):
                for name in db.names():
                    if shard_of(name, n) != i:
                        raise DatabaseError(
                            f"record {name!r} found on shard {i} but routes "
                            f"to shard {shard_of(name, n)} of {n}")
        self = cls.__new__(cls)
        self._shards = shard_dbs
        return self

    # -- topology -------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[WhitePagesDatabase, ...]:
        """The shard databases, for persistence."""
        return tuple(self._shards)

    @property
    def columnar(self) -> bool:
        """True when every shard runs the columnar match kernel."""
        return all(shard.columnar for shard in self._shards)

    def shard_for(self, machine_name: str) -> WhitePagesDatabase:
        """The shard that owns ``machine_name`` (whether registered or
        not — routing is a pure function of the name)."""
        return self._shards[shard_of(machine_name, len(self._shards))]

    @contextmanager
    def exclusive(self):
        """Every shard lock, acquired in shard order (cross-shard
        atomicity for snapshot capture and scheduler attachment).

        Shard order is the single global acquisition order — any code
        path that takes more than one shard lock must come through here,
        which is what makes the multi-lock layout deadlock-free.
        """
        acquired: List[Any] = []
        try:
            for shard in self._shards:
                shard._lock.acquire()
                acquired.append(shard._lock)
            yield self
        finally:
            for lock in reversed(acquired):
                lock.release()

    # -- change listeners -----------------------------------------------------

    def subscribe(self, machine_names: Iterable[str], fn: Listener) -> None:
        """Per-machine subscriptions, grouped and routed per shard."""
        if len(self._shards) == 1:
            self._shards[0].subscribe(machine_names, fn)
            return
        groups: Dict[int, List[str]] = {}
        for name in machine_names:
            groups.setdefault(shard_of(name, len(self._shards)), []).append(name)
        for i, names in groups.items():
            self._shards[i].subscribe(names, fn)

    def unsubscribe(self, machine_names: Iterable[str], fn: Listener) -> None:
        if len(self._shards) == 1:
            self._shards[0].unsubscribe(machine_names, fn)
            return
        groups: Dict[int, List[str]] = {}
        for name in machine_names:
            groups.setdefault(shard_of(name, len(self._shards)), []).append(name)
        for i, names in groups.items():
            self._shards[i].unsubscribe(names, fn)

    def remove_listener(self, fn: Listener) -> None:
        for shard in self._shards:
            shard.remove_listener(fn)

    def listener_stats(self) -> Dict[str, int]:
        stats = [shard.listener_stats() for shard in self._shards]
        return {key: sum(s[key] for s in stats) for key in stats[0]}

    # -- registry CRUD (point ops route to the owning shard) ------------------

    def add(self, record: MachineRecord) -> None:
        self.shard_for(record.machine_name).add(record)

    def remove(self, machine_name: str) -> MachineRecord:
        return self.shard_for(machine_name).remove(machine_name)

    def get(self, machine_name: str) -> MachineRecord:
        return self.shard_for(machine_name).get(machine_name)

    def update(self, record: MachineRecord) -> None:
        self.shard_for(record.machine_name).update(record)

    def update_dynamic(self, machine_name: str, **dynamic) -> MachineRecord:
        return self.shard_for(machine_name).update_dynamic(
            machine_name, **dynamic)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, machine_name: str) -> bool:
        return machine_name in self.shard_for(machine_name)

    def names(self) -> List[str]:
        return _merge_names([shard.names() for shard in self._shards])

    # -- matching -------------------------------------------------------------

    def match(self, plan: Any = None, *, include_taken: bool = False
              ) -> List[MachineRecord]:
        """Fan a compiled plan out to every shard; merge in name order.

        The plan is compiled once here and shared (compilation is
        pure), then each shard executes it against its own catalog; the
        merged result is record- and order-identical to a single-shard
        :meth:`WhitePagesDatabase.match` over the union of the shards.
        """
        if len(self._shards) == 1:
            return self._shards[0].match(plan, include_taken=include_taken)
        from repro.core.plan import QueryPlan, compile_plan
        if not isinstance(plan, QueryPlan):
            plan = compile_plan(plan)
        if plan.unsatisfiable:
            return []
        return _merge_by_name(
            [shard.match(plan, include_taken=include_taken)
             for shard in self._shards])

    def count(self, plan: Any = None, *, include_taken: bool = False) -> int:
        """Number of matching records; per-shard counts, summed."""
        if len(self._shards) == 1:
            return self._shards[0].count(plan, include_taken=include_taken)
        from repro.core.plan import QueryPlan, compile_plan
        if not isinstance(plan, QueryPlan):
            plan = compile_plan(plan)
        if plan.unsatisfiable:
            return 0
        return sum(shard.count(plan, include_taken=include_taken)
                   for shard in self._shards)

    def count_up(self) -> int:
        return sum(shard.count_up() for shard in self._shards)

    # -- take / release -------------------------------------------------------

    def take(self, machine_name: str, pool_name: str) -> bool:
        return self.shard_for(machine_name).take(machine_name, pool_name)

    def take_all(self, machine_names: Iterable[str],
                 pool_name: str) -> List[str]:
        got: List[str] = []
        for name in machine_names:
            if self.take(name, pool_name):
                got.append(name)
        return got

    def release(self, machine_name: str, pool_name: str) -> None:
        self.shard_for(machine_name).release(machine_name, pool_name)

    def release_pool(self, pool_name: str) -> int:
        return sum(shard.release_pool(pool_name) for shard in self._shards)

    def holder_of(self, machine_name: str) -> Optional[str]:
        return self.shard_for(machine_name).holder_of(machine_name)

    def taken_count(self) -> int:
        return sum(shard.taken_count() for shard in self._shards)

    def free_names(self) -> Set[str]:
        free: Set[str] = set()
        for shard in self._shards:
            free |= shard.free_names()
        return free

    # -- observability / persistence hooks ------------------------------------

    def index_stats(self) -> Dict[str, Any]:
        per_shard = [shard.index_stats() for shard in self._shards]
        return {
            "shards": len(self._shards),
            "machines": sum(s["machines"] for s in per_shard),
            "free": sum(s["free"] for s in per_shard),
            "taken": sum(s["taken"] for s in per_shard),
            "per_shard": per_shard,
        }

    def catalog_snapshot(self) -> Dict[str, Any]:
        if len(self._shards) == 1:
            return self._shards[0].catalog_snapshot()
        raise DatabaseError(
            "a multi-shard database has one catalog per shard; use "
            "save_sharded_database() for snapshots")

    def snapshot_state(self):
        """Single-shard delegation so ``dumps_database`` keeps working at
        ``shards=1``; multi-shard snapshots are per-shard files."""
        if len(self._shards) == 1:
            return self._shards[0].snapshot_state()
        raise DatabaseError(
            "a multi-shard database cannot be captured as one snapshot; "
            "use save_sharded_database()")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(shard) for shard in self._shards]
        return (f"ShardedWhitePagesDatabase(shards={len(self._shards)}, "
                f"machines={sum(sizes)}, sizes={sizes})")


# ---------------------------------------------------------------------------
# Per-shard snapshot persistence (manifest + one v3 file per shard)
# ---------------------------------------------------------------------------


def _shard_file_name(manifest: Path, index: int) -> str:
    return f"{manifest.stem}.shard{index:02d}{manifest.suffix or '.json'}"


def is_shard_manifest(path: Union[str, Path]) -> bool:
    """Cheap sniff: does ``path`` hold a shard manifest (vs a plain
    snapshot)?  Manifests are small and lead with their format key."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            head = fh.read(4096)
    except OSError:
        return False
    return _MANIFEST_FORMAT in head


def save_sharded_database(db: WhitePages, path: Union[str, Path], *,
                          include_indexes: bool = True,
                          version: int = 3) -> List[Path]:
    """Snapshot ``db`` as a manifest plus one file per shard.

    Returns every path written (manifest first).  A single-shard (or
    plain) database falls back to the standard whole-file snapshot, so
    ``shards=1`` artifacts stay byte-compatible with
    :func:`~repro.database.persistence.save_database` output.

    The shard files are captured under :meth:`~ShardedWhitePagesDatabase
    .exclusive`, so a concurrent writer cannot split one logical update
    across two shard snapshots.

    ``version=4`` writes each shard through
    :func:`~repro.database.persistence.save_database`, so every shard
    file gains its own binary column sidecar (``<file>.cols``) and
    cold-starts by mmap instead of a column rebuild.  The sidecar paths
    are appended after the shard files in the returned list; the
    manifest itself lists (and checksums) only the JSON shard files —
    sidecars carry their own CRCs and fall back silently.
    """
    from repro.database.persistence import dumps_database, save_database
    path = Path(path)
    if isinstance(db, WhitePagesDatabase) or db.shard_count == 1:
        single = db if isinstance(db, WhitePagesDatabase) else db.shards[0]
        save_database(single, path, include_indexes=include_indexes,
                      version=version)
        if version == 4:
            return [path, path.with_name(path.name + ".cols")]
        return [path]
    files = [_shard_file_name(path, i) for i in range(db.shard_count)]
    written: List[Path] = []
    sidecars: List[Path] = []
    checksums: List[int] = []
    with db.exclusive():
        if version == 4:
            # Shard locks are re-entrant, so each per-shard
            # save_database (which takes its own exclusive hold to
            # capture rows + columns coherently) nests under the
            # cross-shard hold.
            for name, shard in zip(files, db.shards):
                shard_path = path.parent / name
                save_database(shard, shard_path,
                              include_indexes=include_indexes, version=4)
                checksums.append(zlib.crc32(shard_path.read_bytes()))
                written.append(shard_path)
                sidecars.append(shard_path.with_name(shard_path.name
                                                     + ".cols"))
            texts = None
        else:
            texts = [dumps_database(shard, include_indexes=include_indexes,
                                    version=version)
                     for shard in db.shards]
    if texts is not None:
        for name, text in zip(files, texts):
            shard_path = path.parent / name
            shard_path.write_text(text, encoding="utf-8")
            checksums.append(zlib.crc32(text.encode("utf-8")))
            written.append(shard_path)
    manifest = {
        # "format" first: the loader sniffs the file head before
        # committing to a full JSON parse of what may be a 100 MB
        # plain snapshot.
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "partition": _PARTITION_CRC32,
        "shards": len(files),
        "snapshot_version": version,
        "machines": len(db),
        "files": files,
        "checksums": checksums,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return [path] + written + sidecars


def _load_manifest_shards(manifest: Dict[str, Any], base: Path, *,
                          use_index_snapshot: bool,
                          columnar: Optional[bool] = None
                          ) -> List[WhitePagesDatabase]:
    from repro.database.persistence import loads_database
    if manifest.get("version") != _MANIFEST_VERSION:
        raise DatabaseError(
            f"unsupported shard manifest version {manifest.get('version')!r}")
    if manifest.get("partition") != _PARTITION_CRC32:
        raise DatabaseError(
            f"unknown shard partition {manifest.get('partition')!r}")
    files = manifest.get("files")
    if not isinstance(files, list) or not files or \
            len(files) != manifest.get("shards"):
        raise DatabaseError("shard manifest files/shards mismatch")
    checksums = manifest.get("checksums")

    shard_dbs: List[WhitePagesDatabase] = []
    for i, name in enumerate(files):
        try:
            text = (base / name).read_text(encoding="utf-8")
        except OSError as exc:
            raise DatabaseError(f"missing shard file {name!r}: {exc}") from exc
        if isinstance(checksums, list) and i < len(checksums) and \
                checksums[i] != zlib.crc32(text.encode("utf-8")):
            raise DatabaseError(f"shard file {name!r} fails its checksum")
        # sidecar_dir lets a v4 shard file mmap-attach its column
        # sidecar instead of rebuilding columns from rows.
        shard_dbs.append(loads_database(
            text, use_index_snapshot=use_index_snapshot,
            columnar=columnar, sidecar_dir=base))
    return shard_dbs


def load_sharded_database(path: Union[str, Path], *,
                          shards: Optional[int] = None,
                          use_index_snapshot: bool = True,
                          columnar: Optional[bool] = None
                          ) -> ShardedWhitePagesDatabase:
    """Load a shard manifest *or* any plain snapshot into a sharded DB.

    - Manifest + matching (or unspecified) ``shards``: each shard file
      loads independently — including its own v3 index-catalog restore —
      and is adopted as-is after routing validation.
    - Manifest + different ``shards``: records are gathered and
      re-partitioned; per-shard catalogs rebuild from records.
    - Plain v3/v4 snapshot: loaded through the normal single-file
      path, then coerced.  ``shards=1`` (or None) keeps the restored
      catalog; a larger count re-partitions and rebuilds.

    ``columnar`` follows the persistence tri-state: ``None`` enables
    the column kernel for v4 shard files (mmap-attaching their
    sidecars), ``True``/``False`` force it on or off.  Re-partitioning
    rebuilds columns from records, preserving whatever the loaded
    shards ran.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    manifest: Optional[Dict[str, Any]] = None
    if _MANIFEST_FORMAT in text[:4096]:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatabaseError(f"invalid shard manifest JSON: {exc}") from exc
        if isinstance(payload, dict) and \
                payload.get("format") == _MANIFEST_FORMAT:
            manifest = payload
    if manifest is not None:
        shard_dbs = _load_manifest_shards(
            manifest, path.parent, use_index_snapshot=use_index_snapshot,
            columnar=columnar)
        if shards is None or shards == len(shard_dbs):
            return ShardedWhitePagesDatabase.from_shard_databases(shard_dbs)
        want = columnar if columnar is not None \
            else all(db.columnar for db in shard_dbs)
        records = [rec for db in shard_dbs
                   for rec in (db.get(name) for name in db.names())]
        return ShardedWhitePagesDatabase(records, shards=shards,
                                         columnar=want)
    from repro.database.persistence import loads_database
    single = loads_database(text, use_index_snapshot=use_index_snapshot,
                            columnar=columnar, sidecar_dir=path.parent)
    if shards is None or shards == 1:
        # N=1 coercion: adopt the loaded database (restored catalog and
        # all) as the only shard.
        return ShardedWhitePagesDatabase.from_shard_databases([single])
    want = columnar if columnar is not None else single.columnar
    records = [single.get(name) for name in single.names()]
    return ShardedWhitePagesDatabase(records, shards=shards, columnar=want)
