"""Partitioning: the stable shard function, routing tables, and the
per-shard snapshot manifest.

The white pages is served two ways: one in-process
:class:`~repro.database.whitepages.WhitePagesDatabase`, or the shard
service (:mod:`repro.database.service`), one worker process per shard.
This module holds what both agree on about *partitioning* records:

- :func:`shard_of` — a **stable hash of the machine name** (CRC-32,
  deterministic across processes and runs, unlike ``hash()`` under
  ``PYTHONHASHSEED``) modulo the shard count.
- :class:`RoutingTable` — the versioned ``(epoch, shards, endpoints)``
  layout the shard service routes point operations by.
- :func:`partition` — records (and their holder map) grouped per shard,
  in :func:`shard_of` order: the seed of every worker fleet and reshard.

Persistence
-----------
:func:`save_sharded_database` writes one v3 snapshot *per partition*
plus a small manifest (CRC-32 per file), so shard workers cold-start
from their own file in parallel; a single partition falls back to the
plain whole-file snapshot.  Each rewrite writes a new *generation* of
shard files beside the old one, so the manifest rename is the one
commit point.  :func:`write_manifest` is the one manifest writer, for
this and for the shard supervisor's checkpoint.
:func:`load_sharded_database` reads a manifest **or** a plain v3
snapshot back into one
:class:`~repro.database.whitepages.WhitePagesDatabase`, refusing a
file that fails its checksum or a record stored on the wrong shard.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.database.records import MachineRecord
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import ConfigError, DatabaseError

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.database.service import ShardServiceClient

__all__ = [
    "shard_of",
    "RoutingTable",
    "partition",
    "shard_database",
    "save_sharded_database",
    "load_sharded_database",
    "is_shard_manifest",
    "read_manifest",
    "write_manifest",
    "shard_file_name",
    "WhitePages",
]

#: Either white-pages flavour; every consumer below the persistence
#: layer is duck-typed against the shared surface.
WhitePages = Union[WhitePagesDatabase, "ShardServiceClient"]

#: One shard's records plus its machine→pool holder map.
Partition = Tuple[List[MachineRecord], Dict[str, str]]

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


# ---------------------------------------------------------------------------
# Per-shard snapshot persistence (manifest + one v3 file per shard)
# ---------------------------------------------------------------------------


def shard_file_name(manifest: Path, index: int, generation: int = 0) -> str:
    """Shard ``index``'s file name beside ``manifest``; a generation
    above 0 is part of the name, so two generations never collide."""
    tag = f".g{generation}" if generation else ""
    return (f"{manifest.stem}{tag}.shard{index:02d}"
            f"{manifest.suffix or '.json'}")


def is_shard_manifest(path: Union[str, Path]) -> bool:
    """Cheap sniff: does ``path`` hold a shard manifest (vs a plain
    snapshot)?  Manifests are small and lead with their format key."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            head = fh.read(4096)
    except OSError:
        return False
    return _MANIFEST_FORMAT in head


def read_manifest(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The manifest at ``path`` as a dict; ``None`` when the file is
    missing, unreadable, or not a manifest (a plain snapshot)."""
    if not is_shard_manifest(path):
        return None
    try:
        meta = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(meta, dict) or meta.get("format") != _MANIFEST_FORMAT:
        return None
    return meta


def write_manifest(path: Union[str, Path], files: Sequence[str],
                   checksums: Sequence[int], machines: int, *,
                   epoch: Optional[int] = None,
                   generation: int = 0) -> None:
    """Atomically write a manifest naming ``files`` (relative to its
    directory, in shard order) and their CRC-32 ``checksums``, plus a
    supervisor checkpoint's ``epoch`` or the ``generation`` of
    :func:`save_sharded_database`'s files."""
    from repro.database.persistence import atomic_write_text
    manifest: Dict[str, Any] = {
        # "format" first: the loader sniffs the file head before
        # committing to a full JSON parse of what may be a 100 MB
        # plain snapshot.
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "partition": _PARTITION_CRC32,
        "shards": len(files),
    }
    if epoch is not None:
        manifest["epoch"] = int(epoch)
    if generation:
        manifest["generation"] = int(generation)
    manifest.update(snapshot_version=3, machines=int(machines),
                    files=list(files), checksums=list(checksums))
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")


def partition(records: Iterable[MachineRecord], shards: int,
              holders: Optional[Dict[str, str]] = None) -> List[Partition]:
    """Group ``records`` (and the ``holders`` entries naming them) by
    :func:`shard_of`; element ``i`` is shard ``i``'s share."""
    if shards < 1 or shards > _MAX_SHARDS:
        raise ConfigError(
            f"shard count must be 1..{_MAX_SHARDS}, got {shards}")
    parts: List[Partition] = [([], {}) for _ in range(shards)]
    for record in records:
        parts[shard_of(record.machine_name, shards)][0].append(record)
    for name, pool in (holders or {}).items():
        parts[shard_of(name, shards)][1][name] = pool
    return parts


def shard_database(records: Iterable[MachineRecord],
                   holders: Dict[str, str]) -> WhitePagesDatabase:
    """One partition as a database, its holder state re-applied."""
    db = WhitePagesDatabase(records)
    for name, pool in holders.items():
        db.take(name, pool)
    return db


def save_sharded_database(parts: Sequence[Partition],
                          path: Union[str, Path]) -> List[Path]:
    """Snapshot ``parts`` (from :func:`partition`) as a manifest plus
    one file per shard.

    Returns every path written (manifest first).  A single partition
    falls back to the standard whole-file snapshot, byte-compatible
    with :func:`~repro.database.persistence.save_database` output.

    Each shard database is built, dumped and dropped before the next,
    so the writer never holds more than one shard heap.  A rewrite
    writes the next generation of shard files under new names, then the
    manifest, each atomically, so the manifest rename is the one commit
    point: a crash before it leaves the old manifest and its files
    untouched.  The previous generation is deleted after it.
    """
    from repro.database.persistence import (
        atomic_write_text,
        dumps_database,
        save_database,
    )
    path = Path(path)
    old = read_manifest(path) or {}
    if len(parts) == 1:
        save_database(shard_database(*parts[0]), path)
        written = [path]
    else:
        generation = int(old.get("generation", 0)) + 1
        files = [shard_file_name(path, i, generation)
                 for i in range(len(parts))]
        written = [path]
        checksums: List[int] = []
        for name, (records, holders) in zip(files, parts):
            text = dumps_database(shard_database(records, holders))
            atomic_write_text(path.parent / name, text)
            checksums.append(zlib.crc32(text.encode("utf-8")))
            written.append(path.parent / name)
        write_manifest(path, files, checksums,
                       sum(len(records) for records, _ in parts),
                       generation=generation)
    for name in old.get("files", []):
        stale = path.parent / Path(str(name)).name
        if stale not in written:
            try:
                stale.unlink()
            except OSError:
                pass
    return written


def _load_manifest(manifest: Dict[str, Any],
                   base: Path) -> WhitePagesDatabase:
    """Every shard file of ``manifest``, checksummed, routing-checked
    and merged into one database."""
    from repro.database.persistence import loads_records
    if manifest.get("version") != _MANIFEST_VERSION:
        raise DatabaseError(
            f"unsupported shard manifest version {manifest.get('version')!r}")
    if manifest.get("partition") != _PARTITION_CRC32:
        raise DatabaseError(
            f"unknown shard partition {manifest.get('partition')!r}")
    files = manifest.get("files")
    if not isinstance(files, list) or not files or \
            len(files) != manifest.get("shards") or len(files) > _MAX_SHARDS:
        raise DatabaseError("shard manifest files/shards mismatch")
    checksums = manifest.get("checksums")

    n = len(files)
    records: List[MachineRecord] = []
    holders: Dict[str, str] = {}
    for i, name in enumerate(files):
        try:
            text = (base / name).read_text(encoding="utf-8")
        except OSError as exc:
            raise DatabaseError(f"missing shard file {name!r}: {exc}") from exc
        if isinstance(checksums, list) and i < len(checksums) and \
                checksums[i] != zlib.crc32(text.encode("utf-8")):
            raise DatabaseError(f"shard file {name!r} fails its checksum")
        # Records only: the merged database builds one catalog, so
        # per-shard databases (and their index images) are not worth
        # building.
        shard_records, shard_holders = loads_records(text)
        for record in shard_records:
            # A record on the wrong shard means the files were shuffled
            # or renamed: refuse rather than guess which is which.
            if shard_of(record.machine_name, n) != i:
                raise DatabaseError(
                    f"record {record.machine_name!r} found on shard {i} "
                    f"but routes to shard "
                    f"{shard_of(record.machine_name, n)} of {n}")
        records.extend(shard_records)
        holders.update(shard_holders)
    return shard_database(records, holders)


def load_sharded_database(path: Union[str, Path]) -> WhitePagesDatabase:
    """Load a shard manifest *or* a plain v3 snapshot into one database.

    A plain snapshot keeps its restored index catalog; a manifest's
    shards are verified (checksum, routing) and merged.
    """
    from repro.database.persistence import loads_database
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if _MANIFEST_FORMAT in text[:4096]:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatabaseError(f"invalid shard manifest JSON: {exc}") from exc
        if isinstance(payload, dict) and \
                payload.get("format") == _MANIFEST_FORMAT:
            return _load_manifest(payload, path.parent)
    return loads_database(text)
