"""White-pages persistence: JSON snapshots of the machine database.

The paper's database was an operational store maintained by
administrators; a library users can adopt needs the fleet definition to
survive restarts and travel between tools.

**Format version 3** (the only format) is the compact cold-start
encoding: machine records as *positional rows* (layout declared by the
embedded ``row_schema``, which must equal
:data:`~repro.database.records.RECORD_ROW_FIELDS`), no indentation, and
service flags packed into a bit mask; loading goes through
:meth:`~repro.database.records.MachineRecord.from_row`.  Files written
in the retired formats — the dict-per-machine versions 1 and 2, and
version 4 (v3 plus a binary file of numeric columns) — are refused with
``DatabaseError("unsupported snapshot version …")``.

A snapshot embeds an image of the
:class:`~repro.database.indexes.AttributeIndexCatalog` so startup can
*restore* the indexes instead of rebuilding them from scratch — the
O(N·attrs·log N) tokenise-and-sort pass that used to dominate cold
start at large N.  The index section is guarded three ways:

- an **index schema version** (:data:`~repro.database.indexes
  .INDEX_SCHEMA_VERSION`): a snapshot written under different token/
  layout semantics is never restored;
- a **checksum** over the canonical record section: an index section
  whose *records* were edited out from under it (hand-edited fleet
  file, partial merge touching machines) is detected and discarded;
- **structural validation** on restore: misaligned or unsorted
  sorted-index arrays and malformed posting containers are rejected.

Any guard failure — or a snapshot written without an index section —
falls back to the rebuild path silently; restoring is purely a startup
optimisation, never a semantic dependency.  The guards do not extend to
a *structurally valid but content-edited* index section (e.g. a name
deleted from one posting list by hand): like any database file content,
the index section is trusted once its schema, record checksum, and
structure check out — delete the ``indexes`` key (or load with
``use_index_snapshot=False``) to force a rebuild after manual edits.
"""

from __future__ import annotations

import gc
import json
import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.database.indexes import AttributeIndexCatalog, pack_array
from repro.database.records import MachineRecord, RECORD_ROW_FIELDS
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import DatabaseError

__all__ = ["save_database", "load_database", "dumps_database",
           "loads_database", "loads_records", "restore_catalog",
           "snapshot_wal_lsn", "atomic_write_text"]

#: The one snapshot format this code writes and reads.
_FORMAT_VERSION = 3


def _machines_checksum(machines: List[Any]) -> int:
    """CRC over the canonical serialisation of the record section.

    Canonical = compact separators + sorted keys, so the value is stable
    across dump → parse → re-dump (JSON floats round-trip through repr).
    """
    canon = json.dumps(machines, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode("utf-8"))


def _index_image_to_row_ids(image: Dict[str, Any],
                            row_of: Dict[str, int]) -> Dict[str, Any]:
    """Re-encode a catalog image's machine names as record-row indices.

    The records section already stores every machine name once (rows are
    in name order), so the v3 index section references machines by row
    number instead of repeating multi-byte name strings in every posting
    and sorted array.
    Singleton postings (most tokens of high-cardinality attributes like
    machine names and measured loads) collapse to a bare row id, and the
    sorted sections' parallel arrays are packed little-endian base64
    (float64 values, uint32 row ids): one string token each instead of
    one number token per machine, which is most of what makes the v3
    parse fast.
    """
    def posting_ids(names: List[str]) -> Any:
        ids = [row_of[n] for n in names]
        return ids[0] if len(ids) == 1 else ids

    return {
        "schema": image["schema"],
        "encoding": "rowid",
        "hash": {
            attr: {token: posting_ids(names)
                   for token, names in postings.items()}
            for attr, postings in image["hash"].items()
        },
        "sorted": {
            attr: {"values": pack_array("d", block["values"]),
                   "names": pack_array(
                       "I", [row_of[n] for n in block["names"]])}
            for attr, block in image["sorted"].items()
        },
    }


def _raw_machines_span(text: str) -> Optional[str]:
    """The byte-exact ``machines`` array of a v3 dump, or None.

    v3 dumps are written by this module with fixed serialisation options
    (sorted keys, compact separators), so the machines array always sits
    between the literal ``"machines":`` and ``,"row_schema":`` markers.
    Checksumming this span directly saves the O(file) canonical re-dump
    of the record section on the cold-start path; a file that was
    reformatted by hand simply misses the span (or mismatches) and falls
    back to the canonical computation.
    """
    start = text.find('"machines":')
    if start < 0:
        return None
    start += len('"machines":')
    end = text.find(',"row_schema":', start)
    if end < 0:
        return None
    return text[start:end]


def dumps_database(db: WhitePagesDatabase, *,
                   include_indexes: bool = True,
                   wal_lsn: Optional[int] = None) -> str:
    """Serialise the database (records + optional index image).

    ``wal_lsn`` embeds a write-ahead-log watermark (the LSN of the last
    op this snapshot includes, see :mod:`repro.database.wal`): landing
    it inside the snapshot makes watermark and records atomic under one
    ``os.replace``, which is what lets a crash between checkpoint and
    log truncation replay as a no-op instead of a double-apply.  The
    optional ``wal_lsn`` and ``taken`` keys sort after ``row_schema`` in
    the compact serialisation, so the byte-exact ``machines`` span the
    fast loader checksums (see :func:`_raw_machines_span`) is unaffected.

    ``taken`` is the machine→pool holder map: take/release is mutable
    state exactly like ``current_load``, so a snapshot that dropped it
    could never be crash-exact (a ``take`` WAL-truncated by a
    checkpoint would vanish on recovery).
    """
    # One atomic capture: records and catalog image from the same lock
    # hold, so the checksum can never bless an index section that
    # reflects a mutation the record section missed.
    with db.exclusive():
        records, catalog_image = db.snapshot_state()
        taken = db.holders()
    machines: List[Any] = [record.to_row() for record in records]
    payload: Dict[str, Any] = {
        "format": "repro.whitepages",
        "version": _FORMAT_VERSION,
        "row_schema": list(RECORD_ROW_FIELDS),
        "machines": machines,
    }
    if wal_lsn is not None:
        payload["wal_lsn"] = int(wal_lsn)
    if taken:
        payload["taken"] = {str(k): str(v) for k, v in taken.items()}
    if include_indexes:
        row_of = {record.machine_name: i for i, record in enumerate(records)}
        index_payload = _index_image_to_row_ids(catalog_image, row_of)
        index_payload["checksum"] = _machines_checksum(machines)
        payload["indexes"] = index_payload
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def restore_catalog(payload: Dict[str, Any],
                    records: List[MachineRecord],
                    *, machines_text: Optional[str] = None
                    ) -> Optional[AttributeIndexCatalog]:
    """Restore the index section of a parsed snapshot, or None.

    None means "rebuild": no index section, an index
    schema this code does not understand, a checksum that does not match
    the record section, or a structurally broken section.  All four are
    legal inputs — the records are the source of truth.

    ``machines_text``, when given, is the byte-exact serialisation of
    the record section (see :func:`_raw_machines_span`): its CRC is
    tried first, skipping the canonical re-dump; on mismatch the
    canonical computation still gets the final word.
    """
    index_payload = payload.get("indexes")
    if not isinstance(index_payload, dict):
        return None
    checksum = index_payload.get("checksum")
    if machines_text is None or \
            checksum != zlib.crc32(machines_text.encode("utf-8")):
        if checksum != _machines_checksum(payload.get("machines", [])):
            return None
    try:
        return AttributeIndexCatalog.from_snapshot(index_payload, records)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        return None


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause collection for a bulk load: it allocates millions of
    long-lived containers and no cycles, so letting the generational GC
    walk the growing heap on its usual thresholds multiplies load time
    several-fold for nothing."""
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


def loads_database(text: str, *, use_index_snapshot: bool = True
                   ) -> WhitePagesDatabase:
    """Parse a v3 snapshot into a database."""
    with _gc_paused():
        payload, records = _parse_snapshot(text)
        catalog = restore_catalog(
            payload, records, machines_text=_raw_machines_span(text)) \
            if use_index_snapshot else None
        return _restore_taken(WhitePagesDatabase(records, catalog=catalog),
                              payload)


def loads_records(text: str) -> Tuple[List[MachineRecord], Dict[str, str]]:
    """The records and machine→pool holder map of a v3 snapshot, with
    no database (and so no index catalog) built — for callers that
    merge or re-partition snapshots."""
    with _gc_paused():
        payload, records = _parse_snapshot(text)
    taken = payload.get("taken")
    holders = {str(k): str(v) for k, v in taken.items()} \
        if isinstance(taken, dict) else {}
    return records, holders


def _parse_snapshot(text: str) -> Tuple[Dict[str, Any], List[MachineRecord]]:
    """The validated payload and decoded records of a v3 snapshot."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatabaseError(f"invalid database JSON: {exc}") from exc
    if not isinstance(payload, dict) or \
            payload.get("format") != "repro.whitepages":
        raise DatabaseError("not a repro.whitepages snapshot")
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise DatabaseError(f"unsupported snapshot version {version!r}")
    if payload.get("row_schema") != list(RECORD_ROW_FIELDS):
        raise DatabaseError(
            "v3 snapshot row schema does not match this build "
            f"(got {payload.get('row_schema')!r})")
    from_row = MachineRecord.from_row
    try:
        records = [from_row(row) for row in payload.get("machines", [])]
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise DatabaseError(f"malformed v3 machine row: {exc}") from exc
    return payload, records


def _restore_taken(db: WhitePagesDatabase,
                   payload: Dict[str, Any]) -> WhitePagesDatabase:
    """Re-apply the snapshot's machine→pool holder map, fail-closed."""
    taken = payload.get("taken")
    if not isinstance(taken, dict):
        return db
    for name, pool in taken.items():
        try:
            ok = db.take(str(name), str(pool))
        except DatabaseError as exc:
            raise DatabaseError(
                f"snapshot taken-map names unknown machine {name!r}"
            ) from exc
        if not ok:  # pragma: no cover - single pool per name in a dict
            raise DatabaseError(f"snapshot taken-map conflict on {name!r}")
    return db


def snapshot_wal_lsn(text: str) -> int:
    """The WAL watermark of a snapshot string, or 0.

    0 means "replay everything": pre-WAL snapshots (seed files) carry
    no watermark, and an op log found next to them is by
    definition entirely newer than their contents.

    The compact v3 serialisation makes the key findable without a
    full parse (``"wal_lsn":N`` with fixed separators, near the end of
    the file); anything irregular falls back to ``json.loads``.
    """
    marker = '"wal_lsn":'
    pos = text.rfind(marker)
    if pos < 0:
        return 0
    start = pos + len(marker)
    end = start
    while end < len(text) and (text[end].isdigit() or text[end] in "+- "):
        end += 1
    try:
        return int(text[start:end].strip())
    except ValueError:
        pass
    try:
        return int(json.loads(text).get("wal_lsn", 0))
    except (json.JSONDecodeError, AttributeError, TypeError, ValueError):
        return 0


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Crash-safe file replacement: tmp file, flush, fsync, rename.

    A plain ``write_text`` that dies mid-write leaves a torn file *in
    place* — for a checkpoint that means the next restart loads
    garbage.  Writing to ``<path>.tmp.<pid>`` and ``os.replace``-ing
    guarantees the destination only ever holds the old or the new
    complete contents; the fsync before the rename keeps the rename
    from being durable before the data is.

    The write path is instrumented with the ``checkpoint.*`` crash
    points (:mod:`repro.runtime.faults`) — free no-ops unless a
    durability test has armed an injector.
    """
    from repro.runtime import faults
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        faults.crash_point("checkpoint.before_rename")
        os.replace(tmp, path)
        faults.crash_point("checkpoint.after_rename")
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def save_database(db: WhitePagesDatabase, path: Union[str, Path], *,
                  include_indexes: bool = True,
                  wal_lsn: Optional[int] = None) -> None:
    """Write a snapshot file.

    Writes are atomic (tmp + fsync + rename, :func:`atomic_write_text`)
    so a crash mid-save can never leave a torn snapshot that poisons
    the next restart.
    """
    atomic_write_text(
        path, dumps_database(db, include_indexes=include_indexes,
                             wal_lsn=wal_lsn))


def load_database(path: Union[str, Path], *, use_index_snapshot: bool = True
                  ) -> WhitePagesDatabase:
    """Load a snapshot file (see :func:`loads_database`)."""
    return loads_database(Path(path).read_text(encoding="utf-8"),
                          use_index_snapshot=use_index_snapshot)
