"""White-pages persistence: JSON snapshots of the machine database.

The paper's database was an operational store maintained by
administrators; a library users can adopt needs the fleet definition to
survive restarts and travel between tools.

**Format version 3** (the default write format) is the compact cold-start
encoding: machine records as *positional rows* (layout declared by the
embedded ``row_schema``, which must equal
:data:`~repro.database.records.RECORD_ROW_FIELDS`), no indentation, and
service flags packed into a bit mask; loading goes through
:meth:`~repro.database.records.MachineRecord.from_row`.  Files written
in the retired dict-per-machine formats (versions 1 and 2) are refused
with ``DatabaseError("unsupported snapshot version …")``.

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

**Format version 4** is v3 plus a binary **column sidecar**
(``<snapshot>.cols``, see :mod:`repro.database.columnar`): the
numerically-coercible attribute values packed as little-endian float64
columns with per-column CRCs, which :func:`load_database` attaches by
mmap so the columnar match engine is warm after page faults instead of
after an O(N·attrs) rebuild.  v4 snapshots load as columnar databases
by default (``columnar=False`` opts out; ``columnar=True`` enables the
engine for *any* version by rebuilding columns from the rows).  The
fallback ladder mirrors the index image: a missing, truncated, or
CRC-mismatched sidecar silently rebuilds the columns from the rows,
and a corrupt column surfacing later (CRCs are checked lazily, on the
first clause that touches a column) rebuilds at that point — the main
JSON file remains the single source of truth.  Because the sidecar is
binary, v4 cannot be produced by :func:`dumps_database`; use
:func:`save_database`.
"""

from __future__ import annotations

import gc
import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.database.indexes import AttributeIndexCatalog, pack_array
from repro.database.records import MachineRecord, RECORD_ROW_FIELDS
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import DatabaseError

__all__ = ["save_database", "load_database", "dumps_database",
           "loads_database", "restore_catalog", "snapshot_wal_lsn",
           "atomic_write_text"]

_FORMAT_VERSION = 3
#: Versions this loader understands (3 = compact positional rows;
#: 4 = v3 + binary column sidecar).
_SUPPORTED_VERSIONS = (3, 4)


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
                   version: int = _FORMAT_VERSION,
                   wal_lsn: Optional[int] = None) -> str:
    """Serialise the database (records + optional index image).

    ``version=3`` (the default) writes the compact positional-row
    format.  ``version=4`` is rejected here — its column sidecar is a
    separate binary file, so only the path-based :func:`save_database`
    can write it.

    ``wal_lsn`` embeds a write-ahead-log watermark (the LSN of the last
    op this snapshot includes, see :mod:`repro.database.wal`): landing
    it inside the snapshot makes watermark and records atomic under one
    ``os.replace``, which is what lets a crash between checkpoint and
    log truncation replay as a no-op instead of a double-apply.
    """
    if version == 4:
        raise DatabaseError(
            "format v4 writes a binary column sidecar next to the "
            "snapshot; use save_database() with a path")
    if version != 3:
        raise DatabaseError(f"cannot write snapshot version {version!r}")
    # One atomic capture: records and catalog image from the same lock
    # hold, so the checksum can never bless an index section that
    # reflects a mutation the record section missed.
    with db.exclusive():
        records, catalog_image = db.snapshot_state()
        taken = db.holders()
    return _dumps_payload(records, catalog_image,
                          include_indexes=include_indexes, version=version,
                          wal_lsn=wal_lsn, taken=taken)


def _dumps_payload(records: List[MachineRecord],
                   catalog_image: Dict[str, Any], *,
                   include_indexes: bool, version: int,
                   columns_meta: Optional[Dict[str, Any]] = None,
                   wal_lsn: Optional[int] = None,
                   taken: Optional[Dict[str, str]] = None) -> str:
    """Serialise an already-captured (records, catalog image) pair.

    v4 shares the v3 row encoding — same ``row_schema``, same index
    section — plus a ``columns`` key pointing at the binary sidecar.
    The optional ``wal_lsn`` and ``taken`` keys sort after
    ``row_schema`` in the compact serialisation, so the byte-exact
    ``machines`` span the fast loader checksums (see
    :func:`_raw_machines_span`) is unaffected.

    ``taken`` is the machine→pool holder map: take/release is mutable
    state exactly like ``current_load``, so a snapshot that dropped it
    could never be crash-exact (a ``take`` WAL-truncated by a
    checkpoint would vanish on recovery).
    """
    machines: List[Any] = [record.to_row() for record in records]
    payload: Dict[str, Any] = {
        "format": "repro.whitepages",
        "version": version,
        "row_schema": list(RECORD_ROW_FIELDS),
        "machines": machines,
    }
    if columns_meta is not None:
        payload["columns"] = columns_meta
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


def loads_database(text: str, *, use_index_snapshot: bool = True,
                   columnar: Optional[bool] = None,
                   sidecar_dir: Optional[Union[str, Path]] = None
                   ) -> WhitePagesDatabase:
    """Parse a snapshot (any supported version) into a database.

    ``columnar=None`` (the default) enables the columnar engine for v4
    snapshots; since only :func:`load_database` can reach the binary
    sidecar, a v4 *string* rebuilds its columns from the rows unless
    ``sidecar_dir`` names the directory holding the sidecar file (the
    per-shard manifest loader passes it so shard files keep their mmap
    cold start).  ``columnar=True``/``False`` force the engine on (any
    version) or off.

    Collection is paused for the duration: a bulk load allocates
    millions of long-lived containers and no cycles, so letting the
    generational GC walk the growing heap on its usual thresholds
    multiplies load time several-fold for nothing.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _loads_database_inner(
            text, use_index_snapshot=use_index_snapshot, columnar=columnar,
            sidecar_dir=Path(sidecar_dir) if sidecar_dir is not None else None)
    finally:
        if gc_was_enabled:
            gc.enable()


def _attach_columns(records: List[MachineRecord], version: int,
                    columnar: Optional[bool],
                    columns_meta: Optional[Dict[str, Any]],
                    sidecar_dir: Optional[Path]):
    """The column store for a freshly-parsed snapshot, or None.

    The fallback ladder: mmap-attach the v4 sidecar (name table and
    header eagerly validated, column CRCs lazily) → rebuild columns
    from the rows → plain row-path database.  Every failure is silent:
    the sidecar is an optimisation, the rows are the source of truth.
    """
    want = columnar if columnar is not None else version == 4
    if not want:
        return None
    from repro.database import columnar as _columnar
    if not _columnar.HAVE_NUMPY:
        _columnar.warn_numpy_missing()
        return None
    if isinstance(columns_meta, dict) and sidecar_dir is not None:
        try:
            return _columnar.ColumnStore.from_sidecar(
                sidecar_dir / str(columns_meta.get("file", "")),
                [record.machine_name for record in records],
                header_crc=columns_meta.get("header_crc"))
        except _columnar.ColumnDataError:
            pass  # fall through to the rebuild
    try:
        return _columnar.ColumnStore(records)
    except _columnar.ColumnDataError:  # pragma: no cover - defensive
        return None


def _loads_database_inner(text: str, *, use_index_snapshot: bool,
                          columnar: Optional[bool] = None,
                          sidecar_dir: Optional[Path] = None
                          ) -> WhitePagesDatabase:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatabaseError(f"invalid database JSON: {exc}") from exc
    if not isinstance(payload, dict) or \
            payload.get("format") != "repro.whitepages":
        raise DatabaseError("not a repro.whitepages snapshot")
    version = payload.get("version")
    if version not in _SUPPORTED_VERSIONS:
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
    catalog = restore_catalog(
        payload, records, machines_text=_raw_machines_span(text)) \
        if use_index_snapshot else None
    columns = _attach_columns(records, version, columnar,
                              payload.get("columns"), sidecar_dir)
    return _restore_taken(
        WhitePagesDatabase(records, catalog=catalog, columns=columns),
        payload)


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

    The compact v3/v4 serialisation makes the key findable without a
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
                  version: int = _FORMAT_VERSION,
                  wal_lsn: Optional[int] = None) -> None:
    """Write a snapshot file (and, for ``version=4``, its sidecar).

    Writes are atomic (tmp + fsync + rename, :func:`atomic_write_text`)
    so a crash mid-save can never leave a torn snapshot that poisons
    the next restart.  v4 captures the records, the catalog image,
    *and* the column arrays under one lock hold, writes ``<path>.cols``,
    then the main JSON (which embeds the sidecar's file name and header
    CRC).
    """
    path = Path(path)
    if version == 4:
        from repro.database import columnar as _columnar
        if not _columnar.HAVE_NUMPY:
            raise DatabaseError(
                "format v4 requires numpy to build the column sidecar "
                "(install 'repro[columnar]' or write version=3)")
        with db.exclusive():
            records, catalog_image = db.snapshot_state()
            taken = db.holders()
            names = [record.machine_name for record in records]
            columns = None
            store = getattr(db, "_columns", None)
            if store is not None:
                try:
                    columns = store.column_arrays(names)
                except _columnar.ColumnDataError:
                    columns = None
            if columns is None:
                columns = _columnar.columns_from_records(records)
        sidecar_name = path.name + ".cols"
        header_crc = _columnar.write_sidecar_file(
            path.with_name(sidecar_name), columns, names)
        text = _dumps_payload(
            records, catalog_image, include_indexes=include_indexes,
            version=4, columns_meta={"file": sidecar_name,
                                     "rows": len(names),
                                     "header_crc": header_crc},
            wal_lsn=wal_lsn, taken=taken)
        atomic_write_text(path, text)
        return
    atomic_write_text(
        path,
        dumps_database(db, include_indexes=include_indexes, version=version,
                       wal_lsn=wal_lsn))


def load_database(path: Union[str, Path], *, use_index_snapshot: bool = True,
                  columnar: Optional[bool] = None) -> WhitePagesDatabase:
    """Load a snapshot file; v4 snapshots mmap-attach their column
    sidecar (``columnar=None`` = auto by version, see
    :func:`loads_database`)."""
    path = Path(path)
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _loads_database_inner(
            path.read_text(encoding="utf-8"),
            use_index_snapshot=use_index_snapshot,
            columnar=columnar, sidecar_dir=path.parent)
    finally:
        if gc_was_enabled:
            gc.enable()
