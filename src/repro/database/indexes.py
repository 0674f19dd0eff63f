"""Incrementally-maintained attribute indexes for the white pages.

This module is the storage half of the matchmaking engine (the query half
is :mod:`repro.core.plan`): hash indexes over equality-comparable
attribute values, sorted containers over numeric values for range/ordered
clauses, and the value-normalisation rules both share with the query
language's ``compare()`` operator.

Design constraints:

- **One equivalence relation.**  The paper's language compares loosely —
  case-insensitive strings, numeric coercion (``memory = "512"`` matches
  ``512``), multi-valued machine attributes (``cms=sge,pbs,condor``).
  The hash-index token function and :func:`loose_equal` live side by side
  here so the index can never return *fewer* machines than a brute-force
  predicate walk.  (It may return a superset — e.g. ``nan`` keys — which
  plan execution filters by re-verifying candidates.)
- **Leaf imports only.**  The white-pages database maintains these
  indexes inline with every mutation, so this module must not import the
  pipeline layers (:mod:`repro.core.operators` imports *us* for the
  shared value semantics).
- **O(log n) maintenance.**  Updates touch only the indexes whose keyed
  value actually changed; sorted containers use bisect over one flat
  ``(value, name)`` list, so a monitoring refresh of ``load`` is two
  bisects plus a memmove — not a rebuild.
"""

from __future__ import annotations

import math
import sys
from array import array
from base64 import b64decode, b64encode
from bisect import bisect_left, insort
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "pack_array",
    "unpack_array",
    "coerce_number",
    "loose_equal",
    "any_element_equal",
    "eq_token",
    "machine_tokens",
    "HashAttrIndex",
    "SortedAttrIndex",
    "AttributeIndexCatalog",
]

#: Version of the catalog snapshot layout produced by
#: :meth:`AttributeIndexCatalog.to_snapshot`.  Bump whenever the token
#: function, the sorted-pair layout, or the indexed attribute set changes
#: meaning — a loader seeing a different version must rebuild from the
#: records instead of restoring.
INDEX_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Packed-array codec (persistence format v3 sorted sections)
# ---------------------------------------------------------------------------

def pack_array(typecode: str, values: Iterable) -> str:
    """Base64 of a little-endian packed array — one JSON string token
    instead of one number token per element, which is what makes the
    v3 sorted sections nearly free to parse."""
    arr = array(typecode, values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr = arr[:]
        arr.byteswap()
    return b64encode(arr.tobytes()).decode("ascii")


def unpack_array(typecode: str, data: str) -> array:
    """Invert :func:`pack_array`; raises ``ValueError`` on malformed
    base64 or a byte length that does not divide evenly (callers treat
    any failure as "rebuild")."""
    arr = array(typecode, b64decode(data, validate=True))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr.byteswap()
    return arr


# ---------------------------------------------------------------------------
# Value semantics (shared with repro.core.operators.compare)
# ---------------------------------------------------------------------------

def coerce_number(value: Any) -> Optional[float]:
    """Best-effort numeric coercion; None when not a number.

    Machine attribute views hold admin parameters as strings (``memory =
    "512"``); ordered operators need them as numbers.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


def loose_equal(a: Any, b: Any) -> bool:
    """The language's equality: numeric when both coerce, else
    case-insensitive string comparison."""
    na, nb = coerce_number(a), coerce_number(b)
    if na is not None and nb is not None:
        return na == nb
    return str(a).strip().lower() == str(b).strip().lower()


def any_element_equal(machine_value: Any, query_value: Any) -> bool:
    """Equality against a possibly multi-valued machine attribute
    (Section 4.1's example parameter is ``cms=sge,pbs,condor``)."""
    if isinstance(machine_value, str) and "," in machine_value:
        return any(loose_equal(element, query_value)
                   for element in machine_value.split(","))
    return loose_equal(machine_value, query_value)


def eq_token(value: Any) -> str:
    """Canonical hash-index key for one value under :func:`loose_equal`.

    Two values that are loosely equal always map to the same token; the
    converse may fail only for never-self-equal values (``nan``), which
    plan verification filters out.
    """
    n = coerce_number(value)
    if n is not None:
        return f"#{n + 0.0!r}"  # +0.0 folds -0.0 into 0.0
    return str(value).strip().lower()


def machine_tokens(value: Any) -> Iterator[str]:
    """All tokens a machine-side value answers equality probes under.

    Multi-valued strings yield one token per element, mirroring
    :func:`any_element_equal` — note the *whole* string is deliberately
    not a token (``cms=sge,pbs`` does not equal the literal ``"sge,pbs"``
    under the language either).
    """
    if isinstance(value, str) and "," in value:
        for element in value.split(","):
            yield eq_token(element)
    else:
        yield eq_token(value)


# ---------------------------------------------------------------------------
# Single-attribute indexes
# ---------------------------------------------------------------------------

class HashAttrIndex:
    """token -> set of machine names, for equality probes.

    A posting restored from a snapshot is kept as the parsed *list* until
    the token is first probed or mutated — most tokens of a large fleet
    (machine names, measured loads) are never touched, so converting all
    of them to sets up front would put an O(N) term back into the cold
    start this layout exists to remove.  A v3 snapshot restore
    additionally hands over a **name table** (``_table``): postings then
    hold record-row indices instead of name strings (a fraction of the
    bytes and JSON tokens), resolved through the table on first touch.
    """

    __slots__ = ("_postings", "_table")

    def __init__(self) -> None:
        #: token -> set (live) or list (restored, not yet touched; name
        #: strings, or row indices when ``_table`` is set).
        self._postings: Dict[str, Any] = {}
        #: Row-index -> machine name, for postings restored in row-id
        #: encoding; None for live (name-encoded) postings.
        self._table: Optional[List[str]] = None

    def _decode(self, posting: Any) -> Any:
        """An untouched posting's machine names (no caching)."""
        if type(posting) is not set and self._table is not None:
            table = self._table
            if type(posting) is int:  # singleton row-id posting
                return (table[posting],)
            return [table[i] for i in posting]
        return posting

    def _posting_set(self, token: str) -> Optional[Set[str]]:
        posting = self._postings.get(token)
        if posting is None or type(posting) is set:
            return posting
        posting = set(self._decode(posting))
        self._postings[token] = posting
        return posting

    def add(self, value: Any, name: str) -> None:
        for token in machine_tokens(value):
            posting = self._posting_set(token)
            if posting is None:
                self._postings[token] = {name}
            else:
                posting.add(name)

    def discard(self, value: Any, name: str) -> None:
        for token in machine_tokens(value):
            posting = self._posting_set(token)
            if posting is not None:
                posting.discard(name)
                if not posting:
                    del self._postings[token]

    def lookup(self, query_value: Any) -> Set[str]:
        """Names whose value *may* loosely equal ``query_value``."""
        posting = self._posting_set(eq_token(query_value))
        return posting if posting is not None else set()

    def __len__(self) -> int:
        return len(self._postings)


class SortedAttrIndex:
    """Flat sorted ``(value, name)`` pairs for range/ordered probes.

    Only numerically-coercible values are held — a machine whose value
    does not coerce can never satisfy an ordered clause (fail-closed
    semantics), so leaving it out is exact, not an approximation.

    A snapshot restore hands over the two *parallel arrays* it parsed
    (``_frozen``); range probes bisect the value array directly, and the
    pair list is only materialised by the first mutation — restoring a
    large fleet therefore never pays the O(n) tuple build for indexes
    that are read but not written.  As with :class:`HashAttrIndex`, a
    v3 restore sets ``_table`` and the frozen name array holds record-row
    indices, resolved per probe result (probe slices are small).
    """

    __slots__ = ("_pairs", "_frozen", "_table")

    def __init__(self) -> None:
        self._pairs: List[Tuple[float, str]] = []
        #: (values, names) parallel arrays from a snapshot, or None.
        self._frozen: Optional[Tuple[List[float], List[Any]]] = None
        #: Row-index -> machine name when the frozen name array is in
        #: row-id encoding; None otherwise.
        self._table: Optional[List[str]] = None

    def _frozen_names(self, start: int, stop: int) -> List[str]:
        names = self._frozen[1][start:stop]
        if self._table is not None:
            table = self._table
            return [table[i] for i in names]
        return names

    @staticmethod
    def _value_list(values) -> List[float]:
        """Frozen values as plain floats (packed arrays box on access)."""
        return list(values) if isinstance(values, list) else values.tolist()

    def _materialize(self) -> None:
        if self._frozen is not None:
            values, names = self._frozen
            self._pairs = list(zip(self._value_list(values),
                                   self._frozen_names(0, len(names))))
            self._frozen = None
            self._table = None

    def add(self, value: float, name: str) -> None:
        self._materialize()
        insort(self._pairs, (value, name))

    def discard(self, value: float, name: str) -> None:
        self._materialize()
        i = bisect_left(self._pairs, (value, name))
        if i < len(self._pairs) and self._pairs[i] == (value, name):
            del self._pairs[i]

    def _bounds(self, lo: float, hi: float, incl_lo: bool, incl_hi: bool
                ) -> Tuple[int, int]:
        # Exclusive bounds step to the adjacent representable float so a
        # single bisect handles all four inclusivity combinations.
        if not incl_lo:
            lo = math.nextafter(lo, math.inf)
        eff_hi = hi if incl_hi else math.nextafter(hi, -math.inf)
        if self._frozen is not None:
            values = self._frozen[0]
            start = bisect_left(values, lo)
            stop = bisect_left(values, math.nextafter(eff_hi, math.inf)) \
                if eff_hi != math.inf else len(values)
        else:
            start = bisect_left(self._pairs, (lo,))
            stop = bisect_left(self._pairs,
                               (math.nextafter(eff_hi, math.inf),)) \
                if eff_hi != math.inf else len(self._pairs)
        return start, stop

    def count_in(self, lo: float, hi: float, *, incl_lo: bool = True,
                 incl_hi: bool = True) -> int:
        start, stop = self._bounds(lo, hi, incl_lo, incl_hi)
        return max(0, stop - start)

    def names_in(self, lo: float, hi: float, *, incl_lo: bool = True,
                 incl_hi: bool = True) -> List[str]:
        start, stop = self._bounds(lo, hi, incl_lo, incl_hi)
        if self._frozen is not None:
            return self._frozen_names(start, stop)
        return [name for _value, name in self._pairs[start:stop]]

    def __len__(self) -> int:
        if self._frozen is not None:
            return len(self._frozen[0])
        return len(self._pairs)


# ---------------------------------------------------------------------------
# The catalog: every attribute of every record, diff-maintained
# ---------------------------------------------------------------------------

class AttributeIndexCatalog:
    """Hash + sorted indexes over machine attribute views.

    The catalog indexes *every* key of a record's
    :meth:`~repro.database.records.MachineRecord.attribute_view` — the
    built-in fields (``speed``, ``cpus``, ``load``, ``freememory``, ...)
    and all admin parameters (``arch``, ``memory``, ``ostype``, ...).
    Values additionally land in the per-attribute sorted index when they
    coerce to a number, so equality and range clauses on the same key are
    both indexable.

    Mutation interface mirrors the white pages: ``add``/``remove`` a
    record, ``replace`` with a new version (only changed attributes are
    re-indexed).  The caller (the database) holds its lock around every
    call; the catalog itself is not thread-safe.
    """

    def __init__(self) -> None:
        self._hash: Dict[str, HashAttrIndex] = {}
        self._sorted: Dict[str, SortedAttrIndex] = {}
        #: Cached attribute view per machine, for diff-based updates.
        self._views: Dict[str, Dict[str, Any]] = {}
        #: Records restored from a snapshot whose views have not been
        #: materialised yet (lazy: a 100k-machine catalog restore should
        #: not pay 100k ``attribute_view()`` calls up front).
        self._lazy: Dict[str, Any] = {}

    def _view_of(self, name: str) -> Optional[Dict[str, Any]]:
        """The machine's current view, materialising a lazy one."""
        view = self._views.get(name)
        if view is None:
            record = self._lazy.pop(name, None)
            if record is None:
                return None
            view = self._views[name] = record.attribute_view()
        return view

    # -- maintenance ---------------------------------------------------------

    def _index_one(self, attr: str, value: Any, name: str) -> None:
        idx = self._hash.get(attr)
        if idx is None:
            idx = self._hash[attr] = HashAttrIndex()
        idx.add(value, name)
        n = coerce_number(value)
        # NaN is excluded: it can never satisfy an ordered clause under
        # the fail-closed semantics, and inserting it would break the
        # bisect sort invariant (NaN compares False against everything).
        if n is not None and not math.isnan(n):
            sidx = self._sorted.get(attr)
            if sidx is None:
                sidx = self._sorted[attr] = SortedAttrIndex()
            sidx.add(n, name)

    def _unindex_one(self, attr: str, value: Any, name: str) -> None:
        idx = self._hash.get(attr)
        if idx is not None:
            idx.discard(value, name)
        n = coerce_number(value)
        if n is not None and not math.isnan(n):
            sidx = self._sorted.get(attr)
            if sidx is not None:
                sidx.discard(n, name)

    def add(self, record) -> None:
        view = record.attribute_view()
        name = record.machine_name
        self._lazy.pop(name, None)
        self._views[name] = view
        for attr, value in view.items():
            self._index_one(attr, value, name)

    def remove(self, machine_name: str) -> None:
        view = self._view_of(machine_name)
        if view is None:
            return
        del self._views[machine_name]
        for attr, value in view.items():
            self._unindex_one(attr, value, machine_name)

    @staticmethod
    def _same_indexed_value(a: Any, b: Any) -> bool:
        # Python `==` is coarser than token equality (1 == True, but
        # their eq_tokens differ), so a type change always re-indexes.
        return type(a) is type(b) and a == b

    #: Dynamic record fields (monitoring-owned, fields 1-6) that surface
    #: in the attribute view, with their view key and value transform.
    #: ``last_update_time`` and the service flags are deliberately absent
    #: — they never appear in views, so refreshing them costs no index
    #: work at all.
    _DYNAMIC_VIEW_ATTRS = {
        "current_load": ("load", lambda r: r.current_load),
        "active_jobs": ("jobs", lambda r: r.active_jobs),
        "available_memory_mb": ("freememory", lambda r: r.available_memory_mb),
        "available_swap_mb": ("freeswap", lambda r: r.available_swap_mb),
        "state": ("state", lambda r: str(r.state)),
    }

    def replace_dynamic(self, record, changed_fields: Iterable[str]) -> None:
        """Re-index a monitoring refresh touching only ``changed_fields``.

        The write-path fast path behind
        :meth:`~repro.database.whitepages.WhitePagesDatabase
        .update_dynamic`: the caller names exactly the record fields it
        replaced, so only those attributes are diffed and re-indexed —
        skipping the full view rebuild and O(attrs) diff of
        :meth:`replace`.  Falls back to :meth:`replace` for machines
        whose view is still lazy (snapshot restore) and ignores fields
        shadowed by admin parameters (the view keeps the admin value,
        exactly as a full rebuild would).
        """
        name = record.machine_name
        view = self._views.get(name)
        if view is None:
            self.replace(record)
            return
        admin = record.admin_parameters
        for field_name in changed_fields:
            spec = self._DYNAMIC_VIEW_ATTRS.get(field_name)
            if spec is None:
                continue  # not a view attribute (e.g. last_update_time)
            attr, value_of = spec
            if attr in admin:
                continue  # admin parameter shadows the built-in field
            new_value = value_of(record)
            old_value = view.get(attr)
            if self._same_indexed_value(old_value, new_value):
                continue
            self._unindex_one(attr, old_value, name)
            self._index_one(attr, new_value, name)
            # In-place view update keeps the cached view (shared with
            # match verification, under the registry lock) consistent.
            view[attr] = new_value

    def replace(self, record) -> None:
        """Re-index ``record``; only attributes whose value changed move."""
        name = record.machine_name
        old = self._view_of(name)
        if old is None:
            self.add(record)
            return
        new = record.attribute_view()
        for attr, value in old.items():
            if attr not in new or not self._same_indexed_value(new[attr],
                                                               value):
                self._unindex_one(attr, value, name)
        for attr, value in new.items():
            if attr not in old or not self._same_indexed_value(old[attr],
                                                               value):
                self._index_one(attr, value, name)
        self._views[name] = new

    def bulk_load(self, records: Iterable) -> None:
        """Index many records at once (initial database construction).

        Equivalent to repeated :meth:`add` but builds each sorted
        container with one sort instead of n insorts.
        """
        sorted_buf: Dict[str, List[Tuple[float, str]]] = {}
        for record in records:
            view = record.attribute_view()
            name = record.machine_name
            self._views[name] = view
            for attr, value in view.items():
                idx = self._hash.get(attr)
                if idx is None:
                    idx = self._hash[attr] = HashAttrIndex()
                idx.add(value, name)
                n = coerce_number(value)
                if n is not None and not math.isnan(n):
                    sorted_buf.setdefault(attr, []).append((n, name))
        for attr, pairs in sorted_buf.items():
            sidx = self._sorted.get(attr)
            if sidx is None:
                sidx = self._sorted[attr] = SortedAttrIndex()
            sidx._materialize()
            merged = sidx._pairs + pairs
            merged.sort()
            sidx._pairs = merged

    # -- plan execution support ---------------------------------------------

    def eq_candidates(self, attr: str, value: Any) -> Set[str]:
        """Superset of machines whose ``attr`` loosely equals ``value``.

        An attribute no machine carries has no index, and correctly
        yields the empty set (``view.get(attr)`` would be None for every
        record, and None never satisfies a clause).
        """
        idx = self._hash.get(attr)
        return idx.lookup(value) if idx is not None else set()

    def range_count(self, attr: str, lo: float, hi: float, *,
                    incl_lo: bool = True, incl_hi: bool = True) -> int:
        sidx = self._sorted.get(attr)
        if sidx is None:
            return 0
        return sidx.count_in(lo, hi, incl_lo=incl_lo, incl_hi=incl_hi)

    def range_candidates(self, attr: str, lo: float, hi: float, *,
                         incl_lo: bool = True, incl_hi: bool = True
                         ) -> List[str]:
        sidx = self._sorted.get(attr)
        if sidx is None:
            return []
        return sidx.names_in(lo, hi, incl_lo=incl_lo, incl_hi=incl_hi)

    def view(self, machine_name: str) -> Optional[Dict[str, Any]]:
        """The cached attribute view (shared with match verification)."""
        return self._view_of(machine_name)

    # -- snapshot persistence -------------------------------------------------

    def to_snapshot(self) -> Dict[str, Any]:
        """Deterministic, JSON-serialisable image of the index state.

        The attribute views are *not* serialised — they are cheaply
        re-derivable from the records the snapshot travels with, whereas
        the hash/sorted structures are the O(N·attrs·log N) part of a
        rebuild (tokenisation, numeric coercion, sorting).  Posting names
        are sorted so snapshots of equal catalogs are byte-identical.
        """
        def sorted_block(sidx: SortedAttrIndex) -> Dict[str, Any]:
            if sidx._frozen is not None:
                values, names = sidx._frozen
                return {"values": sidx._value_list(values),
                        "names": sidx._frozen_names(0, len(names))}
            return {
                "values": [v for v, _n in sidx._pairs],
                "names": [n for _v, n in sidx._pairs],
            }

        return {
            "schema": INDEX_SCHEMA_VERSION,
            "hash": {
                # sorted() canonicalises live sets, still-frozen posting
                # lists, and row-id postings (decoded back to names).
                attr: {token: sorted(idx._decode(names))
                       for token, names in idx._postings.items()}
                for attr, idx in self._hash.items()
            },
            "sorted": {
                attr: sorted_block(sidx)
                for attr, sidx in self._sorted.items()
            },
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any],
                      records: Iterable) -> "AttributeIndexCatalog":
        """Restore a catalog from :meth:`to_snapshot` output.

        ``records`` must be the exact record set the snapshot was taken
        from (the persistence layer guards this with a checksum before
        calling); views are rebuilt from them directly.  Raises
        ``ValueError`` on a schema-version mismatch — callers fall back
        to :meth:`bulk_load`.

        ``data`` may carry ``encoding: "rowid"`` (persistence format
        v3): postings and sorted name arrays then hold indices into
        ``records`` — which must be in the snapshot's row order — and
        are resolved lazily through a shared name table, so the restore
        never walks the posting contents at all.
        """
        if data.get("schema") != INDEX_SCHEMA_VERSION:
            raise ValueError(
                f"index snapshot schema {data.get('schema')!r} != "
                f"{INDEX_SCHEMA_VERSION}")
        cat = cls()
        records = list(records)
        # Views materialise on first touch; restore stays O(index size).
        cat._lazy = {record.machine_name: record for record in records}
        table: Optional[List[str]] = None
        if data.get("encoding") == "rowid":
            table = [record.machine_name for record in records]

        n_rows = len(table) if table is not None else 0

        def check_id_range(ids, attr: str) -> None:
            # Row ids must lie within the record table; callers
            # guarantee the entries are real ints.  min/max bound the
            # range without a Python-level loop.  Running the checks
            # eagerly keeps the "structurally broken section falls back
            # to a rebuild" contract that the lazy decode would
            # otherwise defer to query time.
            if len(ids) and (min(ids) < 0 or max(ids) >= n_rows):
                raise ValueError(f"row id out of range for {attr!r}")

        singleton_ok = table is not None
        for attr, postings in data["hash"].items():
            if not all(type(names) is list
                       or (singleton_ok and type(names) is int)
                       for names in postings.values()):
                raise ValueError(f"hash postings for {attr!r} not lists")
            if table is not None:
                values = list(postings.values())
                # Most tokens of high-cardinality attributes are bare
                # singleton ids (`type is int` excludes booleans):
                # validate them in one min/max batch.
                check_id_range([v for v in values if type(v) is int], attr)
                for ids in values:
                    if type(ids) is not int:
                        # Strict int elements: booleans would silently
                        # index rows 0/1 and floats would fault lazily.
                        if not all(type(i) is int for i in ids):
                            raise ValueError(
                                f"non-integer row id for {attr!r}")
                        check_id_range(ids, attr)
            idx = HashAttrIndex()
            # Postings stay as the parsed lists until first touched.
            idx._postings = dict(postings)
            idx._table = table
            cat._hash[attr] = idx
        for attr, block in data["sorted"].items():
            values, names = block["values"], block["names"]
            if isinstance(values, str) or isinstance(names, str):
                # Packed (base64 little-endian) arrays — only legal in
                # row-id encoding.  numpy (when available) gives
                # zero-copy views plus C-speed monotonicity/bounds
                # checks; without it, the stdlib codec restores the
                # same structures a little slower.  Any unpacking
                # failure raises into the caller's rebuild fallback.
                if table is None or not isinstance(values, str) \
                        or not isinstance(names, str):
                    raise ValueError(f"packed arrays for {attr!r} malformed")
                try:
                    import numpy as np
                except ImportError:  # pragma: no cover - numpy-less install
                    np = None
                if np is not None:
                    values = np.frombuffer(b64decode(values, validate=True),
                                           dtype="<f8")
                    names = np.frombuffer(b64decode(names, validate=True),
                                          dtype="<u4")
                    # Elementwise <= (not np.diff: inf - inf is NaN, so
                    # diff would falsely reject repeated infinities).
                    ascending = len(values) == 0 or \
                        bool((values[:-1] <= values[1:]).all())
                else:
                    values = unpack_array("d", values)
                    names = unpack_array("I", names)
                    value_list = values.tolist()
                    ascending = value_list == sorted(value_list)
                if len(values) != len(names):
                    raise ValueError(f"sorted arrays for {attr!r} misaligned")
                if not ascending:
                    raise ValueError(
                        f"sorted values for {attr!r} not ascending")
                max_id = (int(names.max()) if np is not None else max(names)) \
                    if len(names) else -1
                if max_id >= n_rows:
                    raise ValueError(f"row id out of range for {attr!r}")
            else:
                if table is not None:
                    if not all(type(i) is int for i in names):
                        raise ValueError(f"non-integer row id for {attr!r}")
                    check_id_range(names, attr)
                # Structural guards: bisect correctness depends on
                # ascending order, and parallel arrays must line up.
                # (sorted() on an already-sorted list is a fast O(n)
                # pass.)
                if len(values) != len(names):
                    raise ValueError(f"sorted arrays for {attr!r} misaligned")
                if values != sorted(values):
                    raise ValueError(
                        f"sorted values for {attr!r} not ascending")
            sidx = SortedAttrIndex()
            sidx._frozen = (values, names)
            sidx._table = table
            cat._sorted[attr] = sidx
        return cat

    def stats(self) -> Dict[str, Any]:
        return {
            "machines": len(self._views) + len(self._lazy),
            "hash_attrs": sorted(self._hash),
            "sorted_attrs": sorted(self._sorted),
        }
