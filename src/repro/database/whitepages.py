"""The white-pages resource database (Section 4.1).

This is the "database" a pool object walks at initialisation: "the pool
object first walks the 'white pages' database for machines that match the
criteria encoded within its name.  During this process, the pool object
loads relevant information ... into a local cache and marks them as
'taken' within the main database" (Section 5.2.3).

The database therefore supports three operations beyond registry CRUD:

- :meth:`WhitePagesDatabase.match` — execute a compiled
  :class:`~repro.core.plan.QueryPlan` over the incrementally-maintained
  attribute indexes (:mod:`repro.database.indexes`); near-constant in
  database size for selective queries;
- :meth:`WhitePagesDatabase.take` — atomically claim an *untaken* machine
  for a pool (returns False if another pool already holds it);
- :meth:`WhitePagesDatabase.release` — return machines to the free set
  (used when a pool is destroyed, split, or rebalanced).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.database.indexes import AttributeIndexCatalog
from repro.database.records import MachineRecord
from repro.database.fields import MachineState
from repro.errors import (
    DuplicateMachineError,
    MachineTakenError,
    UnknownMachineError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.core.plan import QueryPlan

__all__ = ["WhitePagesDatabase"]

#: Record-change callback: ``fn(machine_name, record_or_None)``.
Listener = Callable[[str, Optional[MachineRecord]], None]


class WhitePagesDatabase:
    """In-memory machine registry with take/release semantics.

    A coarse lock makes the registry safe for the asyncio/threaded runtime;
    the DES runtime is single-threaded and pays nothing for it.  Records
    are immutable, so readers holding references never see torn updates.

    Alongside the record map the database maintains, incrementally:

    - a **sorted name view** (``_names``) so deterministic walks never
      re-sort the key set;
    - a **free set** (``_free``) — the untaken machines — so pool walks
      and take/release stay O(log n);
    - an :class:`~repro.database.indexes.AttributeIndexCatalog` — hash
      indexes for equality clauses, sorted containers for range clauses —
      which :meth:`match` executes compiled query plans against.

    ``catalog`` lets a snapshot loader hand over an already-restored
    index catalog (see :mod:`repro.database.persistence`); the caller is
    responsible for its consistency with ``records`` (the persistence
    layer guards this with a checksum and falls back to a rebuild).

    Record-change **listeners** are invoked — under the registry lock —
    whenever a record is replaced or removed; the indexed in-pool
    scheduler uses this to re-rank only the machine whose record actually
    changed instead of re-walking its cache.  Listeners live in a
    **per-machine subscription map** (:meth:`subscribe`: machine name →
    interested listeners), so an ``update_dynamic`` notifies only the
    O(1) listeners that cache that machine.  (The legacy ``add_listener``
    broadcast tier was deprecated in PR 4 and has been removed: a
    consumer that genuinely needs every change subscribes to every
    name — the cost is then visible at the call site instead of taxing
    the write path invisibly.)
    """

    #: Plan execution may intersect up to this many index probes before
    #: per-candidate verification (1 = single most-selective path).
    intersect_max_paths: int = 3
    #: A further probe is only intersected while its candidate count is at
    #: most this multiple of the current candidate set — a huge second
    #: posting set costs more to walk than the verifications it saves.
    intersect_ratio: float = 8.0

    def __init__(self, records: Iterable[MachineRecord] = (),
                 *, catalog: Optional[AttributeIndexCatalog] = None):
        self._lock = threading.RLock()
        self._records: Dict[str, MachineRecord] = {}
        self._taken_by: Dict[str, str] = {}  # machine name -> pool name
        self._names: List[str] = []          # sorted, maintained on add/remove
        self._free: Set[str] = set()         # names not in _taken_by
        #: Subscription map: machine name -> listeners that cache it.
        #: Tuples (copy-on-write) so _notify iterates without copying.
        self._subscriptions: Dict[str, Tuple[Listener, ...]] = {}
        initial = list(records)
        for rec in initial:
            if rec.machine_name in self._records:
                raise DuplicateMachineError(rec.machine_name)
            self._records[rec.machine_name] = rec
            self._free.add(rec.machine_name)
        self._names = sorted(self._records)
        if catalog is not None:
            self._catalog = catalog
        else:
            self._catalog = AttributeIndexCatalog()
            self._catalog.bulk_load(initial)

    # -- change listeners -----------------------------------------------------

    def subscribe(self, machine_names: Iterable[str], fn: "Listener") -> None:
        """Subscribe ``fn(machine_name, record)`` to changes of the named
        machines only.

        ``record`` is the new version, or ``None`` when the machine was
        removed.  Subscriptions are keyed by *name*, not by registration
        state: a machine removed from the registry and later re-added
        still notifies its subscribers (the indexed pool scheduler relies
        on this to restore the machine to its slot).  Listeners run under
        the registry lock and must not mutate the database.
        """
        with self._lock:
            for name in machine_names:
                self._subscriptions[name] = \
                    self._subscriptions.get(name, ()) + (fn,)

    def unsubscribe(self, machine_names: Iterable[str],
                    fn: "Listener") -> None:
        """Remove ``fn``'s subscription on the named machines.

        Comparison is by equality, not identity: bound methods are
        re-created per attribute access but compare equal for the same
        receiver.  Unknown names and absent subscriptions are ignored.
        """
        with self._lock:
            for name in machine_names:
                subs = self._subscriptions.get(name)
                if subs is None:
                    continue
                remaining = tuple(l for l in subs if l != fn)
                if remaining:
                    self._subscriptions[name] = remaining
                else:
                    del self._subscriptions[name]

    def remove_listener(
            self, fn: Callable[[str, Optional[MachineRecord]], None]) -> None:
        """Remove every per-machine subscription of ``fn``."""
        with self._lock:
            for name in [n for n, subs in self._subscriptions.items()
                         if any(l == fn for l in subs)]:
                remaining = tuple(l for l in self._subscriptions[name]
                                  if l != fn)
                if remaining:
                    self._subscriptions[name] = remaining
                else:
                    del self._subscriptions[name]

    def listener_stats(self) -> Dict[str, int]:
        """Observability: subscribed machines and subscription entries."""
        with self._lock:
            return {
                "subscribed_machines": len(self._subscriptions),
                "subscription_entries": sum(
                    len(subs) for subs in self._subscriptions.values()),
            }

    def _notify(self, machine_name: str,
                record: Optional[MachineRecord]) -> None:
        for fn in self._subscriptions.get(machine_name, ()):
            fn(machine_name, record)

    # -- registry CRUD --------------------------------------------------------

    def add(self, record: MachineRecord) -> None:
        with self._lock:
            if record.machine_name in self._records:
                raise DuplicateMachineError(record.machine_name)
            self._records[record.machine_name] = record
            insort(self._names, record.machine_name)
            self._free.add(record.machine_name)
            self._catalog.add(record)
            # Notify so a pool whose cached machine was removed and then
            # re-registered can restore it to its scheduling order.
            self._notify(record.machine_name, record)

    def remove(self, machine_name: str) -> MachineRecord:
        with self._lock:
            rec = self._records.pop(machine_name, None)
            if rec is None:
                raise UnknownMachineError(machine_name)
            self._taken_by.pop(machine_name, None)
            self._free.discard(machine_name)
            i = bisect_left(self._names, machine_name)
            if i < len(self._names) and self._names[i] == machine_name:
                del self._names[i]
            self._catalog.remove(machine_name)
            self._notify(machine_name, None)
            return rec

    def get(self, machine_name: str) -> MachineRecord:
        with self._lock:
            rec = self._records.get(machine_name)
            if rec is None:
                raise UnknownMachineError(machine_name)
            return rec

    def update(self, record: MachineRecord) -> None:
        """Replace the record with the same ``machine_name``."""
        with self._lock:
            if record.machine_name not in self._records:
                raise UnknownMachineError(record.machine_name)
            self._records[record.machine_name] = record
            self._catalog.replace(record)
            self._notify(record.machine_name, record)

    def update_dynamic(self, machine_name: str, **dynamic) -> MachineRecord:
        """Apply a monitoring refresh (fields 1-7) atomically.

        The kwargs name exactly the fields being replaced, so the
        catalog re-indexes only those attributes
        (:meth:`~repro.database.indexes.AttributeIndexCatalog
        .replace_dynamic`) — a load refresh is two bisects, not a view
        rebuild — and the notification reaches only the listeners
        subscribed to this machine.
        """
        with self._lock:
            rec = self.get(machine_name)
            new = rec.with_dynamic(**dynamic)
            self._records[machine_name] = new
            self._catalog.replace_dynamic(new, dynamic)
            self._notify(machine_name, new)
            return new

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, machine_name: str) -> bool:
        with self._lock:
            return machine_name in self._records

    def names(self) -> List[str]:
        with self._lock:
            return list(self._names)

    def exclusive(self):
        """The registry lock, for callers that must make several
        operations atomic (snapshot capture, scheduler attachment).

        The sharded facade (:mod:`repro.database.sharding`) implements
        the same method by acquiring every shard lock in shard order;
        code written against ``exclusive()`` works on either database.
        """
        return self._lock

    # -- matching ----------------------------------------------------------------

    def match(self, plan: Any = None, *, include_taken: bool = False
              ) -> List[MachineRecord]:
        """Execute a query plan; return matching records in name order.

        ``plan`` may be a compiled :class:`~repro.core.plan.QueryPlan`, a
        :class:`~repro.core.query.Query`, a
        :class:`~repro.core.plan.ClauseSet`, or ``None`` (match all).
        The most selective indexed clause drives candidate enumeration;
        every candidate is then verified against the full clause set, so
        the result is always identical to a brute-force predicate walk.

        By default only *untaken* machines are returned, since a pool's
        initialisation walk must not steal machines already aggregated
        into another pool.
        """
        from repro.core.plan import QueryPlan, compile_plan
        if not isinstance(plan, QueryPlan):
            plan = compile_plan(plan)
        with self._lock:
            if plan.unsatisfiable:
                return []
            names = self._plan_candidates(plan, include_taken)
            if not include_taken:
                names = [n for n in names if n in self._free]
            clause_set = plan.clause_set
            out: List[MachineRecord] = []
            for name in names:
                rec = self._records.get(name)
                if rec is None:  # stale index entry cannot occur, but be safe
                    continue
                view = self._catalog.view(name)
                if view is None:
                    view = rec.attribute_view()
                if clause_set.matches_view(view):
                    out.append(rec)
            out.sort(key=lambda r: r.machine_name)
            return out

    def count(self, plan: Any = None, *, include_taken: bool = False) -> int:
        """Number of records a plan matches (the fan-out-friendly form:
        a sharded fan-out ships one integer per shard instead of the
        record lists)."""
        return len(self.match(plan, include_taken=include_taken))

    def _plan_candidates(self, plan: "QueryPlan", include_taken: bool
                         ) -> Iterable[str]:
        """Candidate names from the plan's index probes (a superset of the
        true matches); falls back to the free set / full walk when the
        plan has no indexable clause.

        All indexable probes are costed first (posting-set length for
        equalities, bisect count for ranges).  The smallest drives the
        access path; up to ``intersect_max_paths - 1`` further probes are
        then *intersected* into it, cheapest first, but only while the
        next probe's count stays within ``intersect_ratio`` of the
        current candidate set — walking a huge second posting set costs
        more than the per-candidate verifications it would save.  Since
        every candidate is still verified against the full clause set,
        the cutoff is purely a cost decision, never a semantic one.
        """
        costed: List[Tuple[int, int, Any]] = []
        for attr, value in plan.eq_probes:
            posting = self._catalog.eq_candidates(attr, value)
            if not posting:
                return []
            costed.append((len(posting), len(costed), ("eq", posting)))
        for bound in plan.bounds:
            count = self._catalog.range_count(
                bound.name, bound.lo, bound.hi,
                incl_lo=bound.incl_lo, incl_hi=bound.incl_hi)
            if count == 0:
                return []
            costed.append((count, len(costed), ("range", bound)))
        if not costed:
            # No indexable clause: walk whichever base set applies.
            return list(self._free) if not include_taken else list(self._names)
        costed.sort(key=lambda t: (t[0], t[1]))

        def names_of(probe) -> Iterable[str]:
            kind, payload = probe
            if kind == "eq":
                return payload
            return self._catalog.range_candidates(
                payload.name, payload.lo, payload.hi,
                incl_lo=payload.incl_lo, incl_hi=payload.incl_hi)

        _cost0, _tie0, probe0 = costed[0]
        if len(costed) == 1 or self.intersect_max_paths <= 1:
            base = names_of(probe0)
            # Never hand out the live posting set itself.
            return list(base) if isinstance(base, set) else base
        candidates = set(names_of(probe0))
        for cost, _tie, probe in costed[1:self.intersect_max_paths]:
            if not candidates:
                break
            if cost > self.intersect_ratio * len(candidates):
                break  # remaining probes are even larger (sorted by cost)
            candidates = candidates.intersection(names_of(probe))
        return candidates

    def count_up(self) -> int:
        with self._lock:
            return sum(1 for r in self._records.values()
                       if r.state is MachineState.UP)

    # -- take / release ------------------------------------------------------------

    def take(self, machine_name: str, pool_name: str) -> bool:
        """Mark ``machine_name`` as taken by ``pool_name``.

        Returns True on success, False if another pool already holds it.
        Raises :class:`UnknownMachineError` for unregistered machines.
        """
        with self._lock:
            if machine_name not in self._records:
                raise UnknownMachineError(machine_name)
            holder = self._taken_by.get(machine_name)
            if holder is not None and holder != pool_name:
                return False
            self._taken_by[machine_name] = pool_name
            self._free.discard(machine_name)
            return True

    def take_all(self, machine_names: Iterable[str], pool_name: str) -> List[str]:
        """Take every name we can; return the list actually taken."""
        got: List[str] = []
        for name in machine_names:
            if self.take(name, pool_name):
                got.append(name)
        return got

    def release(self, machine_name: str, pool_name: str) -> None:
        """Release a machine previously taken by ``pool_name``."""
        with self._lock:
            holder = self._taken_by.get(machine_name)
            if holder is None:
                return
            if holder != pool_name:
                raise MachineTakenError(
                    f"{machine_name} is held by {holder!r}, not {pool_name!r}"
                )
            del self._taken_by[machine_name]
            self._free.add(machine_name)

    def release_pool(self, pool_name: str) -> int:
        """Release every machine held by ``pool_name``; return the count."""
        with self._lock:
            names = [m for m, p in self._taken_by.items() if p == pool_name]
            for name in names:
                del self._taken_by[name]
                self._free.add(name)
            return len(names)

    def holder_of(self, machine_name: str) -> Optional[str]:
        with self._lock:
            return self._taken_by.get(machine_name)

    def holders(self) -> Dict[str, str]:
        """Every taken machine and the pool holding it."""
        with self._lock:
            return dict(self._taken_by)

    def taken_count(self) -> int:
        with self._lock:
            return len(self._taken_by)

    def free_names(self) -> Set[str]:
        with self._lock:
            return set(self._free)

    def index_stats(self) -> Dict[str, Any]:
        """Observability surface for the attribute-index catalog."""
        with self._lock:
            stats = self._catalog.stats()
            stats["free"] = len(self._free)
            stats["taken"] = len(self._taken_by)
            return stats

    def catalog_snapshot(self) -> Dict[str, Any]:
        """Serialisable image of the index catalog (persistence layer)."""
        with self._lock:
            return self._catalog.to_snapshot()

    def snapshot_state(self) -> Tuple[List[MachineRecord], Dict[str, Any]]:
        """Records (name order) and catalog image under ONE lock hold.

        The persistence layer must capture both sides atomically: a
        mutation slipping between a record walk and the catalog image
        would produce a snapshot whose checksum blesses an index that
        does not match its records — precisely what the checksum guards
        against.
        """
        with self._lock:
            records = [self._records[name] for name in self._names]
            return records, self._catalog.to_snapshot()
