"""Indexed in-pool scheduler: incrementally-maintained scheduling order.

The paper's pool scheduler "sorts machines within the object's cache
using specified criteria" on every query — the linear scan whose cost is
Figure 6's subject matter.  This module is the real implementation behind
the *indexed* ablation (``ResourcePoolConfig.linear_scan=False``): the
cache is kept in scheduling order permanently, so answering a query is a
walk of an already-sorted structure that stops at the first admissible
machine instead of an O(pool) re-sort.

Structure
---------
One :class:`_RankOrder` per *query class*.  A rank order holds one sorted
list of ``(rank_key, cache_index, machine_name)`` per bias tier
(replication keeps two tiers: "our" machines and the rest; see
:meth:`ResourcePool._bias_tier`).  Concatenated in tier order the lists
reproduce exactly the ``(tier, key, index)`` order the linear scan
computes, because the linear sort is lexicographic over those fields.

- The **base order** (query class ``None``) ranks with ``query=None``;
  it serves every query under a query-insensitive objective
  (:attr:`~repro.core.scheduling.SchedulingObjective.query_sensitive`
  False — the default ``least_load`` among them).
- **Query-class orders** serve query-sensitive objectives
  (``best_fit_memory``, ``min_response_time``): the objective factors
  its key into a (machine-static, query-class) decomposition by
  declaring :attr:`~repro.core.scheduling.SchedulingObjective
  .query_class` — a function mapping a query to a hashable class key
  such that two queries with the same key rank every record
  identically.  The first query of a class builds its order (one
  O(n log n) sort); subsequent queries of the same class walk the
  maintained lists.  At most :data:`MAX_QUERY_CLASSES` class orders are
  kept (LRU); an evicted class simply rebuilds on next use.

Maintenance is driven by the white-pages per-machine subscription map
(:meth:`~repro.database.whitepages.WhitePagesDatabase.subscribe`): the
scheduler subscribes once for exactly the machines in its cache, so an
``update_dynamic`` of any *other* machine never reaches it — with
thousands of pools, a record change notifies only the O(1) pools that
cache that machine.  When a cached machine's record is replaced, every
maintained order re-keys only that machine — two bisects, O(log n) plus
a memmove, per order — so a monitoring refresh or an allocation's load
bump never triggers a cache walk.

Selection semantics are *identical* to linear mode in every case: a
query-sensitive objective without a declared ``query_class`` still falls
back to the pool's linear walk whenever a query is present.

Concurrency: the tier lists are only touched under the white-pages
registry lock (the listener already runs inside it; builds re-enter it),
while readers iterate *published* order lists that are replaced, never
mutated in place — so a monitoring thread refreshing records cannot tear
a selection in progress.  Allocation itself follows the pool's existing
single-writer discipline.
"""

from __future__ import annotations

import math
import threading
from bisect import insort, bisect_left
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.scheduling import SchedulingObjective
from repro.database.records import MachineRecord
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import UnknownMachineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query import Query

__all__ = ["IndexedPoolScheduler", "MAX_QUERY_CLASSES"]

#: ``(rank_key, cache_index, machine_name)`` — compares exactly like the
#: linear scan's ``(key, idx, name)`` sort fields within one bias tier.
_Entry = Tuple[Tuple[float, ...], int, str]

#: Default query-class orders kept per scheduler (LRU).  Each order
#: costs O(pool) memory and one re-key per record change; workloads
#: normally reuse a handful of predicted-footprint classes, so a small
#: cap bounds write amplification without evicting live classes.
#: Per-pool override: :attr:`repro.config.ResourcePoolConfig
#: .max_query_classes` (a workload with many live footprint classes
#: would thrash the default).
MAX_QUERY_CLASSES = 8


def _safe_key(key: Tuple[float, ...]) -> Tuple[float, ...]:
    """Map NaN components to +inf so the bisect order stays total.

    The linear path's ``list.sort`` over NaN keys is unspecified; pinning
    NaN to "rank last" keeps the index structurally sound without
    changing any specified ordering.
    """
    if any(isinstance(k, float) and math.isnan(k) for k in key):
        return tuple(math.inf if isinstance(k, float) and math.isnan(k)
                     else k for k in key)
    return key


class _RankOrder:
    """One maintained scheduling order (tier lists under one rank fn).

    All mutation happens under the white-pages registry lock; readers
    use the published ``order_cache`` (replaced, never mutated) or the
    version-checked live walk.
    """

    __slots__ = ("rank_of", "entries", "tiers", "tier_order",
                 "order_cache", "version", "rekeys")

    def __init__(self, rank_of: Callable[[MachineRecord], Tuple[float, ...]],
                 database: WhitePagesDatabase,
                 slots: Dict[str, Tuple[int, int]]):
        self.rank_of = rank_of
        #: name -> its current entry (absent while deleted from registry).
        self.entries: Dict[str, _Entry] = {}
        #: tier number -> sorted entries; walked in ascending tier order.
        self.tiers: Dict[int, List[_Entry]] = {}
        #: Materialised ``(idx, name)`` order; invalidated by any re-key.
        #: Published lists are replaced, never mutated — readers holding
        #: one can always finish iterating it safely.
        self.order_cache: Optional[List[Tuple[int, str]]] = None
        #: Bumped (under the registry lock) on every structural change;
        #: lazy iteration uses it to detect — and restart after — a
        #: concurrent mutation instead of walking a torn list.
        self.version = 0
        self.rekeys = 0
        # Caller holds the registry lock; machines deleted from the
        # registry (broken state the linear path would fault on) are
        # simply absent until re-registered — matching what maintenance
        # does to an order that existed when the deletion happened.
        for name, (tier, idx) in slots.items():
            try:
                record = database.get(name)
            except UnknownMachineError:
                continue
            key = _safe_key(rank_of(record))
            entry: _Entry = (key, idx, name)
            self.tiers.setdefault(tier, []).append(entry)
            self.entries[name] = entry
        for entries in self.tiers.values():
            entries.sort()
        self.tier_order = sorted(self.tiers)

    # -- maintenance ----------------------------------------------------------

    def on_change(self, name: str, slot: Tuple[int, int],
                  record: Optional[MachineRecord]) -> None:
        """Re-rank ``name``; runs under the owning shard's registry lock
        plus the scheduler mutex."""
        tier, idx = slot
        entries = self.tiers.setdefault(tier, [])
        if tier not in self.tier_order:
            self.tier_order = sorted(self.tiers)
        entry = self.entries.get(name)
        if record is None:
            # Cached machine deleted from the registry — drop it from the
            # order (and restore it if the machine is ever re-registered).
            if entry is not None:
                self._remove_entry(entries, entry)
                del self.entries[name]
                self.order_cache = None
                self.version += 1
            return
        new_key = _safe_key(self.rank_of(record))
        if entry is not None:
            if new_key == entry[0]:
                return  # rank unchanged (e.g. memory-only refresh under least_load)
            self._remove_entry(entries, entry)
        new_entry: _Entry = (new_key, idx, name)
        insort(entries, new_entry)
        self.entries[name] = new_entry
        self.order_cache = None
        self.version += 1
        self.rekeys += 1

    @staticmethod
    def _remove_entry(entries: List[_Entry], entry: _Entry) -> None:
        i = bisect_left(entries, entry)
        if i < len(entries) and entries[i] == entry:
            del entries[i]

    # -- order ----------------------------------------------------------------

    def snapshot(self, lock) -> List[Tuple[int, str]]:
        """The current order as a list that is never mutated in place.

        Rebuilding takes the scheduler mutex so the tier lists cannot be
        resorted mid-walk by a concurrent monitoring refresh; once
        published, a snapshot list is only ever *replaced*, so readers
        iterate it lock-free.
        """
        snapshot = self.order_cache
        if snapshot is None:
            with lock:
                snapshot = self.order_cache
                if snapshot is None:
                    snapshot = [
                        (idx, name)
                        for tier in self.tier_order
                        for _key, idx, name in self.tiers[tier]
                    ]
                    self.order_cache = snapshot
        return snapshot

    def iter_order(self, lock) -> Iterator[Tuple[int, str]]:
        """Lazily yield ``(cache_index, name)`` in scheduling order.

        ``select_machine`` stops at the first admissible machine, so a
        healthy pool answers in O(1) candidates instead of O(pool) —
        without materialising the order (which the pool's own allocation
        re-keys would invalidate every cycle).
        """
        cache = self.order_cache
        if cache is not None:
            return iter(cache)
        return self._iter_live(lock)

    def _iter_live(self, lock) -> Iterator[Tuple[int, str]]:
        """Walk the live tier lists, restarting if a concurrent record
        change mutates them mid-walk.

        List reads are memory-safe under the GIL; the version check (and
        the IndexError guard for a shrink between bound check and read)
        turns a torn walk into a restart — equivalent to the caller
        re-requesting a fresh scan order.  Persistent churn falls back
        to one consistent materialised snapshot.
        """
        for _attempt in range(3):
            version = self.version
            stale = False
            for tier in self.tier_order:
                entries = self.tiers[tier]
                i = 0
                while True:
                    if self.version != version:
                        stale = True
                        break
                    try:
                        _key, idx, name = entries[i]
                    except IndexError:
                        break  # end of tier (or shrunk: version catches it)
                    i += 1
                    yield (idx, name)
                    if self.version != version:
                        stale = True
                        break
                if stale:
                    break
            if not stale:
                return
        yield from self.snapshot(lock)


class IndexedPoolScheduler:
    """Keeps one pool cache permanently in scheduling order.

    Parameters
    ----------
    database:
        The white pages; subscribed to (per cached machine) for record
        changes until :meth:`close`.
    cache:
        The pool's machine names in cache order (fixed after
        initialisation; the cache index is the scheduling tie-breaker).
    objective:
        Ranking criterion.  The base order keys with ``query=None``;
        objectives declaring a ``query_class`` additionally get one
        maintained order per observed query class.
    tier_of:
        Maps a cache index to its replica-bias tier (0 = preferred).
    max_query_classes:
        LRU cap on maintained query-class orders (default
        :data:`MAX_QUERY_CLASSES`; pools pass
        :attr:`~repro.config.ResourcePoolConfig.max_query_classes`).

    The database may be a plain :class:`WhitePagesDatabase` or the
    shard-service client: the scheduler's own mutex protects the tier
    lists, and builds take ``database.exclusive()`` so no record change
    made through the database can slip between build and subscription.
    """

    def __init__(self, database: WhitePagesDatabase, cache: Sequence[str],
                 objective: SchedulingObjective,
                 tier_of: Callable[[int], int], *,
                 max_query_classes: int = MAX_QUERY_CLASSES):
        self.database = database
        self.objective = objective
        self.max_query_classes = max(1, int(max_query_classes))
        #: Protects the maintained orders against concurrent listener
        #: calls and builds.  Lock order everywhere: the database's
        #: ``exclusive()`` lock first, this mutex second.
        self._mutex = threading.RLock()
        #: name -> (tier, cache index): fixed pool membership, so a
        #: machine removed from the registry and later re-registered can
        #: be restored to its slot in the order.
        self._slots: Dict[str, Tuple[int, int]] = {
            name: (tier_of(idx), idx) for idx, name in enumerate(cache)
        }
        #: query class key -> maintained order, LRU by last use.  Only
        #: populated for objectives that declare ``query_class``.
        self._classes: "OrderedDict[Hashable, _RankOrder]" = OrderedDict()
        # Exclusive hold (the registry lock, or the shard-service
        # client's operation lock) serialises the build against
        # concurrent record changes; subscribing inside the same hold
        # means no change can slip between build and subscription.
        with database.exclusive():
            with self._mutex:
                self._base = _RankOrder(
                    lambda record: objective.rank_key(record, None),
                    database, self._slots)
                database.subscribe(self._slots, self._on_record_change)

    # -- maintenance ----------------------------------------------------------

    @property
    def rekeys(self) -> int:
        """Base-order re-keys (monitoring refreshes, allocation bumps)."""
        return self._base.rekeys

    @property
    def class_rekeys(self) -> int:
        """Re-keys across the cached query-class orders."""
        return sum(order.rekeys for order in self._classes.values())

    @property
    def cached_query_classes(self) -> int:
        return len(self._classes)

    def _on_record_change(self, name: str,
                          record: Optional[MachineRecord]) -> None:
        """Subscription callback: re-rank ``name`` in every maintained
        order.

        Runs under the owning registry/shard lock (listeners are invoked
        inside it); the scheduler mutex additionally serialises it
        against listeners firing from *other* shards and against builds.
        The subscription map guarantees ``name`` is one of ours.
        """
        slot = self._slots.get(name)
        if slot is None:
            return  # not ours (broadcast-style forwarders); discard
        with self._mutex:
            self._base.on_change(name, slot, record)
            for order in self._classes.values():
                order.on_change(name, slot, record)

    def close(self) -> None:
        """Detach from the database (pool destroyed or split)."""
        self.database.unsubscribe(self._slots, self._on_record_change)
        with self._mutex:
            self._classes.clear()

    # -- query-class routing --------------------------------------------------

    def supports_query(self, query: Optional["Query"]) -> bool:
        """Can some maintained order answer this query's ranking?

        Always true for query-insensitive objectives; query-sensitive
        ones need a declared ``query_class`` decomposition.
        """
        if query is None or not self.objective.query_sensitive:
            return True
        return self.objective.query_class is not None

    def _order_for(self, query: Optional["Query"]) -> _RankOrder:
        if query is None or not self.objective.query_sensitive:
            return self._base
        class_fn = self.objective.query_class
        if class_fn is None:  # callers gate on supports_query
            raise LookupError(
                f"objective {self.objective.name!r} declares no query_class")
        key = class_fn(query)
        if key is None:
            # The query carries no class-relevant clauses: the objective
            # ranks it exactly like query=None.
            return self._base
        with self._mutex:
            order = self._classes.get(key)
            if order is not None:
                self._classes.move_to_end(key)
                return order
        # Build outside the mutex-first path: a build reads records, so
        # it must take the registry hold *before* the mutex to keep the
        # global lock order (shard locks, then scheduler mutex).
        with self.database.exclusive():
            with self._mutex:
                order = self._classes.get(key)
                if order is not None:
                    self._classes.move_to_end(key)
                    return order
                order = _RankOrder(
                    lambda record: self.objective.rank_key(record, query),
                    self.database, self._slots)
                self._classes[key] = order
                while len(self._classes) > self.max_query_classes:
                    self._classes.popitem(last=False)
                return order

    # -- order ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._base.entries)

    def iter_order(self, query: Optional["Query"] = None
                   ) -> Iterator[Tuple[int, str]]:
        """Lazily yield ``(cache_index, name)`` in scheduling order for
        ``query``'s class (base order when ``query`` is None or the
        objective ignores queries)."""
        return self._order_for(query).iter_order(self._mutex)

    def order(self, query: Optional["Query"] = None
              ) -> List[Tuple[int, str]]:
        """The full scheduling order (``scan_order``-compatible).

        Callers get a copy so they can never corrupt the published
        snapshot.
        """
        return list(self._order_for(query).snapshot(self._mutex))
