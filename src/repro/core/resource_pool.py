"""Resource pools: dynamically created active objects (Section 5.2.3).

A pool aggregates machines matching the criteria encoded in its name and
answers queries with an allocated machine.  This module is *pure logic* —
no transport, no clock — so the identical class backs three deployments:

- the in-process :class:`~repro.core.pipeline.ActYPService` facade,
- the DES deployment (:mod:`repro.deploy.simulated`), which charges the
  configured service times around these calls, and
- the asyncio live runtime (:mod:`repro.runtime`).

Lifecycle, following the paper:

1. ``initialize()`` — "walks the 'white pages' database for machines that
   match the criteria encoded within its name", loads them into a local
   cache, and "marks them as taken within the main database".  The walk
   executes the exemplar query's compiled plan
   (:func:`repro.core.plan.compile_plan`) against the database's
   attribute indexes, so it scales with the number of *matching*
   machines, not the database size.
2. Registration with the local directory service is the *caller's* job
   (the pool manager created us and owns the directory).
3. ``select_machine()`` / ``allocate()`` — scheduling processes "sort
   machines within the object's cache using specified criteria" and answer
   queries.  Linear scan by default; the paper's Figure 6 curves "are
   simply a function of the linear search algorithms employed".  Behind
   ``ResourcePoolConfig.linear_scan=False`` the same calls are served by
   an :class:`~repro.core.scheduler.IndexedPoolScheduler` — the cache is
   kept permanently in (bias tier, objective key, index) order and only
   re-keyed for the machine whose record changed — with selection
   semantics identical to the linear walk.
4. ``release()`` — the network desktop relinquishes resources when a run
   completes.

Replication (Figure 8): "scheduling integrity is maintained by introducing
an instance-specific bias (e.g., instance 'i' of a given pool 'prefers'
every 'i'th machine in the pool)" — implemented in :meth:`_bias_tier`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import QueryPlan, compile_plan, machine_admissible
from repro.core.query import Allocation, Query
from repro.core.scheduler import IndexedPoolScheduler
from repro.core.scheduling import SchedulingObjective, get_objective
from repro.core.signature import PoolName
from repro.config import ResourcePoolConfig
from repro.database.policy import PolicyRegistry
from repro.database.records import MachineRecord
from repro.database.shadow import ShadowAccount, ShadowAccountRegistry
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import NoResourceAvailableError, PoolCreationError

__all__ = ["ResourcePool", "ActiveRun"]


@dataclass(frozen=True)
class ActiveRun:
    """Book-keeping for one allocation until the desktop releases it."""

    access_key: str
    machine_name: str
    shadow_username: Optional[str]
    query_id: int
    allocated_at: float
    shadow_account: Optional["ShadowAccount"] = None


class ResourcePool:
    """One instance of a resource pool.

    Parameters
    ----------
    name:
        The pool's signature+identifier name.
    database:
        The white-pages database to walk at initialisation — a plain
        :class:`WhitePagesDatabase` or the shard service
        (:class:`~repro.database.service.ShardServiceClient`); the pool
        only uses the duck-typed surface shared by both.
    instance_number:
        This replica's number (0-based).
    replica_count:
        Total number of replicas sharing the pool name; together with
        ``instance_number`` this sets the selection bias.
    config:
        Objective, scheduler process count, scan mode.
    shadow_registry / policy_registry:
        Optional; when present, allocation claims shadow accounts and
        enforces per-machine usage policies.
    """

    def __init__(
        self,
        name: PoolName,
        database: WhitePagesDatabase,
        *,
        instance_number: int = 0,
        replica_count: int = 1,
        config: Optional[ResourcePoolConfig] = None,
        shadow_registry: Optional[ShadowAccountRegistry] = None,
        policy_registry: Optional[PolicyRegistry] = None,
        exemplar_query: Optional[Query] = None,
    ):
        if replica_count < 1 or not (0 <= instance_number):
            raise PoolCreationError(
                f"bad replica numbering {instance_number}/{replica_count}"
            )
        self.name = name
        self.database = database
        self.instance_number = instance_number
        self.replica_count = replica_count
        self.config = (config or ResourcePoolConfig()).validated()
        self.objective: SchedulingObjective = get_objective(self.config.objective)
        self.shadow_registry = shadow_registry
        self.policy_registry = policy_registry
        #: The query whose rsrc clauses encode this pool's criteria.  Pools
        #: are created in response to a concrete query (Section 5.2.2), so
        #: the exemplar is how the membership constraint is evaluated.
        self.exemplar_query = exemplar_query
        #: The membership constraint compiled once, executed against the
        #: white pages' attribute indexes on every walk.
        self.plan: QueryPlan = compile_plan(exemplar_query)
        self._cache: List[str] = []        # machine names, stable order
        #: Indexed in-pool scheduler (``linear_scan=False``); attached at
        #: initialisation, detached on destroy/split.
        self._scheduler: Optional[IndexedPoolScheduler] = None
        self._runs: Dict[str, ActiveRun] = {}
        self._initialized = False
        self.queries_served = 0
        self.allocation_failures = 0
        #: Simulated/wall time of the last allocate or release; drives
        #: idle-pool reclamation (see :class:`PoolJanitor`).
        self.last_activity: float = 0.0

    # -- lifecycle -----------------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self._initialized

    @property
    def size(self) -> int:
        return len(self._cache)

    @property
    def cache(self) -> Tuple[str, ...]:
        return tuple(self._cache)

    @property
    def active_runs(self) -> int:
        return len(self._runs)

    def initialize(self, *, max_machines: Optional[int] = None) -> int:
        """Walk the white pages, take matching machines into the cache.

        Returns the number of machines aggregated.  Raises
        :class:`PoolCreationError` when called twice.  A pool that
        aggregates zero machines is legal here; the pool *manager* treats
        that as creation failure and falls back to delegation.
        """
        if self._initialized:
            raise PoolCreationError(f"pool {self.name} already initialized")
        matches = self.database.match(self.plan)
        names = [m.machine_name for m in matches]
        if max_machines is not None:
            names = names[:max_machines]
        taken = self.database.take_all(names, self.name.full)
        self._cache = list(taken)
        self._initialized = True
        self._attach_scheduler()
        return len(self._cache)

    def adopt(self, machine_names: Sequence[str]) -> int:
        """Directly take a given machine list (used by split/rebalance)."""
        if self._initialized:
            raise PoolCreationError(f"pool {self.name} already initialized")
        taken = self.database.take_all(machine_names, self.name.full)
        self._cache = list(taken)
        self._initialized = True
        self._attach_scheduler()
        return len(self._cache)

    def destroy(self) -> int:
        """Release every cached machine back to the white pages."""
        released = self.database.release_pool(self.name.full)
        self._cache.clear()
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
        self._initialized = False
        return released

    def _attach_scheduler(self) -> None:
        if not self.config.linear_scan:
            self._scheduler = IndexedPoolScheduler(
                self.database, self._cache, self.objective,
                tier_of=self._bias_tier,
                max_query_classes=self.config.max_query_classes)

    # -- scheduling -----------------------------------------------------------------

    def _bias_tier(self, index: int) -> int:
        """Replica bias: 0 for "our" machines, 1 for the rest."""
        if self.replica_count <= 1:
            return 0
        return 0 if index % self.replica_count == \
            self.instance_number % self.replica_count else 1

    def _admissible(self, record: MachineRecord, query: Query) -> bool:
        # The shared engine check (health, services, load ceiling, access
        # groups, tool groups, usage policy) — identical for every
        # deployment and baseline.
        return machine_admissible(record, query,
                                  policy_registry=self.policy_registry)

    def _indexed_usable(self, query: Optional[Query]) -> bool:
        """Can the maintained rank index answer this query's ordering?

        Query-insensitive objectives are always indexable.  A
        query-sensitive objective (predicted-footprint placement) is
        indexable when it declares a ``query_class`` decomposition — the
        scheduler then serves it from a per-query-class rank cache; one
        without the decomposition falls back to the linear walk whenever
        a query is present, since the base order (keyed ``query=None``)
        would change selection semantics.
        """
        return self._scheduler is not None \
            and self._scheduler.supports_query(query)

    def _linear_order(self, query: Optional[Query]) -> List[Tuple[int, str]]:
        """The paper's linear scan: every call touches the whole cache,
        which is what gives Figure 6 its linear response-time growth."""
        keyed = []
        for idx, name in enumerate(self._cache):
            record = self.database.get(name)
            keyed.append(
                (self._bias_tier(idx), self.objective.rank_key(record, query),
                 idx, name)
            )
        keyed.sort(key=lambda t: (t[0], t[1], t[2]))
        return [(idx, name) for _tier, _key, idx, name in keyed]

    def scan_order(self, query: Optional[Query] = None) -> List[Tuple[int, str]]:
        """Cache indices+names in scheduling order (bias tier, objective).

        Linear mode re-sorts the cache per call (the Figure 6 cost);
        indexed mode reads the incrementally-maintained order.
        """
        if self._indexed_usable(query):
            return self._scheduler.order(query)
        return self._linear_order(query)

    def _iter_order(self, query: Optional[Query]):
        """Scheduling order as an iterator; lazy in indexed mode so
        selection stops at the first admissible machine."""
        if self._indexed_usable(query):
            return self._scheduler.iter_order(query)
        return iter(self._linear_order(query))

    def _select(self, query: Query,
                exclude: Optional[Sequence[str]] = None,
                order: Optional[Sequence[Tuple[int, str]]] = None
                ) -> Optional[MachineRecord]:
        excluded = set(exclude) if exclude else ()
        for _idx, name in (order if order is not None
                           else self._iter_order(query)):
            if name in excluded:
                continue
            record = self.database.get(name)
            if self._admissible(record, query):
                return record
        return None

    def select_machine(self, query: Query,
                       exclude: Optional[Sequence[str]] = None
                       ) -> Optional[MachineRecord]:
        """Best admissible machine for ``query``, or None.

        ``exclude`` names machines to skip (used by co-allocation to keep
        the batch on distinct hosts).
        """
        return self._select(query, exclude)

    # -- allocation -----------------------------------------------------------------

    def allocate(self, query: Query, now: float = 0.0,
                 exclude: Optional[Sequence[str]] = None, *,
                 _order: Optional[Sequence[Tuple[int, str]]] = None
                 ) -> Allocation:
        """Select a machine, claim a shadow account, mint an access key.

        The machine's dynamic load/job fields are bumped so subsequent
        selections see the placement (the monitor will later re-measure).
        Raises :class:`NoResourceAvailableError` when no admissible
        machine exists.  ``_order`` is the co-allocation fast path: a
        scheduling order the caller already computed (valid because the
        only records that change during a batch are the batch's own
        allocations, which are excluded anyway).
        """
        self.queries_served += 1
        self.last_activity = max(self.last_activity, now)
        record = self._select(query, exclude, order=_order)
        if record is None:
            self.allocation_failures += 1
            raise NoResourceAvailableError(
                f"pool {self.name} ({self.size} machines) has no admissible "
                f"machine for query {query.query_id}"
            )
        access_key = secrets.token_hex(16)
        shadow_username: Optional[str] = None
        shadow_account: Optional[ShadowAccount] = None
        if record.shared_account is not None:
            # Short "safe" jobs run in the shared account (Section 4.1 fn 3).
            shadow_username = record.shared_account
        elif self.shadow_registry is not None:
            pool = self.shadow_registry.ensure_pool(record.machine_name)
            shadow_account = pool.allocate(access_key)
            shadow_username = shadow_account.username
        self.database.update_dynamic(
            record.machine_name,
            current_load=record.current_load + 1.0 / record.num_cpus,
            active_jobs=record.active_jobs + 1,
        )
        self._runs[access_key] = ActiveRun(
            access_key=access_key,
            machine_name=record.machine_name,
            shadow_username=shadow_username,
            query_id=query.query_id,
            allocated_at=now,
            shadow_account=shadow_account,
        )
        return Allocation(
            machine_name=record.machine_name,
            address=record.machine_name,
            execution_unit_port=record.execution_unit_port,
            access_key=access_key,
            shadow_account=shadow_username,
            pool_name=self.name.full,
            pool_instance=self.instance_number,
        )

    def is_idle(self, now: float, idle_timeout_s: float) -> bool:
        """No active runs and no activity for ``idle_timeout_s``."""
        return not self._runs and (now - self.last_activity) >= idle_timeout_s

    def allocate_many(self, query: Query, count: int, now: float = 0.0
                      ) -> List[Allocation]:
        """Co-allocation extension: claim ``count`` distinct machines
        atomically (all-or-nothing).

        The paper's prototype did not support co-allocation (Section 8
        contrasts with Globus); this implements it at the pool level so
        parallel jobs can be placed.  On failure nothing is held.
        """
        if count < 1:
            raise NoResourceAvailableError(f"co-allocation count {count} < 1")
        # Hoist the order computation out of the per-count loop: within a
        # batch, the only records that change are the batch's own
        # allocations, and those are excluded from later picks — so one
        # order, walked with a fresh admissibility check per pick, selects
        # exactly the machines a per-pick recomputation would.  (Indexed
        # mode maintains its order incrementally; nothing to hoist.)
        order = None if self._indexed_usable(query) else self.scan_order(query)
        allocations: List[Allocation] = []
        try:
            for _ in range(count):
                allocations.append(self.allocate(
                    query, now=now,
                    exclude=[a.machine_name for a in allocations],
                    _order=order))
        except NoResourceAvailableError:
            for alloc in allocations:
                self.release(alloc.access_key)
            raise NoResourceAvailableError(
                f"pool {self.name} could not co-allocate {count} machines "
                f"({len(allocations)} available)"
            )
        return allocations

    def release(self, access_key: str) -> None:
        """Return the machine and shadow account of a completed run."""
        run = self._runs.pop(access_key, None)
        if run is None:
            raise NoResourceAvailableError(
                f"unknown access key for release in pool {self.name}"
            )
        record = self.database.get(run.machine_name)
        self.database.update_dynamic(
            run.machine_name,
            current_load=max(0.0, record.current_load - 1.0 / record.num_cpus),
            active_jobs=max(0, record.active_jobs - 1),
        )
        if self.shadow_registry is not None and run.shadow_account is not None:
            pool = self.shadow_registry.pool_for(run.machine_name)
            pool.release(run.shadow_account, access_key)

    # -- splitting (Figure 7) -----------------------------------------------------------

    def split(self, parts: int) -> List["ResourcePool"]:
        """Split this pool into ``parts`` fragments of ~equal size.

        The fragments share our name's signature but extend the identifier
        with a fragment tag; machines are handed over round-robin so load
        heterogeneity spreads evenly.  This pool is destroyed.
        """
        if parts < 2:
            raise PoolCreationError(f"split needs parts >= 2, got {parts}")
        if not self._initialized:
            raise PoolCreationError("cannot split an uninitialized pool")
        if self._runs:
            raise PoolCreationError("cannot split a pool with active runs")
        shards: List[List[str]] = [[] for _ in range(parts)]
        for i, machine in enumerate(self._cache):
            shards[i % parts].append(machine)
        self.destroy()
        fragments: List[ResourcePool] = []
        for i, shard in enumerate(shards):
            frag_name = PoolName(
                signature=self.name.signature,
                identifier=f"{self.name.identifier}#frag{i}of{parts}",
            )
            frag = ResourcePool(
                frag_name, self.database,
                instance_number=0, replica_count=1,
                config=self.config,
                shadow_registry=self.shadow_registry,
                policy_registry=self.policy_registry,
                exemplar_query=self.exemplar_query,
            )
            frag.adopt(shard)
            fragments.append(frag)
        return fragments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResourcePool({self.name.full!r}, "
                f"instance={self.instance_number}/{self.replica_count}, "
                f"size={self.size})")
