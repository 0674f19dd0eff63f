"""Property tests: every indexed fast path must equal its linear oracle
under randomized interleavings of mutations.

- ``match(plan)`` vs brute-force ``scan(predicate)``: the attribute
  indexes are only correct if every mutation path — ``add`` / ``remove``
  / ``take`` / ``release`` / ``update_dynamic`` / ``update`` — keeps
  them exactly in sync with the record map.  This holds for single-path
  plans, forced multi-index intersection, and catalogs restored from a
  snapshot (whose postings materialise lazily).
- indexed in-pool scheduling (``linear_scan=False``) vs the paper's
  linear walk: the same machine sequence under randomized
  allocate/release/update interleavings.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ResourcePoolConfig
from repro.core.operators import Op, RangeValue
from repro.core.plan import compile_plan
from repro.core.query import Clause, Query
from repro.core.resource_pool import ResourcePool
from repro.core.signature import PoolName
from repro.database.fields import MachineState
from repro.database.records import MachineRecord, ServiceStatusFlags
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import NoResourceAvailableError

from tests.conftest import linear_oracle

_ARCHES = ("sun", "hp", "x86", "vax")
_OSES = ("solaris", "hpux", "linux")
_CMS = ("sge", "pbs", "condor", "sge,pbs", "pbs,condor", "")
_MEMORIES = ("64", "128", "256", "512", "128,256", "not-a-number", "nan",
             "inf")
_NAMES = tuple(f"m{i:02d}" for i in range(12))


def _record(name: str, arch: str, memory: str, cms: str, load: float,
            state_up: bool) -> MachineRecord:
    params = {"arch": arch, "ostype": _OSES[hash(arch) % len(_OSES)],
              "memory": memory}
    if cms:
        params["cms"] = cms
    return MachineRecord(
        machine_name=name,
        state=MachineState.UP if state_up else MachineState.DOWN,
        current_load=load,
        admin_parameters=params,
    )


_records = st.builds(
    _record,
    name=st.sampled_from(_NAMES),
    arch=st.sampled_from(_ARCHES),
    memory=st.sampled_from(_MEMORIES),
    cms=st.sampled_from(_CMS),
    load=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    state_up=st.booleans(),
)

_ops = st.one_of(
    st.tuples(st.just("add"), _records),
    st.tuples(st.just("remove"), st.sampled_from(_NAMES)),
    st.tuples(st.just("take"), st.sampled_from(_NAMES),
              st.sampled_from(("poolA", "poolB"))),
    st.tuples(st.just("release"), st.sampled_from(_NAMES),
              st.sampled_from(("poolA", "poolB"))),
    st.tuples(st.just("update_dynamic"), st.sampled_from(_NAMES),
              st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
              st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("update"), _records),
)


@st.composite
def _queries(draw) -> Query:
    clauses = []
    n = draw(st.integers(min_value=1, max_value=3))
    # "gpus" is an attribute no machine carries: a numeric clause on it
    # must match nothing on either path.
    keys = draw(st.permutations(
        ("arch", "memory", "cms", "load", "freememory", "state", "gpus"))
    )[:n]
    for key in keys:
        if key in ("load", "freememory", "memory", "gpus"):
            op = draw(st.sampled_from(
                [Op.EQ, Op.NE, Op.GE, Op.LE, Op.GT, Op.LT, Op.RANGE]))
            if op is Op.RANGE:
                lo = draw(st.integers(min_value=0, max_value=512))
                span = draw(st.integers(min_value=0, max_value=512))
                value = RangeValue(float(lo), float(lo + span))
            elif key == "memory" and op is Op.EQ and draw(st.booleans()):
                value = draw(st.sampled_from(_MEMORIES))
            else:
                value = float(draw(st.integers(min_value=0, max_value=600)))
                if draw(st.booleans()):
                    # The language compares loosely: "256" >= 128.
                    value = str(int(value))
        elif key == "state":
            op = draw(st.sampled_from([Op.EQ, Op.NE]))
            value = draw(st.sampled_from(("up", "down")))
        else:
            op = draw(st.sampled_from([Op.EQ, Op.NE]))
            value = draw(st.sampled_from(
                _ARCHES + ("sge", "pbs", "SGE,PBS",
                           draw(st.text(alphabet=string.ascii_lowercase,
                                        min_size=1, max_size=4)))))
        clauses.append(Clause("punch", "rsrc", key, op, value))
    return Query(clauses=tuple(clauses))


def _apply(db: WhitePagesDatabase, op) -> None:
    kind = op[0]
    try:
        if kind == "add":
            db.add(op[1])
        elif kind == "remove":
            db.remove(op[1])
        elif kind == "take":
            db.take(op[1], op[2])
        elif kind == "release":
            db.release(op[1], op[2])
        elif kind == "update_dynamic":
            db.update_dynamic(op[1], current_load=op[2], active_jobs=op[3])
        elif kind == "update":
            db.update(op[1])
    except Exception:
        # Duplicate adds, unknown names, wrong-holder releases: legal
        # error paths; the invariant below must hold regardless.
        pass


class TestIndexConsistency:
    @settings(max_examples=120, deadline=None)
    @given(
        initial=st.lists(_records, max_size=8,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=30),
        query=_queries(),
        include_taken=st.booleans(),
    )
    def test_match_equals_bruteforce_scan(self, initial, ops, query,
                                          include_taken):
        db = WhitePagesDatabase(initial)
        for op in ops:
            _apply(db, op)
        plan = compile_plan(query)
        got = [r.machine_name
               for r in db.match(plan, include_taken=include_taken)]
        oracle = [r.machine_name
                  for r in linear_oracle(db, query.matches_machine,
                                         include_taken=include_taken)]
        assert got == oracle

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(_records, max_size=8,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=30),
    )
    def test_free_set_and_sorted_view_invariants(self, initial, ops):
        db = WhitePagesDatabase(initial)
        for op in ops:
            _apply(db, op)
        names = db.names()
        assert names == sorted(names)
        free = db.free_names()
        taken = {n for n in names if db.holder_of(n) is not None}
        assert free | taken == set(names)
        assert not (free & taken)
        assert db.taken_count() == len(taken)

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(_records, max_size=8,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=30),
        query=_queries(),
        include_taken=st.booleans(),
    )
    def test_forced_intersection_equals_bruteforce_scan(
            self, initial, ops, query, include_taken):
        """Multi-index intersection must stay an exact implementation
        detail: cranking the cutoff so every probe intersects (and, in a
        second pass, forcing the single-path planner) may never change
        ``match()``'s answer."""
        db = WhitePagesDatabase(initial)
        for op in ops:
            _apply(db, op)
        plan = compile_plan(query)
        oracle = [r.machine_name
                  for r in linear_oracle(db, query.matches_machine,
                                         include_taken=include_taken)]
        db.intersect_max_paths = 8
        db.intersect_ratio = float("inf")
        forced = [r.machine_name
                  for r in db.match(plan, include_taken=include_taken)]
        db.intersect_max_paths = 1
        single = [r.machine_name
                  for r in db.match(plan, include_taken=include_taken)]
        assert forced == oracle
        assert single == oracle

    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.lists(_records, max_size=8,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=20),
        post_ops=st.lists(_ops, max_size=20),
        query=_queries(),
    )
    def test_snapshot_restored_catalog_stays_consistent(
            self, initial, ops, post_ops, query):
        """A catalog restored from a snapshot (lazy postings, frozen
        sorted arrays) must stay oracle-equal through further mutations,
        which force the lazy structures to materialise."""
        from repro.database.persistence import dumps_database, loads_database
        db = WhitePagesDatabase(initial)
        for op in ops:
            _apply(db, op)
        restored = loads_database(dumps_database(db))
        for op in post_ops:
            _apply(restored, op)
        plan = compile_plan(query)
        got = [r.machine_name
               for r in restored.match(plan, include_taken=True)]
        oracle = [r.machine_name
                  for r in linear_oracle(restored, query.matches_machine,
                                         include_taken=True)]
        assert got == oracle

    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.lists(_records, min_size=1, max_size=8,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=20),
        flags_down=st.booleans(),
    )
    def test_service_flag_updates_stay_consistent(self, initial, ops,
                                                  flags_down):
        db = WhitePagesDatabase(initial)
        for op in ops:
            _apply(db, op)
        assume(len(db) > 0)  # the op mix may remove every machine
        name = db.names()[0]
        db.update_dynamic(name, service_status_flags=ServiceStatusFlags(
            execution_unit_up=not flags_down))
        query = Query(clauses=(
            Clause("punch", "rsrc", "arch", Op.EQ,
                   db.get(name).parameter("arch")),
        ))
        plan = compile_plan(query)
        got = [r.machine_name for r in db.match(plan, include_taken=True)]
        oracle = [r.machine_name
                  for r in linear_oracle(db, query.matches_machine,
                                         include_taken=True)]
        assert got == oracle


# ---------------------------------------------------------------------------
# Indexed in-pool scheduler vs the paper's linear walk
# ---------------------------------------------------------------------------

_POOL_QUERY = Query(clauses=(
    Clause("punch", "rsrc", "arch", Op.EQ, "sun"),
))
_POOL_MACHINES = tuple(f"pm{i:02d}" for i in range(10))

#: One step of a pool workload: allocate, release the k-th oldest run,
#: or a monitoring refresh of one machine's dynamic fields.
_pool_ops = st.one_of(
    st.tuples(st.just("alloc")),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("update"), st.sampled_from(_POOL_MACHINES),
              st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
              st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("flags"), st.sampled_from(_POOL_MACHINES),
              st.booleans()),
)


def _pool_fixture(linear: bool, objective: str,
                  replica_count: int) -> tuple:
    db = WhitePagesDatabase([
        MachineRecord(
            machine_name=name,
            current_load=float(i % 3),
            available_memory_mb=float(128 << (i % 4)),
            num_cpus=1 + i % 2,
            admin_parameters={"arch": "sun"},
        )
        for i, name in enumerate(_POOL_MACHINES)
    ])
    pool = ResourcePool(
        PoolName(signature="sig", identifier="equiv"), db,
        instance_number=0, replica_count=replica_count,
        config=ResourcePoolConfig(objective=objective, linear_scan=linear),
        exemplar_query=_POOL_QUERY,
    )
    pool.initialize()
    return db, pool


class TestIndexedPoolSchedulerEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(_pool_ops, max_size=40),
        objective=st.sampled_from(("least_load", "most_memory",
                                   "fastest", "least_jobs")),
        replica_count=st.sampled_from((1, 2, 3)),
    )
    def test_same_machine_sequence_as_linear(self, ops, objective,
                                             replica_count):
        """``linear_scan=False`` must pick exactly the machines the
        linear walk picks, step for step, under interleaved
        allocate/release/update — and the maintained order must equal a
        from-scratch recomputation after every step."""
        db_lin, pool_lin = _pool_fixture(True, objective, replica_count)
        db_idx, pool_idx = _pool_fixture(False, objective, replica_count)
        keys_lin, keys_idx = [], []
        for op in ops:
            if op[0] == "alloc":
                try:
                    a_lin = pool_lin.allocate(_POOL_QUERY)
                except NoResourceAvailableError:
                    with pytest.raises(NoResourceAvailableError):
                        pool_idx.allocate(_POOL_QUERY)
                    continue
                a_idx = pool_idx.allocate(_POOL_QUERY)
                assert a_lin.machine_name == a_idx.machine_name
                keys_lin.append(a_lin.access_key)
                keys_idx.append(a_idx.access_key)
            elif op[0] == "release":
                if not keys_lin:
                    continue
                i = op[1] % len(keys_lin)
                pool_lin.release(keys_lin.pop(i))
                pool_idx.release(keys_idx.pop(i))
            elif op[0] == "update":
                _kind, name, load, jobs = op
                db_lin.update_dynamic(name, current_load=load,
                                      active_jobs=jobs)
                db_idx.update_dynamic(name, current_load=load,
                                      active_jobs=jobs)
            else:  # flags
                flags = ServiceStatusFlags(execution_unit_up=op[2])
                db_lin.update_dynamic(op[1], service_status_flags=flags)
                db_idx.update_dynamic(op[1], service_status_flags=flags)
            assert pool_idx.scan_order(_POOL_QUERY) == \
                pool_lin.scan_order(_POOL_QUERY)

    def test_coallocation_sequence_matches(self):
        db_lin, pool_lin = _pool_fixture(True, "least_load", 2)
        db_idx, pool_idx = _pool_fixture(False, "least_load", 2)
        batch_lin = pool_lin.allocate_many(_POOL_QUERY, 6)
        batch_idx = pool_idx.allocate_many(_POOL_QUERY, 6)
        assert [a.machine_name for a in batch_lin] == \
            [a.machine_name for a in batch_idx]

    def test_query_sensitive_objective_uses_class_cache(self):
        """best_fit_memory ranks per query; the indexed pool serves it
        from a per-query-class rank cache and must agree with linear
        mode."""
        query = Query(clauses=(
            Clause("punch", "rsrc", "arch", Op.EQ, "sun"),
            Clause("punch", "appl", "expectedmemoryuse", Op.EQ, 200.0),
        ))
        db_lin, pool_lin = _pool_fixture(True, "best_fit_memory", 1)
        db_idx, pool_idx = _pool_fixture(False, "best_fit_memory", 1)
        assert pool_idx._indexed_usable(query)
        assert pool_idx.scan_order(query) == pool_lin.scan_order(query)
        assert pool_idx._scheduler.cached_query_classes == 1
        assert pool_idx.allocate(query).machine_name == \
            pool_lin.allocate(query).machine_name

    def test_query_sensitive_without_class_falls_back_to_linear(self):
        """A query-sensitive objective that declares no query_class
        decomposition must keep the pre-cache fallback semantics."""
        from repro.core.scheduling import (SchedulingObjective,
                                           register_objective, _REGISTRY)
        name = "_test_opaque_sensitive"
        if name not in _REGISTRY:
            register_objective(SchedulingObjective(
                name, lambda record, query: (record.current_load,),
                query_sensitive=True))
        query = Query(clauses=(
            Clause("punch", "rsrc", "arch", Op.EQ, "sun"),
        ))
        db_idx, pool_idx = _pool_fixture(False, name, 1)
        db_lin, pool_lin = _pool_fixture(True, name, 1)
        assert not pool_idx._indexed_usable(query)
        assert pool_idx._indexed_usable(None)
        assert pool_idx.scan_order(query) == pool_lin.scan_order(query)

    def test_destroy_detaches_listener(self):
        db, pool = _pool_fixture(False, "least_load", 1)
        stats = db.listener_stats()
        assert stats["subscribed_machines"] == len(_POOL_MACHINES)
        assert stats["subscription_entries"] == len(_POOL_MACHINES)
        pool.destroy()
        stats = db.listener_stats()
        assert stats["subscribed_machines"] == 0
        assert stats["subscription_entries"] == 0

    def test_removed_then_readded_machine_rejoins_order(self):
        """A cached machine deleted from the registry drops out of the
        indexed order, and must return to its original slot when the
        administrator re-registers it."""
        db_lin, pool_lin = _pool_fixture(True, "least_load", 2)
        db_idx, pool_idx = _pool_fixture(False, "least_load", 2)
        victim = pool_idx.cache[3]
        rec_lin = db_lin.remove(victim)
        rec_idx = db_idx.remove(victim)
        assert victim not in {n for _i, n in pool_idx.scan_order()}
        db_lin.add(rec_lin)
        db_idx.add(rec_idx)
        assert pool_idx.scan_order(_POOL_QUERY) == \
            pool_lin.scan_order(_POOL_QUERY)
        # And it keeps re-ranking afterwards.
        db_lin.update_dynamic(victim, current_load=0.0)
        db_idx.update_dynamic(victim, current_load=0.0)
        assert pool_idx.scan_order(_POOL_QUERY) == \
            pool_lin.scan_order(_POOL_QUERY)


# ---------------------------------------------------------------------------
# Query-class rank caches vs the linear walk
# ---------------------------------------------------------------------------

#: A small palette of predicted footprints / CPU estimates — few enough
#: that classes are reused (cache hits), many enough to exercise the
#: MAX_QUERY_CLASSES LRU eviction.
_FOOTPRINTS = tuple(float(64 * (i + 1)) for i in range(12))


def _classed_query(objective: str, value: float) -> Query:
    if objective == "best_fit_memory":
        appl = Clause("punch", "appl", "expectedmemoryuse", Op.EQ, value)
    else:
        appl = Clause("punch", "appl", "expectedcpuuse", Op.EQ, value)
    return Query(clauses=(
        Clause("punch", "rsrc", "arch", Op.EQ, "sun"), appl))


_classed_ops = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from(_FOOTPRINTS)),
    st.tuples(st.just("alloc_plain")),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("update"), st.sampled_from(_POOL_MACHINES),
              st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
              st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("memory"), st.sampled_from(_POOL_MACHINES),
              st.sampled_from(_FOOTPRINTS)),
)


class TestQueryClassRankCacheEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(_classed_ops, max_size=40),
        objective=st.sampled_from(("best_fit_memory", "min_response_time")),
        replica_count=st.sampled_from((1, 2)),
    )
    def test_same_machine_sequence_as_linear(self, ops, objective,
                                             replica_count):
        """Query-sensitive objectives served from the per-query-class
        rank caches must pick exactly the machines the linear walk
        picks, step for step, across interleaved query classes and
        record changes (including LRU eviction and rebuild)."""
        db_lin, pool_lin = _pool_fixture(True, objective, replica_count)
        db_idx, pool_idx = _pool_fixture(False, objective, replica_count)
        keys_lin, keys_idx = [], []
        last_query = _classed_query(objective, _FOOTPRINTS[0])
        for op in ops:
            if op[0] in ("alloc", "alloc_plain"):
                query = (_classed_query(objective, op[1])
                         if op[0] == "alloc" else _POOL_QUERY)
                last_query = query
                try:
                    a_lin = pool_lin.allocate(query)
                except NoResourceAvailableError:
                    with pytest.raises(NoResourceAvailableError):
                        pool_idx.allocate(query)
                    continue
                a_idx = pool_idx.allocate(query)
                assert a_lin.machine_name == a_idx.machine_name
                keys_lin.append(a_lin.access_key)
                keys_idx.append(a_idx.access_key)
            elif op[0] == "release":
                if not keys_lin:
                    continue
                i = op[1] % len(keys_lin)
                pool_lin.release(keys_lin.pop(i))
                pool_idx.release(keys_idx.pop(i))
            elif op[0] == "update":
                _kind, name, load, jobs = op
                db_lin.update_dynamic(name, current_load=load,
                                      active_jobs=jobs)
                db_idx.update_dynamic(name, current_load=load,
                                      active_jobs=jobs)
            else:  # memory refresh: re-ranks the class caches
                db_lin.update_dynamic(op[1], available_memory_mb=op[2])
                db_idx.update_dynamic(op[1], available_memory_mb=op[2])
            assert pool_idx.scan_order(last_query) == \
                pool_lin.scan_order(last_query)

    def test_class_cache_is_bounded_lru(self):
        from repro.core.scheduler import MAX_QUERY_CLASSES
        db_idx, pool_idx = _pool_fixture(False, "best_fit_memory", 1)
        db_lin, pool_lin = _pool_fixture(True, "best_fit_memory", 1)
        for value in _FOOTPRINTS:
            q = _classed_query("best_fit_memory", value)
            assert pool_idx.scan_order(q) == pool_lin.scan_order(q)
        assert pool_idx._scheduler.cached_query_classes <= MAX_QUERY_CLASSES
        # An evicted class rebuilds and still answers correctly.
        q0 = _classed_query("best_fit_memory", _FOOTPRINTS[0])
        assert pool_idx.scan_order(q0) == pool_lin.scan_order(q0)

    def test_qualified_estimate_does_not_fragment_classes(self):
        """expectedcpuuse is ignored by _min_response_time when a
        qualified cpuestimate is present, so varying it must not mint
        new rank-cache classes (LRU thrash on identical orders)."""
        db_idx, pool_idx = _pool_fixture(False, "min_response_time", 1)
        db_lin, pool_lin = _pool_fixture(True, "min_response_time", 1)
        for cpu in (100.0, 200.0, 300.0):
            q = Query(clauses=(
                Clause("punch", "rsrc", "arch", Op.EQ, "sun"),
                Clause("punch", "appl", "cpuestimate", Op.EQ, "1000s"),
                Clause("punch", "appl", "expectedcpuuse", Op.EQ, cpu),
            ))
            assert pool_idx.scan_order(q) == pool_lin.scan_order(q)
        assert pool_idx._scheduler.cached_query_classes == 1

    def test_footprintless_query_reuses_base_order(self):
        """A query with no appl clauses ranks exactly like query=None;
        the scheduler must not burn a class-cache slot on it."""
        db_idx, pool_idx = _pool_fixture(False, "best_fit_memory", 1)
        pool_idx.scan_order(_POOL_QUERY)
        assert pool_idx._scheduler.cached_query_classes == 0

    def test_coallocation_with_query_class_matches_linear(self):
        query = _classed_query("best_fit_memory", 200.0)
        db_lin, pool_lin = _pool_fixture(True, "best_fit_memory", 2)
        db_idx, pool_idx = _pool_fixture(False, "best_fit_memory", 2)
        batch_lin = pool_lin.allocate_many(query, 5)
        batch_idx = pool_idx.allocate_many(query, 5)
        assert [a.machine_name for a in batch_lin] == \
            [a.machine_name for a in batch_idx]


# ---------------------------------------------------------------------------
# Listener subscription bookkeeping under pool/machine churn
# ---------------------------------------------------------------------------

_sub_ops = st.one_of(
    st.tuples(st.just("create"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("destroy"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("register"), st.sampled_from(_POOL_MACHINES)),
    st.tuples(st.just("deregister"), st.sampled_from(_POOL_MACHINES)),
    st.tuples(st.just("refresh"), st.sampled_from(_POOL_MACHINES),
              st.floats(min_value=0.0, max_value=6.0, allow_nan=False)),
)


class TestListenerSubscriptionBookkeeping:
    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(_sub_ops, max_size=40))
    def test_no_leaked_or_missed_subscriptions(self, ops):
        """Randomized pool create/destroy interleaved with machine
        register/remove and refreshes: the subscription map must hold
        exactly one entry per (live pool, cached machine) — nothing
        leaked after destroys, nothing missed while live (every live
        pool's maintained order keeps matching a from-scratch
        recomputation after every step)."""
        db = WhitePagesDatabase([
            MachineRecord(machine_name=name, current_load=float(i % 3),
                          admin_parameters={"arch": "sun"})
            for i, name in enumerate(_POOL_MACHINES)
        ])
        removed: dict = {}
        pools: dict = {}
        serial = 0
        for op in ops:
            if op[0] == "create":
                slot = op[1]
                if slot in pools:
                    continue
                pool = ResourcePool(
                    PoolName(signature="sig", identifier=f"sub{slot}-{serial}"),
                    db, config=ResourcePoolConfig(linear_scan=False),
                    exemplar_query=_POOL_QUERY,
                )
                serial += 1
                pool.initialize()
                if pool.size == 0:
                    pool.destroy()
                else:
                    pools[slot] = pool
            elif op[0] == "destroy":
                pool = pools.pop(op[1], None)
                if pool is not None:
                    pool.destroy()
            elif op[0] == "register":
                rec = removed.pop(op[1], None)
                if rec is not None:
                    db.add(rec)
            elif op[0] == "deregister":
                if op[1] in db and op[1] not in removed:
                    removed[op[1]] = db.remove(op[1])
            else:  # refresh
                if op[1] in db:
                    db.update_dynamic(op[1], current_load=op[2])
            stats = db.listener_stats()
            expected_entries = sum(p.size for p in pools.values())
            assert stats["subscription_entries"] == expected_entries
            for pool in pools.values():
                if any(name in removed for name in pool.cache):
                    # The linear oracle faults on a deregistered cached
                    # machine; the indexed order must just drop it.
                    assert all(name not in removed
                               for _i, name in pool.scan_order())
                else:
                    # A missed notification would leave a stale rank here.
                    assert pool.scan_order() == pool._linear_order(None)
        for pool in pools.values():
            pool.destroy()
        stats = db.listener_stats()
        assert stats["subscription_entries"] == 0
        assert stats["subscribed_machines"] == 0
