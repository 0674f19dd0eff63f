"""Tests for the extension features: idle-pool reclamation (janitor),
on-miss re-aggregation, and co-allocation.

The paper marks these as gaps: its prototype never releases aggregations,
and "advance reservations and co-allocation ... neither of which are
currently supported by ActYP" (Section 8).  This reproduction implements
them as extensions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PipelineConfig, PoolManagerConfig
from repro.core.janitor import PoolJanitor
from repro.core.language import parse_query
from repro.core.pipeline import build_service
from repro.core.pool_manager import PoolManager
from repro.core.resource_pool import ResourcePool
from repro.core.signature import pool_name_for
from repro.database.directory import LocalDirectoryService
from repro.deploy.simulated import ClientSpec, DeploymentSpec, SimulatedDeployment
from repro.errors import NoResourceAvailableError
from repro.fleet import FleetSpec, build_database



def sun_q(extra=""):
    return parse_query("punch.rsrc.arch = sun\n" + extra).basic()


class TestJanitor:
    def make_manager(self, db):
        directory = LocalDirectoryService("purdue")
        return PoolManager("pm", directory, db,
                           rng=np.random.default_rng(0))

    def test_idle_pool_reclaimed(self, small_db):
        pm = self.make_manager(small_db)
        pm.create_pool(pool_name_for(sun_q()), sun_q())
        assert small_db.taken_count() == 6
        janitor = PoolJanitor(pm, idle_timeout_s=10.0)
        # Not yet idle long enough.
        assert janitor.sweep(now=5.0) == []
        destroyed = janitor.sweep(now=20.0)
        assert len(destroyed) == 1
        assert small_db.taken_count() == 0
        assert pm.directory.pool_names() == []
        assert pm.local_pools == {}
        assert janitor.machines_reclaimed == 6

    def test_active_pool_not_reclaimed(self, small_db):
        pm = self.make_manager(small_db)
        entries = pm.create_pool(pool_name_for(sun_q()), sun_q())
        pool = pm.local_pool(entries[0].pool_name, 0)
        pool.allocate(sun_q(), now=0.0)  # active run pins the pool
        janitor = PoolJanitor(pm, idle_timeout_s=10.0)
        assert janitor.sweep(now=1000.0) == []

    def test_recent_activity_resets_idle_clock(self, small_db):
        pm = self.make_manager(small_db)
        entries = pm.create_pool(pool_name_for(sun_q()), sun_q())
        pool = pm.local_pool(entries[0].pool_name, 0)
        alloc = pool.allocate(sun_q(), now=95.0)
        pool.release(alloc.access_key)
        janitor = PoolJanitor(pm, idle_timeout_s=10.0)
        assert janitor.sweep(now=100.0) == []   # active at t=95
        assert len(janitor.sweep(now=200.0)) == 1

    def test_replicated_pool_reclaimed_together(self, small_db):
        pm = self.make_manager(small_db)
        pm.create_pool(pool_name_for(sun_q()), sun_q(), replicas=2)
        janitor = PoolJanitor(pm, idle_timeout_s=0.0)
        destroyed = janitor.sweep(now=1.0)
        assert len(destroyed) == 1
        assert janitor.pools_reclaimed == 2
        assert small_db.taken_count() == 0

    def test_unbind_hook_called(self, small_db):
        pm = self.make_manager(small_db)
        entries = pm.create_pool(pool_name_for(sun_q()), sun_q())
        unbound = []
        janitor = PoolJanitor(pm, idle_timeout_s=0.0,
                              unbind_hook=unbound.append)
        janitor.sweep(now=1.0)
        assert unbound == [entries[0].endpoint]


class TestOnMissReaggregation:
    def test_overlapping_query_succeeds_after_reclaim(self, fleet_db):
        cfg = PipelineConfig(pool_manager=PoolManagerConfig(
            reclaim_on_miss=True, reclaim_idle_timeout_s=5.0))
        service = build_service(fleet_db, config=cfg)
        # First mix aggregates every sun machine into the broad pool.
        r1 = service.submit("punch.rsrc.arch = sun", now=0.0)
        assert r1.ok
        service.release(r1.allocation.access_key)
        # The overlapping shape misses while the broad pool is fresh...
        r2 = service.submit(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256", now=1.0)
        assert not r2.ok
        # ...but once idle, the broad pool is reclaimed and the new shape
        # aggregates successfully: the workload shifted, the pools follow.
        r3 = service.submit(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256", now=60.0)
        assert r3.ok

    def test_paper_behaviour_preserved_by_default(self, fleet_db):
        service = build_service(fleet_db)  # reclaim_on_miss defaults False
        assert service.submit("punch.rsrc.arch = sun", now=0.0).ok
        r = service.submit(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256", now=999.0)
        assert not r.ok

    def test_sweep_idle_pools_facade(self, fleet_db):
        service = build_service(fleet_db)
        r1 = service.submit("punch.rsrc.arch = sun", now=0.0)
        r2 = service.submit("punch.rsrc.arch = hp", now=0.0)
        assert r1.ok and r2.ok
        # Active runs pin both pools regardless of elapsed time.
        assert service.sweep_idle_pools(now=100.0, idle_timeout_s=10.0) == 0
        service.release(r1.allocation.access_key)
        service.release(r2.allocation.access_key)
        assert service.sweep_idle_pools(now=0.0, idle_timeout_s=10.0) == 0
        assert service.sweep_idle_pools(now=100.0, idle_timeout_s=10.0) == 2
        assert fleet_db.taken_count() == 0

    def test_reclaim_in_des_deployment(self):
        db, _ = build_database(FleetSpec(size=100, seed=3))
        cfg = PipelineConfig(pool_manager=PoolManagerConfig(
            reclaim_on_miss=True, reclaim_idle_timeout_s=0.05))
        dep = SimulatedDeployment(db, spec=DeploymentSpec(config=cfg),
                                  seed=4)

        def payload(ci, it, rng):
            # Shift the workload shape halfway through the run.
            if it < 5:
                return "punch.rsrc.arch = sun"
            return "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256"

        stats = dep.run_clients(
            ClientSpec(count=1, queries_per_client=10, domain="actyp",
                       think_time_s=0.1),
            payload,
        )
        # The first post-shift query may miss; reclamation lets later
        # ones aggregate the new shape.
        assert stats.count >= 8
        assert any("memory" in k for k in dep.pool_sizes())


class TestCoAllocation:
    def test_pool_level_distinct_machines(self, small_db):
        q = sun_q()
        pool = ResourcePool(pool_name_for(q), small_db, exemplar_query=q)
        pool.initialize()
        allocations = pool.allocate_many(q, 4)
        machines = [a.machine_name for a in allocations]
        assert len(set(machines)) == 4
        for a in allocations:
            pool.release(a.access_key)
        assert pool.active_runs == 0

    def test_all_or_nothing(self, small_db):
        q = sun_q()
        pool = ResourcePool(pool_name_for(q), small_db, exemplar_query=q)
        pool.initialize()  # six machines
        with pytest.raises(NoResourceAvailableError):
            pool.allocate_many(q, 7)
        # Nothing held after the failed batch.
        assert pool.active_runs == 0
        busy = sum(small_db.get(n).active_jobs for n in small_db.names())
        assert busy == 0

    def test_invalid_count(self, small_db):
        q = sun_q()
        pool = ResourcePool(pool_name_for(q), small_db, exemplar_query=q)
        pool.initialize()
        with pytest.raises(NoResourceAvailableError):
            pool.allocate_many(q, 0)

    def test_service_level_co_allocation(self, fleet_db):
        service = build_service(fleet_db)
        allocations = service.co_allocate(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=128", 8)
        assert len(allocations) == 8
        assert len({a.machine_name for a in allocations}) == 8
        for a in allocations:
            service.release(a.access_key)

    def test_service_co_allocation_failure_is_clean(self):
        db, _ = build_database(FleetSpec(size=12, seed=3))
        service = build_service(db)
        with pytest.raises(NoResourceAvailableError):
            service.co_allocate("punch.rsrc.arch = sun", 100)
        busy = sum(db.get(n).active_jobs for n in db.names())
        assert busy == 0
