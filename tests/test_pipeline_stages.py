"""Tests for pool managers, query managers, and the in-process pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PoolManagerConfig, QueryManagerConfig
from repro.core.language import parse_query
from repro.core.pipeline import build_service
from repro.core.pool_manager import Delegate, PoolManager, RouteFailed, RouteToPool
from repro.core.query_manager import QueryManager
from repro.core.signature import pool_name_for
from repro.database.directory import LocalDirectoryService
from repro.database.fields import MachineState
from repro.errors import ConfigError, NoResourceAvailableError, PipelineError, PoolCreationError
from repro.net.address import Endpoint



def sun_q(extra=""):
    return parse_query("punch.rsrc.arch = sun\n" + extra).basic()


def make_pm(db, name="pmA", domain="purdue", directory=None, **cfg):
    directory = directory or LocalDirectoryService(domain)
    return PoolManager(
        name, directory, db,
        config=PoolManagerConfig(**cfg) if cfg else None,
        rng=np.random.default_rng(0),
    ), directory


class TestPoolManagerMapping:
    def test_map_query_uses_signature(self, small_db):
        pm, _ = make_pm(small_db)
        assert pm.map_query(sun_q()) == pool_name_for(sun_q())

    def test_route_creates_pool_on_demand(self, small_db):
        pm, directory = make_pm(small_db)
        decision = pm.route(sun_q())
        assert isinstance(decision, RouteToPool)
        assert directory.instance_count(decision.entry.pool_name) == 1
        assert pm.pools_created == 1

    def test_second_route_reuses_pool(self, small_db):
        pm, _ = make_pm(small_db)
        pm.route(sun_q())
        pm.route(sun_q())
        assert pm.pools_created == 1
        assert pm.queries_routed == 2

    def test_different_signature_different_pool(self, small_db):
        pm, directory = make_pm(small_db)
        pm.route(sun_q())
        pm.route(parse_query("punch.rsrc.arch = hp").basic())
        assert len(directory.pool_names()) == 2

    def test_create_pool_zero_matches_delegates_or_fails(self, small_db):
        pm, _ = make_pm(small_db)
        q = parse_query("punch.rsrc.arch = cray").basic()
        decision = pm.route(q)
        assert isinstance(decision, RouteFailed)

    def test_creation_disabled_delegates(self, small_db):
        pm, directory = make_pm(small_db, may_create_pools=False)
        peer = Endpoint("pmB", 8001, "purdue")
        directory.add_peer_pool_manager(peer)
        decision = pm.route(sun_q())
        assert isinstance(decision, Delegate)
        assert decision.peer == peer
        assert decision.query.ttl == 3
        assert "pmA" in decision.query.visited_pool_managers

    def test_delegation_ttl_exhaustion(self, small_db):
        pm, directory = make_pm(small_db, may_create_pools=False)
        directory.add_peer_pool_manager(Endpoint("pmB", 8001, "purdue"))
        q = sun_q().with_routing(ttl=0)
        decision = pm.route(q)
        assert isinstance(decision, RouteFailed)
        assert "TTL" in decision.reason

    def test_delegation_avoids_visited(self, small_db):
        pm, directory = make_pm(small_db, may_create_pools=False)
        peer = Endpoint("pmB", 8001, "purdue")
        directory.add_peer_pool_manager(peer)
        q = sun_q().with_routing(visited=(str(peer),))
        decision = pm.route(q)
        assert isinstance(decision, RouteFailed)
        assert "no unvisited" in decision.reason

    def test_explicit_replica_creation(self, small_db):
        pm, directory = make_pm(small_db)
        entries = pm.create_pool(pool_name_for(sun_q()), sun_q(), replicas=3)
        assert len(entries) == 3
        assert directory.instance_count(entries[0].pool_name) == 3
        sizes = {pm.local_pool(e.pool_name, e.instance_number).size
                 for e in entries}
        assert sizes == {6}  # replicas share the same machine set

    def test_local_pool_lookup_unknown_raises(self, small_db):
        pm, _ = make_pm(small_db)
        with pytest.raises(PoolCreationError):
            pm.local_pool("nope", 0)


class TestQueryManagerSelection:
    def endpoints(self, n=3, domain="purdue"):
        return [Endpoint(f"pm{i}", 8100 + i, domain) for i in range(n)]

    def test_round_robin_cycles(self):
        eps = self.endpoints(3)
        qm = QueryManager(
            "qm", eps,
            config=QueryManagerConfig(selection_policy="round_robin"),
        )
        picks = [qm.select_pool_manager(sun_q()) for _ in range(6)]
        assert picks == eps * 2

    def test_random_policy_stays_within_set(self):
        eps = self.endpoints(3)
        qm = QueryManager("qm", eps, rng=np.random.default_rng(1))
        picks = {qm.select_pool_manager(sun_q()) for _ in range(20)}
        assert picks <= set(eps)
        assert len(picks) > 1

    def test_parameter_policy_routes_by_arch(self):
        eps = self.endpoints(3)
        qm = QueryManager(
            "qm", eps,
            config=QueryManagerConfig(selection_policy="parameter",
                                      selection_parameter="arch"),
            selection_rules={"sun": [eps[0]], "hp": [eps[1]]},
            rng=np.random.default_rng(0),
        )
        assert qm.select_pool_manager(sun_q()) == eps[0]
        hp = parse_query("punch.rsrc.arch = hp").basic()
        assert qm.select_pool_manager(hp) == eps[1]
        # Unmapped value falls back to the full set.
        x86 = parse_query("punch.rsrc.arch = x86").basic()
        assert qm.select_pool_manager(x86) in eps

    def test_admit_decomposes_composites(self):
        eps = self.endpoints(2)
        qm = QueryManager("qm", eps, rng=np.random.default_rng(0))
        qid, dispatches = qm.admit("punch.rsrc.arch = sun|hp")
        assert len(dispatches) == 2
        assert qm.open_queries() == 1
        assert {d.component.get("punch.rsrc.arch") for d in dispatches} == \
            {"sun", "hp"}

    def test_needs_pool_managers(self):
        with pytest.raises(ConfigError):
            QueryManager("qm", [])

    def test_complete_without_buffer_raises(self):
        qm = QueryManager("qm", self.endpoints(1))
        from tests.test_decompose import make_result
        with pytest.raises(PipelineError):
            qm.complete_component(make_result(query_id=99))


class TestEndToEndService:
    def test_submit_and_release(self, fleet_db):
        service = build_service(fleet_db, n_pool_managers=2)
        result = service.submit(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=128"
        )
        assert result.ok
        rec = fleet_db.get(result.allocation.machine_name)
        assert rec.active_jobs == 1
        service.release(result.allocation.access_key)
        assert fleet_db.get(result.allocation.machine_name).active_jobs == 0

    def test_release_unknown_key_raises(self, fleet_db):
        service = build_service(fleet_db)
        with pytest.raises(NoResourceAvailableError):
            service.release("bogus")

    def test_unsatisfiable_query_fails_cleanly(self, fleet_db):
        service = build_service(fleet_db)
        result = service.submit("punch.rsrc.arch = cray")
        assert not result.ok
        assert service.stats()["failed"] == 1

    def test_composite_first_match(self, fleet_db):
        service = build_service(fleet_db)
        result = service.submit("punch.rsrc.arch = cray|sun")
        assert result.ok
        assert result.component_index == 1  # cray fails, sun succeeds

    def test_dict_format_submission(self, fleet_db):
        service = build_service(fleet_db)
        result = service.submit(
            {"punch.rsrc.arch": "sun", "punch.rsrc.memory": ">=128"},
            format_name="dict",
        )
        assert result.ok

    def test_classad_format_submission(self, fleet_db):
        service = build_service(fleet_db)
        result = service.submit(
            'Arch == "SUN4u" && Memory >= 128', format_name="classad",
        )
        assert result.ok

    def test_pools_grow_with_distinct_signatures(self, fleet_db):
        service = build_service(fleet_db)
        assert service.submit("punch.rsrc.arch = sun").ok
        assert service.submit("punch.rsrc.arch = hp").ok
        assert service.stats()["pools"] == 2

    def test_taken_machines_not_stolen_by_overlapping_pool(self, fleet_db):
        # Pools take machines exclusively (Section 5.2.3: the walk "marks
        # them as taken within the main database"), so a later overlapping
        # criterion finds nothing left to aggregate.
        service = build_service(fleet_db)
        assert service.submit("punch.rsrc.arch = sun").ok
        overlapping = service.submit(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256"
        )
        assert not overlapping.ok
        assert service.stats()["pools"] == 1

    def test_many_submissions_stable(self, fleet_db):
        service = build_service(fleet_db, n_pool_managers=3)
        ok = 0
        for i in range(50):
            arch = ["sun", "hp", "x86"][i % 3]
            r = service.submit(f"punch.rsrc.arch = {arch}")
            ok += r.ok
            if r.ok:
                service.release(r.allocation.access_key)
        assert ok == 50
        assert service.stats()["open_queries"] == 0

    def test_split_pool_fans_out_over_fragments(self, fleet_db):
        # Figure 7 on the in-process path: once a pool is split, a query
        # is served by one of its fragments; when no fragment has a live
        # machine the query fails with the last fragment's reason.
        service = build_service(fleet_db, n_pool_managers=1)
        first = service.submit("punch.rsrc.arch = sun")
        service.release(first.allocation.access_key)
        (manager,) = service.pool_managers.values()
        fragments = manager.split_pool(pool_name_for(sun_q()), 2)
        result = service.submit("punch.rsrc.arch = sun")
        assert result.ok
        assert result.allocation.pool_instance in \
            {f.instance_number for f in fragments}
        service.release(result.allocation.access_key)
        for name in fleet_db.names():
            if name.startswith("sun"):
                fleet_db.update_dynamic(name, state=MachineState.DOWN)
        failed = service.submit("punch.rsrc.arch = sun")
        assert not failed.ok and failed.error
