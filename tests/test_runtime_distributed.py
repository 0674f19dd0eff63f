"""Integration tests for the distributed asyncio deployment.

Every stage is a real TCP server on localhost; these tests exercise the
full socket path client -> QM -> PM -> pool and back, plus wire
serialisation round trips.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.core.language import parse_query
from repro.core.operators import Op, RangeValue
from repro.core.query import Allocation, Clause, QueryResult
from repro.errors import RuntimeProtocolError
from repro.fleet import FleetSpec, build_database
from repro.runtime.distributed import DistributedActYP
from repro.runtime.wire import (
    clause_from_dict,
    clause_to_dict,
    query_from_dict,
    query_to_dict,
    result_payload_from_dict,
    result_payload_to_dict,
)
from tests.wire_contract import WireContract


def run(coro):
    return asyncio.run(coro)


class TestWireSerialisation:
    def test_clause_roundtrip_string(self):
        c = Clause("punch", "rsrc", "arch", Op.EQ, "sun")
        assert clause_from_dict(clause_to_dict(c)) == c

    def test_clause_roundtrip_number(self):
        c = Clause("punch", "rsrc", "memory", Op.GE, 128.0)
        assert clause_from_dict(clause_to_dict(c)) == c

    def test_clause_roundtrip_range(self):
        c = Clause("punch", "rsrc", "memory", Op.RANGE, RangeValue(10, 20))
        restored = clause_from_dict(clause_to_dict(c))
        assert restored == c
        assert isinstance(restored.value, RangeValue)

    def test_clause_roundtrip_set(self):
        c = Clause("punch", "rsrc", "cms", Op.IN,
                   frozenset({"sge", "pbs", "condor"}))
        assert clause_from_dict(clause_to_dict(c)) == c

    def test_query_roundtrip_with_routing_state(self):
        q = parse_query(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=10"
        ).basic().with_identity(
            query_id=7, origin="c1", submitted_at=1.5,
            component_index=1, component_count=3, ttl=2,
        ).with_routing(visited=("pmA", "pmB"))
        restored = query_from_dict(query_to_dict(q))
        assert restored == q
        assert restored.visited_pool_managers == ("pmA", "pmB")
        assert restored.ttl == 2

    def test_result_roundtrip(self):
        r = QueryResult(
            query_id=3, component_index=0, component_count=1,
            allocation=Allocation("m1", "m1", 7070, "k" * 32,
                                  shadow_account="shadow001",
                                  pool_name="p", pool_instance=0),
            completed_at=2.5,
        )
        restored = result_payload_from_dict(result_payload_to_dict(r))
        assert restored.allocation == r.allocation
        assert restored.ok

    def test_failed_result_roundtrip(self):
        r = QueryResult(query_id=1, component_index=0, component_count=1,
                        error="no machines")
        restored = result_payload_from_dict(result_payload_to_dict(r))
        assert not restored.ok
        assert restored.error == "no machines"

    def test_malformed_query_rejected(self):
        with pytest.raises(RuntimeProtocolError):
            query_from_dict({"clauses": [{"bad": True}]})


@pytest.fixture
def database():
    db, _ = build_database(FleetSpec(size=150, seed=3))
    return db


class TestDistributedDeployment:
    def test_query_through_three_stages(self, database):
        async def scenario():
            async with DistributedActYP(database,
                                        n_pool_managers=2) as dist:
                result = await dist.query(
                    "punch.rsrc.arch = sun\npunch.rsrc.memory = >=128")
                assert result["ok"] is True
                alloc = result["allocation"]
                assert alloc["machine_name"].startswith("sun")
                await dist.release(alloc["pool_name"],
                                   alloc["pool_instance"],
                                   alloc["access_key"])
        run(scenario())

    def test_pool_server_created_on_demand(self, database):
        async def scenario():
            async with DistributedActYP(database) as dist:
                assert len(dist._pool_servers) == 0
                await dist.query("punch.rsrc.arch = sun")
                assert len(dist._pool_servers) == 1
                await dist.query("punch.rsrc.arch = hp")
                assert len(dist._pool_servers) == 2
                # Repeat queries reuse the live servers.
                await dist.query("punch.rsrc.arch = sun")
                assert len(dist._pool_servers) == 2
        run(scenario())

    def test_composite_query_over_sockets(self, database):
        async def scenario():
            async with DistributedActYP(database) as dist:
                result = await dist.query("punch.rsrc.arch = cray|sun")
                assert result["ok"] is True
                assert result["allocation"]["machine_name"].startswith("sun")
        run(scenario())

    def test_unsatisfiable_query_fails_as_data(self, database):
        async def scenario():
            async with DistributedActYP(database) as dist:
                result = await dist.query("punch.rsrc.arch = cray")
                assert result["ok"] is False
                assert "error" in result
        run(scenario())

    def test_concurrent_clients_against_stages(self, database):
        async def one_client(dist, n):
            for _ in range(n):
                result = await dist.query("punch.rsrc.arch = sun")
                assert result["ok"] is True
                alloc = result["allocation"]
                await dist.release(alloc["pool_name"],
                                   alloc["pool_instance"],
                                   alloc["access_key"])

        async def scenario():
            async with DistributedActYP(database,
                                        n_pool_managers=2) as dist:
                await asyncio.gather(*[one_client(dist, 4)
                                       for _ in range(6)])
                busy = sum(database.get(n).active_jobs
                           for n in database.names())
                assert busy == 0
        run(scenario())

    def test_syntax_error_returned_as_error_frame(self, database):
        async def scenario():
            async with DistributedActYP(database) as dist:
                result = await dist.query("nonsense")
                assert result["kind"] == "error"
        run(scenario())

    def test_double_start_rejected(self, database):
        async def scenario():
            dist = DistributedActYP(database)
            await dist.start()
            try:
                with pytest.raises(RuntimeProtocolError):
                    await dist.start()
            finally:
                await dist.stop()
        run(scenario())


class TestWireContract(WireContract):
    """The shared abuse table against a stage server (the pool manager:
    a bare ``route`` frame used to kill its connection)."""

    probe = ({"kind": "route", "query": query_to_dict(
        parse_query("punch.rsrc.arch = sun").basic().with_identity(
            query_id=1, origin="contract", submitted_at=0.0,
            component_index=0, component_count=1, ttl=2))}, "result")
    bodyless = "route"

    @contextlib.asynccontextmanager
    async def serving(self):
        db, _ = build_database(FleetSpec(size=40, seed=3))
        async with DistributedActYP(db) as dist:
            yield dist.pm_servers[0]
