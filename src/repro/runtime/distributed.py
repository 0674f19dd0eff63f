"""Distributed asyncio deployment: every pipeline stage on its own socket.

Where :class:`~repro.runtime.server.ActYPServer` fronts a whole in-process
pipeline with one endpoint, this module deploys the paper's architecture
literally: query managers, pool managers, and resource pools are separate
TCP servers (separate processes in production; separate asyncio servers
here), and every stage hop is a real socket round trip.

Topology (mirrors Figure 1)::

    client --TCP--> DistributedQueryManagerServer
                       --TCP--> DistributedPoolManagerServer
                                   --TCP--> DistributedPoolServer

Pool managers create pool servers on demand (binding a fresh listening
socket, the runtime analogue of "forks a process that initializes itself
and listens to a specified port") and delegate to peer pool managers over
TCP when they cannot satisfy a query locally.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.config import PipelineConfig
from repro.core.pool_manager import (
    Delegate,
    FanoutToPools,
    PoolManager,
    RouteFailed,
    RouteToPool,
)
from repro.core.query import QueryResult
from repro.core.query_manager import QueryManager
from repro.core.resource_pool import ResourcePool
from repro.database.directory import LocalDirectoryService
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import NoResourceAvailableError, RuntimeProtocolError
from repro.net.address import Endpoint
from repro.runtime.client import FrameConnection
from repro.runtime.protocol import FrameServer
from repro.runtime.wire import (
    query_from_dict,
    query_to_dict,
    result_payload_from_dict,
    result_payload_to_dict,
)

__all__ = ["DistributedActYP"]

async def _call(host: str, port: int, frame: Dict[str, Any]
                ) -> Dict[str, Any]:
    """One request/response over a fresh connection."""
    async with FrameConnection(host, port) as connection:
        return await connection.request(frame)


class DistributedPoolServer(FrameServer):
    """One resource-pool instance listening on its own port."""

    def __init__(self, pool: ResourcePool):
        super().__init__()
        self.pool = pool

    async def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        kind = frame["kind"]
        if kind == "allocate":
            query = query_from_dict(frame["query"])
            loop = asyncio.get_running_loop()
            try:
                allocation = self.pool.allocate(query, now=loop.time())
                result = QueryResult(
                    query_id=query.query_id,
                    component_index=query.component_index,
                    component_count=query.component_count,
                    allocation=allocation,
                    completed_at=loop.time(),
                )
            except NoResourceAvailableError as exc:
                result = QueryResult(
                    query_id=query.query_id,
                    component_index=query.component_index,
                    component_count=query.component_count,
                    error=str(exc),
                    completed_at=loop.time(),
                )
            return {"kind": "result", **result_payload_to_dict(result)}
        if kind == "release":
            self.pool.release(str(frame.get("access_key", "")))
            return {"kind": "released"}
        raise RuntimeProtocolError(f"pool got {kind!r}")


class DistributedPoolManagerServer(FrameServer):
    """One pool manager; creates pool servers, delegates over TCP."""

    def __init__(self, manager: PoolManager, owner: "DistributedActYP"):
        super().__init__()
        self.manager = manager
        self.owner = owner

    async def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if frame["kind"] != "route":
            raise RuntimeProtocolError(
                f"pool manager got {frame['kind']!r}")
        query = query_from_dict(frame["query"])
        loop = asyncio.get_running_loop()
        decision = self.manager.route(query, now=loop.time())
        # Bind servers for any pools the routing step just created, then
        # re-resolve endpoints — the decision may hold the placeholder
        # registered before the socket was bound.
        await self.owner.spawn_new_pool_servers(self.manager)

        def resolved(entry) -> Endpoint:
            for e in self.manager.directory.lookup(entry.pool_name):
                if e.instance_number == entry.instance_number:
                    return e.endpoint
            return entry.endpoint

        if isinstance(decision, RouteToPool):
            ep = resolved(decision.entry)
            return await _call(ep.host, ep.port, {
                "kind": "allocate",
                "query": query_to_dict(decision.query),
            })
        if isinstance(decision, FanoutToPools):
            calls = [
                _call(resolved(e).host, resolved(e).port, {
                    "kind": "allocate",
                    "query": query_to_dict(decision.query),
                })
                for e in decision.entries
            ]
            replies = await asyncio.gather(*calls)
            results = [result_payload_from_dict(r) for r in replies]
            success = next((r for r in results if r.ok), None)
            for r in results:
                if r.ok and r is not success:
                    await self.owner.release_allocation(r.allocation)
            if success is not None:
                return {"kind": "result",
                        **result_payload_to_dict(success)}
            q = decision.query
            failed = QueryResult(
                query_id=q.query_id,
                component_index=q.component_index,
                component_count=q.component_count,
                error="; ".join(r.error or "?" for r in results),
            )
            return {"kind": "result", **result_payload_to_dict(failed)}
        if isinstance(decision, Delegate):
            return await _call(decision.peer.host, decision.peer.port, {
                "kind": "route",
                "query": query_to_dict(decision.query),
            })
        assert isinstance(decision, RouteFailed)
        failed = QueryResult(
            query_id=query.query_id,
            component_index=query.component_index,
            component_count=query.component_count,
            error=decision.reason,
        )
        return {"kind": "result", **result_payload_to_dict(failed)}


class DistributedQueryManagerServer(FrameServer):
    """The client-facing stage: translate, decompose, dispatch, reintegrate."""

    def __init__(self, manager: QueryManager, release_hook=None):
        super().__init__()
        self.manager = manager
        #: Async callable(allocation) used to return redundant fan-out
        #: allocations; set by the deployment builder.
        self.release_hook = release_hook

    async def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if frame["kind"] != "query":
            raise RuntimeProtocolError(
                f"query manager got {frame['kind']!r}")
        query_id, dispatches = self.manager.admit(
            frame["payload"], format_name=frame.get("format", "punch"),
            origin=str(frame.get("origin", "tcp")),
            now=asyncio.get_running_loop().time(),
        )

        async def run_component(dispatch) -> Optional[QueryResult]:
            reply = await _call(
                dispatch.pool_manager.host, dispatch.pool_manager.port, {
                    "kind": "route",
                    "query": query_to_dict(dispatch.component),
                })
            result = result_payload_from_dict(reply)
            outcome = self.manager.complete_component(result)
            if (outcome is None and result.ok
                    and self.release_hook is not None):
                # Redundant fan-out duplicate: return the machine.
                await self.release_hook(result.allocation)
            return outcome

        outcomes = await asyncio.gather(*[run_component(d)
                                          for d in dispatches])
        final = next((o for o in outcomes if o is not None), None)
        if final is None:  # pragma: no cover - reintegration guarantees one
            return {"kind": "error", "message": "reintegration failed"}
        out = {"kind": "result", "ok": final.ok,
               **result_payload_to_dict(final)}
        return out


class DistributedActYP:
    """Builder/owner of a fully distributed asyncio deployment.

    Usage::

        dist = DistributedActYP(database, n_pool_managers=2)
        await dist.start()
        result = await dist.query("punch.rsrc.arch = sun")
        await dist.stop()
    """

    def __init__(self, database: WhitePagesDatabase, *,
                 n_pool_managers: int = 1,
                 config: Optional[PipelineConfig] = None,
                 host: str = "127.0.0.1", seed: int = 0):
        self.database = database
        self.config = (config or PipelineConfig()).validated()
        self.host = host
        self.directory = LocalDirectoryService(domain="live")
        self._seed = seed
        self._n_pm = n_pool_managers
        self.pm_servers: List[DistributedPoolManagerServer] = []
        self.qm_server: Optional[DistributedQueryManagerServer] = None
        self._pool_servers: Dict[Tuple[str, int], DistributedPoolServer] = {}
        self._spawn_lock = asyncio.Lock()
        self._started = False

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeProtocolError("deployment already started")
        pm_endpoints: List[Endpoint] = []
        for i in range(self._n_pm):
            manager = PoolManager(
                name=f"live-pm{i}",
                directory=self.directory,
                database=self.database,
                config=self.config.pool_manager,
                pool_config=self.config.pool,
                rng=np.random.default_rng(self._seed * 100 + i),
                pool_endpoint_allocator=self._unresolved_endpoint,
            )
            server = DistributedPoolManagerServer(manager, self)
            await server.start(self.host)
            ep = Endpoint(self.host, server.port, "live")
            # The manager's name doubles as its visited-list identity; the
            # directory needs the *resolved* endpoint for peering.
            manager.name = str(ep)
            self.pm_servers.append(server)
            pm_endpoints.append(ep)
        for ep in pm_endpoints:
            self.directory.add_peer_pool_manager(ep)
        qm = QueryManager(
            name="live-qm0",
            pool_managers=pm_endpoints,
            config=self.config.query_manager,
            reintegration_policy=self.config.query_manager
            .reintegration_policy,
            fanout=self.config.query_manager.fanout,
            default_ttl=self.config.pool_manager.delegation_ttl,
            rng=np.random.default_rng(self._seed + 999),
        )
        self.qm_server = DistributedQueryManagerServer(
            qm, release_hook=self.release_allocation)
        await self.qm_server.start(self.host)
        self._started = True

    def _unresolved_endpoint(self, name, instance) -> Endpoint:
        # Placeholder: replaced with the bound port in
        # spawn_new_pool_servers (the pool registers itself only once it
        # is listening, per Section 5.2.3).
        return Endpoint(self.host, 1, "live")

    async def spawn_new_pool_servers(self, manager: PoolManager) -> None:
        """Bind listening sockets for freshly created pool instances and
        fix up their directory registrations with the real port.

        Serialised: concurrent routing calls may observe the same fresh
        pool, and only one socket must be bound per instance.
        """
        async with self._spawn_lock:
            for (dir_name, instance), pool in list(
                    manager.local_pools.items()):
                key = (pool.name.full, pool.instance_number)
                if key in self._pool_servers:
                    continue
                server = DistributedPoolServer(pool)
                await server.start(self.host)
                self._pool_servers[key] = server
                # Re-register with the resolved endpoint.
                self.directory.deregister(dir_name, instance)
                self.directory.register(
                    dir_name, instance,
                    Endpoint(self.host, server.port, "live"),
                )

    async def release_allocation(self, allocation) -> None:
        server = self._pool_servers.get(
            (allocation.pool_name, allocation.pool_instance))
        if server is None:
            return
        await _call(self.host, server.port, {
            "kind": "release", "access_key": allocation.access_key,
        })

    async def stop(self) -> None:
        if self.qm_server is not None:
            await self.qm_server.stop()
        for server in self.pm_servers:
            await server.stop()
        for server in self._pool_servers.values():
            await server.stop()
        self._started = False

    async def __aenter__(self) -> "DistributedActYP":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- client conveniences ------------------------------------------------------------

    @property
    def query_port(self) -> int:
        if self.qm_server is None:
            raise RuntimeProtocolError("deployment not started")
        return self.qm_server.port

    async def query(self, payload: Any, *, format_name: str = "punch"
                    ) -> Dict[str, Any]:
        return await _call(self.host, self.query_port, {
            "kind": "query", "payload": payload, "format": format_name,
        })

    async def release(self, pool_name: str, pool_instance: int,
                      access_key: str) -> None:
        server = self._pool_servers.get((pool_name, pool_instance))
        if server is None:
            raise RuntimeProtocolError(
                f"no pool server for {pool_name}#{pool_instance}")
        reply = await _call(self.host, server.port, {
            "kind": "release", "access_key": access_key,
        })
        if reply.get("kind") != "released":
            raise RuntimeProtocolError(reply.get("message", "release failed"))
