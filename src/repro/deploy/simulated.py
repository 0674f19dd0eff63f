"""Discrete-event deployment of the ActYP pipeline.

This is the testbed stand-in for the paper's Section 7 experiments: the
same stage logic as the in-process facade, but every hop crosses the
simulated network (:class:`~repro.net.transport.SimTransport`) and every
operation occupies a stage server for a configured service time
(:class:`~repro.config.CostModel`).  Response times measured here are
what the figure benchmarks report.

Topology
--------
``client* → query manager* → pool manager* → resource pool*`` — each a
DES server process bound to an endpoint.  Co-located service components
(the paper ran all of ActYP on one 12-CPU Alpha) share a domain so
intra-service messages see LAN/loopback delay; clients may live in a
different domain (WAN configuration of Figure 5).

The message protocol mirrors the paper's event numbering:

- ``query``     client → QM          (event 3)
- ``route``     QM → PM              (event 4)
- ``allocate``  PM → pool            (event 5)
- ``result``    pool → QM → client   (event 6)
- ``release``   client → pool        (end of run)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PipelineConfig
from repro.core.language import parse_query
from repro.core.pool_manager import (
    Delegate,
    FanoutToPools,
    PoolManager,
    RouteFailed,
    RouteToPool,
)
from repro.core.query import Query, QueryResult
from repro.core.query_manager import QueryManager
from repro.core.resource_pool import ResourcePool
from repro.core.signature import PoolName, pool_name_for
from repro.database.directory import LocalDirectoryService
from repro.database.sharding import WhitePages
from repro.errors import ConfigError, NoResourceAvailableError, PipelineError
from repro.net.address import Endpoint
from repro.net.latency import DomainLatencyModel, LatencyModel
from repro.net.transport import BoundEndpoint, Message, SimTransport
from repro.sim.kernel import Resource, Simulator
from repro.sim.metrics import ResponseTimeStats
from repro.sim.rng import RandomStreams

__all__ = [
    "ClientSpec",
    "DeploymentSpec",
    "SimulatedDeployment",
    "TraceReplayReport",
    "run_closed_loop_experiment",
]


@dataclass(frozen=True)
class ClientSpec:
    """One closed-loop client population.

    Each client keeps one query in flight: submit, await the allocation,
    immediately release it, repeat — "clients continuously send queries to
    the ActYP service" (Figure 6's caption).
    """

    count: int = 8
    queries_per_client: int = 50
    #: Query payload factory: given (client_index, iteration, rng) returns
    #: query text.  Defaults to striping across the fleet's pool tags.
    payload: Optional[Any] = None
    domain: str = "clients"
    think_time_s: float = 0.0


@dataclass(frozen=True)
class DeploymentSpec:
    """Shape of a simulated ActYP deployment."""

    n_query_managers: int = 1
    n_pool_managers: int = 1
    service_domain: str = "actyp"
    config: PipelineConfig = field(default_factory=PipelineConfig)


class _PoolServer:
    """DES server wrapping one :class:`ResourcePool` instance.

    ``capacity`` scheduler slots serve the mailbox; each ``allocate``
    charges ``pool_fixed + scan_per_machine * size`` — the linear search
    of Section 7 ("the linear plots are simply a function of the linear
    search algorithms employed for scheduling").
    """

    def __init__(self, deployment: "SimulatedDeployment", pool: ResourcePool,
                 endpoint: Endpoint):
        self.d = deployment
        self.pool = pool
        self.endpoint = endpoint
        self.bound = deployment.transport.bind(endpoint)
        self.station = Resource(deployment.sim,
                                capacity=pool.config.scheduler_processes)
        deployment.sim.process(self._serve(), name=f"pool:{endpoint}")

    def _serve(self) -> Generator:
        sim = self.d.sim
        while True:
            msg: Message = yield self.bound.receive()
            sim.process(self._handle(msg))

    def _scan_cost(self) -> float:
        cost = self.d.cost
        if self.pool.config.linear_scan:
            return cost.pool_fixed_s + \
                cost.pool_scan_per_machine_s * self.pool.size
        # Indexed ablation: logarithmic in the cache size.  This is not
        # a hypothetical — with ``linear_scan=False`` the wrapped pool
        # really selects through its IndexedPoolScheduler (bisect
        # re-keying, early-exit walk), so the charged service time models
        # the implementation that actually runs underneath.
        return cost.pool_fixed_s + cost.pool_scan_per_machine_s * \
            max(1.0, math.log2(max(self.pool.size, 2)))

    def _handle(self, msg: Message) -> Generator:
        sim = self.d.sim
        if msg.kind == "release":
            try:
                self.pool.release(msg.payload)
            except NoResourceAvailableError:
                pass  # duplicate release is harmless here
            return
        if msg.kind != "allocate":  # pragma: no cover - protocol guard
            raise PipelineError(f"pool got unexpected message {msg.kind!r}")
        query: Query = msg.payload
        with self.station.request() as slot:
            yield slot
            yield sim.timeout(self._scan_cost())
            try:
                allocation = self.pool.allocate(query, now=sim.now)
                yield sim.timeout(self.d.cost.shadow_alloc_s)
                result = QueryResult(
                    query_id=query.query_id,
                    component_index=query.component_index,
                    component_count=query.component_count,
                    allocation=allocation,
                    completed_at=sim.now,
                )
            except NoResourceAvailableError as exc:
                result = QueryResult(
                    query_id=query.query_id,
                    component_index=query.component_index,
                    component_count=query.component_count,
                    error=str(exc),
                    completed_at=sim.now,
                )
        self.bound.reply(msg, "result", result)


class _PoolManagerServer:
    """DES server wrapping one :class:`PoolManager`."""

    def __init__(self, deployment: "SimulatedDeployment",
                 manager: PoolManager, endpoint: Endpoint):
        self.d = deployment
        self.manager = manager
        self.endpoint = endpoint
        self.bound = deployment.transport.bind(endpoint)
        self.station = Resource(deployment.sim,
                                capacity=manager.config.concurrency)
        deployment.sim.process(self._serve(), name=f"pm:{endpoint}")

    def _serve(self) -> Generator:
        sim = self.d.sim
        while True:
            msg: Message = yield self.bound.receive()
            sim.process(self._handle(msg))

    def _handle(self, msg: Message) -> Generator:
        sim = self.d.sim
        if msg.kind != "route":  # pragma: no cover - protocol guard
            raise PipelineError(f"pool manager got {msg.kind!r}")
        query: Query = msg.payload
        cost = self.d.cost
        with self.station.request() as slot:
            yield slot
            yield sim.timeout(cost.pm_map_s + cost.pm_directory_lookup_s)
            pools_before = self.manager.pools_created
            decision = self.manager.route(query, now=sim.now)
            if self.manager.pools_created > pools_before:
                # Bind servers for the new instances *before* charging the
                # walk, so concurrent queries that already see the directory
                # entry queue at the pool instead of hitting a dead endpoint.
                self.d.spawn_new_local_pools(self.manager)
                # Charge the white-pages walk of the pools just created.
                # Under the linear cost model the walk touches the whole
                # database; with the indexed engine it is the plan's
                # index probe — logarithmic in database size.
                created = self.manager.pools_created - pools_before
                db_size = len(self.manager.database)
                if self.manager.pool_config.linear_scan:
                    per_pool = cost.pool_create_per_machine_s * db_size
                else:
                    per_pool = cost.pool_create_per_machine_s * \
                        max(1.0, math.log2(max(db_size, 2)))
                walk = cost.pool_create_fixed_s + per_pool
                yield sim.timeout(walk * created)
        if isinstance(decision, RouteToPool):
            reply = yield from self.bound.call(
                decision.entry.endpoint, "allocate", decision.query)
            self.bound.reply(msg, "result", reply.payload)
            return
        if isinstance(decision, FanoutToPools):
            result = yield from self._fanout(decision)
            self.bound.reply(msg, "result", result)
            return
        if isinstance(decision, Delegate):
            reply = yield from self.bound.call(
                decision.peer, "route", decision.query)
            self.bound.reply(msg, "result", reply.payload)
            return
        assert isinstance(decision, RouteFailed)
        self.bound.reply(msg, "result", QueryResult(
            query_id=query.query_id,
            component_index=query.component_index,
            component_count=query.component_count,
            error=decision.reason,
            completed_at=sim.now,
        ))

    def _fanout(self, decision: FanoutToPools) -> Generator:
        """Query every fragment concurrently; aggregate the replies.

        The aggregate waits for all fragments (results "could then be
        aggregated"), keeps the first success, and releases any surplus
        successes so machines are not leaked.
        """
        sim = self.d.sim
        calls = [
            sim.process(self._call_fragment(entry, decision.query))
            for entry in decision.entries
        ]
        replies: List[QueryResult] = yield sim.all_of(calls)
        success: Optional[QueryResult] = None
        for reply in replies:
            if reply.ok and success is None:
                success = reply
            elif reply.ok:
                # Surplus allocation: release it back to its fragment.
                frag_ep = self.d.pool_endpoint(reply.allocation.pool_name,
                                               reply.allocation.pool_instance)
                if frag_ep is not None:
                    self.d.transport.send(
                        self.endpoint, frag_ep, "release",
                        reply.allocation.access_key,
                    )
        if success is not None:
            return success
        q = decision.query
        return QueryResult(
            query_id=q.query_id,
            component_index=q.component_index,
            component_count=q.component_count,
            error="; ".join((r.error or "?") for r in replies) or "no fragments",
            completed_at=sim.now,
        )

    def _call_fragment(self, entry, query) -> Generator:
        reply = yield from self.bound.call(entry.endpoint, "allocate", query)
        return reply.payload


class _QueryManagerServer:
    """DES server wrapping one :class:`QueryManager`."""

    def __init__(self, deployment: "SimulatedDeployment",
                 manager: QueryManager, endpoint: Endpoint):
        self.d = deployment
        self.manager = manager
        self.endpoint = endpoint
        self.bound = deployment.transport.bind(endpoint)
        self.station = Resource(deployment.sim,
                                capacity=manager.config.concurrency)
        deployment.sim.process(self._serve(), name=f"qm:{endpoint}")

    def _serve(self) -> Generator:
        sim = self.d.sim
        while True:
            msg: Message = yield self.bound.receive()
            sim.process(self._handle(msg))

    def _handle(self, msg: Message) -> Generator:
        sim = self.d.sim
        if msg.kind != "query":  # pragma: no cover - protocol guard
            raise PipelineError(f"query manager got {msg.kind!r}")
        cost = self.d.cost
        with self.station.request() as slot:
            yield slot
            yield sim.timeout(cost.qm_translate_s)
            query_id, dispatches = self.manager.admit(
                msg.payload, origin=str(msg.src), now=sim.now)
            if len(dispatches) > 1:
                yield sim.timeout(
                    cost.qm_decompose_per_component_s * len(dispatches))
        # Dispatch components concurrently; reply as soon as reintegration
        # completes (first-match replies early; late components clean up
        # in the background — "returning the first available match",
        # Section 6).
        done = sim.event()
        for d in dispatches:
            sim.process(self._component(d, done))
        final: QueryResult = yield done
        self.bound.reply(msg, "result", final)

    def _component(self, dispatch, done) -> Generator:
        sim = self.d.sim
        reply = yield from self.bound.call(
            dispatch.pool_manager, "route", dispatch.component)
        result: QueryResult = reply.payload
        yield sim.timeout(self.d.cost.qm_reintegrate_per_component_s)
        outcome = self.manager.complete_component(result)
        if outcome is not None and not done.triggered:
            done.succeed(outcome)
        elif outcome is None and result.ok:
            # Redundant duplicate or late success after first-match
            # completion: the reintegration layer dropped it; release.
            alloc = result.allocation
            entry_ep = self.d.pool_endpoint(alloc.pool_name,
                                            alloc.pool_instance)
            if entry_ep is not None:
                self.d.transport.send(self.endpoint, entry_ep, "release",
                                      alloc.access_key)


class SimulatedDeployment:
    """Builds and owns a complete simulated ActYP installation."""

    def __init__(
        self,
        database: WhitePages,
        *,
        spec: Optional[DeploymentSpec] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        self.database = database
        self.spec = spec or DeploymentSpec()
        self.config = self.spec.config.validated()
        self.cost = self.config.cost
        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.transport = SimTransport(
            self.sim,
            latency=latency or DomainLatencyModel(self.config.latency),
            rng=self.streams.get("net.latency"),
        )
        self.directory = LocalDirectoryService(domain=self.spec.service_domain)
        self._port_counter = itertools.count(9000)
        self._pool_servers: Dict[Tuple[str, int], _PoolServer] = {}
        self._pm_servers: Dict[Endpoint, _PoolManagerServer] = {}
        self._qm_servers: List[_QueryManagerServer] = []
        self._build()

    # -- construction ---------------------------------------------------------------

    def _endpoint(self, host: str) -> Endpoint:
        return Endpoint(host=host, port=next(self._port_counter),
                        domain=self.spec.service_domain)

    def _build(self) -> None:
        pm_endpoints: List[Endpoint] = []
        for i in range(self.spec.n_pool_managers):
            ep = self._endpoint(f"pmhost{i}")
            manager = PoolManager(
                name=str(ep),
                directory=self.directory,
                database=self.database,
                config=self.config.pool_manager,
                pool_config=self.config.pool,
                rng=self.streams.get(f"pm{i}.choice"),
                pool_endpoint_allocator=lambda name, inst, _i=i:
                    self._endpoint(f"poolhost{_i}"),
            )
            manager.pool_unbind_hook = self._unbind_pool_server
            self._pm_servers[ep] = _PoolManagerServer(self, manager, ep)
            pm_endpoints.append(ep)
        for ep in pm_endpoints:
            self.directory.add_peer_pool_manager(ep)
        for i in range(self.spec.n_query_managers):
            ep = self._endpoint(f"qmhost{i}")
            manager = QueryManager(
                name=str(ep),
                pool_managers=pm_endpoints,
                config=self.config.query_manager,
                reintegration_policy=self.config.query_manager
                .reintegration_policy,
                fanout=self.config.query_manager.fanout,
                default_ttl=self.config.pool_manager.delegation_ttl,
                rng=self.streams.get(f"qm{i}.choice"),
            )
            self._qm_servers.append(_QueryManagerServer(self, manager, ep))

    # -- pool server management ---------------------------------------------------------

    def spawn_new_local_pools(self, manager: PoolManager) -> None:
        """Bind servers for pool instances that lack one (post create/split).

        Servers are keyed by the *pool object's own identity* — fragments
        of a split pool carry distinct names while directory entries keep
        the original name — so that an :class:`Allocation`'s
        ``(pool_name, pool_instance)`` always resolves to its server for
        release routing.
        """
        for (dir_name, instance), pool in list(manager.local_pools.items()):
            key = (pool.name.full, pool.instance_number)
            if key in self._pool_servers:
                continue
            entries = self.directory.lookup(dir_name)
            entry = next(e for e in entries if e.instance_number == instance)
            self._pool_servers[key] = _PoolServer(self, pool, entry.endpoint)

    def pool_endpoint(self, pool_name: str, instance: int
                      ) -> Optional[Endpoint]:
        server = self._pool_servers.get((pool_name, instance))
        return server.endpoint if server else None

    def _unbind_pool_server(self, endpoint: Endpoint) -> None:
        """Janitor hook: tear down the server of a reclaimed pool."""
        for key, server in list(self._pool_servers.items()):
            if server.endpoint == endpoint:
                del self._pool_servers[key]
        if self.transport.is_bound(endpoint):
            self.transport.unbind(endpoint)

    # -- eager setup used by experiments -------------------------------------------------

    @property
    def query_manager_endpoints(self) -> List[Endpoint]:
        return [s.endpoint for s in self._qm_servers]

    @property
    def pool_manager_endpoints(self) -> List[Endpoint]:
        return list(self._pm_servers)

    def pm_server(self, endpoint: Endpoint) -> _PoolManagerServer:
        return self._pm_servers[endpoint]

    def precreate_pool(self, query_text: str, *, replicas: int = 1,
                       pm_index: int = 0) -> PoolName:
        """Create a pool (and replicas) before the run starts."""
        query = parse_query(query_text).basic()
        name = pool_name_for(query)
        pm = list(self._pm_servers.values())[pm_index].manager
        pm.create_pool(name, query, replicas=replicas)
        self.spawn_new_local_pools(pm)
        return name

    def split_pool(self, query_text: str, parts: int, *, pm_index: int = 0
                   ) -> PoolName:
        """Split a precreated pool into fragments (Figure 7)."""
        query = parse_query(query_text).basic()
        name = pool_name_for(query)
        server = list(self._pm_servers.values())[pm_index]
        # Retire the original instance's server binding.
        old = self._pool_servers.pop((name.full, 0), None)
        if old is not None:
            self.transport.unbind(old.endpoint)
        server.manager.split_pool(name, parts)
        self.spawn_new_local_pools(server.manager)
        return name

    def pool_sizes(self) -> Dict[str, int]:
        return {f"{n}#{i}": s.pool.size
                for (n, i), s in self._pool_servers.items()}

    def stage_stats(self) -> Dict[str, Any]:
        """Aggregate per-stage counters (observability surface).

        Mirrors what an operator of the paper's service would watch:
        admitted queries, routing and delegation counts, pool creations,
        per-pool service counts and failures, transport traffic.
        """
        qm = {
            "queries_admitted": sum(s.manager.queries_admitted
                                    for s in self._qm_servers),
            "components_dispatched": sum(s.manager.components_dispatched
                                         for s in self._qm_servers),
            "open_queries": sum(s.manager.open_queries()
                                for s in self._qm_servers),
        }
        pm = {
            "queries_routed": sum(s.manager.queries_routed
                                  for s in self._pm_servers.values()),
            "pools_created": sum(s.manager.pools_created
                                 for s in self._pm_servers.values()),
            "delegations": sum(s.manager.delegations
                               for s in self._pm_servers.values()),
        }
        pools = {
            f"{name}#{inst}": {
                "size": server.pool.size,
                "queries_served": server.pool.queries_served,
                "allocation_failures": server.pool.allocation_failures,
                "active_runs": server.pool.active_runs,
                "queue_length": server.station.queue_length,
                "scheduler_rekeys": (
                    server.pool._scheduler.rekeys
                    if server.pool._scheduler is not None else None),
            }
            for (name, inst), server in self._pool_servers.items()
        }
        return {
            "query_managers": qm,
            "pool_managers": pm,
            "pools": pools,
            "messages_sent": self.transport.messages_sent,
            "sim_time_s": self.sim.now,
        }

    # -- client processes -------------------------------------------------------------

    def run_clients(self, client_spec: ClientSpec,
                    payload_fn, *, stats: Optional[ResponseTimeStats] = None,
                    release: bool = True) -> ResponseTimeStats:
        """Run a closed-loop client population to completion.

        ``payload_fn(client_index, iteration, rng) -> str`` builds each
        query's text.  Returns the populated stats collector.
        """
        stats = stats if stats is not None else ResponseTimeStats()
        qms = self.query_manager_endpoints
        if not qms:
            raise ConfigError("deployment has no query managers")
        procs = []
        for c in range(client_spec.count):
            ep = Endpoint(host=f"client{c}", port=4000 + c,
                          domain=client_spec.domain)
            bound = self.transport.bind(ep)
            rng = self.streams.get(f"client{c}")
            procs.append(self.sim.process(
                self._client_loop(bound, qms, client_spec, payload_fn,
                                  c, rng, stats, release),
                name=f"client{c}",
            ))
        self.sim.run(self.sim.all_of(procs))
        return stats

    def _client_loop(self, bound: BoundEndpoint, qms: Sequence[Endpoint],
                     spec: ClientSpec, payload_fn, index: int,
                     rng: np.random.Generator, stats: ResponseTimeStats,
                     release: bool) -> Generator:
        sim = self.sim
        for it in range(spec.queries_per_client):
            qm = qms[int(rng.integers(0, len(qms)))]
            payload = payload_fn(index, it, rng)
            start = sim.now
            reply = yield from bound.call(qm, "query", payload)
            result: QueryResult = reply.payload
            if result.ok:
                stats.record(sim.now - start)
                if release:
                    alloc = result.allocation
                    pool_ep = self.pool_endpoint(alloc.pool_name,
                                                 alloc.pool_instance)
                    if pool_ep is not None:
                        self.transport.send(bound.endpoint, pool_ep,
                                            "release", alloc.access_key)
            else:
                stats.record_failure()
            if spec.think_time_s > 0:
                yield sim.timeout(float(rng.exponential(spec.think_time_s)))

    def replay_trace(self, trace, *, hold_scale: float = 1e-3,
                     max_hold_s: float = 10.0,
                     client_domain: Optional[str] = None
                     ) -> "TraceReplayReport":
        """Open-loop replay of a :mod:`repro.sim.trace` job trace."""
        return _replay_trace(
            self, trace, hold_scale=hold_scale, max_hold_s=max_hold_s,
            client_domain=client_domain or self.spec.service_domain,
        )


@dataclass
class TraceReplayReport:
    """Outcome of an open-loop trace replay."""

    stats: ResponseTimeStats
    #: Queries answered by a pool that already existed (no creation walk).
    pool_hits: int = 0
    #: Queries that triggered on-demand pool creation.
    pool_creations: int = 0
    #: Jobs whose machine was held for the (scaled) job duration.
    jobs_completed: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.pool_hits + self.pool_creations
        return self.pool_hits / total if total else 0.0


def _replay_trace(deployment: "SimulatedDeployment", trace, *,
                  hold_scale: float, max_hold_s: float,
                  client_domain: str) -> TraceReplayReport:
    """Open-loop replay: one process per job, arriving per the trace.

    On allocation the job holds the machine for ``min(cpu_seconds *
    hold_scale, max_hold_s)`` of simulated time, then releases — the
    "self-optimizing" scenario where pools persist across the job mix.
    """
    report = TraceReplayReport(stats=ResponseTimeStats())
    qms = deployment.query_manager_endpoints
    sim = deployment.sim

    def job_process(entry, bound):
        yield sim.timeout(entry.arrival_s)
        rng = deployment.streams.get(f"trace.job{entry.job_id}")
        qm = qms[int(rng.integers(0, len(qms)))]
        pools_before = sum(
            s.manager.pools_created
            for s in deployment._pm_servers.values()
        )
        start = sim.now
        reply = yield from bound.call(qm, "query", entry.query_text)
        result: QueryResult = reply.payload
        pools_after = sum(
            s.manager.pools_created
            for s in deployment._pm_servers.values()
        )
        if pools_after > pools_before:
            report.pool_creations += 1
        else:
            report.pool_hits += 1
        if not result.ok:
            report.stats.record_failure()
            return
        report.stats.record(sim.now - start)
        hold = min(entry.cpu_seconds * hold_scale, max_hold_s)
        if hold > 0:
            yield sim.timeout(hold)
        alloc = result.allocation
        pool_ep = deployment.pool_endpoint(alloc.pool_name,
                                           alloc.pool_instance)
        if pool_ep is not None:
            deployment.transport.send(bound.endpoint, pool_ep, "release",
                                      alloc.access_key)
        report.jobs_completed += 1

    procs = []
    for i, entry in enumerate(trace):
        ep = Endpoint(host=f"tracejob{i}", port=20000 + (i % 40000),
                      domain=client_domain)
        bound = deployment.transport.bind(ep)
        procs.append(sim.process(job_process(entry, bound)))
    sim.run(sim.all_of(procs))
    return report


def run_closed_loop_experiment(
    database: WhitePages,
    *,
    pool_queries: Sequence[str],
    client_payloads,
    clients: int,
    queries_per_client: int = 30,
    client_domain: str = "actyp",
    spec: Optional[DeploymentSpec] = None,
    replicas: int = 1,
    split_parts: int = 0,
    seed: int = 0,
) -> ResponseTimeStats:
    """One-call harness for the figure experiments.

    Creates the deployment, pre-creates one pool per ``pool_queries``
    entry (optionally replicated or split), runs ``clients`` closed-loop
    clients, and returns the response-time stats.

    ``client_payloads(client_index, iteration, rng) -> str`` chooses each
    query; typically it stripes uniformly across ``pool_queries``.
    """
    deployment = SimulatedDeployment(database, spec=spec, seed=seed)
    for q in pool_queries:
        deployment.precreate_pool(q, replicas=replicas)
        if split_parts >= 2:
            deployment.split_pool(q, split_parts)
    client_spec = ClientSpec(count=clients,
                             queries_per_client=queries_per_client,
                             domain=client_domain)
    return deployment.run_clients(client_spec, client_payloads)
