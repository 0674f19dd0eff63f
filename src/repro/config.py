"""Configuration dataclasses for every ActYP component.

All tunables live here so that experiments and the
``benchmarks/test_ablation_*.py`` ablations sweep them from one place.
The defaults are calibrated so the simulated pipeline reproduces the
*shape* and rough magnitudes of the paper's figures (response times of
0.1—1.5 s for a 3,200-machine database).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

__all__ = [
    "CostModel",
    "QueryManagerConfig",
    "PoolManagerConfig",
    "ResourcePoolConfig",
    "PipelineConfig",
    "MonitorConfig",
    "LatencyConfig",
]


@dataclass(frozen=True)
class CostModel:
    """Per-operation service times (seconds) of the simulated components.

    The paper's prototype ran the ActYP components on a 524 MHz 12-processor
    Alpha; a query's response time decomposes into per-stage processing plus
    a per-machine linear scan inside the pool scheduler ("the linear plots
    are simply a function of the linear search algorithms employed for
    scheduling", Section 7).  The dominant figure-shaping term is
    ``pool_scan_per_machine_s`` multiplied by the pool's cache size.
    """

    #: Fixed cost of parsing/translating a query at a query manager.
    qm_translate_s: float = 2.0e-3
    #: Cost of decomposing one composite component.
    qm_decompose_per_component_s: float = 5.0e-4
    #: Fixed cost of mapping a query to a pool name at a pool manager.
    pm_map_s: float = 1.5e-3
    #: Cost of a directory lookup for pool instances.
    pm_directory_lookup_s: float = 5.0e-4
    #: Cost of creating (forking + initialising) a pool, excluding the
    #: white-pages walk.
    pool_create_fixed_s: float = 2.0e-2
    #: Per-machine cost of the white-pages walk during pool initialisation.
    pool_create_per_machine_s: float = 1.0e-5
    #: Fixed per-query cost inside a resource pool (accept, respond).
    #: Kept well below one scan so Figure 6's slopes stay proportional to
    #: the pool size, as in the paper.
    pool_fixed_s: float = 5.0e-4
    #: Per-machine linear-scan cost of the pool scheduler — the knob that
    #: produces Figure 6's linear growth.  Calibrated against Figure 6:
    #: a 3,200-machine pool with 70 closed-loop clients sits near 1.3 s,
    #: so one scan costs ~19 ms, i.e. ~6 µs/machine on the paper's
    #: 524 MHz Alpha.
    pool_scan_per_machine_s: float = 6.0e-6
    #: Cost of allocating a shadow account on the selected machine.
    shadow_alloc_s: float = 2.0e-4
    #: Cost of reintegrating one composite component's result.
    qm_reintegrate_per_component_s: float = 5.0e-4

    def validated(self) -> "CostModel":
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"CostModel.{name} must be >= 0, got {value}")
        return self


@dataclass(frozen=True)
class LatencyConfig:
    """Network latency parameters for the LAN and WAN configurations.

    The paper's LAN experiments kept clients and ActYP in one campus
    network; the WAN experiment put clients at Purdue (US) and the service
    at UPC (Spain) — a transatlantic RTT on the order of 120–150 ms in
    2001.  ``one way = base + jitter`` with exponential jitter.
    """

    lan_base_s: float = 0.4e-3
    lan_jitter_s: float = 0.1e-3
    wan_base_s: float = 65.0e-3
    wan_jitter_s: float = 8.0e-3

    def validated(self) -> "LatencyConfig":
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"LatencyConfig.{name} must be >= 0, got {value}")
        return self


@dataclass(frozen=True)
class QueryManagerConfig:
    """Query manager stage configuration (Section 5.2.1)."""

    #: How the stage picks a pool manager for a basic query:
    #: ``"parameter"`` (by configured parameter rules), ``"random"``, or
    #: ``"round_robin"``.
    selection_policy: str = "random"
    #: Parameter key used by the ``"parameter"`` policy (e.g. ``"arch"``).
    selection_parameter: str = "arch"
    #: Number of server threads (capacity of the stage's service station).
    concurrency: int = 4
    #: Composite-query reintegration policy: ``"first_match"`` (Section
    #: 6's low-latency mode) or ``"all"`` (wait for every component and
    #: take the highest-preference success).
    reintegration_policy: str = "first_match"
    #: Redundant fan-out: dispatch each component to this many distinct
    #: pool managers and use the first response (Section 6's higher-QoS
    #: mode).  1 = no redundancy.
    fanout: int = 1

    def validated(self) -> "QueryManagerConfig":
        if self.selection_policy not in ("parameter", "random", "round_robin"):
            raise ConfigError(
                f"unknown query-manager selection policy {self.selection_policy!r}"
            )
        if self.concurrency < 1:
            raise ConfigError("query-manager concurrency must be >= 1")
        if self.reintegration_policy not in ("first_match", "all"):
            raise ConfigError(
                f"unknown reintegration policy {self.reintegration_policy!r}"
            )
        if self.fanout < 1:
            raise ConfigError("fanout must be >= 1")
        return self


@dataclass(frozen=True)
class PoolManagerConfig:
    """Pool manager stage configuration (Section 5.2.2)."""

    #: Initial time-to-live for delegated queries.
    delegation_ttl: int = 4
    #: Whether this pool manager may create new pools on demand.
    may_create_pools: bool = True
    #: Number of server threads.
    concurrency: int = 4
    #: When a creation walk aggregates nothing, reclaim idle local pools
    #: and retry once (the dis-aggregation extension; see
    #: :mod:`repro.core.janitor`).
    reclaim_on_miss: bool = False
    #: Idle threshold for on-miss reclamation.
    reclaim_idle_timeout_s: float = 60.0

    def validated(self) -> "PoolManagerConfig":
        if self.delegation_ttl < 0:
            raise ConfigError("delegation TTL must be >= 0")
        if self.concurrency < 1:
            raise ConfigError("pool-manager concurrency must be >= 1")
        if self.reclaim_idle_timeout_s < 0:
            raise ConfigError("reclaim_idle_timeout_s must be >= 0")
        return self


@dataclass(frozen=True)
class ResourcePoolConfig:
    """Resource pool configuration (Section 5.2.3)."""

    #: Scheduling objective used to order the cache; one of the names
    #: registered in :mod:`repro.core.scheduling`.
    objective: str = "least_load"
    #: Number of scheduler processes attached to the pool object; Figure 8's
    #: "concurrent processes" replication is modelled by running several
    #: instances, each with this many servers.
    scheduler_processes: int = 1
    #: Use the O(n) linear scan the paper describes (True) or the indexed
    #: ablation scheduler (False).
    linear_scan: bool = True
    #: LRU cap on per-query-class rank orders kept by the indexed
    #: scheduler.  Each cached class costs O(pool) memory plus one
    #: re-key per record change; a workload with more live footprint
    #: classes than this thrashes (evict + rebuild per query), so pools
    #: serving diverse predicted-footprint traffic should raise it.
    max_query_classes: int = 8

    def validated(self) -> "ResourcePoolConfig":
        if self.scheduler_processes < 1:
            raise ConfigError("scheduler_processes must be >= 1")
        if self.max_query_classes < 1:
            raise ConfigError("max_query_classes must be >= 1")
        return self


@dataclass(frozen=True)
class MonitorConfig:
    """Resource monitor configuration (Section 4.2)."""

    #: Seconds between refreshes of a machine's dynamic fields.
    update_interval_s: float = 30.0
    #: Staleness bound after which a machine's state is considered unknown.
    staleness_limit_s: float = 120.0

    def validated(self) -> "MonitorConfig":
        if self.update_interval_s <= 0:
            raise ConfigError("update_interval_s must be > 0")
        if self.staleness_limit_s < self.update_interval_s:
            raise ConfigError("staleness_limit_s must be >= update_interval_s")
        return self


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level configuration wiring a whole ActYP deployment."""

    cost: CostModel = field(default_factory=CostModel)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    query_manager: QueryManagerConfig = field(default_factory=QueryManagerConfig)
    pool_manager: PoolManagerConfig = field(default_factory=PoolManagerConfig)
    pool: ResourcePoolConfig = field(default_factory=ResourcePoolConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)

    def validated(self) -> "PipelineConfig":
        self.cost.validated()
        self.latency.validated()
        self.query_manager.validated()
        self.pool_manager.validated()
        self.pool.validated()
        self.monitor.validated()
        return self

    def with_(self, **kwargs) -> "PipelineConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)
