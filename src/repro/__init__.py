"""Reproduction of *Active Yellow Pages: A Pipelined Resource Management
Architecture for Wide-Area Network Computing* (HPDC 2001).

The package implements the ActYP resource-management pipeline — query
managers, pool managers, and dynamically aggregated resource pools — plus
the substrates the pipeline itself runs on: the white-pages machine
database (in process, or hash-partitioned over shard-worker processes),
resource monitoring, shadow accounts, a simulated network fabric, a
discrete-event simulation kernel for the controlled experiments of
Section 7, and an asyncio live runtime.

Quickstart::

    from repro import FleetSpec, build_database, build_service

    db, _ = build_database(FleetSpec(size=100))
    service = build_service(db)
    result = service.submit('''
        punch.rsrc.arch = sun
        punch.rsrc.memory = >=128
        punch.user.login = kapadia
        punch.user.accessgroup = public
    ''')
    print(result.allocation)

See ARCHITECTURE.md for the system inventory and the record of how each
figure is reproduced.
"""

from repro.config import (
    CostModel,
    LatencyConfig,
    MonitorConfig,
    PipelineConfig,
    PoolManagerConfig,
    QueryManagerConfig,
    ResourcePoolConfig,
)
from repro.core import (
    ActYPService,
    Allocation,
    Clause,
    Op,
    PoolName,
    Query,
    QueryResult,
    build_service,
    parse_query,
    pool_name_for,
    punch_language,
)
from repro.core.resource_pool import ResourcePool
from repro.database import (
    LocalDirectoryService,
    MachineRecord,
    MachineState,
    ShadowAccountPool,
    WhitePagesDatabase,
)
from repro.errors import ReproError
from repro.fleet import ArchProfile, FleetSpec, build_database, build_fleet
from repro.monitoring import ResourceMonitor

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "CostModel",
    "LatencyConfig",
    "MonitorConfig",
    "PipelineConfig",
    "PoolManagerConfig",
    "QueryManagerConfig",
    "ResourcePoolConfig",
    # core pipeline
    "ActYPService",
    "Allocation",
    "Clause",
    "Op",
    "PoolName",
    "Query",
    "QueryResult",
    "ResourcePool",
    "build_service",
    "parse_query",
    "pool_name_for",
    "punch_language",
    # database substrate
    "LocalDirectoryService",
    "MachineRecord",
    "MachineState",
    "ShadowAccountPool",
    "WhitePagesDatabase",
    # monitoring
    "ResourceMonitor",
    # fleets
    "ArchProfile",
    "FleetSpec",
    "build_database",
    "build_fleet",
    # errors
    "ReproError",
]
