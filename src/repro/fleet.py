"""Synthetic machine-fleet construction.

The paper's controlled experiments run against "a database of 3,200
machines"; production PUNCH mixed Sun and HP workstations with a handful
of big shared-memory servers.  :func:`build_fleet` generates such
databases deterministically: machine records with admin parameters
(``arch``, ``memory``, ``ostype``, ``domain``, licenses, ...) drawn from a
configurable composition, plus an optional explicit ``pool`` striping tag
used by the figure experiments to spread machines uniformly across pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.database.records import MachineRecord
from repro.database.shadow import ShadowAccountRegistry
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import ConfigError

__all__ = ["ArchProfile", "FleetSpec", "build_fleet", "build_database",
           "build_shard_service"]


@dataclass(frozen=True)
class ArchProfile:
    """One architecture's share of the fleet and its hardware envelope."""

    arch: str
    ostype: str
    fraction: float
    memory_choices_mb: Tuple[int, ...] = (128, 256, 512)
    speed_range: Tuple[float, float] = (200.0, 400.0)
    cpus_choices: Tuple[int, ...] = (1,)
    licenses: Tuple[str, ...] = ()


#: Composition loosely matching turn-of-the-century PUNCH: mostly Sun
#: workstations, a large HP population, a few multi-CPU servers.
DEFAULT_PROFILES: Tuple[ArchProfile, ...] = (
    ArchProfile("sun", "solaris", 0.55,
                memory_choices_mb=(128, 256, 512, 1024),
                speed_range=(250.0, 450.0), cpus_choices=(1, 1, 2),
                licenses=("tsuprem4", "spice")),
    ArchProfile("hp", "hpux", 0.30,
                memory_choices_mb=(128, 256, 512),
                speed_range=(200.0, 380.0), cpus_choices=(1,),
                licenses=("spice",)),
    ArchProfile("x86", "linux", 0.15,
                memory_choices_mb=(256, 512, 1024),
                speed_range=(300.0, 500.0), cpus_choices=(1, 2, 4),
                licenses=()),
)


@dataclass(frozen=True)
class FleetSpec:
    """Parameters of a synthetic fleet."""

    size: int = 3200
    domain: str = "purdue"
    profiles: Tuple[ArchProfile, ...] = DEFAULT_PROFILES
    #: Stripe machines across this many experiment pools via the ``pool``
    #: admin parameter ("uniformly distributed across pools").
    stripe_pools: int = 0
    shadow_accounts_per_machine: int = 8
    tool_groups: Tuple[str, ...] = ("general",)
    user_groups: Tuple[str, ...] = ("public", "ece")
    seed: int = 7

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigError("fleet size must be >= 0")
        if self.stripe_pools < 0:
            raise ConfigError("stripe_pools must be >= 0")
        total = sum(p.fraction for p in self.profiles)
        if self.profiles and not 0.999 <= total <= 1.001:
            raise ConfigError(
                f"profile fractions must sum to 1.0, got {total}"
            )


def build_fleet(spec: FleetSpec) -> List[MachineRecord]:
    """Deterministically generate the machine records of a fleet."""
    rng = np.random.default_rng(spec.seed)
    records: List[MachineRecord] = []
    # Assign counts per profile by largest-remainder so they sum exactly.
    raw = [p.fraction * spec.size for p in spec.profiles]
    counts = [int(x) for x in raw]
    remainder = spec.size - sum(counts)
    order = np.argsort([c - r for c, r in zip(counts, raw)])
    for i in range(remainder):
        counts[order[i % len(counts)]] += 1

    serial = 0
    for profile, count in zip(spec.profiles, counts):
        for _ in range(count):
            name = f"{profile.arch}{serial:05d}.{spec.domain}.edu"
            memory = int(rng.choice(profile.memory_choices_mb))
            speed = float(rng.uniform(*profile.speed_range))
            cpus = int(rng.choice(profile.cpus_choices))
            params: Dict[str, str] = {
                "arch": profile.arch,
                "ostype": profile.ostype,
                "osversion": f"{int(rng.integers(5, 9))}.{int(rng.integers(0, 10))}",
                "memory": str(memory),
                "swap": str(memory * 2),
                "owner": spec.domain,
                "domain": spec.domain,
            }
            for license_name in profile.licenses:
                # Half of the machines of a profile carry each license.
                if rng.random() < 0.5:
                    params["license"] = license_name
            if spec.stripe_pools > 0:
                params["pool"] = f"p{serial % spec.stripe_pools:02d}"
            records.append(MachineRecord(
                machine_name=name,
                available_memory_mb=float(memory),
                available_swap_mb=float(memory * 2),
                effective_speed=speed,
                num_cpus=cpus,
                max_allowed_load=float(cpus) * 4.0,
                current_load=float(rng.uniform(0.0, 1.0)),
                user_groups=frozenset(spec.user_groups),
                tool_groups=frozenset(spec.tool_groups),
                shadow_account_pool=f"shadow:{name}",
                admin_parameters=params,
            ))
            serial += 1
    return records


def build_database(
    spec: Optional[FleetSpec] = None,
    *,
    with_shadows: bool = False,
):
    """Build a :class:`WhitePagesDatabase` (and optionally shadow
    registry) over a synthetic fleet."""
    spec = spec or FleetSpec()
    records = build_fleet(spec)
    db = WhitePagesDatabase(records)
    registry: Optional[ShadowAccountRegistry] = None
    if with_shadows:
        registry = ShadowAccountRegistry()
        for rec in records:
            registry.create_pool(rec.machine_name,
                                 count=spec.shadow_accounts_per_machine)
    return db, registry


def build_shard_service(
    shards: int,
    snapshot_dir,
    *,
    records: Optional[List[MachineRecord]] = None,
    spec: Optional[FleetSpec] = None,
    host: str = "127.0.0.1",
    wal: str = "fsync",
    wal_interval: float = 0.0,
    slow_op_threshold: float = 0.25,
):
    """A configured (not yet started) shard-worker supervisor.

    The one-stop constructor the CLI and deployments share: seed
    records come from ``records`` verbatim, else from ``spec`` (a
    synthetic fleet), else the supervisor adopts whatever checkpoint or
    seed already lives in ``snapshot_dir`` (the restart-the-world
    path).  ``wal`` defaults to ``"fsync"`` here — a *service* fleet
    should be durable unless the operator opts out — while the library
    :class:`~repro.database.service.ShardSupervisor` default stays
    ``"off"`` for PR 5 compatibility.
    """
    from repro.database.service import ShardSupervisor
    if records is None and spec is not None:
        records = build_fleet(spec)
    return ShardSupervisor(
        shards, host=host, snapshot_dir=snapshot_dir,
        records=records or (),
        wal=wal, wal_interval=wal_interval,
        slow_op_threshold=slow_op_threshold)
