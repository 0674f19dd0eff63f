"""White-pages resource database and directory substrates (Section 4.1).

The paper's ActYP service sits on top of a custom per-machine database —
the "white pages" — whose 20 fields are listed in Figure 3.  Resource
pools walk this database at initialisation time to aggregate machines
matching their constraint, marking them ``taken``; pool managers track pool
instances in a *local directory service*; shadow accounts on each machine
are managed through a secondary database referenced by field 18.

Public API:

- :class:`~repro.database.records.MachineRecord` / ``MachineState`` — the
  Figure 3 schema.
- :class:`~repro.database.whitepages.WhitePagesDatabase` — registry with
  match/take/release operations.
- :mod:`~repro.database.sharding` — partitioning: the stable
  :func:`~repro.database.sharding.shard_of` hash, ``partition`` of
  records into per-shard groups, and per-shard snapshot manifests
  (saved from partitions, loaded back into one database).
- :class:`~repro.database.service.ShardServiceClient` /
  :class:`~repro.database.service.ShardSupervisor` — the persistent
  shard service: the same surface, but hash-partitioned over live
  out-of-process
  :class:`~repro.runtime.shard_worker.ShardWorker` processes behind
  the wire protocol (import :mod:`repro.database.service` directly;
  kept out of this namespace so the core database layer does not pull
  the runtime at import time).
- :mod:`~repro.database.indexes` — the matchmaking engine's storage half:
  incrementally-maintained hash/sorted attribute indexes the database
  executes compiled query plans against.
- :class:`~repro.database.directory.LocalDirectoryService` — pool-instance
  registry used by pool managers.
- :class:`~repro.database.shadow.ShadowAccountPool` — per-machine shadow
  account allocation.
- :mod:`~repro.database.policy` — usage-policy metaprograms (field 19).
"""

from repro.database.fields import FIELD_NAMES, MachineState
from repro.database.indexes import AttributeIndexCatalog
from repro.database.records import MachineRecord
from repro.database.whitepages import WhitePagesDatabase
from repro.database.sharding import (
    WhitePages,
    load_sharded_database,
    partition,
    save_sharded_database,
    shard_of,
)
from repro.database.directory import LocalDirectoryService, PoolInstanceEntry
from repro.database.shadow import ShadowAccount, ShadowAccountPool

__all__ = [
    "FIELD_NAMES",
    "MachineState",
    "MachineRecord",
    "AttributeIndexCatalog",
    "WhitePagesDatabase",
    "WhitePages",
    "shard_of",
    "partition",
    "save_sharded_database",
    "load_sharded_database",
    "LocalDirectoryService",
    "PoolInstanceEntry",
    "ShadowAccount",
    "ShadowAccountPool",
]
