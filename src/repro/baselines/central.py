"""Centralized multi-queue scheduler (the PBS / Sun Grid Engine family).

"Cluster management systems such as Grid Engine, PBS and DQS typically
utilize centralized schedulers.  They accommodate jobs with diverse
resource usage characteristics by employing multiple submit queues (e.g.,
one queue for short jobs; another for large ones)" (Section 8).

The scheduler owns the whole machine set; every query goes through the
single scheduler, which classifies it into a queue by predicted CPU time
and then scans the *entire* machine set for the best admissible host.
The single scan over all machines (no aggregation) is what the pipeline's
dynamic pools avoid — the ablation bench shows the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.plan import compile_plan, machine_admissible
from repro.core.query import Allocation, Query
from repro.core.scheduling import get_objective
from repro.database.records import MachineRecord
from repro.database.sharding import WhitePages
from repro.errors import ConfigError, NoResourceAvailableError

import secrets

__all__ = ["QueueSpec", "CentralizedScheduler"]


@dataclass(frozen=True)
class QueueSpec:
    """One submit queue: a CPU-time band and a scheduling objective."""

    name: str
    max_cpu_seconds: float  # inclusive upper bound; inf = catch-all
    objective: str = "least_load"


DEFAULT_QUEUES = (
    QueueSpec("short", 60.0, "fastest"),
    QueueSpec("medium", 3600.0, "least_load"),
    QueueSpec("long", float("inf"), "least_load"),
)


class CentralizedScheduler:
    """One scheduler, several queues, full-database scans.

    Matching *semantics* come from the shared engine — the query's
    compiled plan for the constraint half, :func:`machine_admissible`
    for the runtime half — but the default access pattern remains the
    full walk these systems actually perform (their linear cost is the
    comparison the figures draw).  ``use_index=True`` swaps the walk for
    the plan's index path, turning this into the "centralized but
    indexed" ablation point.
    """

    def __init__(self, database: WhitePages,
                 queues: Sequence[QueueSpec] = DEFAULT_QUEUES,
                 *, use_index: bool = False):
        self.use_index = use_index
        if not queues:
            raise ConfigError("need at least one queue")
        bounds = [q.max_cpu_seconds for q in queues]
        if bounds != sorted(bounds):
            raise ConfigError("queues must be ordered by max_cpu_seconds")
        if bounds[-1] != float("inf"):
            raise ConfigError("last queue must be a catch-all (inf bound)")
        self.database = database
        self.queues = tuple(queues)
        self.queue_depths: Dict[str, int] = {q.name: 0 for q in queues}
        self._allocations: Dict[str, str] = {}  # access key -> machine
        self.scans = 0
        self.machines_scanned = 0

    # -- classification -----------------------------------------------------------

    def classify(self, query: Query) -> QueueSpec:
        """Pick the queue whose CPU band contains the prediction."""
        cpu = query.expected_cpu_use
        need = cpu if cpu is not None else 0.0
        for q in self.queues:
            if need <= q.max_cpu_seconds:
                return q
        return self.queues[-1]  # pragma: no cover - inf catch-all

    # -- scheduling -----------------------------------------------------------------

    def submit(self, query: Query) -> Allocation:
        """Scan every machine; allocate the best admissible match."""
        queue = self.classify(query)
        self.queue_depths[queue.name] += 1
        objective = get_objective(queue.objective)
        self.scans += 1
        plan = compile_plan(query)
        best: Optional[MachineRecord] = None
        best_key: Optional[Tuple[float, ...]] = None
        if self.use_index:
            candidates = self.database.match(plan, include_taken=True)
        else:
            candidates = self.database.match(None, include_taken=True)
        for record in candidates:
            self.machines_scanned += 1
            if not self.use_index and not plan.verify(record):
                continue
            if not machine_admissible(record, query):
                continue
            key = objective.rank_key(record, query)
            if best_key is None or key < best_key:
                best, best_key = record, key
        self.queue_depths[queue.name] -= 1
        if best is None:
            raise NoResourceAvailableError(
                f"centralized scheduler found no machine for query "
                f"{query.query_id}"
            )
        access_key = secrets.token_hex(16)
        self.database.update_dynamic(
            best.machine_name,
            current_load=best.current_load + 1.0 / best.num_cpus,
            active_jobs=best.active_jobs + 1,
        )
        self._allocations[access_key] = best.machine_name
        return Allocation(
            machine_name=best.machine_name,
            address=best.machine_name,
            execution_unit_port=best.execution_unit_port,
            access_key=access_key,
            pool_name=f"queue:{queue.name}",
        )

    def release(self, access_key: str) -> None:
        machine = self._allocations.pop(access_key, None)
        if machine is None:
            raise NoResourceAvailableError("unknown access key")
        record = self.database.get(machine)
        self.database.update_dynamic(
            machine,
            current_load=max(0.0, record.current_load - 1.0 / record.num_cpus),
            active_jobs=max(0, record.active_jobs - 1),
        )

    @property
    def scan_cost_per_query(self) -> float:
        """Average machines touched per scheduling decision."""
        return self.machines_scanned / self.scans if self.scans else 0.0
