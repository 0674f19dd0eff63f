"""The per-machine record of the white-pages database (paper Figure 3)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional

from repro.database.fields import MachineState
from repro.errors import ConfigError

__all__ = ["MachineRecord", "ServiceStatusFlags", "RECORD_ROW_FIELDS"]

#: Positional layout of :meth:`MachineRecord.to_row` /
#: :meth:`MachineRecord.from_row` (persistence format v3).  The service
#: status flags are packed into one bit mask (bit 0 = execution unit,
#: bit 1 = PVFS manager, bit 2 = proxy server).  Any change to this
#: tuple is a row-schema change: bump the version embedded in v3
#: snapshots (see :mod:`repro.database.persistence`).
RECORD_ROW_FIELDS = (
    "machine_name", "state", "current_load", "active_jobs",
    "available_memory_mb", "available_swap_mb", "last_update_time",
    "service_flag_bits", "effective_speed", "num_cpus",
    "max_allowed_load", "machine_object_pointer", "shared_account",
    "execution_unit_port", "pvfs_mount_manager_port", "user_groups",
    "tool_groups", "shadow_account_pool", "usage_policy",
    "admin_parameters",
)


@dataclass(frozen=True)
class ServiceStatusFlags:
    """Field 7 — PUNCH service status flags.

    Tracks whether the per-machine daemons ActYP depends on are live; the
    paper's ActYP "verifies that relevant services are available and starts
    daemons as necessary" (Section 2).
    """

    execution_unit_up: bool = True
    pvfs_manager_up: bool = True
    proxy_server_up: bool = True

    @property
    def all_up(self) -> bool:
        return (self.execution_unit_up and self.pvfs_manager_up
                and self.proxy_server_up)


@dataclass(frozen=True)
class MachineRecord:
    """One machine's white-pages entry; field numbers follow Figure 3.

    The record is immutable — the database applies updates by replacing
    records — so resource pools can safely cache references.

    Only ``machine_name`` is required; defaults describe a healthy,
    unloaded, unrestricted machine so tests and examples can build fleets
    tersely.
    """

    # field 11 (the primary key; listed first for construction convenience)
    machine_name: str
    # field 1
    state: MachineState = MachineState.UP
    # fields 2-6 (dynamic; refreshed by monitoring)
    current_load: float = 0.0
    active_jobs: int = 0
    available_memory_mb: float = 512.0
    available_swap_mb: float = 1024.0
    last_update_time: float = 0.0
    # field 7
    service_status_flags: ServiceStatusFlags = field(default_factory=ServiceStatusFlags)
    # fields 8-10 (static)
    effective_speed: float = 300.0
    num_cpus: int = 1
    max_allowed_load: float = 4.0
    # field 12 — path to access/audit info (ssh key, owner, start script)
    machine_object_pointer: str = ""
    # field 13 — shared account ("nobody"-style) if any
    shared_account: Optional[str] = None
    # field 14 — execution unit TCP port (in the shared account, if it exists)
    execution_unit_port: int = 7070
    # field 15 — PVFS mount manager TCP port
    pvfs_mount_manager_port: int = 7071
    # field 16 — allowed user groups
    user_groups: FrozenSet[str] = frozenset({"public"})
    # field 17 — tool groups the machine can run
    tool_groups: FrozenSet[str] = frozenset({"general"})
    # field 18 — name of the machine's shadow-account pool
    shadow_account_pool: str = ""
    # field 19 — usage policy pointer (name of a registered metaprogram)
    usage_policy: Optional[str] = None
    # field 20 — administrator-defined key-value parameters (arch, memory,
    # ostype, osversion, owner, swap, cms, ...)
    admin_parameters: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.machine_name:
            raise ConfigError("machine_name must be non-empty")
        if self.num_cpus < 1:
            raise ConfigError(f"num_cpus must be >= 1, got {self.num_cpus}")
        if self.effective_speed <= 0:
            raise ConfigError("effective_speed must be > 0")
        if self.max_allowed_load <= 0:
            raise ConfigError("max_allowed_load must be > 0")
        if self.current_load < 0 or self.active_jobs < 0:
            raise ConfigError("load and job counts must be >= 0")
        # Freeze the mapping so records are safely hashable by name.
        object.__setattr__(self, "admin_parameters", dict(self.admin_parameters))

    # -- convenience -------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state is MachineState.UP

    @property
    def is_overloaded(self) -> bool:
        """Above the administrator's maximum allowed load (field 10)."""
        return self.current_load >= self.max_allowed_load

    def parameter(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Look up an admin-defined parameter (field 20), e.g. ``arch``."""
        return self.admin_parameters.get(key, default)

    def attribute_view(self) -> Dict[str, Any]:
        """Flatten the record for query matching.

        Admin parameters (field 20) are merged over the built-in fields —
        they are "used by the active yellow pages service at run-time", and
        the query language's ``rsrc`` keys (arch, memory, ...) resolve
        against exactly this view.
        """
        view: Dict[str, Any] = {
            "name": self.machine_name,
            "state": str(self.state),
            "load": self.current_load,
            "jobs": self.active_jobs,
            "freememory": self.available_memory_mb,
            "freeswap": self.available_swap_mb,
            "speed": self.effective_speed,
            "cpus": self.num_cpus,
            "maxload": self.max_allowed_load,
        }
        for key, value in self.admin_parameters.items():
            view[key] = value
        return view

    # -- compact row codec (persistence format v3) -------------------------------

    def to_row(self) -> List[Any]:
        """Positional encoding following :data:`RECORD_ROW_FIELDS`.

        Field values are coerced to their canonical types on the way
        *out* so :meth:`from_row` — the cold-start hot loop — can trust
        the parsed JSON types without per-field conversion.
        """
        flags = self.service_status_flags
        return [
            self.machine_name,
            self.state.value,
            float(self.current_load),
            int(self.active_jobs),
            float(self.available_memory_mb),
            float(self.available_swap_mb),
            float(self.last_update_time),
            (1 if flags.execution_unit_up else 0)
            | (2 if flags.pvfs_manager_up else 0)
            | (4 if flags.proxy_server_up else 0),
            float(self.effective_speed),
            int(self.num_cpus),
            float(self.max_allowed_load),
            self.machine_object_pointer,
            self.shared_account,
            int(self.execution_unit_port),
            int(self.pvfs_mount_manager_port),
            sorted(self.user_groups),
            sorted(self.tool_groups),
            self.shadow_account_pool,
            self.usage_policy,
            dict(self.admin_parameters),
        ]

    @classmethod
    def from_row(cls, row: List[Any]) -> "MachineRecord":
        """Fast loader for :meth:`to_row` output.

        This is the per-record inner loop of a v3 cold start, so it
        deliberately bypasses the dataclass constructor's per-field
        dict dispatch *and* ``__post_init__`` validation: the row came
        from a snapshot this code wrote (types canonicalised by
        ``to_row``, values validated when the record was first built,
        section guarded by the snapshot checksum).  The row's group
        lists and admin-parameter dict are **consumed** — the caller
        must not reuse the row afterwards.  A malformed row surfaces as
        ``ValueError``/``KeyError``/``TypeError`` for the persistence
        layer to wrap.
        """
        (machine_name, state, current_load, active_jobs,
         available_memory_mb, available_swap_mb, last_update_time,
         flag_bits, effective_speed, num_cpus, max_allowed_load,
         machine_object_pointer, shared_account, execution_unit_port,
         pvfs_mount_manager_port, user_groups, tool_groups,
         shadow_account_pool, usage_policy, admin_parameters) = row
        # The same domain guards __post_init__ enforces, applied inline:
        # a hand-edited row must fail at load, not divide by zero in a
        # rank key later.
        if not machine_name:
            raise ValueError("machine_name must be non-empty")
        if num_cpus < 1:
            raise ValueError(f"num_cpus must be >= 1, got {num_cpus}")
        if effective_speed <= 0:
            raise ValueError("effective_speed must be > 0")
        if max_allowed_load <= 0:
            raise ValueError("max_allowed_load must be > 0")
        if current_load < 0 or active_jobs < 0:
            raise ValueError("load and job counts must be >= 0")
        if not 0 <= flag_bits <= 7:
            # Explicit: Python's negative indexing would otherwise map
            # -1 to a valid (and wrong) flag combination silently.
            raise ValueError(f"service flag bits out of range: {flag_bits}")
        rec = object.__new__(cls)
        # Wholesale __dict__ replacement via object.__setattr__ skips
        # the frozen-dataclass __setattr__ machinery (which would raise)
        # and its per-field function-call overhead.
        object.__setattr__(rec, "__dict__", {
            "machine_name": machine_name,
            "state": _STATE_BY_VALUE[state],
            "current_load": current_load,
            "active_jobs": active_jobs,
            "available_memory_mb": available_memory_mb,
            "available_swap_mb": available_swap_mb,
            "last_update_time": last_update_time,
            "service_status_flags": _FLAGS_BY_BITS[flag_bits],
            "effective_speed": effective_speed,
            "num_cpus": num_cpus,
            "max_allowed_load": max_allowed_load,
            "machine_object_pointer": machine_object_pointer,
            "shared_account": shared_account,
            "execution_unit_port": execution_unit_port,
            "pvfs_mount_manager_port": pvfs_mount_manager_port,
            "user_groups": frozenset(user_groups),
            "tool_groups": frozenset(tool_groups),
            "shadow_account_pool": shadow_account_pool,
            "usage_policy": usage_policy,
            "admin_parameters": admin_parameters,
        })
        return rec

    def with_dynamic(
        self,
        *,
        current_load: Optional[float] = None,
        active_jobs: Optional[int] = None,
        available_memory_mb: Optional[float] = None,
        available_swap_mb: Optional[float] = None,
        last_update_time: Optional[float] = None,
        service_status_flags: Optional[ServiceStatusFlags] = None,
        state: Optional[MachineState] = None,
    ) -> "MachineRecord":
        """Copy with monitoring-owned fields (1–7) replaced.

        This is the white-pages write-path hot loop (every monitoring
        refresh and every allocation's load bump), so the copy swaps the
        instance ``__dict__`` directly instead of going through the
        dataclass constructor — ``__post_init__``'s checks on the
        *static* fields cannot fail on a copy, and the two dynamic
        validations it would re-run are applied here explicitly.  The
        admin-parameter mapping is shared, not copied: it was privatised
        when this record was first built and is never mutated.
        """
        updates: Dict[str, Any] = {}
        if current_load is not None:
            if current_load < 0:
                raise ConfigError("load and job counts must be >= 0")
            updates["current_load"] = current_load
        if active_jobs is not None:
            if active_jobs < 0:
                raise ConfigError("load and job counts must be >= 0")
            updates["active_jobs"] = active_jobs
        if available_memory_mb is not None:
            updates["available_memory_mb"] = available_memory_mb
        if available_swap_mb is not None:
            updates["available_swap_mb"] = available_swap_mb
        if last_update_time is not None:
            updates["last_update_time"] = last_update_time
        if service_status_flags is not None:
            updates["service_status_flags"] = service_status_flags
        if state is not None:
            updates["state"] = state
        rec = object.__new__(MachineRecord)
        new_dict = dict(self.__dict__)
        new_dict.update(updates)
        object.__setattr__(rec, "__dict__", new_dict)
        return rec


#: Interned lookup tables for the row fast path: enum resolution and the
#: eight possible flag combinations, built once at import.
_STATE_BY_VALUE: Dict[str, MachineState] = {s.value: s for s in MachineState}
_FLAGS_BY_BITS = tuple(
    ServiceStatusFlags(
        execution_unit_up=bool(bits & 1),
        pvfs_manager_up=bool(bits & 2),
        proxy_server_up=bool(bits & 4),
    )
    for bits in range(8)
)
