"""Shared fixtures for the ActYP reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.records import MachineRecord
from repro.database.whitepages import WhitePagesDatabase
from repro.fleet import FleetSpec, build_database
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_machine(name: str = "m0", **overrides) -> MachineRecord:
    """A healthy sun/solaris machine with common admin parameters."""
    params = {
        "arch": "sun",
        "ostype": "solaris",
        "memory": "256",
        "swap": "512",
        "domain": "purdue",
        "owner": "purdue",
    }
    params.update(overrides.pop("admin_parameters", {}))
    defaults = dict(
        machine_name=name,
        available_memory_mb=256.0,
        admin_parameters=params,
    )
    defaults.update(overrides)
    return MachineRecord(**defaults)


def linear_oracle(db, predicate=None, include_taken=False):
    """Brute-force reference for ``match``: every record the predicate
    accepts, in name order, untaken only unless ``include_taken``.

    Walks the public point reads (``names``/``get``/``holder_of``) so it
    works on every engine and shares nothing with plans, indexes or
    columns — the code under test.
    """
    out = []
    for name in db.names():
        if not include_taken and db.holder_of(name) is not None:
            continue
        record = db.get(name)
        if predicate is None or predicate(record):
            out.append(record)
    return out


@pytest.fixture
def small_db() -> WhitePagesDatabase:
    """Ten machines: six sun, four hp."""
    records = []
    for i in range(6):
        records.append(make_machine(f"sun{i:02d}"))
    for i in range(4):
        records.append(make_machine(
            f"hp{i:02d}",
            admin_parameters={"arch": "hp", "ostype": "hpux"},
        ))
    return WhitePagesDatabase(records)


@pytest.fixture
def fleet_db() -> WhitePagesDatabase:
    """A deterministic 200-machine fleet."""
    db, _ = build_database(FleetSpec(size=200, seed=3))
    return db


# Re-export for direct import in test modules.
__all__ = ["make_machine", "linear_oracle"]
