"""Persistent shard-service scale gates (ISSUE 5).

The shard service keeps live workers (indexes warm) behind the wire
protocol.  Two invariants gate at 100k records:

- remote matches are record- and order-identical to the in-process
  engine at scale;
- the service must not tax routed point writes beyond wire cost:
  an ``update_dynamic`` burst stays under 2 ms/op (localhost RTT plus
  shard work; the in-process path is ~10 us, so this is purely the
  protocol bound).

``REPRO_SHARD_SERVICE_SCALE_N`` overrides the record count for quick
local iterations; the committed gate runs at the full 100k.
"""

from __future__ import annotations

import os

import pytest

from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.database.service import ShardSupervisor
from repro.database.whitepages import WhitePagesDatabase
from repro.fleet import FleetSpec, build_fleet

from benchmarks.conftest import timed_median as _timed

pytestmark = pytest.mark.scale_gate

N = int(os.environ.get("REPRO_SHARD_SERVICE_SCALE_N", "100000"))
SHARDS = 8
#: Selective, mixed-shape queries — the pool-walk-shaped traffic a
#: long-lived service answers repeatedly.
QUERY_TEXTS = (
    "punch.rsrc.pool = p07\npunch.rsrc.memory = >=256",
    "punch.rsrc.pool = p11\npunch.rsrc.osversion = 7.3",
    "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256",
)


@pytest.fixture(scope="module")
def records():
    return build_fleet(FleetSpec(size=N, seed=11, stripe_pools=32))


@pytest.fixture(scope="module")
def service(records, tmp_path_factory):
    sup = ShardSupervisor(
        SHARDS, snapshot_dir=tmp_path_factory.mktemp("shard-service"),
        records=records)
    sup.start()
    yield sup.client()
    sup.stop()


@pytest.fixture(scope="module")
def plans():
    return [compile_plan(parse_query(text).basic()) for text in QUERY_TEXTS]


def test_remote_match_equals_in_process_at_scale(service, records, plans):
    single = WhitePagesDatabase(records)
    for plan in plans:
        want = single.match(plan)
        got = service.match(plan)
        assert [r.machine_name for r in got] == \
            [r.machine_name for r in want]
        assert got == want  # full record fidelity through the row codec
        assert service.count(plan) == len(want)


def test_remote_point_writes_within_wire_budget(service):
    names = service.names()[:200]

    def burst():
        for i, name in enumerate(names):
            service.update_dynamic(name, current_load=float(i % 4))

    burst()  # warm
    burst_t, _ = _timed(burst, repeats=3)
    per_op = burst_t / len(names)
    print(f"\n  remote update_dynamic: {per_op * 1e6:.1f} us/op")
    assert per_op < 2e-3, (
        f"remote update_dynamic {per_op * 1e6:.0f} us/op exceeds the "
        f"2 ms wire budget")
