"""Sharded match scale gates (ISSUE 4).

Two invariants of the in-process sharded engine at 100k records:

- the sharded serial fan-out returns byte-identical results to the
  single-shard engine at scale (the merge-ordering contract, checked on
  a 100k fleet);
- sharding must not tax point writes: a routed ``update_dynamic`` burst
  stays within 3x of the single-shard write path (routing is one CRC
  plus one smaller shard heap, so it is normally *faster*; 3x is the
  generous jitter bound).

``REPRO_SHARDED_SCALE_N`` overrides the record count for quick local
iterations; the committed gate runs at the full 100k.
"""

from __future__ import annotations

import os

import pytest

from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.database.sharding import ShardedWhitePagesDatabase
from repro.fleet import FleetSpec, build_fleet

from benchmarks.conftest import timed_median as _timed

pytestmark = pytest.mark.scale_gate

N = int(os.environ.get("REPRO_SHARDED_SCALE_N", "100000"))
SHARDS = 8
#: Mixed selectivities: a striped pool walk, a two-attr intersection,
#: and two broad range scans (the fan-out's worst and best cases).
QUERY_TEXTS = (
    "punch.rsrc.pool = p07\npunch.rsrc.memory = >=256",
    "punch.rsrc.pool = p11\npunch.rsrc.osversion = 7.3",
    "punch.rsrc.memory = >=128",
    "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256",
)


@pytest.fixture(scope="module")
def fleets():
    from repro.database.whitepages import WhitePagesDatabase
    records = build_fleet(FleetSpec(size=N, seed=11, stripe_pools=32))
    single = WhitePagesDatabase(records)
    sharded = ShardedWhitePagesDatabase(records, shards=SHARDS)
    return single, sharded


@pytest.fixture(scope="module")
def plans():
    return [compile_plan(parse_query(text).basic()) for text in QUERY_TEXTS]


def test_sharded_match_equals_single_shard_at_scale(fleets, plans):
    single, sharded = fleets
    for plan in plans:
        want = [r.machine_name for r in single.match(plan)]
        got = [r.machine_name for r in sharded.match(plan)]
        assert got == want
        assert sharded.count(plan) == len(want)


def test_routed_write_path_not_taxed(fleets):
    single, sharded = fleets
    names = single.names()[:500]

    def burst(db):
        for i, name in enumerate(names):
            db.update_dynamic(name, current_load=float(i % 4))

    burst(single), burst(sharded)  # warm
    single_t, _ = _timed(burst, single, repeats=5)
    sharded_t, _ = _timed(burst, sharded, repeats=5)
    ratio = sharded_t / single_t
    print(f"\n  update_dynamic burst: single {single_t * 1e3:.2f} ms, "
          f"sharded {sharded_t * 1e3:.2f} ms ({ratio:.2f}x)")
    assert ratio <= 3.0, (
        f"routed update_dynamic {ratio:.2f}x slower than single-shard "
        f"(limit 3x)")
