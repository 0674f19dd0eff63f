"""In-pool scheduler scale gates (ISSUE 2 tentpole, part 1).

At a 10k-machine pool carved out of a 100k-record white pages, the
indexed scheduler (``linear_scan=False``) must produce ``scan_order``
>= 10x faster than the paper's linear walk on a selective query, pick the
identical machine sequence, and keep per-allocation work bounded by the
early-exit walk instead of the pool size.

``REPRO_POOL_SCALE_N`` overrides the record count for quick local
iterations; the committed gate runs at the full 100,000 (10 striped
pools of 10,000 machines each).
"""

from __future__ import annotations

import os

import pytest

from repro.config import ResourcePoolConfig
from repro.core.language import parse_query
from repro.core.resource_pool import ResourcePool
from repro.core.signature import pool_name_for
from repro.database.whitepages import WhitePagesDatabase

from benchmarks.conftest import timed_median as _timed

pytestmark = pytest.mark.scale_gate

N = int(os.environ.get("REPRO_POOL_SCALE_N", "100000"))
STRIPES = 10  # N / 10 machines per pool

QUERY_TEXT = "punch.rsrc.pool = p00"


def _pool(records, linear: bool):
    db = WhitePagesDatabase(records)
    query = parse_query(QUERY_TEXT).basic()
    pool = ResourcePool(
        pool_name_for(query), db, exemplar_query=query,
        instance_number=0, replica_count=2,
        config=ResourcePoolConfig(linear_scan=linear),
    )
    pool.initialize()
    return db, pool, query


@pytest.fixture(scope="module")
def records(scale_records):
    return scale_records(N, stripe_pools=STRIPES)


@pytest.fixture(scope="module")
def linear_pool(records):
    return _pool(records, True)


@pytest.fixture(scope="module")
def indexed_pool(records):
    return _pool(records, False)


def test_pools_aggregate_the_same_cache(linear_pool, indexed_pool):
    assert linear_pool[1].cache == indexed_pool[1].cache
    assert linear_pool[1].size == N // STRIPES


def test_indexed_scan_order_10x_faster_than_linear(linear_pool,
                                                   indexed_pool):
    _db_l, pl, query = linear_pool
    _db_i, pi, _ = indexed_pool
    pl.scan_order(query), pi.scan_order(query)  # warm
    lin_t, lin_order = _timed(pl.scan_order, query, repeats=5)
    idx_t, idx_order = _timed(pi.scan_order, query, repeats=5)
    assert idx_order == lin_order
    speedup = lin_t / idx_t
    print(f"\n  pool={pl.size}: linear {lin_t * 1e3:.2f} ms, "
          f"indexed {idx_t * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 10.0, (
        f"indexed scan_order only {speedup:.1f}x faster than linear "
        f"({idx_t * 1e3:.2f} ms vs {lin_t * 1e3:.2f} ms)"
    )


def test_indexed_allocate_release_beats_linear(linear_pool, indexed_pool):
    """A full allocate+release cycle re-ranks one machine (two bisects)
    instead of re-sorting the pool; at 10k machines that must be a
    large constant-factor win."""
    _db_l, pl, query = linear_pool
    _db_i, pi, _ = indexed_pool

    def cycle(pool):
        alloc = pool.allocate(query)
        pool.release(alloc.access_key)

    cycle(pl), cycle(pi)  # warm
    lin_t, _ = _timed(cycle, pl, repeats=9)
    idx_t, _ = _timed(cycle, pi, repeats=9)
    speedup = lin_t / idx_t
    print(f"\n  allocate+release: linear {lin_t * 1e3:.2f} ms, "
          f"indexed {idx_t * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 10.0


def test_indexed_selection_sequence_matches_linear(linear_pool,
                                                   indexed_pool):
    """Allocate until both pools run dry; the two machine sequences must
    be identical (the gate's equivalence half, at full scale)."""
    _db_l, pl, query = linear_pool
    _db_i, pi, _ = indexed_pool
    batch = 50
    lin = pl.allocate_many(query, batch)
    idx = pi.allocate_many(query, batch)
    try:
        assert [a.machine_name for a in lin] == \
            [a.machine_name for a in idx]
    finally:
        for a in lin:
            pl.release(a.access_key)
        for a in idx:
            pi.release(a.access_key)


def test_rekey_is_incremental(indexed_pool):
    """A monitoring refresh of one machine re-keys exactly one entry."""
    db, pool, query = indexed_pool
    before = pool._scheduler.rekeys
    db.update_dynamic(pool.cache[0], current_load=3.7)
    assert pool._scheduler.rekeys == before + 1
    assert pool.scan_order(query) == pool._linear_order(query)
