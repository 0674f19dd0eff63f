"""Query-class rank cache scale gates (ISSUE 3 tentpole, part 2).

Query-sensitive objectives (``best_fit_memory``, ``min_response_time``)
used to take the linear walk whenever a query was present.  With the
(machine-static, query-class) decomposition they are served from
per-query-class sorted rank lists: at a 10k-machine pool carved out of a
100k-record white pages, a warm-class ``scan_order`` must be >= 5x
faster than the linear walk, pick the identical machine sequence, and
keep an allocate/release cycle off the O(pool) re-sort.

``REPRO_QCLASS_SCALE_N`` overrides the record count for quick local
iterations; the committed gate runs at the full 100,000.
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

N = int(os.environ.get("REPRO_QCLASS_SCALE_N", "100000"))
STRIPES = 10  # N / 10 machines per pool

POOL_TEXT = "punch.rsrc.pool = p00"
#: The exemplar query plus a predicted footprint — the query class.
QUERY_TEXT = POOL_TEXT + "\npunch.appl.expectedmemoryuse = 300"
RT_QUERY_TEXT = POOL_TEXT + "\npunch.appl.expectedcpuuse = 1200"


def _pool(records, linear: bool, objective: str):
    db = WhitePagesDatabase(records)
    exemplar = parse_query(POOL_TEXT).basic()
    pool = ResourcePool(
        pool_name_for(exemplar), db, exemplar_query=exemplar,
        config=ResourcePoolConfig(objective=objective, linear_scan=linear),
    )
    pool.initialize()
    return db, pool


@pytest.fixture(scope="module")
def records(scale_records):
    return scale_records(N, stripe_pools=STRIPES)


@pytest.fixture(scope="module")
def linear_pool(records):
    return _pool(records, True, "best_fit_memory")


@pytest.fixture(scope="module")
def indexed_pool(records):
    return _pool(records, False, "best_fit_memory")


def test_query_class_scan_order_5x_faster_than_linear(linear_pool,
                                                      indexed_pool):
    _db_l, pl = linear_pool
    _db_i, pi = indexed_pool
    query = parse_query(QUERY_TEXT).basic()
    assert pi._indexed_usable(query)
    pl.scan_order(query), pi.scan_order(query)  # warm (builds the class)
    lin_t, lin_order = _timed(pl.scan_order, query, repeats=5)
    idx_t, idx_order = _timed(pi.scan_order, query, repeats=5)
    assert idx_order == lin_order
    speedup = lin_t / idx_t
    print(f"\n  pool={pl.size}: linear {lin_t * 1e3:.2f} ms, "
          f"query-class cached {idx_t * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"query-class scan_order only {speedup:.1f}x faster than linear "
        f"({idx_t * 1e3:.2f} ms vs {lin_t * 1e3:.2f} ms)"
    )


def test_query_class_allocate_release_beats_linear(linear_pool,
                                                   indexed_pool):
    """An allocate+release cycle under a query class re-keys one machine
    per maintained order instead of re-sorting the pool."""
    _db_l, pl = linear_pool
    _db_i, pi = indexed_pool
    query = parse_query(QUERY_TEXT).basic()

    def cycle(pool):
        alloc = pool.allocate(query)
        pool.release(alloc.access_key)

    cycle(pl), cycle(pi)  # warm
    lin_t, _ = _timed(cycle, pl, repeats=9)
    idx_t, _ = _timed(cycle, pi, repeats=9)
    speedup = lin_t / idx_t
    print(f"\n  allocate+release: linear {lin_t * 1e3:.2f} ms, "
          f"query-class cached {idx_t * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0


def test_selection_sequence_matches_linear(linear_pool, indexed_pool):
    """Allocate a batch under the class; the machine sequences must be
    identical (the gate's equivalence half, at full scale)."""
    _db_l, pl = linear_pool
    _db_i, pi = indexed_pool
    query = parse_query(QUERY_TEXT).basic()
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


def test_min_response_time_class_also_indexed(records, indexed_pool):
    """The second query-sensitive objective rides the same machinery:
    served from a class cache and equal to its own linear recompute."""
    _db, pi = indexed_pool
    db2, p2 = _pool(records, False, "min_response_time")
    query = parse_query(RT_QUERY_TEXT).basic()
    assert p2._indexed_usable(query)
    p2.scan_order(query)  # warm
    idx_t, idx_order = _timed(p2.scan_order, query, repeats=5)
    assert idx_order == p2._linear_order(query)
    lin_t, _ = _timed(p2._linear_order, query, repeats=3)
    speedup = lin_t / idx_t
    print(f"\n  min_response_time: linear {lin_t * 1e3:.2f} ms, "
          f"cached {idx_t * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0


def test_class_rekeys_are_incremental(indexed_pool):
    """A monitoring refresh re-keys the touched machine in the class
    orders, not the whole pool."""
    db, pool = indexed_pool
    query = parse_query(QUERY_TEXT).basic()
    pool.scan_order(query)  # ensure the class order exists
    sched = pool._scheduler
    # Two adequate-footprint values so the class rank (the surplus)
    # provably changes; an inadequate->inadequate refresh is rank-stable
    # (both rank last) and correctly re-keys nothing.
    db.update_dynamic(pool.cache[0], available_memory_mb=400.0)
    before = sched.class_rekeys
    db.update_dynamic(pool.cache[0], available_memory_mb=500.0)
    assert 1 <= sched.class_rekeys - before <= sched.cached_query_classes
    assert pool.scan_order(query) == pool._linear_order(query)
