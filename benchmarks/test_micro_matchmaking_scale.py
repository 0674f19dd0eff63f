"""Matchmaking-engine scale benchmarks (the tentpole acceptance gate).

At 100k white-pages records, the indexed ``match()`` path must beat a
brute-force linear walk (the test oracle) by >= 10x on a representative
equality+range query, return byte-identical results, and stay
near-constant in database size when the probe itself is selective.

``REPRO_MATCH_SCALE_N`` overrides the record count (e.g. for quick local
iterations); the committed gate runs at the full 100,000.
"""

from __future__ import annotations

import os
from functools import partial
import time

import pytest

from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.fleet import FleetSpec, build_database

from benchmarks.conftest import timed_median
from tests.conftest import linear_oracle

pytestmark = pytest.mark.scale_gate

_timed = partial(timed_median, repeats=3)

N = int(os.environ.get("REPRO_MATCH_SCALE_N", "100000"))
SMALL_N = max(1000, N // 8)

#: Equality (pool striping tag) + range (installed memory): the shape of
#: the paper's sample query, selective enough that a real deployment
#: would expect index-speed answers.
QUERY_TEXT = """
punch.rsrc.pool = p07
punch.rsrc.memory = >=256
"""


@pytest.fixture(scope="module")
def scale_db():
    db, _ = build_database(FleetSpec(size=N, seed=11, stripe_pools=32))
    return db


@pytest.fixture(scope="module")
def small_scale_db():
    db, _ = build_database(FleetSpec(size=SMALL_N, seed=11, stripe_pools=32))
    return db


def test_match_equals_scan_at_scale(scale_db):
    query = parse_query(QUERY_TEXT).basic()
    indexed = scale_db.match(compile_plan(query))
    oracle = linear_oracle(scale_db, query.matches_machine)
    assert [r.machine_name for r in indexed] == \
        [r.machine_name for r in oracle]
    assert len(indexed) > 0


def test_indexed_match_10x_faster_than_linear_scan(scale_db):
    query = parse_query(QUERY_TEXT).basic()
    plan = compile_plan(query)
    scale_db.match(plan)  # warm
    match_t, matched = _timed(scale_db.match, plan, repeats=5)
    scan_t, scanned = _timed(linear_oracle, scale_db, query.matches_machine,
                             repeats=3)
    assert len(matched) == len(scanned)
    speedup = scan_t / match_t
    print(f"\n  n={N}: scan {scan_t * 1e3:.1f} ms, "
          f"match {match_t * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 10.0, (
        f"indexed match only {speedup:.1f}x faster than linear scan "
        f"({match_t * 1e3:.2f} ms vs {scan_t * 1e3:.2f} ms)"
    )


def test_selective_probe_near_constant_in_database_size(scale_db,
                                                        small_scale_db):
    """An empty-posting equality probe must not degrade with 8x the
    records — the index answers without touching the record set."""
    query = parse_query("punch.rsrc.arch = cray\n"
                        "punch.rsrc.memory = >=256").basic()
    plan = compile_plan(query)
    small_scale_db.match(plan)
    scale_db.match(plan)
    small_t, small_out = _timed(small_scale_db.match, plan, repeats=20)
    big_t, big_out = _timed(scale_db.match, plan, repeats=20)
    assert small_out == [] and big_out == []
    # Allow generous jitter on micro timings; a linear walk would be ~8x.
    assert big_t <= max(small_t * 4.0, 200e-6), (
        f"selective probe degraded with size: {small_t * 1e6:.1f} us at "
        f"{SMALL_N} records vs {big_t * 1e6:.1f} us at {N}"
    )


def test_pool_walk_uses_index_at_scale(scale_db):
    """Pool initialisation (white-pages walk + take) should be bounded by
    the pool's own size, not the database's."""
    from repro.core.resource_pool import ResourcePool
    from repro.core.signature import pool_name_for

    query = parse_query(QUERY_TEXT).basic()
    pool = ResourcePool(pool_name_for(query), scale_db, exemplar_query=query)
    t0 = time.perf_counter()
    aggregated = pool.initialize()
    walk_t = time.perf_counter() - t0
    try:
        assert aggregated == len(scale_db.match(
            compile_plan(query), include_taken=True))
        # The old full-database walk took ~0.5 s here; the indexed walk
        # touches ~aggregated records plus take() bookkeeping.
        assert walk_t < 0.25, f"pool walk took {walk_t:.3f} s at n={N}"
    finally:
        pool.destroy()


def test_dynamic_update_stays_cheap_at_scale(scale_db):
    names = scale_db.names()[:500]
    t0 = time.perf_counter()
    for i, name in enumerate(names):
        scale_db.update_dynamic(name, current_load=float(i % 4),
                                active_jobs=i % 3)
    per_op = (time.perf_counter() - t0) / len(names)
    # Diff-based reindexing: a monitoring refresh is microseconds, far
    # below even one linear scan amortised over updates.
    assert per_op < 2e-3, f"update_dynamic costs {per_op * 1e6:.0f} us/op"
