"""Microbenchmarks of the hot core operations.

Unlike the figure benches (single-round simulations), these are true
timed microbenchmarks — pytest-benchmark runs them repeatedly — guarding
against performance regressions in the operations the figures' cost model
abstracts: query parsing, pool-name construction, the white-pages walk,
the linear pool scan, and allocation.
"""

from __future__ import annotations

import pytest

from repro.core.language import parse_query
from repro.core.pipeline import build_service
from repro.core.plan import compile_plan
from repro.core.resource_pool import ResourcePool
from repro.core.signature import pool_name_for
from repro.fleet import FleetSpec, build_database

from tests.conftest import linear_oracle

PAPER_QUERY = """
punch.rsrc.arch = sun
punch.rsrc.memory = >=10
punch.rsrc.license = tsuprem4
punch.rsrc.domain = purdue
punch.appl.expectedcpuuse = 1000
punch.user.login = kapadia
punch.user.accessgroup = ece
"""


@pytest.fixture(scope="module")
def big_db():
    db, _ = build_database(FleetSpec(size=3200, seed=7))
    return db


def test_parse_paper_query(benchmark):
    result = benchmark(parse_query, PAPER_QUERY)
    assert not result.is_composite


def test_pool_name_construction(benchmark):
    query = parse_query(PAPER_QUERY).basic()
    name = benchmark(pool_name_for, query)
    assert name.identifier == "sun:purdue:tsuprem4:10"


def test_whitepages_walk_3200(benchmark, big_db):
    """The full walk (the centralized baseline's access pattern)."""
    matches = benchmark(big_db.match, None, include_taken=True)
    assert len(matches) == len(big_db)


def test_whitepages_match_3200(benchmark, big_db):
    """The indexed engine path the pipeline actually takes."""
    query = parse_query(
        "punch.rsrc.arch = sun\npunch.rsrc.memory = >=512").basic()
    plan = compile_plan(query)
    matches = benchmark(big_db.match, plan)
    assert matches
    assert [r.machine_name for r in matches] == \
        [r.machine_name
         for r in linear_oracle(big_db, query.matches_machine)]


def test_pool_scan_order_3200(benchmark, big_db):
    query = parse_query("punch.rsrc.arch = sun").basic()
    pool = ResourcePool(pool_name_for(query), big_db, exemplar_query=query)
    pool.initialize()
    try:
        order = benchmark(pool.scan_order, query)
        assert len(order) == pool.size
    finally:
        pool.destroy()


def test_allocate_release_cycle(benchmark, big_db):
    query = parse_query("punch.rsrc.arch = hp").basic()
    pool = ResourcePool(pool_name_for(query), big_db, exemplar_query=query)
    pool.initialize()

    def cycle():
        alloc = pool.allocate(query)
        pool.release(alloc.access_key)

    try:
        benchmark(cycle)
        assert pool.active_runs == 0
    finally:
        pool.destroy()


def test_end_to_end_submit_small_fleet(benchmark):
    db, _ = build_database(FleetSpec(size=200, seed=7))
    service = build_service(db)
    service.submit("punch.rsrc.arch = sun")  # create the pool once

    def cycle():
        result = service.submit("punch.rsrc.arch = sun")
        service.release(result.allocation.access_key)
        return result

    result = benchmark(cycle)
    assert result.ok
