"""Multi-index plan intersection scale gates (ISSUE 2 tentpole, part 2).

A conjunction of two mid-selectivity equalities (each matching a few
thousand of 100k records, jointly a few dozen) is the case a single
most-selective access path handles worst: it verifies every candidate of
one posting set.  Intersecting the two posting sets first must be >= 2x
faster, return identical results, and never slow down a query whose
second probe fails the selectivity-ratio cutoff.

``REPRO_MATCH_SCALE_N`` overrides the record count (shared with the
matchmaking scale gate); the committed gate runs at 100,000.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.database.whitepages import WhitePagesDatabase

from benchmarks.conftest import timed_median
from tests.conftest import linear_oracle

pytestmark = pytest.mark.scale_gate

_timed = partial(timed_median, repeats=9)

N = int(os.environ.get("REPRO_MATCH_SCALE_N", "100000"))

#: pool stripes 1/32 of the fleet, osversion ~1/40 — two mid-selectivity
#: equalities whose conjunction is tiny.
TWO_EQ_TEXT = "punch.rsrc.pool = p07\npunch.rsrc.osversion = 7.3"
#: The memory range probe covers most of the fleet: the cutoff must skip
#: it rather than walk a 60k-name range for a 3k-candidate base set.
CUTOFF_TEXT = "punch.rsrc.pool = p07\npunch.rsrc.memory = >=256"


@pytest.fixture(scope="module")
def scale_db(scale_records):
    return WhitePagesDatabase(scale_records(N))


def test_intersection_equals_single_path_and_oracle(scale_db):
    query = parse_query(TWO_EQ_TEXT).basic()
    plan = compile_plan(query)
    intersected = [r.machine_name for r in scale_db.match(plan)]
    scale_db.intersect_max_paths = 1
    try:
        single = [r.machine_name for r in scale_db.match(plan)]
    finally:
        scale_db.intersect_max_paths = type(scale_db).intersect_max_paths
    oracle = [r.machine_name
              for r in linear_oracle(scale_db, query.matches_machine)]
    assert intersected == single == oracle
    assert len(intersected) > 0


def test_two_equality_intersection_2x_faster_than_single_path(scale_db):
    plan = compile_plan(parse_query(TWO_EQ_TEXT).basic())
    scale_db.match(plan)  # warm
    multi_t, multi = _timed(scale_db.match, plan)
    scale_db.intersect_max_paths = 1
    try:
        single_t, single = _timed(scale_db.match, plan)
    finally:
        scale_db.intersect_max_paths = type(scale_db).intersect_max_paths
    assert len(multi) == len(single)
    speedup = single_t / multi_t
    print(f"\n  n={N}: single-path {single_t * 1e3:.2f} ms, "
          f"intersected {multi_t * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"intersection only {speedup:.1f}x faster than single path "
        f"({multi_t * 1e3:.2f} ms vs {single_t * 1e3:.2f} ms)"
    )


def test_ratio_cutoff_prevents_regression_on_skewed_probes(scale_db):
    """When the second probe is huge, intersecting must cost no more
    than ~measurement noise over the single-path plan."""
    plan = compile_plan(parse_query(CUTOFF_TEXT).basic())
    scale_db.match(plan)  # warm
    multi_t, _ = _timed(scale_db.match, plan, repeats=5)
    scale_db.intersect_max_paths = 1
    try:
        single_t, _ = _timed(scale_db.match, plan, repeats=5)
    finally:
        scale_db.intersect_max_paths = type(scale_db).intersect_max_paths
    print(f"\n  skewed probes: single {single_t * 1e3:.2f} ms, "
          f"cutoff-guarded {multi_t * 1e3:.2f} ms")
    assert multi_t <= single_t * 1.5 + 1e-3
