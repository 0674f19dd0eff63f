"""Index snapshot cold-start gates (ISSUE 2 tentpole, part 3).

Restoring the attribute-index catalog from a snapshot — then
answering a real query — must be >= 5x faster than rebuilding the
indexes from the records, and byte-identical in its answers.  The
restore path is lazy (postings stay parsed lists, sorted indexes serve
probes from parallel arrays), so the timed region deliberately includes
the first query: the gate measures time-to-first-answer, not time to a
hollow object.

``REPRO_SNAPSHOT_SCALE_N`` overrides the record count; the committed
gate runs at 100,000.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.database.indexes import AttributeIndexCatalog
from repro.database.persistence import (
    dumps_database,
    loads_database,
    restore_catalog,
)
from repro.database.records import MachineRecord
from repro.database.whitepages import WhitePagesDatabase
from repro.fleet import FleetSpec, build_fleet

from benchmarks.conftest import timed_median
from tests.conftest import linear_oracle

pytestmark = pytest.mark.scale_gate

_timed = partial(timed_median, repeats=3)

N = int(os.environ.get("REPRO_SNAPSHOT_SCALE_N", "100000"))

QUERY_TEXT = "punch.rsrc.pool = p07\npunch.rsrc.memory = >=256"


@pytest.fixture(scope="module")
def fleet():
    records = build_fleet(FleetSpec(size=N, seed=11, stripe_pools=32))
    db = WhitePagesDatabase(records)
    return records, db.catalog_snapshot(), compile_plan(
        parse_query(QUERY_TEXT).basic())


def test_snapshot_restore_5x_faster_than_rebuild(fleet):
    records, snapshot, plan = fleet

    def restore_and_query():
        catalog = AttributeIndexCatalog.from_snapshot(snapshot, records)
        db = WhitePagesDatabase(records, catalog=catalog)
        return db.match(plan)

    def rebuild_and_query():
        db = WhitePagesDatabase(records)
        return db.match(plan)

    restore_t, restored = _timed(restore_and_query, repeats=3)
    rebuild_t, rebuilt = _timed(rebuild_and_query, repeats=3)
    assert [r.machine_name for r in restored] == \
        [r.machine_name for r in rebuilt]
    assert len(restored) > 0
    speedup = rebuild_t / restore_t
    print(f"\n  n={N}: rebuild {rebuild_t:.2f} s, "
          f"restore {restore_t:.3f} s, speedup {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"snapshot restore only {speedup:.1f}x faster than rebuild "
        f"({restore_t:.3f} s vs {rebuild_t:.3f} s)"
    )


def test_restored_catalog_survives_mutation_at_scale(fleet):
    """Mutations against a freshly restored catalog materialise the lazy
    structures; answers must stay oracle-equal afterwards."""
    records, snapshot, plan = fleet
    catalog = AttributeIndexCatalog.from_snapshot(snapshot, records)
    db = WhitePagesDatabase(records, catalog=catalog)
    for i, name in enumerate(db.names()[:200]):
        db.update_dynamic(name, current_load=float(i % 5),
                          active_jobs=i % 3)
    removed = db.names()[0]
    db.remove(removed)
    query = parse_query(QUERY_TEXT).basic()
    got = [r.machine_name for r in db.match(plan)]
    oracle = [r.machine_name
              for r in linear_oracle(db, query.matches_machine)]
    assert got == oracle
    assert removed not in {r for r in got}


def test_v3_survives_post_load_mutation_at_scale(fleet):
    """Mutations against a freshly v3-loaded database materialise the
    lazy row-id postings; answers must stay oracle-equal afterwards."""
    records, _snapshot, plan = fleet
    db = loads_database(dumps_database(WhitePagesDatabase(records)))
    for i, name in enumerate(db.names()[:200]):
        db.update_dynamic(name, current_load=float(i % 5), active_jobs=i % 3)
    removed = db.names()[0]
    db.remove(removed)
    query = parse_query(QUERY_TEXT).basic()
    got = [r.machine_name for r in db.match(plan)]
    oracle = [r.machine_name
              for r in linear_oracle(db, query.matches_machine)]
    assert got == oracle
    assert removed not in set(got)


def test_snapshot_roundtrips_through_json_at_scale(fleet):
    """The full dumps→loads path (records + index section + checksum)
    must restore, not rebuild, and agree with the source database."""
    import json
    records, _snapshot, plan = fleet
    db = WhitePagesDatabase(records)
    # restore_catalog invoked directly: None would mean "rebuilt".
    payload = json.loads(dumps_database(db))
    parsed_records = [MachineRecord.from_row(row)
                      for row in payload["machines"]]
    catalog = restore_catalog(payload, parsed_records)
    assert catalog is not None, "checksum/schema guard rejected own dump"
    restored = WhitePagesDatabase(parsed_records, catalog=catalog)
    assert [r.machine_name for r in restored.match(plan)] == \
        [r.machine_name for r in db.match(plan)]
    # The same path through the public loader.
    restored3 = loads_database(dumps_database(db))
    assert restored3.index_stats() == \
        loads_database(dumps_database(db),
                       use_index_snapshot=False).index_stats()
    assert [r.machine_name for r in restored3.match(plan)] == \
        [r.machine_name for r in db.match(plan)]
