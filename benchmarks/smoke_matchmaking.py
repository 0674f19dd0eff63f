#!/usr/bin/env python
"""Matchmaking micro-benchmark smoke gate (CI).

Measures the hot engine operations on a 100k-record white pages and
compares each against ``benchmarks/matchmaking_baseline.json``; exits
non-zero if any operation regresses by more than 5x (generous enough to
absorb CI-runner jitter, tight enough to catch an accidental return to
linear scans).

Usage::

    PYTHONPATH=src python benchmarks/smoke_matchmaking.py
    PYTHONPATH=src python benchmarks/smoke_matchmaking.py --write-baseline
    PYTHONPATH=src python benchmarks/smoke_matchmaking.py --json-out out.json

``--json-out`` additionally writes the measured timings as JSON — the
bench-trend CI workflow uses it to archive one ``BENCH_<date>.json``
per scheduled run and render an ops/s table into the job summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.baselines.central import CentralizedScheduler
from repro.config import ResourcePoolConfig
from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.core.resource_pool import ResourcePool
from repro.core.scheduler import IndexedPoolScheduler
from repro.core.scheduling import get_objective
from repro.core.signature import pool_name_for
from repro.database.indexes import AttributeIndexCatalog
from repro.database.persistence import dumps_database, loads_database
from repro.database.sharding import ShardedWhitePagesDatabase
from repro.database.whitepages import WhitePagesDatabase
from repro.fleet import FleetSpec, build_database

BASELINE_PATH = Path(__file__).with_name("matchmaking_baseline.json")
N = 100_000
MAX_REGRESSION = 5.0

QUERY_TEXT = "punch.rsrc.pool = p07\npunch.rsrc.memory = >=256"
EMPTY_TEXT = "punch.rsrc.arch = cray\npunch.rsrc.memory = >=256"
#: Two mid-selectivity equalities — the multi-index intersection case.
TWO_EQ_TEXT = "punch.rsrc.pool = p07\npunch.rsrc.osversion = 7.3"
#: Stripe used by the indexed in-pool scheduler op (distinct from
#: QUERY_TEXT's p07 so the pool-walk op can take/release p07 freely).
POOL_SCHED_TEXT = "punch.rsrc.pool = p01"
#: Indexed pools attached during the subscribed write-path op.
SUBSCRIBED_POOLS = 200


def bench_json_document(timings: dict, n_records: int = N) -> dict:
    """The archive schema: ``--json-out``, the committed baseline, and
    ``repro scenarios --json-out`` all write/extend this exact shape
    (``render_bench_summary.py`` and the scenario merge read it — the
    schema test in tests/test_bench_summary.py locks it)."""
    return {"n_records": n_records, "timings_s": dict(timings)}


def write_bench_json(path, timings: dict, n_records: int = N) -> None:
    Path(path).write_text(json.dumps(
        bench_json_document(timings, n_records), indent=2) + "\n")


def _median(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure() -> dict:
    db, _ = build_database(FleetSpec(size=N, seed=11, stripe_pools=32))
    query = parse_query(QUERY_TEXT).basic()
    plan = compile_plan(query)
    empty_plan = compile_plan(parse_query(EMPTY_TEXT).basic())
    db.match(plan)  # warm

    results = {
        "match_eq_range_s": _median(lambda: db.match(plan), 5),
        "match_empty_probe_s": _median(lambda: db.match(empty_plan), 20),
    }

    names = db.names()[:500]

    def dynamic_burst():
        for i, name in enumerate(names):
            db.update_dynamic(name, current_load=float(i % 4))

    results["update_dynamic_s"] = _median(dynamic_burst, 3) / len(names)

    def take_release_burst():
        for name in names:
            db.take(name, "smoke")
            db.release(name, "smoke")

    results["take_release_s"] = _median(take_release_burst, 3) / len(names)

    def pool_walk():
        pool = ResourcePool(pool_name_for(query), db, exemplar_query=query)
        pool.initialize()
        pool.destroy()

    results["pool_walk_s"] = _median(pool_walk, 3)

    # Multi-index intersection: two mid-selectivity equality probes.
    two_eq_plan = compile_plan(parse_query(TWO_EQ_TEXT).basic())
    db.match(two_eq_plan)  # warm
    results["intersect_two_eq_s"] = _median(lambda: db.match(two_eq_plan), 9)

    # Indexed in-pool scheduler: scan_order + an allocate/release cycle
    # against a ~3k-machine pool kept permanently in scheduling order.
    sched_query = parse_query(POOL_SCHED_TEXT).basic()
    pool = ResourcePool(pool_name_for(sched_query), db,
                        exemplar_query=sched_query,
                        config=ResourcePoolConfig(linear_scan=False))
    pool.initialize()
    try:
        pool.scan_order(sched_query)  # warm the order cache
        results["pool_scan_order_indexed_s"] = _median(
            lambda: pool.scan_order(sched_query), 9)

        def alloc_cycle():
            alloc = pool.allocate(sched_query)
            pool.release(alloc.access_key)

        results["pool_alloc_indexed_s"] = _median(alloc_cycle, 9)

    finally:
        pool.destroy()

    # Query-class rank cache: a query-sensitive objective served from a
    # maintained per-class order instead of the linear walk (own stripe
    # so the pools above stay untouched).
    class_exemplar = parse_query("punch.rsrc.pool = p02").basic()
    class_query = parse_query(
        "punch.rsrc.pool = p02\npunch.appl.expectedmemoryuse = 300").basic()
    class_pool = ResourcePool(
        pool_name_for(class_exemplar), db, exemplar_query=class_exemplar,
        config=ResourcePoolConfig(objective="best_fit_memory",
                                  linear_scan=False))
    class_pool.initialize()
    try:
        class_pool.scan_order(class_query)  # warm: builds the class order
        results["pool_query_class_order_s"] = _median(
            lambda: class_pool.scan_order(class_query), 9)
    finally:
        class_pool.destroy()

    # Write path with many subscribed pools: update_dynamic must notify
    # only the one scheduler whose cache holds the machine.
    names_all = db.names()
    objective = get_objective("least_load")
    stripe = 20
    scheds = [
        IndexedPoolScheduler(db, names_all[p * stripe:(p + 1) * stripe],
                             objective, tier_of=lambda i: 0)
        for p in range(SUBSCRIBED_POOLS)
    ]
    try:
        burst = names_all[:100]

        def subscribed_burst():
            for i, name in enumerate(burst):
                db.update_dynamic(name, current_load=1.0 + (i % 7) / 8.0)

        subscribed_burst()  # warm
        results["update_dynamic_subscribed_s"] = \
            _median(subscribed_burst, 3) / len(burst)
    finally:
        for sched in scheds:
            sched.close()

    # Centralized-baseline ablation: indexed submit on the full fleet.
    central = CentralizedScheduler(db, use_index=True)

    def central_submit():
        alloc = central.submit(query)
        central.release(alloc.access_key)

    results["central_indexed_submit_s"] = _median(central_submit, 5)

    # Cold start: restore the index catalog from a snapshot and answer a
    # first query, instead of rebuilding O(N·attrs·log N) from records.
    records = [db.get(name) for name in db.names()]
    snapshot = db.catalog_snapshot()

    def snapshot_restore():
        catalog = AttributeIndexCatalog.from_snapshot(snapshot, records)
        restored = WhitePagesDatabase(records, catalog=catalog)
        return restored.match(plan)

    results["snapshot_restore_s"] = _median(snapshot_restore, 3)

    # Full v3 cold start: parse the compact snapshot text, fast-load the
    # records, restore the row-id index catalog, answer a first query.
    v3_text = dumps_database(db)

    def v3_cold_start():
        restored = loads_database(v3_text)
        return restored.match(plan)

    results["snapshot_v3_load_s"] = _median(v3_cold_start, 3)

    # Sharded fan-out: an 8-shard serial match (fan out + name merge)
    # and the routed point-write path.  Gated at 5x like every other op
    # (the baseline was re-recorded with these keys); the bench-trend
    # workflow archives the absolute timings.
    sharded = ShardedWhitePagesDatabase(
        [db.get(name) for name in db.names()], shards=8)
    sharded.match(plan)  # warm
    results["sharded_match_fanout_s"] = _median(
        lambda: sharded.match(plan), 5)

    def sharded_dynamic_burst():
        for i, name in enumerate(names):
            sharded.update_dynamic(name, current_load=float(i % 4))

    results["sharded_update_dynamic_s"] = \
        _median(sharded_dynamic_burst, 3) / len(names)

    # WAL crash recovery: recover a 5k-op write-ahead log (per-record
    # CRC check + JSON decode) and replay it into a fresh worker — the
    # restart path a crashed shard pays before accepting traffic.
    from repro.database.wal import WriteAheadLog, recover_wal
    from repro.runtime.shard_worker import ShardWorker

    replay_n = 5000
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = Path(tmp) / "smoke.wal"
        wal, _ = WriteAheadLog.open(wal_path, mode="async")
        replay_rows = [db.get(name).to_row()
                       for name in db.names()[:replay_n]]
        for row in replay_rows:
            wal.append({"kind": "register", "row": row})
        wal.close()

        def wal_replay():
            recovery = recover_wal(wal_path)
            return ShardWorker().replay(recovery.entries)

        assert wal_replay() == replay_n
        results["wal_replay_s"] = _median(wal_replay, 3)

    # Persistent shard service: the same selective match and routed
    # point-write paths, but against live out-of-process workers over
    # the wire protocol (absolute numbers include localhost RTTs).
    from repro.database.service import ShardSupervisor

    with tempfile.TemporaryDirectory() as tmp:
        supervisor = ShardSupervisor(
            8, snapshot_dir=tmp,
            records=[db.get(name) for name in db.names()])
        supervisor.start()
        try:
            client = supervisor.client()
            client.match(plan)  # warm sockets and worker caches
            results["remote_match_fanout_s"] = _median(
                lambda: client.match(plan), 5)
            remote_names = names[:100]

            def remote_dynamic_burst():
                for i, name in enumerate(remote_names):
                    client.update_dynamic(name, current_load=float(i % 4))

            remote_dynamic_burst()  # warm
            results["remote_update_dynamic_s"] = \
                _median(remote_dynamic_burst, 3) / len(remote_names)
        finally:
            supervisor.stop()
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current timings as the new baseline")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write the measured timings as JSON "
                             "(bench-trend archive format)")
    args = parser.parse_args()

    measured = measure()
    if args.json_out:
        write_bench_json(args.json_out, measured)
        print(f"timings written to {args.json_out}")
    if args.write_baseline:
        write_bench_json(BASELINE_PATH, measured)
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())["timings_s"]
    failures = []
    for op, base in baseline.items():
        now = measured.get(op)
        if now is None:
            failures.append(f"{op}: missing from measurement")
            continue
        ratio = now / base if base > 0 else float("inf")
        status = "OK " if ratio <= MAX_REGRESSION else "FAIL"
        print(f"{status} {op:24s} baseline {base * 1e6:10.1f} us   "
              f"now {now * 1e6:10.1f} us   ratio {ratio:5.2f}x")
        if ratio > MAX_REGRESSION:
            failures.append(
                f"{op}: {ratio:.2f}x slower than baseline "
                f"(limit {MAX_REGRESSION}x)")
    if failures:
        print("\nSMOKE FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("\nsmoke OK: all matchmaking ops within "
          f"{MAX_REGRESSION}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
