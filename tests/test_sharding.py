"""Sharded white-pages database: routing, fan-out merge equivalence,
and per-shard snapshots.

The load-bearing property: for ANY mutation history and ANY query, a
sharded database at N ∈ {1, 2, 8} must return *exactly* the records, in
*exactly* the order, of the single-shard engine — sharding is a layout
decision, never a semantic one.  Same for the round trip through the
per-shard snapshot manifest.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ResourcePoolConfig
from repro.core.operators import Op, RangeValue
from repro.core.plan import compile_plan
from repro.core.query import Clause, Query
from repro.core.resource_pool import ResourcePool
from repro.core.signature import PoolName
from repro.database.fields import MachineState
from repro.database.persistence import (
    dumps_database,
    load_database,
    loads_database,
)
from repro.database.records import MachineRecord
from repro.database.sharding import (
    ShardedWhitePagesDatabase,
    is_shard_manifest,
    load_sharded_database,
    save_sharded_database,
    shard_of,
)
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import ConfigError, DatabaseError

SHARD_COUNTS = (1, 2, 8)

_ARCHES = ("sun", "hp", "x86")
_MEMORIES = ("64", "128", "256", "512")
_NAMES = tuple(f"m{i:02d}" for i in range(14))


def _record(name: str, arch: str, memory: str, load: float,
            state_up: bool) -> MachineRecord:
    return MachineRecord(
        machine_name=name,
        state=MachineState.UP if state_up else MachineState.DOWN,
        current_load=load,
        available_memory_mb=float(int(memory)),
        admin_parameters={"arch": arch, "memory": memory},
    )


_records = st.builds(
    _record,
    name=st.sampled_from(_NAMES),
    arch=st.sampled_from(_ARCHES),
    memory=st.sampled_from(_MEMORIES),
    load=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    state_up=st.booleans(),
)

_ops = st.one_of(
    st.tuples(st.just("add"), _records),
    st.tuples(st.just("remove"), st.sampled_from(_NAMES)),
    st.tuples(st.just("take"), st.sampled_from(_NAMES),
              st.sampled_from(("poolA", "poolB"))),
    st.tuples(st.just("release"), st.sampled_from(_NAMES),
              st.sampled_from(("poolA", "poolB"))),
    st.tuples(st.just("update_dynamic"), st.sampled_from(_NAMES),
              st.floats(min_value=0.0, max_value=8.0, allow_nan=False)),
)


@st.composite
def _queries(draw) -> Query:
    clauses = []
    for key in draw(st.permutations(("arch", "memory", "load")))[
            :draw(st.integers(min_value=1, max_value=2))]:
        if key == "arch":
            clauses.append(Clause("punch", "rsrc", "arch",
                                  draw(st.sampled_from([Op.EQ, Op.NE])),
                                  draw(st.sampled_from(_ARCHES))))
        elif key == "memory":
            clauses.append(Clause(
                "punch", "rsrc", "memory",
                draw(st.sampled_from([Op.EQ, Op.GE, Op.LE])),
                float(draw(st.sampled_from((64, 128, 256, 512))))))
        else:
            lo = float(draw(st.integers(min_value=0, max_value=6)))
            clauses.append(Clause("punch", "rsrc", "load", Op.RANGE,
                                  RangeValue(lo, lo + 3.0)))
    return Query(clauses=tuple(clauses))


def _apply(db, op) -> None:
    kind = op[0]
    try:
        if kind == "add":
            db.add(op[1])
        elif kind == "remove":
            db.remove(op[1])
        elif kind == "take":
            db.take(op[1], op[2])
        elif kind == "release":
            db.release(op[1], op[2])
        else:
            db.update_dynamic(op[1], current_load=op[2])
    except Exception:
        # Duplicate adds, unknown names, wrong-holder releases: legal
        # error paths — and they must raise identically on both layouts,
        # which _apply_both asserts.
        pass


def _apply_both(single, sharded, op) -> None:
    """Apply ``op`` to both layouts; outcomes must agree exactly."""
    kind = op[0]

    def run(db):
        if kind == "add":
            return db.add(op[1])
        if kind == "remove":
            return db.remove(op[1])
        if kind == "take":
            return db.take(op[1], op[2])
        if kind == "release":
            return db.release(op[1], op[2])
        return db.update_dynamic(op[1], current_load=op[2])

    try:
        a = run(single)
        a_exc = None
    except Exception as exc:  # noqa: BLE001 - equivalence oracle
        a, a_exc = None, type(exc)
    try:
        b = run(sharded)
        b_exc = None
    except Exception as exc:  # noqa: BLE001 - equivalence oracle
        b, b_exc = None, type(exc)
    assert a_exc is b_exc
    if kind == "take":
        assert a == b


class TestRouting:
    def test_shard_of_is_stable_and_total(self):
        for name in ("a", "sun00042.purdue.edu", "ünïcode", ""):
            for n in (1, 2, 8, 64):
                i = shard_of(name, n)
                assert 0 <= i < n
                assert i == shard_of(name, n)  # deterministic
        assert shard_of("anything", 1) == 0

    def test_records_land_on_their_shard(self):
        db = ShardedWhitePagesDatabase(
            [_record(n, "sun", "128", 0.0, True) for n in _NAMES], shards=8)
        for i, shard in enumerate(db.shards):
            for name in shard.names():
                assert shard_of(name, 8) == i

    def test_bad_shard_counts_rejected(self):
        with pytest.raises(ConfigError):
            ShardedWhitePagesDatabase(shards=0)
        with pytest.raises(ConfigError):
            ShardedWhitePagesDatabase(shards=100_000)

    def test_from_shard_databases_validates_routing(self):
        rec = _record("m00", "sun", "128", 0.0, True)
        wrong = [WhitePagesDatabase(), WhitePagesDatabase()]
        wrong[1 - shard_of("m00", 2)].add(rec)
        with pytest.raises(DatabaseError, match="routes"):
            ShardedWhitePagesDatabase.from_shard_databases(wrong)


class TestMatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(_records, max_size=10,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=25),
        query=_queries(),
        include_taken=st.booleans(),
    )
    def test_sharded_match_equals_single_shard(self, initial, ops, query,
                                               include_taken):
        """The acceptance property: same result set, same deterministic
        order, at every shard count, under arbitrary mutation
        histories."""
        single = WhitePagesDatabase(initial)
        shardeds = [ShardedWhitePagesDatabase(initial, shards=n)
                    for n in SHARD_COUNTS]
        for op in ops:
            _apply(single, op)
            for sharded in shardeds:
                _apply(sharded, op)
        plan = compile_plan(query)
        want = [r.machine_name
                for r in single.match(plan, include_taken=include_taken)]
        want_count = len(want)
        for n, sharded in zip(SHARD_COUNTS, shardeds):
            got = [r.machine_name
                   for r in sharded.match(plan, include_taken=include_taken)]
            assert got == want, f"shards={n}"
            assert sharded.count(plan, include_taken=include_taken) == \
                want_count
            assert sharded.names() == single.names()
            assert sharded.free_names() == single.free_names()
            assert len(sharded) == len(single)
            assert sharded.taken_count() == single.taken_count()

    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.lists(_records, max_size=10,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=20),
    )
    def test_error_paths_equivalent(self, initial, ops):
        single = WhitePagesDatabase(initial)
        sharded = ShardedWhitePagesDatabase(initial, shards=8)
        for op in ops:
            _apply_both(single, sharded, op)
        assert sharded.names() == single.names()


class TestSnapshotRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        initial=st.lists(_records, max_size=10,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=15),
        query=_queries(),
    )
    def test_sharded_round_trip_matches_single_v3(self, tmp_path_factory,
                                                  initial, ops, query):
        """Dump/load at N ∈ {1, 2, 8} must be record- and
        index-equivalent to the single-shard v3 snapshot path."""
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        single = WhitePagesDatabase(initial)
        for op in ops:
            _apply(single, op)
        records = [single.get(n) for n in single.names()]
        oracle = loads_database(dumps_database(single))
        plan = compile_plan(query)
        want = [r.machine_name for r in oracle.match(plan,
                                                     include_taken=True)]
        for n in SHARD_COUNTS:
            sharded = ShardedWhitePagesDatabase(records, shards=n)
            # Snapshots round-trip holder state (ISSUE 7): give the
            # sharded copy the same takes so the oracle comparison
            # covers the untaken-only match path too.
            for name, pool in single.holders().items():
                assert sharded.take(name, pool)
            path = tmp_path / f"fleet{n}.json"
            save_sharded_database(sharded, path)
            loaded = load_sharded_database(path)
            assert loaded.shard_count == n
            assert loaded.names() == oracle.names()
            assert [loaded.get(name) for name in loaded.names()] == \
                [oracle.get(name) for name in oracle.names()]
            got = [r.machine_name
                   for r in loaded.match(plan, include_taken=True)]
            assert got == want
            # Index-equivalence: per-shard catalogs cover exactly the
            # shard's records and answer the untaken-only path too.
            stats = (loaded.index_stats() if n > 1
                     else loaded.shards[0].index_stats())
            assert stats["machines"] == len(oracle)
            assert [r.machine_name for r in loaded.match(plan)] == \
                [r.machine_name for r in oracle.match(plan)]

    def test_single_shard_save_is_plain_snapshot(self, tmp_path, small_db):
        sharded = ShardedWhitePagesDatabase(
            [small_db.get(n) for n in small_db.names()], shards=1)
        path = tmp_path / "flat.json"
        written = save_sharded_database(sharded, path)
        assert written == [path]
        assert not is_shard_manifest(path)
        # Loads through the plain single-file path as well.
        assert len(loads_database(path.read_text())) == len(small_db)

    def test_manifest_detection_and_reshard_on_load(self, tmp_path, small_db):
        records = [small_db.get(n) for n in small_db.names()]
        sharded = ShardedWhitePagesDatabase(records, shards=4)
        path = tmp_path / "fleet.json"
        save_sharded_database(sharded, path)
        assert is_shard_manifest(path)
        re2 = load_sharded_database(path, shards=2)
        assert re2.shard_count == 2
        assert re2.names() == small_db.names()

    def test_v1_and_v2_files_are_refused_by_both_loaders(self, tmp_path,
                                                          small_db):
        """The retired formats fail closed, by name — never a traceback
        from a half-parsed row, never an empty database.  v1/v2 are the
        dict-per-machine formats; v4 is a v3 file plus a binary column
        file beside it.  A worker cold start refuses them the same way."""
        from repro.runtime.shard_worker import _load_shard_database
        v4 = json.loads(dumps_database(small_db))
        v4["version"] = 4
        v4["columns"] = {"file": "v4.json.cols", "rows": len(small_db),
                         "header_crc": 0}
        for version in (1, 2, 4):
            path = tmp_path / f"v{version}.json"
            path.write_text(json.dumps(v4 if version == 4 else {
                "format": "repro.whitepages",
                "version": version,
                "machines": [{"machine_name": "m00", "state": "up"}],
            }))
            for loader in (load_database, load_sharded_database,
                           lambda p: _load_shard_database(str(p))):
                with pytest.raises(
                        DatabaseError,
                        match=f"unsupported snapshot version {version}"):
                    loader(path)

    def test_corrupt_shard_file_is_rejected(self, tmp_path, small_db):
        records = [small_db.get(n) for n in small_db.names()]
        sharded = ShardedWhitePagesDatabase(records, shards=2)
        path = tmp_path / "fleet.json"
        written = save_sharded_database(sharded, path)
        shard_file = written[1]
        shard_file.write_text(shard_file.read_text() + " ")
        with pytest.raises(DatabaseError, match="checksum"):
            load_sharded_database(path)

    def test_missing_shard_file_is_rejected(self, tmp_path, small_db):
        records = [small_db.get(n) for n in small_db.names()]
        path = tmp_path / "fleet.json"
        written = save_sharded_database(
            ShardedWhitePagesDatabase(records, shards=2), path)
        written[1].unlink()
        with pytest.raises(DatabaseError, match="missing shard file"):
            load_sharded_database(path)

    def test_multi_shard_whole_file_dump_refuses(self, small_db):
        sharded = ShardedWhitePagesDatabase(
            [small_db.get(n) for n in small_db.names()], shards=2)
        with pytest.raises(DatabaseError):
            dumps_database(sharded)
        with pytest.raises(DatabaseError):
            sharded.catalog_snapshot()


_POOL_QUERY = Query(clauses=(Clause("punch", "rsrc", "arch", Op.EQ, "sun"),))


def _sharded_pool_fixture(linear: bool, shards: int, objective="least_load"):
    records = [
        MachineRecord(
            machine_name=f"pm{i:02d}",
            current_load=float(i % 3),
            available_memory_mb=float(128 << (i % 4)),
            num_cpus=1 + i % 2,
            admin_parameters={"arch": "sun"},
        )
        for i in range(12)
    ]
    db = (WhitePagesDatabase(records) if shards == 1
          else ShardedWhitePagesDatabase(records, shards=shards))
    pool = ResourcePool(
        PoolName(signature="sig", identifier=f"shard{shards}"), db,
        config=ResourcePoolConfig(objective=objective, linear_scan=linear),
        exemplar_query=_POOL_QUERY,
    )
    pool.initialize()
    return db, pool


class TestPoolsOverShardedDatabase:
    @settings(max_examples=40, deadline=None)
    @given(loads=st.lists(
        st.tuples(st.sampled_from([f"pm{i:02d}" for i in range(12)]),
                  st.floats(min_value=0.0, max_value=6.0, allow_nan=False)),
        max_size=20))
    def test_indexed_scheduler_equivalent_across_shards(self, loads):
        """A pool cache spanning shards must schedule exactly like the
        same pool over a single-shard database, linear or indexed."""
        db_lin, pool_lin = _sharded_pool_fixture(True, 1)
        db_idx, pool_idx = _sharded_pool_fixture(False, 4)
        for name, load in loads:
            db_lin.update_dynamic(name, current_load=load)
            db_idx.update_dynamic(name, current_load=load)
            assert pool_idx.scan_order(_POOL_QUERY) == \
                pool_lin.scan_order(_POOL_QUERY)
        a = pool_lin.allocate(_POOL_QUERY)
        b = pool_idx.allocate(_POOL_QUERY)
        assert a.machine_name == b.machine_name
        pool_lin.destroy()
        pool_idx.destroy()
        assert db_idx.listener_stats()["subscription_entries"] == 0

    def test_take_release_spans_shards(self):
        db, pool = _sharded_pool_fixture(False, 8)
        assert pool.size == 12
        assert db.taken_count() == 12
        assert db.release_pool(pool.name.full) == 12
        assert db.taken_count() == 0


class TestQueryClassCapConfig:
    def test_cap_is_per_pool_configurable(self):
        query_of = lambda v: Query(clauses=(  # noqa: E731
            Clause("punch", "rsrc", "arch", Op.EQ, "sun"),
            Clause("punch", "appl", "expectedmemoryuse", Op.EQ, v)))
        records = [
            MachineRecord(machine_name=f"pm{i:02d}",
                          available_memory_mb=float(128 << (i % 4)),
                          admin_parameters={"arch": "sun"})
            for i in range(8)
        ]
        db = WhitePagesDatabase(records)
        pool = ResourcePool(
            PoolName(signature="sig", identifier="cap"), db,
            config=ResourcePoolConfig(objective="best_fit_memory",
                                      linear_scan=False,
                                      max_query_classes=2),
            exemplar_query=_POOL_QUERY,
        )
        pool.initialize()
        for v in (64.0, 128.0, 256.0, 512.0, 1024.0):
            pool.scan_order(query_of(v))
        assert pool._scheduler.cached_query_classes <= 2
        # An evicted class rebuilds and still answers correctly (linear
        # oracle runs over its own copy of the same records).
        lin = ResourcePool(
            PoolName(signature="sig", identifier="cap-lin"),
            WhitePagesDatabase(records),
            config=ResourcePoolConfig(objective="best_fit_memory"),
            exemplar_query=_POOL_QUERY,
        )
        lin.initialize()
        assert [n for _i, n in pool.scan_order(query_of(64.0))] == \
            [n for _i, n in lin.scan_order(query_of(64.0))]

    def test_cap_validation(self):
        with pytest.raises(Exception):
            ResourcePoolConfig(max_query_classes=0).validated()


class TestListenerTierRemoval:
    """The PR 4-deprecated ``add_listener`` wildcard tier is gone: the
    subscription map is the only listener surface on both layouts."""

    def test_add_listener_is_gone(self, small_db):
        assert not hasattr(small_db, "add_listener")
        sharded = ShardedWhitePagesDatabase(
            [_record(n, "sun", "128", 0.0, True) for n in _NAMES], shards=4)
        assert not hasattr(sharded, "add_listener")

    def test_subscription_covers_the_old_contract(self):
        """A consumer that wants every change subscribes to every name —
        same notifications the wildcard tier delivered."""
        db = ShardedWhitePagesDatabase(
            [_record(n, "sun", "128", 0.0, True) for n in _NAMES], shards=4)
        seen = []
        listener = lambda name, rec: seen.append(name)  # noqa: E731
        db.subscribe(_NAMES, listener)
        db.update_dynamic("m03", current_load=2.0)
        assert seen == ["m03"]
        stats = db.listener_stats()
        assert stats["subscription_entries"] == len(_NAMES)
        assert "wildcard" not in stats
        db.remove_listener(listener)
        db.update_dynamic("m03", current_load=1.0)
        assert seen == ["m03"]
        db.remove_listener(seen.append)  # unknown fn: no-op, no raise


class TestCliSharding:
    def test_fleet_command_writes_and_serves_manifest(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "fleet.json"
        assert main(["fleet", "--size", "64", "--shards", "4",
                     "--out", str(out)]) == 0
        assert is_shard_manifest(out)
        loaded = load_sharded_database(out)
        assert loaded.shard_count == 4
        assert len(loaded) == 64

    def test_fleet_command_plain_default_unchanged(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "flat.json"
        assert main(["fleet", "--size", "16", "--out", str(out)]) == 0
        assert not is_shard_manifest(out)
        assert len(loads_database(out.read_text())) == 16

    @pytest.mark.parametrize("version", ("1", "2", "4"))
    def test_fleet_command_refuses_retired_snapshot_versions(
            self, tmp_path, capsys, version):
        # v3 is the only format, so the fleet command has no version flag.
        from repro.cli import main
        out = tmp_path / "old.json"
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--size", "4", "--snapshot-version", version,
                  "--out", str(out)])
        assert exc.value.code == 2  # argparse usage error, no traceback
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestExclusive:
    def test_exclusive_is_reentrant_with_point_ops(self, small_db):
        sharded = ShardedWhitePagesDatabase(
            [small_db.get(n) for n in small_db.names()], shards=4)
        with sharded.exclusive():
            # Point ops re-enter the already-held shard locks.
            name = sharded.names()[0]
            sharded.update_dynamic(name, current_load=3.0)
            assert sharded.get(name).current_load == 3.0

    def test_plain_count(self, small_db):
        query = Query(clauses=(
            Clause("punch", "rsrc", "arch", Op.EQ, "sun"),))
        assert small_db.count(query) == len(small_db.match(query))
