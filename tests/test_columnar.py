"""Columnar match kernel: equivalence, persistence, and degradation.

The load-bearing property mirrors ``test_sharding``: for ANY mutation
history and ANY query, a columnar database must return *exactly* the
records, in *exactly* the order, of the row-path engine and of the
``scan()`` oracle — the column store is a layout decision, never a
semantic one.  The same holds through the v4 snapshot sidecar, through
every rung of its fallback ladder (corrupt block, corrupt header,
missing file), and at every shard count.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import Op, RangeValue
from repro.core.plan import ClauseSet, compile_plan
from repro.core.query import Clause, Query
from repro.database import columnar as columnar_mod
from repro.database.fields import MachineState
from repro.database.persistence import (
    load_database,
    loads_database,
    save_database,
)
from repro.database.records import MachineRecord
from repro.database.sharding import (
    ShardedWhitePagesDatabase,
    load_sharded_database,
    save_sharded_database,
)
from repro.database.whitepages import WhitePagesDatabase

from tests.conftest import linear_oracle

needs_numpy = pytest.mark.skipif(
    not columnar_mod.HAVE_NUMPY, reason="columnar kernel needs numpy")

SHARD_COUNTS = (1, 2, 8)

_ARCHES = ("sun", "hp", "x86")
_MEMORIES = ("64", "128", "256", "512", "128,256")
_NAMES = tuple(f"m{i:02d}" for i in range(14))


def _record(name: str, arch: str, memory: str, load: float,
            state_up: bool) -> MachineRecord:
    return MachineRecord(
        machine_name=name,
        state=MachineState.UP if state_up else MachineState.DOWN,
        current_load=load,
        available_memory_mb=float(int(memory.split(",")[0])),
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
    st.tuples(st.just("update"), _records),
    st.tuples(st.just("take"), st.sampled_from(_NAMES),
              st.sampled_from(("poolA", "poolB"))),
    st.tuples(st.just("release"), st.sampled_from(_NAMES),
              st.sampled_from(("poolA", "poolB"))),
    st.tuples(st.just("update_dynamic"), st.sampled_from(_NAMES),
              st.floats(min_value=0.0, max_value=8.0, allow_nan=False)),
)


@st.composite
def _queries(draw) -> Query:
    """1–2 clauses over a mix of columnar (memory, load) and residual /
    non-numeric (arch, state) attributes — including all-non-numeric
    draws, fuzzy comma-valued equality, and RANGE."""
    clauses = []
    keys = draw(st.permutations(("arch", "memory", "load", "state")))[
        :draw(st.integers(min_value=1, max_value=2))]
    for key in keys:
        if key == "arch":
            clauses.append(Clause("punch", "rsrc", "arch",
                                  draw(st.sampled_from([Op.EQ, Op.NE])),
                                  draw(st.sampled_from(_ARCHES))))
        elif key == "state":
            clauses.append(Clause("punch", "rsrc", "state", Op.EQ,
                                  draw(st.sampled_from(("up", "down")))))
        elif key == "memory":
            clauses.append(Clause(
                "punch", "rsrc", "memory",
                draw(st.sampled_from([Op.EQ, Op.GE, Op.LE, Op.GT, Op.LT])),
                draw(st.sampled_from(("64", "128", "256", "512", 256.0)))))
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
        elif kind == "update":
            db.update(op[1])
        elif kind == "take":
            db.take(op[1], op[2])
        elif kind == "release":
            db.release(op[1], op[2])
        else:
            db.update_dynamic(op[1], current_load=op[2])
    except Exception:
        # Duplicate adds, unknown names, wrong-holder releases: legal
        # error paths; both engines see the identical sequence.
        pass


def _names_of(records) -> list:
    return [r.machine_name for r in records]


# ---------------------------------------------------------------------------
# Equivalence properties
# ---------------------------------------------------------------------------


@needs_numpy
class TestColumnarEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(_records, max_size=10,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=25),
        query=_queries(),
        include_taken=st.booleans(),
    )
    def test_columnar_equals_row_path_and_scan(self, initial, ops, query,
                                               include_taken):
        """The acceptance property: columnar match is record- and
        order-identical to the indexed row path AND to the ``scan()``
        oracle, under arbitrary mutation histories."""
        row = WhitePagesDatabase(initial)
        col = WhitePagesDatabase(initial, columnar=True)
        for op in ops:
            _apply(row, op)
            _apply(col, op)
        plan = compile_plan(query)
        want = _names_of(row.match(plan, include_taken=include_taken))
        got = _names_of(col.match(plan, include_taken=include_taken))
        assert got == want
        clause_set = plan.clause_set
        oracle = _names_of(linear_oracle(
            row, lambda rec: clause_set.matches_view(rec.attribute_view()),
            include_taken=include_taken))
        assert got == oracle

    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.lists(_records, max_size=10,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=20),
        query=_queries(),
    )
    def test_sharded_columnar_equals_single_row_path(self, initial, ops,
                                                     query):
        single = WhitePagesDatabase(initial)
        shardeds = [ShardedWhitePagesDatabase(initial, shards=n,
                                              columnar=True)
                    for n in SHARD_COUNTS]
        for op in ops:
            _apply(single, op)
            for sharded in shardeds:
                _apply(sharded, op)
        plan = compile_plan(query)
        want = _names_of(single.match(plan))
        for n, sharded in zip(SHARD_COUNTS, shardeds):
            assert _names_of(sharded.match(plan)) == want, f"shards={n}"
            assert sharded.count(plan) == len(want)

    def test_columnar_path_actually_engages(self):
        records = [_record(n, "sun", "128", 0.5, True) for n in _NAMES]
        db = WhitePagesDatabase(records, columnar=True)
        assert db.columnar
        plan = compile_plan(Query(clauses=(
            Clause("punch", "rsrc", "memory", Op.GE, 64.0),)))
        # White-box: the vectorized kernel handles this plan itself
        # (None would mean a silent fall-through to the row path).
        assert db._match_columnar(plan, False) is not None
        assert len(db.match(plan)) == len(_NAMES)

    def test_selective_eq_falls_back_to_hash_probe(self):
        records = [_record(f"n{i:03d}", "sun", "512" if i < 2 else "128",
                           0.5, True) for i in range(64)]
        db = WhitePagesDatabase(records, columnar=True)
        plan = compile_plan(Query(clauses=(
            Clause("punch", "rsrc", "memory", Op.EQ, "512"),)))
        # 2 postings out of 64 records is under the cutoff: the hash
        # probe wins, the kernel declines ...
        assert db._match_columnar(plan, False) is None
        # ... and the public result is unchanged either way.
        assert len(db.match(plan)) == 2

    def test_unknown_numeric_attr_is_provably_empty(self):
        records = [_record(n, "sun", "128", 0.5, True) for n in _NAMES]
        col = WhitePagesDatabase(records, columnar=True)
        row = WhitePagesDatabase(records)
        plan = compile_plan(Query(clauses=(
            Clause("punch", "rsrc", "gpus", Op.GE, 1.0),)))
        assert col.match(plan) == [] == row.match(plan)

    def test_comma_multi_valued_equality_matches(self):
        rec = _record("mm01", "sun", "128,256", 0.5, True)
        col = WhitePagesDatabase([rec], columnar=True)
        row = WhitePagesDatabase([rec])
        for value in ("128", "256", "512"):
            plan = compile_plan(Query(clauses=(
                Clause("punch", "rsrc", "memory", Op.EQ, value),)))
            assert _names_of(col.match(plan)) == _names_of(row.match(plan))


# ---------------------------------------------------------------------------
# v4 snapshot sidecar: round trip, CRC, fallback ladder
# ---------------------------------------------------------------------------


def _fleet(n=40):
    return [_record(f"v{i:03d}", _ARCHES[i % 3], _MEMORIES[i % 5],
                    (i % 9) / 2.0, i % 7 != 0) for i in range(n)]


_QUERY_SET = [
    Query(clauses=(Clause("punch", "rsrc", "memory", Op.GE, "128"),)),
    Query(clauses=(Clause("punch", "rsrc", "load", Op.LT, "2.5"),)),
    Query(clauses=(Clause("punch", "rsrc", "freememory", Op.GE, "0"),)),
    Query(clauses=(Clause("punch", "rsrc", "memory", Op.EQ, "256"),
                   Clause("punch", "rsrc", "arch", Op.NE, "hp"))),
]


def _assert_matches_row_path(db, records):
    row = WhitePagesDatabase(records)
    for query in _QUERY_SET:
        plan = compile_plan(query)
        assert _names_of(db.match(plan)) == _names_of(row.match(plan))


@needs_numpy
class TestSidecarPersistence:
    def test_v4_round_trip_mmap_attach(self, tmp_path):
        records = _fleet()
        db = WhitePagesDatabase(records, columnar=True)
        path = tmp_path / "db.json"
        save_database(db, path, version=4)
        sidecar = tmp_path / "db.json.cols"
        assert sidecar.exists()
        assert sidecar.read_bytes()[:8] == columnar_mod.SIDECAR_MAGIC
        loaded = load_database(path)
        assert loaded.columnar
        stats = loaded.index_stats()["columnar"]
        # Every column arrives frozen (mmap-backed, not yet copied).
        assert stats["frozen_columns"] and \
            len(stats["frozen_columns"]) == len(stats["columns"])
        _assert_matches_row_path(loaded, records)

    def test_v4_text_without_sidecar_rebuilds(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        loaded = loads_database(path.read_text(encoding="utf-8"))
        assert loaded.columnar  # rebuilt from rows, no sidecar reachable
        _assert_matches_row_path(loaded, records)

    def test_columnar_false_opts_out(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        loaded = load_database(path, columnar=False)
        assert not loaded.columnar
        _assert_matches_row_path(loaded, records)

    def test_v3_with_columnar_true_rebuilds(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=3)
        loaded = load_database(path, columnar=True)
        assert loaded.columnar
        _assert_matches_row_path(loaded, records)

    def test_corrupt_column_block_falls_back_silently(self, tmp_path):
        records = _fleet(200)
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        sidecar = tmp_path / "db.json.cols"
        blob = bytearray(sidecar.read_bytes())
        blob[-20] ^= 0xFF  # inside the last column's payload
        sidecar.write_bytes(bytes(blob))
        loaded = load_database(path)
        assert loaded.columnar
        # Whatever query first touches the bad block trips its lazy CRC
        # and the store rebuilds from rows — results stay exact.
        _assert_matches_row_path(loaded, records)

    def test_corrupt_header_falls_back_silently(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        sidecar = tmp_path / "db.json.cols"
        sidecar.write_bytes(b"garbage, not a sidecar")
        loaded = load_database(path)
        assert loaded.columnar  # rebuilt from rows
        _assert_matches_row_path(loaded, records)

    def test_missing_sidecar_falls_back_silently(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        (tmp_path / "db.json.cols").unlink()
        loaded = load_database(path)
        assert loaded.columnar
        _assert_matches_row_path(loaded, records)

    def test_truncated_sidecar_falls_back_silently(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        sidecar = tmp_path / "db.json.cols"
        sidecar.write_bytes(sidecar.read_bytes()[:100])
        loaded = load_database(path)
        assert loaded.columnar
        _assert_matches_row_path(loaded, records)

    def test_sharded_v4_manifest_round_trip(self, tmp_path):
        records = _fleet(120)
        db = ShardedWhitePagesDatabase(records, shards=4, columnar=True)
        manifest = tmp_path / "fleet.json"
        paths = save_sharded_database(db, manifest, version=4)
        assert sum(p.name.endswith(".cols") for p in paths) == 4
        loaded = load_sharded_database(manifest)
        assert loaded.columnar
        _assert_matches_row_path(loaded, records)
        off = load_sharded_database(manifest, columnar=False)
        assert not off.columnar

    def test_update_dynamic_thaws_only_touched_columns(self, tmp_path):
        records = _fleet()
        path = tmp_path / "db.json"
        save_database(WhitePagesDatabase(records), path, version=4)
        loaded = load_database(path)
        before = set(loaded.index_stats()["columnar"]["frozen_columns"])
        assert "load" in before
        loaded.update_dynamic(records[0].machine_name, current_load=3.25)
        after = set(loaded.index_stats()["columnar"]["frozen_columns"])
        # Satellite contract: the dynamic write touches exactly its own
        # column; every other mmap-backed column stays frozen.
        assert before - after == {"load"}
        plan = compile_plan(Query(clauses=(
            Clause("punch", "rsrc", "load", Op.GE, "3.2"),)))
        assert records[0].machine_name in _names_of(
            loaded.match(plan, include_taken=True))


# ---------------------------------------------------------------------------
# Graceful degradation without numpy
# ---------------------------------------------------------------------------


class TestNumpyDegradation:
    def test_warns_once_and_serves_row_path(self, monkeypatch):
        monkeypatch.setattr(columnar_mod, "HAVE_NUMPY", False)
        monkeypatch.setattr(columnar_mod, "_warned_no_numpy", False)
        records = _fleet(10)
        with pytest.warns(RuntimeWarning, match="numpy"):
            db = WhitePagesDatabase(records, columnar=True)
        assert not db.columnar
        _assert_matches_row_path(db, records)
        # One-time: a second columnar request stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db2 = WhitePagesDatabase(records, columnar=True)
        assert not db2.columnar

    @needs_numpy
    def test_v4_save_requires_numpy(self, monkeypatch, tmp_path):
        from repro.errors import DatabaseError
        monkeypatch.setattr(columnar_mod, "HAVE_NUMPY", False)
        with pytest.raises(DatabaseError, match="numpy"):
            save_database(WhitePagesDatabase(_fleet(5)),
                          tmp_path / "db.json", version=4)
