"""The persistent shard service: live out-of-process shard workers.

The load-bearing property (mirrors ``test_sharding``): for ANY mutation
history and ANY query, a :class:`ShardServiceClient` over N live
workers at N ∈ {1, 2, 8} must return *exactly* the records, in
*exactly* the order, of the in-process engines — moving a shard out of
process is a deployment decision, never a semantic one.  Error paths
must be type-identical too (a worker-side ``UnknownMachineError``
re-raises as ``UnknownMachineError`` at the client).

Also covered here (ISSUE 5 satellites): wire-protocol error paths
(oversized frame, malformed JSON, missing ``kind``, truncated stream),
continuation-frame reassembly for >1 MiB replies, and supervisor
crash/restart recovery from per-shard v3 checkpoints.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import Op, RangeValue
from repro.core.plan import compile_plan
from repro.core.query import Clause, Query
from repro.database.fields import MachineState
from repro.database.records import MachineRecord, ServiceStatusFlags
from repro.database.service import (
    ShardServiceClient,
    ShardSupervisor,
    parse_endpoints,
)
from repro.database.sharding import (
    ShardedWhitePagesDatabase,
    load_sharded_database,
    shard_of,
)
from repro.runtime import faults
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import (
    ConfigError,
    DatabaseError,
    DuplicateMachineError,
    MachineTakenError,
    ReproError,
    RuntimeProtocolError,
    UnknownMachineError,
)
from repro.runtime.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    encode_message,
    read_frame_sock,
)
from repro.runtime.wire import clause_from_dict, clause_to_dict
from repro.runtime.shard_worker import ShardWorker
from tests.wire_contract import WireContract

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


def _apply_both(local, remote, op) -> None:
    """Apply ``op`` to both databases; outcomes must agree exactly —
    including the exception class crossing the wire."""
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
        a = run(local)
        a_exc = None
    except ReproError as exc:
        a, a_exc = None, type(exc)
    try:
        b = run(remote)
        b_exc = None
    except ReproError as exc:
        b, b_exc = None, type(exc)
    assert a_exc is b_exc, (kind, a_exc, b_exc)
    if kind == "take":
        assert a == b


# ---------------------------------------------------------------------------
# Live services (one supervised worker fleet per shard count, module scope)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def services(tmp_path_factory):
    sups = {}
    for n in SHARD_COUNTS:
        sup = ShardSupervisor(
            n, snapshot_dir=tmp_path_factory.mktemp(f"svc{n}"))
        sup.start()
        sups[n] = sup
    yield sups
    for sup in sups.values():
        sup.stop()


class TestRemoteEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        initial=st.lists(_records, max_size=10,
                         unique_by=lambda r: r.machine_name),
        ops=st.lists(_ops, max_size=20),
        query=_queries(),
        include_taken=st.booleans(),
    )
    def test_remote_identical_to_sharded_under_histories(
            self, services, initial, ops, query, include_taken):
        """The acceptance property: record- and order-identical to the
        in-process engines at every shard count, under arbitrary
        mutation histories, over real sockets to real processes."""
        single = WhitePagesDatabase(initial)
        for op in ops:
            try:
                _apply_silent(single, op)
            except ReproError:
                pass
        plan = compile_plan(query)
        want = [r.machine_name
                for r in single.match(plan, include_taken=include_taken)]
        for n, sup in services.items():
            client = sup.client()
            client.reset(initial)
            local = ShardedWhitePagesDatabase(initial, shards=n)
            for op in ops:
                _apply_both(local, client, op)
            got = client.match(plan, include_taken=include_taken)
            assert [r.machine_name for r in got] == want, f"shards={n}"
            # Full record fidelity, not just names: the row codec must
            # round-trip every field.
            assert got == single.match(plan, include_taken=include_taken)
            assert client.match_names(
                plan, include_taken=include_taken) == want
            assert client.count(plan, include_taken=include_taken) == \
                len(want)
            assert client.names() == local.names()
            assert client.free_names() == local.free_names()
            assert len(client) == len(local)
            assert client.taken_count() == local.taken_count()
            assert client.count_up() == local.count_up()

    def test_error_classes_cross_the_wire(self, services):
        client = services[2].client()
        client.reset([_record("m00", "sun", "128", 0.0, True)])
        with pytest.raises(UnknownMachineError):
            client.get("nope")
        with pytest.raises(UnknownMachineError):
            client.remove("nope")
        with pytest.raises(DuplicateMachineError):
            client.add(_record("m00", "hp", "64", 0.0, True))
        assert client.take("m00", "poolA") is True
        with pytest.raises(MachineTakenError):
            client.release("m00", "poolB")
        client.release("m00", "poolA")

    def test_worker_refuses_misrouted_record(self, services):
        """A record whose CRC routes elsewhere is refused — a client
        with a scrambled endpoint order cannot split the name space."""
        from repro.database.sharding import shard_of
        sup = services[8]
        client = sup.client()
        client.reset([])
        name = _NAMES[0]
        wrong = (shard_of(name, 8) + 1) % 8
        with pytest.raises(DatabaseError, match="routes"):
            client._conns[wrong].roundtrip(
                {"kind": "register",
                 "row": _record(name, "sun", "64", 0.0, True).to_row()})

    def test_dynamic_field_codec_round_trips(self, services):
        client = services[2].client()
        client.reset([_record("m01", "sun", "256", 0.0, True)])
        flags = ServiceStatusFlags(execution_unit_up=False,
                                   pvfs_manager_up=True,
                                   proxy_server_up=False)
        rec = client.update_dynamic(
            "m01", current_load=1.25, active_jobs=3,
            state=MachineState.BLOCKED, service_status_flags=flags)
        assert rec.state is MachineState.BLOCKED
        assert rec.service_status_flags == flags
        assert rec.current_load == 1.25 and rec.active_jobs == 3
        assert client.get("m01") == rec

    def test_client_side_subscriptions_fire_on_own_writes(self, services):
        client = services[2].client()
        client.reset([_record(n, "sun", "128", 0.0, True)
                      for n in _NAMES[:4]])
        seen = []
        client.subscribe(_NAMES[:2], lambda name, rec: seen.append(
            (name, None if rec is None else rec.current_load)))
        client.update_dynamic(_NAMES[0], current_load=2.0)
        client.update_dynamic(_NAMES[2], current_load=3.0)  # not subscribed
        client.remove(_NAMES[1])
        assert seen == [(_NAMES[0], 2.0), (_NAMES[1], None)]
        assert client.listener_stats()["subscription_entries"] == 2
        client.reset([])
        assert client.listener_stats()["subscription_entries"] == 0

    def test_indexed_pool_scheduler_runs_remote(self, services):
        """The ISSUE's consumer claim: pools + indexed scheduler against
        the remote surface, unchanged."""
        from repro.config import ResourcePoolConfig
        from repro.core.language import parse_query
        from repro.core.resource_pool import ResourcePool
        from repro.core.signature import pool_name_for
        client = services[2].client()
        records = [
            MachineRecord(machine_name=f"sun{i:02d}",
                          available_memory_mb=256.0,
                          admin_parameters={"arch": "sun", "memory": "256",
                                            "domain": "purdue",
                                            "owner": "purdue"})
            for i in range(8)
        ]
        client.reset(records)
        query = parse_query("punch.rsrc.arch = sun").basic()
        pool = ResourcePool(pool_name_for(query), client,
                            exemplar_query=query,
                            config=ResourcePoolConfig(linear_scan=False))
        pool.initialize()
        try:
            assert pool.size == 8
            alloc = pool.allocate(query)
            assert client.holder_of(alloc.machine_name) is not None
            # The allocation's load bump flowed through the client and
            # must have re-ranked the indexed order via the client-side
            # subscription.
            order = pool.scan_order(query)
            assert order[-1][1] == alloc.machine_name or \
                client.get(alloc.machine_name).current_load > 0
            pool.release(alloc.access_key)
        finally:
            pool.destroy()
        assert client.taken_count() == 0

    def test_health_and_index_stats(self, services):
        client = services[8].client()
        client.reset([_record(n, "sun", "128", 0.0, True) for n in _NAMES])
        health = client.health()
        assert len(health) == 8
        assert sum(h["machines"] for h in health) == len(_NAMES)
        assert all(h["pid"] > 0 for h in health)
        assert [h["shard_index"] for h in health] == list(range(8))
        stats = client.index_stats()
        assert stats["shards"] == 8
        assert stats["machines"] == len(_NAMES)


def _apply_silent(db, op) -> None:
    kind = op[0]
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


# ---------------------------------------------------------------------------
# Wire-protocol error paths and continuation frames
# ---------------------------------------------------------------------------


class TestProtocolErrorPaths(WireContract):
    """The shared abuse table against a shard worker, plus the error
    paths only the shard tier has."""

    probe = ({"kind": "health"}, "health")
    bodyless = "register"

    def serving(self):
        return ShardWorker()

    def _raw_socket(self, services):
        host, port = services[1].endpoints[0]
        return socket.create_connection((host, port), timeout=10)

    def test_truncated_stream_raises_clean_client_error(self, services):
        """A peer that dies mid-frame surfaces as a protocol error (and
        the worker just drops the half-read connection)."""
        with self._raw_socket(services) as sock:
            # Announce 100 bytes, send 10, slam the connection shut.
            sock.sendall(struct.pack(">I", 100) + b"x" * 10)
        # Client side of the same failure: server closes mid-frame.
        class _HalfSock:
            def __init__(self):
                self.chunks = [struct.pack(">I", 100), b"x" * 10, b""]

            def recv(self, n):
                chunk = self.chunks[0]
                if len(chunk) <= n:
                    self.chunks.pop(0)
                    return chunk
                self.chunks[0] = chunk[n:]
                return chunk[:n]

        with pytest.raises(RuntimeProtocolError, match="mid-frame"):
            read_frame_sock(_HalfSock())

    def test_empty_continuation_chunks_rejected(self):
        """A stream of flagged zero-length chunks must error out, not
        loop the reader forever without tripping the byte caps."""
        class _EvilSock:
            def recv(self, n):
                return struct.pack(">I", 0x80000000)[:n]

        with pytest.raises(RuntimeProtocolError, match="continuation"):
            read_frame_sock(_EvilSock())

    def test_snapshot_to_unwritable_path_is_an_error_frame(self, services):
        """Filesystem failures surface as DatabaseError over the wire,
        not a dead connection."""
        client = services[1].client()
        with pytest.raises(DatabaseError, match="snapshot write"):
            client.snapshot_shard(0, "/nonexistent-dir/nope/x.json")
        assert client.health()[0]["kind"] == "health"  # conn survives


class TestWireSerialisation:
    """Match clauses cross to the worker in the ``runtime/wire`` encoding;
    every value kind must decode to an equal clause."""

    def test_clause_roundtrip_string(self):
        c = Clause("punch", "rsrc", "arch", Op.EQ, "sun")
        assert clause_from_dict(clause_to_dict(c)) == c

    def test_clause_roundtrip_number(self):
        c = Clause("punch", "rsrc", "memory", Op.GE, 128.0)
        assert clause_from_dict(clause_to_dict(c)) == c

    def test_clause_roundtrip_range(self):
        c = Clause("punch", "rsrc", "memory", Op.RANGE, RangeValue(10, 20))
        restored = clause_from_dict(clause_to_dict(c))
        assert restored == c
        assert isinstance(restored.value, RangeValue)

    def test_clause_roundtrip_set(self):
        c = Clause("punch", "rsrc", "cms", Op.IN,
                   frozenset({"sge", "pbs", "condor"}))
        assert clause_from_dict(clause_to_dict(c)) == c


class TestContinuationFrames:
    def test_single_frame_encoding_unchanged(self):
        frame = {"kind": "query", "payload": "punch.rsrc.arch = sun"}
        assert encode_message(frame) == encode_frame(frame)

    def test_oversized_single_frame_still_rejected(self):
        with pytest.raises(RuntimeProtocolError):
            encode_frame({"kind": "x", "blob": "a" * (MAX_FRAME_BYTES + 1)})

    def test_large_message_round_trips_sync(self):
        obj = {"kind": "records", "rows": ["r" * 1000] * 3000}  # > 3 MiB
        encoded = encode_message(obj)
        assert len(encoded) > MAX_FRAME_BYTES

        class _Replay:
            def __init__(self, data):
                self.data = data

            def recv(self, n):
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        assert read_frame_sock(_Replay(encoded)) == obj

    def test_large_message_round_trips_async(self):
        obj = {"kind": "records", "rows": ["r" * 1000] * 3000}

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_message(obj))
            reader.feed_eof()
            from repro.runtime.protocol import read_frame
            return await read_frame(reader)

        assert asyncio.run(scenario()) == obj

    def test_bulk_match_reply_exceeding_one_frame(self, services):
        """End-to-end: a worker reply bigger than MAX_FRAME_BYTES rides
        continuation frames instead of failing."""
        client = services[1].client()
        blob = "x" * 2000  # ~2 KB per record via admin parameters
        records = [
            MachineRecord(machine_name=f"big{i:04d}",
                          admin_parameters={"arch": "sun", "blob": blob})
            for i in range(800)  # ~1.6 MB of rows
        ]
        client.reset(records)
        got = client.match(None, include_taken=True)
        assert len(got) == 800
        assert got[0].admin_parameters["blob"] == blob
        client.reset([])


# ---------------------------------------------------------------------------
# Supervisor: health checks, checkpoints, crash recovery
# ---------------------------------------------------------------------------


class TestSupervisorRecovery:
    def test_crash_restart_recovers_checkpoint(self, tmp_path):
        records = [_record(n, "sun", "256", 0.0, True) for n in _NAMES]
        with ShardSupervisor(2, snapshot_dir=tmp_path,
                             records=records).start() as sup:
            client = sup.client()
            client.update_dynamic(_NAMES[0], current_load=4.0)
            manifest = sup.checkpoint()
            assert manifest.exists()
            # The checkpoint is PR 4's manifest format: loadable
            # in-process too.
            loaded = load_sharded_database(manifest)
            assert loaded.get(_NAMES[0]).current_load == 4.0
            # Kill both workers outright; the supervisor must notice
            # and restart them from the checkpoint on the SAME ports.
            before = sup.endpoints
            for proc in sup._processes:
                proc.kill()
            deadline = time.monotonic() + 10
            while any(sup.alive()) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert sup.ensure_alive() == [0, 1]
            assert sup.endpoints == before
            assert all(sup.alive())
            # Same client object keeps working (reconnects transparently)
            # and sees the checkpointed state, warm indexes rebuilt.
            assert client.get(_NAMES[0]).current_load == 4.0
            assert client.names() == sorted(set(_NAMES))
            assert sup.restarts == 2

    def test_mutations_after_checkpoint_roll_back_on_crash(self, tmp_path):
        """The documented recovery contract: restart = last snapshot."""
        records = [_record(n, "sun", "256", 0.0, True) for n in _NAMES[:4]]
        with ShardSupervisor(1, snapshot_dir=tmp_path,
                             records=records).start() as sup:
            client = sup.client()
            sup.checkpoint()
            client.update_dynamic(_NAMES[0], current_load=7.5)
            sup._processes[0].kill()
            sup._processes[0].join(timeout=10)
            sup.ensure_alive()
            assert client.get(_NAMES[0]).current_load == 0.0  # rolled back

    def test_seedless_supervisor_starts_empty(self, tmp_path):
        with ShardSupervisor(2, snapshot_dir=tmp_path).start() as sup:
            client = sup.client()
            assert len(client) == 0
            client.add(_record("m00", "sun", "128", 0.0, True))
            assert len(client) == 1

    def test_health_sweep_reports_restart_indexes(self, tmp_path):
        with ShardSupervisor(3, snapshot_dir=tmp_path).start() as sup:
            assert sup.ensure_alive() == []
            sup._processes[1].kill()
            sup._processes[1].join(timeout=10)
            assert sup.ensure_alive() == [1]
            assert all(sup.alive())

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            ShardSupervisor(0)

    def test_seed_records_require_snapshot_dir(self):
        sup = ShardSupervisor(
            2, records=[_record("m00", "sun", "128", 0.0, True)])
        with pytest.raises(ConfigError, match="snapshot_dir"):
            sup.start()


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


class TestCliWiring:
    def test_parse_endpoints(self):
        assert parse_endpoints("127.0.0.1:7071,127.0.0.1:7072") == \
            [("127.0.0.1", 7071), ("127.0.0.1", 7072)]
        assert parse_endpoints("h1:1 h2:2") == [("h1", 1), ("h2", 2)]
        with pytest.raises(ConfigError):
            parse_endpoints("nonsense")
        with pytest.raises(ConfigError):
            parse_endpoints("")

    def test_serve_accepts_shard_service_flag(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--shard-service", "127.0.0.1:7071"])
        assert args.shard_service == "127.0.0.1:7071"

    def test_shard_serve_subcommand_parses(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["shard-serve", "--shards", "4", "--size", "50",
             "--snapshot-dir", "/tmp/x"])
        assert args.shards == 4 and args.fn is not None

    def test_actyp_service_over_shard_service(self, tmp_path):
        """End-to-end: the asyncio ActYP front end allocating out of
        live shard workers (the `serve --shard-service` wiring, minus
        the argv plumbing)."""
        from repro.core.pipeline import build_service
        from repro.fleet import FleetSpec, build_fleet
        from repro.runtime.client import ActYPClient
        from repro.runtime.server import ActYPServer

        records = build_fleet(FleetSpec(size=60, seed=3))
        with ShardSupervisor(2, snapshot_dir=tmp_path,
                             records=records).start() as sup:
            with ShardServiceClient(sup.endpoints) as db:
                service = build_service(db, n_pool_managers=1)

                async def scenario():
                    async with ActYPServer(service) as server:
                        async with ActYPClient("127.0.0.1",
                                               server.port) as client:
                            result = await client.query(
                                "punch.rsrc.arch = sun\n"
                                "punch.rsrc.memory = >=128")
                            assert result["ok"] is True
                            await client.release(
                                result["allocation"]["access_key"])

                asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Crash-exact durability (ISSUE 7): WAL + fault injection acceptance
# ---------------------------------------------------------------------------

#: Which crash points leave the in-flight op durable after recovery.
#: ``wal.after_append`` and ``reply.mid_frame`` fire after the record
#: reached the OS (an os.write survives SIGKILL); the two earlier
#: points fire before a complete record exists, so the op must vanish.
_OP_SURVIVES = {
    "wal.before_append": False,
    "wal.mid_append": False,
    "wal.after_append": True,
    "reply.mid_frame": True,
}


def _wait_dead(sup, shard_index, timeout=10.0):
    deadline = time.monotonic() + timeout
    proc = sup._processes[shard_index]
    while proc.is_alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not proc.is_alive(), f"shard {shard_index} survived its kill"


def _kill_through(client, sup, shard_index, point, op):
    """Arm ``point`` on one worker, drive ``op`` into it (the worker
    dies mid-op; the client must surface a failure, never a half
    frame), then restart the worker."""
    client.inject_fault(shard_index, {point: 1})
    with pytest.raises((OSError, ReproError)):
        op()
    _wait_dead(sup, shard_index)
    assert sup.ensure_alive() == [shard_index]


def _fleet_state(db):
    """Everything observable: rows in order, plus take/holder state."""
    rows = [r.to_row() for r in db.match(None, include_taken=True)]
    holders = {r[0]: db.holder_of(r[0]) for r in rows}
    return rows, holders


def _random_ops(rng, n_ops):
    names = [f"b{i:02d}" for i in range(6)]
    ops = []
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.40:
            ops.append(("add", _record(
                f"n{i:02d}", rng.choice(_ARCHES), rng.choice(_MEMORIES),
                round(rng.uniform(0.0, 8.0), 2), rng.random() < 0.8)))
        elif roll < 0.55:
            ops.append(("remove", rng.choice(names)))
        elif roll < 0.70:
            ops.append(("take", rng.choice(names),
                        rng.choice(("poolA", "poolB"))))
        elif roll < 0.85:
            ops.append(("release", rng.choice(names),
                        rng.choice(("poolA", "poolB"))))
        else:
            ops.append(("update_dynamic", rng.choice(names),
                        round(rng.uniform(0.0, 8.0), 2)))
    return ops


class TestCrashExactRecovery:
    """The acceptance property: with ``wal=fsync``, SIGKILL-ing workers
    at seeded crash points during a randomized mutation history, then
    supervisor restart + replay, yields a fleet record- and
    order-identical to a never-crashed in-process oracle."""

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", (11, 23))
    def test_randomized_crash_history_matches_oracle(self, tmp_path, n,
                                                     seed):
        rng = random.Random(seed)
        base = [_record(f"b{i:02d}", rng.choice(_ARCHES),
                        rng.choice(_MEMORIES), 0.0, True)
                for i in range(6)]
        ops = _random_ops(rng, 30)
        plan = faults.FaultPlan.random(seed, len(ops), kills=3)
        checkpoint_at = len(ops) // 2

        oracle = ShardedWhitePagesDatabase(base, shards=n)
        with ShardSupervisor(n, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            for i, op in enumerate(ops):
                if i == checkpoint_at:
                    # Mid-history checkpoint: truncation + watermark
                    # must not change what replay reconstructs.
                    sup.checkpoint()
                point = plan.point_for(i)
                if point is not None:
                    # The kill rides a guaranteed-success register, so
                    # the countdown always fires at the armed point.
                    rec = _record(f"kill{i:02d}", "sun", "128", 0.0, True)
                    shard = shard_of(rec.machine_name, n)
                    _kill_through(client, sup, shard, point,
                                  lambda: client.add(rec))
                    if _OP_SURVIVES[point]:
                        oracle.add(rec)
                _apply_both(oracle, client, op)

            got_rows, got_holders = _fleet_state(client)
            want_rows, want_holders = _fleet_state(oracle)
            assert got_rows == want_rows, f"shards={n} seed={seed}"
            assert got_holders == want_holders
            assert sup.restarts == len(list(plan))
            assert client.wal_stats()["modes"] == ["fsync"]

    def test_wal_off_keeps_lossy_contract(self, tmp_path):
        """PR 5 unchanged: without a WAL, restart = last checkpoint
        (mutations after it roll back) and no op logs appear."""
        records = [_record(n, "sun", "256", 0.0, True) for n in _NAMES[:4]]
        with ShardSupervisor(1, snapshot_dir=tmp_path, records=records
                             ).start() as sup:
            client = sup.client()
            sup.checkpoint()
            client.update_dynamic(_NAMES[0], current_load=7.5)
            assert client.health()[0]["wal"] == {"mode": "off"}
            sup._processes[0].kill()
            _wait_dead(sup, 0)
            sup.ensure_alive()
            assert client.get(_NAMES[0]).current_load == 0.0
        assert not list(tmp_path.glob("*.wal"))

    def test_async_mode_survives_sigkill(self, tmp_path):
        """``async`` durability: records reach the page cache before
        the reply, so a process kill (vs power loss) loses nothing."""
        with ShardSupervisor(1, snapshot_dir=tmp_path,
                             wal="async").start() as sup:
            client = sup.client()
            for i in range(5):
                client.add(_record(f"m{i:02d}", "sun", "128", 0.0, True))
            client.take("m00", "poolA")
            sup._processes[0].kill()
            _wait_dead(sup, 0)
            sup.ensure_alive()
            assert len(client) == 5
            assert client.holder_of("m00") == "poolA"

    def test_reply_torn_mid_frame_fails_closed(self, tmp_path):
        """The op was durable before the torn reply: the client sees a
        hard failure (never a half-frame decode), and after recovery
        the mutation is present."""
        with ShardSupervisor(1, snapshot_dir=tmp_path,
                             wal="fsync").start() as sup:
            client = sup.client()
            client.add(_record("m00", "sun", "128", 0.0, True))
            _kill_through(client, sup, 0, "reply.mid_frame",
                          lambda: client.take("m00", "poolA"))
            assert client.holder_of("m00") == "poolA"
            assert client.names() == ["m00"]

    def test_checkpoint_crash_before_rename_preserves_state(self, tmp_path):
        """Die with the snapshot tmp file written but not renamed: the
        old snapshot + full WAL stay authoritative."""
        with ShardSupervisor(1, snapshot_dir=tmp_path,
                             wal="fsync").start() as sup:
            client = sup.client()
            for i in range(8):
                client.add(_record(f"m{i:02d}", "sun", "128", 0.0, True))
            client.inject_fault(0, {"checkpoint.before_rename": 1})
            with pytest.raises((OSError, ReproError)):
                sup.checkpoint()
            _wait_dead(sup, 0)
            assert sup.ensure_alive() == [0]
            assert len(client) == 8
            # And the next checkpoint completes normally.
            sup.checkpoint()
            sup._processes[0].kill()
            _wait_dead(sup, 0)
            sup.ensure_alive()
            assert len(client) == 8

    @pytest.mark.parametrize("n", (1, 2))
    def test_checkpoint_crash_after_rename_never_double_applies(
            self, tmp_path, n):
        """The watermark guard: die with the new snapshot renamed into
        place but the WAL not yet truncated.  Recovery sees snapshot
        records AND their WAL entries — the embedded LSN watermark must
        make the stale records no-ops (a double-applied register would
        blow up replay with DuplicateMachineError)."""
        base = [_record(f"b{i:02d}", "sun", "128", 0.0, True)
                for i in range(4)]
        with ShardSupervisor(n, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            sup.checkpoint()  # snapshots[i] now point at checkpoint files
            for i in range(6):
                client.add(_record(f"m{i:02d}", "sun", "256", 0.0, True))
            client.take("b00", "poolA")
            want_rows, want_holders = _fleet_state(client)
            victim = shard_of("m00", n)
            client.inject_fault(victim, {"checkpoint.after_rename": 1})
            with pytest.raises((OSError, ReproError)):
                sup.checkpoint()
            _wait_dead(sup, victim)
            assert victim in sup.ensure_alive()
            got_rows, got_holders = _fleet_state(client)
            assert got_rows == want_rows
            assert got_holders == want_holders

    def test_restart_the_world_replays_all_shards(self, tmp_path):
        """A brand-new supervisor over the same snapshot_dir adopts the
        newest checkpoint and replays every shard's op-log tail — full
        fleet recovery, not just single-worker restart."""
        base = [_record(f"b{i:02d}", "sun", "128", 0.0, True)
                for i in range(4)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            sup.checkpoint()
            for i in range(10):
                client.add(_record(f"m{i:02d}", "sun", "256", 0.0, True))
            client.take("m03", "poolA")
            want_rows, want_holders = _fleet_state(client)
            for proc in sup._processes:
                proc.kill()  # the whole fleet dies; nothing graceful
            for i in range(2):
                _wait_dead(sup, i)
        with ShardSupervisor(2, snapshot_dir=tmp_path,
                             wal="fsync").start() as sup2:
            got_rows, got_holders = _fleet_state(sup2.client())
            assert got_rows == want_rows
            assert got_holders == want_holders

    def test_explicit_reseed_discards_stale_wal(self, tmp_path):
        """Records passed to a new supervisor are an explicit re-seed:
        old op logs must not replay over them."""
        with ShardSupervisor(1, snapshot_dir=tmp_path,
                             wal="fsync").start() as sup:
            sup.client().add(_record("old", "sun", "128", 0.0, True))
        fresh = [_record("new", "hp", "256", 0.0, True)]
        with ShardSupervisor(1, snapshot_dir=tmp_path, records=fresh,
                             wal="fsync").start() as sup2:
            assert sup2.client().names() == ["new"]

    def test_wal_config_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="wal"):
            ShardSupervisor(1, snapshot_dir=tmp_path, wal="sometimes")
        with pytest.raises(ConfigError, match="snapshot_dir"):
            ShardSupervisor(1, wal="fsync")
        with pytest.raises(ConfigError, match="wal_interval"):
            ShardSupervisor(1, snapshot_dir=tmp_path, wal="fsync",
                            wal_interval=-0.5)

    def test_wal_stats_aggregates_fleet(self, tmp_path):
        with ShardSupervisor(2, snapshot_dir=tmp_path,
                             wal="fsync").start() as sup:
            client = sup.client()
            for i in range(6):
                client.add(_record(f"m{i:02d}", "sun", "128", 0.0, True))
            stats = client.wal_stats()
            assert stats["modes"] == ["fsync"]
            assert stats["appended"] == 6
            assert stats["syncs"] >= 1
            assert stats["bytes"] > 0
            assert len(stats["per_shard"]) == 2
            assert sorted(tmp_path.glob("*.wal")) == [
                tmp_path / "shard_0.wal", tmp_path / "shard_1.wal"]

    def test_fault_verb_rejects_unknown_point(self, tmp_path):
        with ShardSupervisor(1, snapshot_dir=tmp_path).start() as sup:
            with pytest.raises(RuntimeProtocolError):
                sup.client().inject_fault(0, {"wal.typo": 1})
