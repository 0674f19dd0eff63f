"""Live shard migration on the op log: the resharding oracle.

The load-bearing property: a fleet that live-splits 2 -> 4 and
live-merges back 4 -> 2 **mid-history**, while serving, must end
record-, order-, and holder-identical to an in-process oracle that was
never resharded — changing the shard count is a capacity decision,
never a semantic one.

Also covered: concurrent point ops issued *during* the cutover window
never fail (they stall briefly and retry on the new routing table),
epoch fencing (stale-epoch frames are refused with the worker's
routing table attached), cold-restart adoption of the post-reshard
manifest, the abort path (a ``reset`` in the log tail), knob/geometry
validation, and the ``repro reshard`` CLI mailbox.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.database.records import MachineRecord
from repro.database.service import ShardServiceClient, ShardSupervisor
from repro.database.sharding import (
    RoutingTable,
    ShardedWhitePagesDatabase,
    shard_of,
)
from repro.database.fields import MachineState
from repro.errors import ConfigError, DatabaseError, StaleRoutingError

_ARCHES = ("sun", "hp", "x86")
_MEMORIES = ("64", "128", "256", "512")


def _record(name, arch="sun", memory="128", load=0.0, state_up=True):
    return MachineRecord(
        machine_name=name,
        state=MachineState.UP if state_up else MachineState.DOWN,
        current_load=load,
        available_memory_mb=float(int(memory)),
        admin_parameters={"arch": arch, "memory": memory},
    )


def _fleet_state(db):
    """Everything observable: rows in order, plus take/holder state."""
    rows = [r.to_row() for r in db.match(None, include_taken=True)]
    holders = {r[0]: db.holder_of(r[0]) for r in rows}
    return rows, holders


def _random_ops(rng, n_ops, names):
    """A mutation mix that includes the cross-shard verbs (``take_all``
    and ``release_pool``) whose re-partitioned replay is the delicate
    part of the migration.

    ``take_all`` draws only from names never removed: an unknown name
    makes its partial effects order-dependent (a pre-existing
    in-process vs remote difference out of scope here), which would
    make the oracle ill-defined.
    """
    ops = []
    alive = list(names)
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.35:
            ops.append(("add", _record(
                f"n{i:03d}", rng.choice(_ARCHES), rng.choice(_MEMORIES),
                round(rng.uniform(0.0, 8.0), 2), rng.random() < 0.8)))
        elif roll < 0.47:
            victim = rng.choice(names)
            ops.append(("remove", victim))
            if victim in alive:
                alive.remove(victim)
        elif roll < 0.62:
            ops.append(("take", rng.choice(names),
                        rng.choice(("poolA", "poolB"))))
        elif roll < 0.72:
            ops.append(("release", rng.choice(names),
                        rng.choice(("poolA", "poolB"))))
        elif roll < 0.82:
            ops.append(("update_dynamic", rng.choice(names),
                        round(rng.uniform(0.0, 8.0), 2)))
        elif roll < 0.92 and alive:
            ops.append(("take_all",
                        rng.sample(alive, k=rng.randint(1, len(alive))),
                        rng.choice(("poolA", "poolB"))))
        else:
            ops.append(("release_pool", rng.choice(("poolA", "poolB"))))
    return ops


def _apply_both(local, remote, op):
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
        if kind == "take_all":
            return sorted(db.take_all(op[1], op[2]))
        if kind == "release_pool":
            return db.release_pool(op[1])
        return db.update_dynamic(op[1], current_load=op[2])

    try:
        a, a_exc = run(local), None
    except Exception as exc:  # noqa: BLE001 - compared by type below
        a, a_exc = None, type(exc)
    try:
        b, b_exc = run(remote), None
    except Exception as exc:  # noqa: BLE001
        b, b_exc = None, type(exc)
    assert a_exc is b_exc, (kind, a_exc, b_exc)
    if kind in ("take", "take_all", "release_pool"):
        assert a == b, (kind, a, b)


class TestReshardedHistoryMatchesOracle:
    """The acceptance oracle: split and merge mid-history, compare to
    a never-resharded fleet."""

    @pytest.mark.parametrize("seed", (3, 19))
    def test_split_then_merge_mid_history(self, tmp_path, seed):
        rng = random.Random(seed)
        names = [f"b{i:02d}" for i in range(8)]
        base = [_record(n, rng.choice(_ARCHES), rng.choice(_MEMORIES))
                for n in names]
        ops = _random_ops(rng, 60, names)
        split_at, merge_at = len(ops) // 3, (2 * len(ops)) // 3

        oracle = ShardedWhitePagesDatabase(base, shards=2)
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            for i, op in enumerate(ops):
                if i == split_at:
                    report = sup.split(2)
                    assert (sup.shards, sup.epoch) == (4, 1)
                    assert report.new_shards == 4
                if i == merge_at:
                    report = sup.merge(2)
                    assert (sup.shards, sup.epoch) == (2, 2)
                    assert report.old_shards == 4
                _apply_both(oracle, client, op)

            got_rows, got_holders = _fleet_state(client)
            want_rows, want_holders = _fleet_state(oracle)
            assert got_rows == want_rows, f"seed={seed}"
            assert got_holders == want_holders, f"seed={seed}"

    def test_resharded_fleet_survives_cold_restart(self, tmp_path):
        """The post-reshard checkpoint (manifest + epoch) is the
        restart anchor: stop the world, start a fresh supervisor over
        the same directory, get the same fleet at the same epoch."""
        base = [_record(f"b{i:02d}") for i in range(10)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            client.take("b00", "poolA")
            sup.split(2)
            client.add(_record("post-split"))
            client.take("post-split", "poolB")
            want = _fleet_state(client)

        with ShardSupervisor(2, snapshot_dir=tmp_path,
                             wal="fsync").start() as sup2:
            # The stated shard count is a default; the epoch-bearing
            # manifest is authoritative about the real topology.
            assert (sup2.shards, sup2.epoch) == (4, 1)
            got = _fleet_state(sup2.client())
            assert got == want

    def test_split_replays_wal_tail_not_just_snapshot(self, tmp_path):
        """Mutations landed between the watermark snapshot and the
        cutover must arrive via tail replay; pin a tiny batch so the
        catch-up takes multiple rounds."""
        base = [_record(f"b{i:02d}") for i in range(12)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            for i in range(40):
                client.update_dynamic(f"b{i % 12:02d}",
                                      current_load=float(i))
            report = sup.rebalance(4, batch=8)
            assert report.tail_records == 0  # quiet fleet: no tail
            for i in range(12):
                assert client.get(f"b{i:02d}").current_load >= 0.0


class TestCutoverWindow:
    """Point ops racing the flip: stalls allowed, failures not."""

    def test_concurrent_point_ops_never_fail(self, tmp_path):
        base = [_record(f"b{i:02d}") for i in range(16)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            stop = threading.Event()
            errors, applied = [], []

            def hammer(k):
                i = 0
                while not stop.is_set():
                    name = f"h{k}-{i:04d}"
                    try:
                        client.add(_record(name))
                        if client.take(name, "pool"):
                            client.release(name, "pool")
                        applied.append(name)
                        i += 1
                    except Exception as exc:  # noqa: BLE001
                        errors.append((name, exc))
                        return

            threads = [threading.Thread(target=hammer, args=(k,))
                       for k in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            sup.split(2)
            time.sleep(0.2)
            stop.set()
            for t in threads:
                t.join()

            assert not errors, errors[:3]
            assert applied, "load generator never ran"
            # Every acknowledged op survived the migration.
            for name in applied:
                assert client.holder_of(name) is None

    def test_late_client_redirected_by_retired_worker(self, tmp_path):
        """A client built for the *old* fleet (old endpoints, old
        epoch) keeps working after the split: the retired workers hand
        it the new routing table on first refusal."""
        base = [_record(f"b{i:02d}") for i in range(8)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            stale = ShardServiceClient(sup.endpoints, epoch=0)
            try:
                sup.split(2)
                assert stale.get("b00").machine_name == "b00"
                assert stale.take("b01", "late-pool")
                assert stale.routing_table().epoch == 1
                assert stale.shard_count == 4
            finally:
                stale.close()

    def test_stale_epoch_frame_refused_with_routing(self, tmp_path):
        """The wire contract: after retirement the old worker answers
        a mutation with StaleRoutingError carrying the new table."""
        base = [_record(f"b{i:02d}") for i in range(8)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            old_endpoints = list(sup.endpoints)
            sup.split(2)
            probe = ShardServiceClient([old_endpoints[0]],
                                       refresh_timeout=0.2)
            try:
                with pytest.raises(StaleRoutingError) as err:
                    probe._route.conns[0].roundtrip(
                        {"kind": "take", "name": "b00", "pool": "p",
                         "epoch": 0})
                table = RoutingTable.from_wire(err.value.routing)
                assert table.epoch == 1
                assert table.shards == 4
                assert list(table.endpoints) == sup.endpoints
            finally:
                probe.close()


class TestMigrationGuards:
    """Refusals and the abort path leave the fleet serving."""

    def test_reshard_needs_wal(self, tmp_path):
        base = [_record("b00")]
        with ShardSupervisor(1, snapshot_dir=tmp_path,
                             records=base).start() as sup:
            with pytest.raises(ConfigError, match="op log"):
                sup.rebalance(2)

    def test_merge_must_divide(self, tmp_path):
        base = [_record("b00")]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            with pytest.raises(DatabaseError, match="merge"):
                sup.merge(3)

    def test_bad_knobs_rejected(self, tmp_path):
        base = [_record("b00")]
        with ShardSupervisor(1, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            with pytest.raises(ConfigError, match="knobs"):
                sup.rebalance(2, batch=0)
            with pytest.raises(ConfigError):
                sup.rebalance(0)

    def test_reset_in_tail_aborts_cleanly(self, tmp_path):
        """``reset`` replaces a whole shard and cannot be
        re-partitioned: the migration must abort, unfence, and leave
        the old fleet fully serving."""
        from repro.database.resharding import ShardMigrator

        base = [_record(f"b{i:02d}") for i in range(6)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            client = sup.client()
            migrator = ShardMigrator(sup, 4)
            watermarks, _ = migrator._snapshot_sources()
            # A reset lands in the tail after the watermark...
            client.reset([_record("fresh")])
            migrator._seed_targets()
            migrator._spawn_targets()
            with pytest.raises(DatabaseError, match="reset"):
                migrator._catch_up(watermarks)
            migrator._abort(RuntimeError("test"))
            sup._migrating = False

            # ...and the old fleet is intact and unfenced.
            assert sup.shards == 2 and sup.epoch == 0
            assert len(client) == 1
            client.add(_record("after-abort"))
            assert len(client) == 2
            assert not list(Path(tmp_path).glob("reshard_*"))

    def test_checkpoint_refused_mid_migration(self, tmp_path):
        base = [_record("b00")]
        with ShardSupervisor(1, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            sup._migrating = True
            try:
                with pytest.raises(DatabaseError, match="in progress"):
                    sup.checkpoint()
            finally:
                sup._migrating = False

    def test_routing_table_wire_roundtrip(self):
        table = RoutingTable(3, 2, [("127.0.0.1", 9001),
                                    ("127.0.0.1", 9002)])
        assert RoutingTable.from_wire(table.to_wire()) == table
        assert table.shard_of("b00") == shard_of("b00", 2)
        with pytest.raises(DatabaseError):
            RoutingTable.from_wire({"epoch": "x"})
        with pytest.raises(ConfigError):
            RoutingTable(0, 0)


class TestReshardCli:
    """The ``repro reshard`` mailbox protocol against a live fleet."""

    def test_request_executed_and_reported(self, tmp_path):
        from repro.cli import _check_reshard_request

        base = [_record(f"b{i:02d}") for i in range(6)]
        with ShardSupervisor(2, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            (tmp_path / "reshard.request").write_text(
                json.dumps({"to": 4}), encoding="utf-8")
            status = _check_reshard_request(sup, tmp_path)
            assert status and "2->4" in status
            done = json.loads(
                (tmp_path / "reshard.done").read_text(encoding="utf-8"))
            assert done["ok"] and done["shards"] == 4
            assert not (tmp_path / "reshard.request").exists()
            assert sup.shards == 4

    def test_failed_request_reports_error(self, tmp_path):
        from repro.cli import _check_reshard_request

        base = [_record("b00")]
        with ShardSupervisor(1, snapshot_dir=tmp_path, records=base,
                             wal="fsync").start() as sup:
            (tmp_path / "reshard.request").write_text(
                json.dumps({"to": 0}), encoding="utf-8")
            status = _check_reshard_request(sup, tmp_path)
            assert status and "failed" in status
            done = json.loads(
                (tmp_path / "reshard.done").read_text(encoding="utf-8"))
            assert not done["ok"]
            assert sup.shards == 1  # untouched

    def test_reshard_command_queues_and_waits(self, tmp_path, monkeypatch):
        """The client half end-to-end, with a thread standing in for
        the shard-serve loop."""
        from repro.cli import main

        done = {"ok": True, "summary": "resharded 2->4 shards",
                "shards": 4, "epoch": 1, "cutover_pause_s": 0.01,
                "endpoints": [["127.0.0.1", 1]] * 4}

        def fleet_side():
            request_path = tmp_path / "reshard.request"
            for _ in range(100):
                if request_path.exists():
                    request = json.loads(request_path.read_text())
                    assert request["to"] == 4
                    (tmp_path / "reshard.done").write_text(
                        json.dumps(done), encoding="utf-8")
                    return
                time.sleep(0.05)

        thread = threading.Thread(target=fleet_side)
        thread.start()
        rc = main(["reshard", "--snapshot-dir", str(tmp_path),
                   "--to", "4", "--wait", "--timeout", "10"])
        thread.join()
        assert rc == 0

    def test_sweep_mid_write_never_sees_a_torn_request(self, tmp_path,
                                                       monkeypatch):
        """A health sweep landing after the request file is opened for
        writing but before its bytes are written sees no request (or a
        whole one) — never an empty file it would reject and consume."""
        import builtins
        import io
        from types import SimpleNamespace

        from repro.cli import _check_reshard_request, main

        calls = []
        report = SimpleNamespace(
            summary=lambda: "resharded 2->4 shards", new_shards=4,
            new_epoch=1, cutover_pause_s=0.0, endpoints=[])
        fleet = SimpleNamespace(
            rebalance=lambda to, **_: calls.append(to) or report)
        swept = []
        real_open = builtins.open

        class SweepBeforeWrite:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def write(self, text):
                swept.append(_check_reshard_request(fleet, tmp_path))
                return self._handle.write(text)

        def pausing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if "w" in mode and Path(file).name.startswith("reshard.request"):
                return SweepBeforeWrite(handle)
            return handle

        monkeypatch.setattr(builtins, "open", pausing_open)
        monkeypatch.setattr(io, "open", pausing_open)
        assert main(["reshard", "--snapshot-dir", str(tmp_path),
                     "--to", "4"]) == 0
        monkeypatch.undo()
        assert swept == [None]
        assert not (tmp_path / "reshard.done").exists()
        status = _check_reshard_request(fleet, tmp_path)
        assert status == "resharded 2->4 shards" and calls == [4]

    def test_reshard_command_requires_directory(self, tmp_path):
        from repro.cli import main

        assert main(["reshard", "--snapshot-dir",
                     str(tmp_path / "nope"), "--to", "4"]) == 2


class TestExampleSmoke:
    """The shipped example is executable documentation; run it small."""

    def test_live_resharding_example_runs(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, str(repo / "examples" / "live_resharding.py"),
             "--machines", "600", "--seconds", "0.5"],
            capture_output=True, text=True, timeout=180,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin",
                 "HOME": str(tmp_path)},
        )
        assert result.returncode == 0, result.stderr
        assert "zero failed operations" in result.stdout
