"""The write-ahead op log and fault harness: unit-level durability.

The crash-*recovery* property (SIGKILL real workers at seeded crash
points, restart, compare to a never-crashed oracle) lives in
``test_shard_service.py``; this module pins down the layers under it:

- WAL record round-trip, LSN monotonicity, truncate, close semantics;
- fail-closed recovery: a torn tail truncated at EVERY byte offset
  yields exactly the longest valid record prefix — never a partial or
  corrupted op (the torn-tail fuzz satellite);
- corruption guards: CRC flips, bad magic, bad JSON, non-monotonic
  LSNs all stop the scan;
- snapshot watermark: ``wal_lsn`` embeds/extracts across format
  versions and gates replay;
- ``atomic_write_text``: old-or-new contents only, no tmp litter;
- the fault injector: countdown semantics, env-var scoping, and
  :class:`FaultPlan` seed determinism;
- graceful worker shutdown flushes and closes the log (no dangling fd,
  replay-free restart);
- retry backoff bounds.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct
import zlib

import pytest

from repro.database.persistence import (
    atomic_write_text,
    dumps_database,
    loads_database,
    save_database,
    snapshot_wal_lsn,
)
from repro.database.records import MachineRecord
from repro.database.service import backoff_delay
from repro.database.wal import (
    WAL_MAGIC,
    WalRecoveryResult,
    WriteAheadLog,
    read_wal_tail,
    recover_wal,
)
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import ConfigError, DatabaseError
from repro.runtime import faults
from repro.runtime.protocol import read_frame, write_frame
from repro.runtime.shard_worker import ShardWorker


def _frames(n: int):
    return [{"kind": "register", "row": [f"m{i:03d}", "up", float(i)]}
            for i in range(n)]


@pytest.fixture(autouse=True)
def _no_injector():
    """Crash points must stay disarmed across tests."""
    faults.uninstall()
    yield
    faults.uninstall()


# ---------------------------------------------------------------------------
# Append / recover round trip
# ---------------------------------------------------------------------------


class TestWalRoundTrip:
    def test_append_assigns_monotonic_lsns(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        lsns = [wal.append(f) for f in _frames(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5
        wal.close()

    def test_recover_returns_entries_in_order(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        frames = _frames(7)
        for f in frames:
            wal.append(f)
        wal.close()
        rec = recover_wal(path)
        assert rec.reason == "end"
        assert rec.discarded_bytes == 0
        assert [f for _, f in rec.entries] == frames
        assert [lsn for lsn, _ in rec.entries] == list(range(1, 8))
        assert rec.last_lsn == 7

    def test_missing_file_is_empty_log(self, tmp_path):
        rec = recover_wal(tmp_path / "nope.wal")
        assert rec.entries == [] and rec.reason == "missing"
        assert rec.last_lsn == 0

    def test_open_resumes_lsn_sequence(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        for f in _frames(3):
            wal.append(f)
        wal.close()
        wal2, rec = WriteAheadLog.open(path)
        assert rec.last_lsn == 3
        assert wal2.append({"kind": "reset", "rows": []}) == 4
        wal2.close()
        assert recover_wal(path).last_lsn == 4

    def test_sync_and_needs_sync_bookkeeping(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal", mode="fsync")
        assert not wal.needs_sync
        wal.append(_frames(1)[0])
        assert wal.needs_sync and wal.synced_lsn == 0
        wal.sync()
        assert not wal.needs_sync and wal.synced_lsn == 1
        syncs = wal.syncs
        wal.sync()  # no-op when clean
        assert wal.syncs == syncs
        wal.close()

    def test_truncate_drops_records_keeps_lsn_counter(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        for f in _frames(4):
            wal.append(f)
        wal.truncate()
        assert path.read_bytes() == WAL_MAGIC
        assert wal.last_lsn == 4  # LSNs keep counting past a checkpoint
        wal.append(_frames(1)[0])
        rec = recover_wal(path)
        assert [lsn for lsn, _ in rec.entries] == [5]
        wal.close()

    def test_closed_wal_refuses_append_and_truncate(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal")
        wal.close()
        assert wal.closed
        wal.close()  # idempotent
        with pytest.raises(DatabaseError):
            wal.append({"kind": "reset"})
        with pytest.raises(DatabaseError):
            wal.truncate()

    def test_mode_and_interval_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            WriteAheadLog(tmp_path / "s.wal", mode="off")
        with pytest.raises(ConfigError):
            WriteAheadLog(tmp_path / "s.wal", mode="banana")
        with pytest.raises(ConfigError):
            WriteAheadLog(tmp_path / "s.wal", group_commit_interval=-1)

    def test_stats_shape(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "s.wal", mode="async",
                            group_commit_interval=0.5)
        wal.append(_frames(1)[0])
        stats = wal.stats()
        assert stats["mode"] == "async"
        assert stats["last_lsn"] == 1 and stats["appended"] == 1
        assert stats["bytes"] > len(WAL_MAGIC)
        assert stats["group_commit_interval"] == 0.5
        wal.close()


# ---------------------------------------------------------------------------
# Fail-closed recovery: torn tails and corruption
# ---------------------------------------------------------------------------


class TestTornTailFuzz:
    def test_every_truncation_point_yields_longest_valid_prefix(
            self, tmp_path):
        """The fuzz satellite: chop the log at EVERY byte offset; the
        recovered entries must be exactly the records wholly contained
        in the kept bytes — fail-closed, no partial op ever visible."""
        path = tmp_path / "full.wal"
        wal = WriteAheadLog(path)
        frames = _frames(6)
        boundaries = [len(WAL_MAGIC)]
        for f in frames:
            wal.append(f)
            boundaries.append(os.fstat(wal._fd).st_size)
        wal.close()
        data = path.read_bytes()
        assert boundaries[-1] == len(data)
        torn = tmp_path / "torn.wal"
        for cut in range(len(data) + 1):
            torn.write_bytes(data[:cut])
            rec = recover_wal(torn)
            # Largest record boundary at or below the cut.
            want = max(i for i, b in enumerate(boundaries) if b <= cut) \
                if cut >= len(WAL_MAGIC) else 0
            assert len(rec.entries) == want, f"cut={cut}"
            assert [f for _, f in rec.entries] == frames[:want]
            assert rec.good_bytes <= cut
            if cut < len(WAL_MAGIC):
                assert rec.reason == "bad-magic"

    def test_open_physically_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        for f in _frames(3):
            wal.append(f)
        wal.close()
        good = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x01\x00garbage")
        wal2, rec = WriteAheadLog.open(path)
        assert rec.last_lsn == 3 and rec.discarded_bytes > 0
        assert os.fstat(wal2._fd).st_size == good
        wal2.append(_frames(1)[0])  # appends glue onto the good prefix
        wal2.close()
        assert recover_wal(path).last_lsn == 4

    def test_crc_flip_discards_record_and_tail(self, tmp_path):
        path = tmp_path / "s.wal"
        wal = WriteAheadLog(path)
        sizes = []
        for f in _frames(4):
            wal.append(f)
            sizes.append(os.fstat(wal._fd).st_size)
        wal.close()
        data = bytearray(path.read_bytes())
        # Flip one payload byte of record 3 (records 1-2 stay valid).
        data[sizes[1] + 8 + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        rec = recover_wal(path)
        assert rec.reason == "crc-mismatch"
        assert len(rec.entries) == 2
        assert rec.good_bytes == sizes[1]

    def test_bad_magic_is_wholly_discarded(self, tmp_path):
        path = tmp_path / "s.wal"
        path.write_bytes(b"NOTAWAL0" + b"x" * 64)
        rec = recover_wal(path)
        assert rec.entries == [] and rec.reason == "bad-magic"
        assert rec.discarded_bytes == path.stat().st_size

    def test_undecodable_payload_stops_scan(self, tmp_path):
        path = tmp_path / "s.wal"
        payload = b"\xff\xfenot json"
        record = struct.pack(">II", len(payload),
                             zlib.crc32(payload)) + payload
        path.write_bytes(WAL_MAGIC + record)
        rec = recover_wal(path)
        assert rec.entries == [] and rec.reason == "bad-json"

    def test_non_monotonic_lsn_stops_scan(self, tmp_path):
        path = tmp_path / "s.wal"

        def rec_bytes(lsn):
            payload = json.dumps([lsn, {"kind": "reset"}]).encode()
            return struct.pack(">II", len(payload),
                               zlib.crc32(payload)) + payload

        path.write_bytes(WAL_MAGIC + rec_bytes(1) + rec_bytes(1))
        rec = recover_wal(path)
        assert len(rec.entries) == 1
        assert rec.reason == "non-monotonic-lsn"

    def test_insane_length_field_does_not_allocate(self, tmp_path):
        path = tmp_path / "s.wal"
        path.write_bytes(WAL_MAGIC + struct.pack(">II", 1 << 30, 0))
        rec = recover_wal(path)
        assert rec.entries == [] and rec.reason == "bad-length"


# ---------------------------------------------------------------------------
# Snapshot watermark + atomic writes
# ---------------------------------------------------------------------------


class TestWatermarkAndAtomicWrite:
    def test_wal_lsn_embeds_and_extracts(self):
        db = WhitePagesDatabase(
            [MachineRecord(machine_name="a"), MachineRecord(machine_name="b")])
        compact = dumps_database(db, wal_lsn=417)
        reformatted = json.dumps(json.loads(compact), indent=2)  # by hand
        for text in (compact, reformatted):
            assert snapshot_wal_lsn(text) == 417
            loaded = loads_database(text)  # watermark is ignorable metadata
            assert loaded.names() == ["a", "b"]

    def test_no_watermark_means_replay_everything(self):
        db = WhitePagesDatabase([MachineRecord(machine_name="a")])
        assert snapshot_wal_lsn(dumps_database(db)) == 0
        assert snapshot_wal_lsn("garbage") == 0

    def test_save_database_threads_watermark(self, tmp_path):
        db = WhitePagesDatabase([MachineRecord(machine_name="a")])
        path = tmp_path / "snap.json"
        save_database(db, path, wal_lsn=9)
        assert snapshot_wal_lsn(path.read_text()) == 9

    def test_atomic_write_leaves_no_tmp_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new contents")
        assert path.read_text() == "new contents"
        assert list(tmp_path.iterdir()) == [path]

    def test_atomic_write_failure_keeps_old_contents(self, tmp_path):
        target = tmp_path / "gone" / "out.txt"
        with pytest.raises(OSError):
            atomic_write_text(target, "x")
        assert not (tmp_path / "gone").exists()


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_countdown_fires_on_nth_hit_then_disarms(self):
        inj = faults.FaultInjector({"wal.after_append": 3})
        assert not inj.should_fire("wal.after_append")
        assert not inj.should_fire("wal.after_append")
        assert inj.should_fire("wal.after_append")
        # Expired trigger is removed: no re-fire.
        assert not inj.should_fire("wal.after_append")
        assert inj.hits == [("wal.after_append", 2),
                            ("wal.after_append", 1),
                            ("wal.after_append", 0)]

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultInjector({"wal.typo": 1})
        with pytest.raises(ValueError):
            faults.FaultPlan([(0, "nope")])

    def test_module_hooks_free_when_disarmed(self):
        assert faults.installed() is None
        assert not faults.should_fire("wal.before_append")
        faults.crash_point("wal.before_append")  # no-op, must not raise

    def test_install_from_env_scopes_by_shard(self, monkeypatch):
        config = faults.FaultInjector({"wal.mid_append": 2}, shard=3)
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, config.to_json())
        faults.install_from_env(shard_index=1)
        assert faults.installed() is None  # wrong shard: stays disarmed
        faults.install_from_env(shard_index=3)
        armed = faults.installed()
        assert armed is not None and armed.triggers == {"wal.mid_append": 2}

    def test_install_from_env_ignores_garbage(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "{not json")
        faults.install_from_env(0)
        assert faults.installed() is None

    def test_fault_plan_is_seed_deterministic(self):
        a = faults.FaultPlan.random(42, n_ops=50, kills=4)
        b = faults.FaultPlan.random(42, n_ops=50, kills=4)
        assert list(a) == list(b) and len(list(a)) == 4
        assert list(faults.FaultPlan.random(43, n_ops=50, kills=4)) != list(a)
        for i, point in a:
            assert 0 <= i < 50 and point in faults.CRASH_POINTS
            assert a.point_for(i) == point
        assert a.point_for(999) is None

    def test_fault_plan_caps_kills_at_history_length(self):
        assert len(list(faults.FaultPlan.random(1, n_ops=2, kills=9))) == 2
        assert list(faults.FaultPlan.random(1, n_ops=0)) == []


# ---------------------------------------------------------------------------
# Worker-side durability plumbing (in-process, single event loop)
# ---------------------------------------------------------------------------


def _row(name: str):
    return MachineRecord(machine_name=name).to_row()


async def _serve_and_send(worker: ShardWorker, frames):
    """Drive a live in-process worker over a real socket pair."""
    await worker.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", worker.port)
    replies = []
    try:
        for frame in frames:
            await write_frame(writer, frame)
            replies.append(await read_frame(reader))
    finally:
        writer.close()
    return replies


class TestWorkerWalIntegration:
    def test_graceful_stop_flushes_and_closes_wal(self, tmp_path):
        """The shutdown satellite: a clean stop leaves a synced, closed
        log whose replay is a no-op on the next start."""
        path = tmp_path / "s.wal"

        async def scenario():
            wal = WriteAheadLog(path, mode="fsync")
            worker = ShardWorker(wal=wal)
            replies = await _serve_and_send(worker, [
                {"kind": "register", "row": _row("a")},
                {"kind": "register", "row": _row("b")},
                {"kind": "take", "name": "a", "pool": "p"},
            ])
            assert all(r["kind"] == "ok" for r in replies)
            await worker.stop()
            return wal

        wal = asyncio.run(scenario())
        assert wal.closed
        assert wal.synced_lsn == wal.last_lsn == 3
        rec = recover_wal(path)
        assert rec.reason == "end" and rec.last_lsn == 3

    def test_failed_ops_are_not_logged(self, tmp_path):
        path = tmp_path / "s.wal"

        async def scenario():
            wal = WriteAheadLog(path, mode="fsync")
            worker = ShardWorker(wal=wal)
            replies = await _serve_and_send(worker, [
                {"kind": "register", "row": _row("a")},
                {"kind": "remove", "name": "ghost"},   # UnknownMachineError
                {"kind": "get", "name": "a"},          # read: never logged
                {"kind": "register", "row": _row("a")},  # duplicate
            ])
            await worker.stop()
            return replies

        replies = asyncio.run(scenario())
        assert replies[1]["kind"] == "error"
        assert replies[3]["kind"] == "error"
        entries = recover_wal(path).entries
        assert [f["kind"] for _, f in entries] == ["register"]

    def test_replay_rebuilds_state_past_watermark(self, tmp_path):
        path = tmp_path / "s.wal"

        async def scenario():
            wal = WriteAheadLog(path, mode="fsync")
            worker = ShardWorker(wal=wal)
            await _serve_and_send(worker, [
                {"kind": "register", "row": _row("a")},
                {"kind": "register", "row": _row("b")},
                {"kind": "take", "name": "b", "pool": "p"},
                {"kind": "update_dynamic", "name": "a",
                 "dynamic": {"current_load": 3.5}},
            ])
            await worker.stop()

        asyncio.run(scenario())
        entries = recover_wal(path).entries
        fresh = ShardWorker()
        assert fresh.replay(entries) == 4
        assert fresh.database.names() == ["a", "b"]
        assert fresh.database.holder_of("b") == "p"
        assert fresh.database.get("a").current_load == 3.5
        # Watermark skips what a snapshot already covers.
        partial = ShardWorker(WhitePagesDatabase(
            [MachineRecord(machine_name="a"),
             MachineRecord(machine_name="b")]))
        assert partial.replay(entries, watermark=2) == 2
        assert partial.database.holder_of("b") == "p"

    def test_replay_refuses_non_mutating_and_diverged_frames(self):
        worker = ShardWorker()
        with pytest.raises(DatabaseError, match="non-mutating"):
            worker.replay([(1, {"kind": "get", "name": "a"})])
        with pytest.raises(DatabaseError, match="diverged"):
            worker.replay([(1, {"kind": "remove", "name": "ghost"})])

    def test_group_commit_shares_one_sync(self, tmp_path):
        """Concurrent mutations landing in the same commit window must
        not pay one fdatasync each."""
        path = tmp_path / "s.wal"

        async def scenario():
            wal = WriteAheadLog(path, mode="fsync",
                                group_commit_interval=0.01)
            worker = ShardWorker(wal=wal)
            await worker.start()

            async def one(i):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", worker.port)
                try:
                    await write_frame(writer, {
                        "kind": "register", "row": _row(f"m{i:02d}")})
                    return await read_frame(reader)
                finally:
                    writer.close()

            replies = await asyncio.gather(*(one(i) for i in range(8)))
            await worker.stop()
            return wal, replies

        wal, replies = asyncio.run(scenario())
        assert all(r["kind"] == "ok" for r in replies)
        assert wal.appended == 8
        # 8 ops, far fewer syncs (stop() adds at most one final flush).
        assert wal.syncs < 8

    def test_health_reports_wal_stats(self, tmp_path):
        async def scenario():
            wal = WriteAheadLog(tmp_path / "s.wal", mode="fsync")
            worker = ShardWorker(wal=wal)
            replies = await _serve_and_send(worker, [
                {"kind": "register", "row": _row("a")},
                {"kind": "health"},
            ])
            await worker.stop()
            return replies[1]

        health = asyncio.run(scenario())
        assert health["wal"]["mode"] == "fsync"
        assert health["wal"]["last_lsn"] == 1
        assert health["wal"]["synced_lsn"] == 1

        async def no_wal():
            worker = ShardWorker()
            replies = await _serve_and_send(worker, [{"kind": "health"}])
            await worker.stop()
            return replies[0]

        assert asyncio.run(no_wal())["wal"] == {"mode": "off"}


# ---------------------------------------------------------------------------
# Retry backoff
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_backoff_grows_and_caps(self):
        import random as _random
        rng = _random.Random(0)
        delays = [backoff_delay(a, base=0.05, cap=2.0, rng=rng)
                  for a in range(12)]
        assert all(d >= 0.0 for d in delays)
        # Jitter is bounded: never more than 1.25x the nominal value.
        assert max(delays) <= 2.0 * 1.25
        assert delays[0] < 0.1  # first retry is quick

    def test_backoff_jitter_decorrelates(self):
        import random as _random
        rng = _random.Random(7)
        samples = {backoff_delay(3, rng=rng) for _ in range(16)}
        assert len(samples) > 1  # not lockstep


class TestRecoveryResultRepr:
    def test_result_holds_scan_outcome(self):
        r = WalRecoveryResult([(1, {"kind": "reset"})], 30, 4, "torn-header")
        assert r.last_lsn == 1
        assert r.good_bytes == 30 and r.discarded_bytes == 4


# ---------------------------------------------------------------------------
# Bounded tail streaming (the live-migration read path)
# ---------------------------------------------------------------------------


class TestWalTailStreaming:
    """``read_wal_tail``: reads of a log that may be growing under the
    reader.  Unlike recovery, a torn record at the streamed boundary is
    *expected* (a racing ``os.write``) and reported, never judged."""

    def _log(self, path, n, start=0):
        wal, _ = WriteAheadLog.open(path, mode="async")
        for frame in _frames(n)[start:]:
            wal.append(frame)
        wal.close()
        return wal

    def test_streams_from_arbitrary_lsn(self, tmp_path):
        path = tmp_path / "t.wal"
        self._log(path, 10)
        for after in (0, 1, 5, 9, 10, 99):
            tail = read_wal_tail(path, after_lsn=after)
            want = [i for i in range(1, 11) if i > after]
            assert [lsn for lsn, _ in tail.entries] == want
            assert tail.complete and tail.reason == "end"
        # The frames themselves round-trip exactly.
        tail = read_wal_tail(path, after_lsn=7)
        assert [f for _, f in tail.entries] == _frames(10)[7:]

    def test_max_records_bounds_each_slice(self, tmp_path):
        path = tmp_path / "t.wal"
        self._log(path, 10)
        tail = read_wal_tail(path, after_lsn=0, max_records=4)
        assert [lsn for lsn, _ in tail.entries] == [1, 2, 3, 4]
        assert tail.reason == "bounded" and not tail.complete
        rest = read_wal_tail(path, after_lsn=tail.last_lsn,
                             from_offset=tail.next_offset)
        assert [lsn for lsn, _ in rest.entries] == list(range(5, 11))
        assert rest.complete

    def test_resume_offset_skips_reparsing_and_sees_appends(self, tmp_path):
        """The concurrent-append shape: read, writer appends more,
        resume from next_offset picks up exactly the new records."""
        path = tmp_path / "t.wal"
        wal, _ = WriteAheadLog.open(path, mode="async")
        for frame in _frames(3):
            wal.append(frame)
        first = read_wal_tail(path)
        assert [lsn for lsn, _ in first.entries] == [1, 2, 3]
        for frame in _frames(6)[3:]:
            wal.append(frame)
        second = read_wal_tail(path, after_lsn=first.last_lsn,
                               from_offset=first.next_offset)
        assert [lsn for lsn, _ in second.entries] == [4, 5, 6]
        wal.close()

    def test_torn_tail_at_streamed_boundary_then_retry(self, tmp_path):
        """Truncate the file at every byte of the last record: the
        scan returns the intact prefix with a torn reason; once the
        record lands whole, the retry from next_offset completes."""
        path = tmp_path / "t.wal"
        self._log(path, 4)
        whole = path.read_bytes()
        last = read_wal_tail(path, after_lsn=3).next_offset
        # Where record 4 starts: stream the first three, note the offset.
        start4 = read_wal_tail(path, max_records=3).next_offset
        for cut in range(start4 + 1, len(whole)):
            path.write_bytes(whole[:cut])
            tail = read_wal_tail(path, after_lsn=0)
            assert [lsn for lsn, _ in tail.entries] == [1, 2, 3], cut
            assert not tail.complete
            assert tail.reason in ("torn-header", "torn-payload",
                                   "crc-mismatch", "bad-length")
            # The "append" completes; resuming drains the stream.
            path.write_bytes(whole)
            retry = read_wal_tail(path, after_lsn=tail.last_lsn,
                                  from_offset=tail.next_offset)
            assert [lsn for lsn, _ in retry.entries] == [4]
            assert retry.complete and retry.next_offset == last

    def test_missing_file_is_an_empty_complete_stream(self, tmp_path):
        tail = read_wal_tail(tmp_path / "absent.wal")
        assert tail.entries == [] and tail.reason == "missing"
        assert not tail.complete

    def test_truncated_log_restarts_from_head(self, tmp_path):
        """A from_offset past EOF (the log shrank under the reader —
        e.g. checkpoint truncation raced a slow stream) falls back to a
        full rescan; the LSN filter keeps the result exact."""
        path = tmp_path / "t.wal"
        self._log(path, 6)
        size = path.stat().st_size
        wal, _ = WriteAheadLog.open(path, mode="async")
        wal.truncate()
        for frame in _frames(9)[6:]:
            wal.append(frame)
        wal.close()
        tail = read_wal_tail(path, after_lsn=6, from_offset=size + 512)
        assert [lsn for lsn, _ in tail.entries] == [7, 8, 9]
        assert tail.complete
