"""Tests for white-pages persistence and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.database.fields import MachineState
from repro.database.persistence import (
    dumps_database,
    load_database,
    loads_database,
    restore_catalog,
    save_database,
)
from repro.database.indexes import pack_array, unpack_array
from repro.database.records import MachineRecord, ServiceStatusFlags
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import DatabaseError

from tests.conftest import linear_oracle, make_machine


class TestPersistence:
    def test_record_roundtrip(self):
        rec = make_machine(
            "m1",
            state=MachineState.BLOCKED,
            current_load=1.5,
            shared_account="nobody",
            usage_policy="light",
            service_status_flags=ServiceStatusFlags(pvfs_manager_up=False),
        )
        restored = loads_database(dumps_database(WhitePagesDatabase([rec])))
        assert restored.get("m1") == rec

    def test_database_roundtrip(self, fleet_db):
        restored = loads_database(dumps_database(fleet_db))
        assert len(restored) == len(fleet_db)
        for name in fleet_db.names():
            assert restored.get(name) == fleet_db.get(name)

    def test_file_roundtrip(self, fleet_db, tmp_path):
        path = tmp_path / "fleet.json"
        save_database(fleet_db, path)
        restored = load_database(path)
        assert restored.names() == fleet_db.names()

    def test_taken_state_round_trips(self, small_db, tmp_path):
        # take/release is mutable state like current_load: a snapshot
        # that dropped it could never be crash-exact (ISSUE 7).
        small_db.take("sun00", "poolX")
        restored = loads_database(dumps_database(small_db))
        assert restored.holder_of("sun00") == "poolX"
        assert restored.holders() == {"sun00": "poolX"}
        assert "sun00" not in restored.free_names()

    def test_untaken_snapshot_has_no_taken_key(self, small_db):
        assert '"taken"' not in dumps_database(small_db)

    def test_malformed_json_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database("{ not json")

    def test_wrong_format_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database(json.dumps({"format": "other", "version": 1}))

    def test_wrong_version_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database(json.dumps(
                {"format": "repro.whitepages", "version": 99}))

    def test_malformed_record_rejected(self, small_db):
        payload = json.loads(dumps_database(small_db))
        payload["machines"][0][0] = ""  # missing machine_name
        with pytest.raises(DatabaseError, match="malformed v3 machine row"):
            loads_database(json.dumps(payload))

    def test_snapshot_is_diff_friendly(self, small_db):
        a = dumps_database(small_db)
        b = dumps_database(small_db)
        assert a == b  # deterministic: sorted keys, sorted machines


class TestIndexSnapshot:
    """Snapshots restore the index catalog instead of rebuilding;
    every guard failure must fall back to a rebuild."""

    def _parsed(self, db):
        return json.loads(dumps_database(db))

    def _records(self, payload):
        return [MachineRecord.from_row(row) for row in payload["machines"]]

    def test_snapshot_restores_catalog(self, small_db):
        payload = self._parsed(small_db)
        catalog = restore_catalog(payload, self._records(payload))
        assert catalog is not None
        assert catalog.stats()["machines"] == len(small_db)

    def test_restored_database_matches_rebuilt(self, fleet_db):
        from repro.core.language import parse_query
        from repro.core.plan import compile_plan
        text = dumps_database(fleet_db)
        restored = loads_database(text)
        rebuilt = loads_database(text, use_index_snapshot=False)
        assert restored.index_stats() == rebuilt.index_stats()
        plan = compile_plan(parse_query(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=256").basic())
        assert [r.machine_name for r in restored.match(plan)] == \
            [r.machine_name for r in rebuilt.match(plan)]

    def test_checksum_mismatch_falls_back(self, small_db):
        payload = self._parsed(small_db)
        payload["machines"][0][2] = 77.0  # current_load, hand-edited
        assert restore_catalog(payload, self._records(payload)) is None
        # ...but the snapshot still loads, with correct (rebuilt) indexes.
        db = loads_database(json.dumps(payload))
        name = payload["machines"][0][0]
        assert db.get(name).current_load == 77.0
        got = [r.machine_name for r in db.match(None, include_taken=True)]
        assert got == [r.machine_name
                       for r in linear_oracle(db, include_taken=True)]

    def test_index_schema_mismatch_falls_back(self, small_db):
        payload = self._parsed(small_db)
        payload["indexes"]["schema"] = 999
        assert restore_catalog(payload, self._records(payload)) is None
        assert len(loads_database(json.dumps(payload))) == len(small_db)

    def test_structurally_broken_index_section_falls_back(self, small_db):
        payload = self._parsed(small_db)
        payload["indexes"]["hash"] = "corrupt"
        assert restore_catalog(payload, self._records(payload)) is None

    def test_unsorted_sorted_array_falls_back(self, fleet_db):
        payload = self._parsed(fleet_db)
        blocks = payload["indexes"]["sorted"]
        attr, values = next(
            (a, v) for a, v in ((a, unpack_array("d", b["values"]).tolist())
                                for a, b in blocks.items())
            if len(set(v)) > 1)
        blocks[attr]["values"] = pack_array("d", values[::-1])
        assert restore_catalog(payload, self._records(payload)) is None

    def test_misaligned_sorted_arrays_fall_back(self, small_db):
        payload = self._parsed(small_db)
        block = next(iter(payload["indexes"]["sorted"].values()))
        ids = unpack_array("I", block["names"]).tolist()
        block["names"] = pack_array("I", ids + [0])  # one id too many
        assert restore_catalog(payload, self._records(payload)) is None

    def test_records_only_dump_is_v1_compatible_shape(self, small_db):
        payload = json.loads(dumps_database(small_db,
                                            include_indexes=False))
        assert "indexes" not in payload
        assert len(loads_database(json.dumps(payload))) == len(small_db)

    def test_file_roundtrip_uses_snapshot(self, fleet_db, tmp_path):
        path = tmp_path / "fleet.json"
        save_database(fleet_db, path)
        restored = load_database(path)
        assert restored.index_stats() == fleet_db.index_stats()


class TestV3CompactSnapshot:
    """Version-3 compact snapshots: positional rows, fast loader,
    row-id index image with its own guard-and-fallback discipline."""

    def test_default_write_format_is_v3(self, small_db):
        payload = json.loads(dumps_database(small_db))
        assert payload["version"] == 3
        assert payload["row_schema"][0] == "machine_name"
        assert isinstance(payload["machines"][0], list)

    def test_row_codec_roundtrip(self):
        rec = make_machine(
            "m1",
            state=MachineState.BLOCKED,
            current_load=1.5,
            shared_account="nobody",
            usage_policy="light",
            service_status_flags=ServiceStatusFlags(pvfs_manager_up=False),
        )
        assert MachineRecord.from_row(rec.to_row()) == rec

    def test_v3_restores_catalog(self, fleet_db):
        text = dumps_database(fleet_db)
        restored = loads_database(text)
        rebuilt = loads_database(text, use_index_snapshot=False)
        assert restored.index_stats() == rebuilt.index_stats()

    def test_row_schema_mismatch_rejected(self, small_db):
        payload = json.loads(dumps_database(small_db))
        payload["row_schema"] = payload["row_schema"][:-1]
        with pytest.raises(DatabaseError):
            loads_database(json.dumps(payload))

    def test_malformed_row_rejected(self, small_db):
        payload = json.loads(dumps_database(small_db))
        payload["machines"][0] = payload["machines"][0][:-1]  # short row
        with pytest.raises(DatabaseError):
            loads_database(json.dumps(payload))

    def test_out_of_range_row_id_falls_back_to_rebuild(self, small_db):
        """A structurally broken row-id posting must be rejected at
        restore (silent rebuild), not crash the first probe."""
        payload = json.loads(dumps_database(small_db))
        attr = next(iter(payload["indexes"]["hash"]))
        token = next(iter(payload["indexes"]["hash"][attr]))
        payload["indexes"]["hash"][attr][token] = [999999]
        # Keep the checksum valid: only the index section was edited.
        db = loads_database(json.dumps(payload))
        got = [r.machine_name for r in db.match(None, include_taken=True)]
        assert got == [r.machine_name
                       for r in linear_oracle(db, include_taken=True)]

    def test_corrupt_packed_array_falls_back_to_rebuild(self, small_db):
        payload = json.loads(dumps_database(small_db))
        attr = next(iter(payload["indexes"]["sorted"]))
        for corrupt in ("not/base64!!", "QUJD"):  # bad chars; 3b != k*4
            payload["indexes"]["sorted"][attr]["names"] = corrupt
            db = loads_database(json.dumps(payload))
            assert len(db) == len(small_db)
            got = [r.machine_name
                   for r in db.match(None, include_taken=True)]
            assert got == [r.machine_name
                           for r in linear_oracle(db, include_taken=True)]

    def test_boolean_row_ids_fall_back_to_rebuild(self, small_db):
        """JSON true/false in a posting list must not index rows 1/0."""
        payload = json.loads(dumps_database(small_db))
        for attr, postings in payload["indexes"]["hash"].items():
            token = next(iter(postings))
            postings[token] = [True, False]
            break
        db = loads_database(json.dumps(payload))
        got = [r.machine_name for r in db.match(None, include_taken=True)]
        assert got == [r.machine_name
                       for r in linear_oracle(db, include_taken=True)]

    def test_out_of_range_packed_sorted_id_falls_back(self, small_db):
        payload = json.loads(dumps_database(small_db))
        attr = next(iter(payload["indexes"]["sorted"]))
        n = len(payload["machines"])
        payload["indexes"]["sorted"][attr] = {
            "values": pack_array("d", [1.0]),
            "names": pack_array("I", [n + 7]),
        }
        db = loads_database(json.dumps(payload))
        assert len(db) == len(small_db)

    def test_invalid_row_values_rejected_at_load(self, small_db):
        """from_row applies the same domain guards as the constructor."""
        from repro.database.records import RECORD_ROW_FIELDS
        for field_name, bad in [("num_cpus", 0), ("effective_speed", 0.0),
                                ("max_allowed_load", 0.0),
                                ("current_load", -1.0),
                                ("active_jobs", -2)]:
            payload = json.loads(dumps_database(small_db))
            col = RECORD_ROW_FIELDS.index(field_name)
            payload["machines"][0][col] = bad
            with pytest.raises(DatabaseError):
                loads_database(json.dumps(payload))

    def test_repeated_infinite_sorted_values_restore(self):
        """Two machines sharing an infinite numeric parameter must not
        trip the packed monotonicity check (inf - inf is NaN under a
        diff, but inf <= inf is True)."""
        db = WhitePagesDatabase([
            make_machine("m1", admin_parameters={"weight": "inf"}),
            make_machine("m2", admin_parameters={"weight": "inf"}),
        ])
        restored = loads_database(dumps_database(db))
        rebuilt = loads_database(dumps_database(db),
                                 use_index_snapshot=False)
        assert restored.index_stats() == rebuilt.index_stats()

    def test_negative_flag_bits_rejected(self, small_db):
        from repro.database.records import RECORD_ROW_FIELDS
        payload = json.loads(dumps_database(small_db))
        col = RECORD_ROW_FIELDS.index("service_flag_bits")
        payload["machines"][0][col] = -1
        with pytest.raises(DatabaseError):
            loads_database(json.dumps(payload))

    def test_unpack_array_roundtrip_and_errors(self):
        vals = [0.0, 1.5, float("inf")]
        assert unpack_array("d", pack_array("d", vals)).tolist() == vals
        ids = [0, 7, 4096]
        assert unpack_array("I", pack_array("I", ids)).tolist() == ids
        with pytest.raises(ValueError):
            unpack_array("d", "not/base64!!")
        with pytest.raises(ValueError):
            unpack_array("d", "QUJD")  # 3 bytes, not a multiple of 8

    def test_edited_row_fails_checksum_but_loads(self, small_db):
        payload = json.loads(dumps_database(small_db))
        payload["machines"][0][2] = 77.0  # current_load, hand-edited
        db = loads_database(json.dumps(payload))
        name = payload["machines"][0][0]
        assert db.get(name).current_load == 77.0
        got = [r.machine_name for r in db.match(None, include_taken=True)]
        assert got == [r.machine_name
                       for r in linear_oracle(db, include_taken=True)]

    def test_records_only_v3_loads(self, small_db):
        payload = json.loads(dumps_database(small_db,
                                            include_indexes=False))
        assert "indexes" not in payload
        assert len(loads_database(json.dumps(payload))) == len(small_db)

    def test_v3_dump_is_deterministic(self, small_db):
        assert dumps_database(small_db) == \
            dumps_database(small_db)

    def test_unknown_write_version_rejected(self, small_db):
        # v3 is the one writable format: the writers take no version.
        for retired in (1, 2, 4):
            with pytest.raises(TypeError):
                dumps_database(small_db, version=retired)

    def test_v3_file_roundtrip(self, fleet_db, tmp_path):
        path = tmp_path / "fleet.v3.json"
        save_database(fleet_db, path)
        restored = load_database(path)
        assert restored.names() == fleet_db.names()
        assert restored.index_stats() == fleet_db.index_stats()


class TestCli:
    def test_fleet_generation(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        rc = main(["fleet", "--size", "32", "--out", str(out)])
        assert rc == 0
        db = load_database(out)
        assert len(db) == 32
        assert "wrote 32 machines" in capsys.readouterr().out

    def test_experiment_fig9(self, capsys):
        rc = main(["experiment", "fig9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "CPU time" in out

    def test_experiment_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
