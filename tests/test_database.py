"""Tests for the white-pages database, directory, shadow accounts, policies."""

from __future__ import annotations

import pytest

from repro.core.language import parse_query
from repro.database.directory import LocalDirectoryService
from repro.database.fields import DYNAMIC_FIELDS, FIELD_NAMES, MachineState
from repro.database.policy import (
    PolicyContext,
    PolicyRegistry,
    all_of,
    always_allow,
    always_deny,
    any_of,
    group_in,
    load_below,
)
from repro.database.records import MachineRecord
from repro.database.shadow import ShadowAccountPool, ShadowAccountRegistry
from repro.errors import (
    ConfigError,
    DirectoryError,
    DuplicateMachineError,
    MachineTakenError,
    PolicyError,
    ShadowAccountError,
    UnknownMachineError,
)
from repro.net.address import Endpoint

from tests.conftest import make_machine


class TestFieldSchema:
    def test_paper_lists_twenty_fields(self):
        assert len(FIELD_NAMES) == 20
        assert FIELD_NAMES[1] == "state"
        assert FIELD_NAMES[11] == "machine_name"
        assert FIELD_NAMES[20] == "admin_parameters"

    def test_dynamic_fields_are_2_through_7(self):
        assert DYNAMIC_FIELDS == (
            "current_load", "active_jobs", "available_memory_mb",
            "available_swap_mb", "last_update_time", "service_status_flags",
        )


class TestMachineRecord:
    def test_defaults_are_healthy(self):
        rec = make_machine()
        assert rec.is_up
        assert not rec.is_overloaded
        assert rec.service_status_flags.all_up

    def test_attribute_view_merges_admin_parameters(self):
        rec = make_machine(admin_parameters={"arch": "hp", "license": "spice"})
        view = rec.attribute_view()
        assert view["arch"] == "hp"
        assert view["license"] == "spice"
        assert view["cpus"] == 1

    def test_with_dynamic_only_touches_monitoring_fields(self):
        rec = make_machine()
        new = rec.with_dynamic(current_load=3.0, active_jobs=2,
                               last_update_time=99.0)
        assert new.current_load == 3.0
        assert new.active_jobs == 2
        assert new.last_update_time == 99.0
        assert new.machine_name == rec.machine_name
        assert new.admin_parameters == rec.admin_parameters

    def test_validation(self):
        with pytest.raises(ConfigError):
            MachineRecord(machine_name="")
        with pytest.raises(ConfigError):
            make_machine(num_cpus=0)
        with pytest.raises(ConfigError):
            make_machine(current_load=-1.0)

    def test_overload_uses_max_allowed_load(self):
        rec = make_machine(current_load=4.0, max_allowed_load=4.0)
        assert rec.is_overloaded

    def test_blocked_state_not_up(self):
        rec = make_machine(state=MachineState.BLOCKED)
        assert not rec.is_up


class TestWhitePages:
    def test_add_get_remove(self, small_db):
        assert len(small_db) == 10
        rec = small_db.get("sun00")
        assert rec.parameter("arch") == "sun"
        small_db.remove("sun00")
        assert len(small_db) == 9
        with pytest.raises(UnknownMachineError):
            small_db.get("sun00")

    def test_duplicate_add_rejected(self, small_db):
        with pytest.raises(DuplicateMachineError):
            small_db.add(make_machine("sun00"))

    def test_scan_with_predicate(self, small_db):
        suns = small_db.match(parse_query("punch.rsrc.arch = sun").basic())
        assert len(suns) == 6
        assert all(r.parameter("arch") == "sun" for r in suns)

    def test_scan_deterministic_order(self, small_db):
        names = [r.machine_name for r in small_db.match()]
        assert names == sorted(names)
        assert len(names) == len(small_db)

    def test_take_excludes_from_scan(self, small_db):
        assert small_db.take("sun00", "poolA")
        visible = [r.machine_name for r in small_db.match()]
        assert "sun00" not in visible
        assert "sun00" in [r.machine_name
                           for r in small_db.match(include_taken=True)]

    def test_take_conflict(self, small_db):
        assert small_db.take("sun01", "poolA")
        assert not small_db.take("sun01", "poolB")
        assert small_db.take("sun01", "poolA")  # idempotent for same holder

    def test_release_wrong_holder_raises(self, small_db):
        small_db.take("sun02", "poolA")
        with pytest.raises(MachineTakenError):
            small_db.release("sun02", "poolB")
        small_db.release("sun02", "poolA")
        assert small_db.holder_of("sun02") is None

    def test_release_pool_bulk(self, small_db):
        small_db.take_all(["sun00", "sun01", "hp00"], "poolX")
        assert small_db.taken_count() == 3
        released = small_db.release_pool("poolX")
        assert released == 3
        assert small_db.taken_count() == 0

    def test_update_dynamic(self, small_db):
        small_db.update_dynamic("sun03", current_load=2.5)
        assert small_db.get("sun03").current_load == 2.5

    def test_take_unknown_machine_raises(self, small_db):
        with pytest.raises(UnknownMachineError):
            small_db.take("nosuch", "p")

    def test_count_up_tracks_state(self, small_db):
        assert small_db.count_up() == 10
        small_db.update_dynamic("sun00", state=MachineState.DOWN)
        assert small_db.count_up() == 9


class TestDirectory:
    def test_register_lookup_deregister(self):
        d = LocalDirectoryService("purdue")
        ep = Endpoint("h1", 9000, "purdue")
        d.register("poolA", 0, ep)
        entries = d.lookup("poolA")
        assert len(entries) == 1
        assert entries[0].endpoint == ep
        d.deregister("poolA", 0)
        assert d.lookup("poolA") == []
        assert d.pool_names() == []

    def test_duplicate_instance_rejected(self):
        d = LocalDirectoryService()
        ep = Endpoint("h1", 9000)
        d.register("poolA", 0, ep)
        with pytest.raises(DirectoryError):
            d.register("poolA", 0, Endpoint("h2", 9001))

    def test_deregister_missing_raises(self):
        d = LocalDirectoryService()
        with pytest.raises(DirectoryError):
            d.deregister("nope", 0)

    def test_next_instance_number_fills_gaps(self):
        d = LocalDirectoryService()
        d.register("p", 0, Endpoint("h", 9000))
        d.register("p", 2, Endpoint("h", 9002))
        assert d.next_instance_number("p") == 1

    def test_peer_pool_managers_deduplicated(self):
        d = LocalDirectoryService()
        ep = Endpoint("pm1", 8000)
        d.add_peer_pool_manager(ep)
        d.add_peer_pool_manager(ep)
        assert d.peer_pool_managers() == [ep]


class TestShadowAccounts:
    def test_allocate_lowest_uid_first(self):
        pool = ShadowAccountPool("m1", count=3)
        a = pool.allocate("k1")
        assert a.uid == 20000
        b = pool.allocate("k2")
        assert b.uid == 20001

    def test_exhaustion_raises(self):
        pool = ShadowAccountPool("m1", count=1)
        pool.allocate("k1")
        with pytest.raises(ShadowAccountError):
            pool.allocate("k2")

    def test_release_requires_matching_key(self):
        pool = ShadowAccountPool("m1", count=1)
        acct = pool.allocate("k1")
        with pytest.raises(ShadowAccountError):
            pool.release(acct, "wrong")
        pool.release(acct, "k1")
        assert pool.available == 1

    def test_release_unallocated_raises(self):
        pool = ShadowAccountPool("m1", count=2)
        acct = pool.allocate("k1")
        pool.release(acct, "k1")
        with pytest.raises(ShadowAccountError):
            pool.release(acct, "k1")

    def test_uid_reused_after_release(self):
        pool = ShadowAccountPool("m1", count=2)
        a = pool.allocate("k1")
        pool.release(a, "k1")
        b = pool.allocate("k2")
        assert b.uid == a.uid

    def test_registry_ensure_and_get(self):
        reg = ShadowAccountRegistry()
        p1 = reg.ensure_pool("m1", count=2)
        assert reg.ensure_pool("m1") is p1
        assert reg.pool_for("m1") is p1
        with pytest.raises(ShadowAccountError):
            reg.pool_for("unknown")
        with pytest.raises(ShadowAccountError):
            reg.create_pool("m1")


class TestPolicies:
    def test_load_below_policy(self):
        policy = load_below(2.0)
        ctx = PolicyContext(access_group="public")
        assert policy(make_machine(current_load=1.0), ctx)
        assert not policy(make_machine(current_load=3.0), ctx)

    def test_load_below_scoped_to_groups(self):
        policy = load_below(2.0, groups=frozenset({"public"}))
        busy = make_machine(current_load=3.0)
        assert not policy(busy, PolicyContext(access_group="public"))
        assert policy(busy, PolicyContext(access_group="ece"))

    def test_combinators(self):
        ctx = PolicyContext(access_group="ece")
        rec = make_machine(current_load=1.0)
        assert all_of(always_allow, group_in("ece"))(rec, ctx)
        assert not all_of(always_allow, always_deny)(rec, ctx)
        assert any_of(always_deny, group_in("ece"))(rec, ctx)

    def test_registry_evaluates_field_19(self):
        reg = PolicyRegistry()
        reg.register("lightly-loaded", load_below(2.0))
        rec = make_machine(current_load=5.0, usage_policy="lightly-loaded")
        assert not reg.evaluate(rec, PolicyContext())
        rec2 = make_machine("m2", current_load=5.0)  # no policy -> allow
        assert reg.evaluate(rec2, PolicyContext())

    def test_unknown_policy_raises(self):
        reg = PolicyRegistry()
        rec = make_machine(usage_policy="ghost")
        with pytest.raises(PolicyError):
            reg.evaluate(rec, PolicyContext())

    def test_broken_policy_fails_closed(self):
        reg = PolicyRegistry()

        def broken(record, ctx):
            raise RuntimeError("oops")

        reg.register("broken", broken)
        rec = make_machine(usage_policy="broken")
        with pytest.raises(PolicyError):
            reg.evaluate(rec, PolicyContext())

    def test_duplicate_registration_rejected(self):
        reg = PolicyRegistry()
        reg.register("p", always_allow)
        with pytest.raises(PolicyError):
            reg.register("p", always_deny)
