"""Unit tests for the matchmaking engine: plan compilation, attribute
indexes, ``match()`` execution, and the finished-query LRU."""

from __future__ import annotations

import pytest

from repro.core.language import compile_text, parse_query
from repro.core.operators import Op, RangeValue
from repro.core.plan import (
    AttrBound,
    ClauseSet,
    compile_plan,
    machine_admissible,
)
from repro.core.query import Clause
from repro.core.query_manager import FinishedQueryLRU
from repro.database.indexes import (
    HashAttrIndex,
    SortedAttrIndex,
    eq_token,
    machine_tokens,
)
from repro.database.policy import PolicyRegistry, always_deny
from repro.errors import ConfigError

from tests.conftest import linear_oracle, make_machine


def q(text):
    return parse_query(text).basic()


def rsrc(name, op, value):
    return Clause("punch", "rsrc", name, op, value)


# -- plan compilation -----------------------------------------------------------


class TestClauseSet:
    def test_partition_by_operator(self):
        cs = ClauseSet.from_clauses([
            rsrc("arch", Op.EQ, "sun"),
            rsrc("memory", Op.GE, 128.0),
            rsrc("ostype", Op.NE, "hpux"),
            rsrc("speed", Op.RANGE, RangeValue(200, 400)),
        ])
        assert [c.name for c in cs.equalities] == ["arch"]
        assert sorted(c.name for c in cs.ranges) == ["memory", "speed"]
        assert [c.name for c in cs.residual] == ["ostype"]
        assert len(cs) == 4

    def test_from_query_takes_rsrc_only(self):
        cs = ClauseSet.from_query(q(
            "punch.rsrc.arch = sun\npunch.user.login = kapadia"))
        assert len(cs) == 1

    def test_matches_record_equals_query_semantics(self, small_db):
        query = q("punch.rsrc.arch = sun\npunch.rsrc.memory = >=128")
        cs = ClauseSet.from_query(query)
        for rec in linear_oracle(small_db, include_taken=True):
            assert cs.matches_record(rec) == query.matches_machine(rec)


class TestCompilePlan:
    def test_eq_and_range_probes(self):
        plan = compile_text(
            "punch.rsrc.arch = sun\npunch.rsrc.memory = >=10")
        assert plan.eq_probes == (("arch", "sun"),)
        assert plan.bounds == (AttrBound(name="memory", lo=10.0),)
        assert not plan.unsatisfiable
        assert plan.is_indexable
        assert "hash(arch" in plan.explain()

    def test_bounds_merge_to_intersection(self):
        plan = compile_plan([
            rsrc("memory", Op.GE, 128.0),
            rsrc("memory", Op.LT, 512.0),
        ])
        (bound,) = plan.bounds
        assert (bound.lo, bound.hi) == (128.0, 512.0)
        assert bound.incl_lo and not bound.incl_hi

    def test_contradictory_bounds_unsatisfiable(self):
        plan = compile_plan([
            rsrc("memory", Op.GT, 512.0),
            rsrc("memory", Op.LT, 128.0),
        ])
        assert plan.unsatisfiable
        assert plan.explain() == "unsatisfiable"

    def test_uncoercible_ordered_value_unsatisfiable(self):
        plan = compile_plan([rsrc("memory", Op.GE, "lots")])
        assert plan.unsatisfiable

    def test_none_compiles_to_full_walk(self):
        plan = compile_plan(None)
        assert not plan.is_indexable
        assert plan.explain() == "full-walk"

    def test_compile_is_idempotent(self):
        plan = compile_text("punch.rsrc.arch = sun")
        assert compile_plan(plan) is plan

    def test_range_value_clause(self):
        plan = compile_plan([rsrc("memory", Op.RANGE, RangeValue(64, 256))])
        (bound,) = plan.bounds
        assert (bound.lo, bound.hi) == (64.0, 256.0)
        assert bound.incl_lo and bound.incl_hi


# -- value tokens and single-attribute indexes ------------------------------------


class TestTokens:
    def test_numeric_coercion_shares_token(self):
        assert eq_token("512") == eq_token(512) == eq_token(512.0)

    def test_case_insensitive_strings(self):
        assert eq_token("SUN") == eq_token("sun ")

    def test_negative_zero_folds(self):
        assert eq_token(-0.0) == eq_token(0.0)

    def test_multivalued_machine_attribute(self):
        assert list(machine_tokens("sge,pbs,condor")) == [
            eq_token("sge"), eq_token("pbs"), eq_token("condor")]
        # The whole string is deliberately not a token.
        assert eq_token("sge,pbs,condor") not in machine_tokens("sge,pbs,condor")


class TestHashAttrIndex:
    def test_add_lookup_discard(self):
        idx = HashAttrIndex()
        idx.add("sun", "m1")
        idx.add("SUN", "m2")
        assert idx.lookup("sun") == {"m1", "m2"}
        idx.discard("sun", "m1")
        assert idx.lookup("Sun") == {"m2"}
        idx.discard("sun", "m2")
        assert idx.lookup("sun") == set()
        assert len(idx) == 0

    def test_multivalued_postings(self):
        idx = HashAttrIndex()
        idx.add("sge,pbs", "m1")
        assert idx.lookup("pbs") == {"m1"}
        assert idx.lookup("sge,pbs") == set()


class TestSortedAttrIndex:
    def test_inclusive_exclusive_bounds(self):
        idx = SortedAttrIndex()
        for v, n in [(128.0, "a"), (256.0, "b"), (256.0, "c"), (512.0, "d")]:
            idx.add(v, n)
        assert idx.names_in(128, 512) == ["a", "b", "c", "d"]
        assert idx.names_in(128, 512, incl_lo=False) == ["b", "c", "d"]
        assert idx.names_in(128, 512, incl_hi=False) == ["a", "b", "c"]
        assert idx.names_in(256, 256) == ["b", "c"]
        assert idx.count_in(256, 256, incl_lo=False) == 0

    def test_discard_exact_pair(self):
        idx = SortedAttrIndex()
        idx.add(256.0, "b")
        idx.add(256.0, "c")
        idx.discard(256.0, "b")
        assert idx.names_in(0, 1000) == ["c"]


# -- database match -----------------------------------------------------------


class TestDatabaseMatch:
    def test_match_equals_scan(self, small_db):
        query = q("punch.rsrc.arch = sun")
        got = small_db.match(compile_plan(query))
        oracle = linear_oracle(small_db, query.matches_machine)
        assert [r.machine_name for r in got] == \
            [r.machine_name for r in oracle]

    def test_match_accepts_query_directly(self, small_db):
        query = q("punch.rsrc.arch = hp")
        assert len(small_db.match(query)) == 4

    def test_match_none_returns_all_free(self, small_db):
        small_db.take("sun00", "poolA")
        names = [r.machine_name for r in small_db.match(None)]
        assert "sun00" not in names
        assert len(names) == len(small_db) - 1

    def test_match_include_taken(self, small_db):
        small_db.take("sun00", "poolA")
        names = [r.machine_name
                 for r in small_db.match(None, include_taken=True)]
        assert "sun00" in names

    def test_match_unsatisfiable_plan(self, small_db):
        plan = compile_plan([rsrc("memory", Op.GE, "lots")])
        assert small_db.match(plan) == []

    def test_match_unknown_attribute_is_empty(self, small_db):
        assert small_db.match(q("punch.rsrc.license = tsuprem4")) == []

    def test_match_sees_dynamic_updates(self, small_db):
        plan = compile_plan([rsrc("load", Op.GE, 2.0)])
        assert small_db.match(plan) == []
        small_db.update_dynamic("sun03", current_load=2.5)
        assert [r.machine_name for r in small_db.match(plan)] == ["sun03"]
        small_db.update_dynamic("sun03", current_load=0.0)
        assert small_db.match(plan) == []

    def test_match_after_add_remove(self, small_db):
        plan = compile_text("punch.rsrc.arch = vax")
        assert small_db.match(plan) == []
        small_db.add(make_machine(
            "vax00", admin_parameters={"arch": "vax"}))
        assert [r.machine_name for r in small_db.match(plan)] == ["vax00"]
        small_db.remove("vax00")
        assert small_db.match(plan) == []

    def test_match_range_only_query(self, small_db):
        plan = compile_plan([rsrc("memory", Op.LE, 300.0)])
        oracle = linear_oracle(
            small_db, q("punch.rsrc.memory = <=300").matches_machine)
        assert [r.machine_name for r in small_db.match(plan)] == \
            [r.machine_name for r in oracle]

    def test_nan_attribute_values_do_not_corrupt_range_index(self):
        # Regression: NaN compares False against everything, so letting
        # it into the bisect-sorted index broke the sort invariant and
        # silently dropped real matches.
        from repro.database.whitepages import WhitePagesDatabase
        db = WhitePagesDatabase([
            make_machine(f"bad{i}", admin_parameters={"memory": "nan"})
            for i in range(3)
        ] + [
            make_machine("real1", admin_parameters={"memory": "256"}),
            make_machine("real2", admin_parameters={"memory": "512"}),
        ])
        query = q("punch.rsrc.memory = 200..300")
        got = [r.machine_name for r in db.match(compile_plan(query))]
        oracle = [r.machine_name for r in linear_oracle(db, query.matches_machine)]
        assert got == oracle == ["real1"]
        # Updating a NaN-valued record away and back must not leak
        # stale index entries either.
        db.update(make_machine("bad0", admin_parameters={"memory": "250"}))
        assert [r.machine_name for r in db.match(compile_plan(query))] == \
            ["bad0", "real1"]
        db.update(make_machine("bad0", admin_parameters={"memory": "nan"}))
        assert [r.machine_name for r in db.match(compile_plan(query))] == \
            ["real1"]

    def test_replace_reindexes_on_type_change(self):
        # Regression: `1 == True` so a plain != diff skipped re-indexing,
        # leaving a stale 'true' hash token for a now-numeric value.
        from repro.database.whitepages import WhitePagesDatabase
        db = WhitePagesDatabase([
            make_machine("m0", admin_parameters={"flag": True})])
        db.update(make_machine("m0", admin_parameters={"flag": 1}))
        query = Clause("punch", "rsrc", "flag", Op.EQ, 1)
        plan = compile_plan([query])
        got = [r.machine_name for r in db.match(plan)]
        oracle = [r.machine_name
                  for r in linear_oracle(db, lambda r: query.matches(
                      r.attribute_view().get("flag")))]
        assert got == oracle == ["m0"]
        assert db.match(compile_plan([
            Clause("punch", "rsrc", "flag", Op.EQ, True)])) == []

    def test_nan_query_bound_is_unsatisfiable(self, small_db):
        plan = compile_plan([rsrc("memory", Op.GE, float("nan"))])
        assert plan.unsatisfiable
        assert small_db.match(plan) == []

    def test_names_view_stays_sorted(self, small_db):
        small_db.add(make_machine("aaa"))
        small_db.add(make_machine("zzz"))
        small_db.remove("sun03")
        assert small_db.names() == sorted(small_db.names())
        assert "sun03" not in small_db.names()

    def test_index_stats_surface(self, small_db):
        stats = small_db.index_stats()
        assert stats["machines"] == len(small_db)
        assert "arch" in stats["hash_attrs"]
        assert "memory" in stats["sorted_attrs"]
        small_db.take("sun00", "p")
        assert small_db.index_stats()["taken"] == 1


# -- shared admissibility ---------------------------------------------------------


class TestMachineAdmissible:
    def test_healthy_default_is_admissible(self):
        assert machine_admissible(make_machine(), q("punch.rsrc.arch = sun"))

    def test_overloaded_rejected(self):
        rec = make_machine(current_load=4.0, max_allowed_load=4.0)
        assert not machine_admissible(rec, q("punch.rsrc.arch = sun"))

    def test_access_group_enforced(self):
        rec = make_machine(user_groups=frozenset({"ece"}))
        query = q("punch.rsrc.arch = sun\npunch.user.accessgroup = public")
        assert not machine_admissible(rec, query)
        ok = q("punch.rsrc.arch = sun\npunch.user.accessgroup = ece")
        assert machine_admissible(rec, ok)

    def test_tool_group_honoured_when_named(self):
        rec = make_machine(tool_groups=frozenset({"general"}))
        query = q("punch.rsrc.tool = cad")
        assert not machine_admissible(rec, query)

    def test_policy_registry_consulted(self):
        registry = PolicyRegistry()
        registry.register("deny", always_deny)
        rec = make_machine(usage_policy="deny")
        assert not machine_admissible(
            rec, q("punch.rsrc.arch = sun"), policy_registry=registry)


# -- finished-query LRU -----------------------------------------------------------


class TestFinishedQueryLRU:
    def test_membership_and_len(self):
        lru = FinishedQueryLRU(limit=4)
        for i in range(4):
            lru.add(i)
        assert len(lru) == 4
        assert all(i in lru for i in range(4))

    def test_evicts_oldest_first(self):
        lru = FinishedQueryLRU(limit=3)
        for i in (1, 2, 3, 4):
            lru.add(i)
        assert 1 not in lru
        assert {2, 3, 4} <= {i for i in range(10) if i in lru}
        assert lru.oldest() == 2

    def test_readd_refreshes_recency(self):
        lru = FinishedQueryLRU(limit=3)
        for i in (1, 2, 3):
            lru.add(i)
        lru.add(1)          # 1 becomes newest
        lru.add(4)          # evicts 2, not 1
        assert 2 not in lru
        assert 1 in lru and 3 in lru and 4 in lru

    def test_bounded_under_many_ids(self):
        lru = FinishedQueryLRU(limit=16)
        for i in range(10_000):
            lru.add(i)
        assert len(lru) == 16
        assert lru.oldest() == 10_000 - 16

    def test_limit_validated(self):
        with pytest.raises(ConfigError):
            FinishedQueryLRU(limit=0)
