"""Query IR and compiled plans: the query half of the matchmaking engine.

The parser (:mod:`repro.core.language`) already yields structured
:class:`~repro.core.query.Clause` tuples, but the layers below used to
collapse them into opaque predicate callables and walk the whole
database with them — O(database) per walk, and impossible for the
database to plan against.  This module keeps the query *inspectable*
all the way down:

- :class:`ClauseSet` partitions a basic query's ``rsrc`` clauses by how
  an index can serve them: hash-probe equalities, sorted-range bounds,
  and a residual evaluated per candidate.
- :func:`compile_plan` turns a query (or raw clauses) into a
  :class:`QueryPlan` the database executes over its
  :class:`~repro.database.indexes.AttributeIndexCatalog`: pick the most
  selective indexed clause as the access path, then *verify every
  candidate against the full clause set* — so a plan is always exactly
  equivalent to the brute-force predicate walk it replaces.
- :func:`machine_admissible` is the shared per-record admission check
  (health, service flags, load ceiling, access groups, tool groups,
  usage policy) that resource pools, the centralized baseline, and the
  static-pool fallback previously each re-implemented.

All three deployments (in-process facade, DES, asyncio runtime) reach
the database exclusively through plans compiled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.core.operators import Op, RangeValue, coerce_number
from repro.core.query import Clause, Query
from repro.database.policy import PolicyContext, PolicyRegistry
from repro.database.records import MachineRecord

__all__ = [
    "AttrBound",
    "ClauseSet",
    "QueryPlan",
    "compile_plan",
    "machine_admissible",
]

#: Operators a sorted index serves.
_ORDERED_OPS = (Op.GE, Op.LE, Op.GT, Op.LT, Op.RANGE)


@dataclass(frozen=True)
class ClauseSet:
    """A basic query's ``rsrc`` constraints, partitioned for planning.

    This is the inspectable IR the pipeline threads through instead of
    closures: ``equalities`` are hash-probe candidates, ``ranges`` are
    sorted-index candidates, ``residual`` holds everything an index
    cannot serve directly (``!=``, ``in``, malformed ranges) and is
    checked per candidate record.
    """

    equalities: Tuple[Clause, ...] = ()
    ranges: Tuple[Clause, ...] = ()
    residual: Tuple[Clause, ...] = ()

    @classmethod
    def from_clauses(cls, clauses: Iterable[Clause]) -> "ClauseSet":
        eq, rng, res = [], [], []
        for c in clauses:
            if c.op is Op.EQ:
                eq.append(c)
            elif c.op in _ORDERED_OPS and (
                    c.op is not Op.RANGE or isinstance(c.value, RangeValue)):
                rng.append(c)
            else:
                res.append(c)
        return cls(equalities=tuple(eq), ranges=tuple(rng),
                   residual=tuple(res))

    @classmethod
    def from_query(cls, query: Query) -> "ClauseSet":
        return cls.from_clauses(query.rsrc_clauses)

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        return self.equalities + self.ranges + self.residual

    def __len__(self) -> int:
        return len(self.equalities) + len(self.ranges) + len(self.residual)

    # -- verification (the full language semantics, no shortcuts) ----------

    def matches_view(self, view: Dict[str, Any]) -> bool:
        return all(c.matches(view.get(c.name)) for c in self.clauses)

    def matches_record(self, record: MachineRecord) -> bool:
        return self.matches_view(record.attribute_view())


@dataclass(frozen=True)
class AttrBound:
    """Conjunction of ordered constraints on one attribute, as an
    interval.  ``lo > hi`` (or an uncoercible query value upstream)
    means the bound — and therefore the whole plan — is unsatisfiable."""

    name: str
    lo: float = -math.inf
    hi: float = math.inf
    incl_lo: bool = True
    incl_hi: bool = True

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.incl_lo and self.incl_hi)


@dataclass(frozen=True)
class QueryPlan:
    """A compiled access path over the attribute indexes.

    ``eq_probes`` and ``bounds`` are the indexable clauses (the database
    picks whichever is most selective); ``clause_set`` is re-verified on
    every candidate, so execution is exact regardless of which probe was
    chosen.  ``unsatisfiable`` plans short-circuit to the empty result
    (e.g. ``memory >= "lots"`` — an uncoercible ordered value can never
    hold under the fail-closed operator semantics).
    """

    clause_set: ClauseSet = field(default_factory=ClauseSet)
    eq_probes: Tuple[Tuple[str, Any], ...] = ()
    bounds: Tuple[AttrBound, ...] = ()
    unsatisfiable: bool = False

    @property
    def is_indexable(self) -> bool:
        """At least one clause can drive an index probe."""
        return bool(self.eq_probes or self.bounds)

    def verify(self, record: MachineRecord) -> bool:
        return self.clause_set.matches_record(record)

    def explain(self) -> str:
        """Human-readable access path (tests and operator tooling)."""
        if self.unsatisfiable:
            return "unsatisfiable"
        parts = []
        for attr, value in self.eq_probes:
            parts.append(f"hash({attr}=={value!r})")
        for b in self.bounds:
            lo_b = "[" if b.incl_lo else "("
            hi_b = "]" if b.incl_hi else ")"
            parts.append(f"range({b.name} in {lo_b}{b.lo}, {b.hi}{hi_b})")
        for c in self.clause_set.residual:
            parts.append(f"filter({c})")
        return " & ".join(parts) if parts else "full-walk"


def _merge_bound(bound: AttrBound, op: Op, value: Any) -> Optional[AttrBound]:
    """Intersect one ordered clause into ``bound``; None = unsatisfiable."""
    if op is Op.RANGE:
        lo, hi = value.lo, value.hi
        if math.isnan(lo) or math.isnan(hi):
            return None  # fail-closed: NaN bounds admit nothing
        incl_lo = incl_hi = True
    else:
        qv = coerce_number(value)
        if qv is None or math.isnan(qv):
            return None  # fail-closed: no machine satisfies this clause
        lo, hi = -math.inf, math.inf
        incl_lo = incl_hi = True
        if op is Op.GE:
            lo = qv
        elif op is Op.GT:
            lo, incl_lo = qv, False
        elif op is Op.LE:
            hi = qv
        elif op is Op.LT:
            hi, incl_hi = qv, False
    new_lo, new_incl_lo = bound.lo, bound.incl_lo
    if lo > new_lo or (lo == new_lo and not incl_lo):
        new_lo, new_incl_lo = lo, incl_lo
    new_hi, new_incl_hi = bound.hi, bound.incl_hi
    if hi < new_hi or (hi == new_hi and not incl_hi):
        new_hi, new_incl_hi = hi, incl_hi
    merged = AttrBound(name=bound.name, lo=new_lo, hi=new_hi,
                       incl_lo=new_incl_lo, incl_hi=new_incl_hi)
    return None if merged.empty else merged


PlanSource = Union[Query, ClauseSet, Iterable[Clause], None]


def compile_plan(source: PlanSource) -> QueryPlan:
    """Compile a query / clause set into an index access plan.

    ``None`` (or an empty clause set) compiles to the match-everything
    plan — a pool created without an exemplar aggregates every free
    machine, exactly as the old ``scan(None)`` did.
    """
    if isinstance(source, QueryPlan):  # idempotent convenience
        return source
    if source is None:
        clause_set = ClauseSet()
    elif isinstance(source, ClauseSet):
        clause_set = source
    elif isinstance(source, Query):
        clause_set = ClauseSet.from_query(source)
    else:
        clause_set = ClauseSet.from_clauses(source)

    eq_probes = tuple((c.name, c.value) for c in clause_set.equalities)

    bounds: Dict[str, AttrBound] = {}
    for c in clause_set.ranges:
        bound = bounds.get(c.name, AttrBound(name=c.name))
        merged = _merge_bound(bound, c.op, c.value)
        if merged is None:
            return QueryPlan(clause_set=clause_set, unsatisfiable=True)
        bounds[c.name] = merged

    return QueryPlan(
        clause_set=clause_set,
        eq_probes=eq_probes,
        bounds=tuple(bounds[k] for k in sorted(bounds)),
    )


# ---------------------------------------------------------------------------
# Shared per-record admission check
# ---------------------------------------------------------------------------

def machine_admissible(
    record: MachineRecord,
    query: Query,
    *,
    policy_registry: Optional[PolicyRegistry] = None,
) -> bool:
    """Can ``record`` serve ``query`` right now?

    The runtime-state half of matching (the constraint half is the
    compiled plan): machine up, PUNCH service daemons live (field 7),
    below the administrator's load ceiling (field 10), the query's
    access group allowed (field 16), tool support honoured when the
    query names one (field 17), and the usage-policy metaprogram (field
    19) satisfied when a registry is supplied.

    Resource pools, the centralized-scheduler baseline, and the
    static-pool fallback all call exactly this function, so admission
    semantics cannot drift between deployments or baselines.
    """
    if not record.is_up:
        return False
    if not record.service_status_flags.all_up:
        return False
    if record.is_overloaded:
        return False
    group = query.access_group
    if record.user_groups and group not in record.user_groups:
        return False
    tool = query.get("punch.rsrc.tool")
    if tool is not None and str(tool) not in record.tool_groups:
        return False
    if policy_registry is not None:
        ctx = PolicyContext(login=query.login, access_group=group)
        if not policy_registry.evaluate(record, ctx):
            return False
    return True
