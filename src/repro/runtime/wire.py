"""Wire encoding of query clauses.

A shard worker compiles and evaluates match queries on its own side of
the socket, so the clauses of a query cross the wire as JSON. Values keep
their kind (string, number, range, set) so a clause decodes to one that
compares equal to the original.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.operators import Op, RangeValue
from repro.core.query import Clause
from repro.errors import RuntimeProtocolError

__all__ = ["clause_to_dict", "clause_from_dict"]


def _value_to_dict(value: Any) -> Dict[str, Any]:
    if isinstance(value, RangeValue):
        return {"t": "range", "lo": value.lo, "hi": value.hi}
    if isinstance(value, frozenset):
        return {"t": "set", "v": sorted(str(x) for x in value)}
    if isinstance(value, bool):  # before int check; bools are ints
        return {"t": "str", "v": str(value)}
    if isinstance(value, (int, float)):
        return {"t": "num", "v": float(value)}
    return {"t": "str", "v": str(value)}


def _value_from_dict(data: Dict[str, Any]) -> Any:
    kind = data.get("t")
    if kind == "range":
        return RangeValue(float(data["lo"]), float(data["hi"]))
    if kind == "set":
        return frozenset(data["v"])
    if kind == "num":
        return float(data["v"])
    if kind == "str":
        return str(data["v"])
    raise RuntimeProtocolError(f"unknown value encoding {kind!r}")


def clause_to_dict(clause: Clause) -> Dict[str, Any]:
    return {
        "family": clause.family,
        "type": clause.type,
        "name": clause.name,
        "op": str(clause.op),
        "value": _value_to_dict(clause.value),
    }


def clause_from_dict(data: Dict[str, Any]) -> Clause:
    try:
        op = Op.RANGE if data["op"] == "range" else \
            Op.IN if data["op"] == "in" else Op.parse(data["op"])
        return Clause(
            family=data["family"], type=data["type"], name=data["name"],
            op=op, value=_value_from_dict(data["value"]),
        )
    except KeyError as exc:
        raise RuntimeProtocolError(f"malformed clause: missing {exc}") from exc

