"""The shard verbs, declared once.

Every request ``kind`` a :class:`~repro.runtime.shard_worker.ShardWorker`
serves is one :class:`Verb` row of :data:`VERBS`, and everything else
about the verb is derived from its row:

- the client (:class:`~repro.database.service.ShardServiceClient`)
  sends a frame the way its ``route`` says, and resends it after a lost
  reply only when ``retry`` is set;
- the worker serves it with its ``_verb_<name>`` handler or, for a row
  with a ``reply``, with the same-named
  :class:`~repro.database.whitepages.WhitePagesDatabase` method over the
  shared field codecs; it write-ahead-logs, group-commits and replays
  exactly the ``mutates`` rows, and a retired worker (its shard migrated
  away) answers only the ``served_when_retired`` rows;
- a live reshard (:class:`~repro.database.resharding.ShardMigrator`)
  re-routes each logged frame by the same ``route`` under the new shard
  count.

So adding a verb is one row here plus, at most, one worker handler.

Frames are JSON objects: ``kind`` plus the fields each row's ``args``
(or, for a handler-served verb, ``doc``) names.  Point, grouped and
fan-out frames also carry the client's routing ``epoch``, and every
client frame carries a ``trace`` id.
Records travel as v3 rows (:data:`~repro.database.records
.RECORD_ROW_FIELDS`), queries as the clause encoding of
:mod:`repro.runtime.wire`, ``dynamic`` as
:func:`~repro.runtime.shard_worker.encode_dynamic`'s map.  Errors come
back as ``{"kind": "error", "error": <class>, "message"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Verb",
    "VERBS",
    "BY_NAME",
    "BY_ROW",
    "GROUP_NAMES",
    "GROUP_ROWS",
    "FAN_SUM",
    "FAN_MERGE",
    "FAN_EACH",
    "ONE_SHARD",
    "POINT_ROUTES",
    "point_key",
    "group_by_shard",
]

#: A point op, sent to the shard owning the frame's ``name``.
BY_NAME = "name"
#: A point op, sent to the shard owning the name in the frame's ``row``.
BY_ROW = "row"
#: The frame's ``names``, grouped by shard; only the shards involved get
#: a frame.  A stale-epoch refusal re-routes only the names not yet sent.
GROUP_NAMES = "group_names"
#: The frame's ``rows``, grouped by shard; every shard gets its (maybe
#: empty) group.  It replaces whole shards, so a live reshard that meets
#: it in a log tail aborts.
GROUP_ROWS = "group_rows"
#: A fan-out to every shard; the per-shard ``count`` replies are summed.
#: A mutating fan-out is replayed onto every reshard target, scoped with
#: ``only_from`` to the records its source shard owned.
FAN_SUM = "sum"
#: A fan-out; the per-shard name-ordered ``rows`` (or ``names``) are
#: merged into one name order.
FAN_MERGE = "merge"
#: A fan-out; the per-shard replies are kept as a list in shard order.
FAN_EACH = "each"
#: One shard, named by index.
ONE_SHARD = "shard"

#: The routes that send one frame to the shard owning one machine name.
POINT_ROUTES = (BY_NAME, BY_ROW)


@dataclass(frozen=True)
class Verb:
    """One shard verb: how its frames route, and what serving it means.

    Attributes:
        name: The request ``kind``.
        route: One of the route constants of this module.
        mutates: Changes shard state: the worker logs it to the
            write-ahead log, makes it durable before replying, and
            replays it on recovery and reshard.
        served_when_retired: A retired worker still answers it, and
            does not check its routing epoch.
        retry: The client may resend it after a lost reply.
        doc: For a handler-served verb, its request fields and reply;
            for a database call, notes on the reply.
        reply: ``(reply kind, reply field)`` when the worker serves the
            verb as the same-named database call; ``None`` when the
            worker has a ``_verb_<name>`` handler for it.
        args: For a database call, the request fields in the method's
            argument order (``dynamic`` and ``include_taken`` are
            passed as keywords).
    """

    name: str
    route: str
    mutates: bool = False
    served_when_retired: bool = False
    retry: bool = True
    doc: str = ""
    reply: Optional[Tuple[str, Optional[str]]] = None
    args: Tuple[str, ...] = ()


_RECORD = ("record", "row")
_COUNT = ("count", "count")
_NAMES = ("names", "names")

_TABLE: List[Verb] = [
    # Registry CRUD.  ``register`` is not resent: a resent register that
    # had applied would raise DuplicateMachineError for work that landed.
    Verb("register", BY_ROW, mutates=True, retry=False,
         doc="``row`` -> ``ok``; refused if it routes to another shard"),
    Verb("remove", BY_NAME, mutates=True, retry=False, reply=_RECORD,
         args=("name",), doc="the removed row"),
    Verb("get", BY_NAME, reply=_RECORD, args=("name",)),
    Verb("update", BY_ROW, mutates=True,
         doc="``row`` -> ``ok``; refused if it routes to another shard"),
    Verb("update_dynamic", BY_NAME, mutates=True, reply=_RECORD,
         args=("name", "dynamic"), doc="the new row"),
    Verb("len", FAN_SUM, doc="-> ``count`` of records"),
    Verb("contains", BY_NAME, doc="``name`` -> ``ok`` with ``contains``"),
    Verb("names", FAN_MERGE, reply=_NAMES),
    # Matching.
    Verb("match", FAN_MERGE,
         doc="``clauses`` (null: all), ``include_taken``, ``names_only`` "
             "-> ``records`` rows or ``names``, in name order"),
    Verb("count", FAN_SUM, reply=_COUNT, args=("clauses", "include_taken")),
    # Take / release.  ``take`` answers a lost race with false, logged
    # all the same; a same-pool retake is true, and releasing a free
    # machine is a no-op, so both resend safely.
    Verb("take", BY_NAME, mutates=True, reply=("ok", "taken"),
         args=("name", "pool")),
    Verb("take_all", GROUP_NAMES, mutates=True, reply=_NAMES,
         args=("names", "pool"), doc="the names actually taken"),
    Verb("release", BY_NAME, mutates=True, reply=("ok", None),
         args=("name", "pool")),
    Verb("release_pool", FAN_SUM, mutates=True,
         doc="``pool``, optional ``only_from`` = ``[old_shards, "
             "source_index]`` -> ``count`` released"),
    Verb("holder_of", BY_NAME, reply=("holder", "holder"), args=("name",),
         doc="a pool name or null"),
    Verb("taken_count", FAN_SUM, reply=_COUNT),
    Verb("reset", GROUP_ROWS, mutates=True,
         doc="``rows`` -> ``ok`` with ``machines``; a fresh shard"),
    # Observability, persistence, lifecycle.
    Verb("snapshot", ONE_SHARD,
         doc="optional ``path`` -> ``snapshot`` (``crc``, ``machines``, "
             "and ``text`` when no path is given)"),
    Verb("health", FAN_EACH, served_when_retired=True, doc="-> ``health``"),
    Verb("metrics", FAN_EACH, served_when_retired=True,
         doc="optional ``max_spans`` -> ``metrics``"),
    Verb("set_telemetry", FAN_EACH, doc="``enabled`` -> ``set_telemetry``"),
    Verb("fault", ONE_SHARD, served_when_retired=True,
         doc="``triggers`` and/or ``delays`` -> ``ok`` with ``armed``"),
    Verb("shutdown", ONE_SHARD, served_when_retired=True,
         doc="-> ``ok``, then the worker stops"),
    # Live migration.
    Verb("routing", ONE_SHARD, served_when_retired=True,
         doc="-> ``routing``: epoch, shards, retired, table if known"),
    Verb("migrate_begin", ONE_SHARD,
         doc="``path`` -> ``snapshot`` with ``watermark``; pins the log"),
    Verb("migrate_tail", ONE_SHARD, served_when_retired=True,
         doc="``after_lsn``, ``max_records`` -> ``tail`` (``entries``, "
             "``wal_lsn``, ``reason``)"),
    Verb("migrate_cutover", ONE_SHARD, served_when_retired=True,
         doc="optional ``epoch``, ``retire``, ``routing`` -> ``ok`` with "
             "``epoch``, ``retired``"),
]

#: Every shard verb by request ``kind``.
VERBS: Dict[str, Verb] = {verb.name: verb for verb in _TABLE}


def point_key(verb: Verb, frame: Dict[str, Any]) -> str:
    """The machine name a point-route frame is sent by."""
    if verb.route == BY_NAME:
        return str(frame["name"])
    return str(frame["row"][0])


def group_by_shard(items: Iterable[Any],
                   shard_of: Callable[[Any], int]) -> Dict[int, List[Any]]:
    """``items`` (names or rows) grouped by the shard owning each, in
    first-seen order: the split of a grouped route's frame."""
    groups: Dict[int, List[Any]] = {}
    for item in items:
        groups.setdefault(shard_of(item), []).append(item)
    return groups
