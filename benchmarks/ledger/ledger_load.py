"""Workloads, seeded inputs, the load generator and its output checks.

The load generator is one process: ``clients`` closed-loop
:class:`ActYPClient` connections on one asyncio thread (each paper
client waits for its reply before sending the next query) and, where a
workload has a monitor, one open-loop writer thread on its own
:class:`ShardServiceClient` (the paper's monitoring daemon does not
wait for queries).  It only ever sees generated inputs; everything it
learns about the system comes back over a socket.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ledger_metrics import END_TO_END
from repro.database.service import ShardServiceClient
from repro.fleet import FleetSpec, build_fleet
from repro.runtime.client import ActYPClient

__all__ = ["Workload", "WORKLOADS", "WORKLOADS_BY_NAME", "Inputs", "Tally",
           "Rep", "Checks", "percentile", "summarize", "warm_up", "measure",
           "final_checks", "MONITOR_RATE_HZ", "MONITOR_THREAD_NAME"]

#: The monitoring daemon's schedule (updates per second, open loop).
MONITOR_RATE_HZ = 200.0
MONITOR_THREAD_NAME = "checks-monitor"
#: Share of the timed window spent on the write probe where no monitor
#: runs beside the queries, so the write path has a number everywhere.
PROBE_SHARE = 0.1
#: Every fleet profile installs at least this much, so the clause never
#: shrinks a stripe: pools are exactly ``machines / stripes`` wide.
MIN_MEMORY_MB = 128
_JOIN_TIMEOUT_S = 30.0
_BETTER = {metric.name: metric.better for metric in END_TO_END}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    machines: int
    stripes: int
    clients: int
    #: Repetitions the timed window is split into: as many as still
    #: leave each one a few dozen cycles.
    reps: int
    #: Every query first-touches a pool; the fleet is reset and the
    #: front end restarted between repetitions.
    cold: bool = False
    #: The open-loop writer runs beside the queries.
    monitor: bool = False


_TWO = min(2, os.cpu_count() or 1)

WORKLOADS: Tuple[Workload, ...] = (
    Workload("warm_small",
             "16-machine warm pools: per-query fixed cost (front door, "
             "parse, bookkeeping, ~20 wire ops, 2 fsynced writes) dominates",
             machines=3200, stripes=200, clients=_TWO, reps=20),
    Workload("warm_large",
             "400-machine warm pools: the linear pool scan times one wire "
             "RTT per machine dominates; a warm_small-only win shows nothing",
             machines=3200, stripes=8, clients=1, reps=10),
    Workload("cold_create",
             "every query creates its pool: match fan-out, bulk take, WAL "
             "fsync, first scan; paths the warm workloads never touch",
             machines=25600, stripes=256, clients=1, reps=4, cold=True),
    Workload("monitor_mix",
             "warm_small plus a 200/s open-loop update_dynamic writer: "
             "fsynced writes beside reads, so a read win paid by writes shows",
             machines=3200, stripes=200, clients=1, reps=20, monitor=True),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


# -- inputs --------------------------------------------------------------------


def query_text(tag: str) -> str:
    return (f"punch.rsrc.pool = {tag}\n"
            f"punch.rsrc.memory = >={MIN_MEMORY_MB}")


class Inputs:
    """Everything a run feeds the system, derived from the seed alone."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.records = build_fleet(FleetSpec(
            size=workload.machines, stripe_pools=workload.stripes, seed=seed))
        self.by_name = {r.machine_name: r for r in self.records}
        self.stripe_size = Counter(
            r.admin_parameters["pool"] for r in self.records)
        self.tags = sorted(self.stripe_size)

    def _rng(self, purpose: str, index: int = 0) -> random.Random:
        return random.Random(
            f"{self.seed}/{self.workload.name}/{purpose}/{index}")

    def stripes(self, client: int) -> Iterator[str]:
        """Client ``client``'s endless random stripe sequence."""
        rng = self._rng("stripes", client)
        while True:
            yield rng.choice(self.tags)

    def cold_round(self, round_index: int) -> List[str]:
        """Round ``round_index``'s first-touch order: each stripe once."""
        return self._rng("round", round_index).sample(self.tags,
                                                      len(self.tags))

    def monitor_updates(self) -> Iterator[Tuple[str, Dict[str, float]]]:
        """The monitor's endless (machine, re-measured fields) sequence."""
        rng = self._rng("monitor")
        while True:
            record = rng.choice(self.records)
            installed = float(record.admin_parameters["memory"])
            yield record.machine_name, {
                "current_load": rng.random(),
                "available_memory_mb": installed * rng.uniform(0.5, 1.0)}


# -- accounting ----------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check counts."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)


@dataclass
class Rep:
    """One repetition's raw samples (seconds)."""

    elapsed_s: float
    queries: List[float]
    releases: List[float]
    #: (latency from the due time, lateness of the send) per update.
    updates: List[Tuple[float, float]]


class Checks:
    """What the output checks need to remember between operations."""

    def __init__(self) -> None:
        self.holder: Dict[str, str] = {}    # machine -> pool that served it
        self.open_keys: set = set()
        self.pooled: set = set()            # stripes with a live pool


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- the closed-loop clients ---------------------------------------------------


def _check_allocation(inputs: Inputs, tag: str, reply: Dict[str, Any],
                      tally: Tally, checks: Checks) -> Optional[str]:
    """Verify one reply against its query; the access key when usable."""
    allocation = reply.get("allocation") if reply.get("ok") else None
    if not allocation:
        tally.fail(f"query {tag}: not ok: {reply.get('error')!r}")
        return None
    record = inputs.by_name.get(allocation["machine_name"])
    if record is None:
        tally.fail(f"query {tag}: unknown machine "
                   f"{allocation['machine_name']!r}")
    elif record.admin_parameters["pool"] != tag:
        tally.fail(f"query {tag}: machine {record.machine_name} is in "
                   f"stripe {record.admin_parameters['pool']}")
    elif int(record.admin_parameters["memory"]) < MIN_MEMORY_MB:
        tally.fail(f"query {tag}: machine {record.machine_name} has "
                   f"{record.admin_parameters['memory']} MB")
    else:
        checks.holder[record.machine_name] = allocation["pool_name"]
    checks.pooled.add(tag)
    checks.open_keys.add(allocation["access_key"])
    return allocation["access_key"]


async def _cycles(client: ActYPClient, tags: Iterator[str], deadline: float,
                  inputs: Inputs, tally: Tally, checks: Checks,
                  queries: List[float], releases: List[float]) -> None:
    """Query, check, release — until the deadline or ``tags`` runs out."""
    for tag in tags:
        if time.perf_counter() >= deadline:
            return
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            reply = await client.query(query_text(tag))
        except Exception as exc:  # a failed op is a result, not a crash
            tally.fail(f"query {tag}: {exc!r}")
            continue
        t1 = time.perf_counter()
        key = _check_allocation(inputs, tag, reply, tally, checks)
        if key is None:
            continue
        tally.attempted += 1
        t2 = time.perf_counter()
        try:
            await client.release(key)
        except Exception as exc:
            tally.fail(f"release {tag}: {exc!r}")
            continue
        t3 = time.perf_counter()
        checks.open_keys.discard(key)
        queries.append(t1 - t0)
        releases.append(t3 - t2)


async def warm_up(port: int, inputs: Inputs, tally: Tally) -> None:
    """Untimed: one cycle per stripe so every pool exists (nothing for a
    cold workload, whose point is that none does)."""
    if inputs.workload.cold:
        return
    async with ActYPClient("127.0.0.1", port) as client:
        await _cycles(client, iter(inputs.tags), float("inf"), inputs,
                      tally, Checks(), [], [])


# -- the open-loop monitor -----------------------------------------------------


def _monitor(db: ShardServiceClient,
             updates: Iterator[Tuple[str, Dict[str, float]]],
             duration_s: float, samples: List[Tuple[float, float]],
             tally: Tally) -> None:
    """Send ``update_dynamic`` on the fixed schedule for ``duration_s``.

    Each op is timed from when it was *due*, so a stall is charged to
    every update it delays; how late the sends ran is kept beside it.
    """
    start = time.perf_counter()
    for i in range(int(duration_s * MONITOR_RATE_HZ)):
        due = start + i / MONITOR_RATE_HZ
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        name, dynamic = next(updates)
        sent = time.perf_counter()
        tally.attempted += 1
        try:
            db.update_dynamic(name, **dynamic)
        except Exception as exc:
            tally.fail(f"update_dynamic {name}: {exc!r}")
            continue
        samples.append((time.perf_counter() - due, sent - due))


# -- one measurement -----------------------------------------------------------


def _check_holders(db: ShardServiceClient, checks: Checks,
                   tally: Tally) -> None:
    """Every machine handed out is held by the pool that handed it out
    (a pool keeps its machines taken for life, so this can be checked
    after the timed slice instead of inside it)."""
    for machine, pool_name in checks.holder.items():
        holder = db.holder_of(machine)
        tally.check(holder == pool_name,
                    f"{machine} held by {holder!r}, served by {pool_name!r}")
    checks.holder.clear()


async def measure(front: Any, db: ShardServiceClient, inputs: Inputs,
                  tally: Tally, *, clients: int, seconds: float, reps: int,
                  probe: bool = True) -> Tuple[List[Rep], Checks]:
    """Run ``reps`` equal repetitions filling ``seconds`` in total.

    A repetition is a query slice — and, where no monitor runs beside
    the queries (and ``probe`` is left on), a short write-probe slice
    after it.  ``front`` has a
    ``port`` and an async ``restart()`` that brings a fresh front end up
    over a fleet reset to the seed records (cold workloads only).
    """
    workload = inputs.workload
    probe_s = seconds * PROBE_SHARE / reps \
        if probe and not workload.monitor else 0.0
    slice_s = seconds / reps - probe_s
    checks = Checks()
    if not workload.cold:
        checks.pooled.update(inputs.tags)
    monitor_db = ShardServiceClient(db.endpoints)
    monitor_tally = Tally()
    updates = inputs.monitor_updates()
    streams = [inputs.stripes(i) for i in range(clients)]
    connections: List[ActYPClient] = []
    out: List[Rep] = []
    try:
        for rep in range(reps):
            if workload.cold:
                if rep:
                    await front.restart()
                    checks.pooled.clear()
                streams = [iter(inputs.cold_round(rep))]
            if not connections:
                connections = [ActYPClient("127.0.0.1", front.port)
                               for _ in streams]
                for client in connections:
                    await client.connect()
            queries: List[float] = []
            releases: List[float] = []
            samples: List[Tuple[float, float]] = []
            writer = None
            start = time.perf_counter()
            if workload.monitor:
                writer = threading.Thread(
                    target=_monitor, name=MONITOR_THREAD_NAME,
                    args=(monitor_db, updates, slice_s, samples,
                          monitor_tally))
                writer.start()
            await asyncio.gather(*[
                _cycles(client, stream, start + slice_s, inputs, tally,
                        checks, queries, releases)
                for client, stream in zip(connections, streams)])
            elapsed = time.perf_counter() - start
            if writer is not None:
                writer.join(_JOIN_TIMEOUT_S)
                tally.check(not writer.is_alive(),
                            "monitor thread did not finish")
            elif probe_s:
                _monitor(monitor_db, updates, probe_s, samples,
                         monitor_tally)
            out.append(Rep(elapsed, queries, releases, samples))
            _check_holders(db, checks, tally)
            if workload.cold:
                for client in connections:
                    await client.close()
                connections = []
    finally:
        for client in connections:
            await client.close()
        monitor_db.close()
    tally.attempted += monitor_tally.attempted
    tally.failed += monitor_tally.failed
    tally.notes.extend(monitor_tally.notes)
    return out, checks


def final_checks(db: ShardServiceClient, inputs: Inputs, checks: Checks,
                 tally: Tally) -> None:
    """End-of-workload state: nothing held by a client, no job counted
    on any machine, exactly the pooled machines taken, every
    acknowledged write on disk."""
    tally.check(not checks.open_keys,
                f"{len(checks.open_keys)} access keys never released")
    busy = [r.machine_name for r in db.match(include_taken=True)
            if r.active_jobs != 0]
    tally.check(not busy, f"{len(busy)} machines still count active jobs")
    pooled = sum(inputs.stripe_size[tag] for tag in checks.pooled)
    taken = db.taken_count()
    tally.check(taken == pooled,
                f"{taken} machines taken, {pooled} belong to live pools")
    for shard, wal in enumerate(db.wal_stats()["per_shard"]):
        tally.check(wal.get("synced_lsn") == wal.get("last_lsn"),
                    f"shard {shard} wal not synced: {wal}")


# -- turning repetitions into metrics ------------------------------------------


def _rep_values(rep: Rep) -> Dict[str, float]:
    update_latency = [latency for latency, _late in rep.updates]
    return {
        "query_p50_ms": percentile(rep.queries, 50) * 1e3,
        "query_p90_ms": percentile(rep.queries, 90) * 1e3,
        "release_p50_ms": percentile(rep.releases, 50) * 1e3,
        "cycles_per_s": len(rep.queries) / rep.elapsed_s,
        "update_p50_ms": percentile(update_latency, 50) * 1e3,
        "update_p90_ms": percentile(update_latency, 90) * 1e3,
    }


def summarize(reps: Sequence[Rep]) -> Dict[str, Dict[str, Any]]:
    """The quietest repetition's value, with the median, min and max of
    the repetition values and the sample count beside it.

    Interference from the host only ever adds time, so the best
    repetition is the steadiest estimate of what the code itself costs
    (a regression moves it as surely as it moves the median); on this
    shared 2-vCPU box the median of repetitions swings by 40% between
    the host's quiet and busy minutes, the best repetition by 14%.
    """
    per_rep = [_rep_values(rep) for rep in reps]
    cycles = sum(len(rep.queries) for rep in reps)
    updates = sum(len(rep.updates) for rep in reps)
    out: Dict[str, Dict[str, Any]] = {}
    for name in per_rep[0]:
        values = [values[name] for values in per_rep]
        best = max if _BETTER[name] == "higher" else min
        out[name] = {"value": best(values), "median": median(values),
                     "min": min(values), "max": max(values), "reps": values,
                     "samples": updates if name.startswith("update")
                     else cycles}
    return out
