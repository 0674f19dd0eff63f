"""Telemetry overhead scale gate (ISSUE 10 satellite).

The worker-side telemetry (per-verb latency histograms, span ring,
slow-op detection — :mod:`repro.obs`) instruments every dispatch, so
it must be cheap enough to leave on in production: at 100k records,
registration and match throughput with telemetry recording **on**
must hold >= 0.9x the same fleet's throughput with recording **off**.

Both arms run against *one* live fleet, flipped at runtime with the
``set_telemetry`` verb and timed in interleaved rounds (on, off, on,
off, ...).  Two separately-spawned fleets never share process
placement, and their baseline spread on a busy runner can exceed the
few-microsecond tax being measured — same-process A/B cancels
placement, cache, and drift, leaving exactly the per-op recording
cost (one histogram sample + two counters + a span-ring append).

A sanity leg asserts the toggle is real: the ``ops`` counter grows
during on-rounds and freezes during off-rounds — a gate that timed
two instrumented (or two bare) arms would "pass" while gating
nothing.

``REPRO_TELEMETRY_SCALE_N`` overrides the record count; the committed
gate runs at the full 100k.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import pytest

from repro.core.language import parse_query
from repro.core.plan import compile_plan
from repro.database.service import ShardSupervisor

pytestmark = pytest.mark.scale_gate

N = int(os.environ.get("REPRO_TELEMETRY_SCALE_N", "100000"))
SHARDS = 4
#: Telemetry-on throughput must stay within 10% of telemetry-off.
MIN_RATIO = 0.9
#: Interleaved on/off timing rounds per workload.
ROUNDS = 7
#: Matches per round (selective pool-walk shapes, fanned to all shards).
QUERY_TEXTS = (
    "punch.rsrc.pool = p07\npunch.rsrc.memory = >=256",
    "punch.rsrc.pool = p11\npunch.rsrc.osversion = 7.3",
)
#: Transient register/unregister pairs per registration round.
REG_PAIRS = 100


@pytest.fixture(scope="module")
def records(scale_records):
    return scale_records(N)


@pytest.fixture(scope="module")
def fleet(records, tmp_path_factory):
    sup = ShardSupervisor(
        SHARDS, snapshot_dir=tmp_path_factory.mktemp("telemetry-gate"),
        records=records)
    sup.start()
    yield sup
    sup.stop()


@pytest.fixture(scope="module")
def plans():
    return [compile_plan(parse_query(text).basic()) for text in QUERY_TEXTS]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _ratio(on_samples, off_samples) -> float:
    return statistics.median(off_samples) / statistics.median(on_samples)


def test_telemetry_overhead_within_budget(fleet, records, plans):
    client = fleet.client()
    template = records[0]

    def match_round():
        for _ in range(3):
            for plan in plans:
                client.match_names(plan)

    def register_round():
        for i in range(REG_PAIRS):
            name = f"telemetry-gate-{i:04d}.transient.edu"
            client.add(dataclasses.replace(template, machine_name=name))
            client.remove(name)

    match_round()  # warm sockets, worker caches, and both code paths
    register_round()

    on_match, off_match, on_reg, off_reg = [], [], [], []
    ops_deltas = {True: 0, False: 0}
    try:
        for _ in range(ROUNDS):
            for enabled, match_out, reg_out in (
                    (True, on_match, on_reg), (False, off_match, off_reg)):
                client.set_telemetry(enabled)
                before = client.metrics(max_spans=0)["fleet"]["counters"]
                match_out.append(_timed(match_round))
                reg_out.append(_timed(register_round))
                after = client.metrics(max_spans=0)["fleet"]["counters"]
                ops_deltas[enabled] += (after.get("ops", 0)
                                        - before.get("ops", 0))
    finally:
        client.set_telemetry(True)

    match_ratio = _ratio(on_match, off_match)
    reg_ratio = _ratio(on_reg, off_reg)
    print(f"\n  n={N} shards={SHARDS} rounds={ROUNDS}: "
          f"match on/off "
          f"{statistics.median(on_match) * 1e3:.1f}/"
          f"{statistics.median(off_match) * 1e3:.1f} ms "
          f"(ratio {match_ratio:.3f}), register on/off "
          f"{statistics.median(on_reg) * 1e3:.1f}/"
          f"{statistics.median(off_reg) * 1e3:.1f} ms "
          f"(ratio {reg_ratio:.3f})")
    assert match_ratio >= MIN_RATIO, (
        f"telemetry costs {(1 - match_ratio) * 100:.0f}% of match "
        f"throughput (ratio {match_ratio:.3f}; gate {MIN_RATIO}x)")
    assert reg_ratio >= MIN_RATIO, (
        f"telemetry costs {(1 - reg_ratio) * 100:.0f}% of registration "
        f"throughput (ratio {reg_ratio:.3f}; gate {MIN_RATIO}x)")

    # The toggle must be real: on-rounds recorded ops, off-rounds froze
    # the counter (the surrounding metrics verbs themselves are served
    # but not recorded while disabled).
    assert ops_deltas[True] > 0
    assert ops_deltas[False] == 0
    hists = client.metrics(max_spans=0)["fleet"]["histograms"]
    assert hists["verb.match"]["count"] > 0
