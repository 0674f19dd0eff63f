"""Benchmark harness configuration.

Each figure benchmark runs its experiment driver once (``pedantic`` with a
single round — the drivers are deterministic simulations, not
microbenchmarks), prints the regenerated table, and asserts the
qualitative shape facts ARCHITECTURE.md records for each figure.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_PAPER_SCALE=1`` to run at the paper's full parameters
(3,200 machines, 70 clients, 236,222 samples) — slower but closer to the
published magnitudes.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.fleet import FleetSpec, build_fleet


def timed_median(fn, *args, repeats=5, **kwargs):
    """Median wall-clock seconds of ``repeats`` calls, plus the last
    result — the shared timing core of the ``test_micro_*_scale.py``
    speedup gates."""
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), result


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "0") == "1"


@pytest.fixture(scope="session")
def scale() -> bool:
    return paper_scale()


@pytest.fixture(scope="session")
def scale_records():
    """``scale_records(n, stripe_pools=32)``: the ``FleetSpec(size=n,
    seed=11, stripe_pools=stripe_pools)`` records the scale gates share,
    built once per ``(n, stripe_pools)`` for the whole session.  Records
    are immutable and the tuple cannot be appended to, so each gate file
    builds its own database from the same rows instead of regenerating
    the fleet."""
    cache = {}

    def records(n: int, stripe_pools: int = 32) -> tuple:
        key = (n, stripe_pools)
        if key not in cache:
            cache[key] = tuple(build_fleet(
                FleetSpec(size=n, seed=11, stripe_pools=stripe_pools)))
        return cache[key]

    return records


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
