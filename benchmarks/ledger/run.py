"""Query-path ledger: allocation latency and throughput, end to end and
layer by layer, through ``ActYPServer`` over the WAL-on shard fleet.

Two ways in, one harness:

``run.py --workload NAME --seed S --seconds T --trace 0|1``
    One workload, one mode; the last line of stdout is one JSON object
    (``correct``, ``attempted``, ``failed``, ``metrics``) — the
    ``BENCHMARK.json`` contract.  ``--trace 0`` measures the end-to-end
    metrics with nothing attached; ``--trace 1`` is the traced run that
    yields the per-layer metrics.

``run.py [--workloads a,b] [--seed S] [--seconds T] [--clients C] [--json-out F]``
    The full ledger: every workload, untraced then traced, every metric
    printed by name with its unit, written to ``--json-out`` with the
    seed, git SHA and machine descriptor (a ``results/BENCH_<date>.json``
    entry).

Exit status is non-zero when any operation or output check failed.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from ledger_load import (  # noqa: E402
    WORKLOADS,
    WORKLOADS_BY_NAME,
    Inputs,
    Tally,
    Workload,
    final_checks,
    measure,
    summarize,
    warm_up,
)
from ledger_metrics import BOUNDED, END_TO_END, PER_LAYER  # noqa: E402
from ledger_stack import DEFAULT_WORK_ROOT, LedgerError, Stack  # noqa: E402

#: Complete set-ups per untraced run; ``setup_s`` is the quietest.
SETUP_REPEATS = 3
#: A traced run's window is this many (untraced leg, traced leg) pairs.
TRACE_LEG_PAIRS = 2
#: Recent spans a shard worker keeps (``SpanRecorder`` ring); asked for
#: in full wherever worker spans are paired with the client's round trips.
WORKER_SPAN_RING = 256
FULL_LEDGER_SECONDS = 30.0
_LEG_TIMEOUT_S = 900.0


async def run_untraced(workload: Workload, seed: int, seconds: float, *,
                       clients: Optional[int] = None,
                       reps: Optional[int] = None,
                       setup_repeats: int = SETUP_REPEATS,
                       work_root: Path = DEFAULT_WORK_ROOT) -> Dict[str, Any]:
    """End-to-end metrics of one workload, nothing attached."""
    tally = Tally()
    setups: List[float] = []
    stack: Optional[Stack] = None
    try:
        for _ in range(setup_repeats):
            if stack is not None:
                stack.stop()
            t0 = time.perf_counter()
            inputs = Inputs(workload, seed)
            stack = Stack(inputs.records, work_root=work_root).start()
            await warm_up(stack.port, inputs, tally)
            setups.append(time.perf_counter() - t0)
        n_clients = clients or workload.clients
        rep_samples, checks = await measure(
            stack, stack.db, inputs, tally, clients=n_clients,
            seconds=seconds, reps=reps or workload.reps)
        final_checks(stack.db, inputs, checks, tally)
        peak_rss_mb = stack.peak_rss_mb()
    finally:
        if stack is not None:
            stack.stop()
    metrics = summarize(rep_samples)
    metrics["setup_s"] = {"value": min(setups), "median": median(setups),
                          "min": min(setups), "max": max(setups),
                          "reps": setups, "samples": len(setups)}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "samples": 1}
    return _result(tally, metrics, clients=n_clients)


async def run_traced(workload: Workload, seed: int, seconds: float, *,
                     work_root: Path = DEFAULT_WORK_ROOT):
    """Per-layer metrics of one workload: 1 client, the front end
    assembled in this process, wrappers attached by name.

    The window alternates untraced and traced legs, so machine drift
    falls on both sides of ``trace.overhead_ratio``.  Returns the
    result and the :class:`~ledger_trace.Tracer` holding the spans.
    """
    from ledger_trace import (FleetWindow, InProcessFront, Tracer,
                              per_layer_metrics, sample_traces,
                              spans_summary, wire_self_us)
    tally = Tally()
    inputs = Inputs(workload, seed)
    stack = Stack(inputs.records, work_root=work_root,
                  child_front_end=False).start()
    tracer = Tracer()
    front = InProcessFront(stack)
    leg_s = seconds / (2 * TRACE_LEG_PAIRS)
    untraced: List[Any] = []
    traced: List[Any] = []
    windows: List[Any] = []

    def fleet(ring: bool = False) -> Dict[str, Any]:
        return stack.db.metrics(max_spans=WORKER_SPAN_RING if ring else 0)

    try:
        await front.start()
        at_start = fleet()
        tracer.attach()
        await warm_up(front.port, inputs, tally)
        tails = [fleet(ring=True)]
        tracer.phase, tracer.capture = "window", True
        for leg in range(2 * TRACE_LEG_PAIRS):
            if workload.cold and leg:
                await front.restart()
            if leg % 2:
                tracer.attach()
                before = fleet()
            else:
                tracer.detach()
            (rep,), checks = await measure(
                front, stack.db, inputs, tally, clients=1, seconds=leg_s,
                reps=1, probe=not leg % 2)
            if leg % 2:
                tails.append(fleet(ring=True))
                windows.append((before, tails[-1]))
                traced.append(rep)
            else:
                untraced.append(rep)
        tracer.phase = "sweep"
        with tracer.root("sweep"):
            front.sweep_idle_pools(asyncio.get_running_loop().time())
        checks.pooled.clear()
        tails.append(fleet(ring=True))
        tracer.detach()
        final_checks(stack.db, inputs, checks, tally)
        await front.stop()
        metrics = per_layer_metrics(
            tracer, front, FleetWindow([(at_start, tails[-1])]),
            FleetWindow(windows),
            wire_self_us(tracer, tails,
                         [port for _host, port in stack.endpoints]),
            untraced, traced)
    finally:
        tracer.detach()
        await front.stop()
        stack.stop()
    cycles = sum(len(rep.queries) for rep in traced)
    result = _result(tally, {name: {"value": value, "samples": cycles}
                             for name, value in metrics.items()}, clients=1)
    result["absent"] = tracer.absent
    result["spans"] = len(tracer)
    result["spans_summary"] = spans_summary(tracer)
    result["sample_traces"] = sample_traces(tracer)
    return result, tracer


def _result(tally: Tally, metrics: Dict[str, Dict[str, Any]], *,
            clients: int) -> Dict[str, Any]:
    return {
        "correct": tally.failed == 0,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "failed_ratio": tally.failed / max(1, tally.attempted),
        "failure_notes": tally.notes,
        "clients": clients,
        "metrics": metrics,
    }


# -- output --------------------------------------------------------------------


def _print_table(title: str, table: Sequence[Any],
                 result: Dict[str, Any]) -> None:
    print(f"== {title}: ops_attempted={result['ops_attempted']} "
          f"ops_failed={result['ops_failed']} "
          f"failed_ratio={result['failed_ratio']:.6f} "
          f"clients={result['clients']}")
    for spec in table:
        entry = result["metrics"][spec.name]
        spread = (f"  median {entry['median']:.4g} "
                  f"[{entry['min']:.4g} .. {entry['max']:.4g}]"
                  if "min" in entry else "")
        print(f"{spec.name:<44} {entry['value']:>14.4f} {spec.unit:<6}"
              f"{spread}  n={entry['samples']}")
    for layer in result.get("absent", ()):
        print(f"{layer:<44} {'absent':>14}")
    for note in result["failure_notes"]:
        print(f"FAILED: {note}", file=sys.stderr)


def _contract_line(table: Sequence[Any], result: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {spec.name: {"value": result["metrics"][spec.name]["value"],
                                "unit": spec.unit} for spec in table},
    })


def _git_describe() -> Dict[str, Any]:
    """HEAD and whether the tree differs from it (the entry committed
    *with* a change is necessarily measured on a dirty tree)."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=_REPO, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}


def _machine(pinned_cpu: Optional[int]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "kernel": platform.release(),
        "arch": platform.machine(),
        "network": "host loopback, not a real link",
        "fsync": "the sandbox's filesystem, not a storage device's",
    }


def _pin_to_one_cpu() -> Optional[int]:
    """Run the harness and everything it starts on one CPU, batch class.

    The query path is a serial ping-pong between processes (client,
    front end, shard worker), so little runs in parallel to begin with —
    but on a shared 2-vCPU VM every hand-off to a process on the *other*
    vCPU is an inter-processor interrupt through the host, which costs
    100-500 us depending on what the host is doing that minute.  One
    CPU takes that lottery out of every latency reported here.

    ``SCHED_BATCH`` turns off wake-up preemption among those processes:
    each runs until it blocks, as it would on a core of its own.
    Without it the receiver of a reply can preempt the worker that sent
    it before the worker has stopped its own verb clock, and the
    worker-side telemetry then charges the client's work to the verb.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError as exc:
        warnings.warn(f"ledger: could not pin to one CPU: {exc}")
        return None
    return cpu


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME),
                        help="run one workload in one mode and end with "
                             "the contract's JSON line")
    parser.add_argument("--workloads",
                        help="comma-separated subset for the full ledger")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="timed window per workload and mode "
                             f"(full ledger default {FULL_LEDGER_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clients", type=int,
                        help="override the workloads' connection counts "
                             "(recorded in the output)")
    parser.add_argument("--json-out",
                        help="write the ledger entry (with --workload: "
                             "that one result) here")
    args = parser.parse_args(argv)
    # A terminated run still unwinds through every ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pinned_cpu = _pin_to_one_cpu()
    # The monitor thread and the asyncio thread share this process's
    # interpreter lock; the default 5 ms hand-off would be the load
    # generator's own tail latency, not the system's.
    sys.setswitchinterval(1e-4)
    warnings.simplefilter("always")

    if args.workload:
        workload = WORKLOADS_BY_NAME[args.workload]
        seconds = args.seconds or FULL_LEDGER_SECONDS
        if args.trace:
            result, _ = asyncio.run(run_traced(workload, args.seed, seconds))
            table: Sequence[Any] = PER_LAYER
        else:
            result = asyncio.run(run_untraced(
                workload, args.seed, seconds, clients=args.clients))
            table = END_TO_END
        _print_table(f"{workload.name} trace={args.trace}", table, result)
        if args.json_out:
            Path(args.json_out).write_text(json.dumps(result))
        print(_contract_line(PER_LAYER if args.trace else BOUNDED, result))
        return 0 if result["correct"] else 1

    names = args.workloads.split(",") if args.workloads \
        else [w.name for w in WORKLOADS]
    unknown = [name for name in names if name not in WORKLOADS_BY_NAME]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    seconds = args.seconds or FULL_LEDGER_SECONDS
    document: Dict[str, Any] = {
        "schema": "repro.ledger/1",
        "date": datetime.date.today().isoformat(),
        "git": _git_describe(),
        "seed": args.seed,
        "seconds": seconds,
        "machine": _machine(pinned_cpu),
        "workloads": {},
    }
    correct = True
    for name in names:
        workload = WORKLOADS_BY_NAME[name]
        legs = {mode: _run_leg(name, trace, args, seconds)
                for mode, trace in (("end_to_end", 0), ("per_layer", 1))}
        correct = correct and all(leg["correct"] for leg in legs.values())
        document["workloads"][name] = {
            "why": workload.why, "machines": workload.machines,
            "stripes": workload.stripes, **legs}
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.json_out}")
    return 0 if correct else 1


def _run_leg(name: str, trace: int, args: argparse.Namespace,
             seconds: float) -> Dict[str, Any]:
    """One workload in one mode, in a process of its own — as the
    contract's driver runs them.  The shard workers are forked from the
    harness, so a harness that had already held another workload's fleet
    would hand its heap to their ``peak_rss_mb``."""
    DEFAULT_WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="legs-",
                                     dir=DEFAULT_WORK_ROOT) as scratch:
        out = Path(scratch) / "leg.json"
        command = [sys.executable, str(_HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--json-out", str(out)]
        if args.clients:
            command += ["--clients", str(args.clients)]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=_LEG_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise LedgerError(f"{name} trace={trace} did not finish within "
                              f"{_LEG_TIMEOUT_S:g}s") from None
        # Everything but the contract line, which only a driver reads.
        print("\n".join(done.stdout.splitlines()[:-1]))
        if not out.exists():
            raise LedgerError(f"{name} trace={trace} exited "
                              f"{done.returncode} without a result")
        return json.loads(out.read_text())


if __name__ == "__main__":
    sys.exit(main())
