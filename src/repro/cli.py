"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
- ``experiment figN [--paper-scale]`` — regenerate one paper figure and
  print its table.
- ``fleet --size N --out fleet.json`` — generate and save a synthetic
  white-pages snapshot.
- ``serve --fleet fleet.json --port P`` — run the asyncio ActYP service.
- ``serve --shard-service "H:P,H:P"`` — same, but the white pages lives
  in already-running shard workers reached over the wire protocol.
- ``shard-serve --shards N`` — run a supervised shard-worker fleet
  (spawn, health-check, restart-from-checkpoint) in the foreground.
- ``reshard --snapshot-dir DIR --to M`` — ask a running ``shard-serve``
  fleet to live-migrate to M shards (split or merge) on its op log;
  ``--wait`` blocks until the migration report lands.
- ``query --host H --port P "<query text>"`` — submit a query to a live
  service and print the allocation.
- ``scenarios --all`` — run the adversarial scenario suite against a
  live shard-service fleet and report degradation vs the unloaded
  baseline (``--check-budgets`` turns breaches into a non-zero exit —
  the CI degradation gate).
- ``metrics --endpoints "H:P,H:P"`` — fleet telemetry snapshot:
  per-verb server-side percentiles (exact histogram merge), counters,
  WAL lag, slow-op totals; ``--json`` for machines, ``--prom`` for
  Prometheus text exposition.
- ``top --endpoints "H:P,H:P"`` — live curses-free dashboard over the
  ``metrics`` verb: per-shard ops/s, p50/p99 by verb, WAL lag, the
  slow-op tail, and a hotspot attribution line.

Global flags: ``repro --log-level debug --log-json <command>``
configures structured logging for every ``repro.*`` module before the
command runs (see :mod:`repro.obs.logconfig`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.fleet import FleetSpec, build_fleet
from repro.database.persistence import (
    atomic_write_text,
    load_database,
    save_database,
)
from repro.database.records import MachineRecord
from repro.database.sharding import (
    ShardedWhitePagesDatabase,
    is_shard_manifest,
    load_sharded_database,
    save_sharded_database,
)
from repro.database.whitepages import WhitePagesDatabase
from repro.errors import ReproError

__all__ = ["main"]

_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments
    runner = getattr(experiments, f"run_{args.figure}")
    result = runner(paper_scale=args.paper_scale)
    print(result.format_table())
    if args.plot:
        from repro.experiments.plotting import ascii_plot
        print()
        print(ascii_plot(result))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    spec = FleetSpec(size=args.size, domain=args.domain,
                     stripe_pools=args.stripe_pools, seed=args.seed)
    records = build_fleet(spec)
    if args.shards > 1:
        db = ShardedWhitePagesDatabase(records, shards=args.shards)
        paths = save_sharded_database(db, args.out)
        print(f"wrote {len(db)} machines to {args.out} "
              f"(v3, {args.shards} shards, {len(paths) - 1} shard files)")
    else:
        db = WhitePagesDatabase(records)
        save_database(db, args.out)
        print(f"wrote {len(db)} machines to {args.out} (v3)")
    return 0


def _load_fleet_records(path: str) -> List[MachineRecord]:
    """Records from a shard manifest or a plain snapshot."""
    db = load_sharded_database(path)
    return [db.get(name) for name in db.names()]


#: Mailbox files for the ``reshard`` command: the CLI drops a request
#: into the running fleet's snapshot directory; the ``shard-serve``
#: loop executes it and answers with a report (or the error).  Both
#: sides write by rename, so neither ever reads a half-written file.
_RESHARD_REQUEST = "reshard.request"
_RESHARD_DONE = "reshard.done"


def _check_reshard_request(supervisor, snapshot_dir) -> Optional[str]:
    """Serve one pending ``reshard`` mailbox request, if any.

    Returns a human-readable status line when a request was handled
    (success or failure), else ``None``.  The request file is consumed
    either way, and the outcome is written to the done-file for a
    waiting ``repro reshard --wait``.
    """
    from pathlib import Path

    request_path = Path(snapshot_dir) / _RESHARD_REQUEST
    try:
        raw = request_path.read_text(encoding="utf-8")
    except OSError:
        return None
    request_path.unlink(missing_ok=True)
    done: dict = {}
    try:
        request = json.loads(raw)
        report = supervisor.rebalance(
            int(request["to"]),
            batch=int(request.get("batch", 512)),
            drain_threshold=int(request.get("drain_threshold", 64)))
        done = {"ok": True, "summary": report.summary(),
                "shards": report.new_shards, "epoch": report.new_epoch,
                "cutover_pause_s": report.cutover_pause_s,
                "endpoints": [[h, p] for h, p in report.endpoints]}
        status = report.summary()
    except Exception as exc:
        done = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        status = f"reshard failed: {done['error']}"
    atomic_write_text(Path(snapshot_dir) / _RESHARD_DONE,
                      json.dumps(done, indent=2) + "\n")
    return status


def _cmd_reshard(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    snapshot_dir = Path(args.snapshot_dir)
    if not snapshot_dir.is_dir():
        print(f"no such snapshot directory: {snapshot_dir}",
              file=sys.stderr)
        return 2
    done_path = snapshot_dir / _RESHARD_DONE
    done_path.unlink(missing_ok=True)
    request = {"to": args.to, "batch": args.batch,
               "drain_threshold": args.drain_threshold}
    atomic_write_text(snapshot_dir / _RESHARD_REQUEST,
                      json.dumps(request) + "\n")
    print(f"reshard request queued: -> {args.to} shards "
          f"(picked up on the fleet's next health sweep)")
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        try:
            done = json.loads(done_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            time.sleep(0.2)
            continue
        if done.get("ok"):
            print(done["summary"])
            endpoints = ",".join(
                f"{h}:{p}" for h, p in done.get("endpoints", []))
            if endpoints:
                print(f"new endpoints: {endpoints}")
            return 0
        print(done.get("error", "reshard failed"), file=sys.stderr)
        return 1
    print(f"timed out after {args.timeout:.0f}s waiting for the fleet "
          f"(is shard-serve running over {snapshot_dir}?)",
          file=sys.stderr)
    return 1


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    import time

    from repro.fleet import build_shard_service

    if args.resume:
        # Adopt whatever checkpoint/seed (and write-ahead logs) the
        # snapshot directory already holds: restart-the-world recovery.
        records = None
    elif args.fleet:
        records = _load_fleet_records(args.fleet)
    else:
        records = build_fleet(FleetSpec(size=args.size))
    supervisor = build_shard_service(
        args.shards, args.snapshot_dir, records=records, host=args.host,
        wal=args.wal, wal_interval=args.wal_interval,
        slow_op_threshold=args.slow_op_threshold)
    supervisor.start()
    endpoints = ",".join(f"{h}:{p}" for h, p in supervisor.endpoints)
    machines = len(supervisor.client())
    # supervisor.shards, not args.shards: --resume adopts the manifest
    # topology, which after a live reshard can differ from the flag.
    print(f"shard service: {supervisor.shards} workers, {machines} machines, "
          f"wal={args.wal}")
    print(f"endpoints: {endpoints}")
    print(f"(connect with: repro serve --shard-service \"{endpoints}\"; "
          f"Ctrl-C to stop)")
    try:
        last_checkpoint = time.monotonic()
        while True:
            time.sleep(args.health_interval)
            for index in supervisor.ensure_alive():
                print(f"restarted shard worker {index} from snapshot")
            status = _check_reshard_request(supervisor, args.snapshot_dir)
            if status is not None:
                print(status)
                endpoints = ",".join(
                    f"{h}:{p}" for h, p in supervisor.endpoints)
                print(f"endpoints: {endpoints}")
            if (args.checkpoint_interval
                    and time.monotonic() - last_checkpoint
                    >= args.checkpoint_interval):
                manifest = supervisor.checkpoint()
                last_checkpoint = time.monotonic()
                print(f"checkpoint written: {manifest}")
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("stopping workers")
    finally:
        supervisor.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.pipeline import build_service
    from repro.runtime.server import ActYPServer

    if args.shard_service:
        from repro.database.service import ShardServiceClient, parse_endpoints
        db = ShardServiceClient(parse_endpoints(args.shard_service))
    elif args.fleet:
        if args.shards > 1 or is_shard_manifest(args.fleet):
            db = load_sharded_database(
                args.fleet, shards=args.shards if args.shards > 1 else None)
        else:
            db = load_database(args.fleet)
    elif args.shards > 1:
        db = ShardedWhitePagesDatabase(
            build_fleet(FleetSpec(size=args.size)), shards=args.shards)
    else:
        db = WhitePagesDatabase(build_fleet(FleetSpec(size=args.size)))
    service = build_service(db, n_pool_managers=args.pool_managers)

    async def run() -> None:
        server = ActYPServer(service)
        await server.start(args.host, args.port)
        print(f"ActYP service on {args.host}:{server.port} "
              f"({len(db)} machines); Ctrl-C to stop")
        try:
            while True:
                await asyncio.sleep(3600)
        except asyncio.CancelledError:  # pragma: no cover
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("stopped")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        ScenarioConfig,
        ScenarioEnv,
        StageContext,
        default_pipeline,
        merge_reports_into_bench_json,
    )

    pipeline = default_pipeline(checkpoint_path=args.checkpoint)
    if args.list:
        for stage in pipeline.stages:
            inputs = ", ".join(stage.inputs) or "-"
            print(f"{stage.name:<16} inputs: {inputs}")
        return 0
    names = None
    if args.stages:
        names = [n for n in args.stages.replace(",", " ").split() if n]
    elif not getattr(args, "all", False):
        names = None  # default: the full chain, same as --all

    config = ScenarioConfig(
        n_records=args.records, shards=args.shards, seed=args.seed,
        duration_s=args.duration, load_threads=args.load_threads)
    with ScenarioEnv(config) as env:
        ctx = StageContext(env=env, config=config)
        result = pipeline.run(names, resume=args.resume, context=ctx)

    width = max((len(r.name) for r in result.reports), default=8)
    print(f"{'scenario':<{width}}  {'status':<8} {'p50':>10} {'p99':>10} "
          f"{'p99 x':>7} {'tput x':>7} {'err%':>6}  budget")
    for r in result.reports:
        m = r.metrics

        def fmt(key: str, scale: float = 1e3, suffix: str = "ms") -> str:
            value = m.get(key)
            if not isinstance(value, (int, float)) or value != value:
                return "-"
            return f"{value * scale:.2f}{suffix}"

        status = f"{r.status}{' *' if r.cached else ''}"
        verdict = "-"
        if m.get("breaches"):
            verdict = "OVER: " + "; ".join(m["breaches"])
        elif m.get("within_budget"):
            verdict = "within"
        print(f"{r.name:<{width}}  {status:<8} {fmt('p50_s'):>10} "
              f"{fmt('p99_s'):>10} {fmt('p99_x', 1, 'x'):>7} "
              f"{fmt('throughput_x', 1, 'x'):>7} "
              f"{fmt('error_rate', 100, ''):>6}  {verdict}")
        if r.reason:
            print(f"{'':<{width}}  {r.reason}")

    if args.json_out:
        merge_reports_into_bench_json(args.json_out, result.reports,
                                      n_records=config.n_records)
        print(f"scenario metrics merged into {args.json_out}")

    if not result.ok:
        failed = [r.name for r in result.reports if r.status == "failed"]
        print(f"SCENARIOS FAILED: {', '.join(failed)}")
        return 1
    if args.check_budgets:
        over = [r.name for r in result.reports if r.metrics.get("breaches")]
        if over:
            print(f"DEGRADATION BUDGET EXCEEDED: {', '.join(over)}")
            return 1
        ran = [r for r in result.reports if r.status == "ok"]
        print(f"scenarios OK: {len(ran)} stage(s) within their "
              f"degradation budgets")
    return 0


def _ms(value) -> str:
    """Milliseconds with two decimals, or ``-`` for missing/NaN."""
    if not isinstance(value, (int, float)) or value != value:
        return "-"
    return f"{value * 1e3:.2f}"


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.database.service import ShardServiceClient, parse_endpoints

    with ShardServiceClient(parse_endpoints(args.endpoints)) as client:
        snapshot = client.metrics(max_spans=args.max_spans)
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    if args.prom:
        seen_types = set()
        for reply in snapshot["per_shard"]:
            from repro.obs.telemetry import prometheus_lines
            labels = {"shard": str(reply.get("shard_index", 0))}
            for line in prometheus_lines(reply.get("metrics", {}), labels):
                if line.startswith("# TYPE"):
                    # One TYPE declaration per metric across the fleet.
                    if line in seen_types:
                        continue
                    seen_types.add(line)
                print(line)
        return 0
    fleet = snapshot["fleet"]
    print(f"fleet: {snapshot['shards']} shards, epoch "
          f"{snapshot['epoch']}, {fleet['requests']} requests, "
          f"{fleet['slow_ops']} slow ops, wal lag {fleet['wal_lag']}")
    print(f"{'series':<24} {'count':>8} {'p50 ms':>9} {'p99 ms':>9} "
          f"{'max ms':>9}")
    for name, stats in fleet["histograms"].items():
        print(f"{name:<24} {int(stats['count']):>8} "
              f"{_ms(stats['p50_s']):>9} {_ms(stats['p99_s']):>9} "
              f"{_ms(stats['max_s']):>9}")
    if fleet["counters"]:
        print("counters: " + ", ".join(
            f"{k}={v}" for k, v in sorted(fleet["counters"].items())))
    client_side = snapshot["client"]
    for name, stats in client_side["histograms"].items():
        print(f"client {name:<17} {int(stats['count']):>8} "
              f"{_ms(stats['p50_s']):>9} {_ms(stats['p99_s']):>9} "
              f"{_ms(stats['max_s']):>9}")
    return 0


def _top_frame(snapshot: dict, rates: List[str]) -> List[str]:
    """Render one ``repro top`` refresh as a list of lines.

    Pure function of the ``client.metrics()`` snapshot (plus the
    pre-computed per-shard ops/s strings), so tests can assert on the
    hotspot attribution without a TTY.
    """
    import time as _time

    from repro.obs.telemetry import merge_histograms, summarize_histogram

    lines = [f"repro top — {snapshot['shards']} shards, epoch "
             f"{snapshot['epoch']} — "
             f"{_time.strftime('%H:%M:%S')}"]
    lines.append(f"{'shard':>5} {'ops/s':>9} {'p50 ms':>9} {'p99 ms':>9} "
                 f"{'worst verb':<16} {'wal lag':>7} {'slow':>5}")
    hot: Optional[tuple] = None  # (p99, shard, verb)
    for i, reply in enumerate(snapshot["per_shard"]):
        hists = reply.get("metrics", {}).get("histograms", {})
        verb_hists = {name[len("verb."):]: data
                      for name, data in hists.items()
                      if name.startswith("verb.")}
        overall = summarize_histogram(
            merge_histograms(verb_hists.values()))
        worst_verb, worst_p99 = "-", float("nan")
        for verb, data in sorted(verb_hists.items()):
            p99 = summarize_histogram(data)["p99_s"]
            if worst_p99 != worst_p99 or p99 > worst_p99:
                worst_verb, worst_p99 = verb, p99
        if worst_verb != "-" and \
                (hot is None or worst_p99 > hot[0]):
            hot = (worst_p99, i, worst_verb)
        wal = reply.get("wal", {})
        lag = max(0, int(wal.get("last_lsn", 0))
                  - int(wal.get("synced_lsn", 0)))
        lines.append(f"{i:>5} {rates[i]:>9} {_ms(overall['p50_s']):>9} "
                     f"{_ms(overall['p99_s']):>9} {worst_verb:<16} "
                     f"{lag:>7} {int(reply.get('slow_ops', 0)):>5}")
    if hot is not None:
        lines.append(f"hotspot: shard {hot[1]} / {hot[2]} "
                     f"p99 {_ms(hot[0])} ms")
    slow_tail = []
    for reply in snapshot["per_shard"]:
        threshold = float(reply.get("slow_op_threshold", 0.25))
        slow_tail.extend(s for s in reply.get("spans", [])
                         if float(s.get("duration_s", 0.0)) >= threshold)
    slow_tail.sort(key=lambda s: -float(s.get("duration_s", 0.0)))
    if slow_tail:
        lines.append("slow-op tail:")
        for span in slow_tail[:8]:
            lines.append(
                f"  shard {span.get('shard')} {span.get('verb')} "
                f"{_ms(span.get('duration_s'))} ms "
                f"trace={span.get('trace')}")
    return lines


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.database.service import ShardServiceClient, parse_endpoints

    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    previous: Optional[tuple] = None  # (monotonic, per-shard requests)
    iteration = 0
    with ShardServiceClient(parse_endpoints(args.endpoints)) as client:
        while True:
            snapshot = client.metrics(max_spans=args.max_spans)
            now = time.monotonic()
            requests = [int(r.get("requests", 0))
                        for r in snapshot["per_shard"]]
            rates = ["-"] * len(requests)
            if previous is not None and now > previous[0]:
                dt = now - previous[0]
                rates = [f"{max(0, cur - old) / dt:.1f}"
                         for cur, old in zip(requests, previous[1])]
            previous = (now, requests)
            if clear:
                print(clear, end="")
            print("\n".join(_top_frame(snapshot, rates)), flush=True)
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.runtime.client import ActYPClient

    async def run() -> int:
        async with ActYPClient(args.host, args.port) as client:
            result = await client.query(args.text, format_name=args.format)
            print(json.dumps(result, indent=2))
            if result.get("ok") and args.release:
                await client.release(result["allocation"]["access_key"])
                print("released")
            return 0 if result.get("ok") else 1

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active Yellow Pages reproduction toolkit",
    )
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="configure structured logging for every "
                             "repro.* module before the command runs")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as one JSON object per "
                             "line (implies --log-level info unless set)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure")
    p_exp.add_argument("figure", choices=_FIGURES)
    p_exp.add_argument("--paper-scale", action="store_true",
                       help="use the paper's full parameters")
    p_exp.add_argument("--plot", action="store_true",
                       help="render an ASCII plot of the series")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_fleet = sub.add_parser("fleet", help="generate a fleet snapshot")
    p_fleet.add_argument("--size", type=int, default=200)
    p_fleet.add_argument("--domain", default="purdue")
    p_fleet.add_argument("--stripe-pools", type=int, default=0)
    p_fleet.add_argument("--seed", type=int, default=7)
    p_fleet.add_argument("--shards", type=int, default=1,
                         help="write a per-shard snapshot set (manifest + "
                              "one file per shard)")
    p_fleet.add_argument("--out", required=True)
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_serve = sub.add_parser("serve", help="run the asyncio service")
    p_serve.add_argument("--fleet", help="fleet snapshot JSON")
    p_serve.add_argument("--size", type=int, default=200,
                         help="synthetic fleet size when no snapshot given")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7070)
    p_serve.add_argument("--pool-managers", type=int, default=2)
    p_serve.add_argument("--shards", type=int, default=1,
                         help="serve from a sharded database (snapshots "
                              "are re-partitioned as needed)")
    p_serve.add_argument("--shard-service", metavar="ENDPOINTS",
                         help="serve from live shard workers instead of an "
                              "in-process database; comma-separated "
                              "host:port list in shard order (see "
                              "'shard-serve')")
    p_serve.set_defaults(fn=_cmd_serve)

    p_shard = sub.add_parser(
        "shard-serve",
        help="run a supervised fleet of live shard workers")
    p_shard.add_argument("--shards", type=int, default=2)
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--fleet",
                         help="seed snapshot (plain or shard manifest)")
    p_shard.add_argument("--size", type=int, default=200,
                         help="synthetic fleet size when no snapshot given")
    p_shard.add_argument("--snapshot-dir", default="shard-snapshots",
                         help="directory for seed/checkpoint shard files")
    p_shard.add_argument("--health-interval", type=float, default=2.0,
                         help="seconds between worker health sweeps")
    p_shard.add_argument("--checkpoint-interval", type=float, default=0.0,
                         help="seconds between automatic checkpoints "
                              "(0 = only the initial seed)")
    p_shard.add_argument("--wal", default="fsync",
                         choices=("off", "async", "fsync"),
                         help="per-shard write-ahead op log: 'fsync' "
                              "(default) makes every acknowledged mutation "
                              "durable and restarts crash-exact; 'async' "
                              "survives process crash only; 'off' keeps the "
                              "lossy last-checkpoint contract")
    p_shard.add_argument("--wal-interval", type=float, default=0.0,
                         help="group-commit window in seconds (0 = batch "
                              "only what shares an event-loop tick)")
    p_shard.add_argument("--slow-op-threshold", type=float, default=0.25,
                         help="seconds at or above which an op is "
                              "appended to the shard's slow-op JSONL "
                              "(beside its WAL)")
    p_shard.add_argument("--resume", action="store_true",
                         help="skip seeding; adopt the snapshot dir's "
                              "newest checkpoint/seed and replay the op "
                              "logs (restart-the-world recovery)")
    p_shard.set_defaults(fn=_cmd_shard_serve)

    p_reshard = sub.add_parser(
        "reshard",
        help="live-migrate a running shard-serve fleet to a new shard "
             "count (split or merge) on its op log")
    p_reshard.add_argument("--snapshot-dir", default="shard-snapshots",
                           help="the running fleet's snapshot directory "
                                "(the request/report mailbox)")
    p_reshard.add_argument("--to", type=int, required=True,
                           help="target shard count")
    p_reshard.add_argument("--batch", type=int, default=512,
                           help="op-log records streamed per catch-up "
                                "round trip")
    p_reshard.add_argument("--drain-threshold", type=int, default=64,
                           help="remaining tail length at which writes "
                                "are fenced for the final exact drain")
    p_reshard.add_argument("--wait", action="store_true",
                           help="block until the fleet reports the "
                                "migration outcome")
    p_reshard.add_argument("--timeout", type=float, default=120.0,
                           help="--wait limit in seconds")
    p_reshard.set_defaults(fn=_cmd_reshard)

    p_scen = sub.add_parser(
        "scenarios",
        help="run adversarial scenarios against a live shard fleet")
    p_scen.add_argument("--all", action="store_true",
                        help="run the full scenario chain (the default "
                             "when --stages is not given)")
    p_scen.add_argument("--stages", metavar="NAMES",
                        help="comma-separated subset of stages to run "
                             "(missing-input stages are skipped, not "
                             "crashed)")
    p_scen.add_argument("--list", action="store_true",
                        help="list the stages and their input artifacts")
    p_scen.add_argument("--records", type=int, default=2000,
                        help="live-fleet size (reduced-scale CI uses a "
                             "smaller value)")
    p_scen.add_argument("--shards", type=int, default=4,
                        help="shard-worker count for the live fleet")
    p_scen.add_argument("--seed", type=int, default=17)
    p_scen.add_argument("--duration", type=float, default=1.5,
                        help="seconds per measurement window")
    p_scen.add_argument("--load-threads", type=int, default=4,
                        help="background hostile-load threads")
    p_scen.add_argument("--checkpoint", metavar="PATH",
                        help="pipeline checkpoint file (enables --resume)")
    p_scen.add_argument("--resume", action="store_true",
                        help="reuse completed stages from --checkpoint "
                             "instead of re-running them")
    p_scen.add_argument("--json-out", metavar="PATH",
                        help="merge scenario metrics into a bench-trend "
                             "BENCH_<date>.json (created if missing)")
    p_scen.add_argument("--check-budgets", action="store_true",
                        help="exit non-zero when any scenario exceeds "
                             "its degradation budget (the CI gate)")
    p_scen.set_defaults(fn=_cmd_scenarios)

    p_query = sub.add_parser("query", help="query a live service")
    p_query.add_argument("text")
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, default=7070)
    p_query.add_argument("--format", default="punch",
                         choices=("punch", "dict", "classad"))
    p_query.add_argument("--release", action="store_true",
                         help="release the allocation immediately")
    p_query.set_defaults(fn=_cmd_query)

    p_metrics = sub.add_parser(
        "metrics",
        help="fleet telemetry snapshot from live shard workers")
    p_metrics.add_argument("--endpoints", required=True,
                           help="comma-separated host:port list in shard "
                                "order (see 'shard-serve')")
    p_metrics.add_argument("--json", action="store_true",
                           help="print the full snapshot as JSON")
    p_metrics.add_argument("--prom", action="store_true",
                           help="print Prometheus text exposition "
                                "(per-shard labels)")
    p_metrics.add_argument("--max-spans", type=int, default=32,
                           help="recent spans to fetch per shard")
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_top = sub.add_parser(
        "top",
        help="live dashboard: per-shard ops/s, p50/p99 by verb, WAL "
             "lag, slow-op tail")
    p_top.add_argument("--endpoints", required=True,
                       help="comma-separated host:port list in shard "
                            "order (see 'shard-serve')")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0,
                       help="stop after N refreshes (0 = run until "
                            "Ctrl-C)")
    p_top.add_argument("--max-spans", type=int, default=64,
                       help="recent spans to fetch per shard for the "
                            "slow-op tail")
    p_top.set_defaults(fn=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level or args.log_json:
        from repro.obs.logconfig import configure_logging
        configure_logging(args.log_level or "info",
                          json_mode=args.log_json)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        # Bad input (a missing, torn or foreign snapshot, a bad stage
        # name, a busy port) is the operator's to fix: one line, no
        # traceback.
        print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
