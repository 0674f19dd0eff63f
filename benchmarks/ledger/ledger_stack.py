"""Process lifecycle of the system under test.

One :class:`Stack` is the shipped default deployment: a 2-worker shard
fleet with ``wal="fsync"`` (``repro.fleet.build_shard_service``) and an
ActYP front end over it.  Untraced runs launch the front end as a child
process exactly as an operator would (``repro serve --shard-service``);
traced runs assemble the same objects inside the harness so the
wrappers in :mod:`ledger_trace` can see the calls.

Every wait here has a timeout with a named error, every process is
stopped on every exit path, and a run refuses to start while a process
recorded by an earlier run is still alive.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.database.service import ShardServiceClient
from repro.fleet import build_shard_service

__all__ = ["LedgerError", "LeftoverProcessError", "FrontEndStartError",
           "DEFAULT_WORK_ROOT", "SHARDS", "Stack",
           "check_no_leftovers"]

DEFAULT_WORK_ROOT = Path(__file__).resolve().parent / ".work"
SHARDS = 2
_FRONT_START_TIMEOUT_S = 30.0
_FRONT_STOP_TIMEOUT_S = 10.0
_PID_FILE = "pids.json"


class LedgerError(RuntimeError):
    """A harness failure (as opposed to a failed operation under test)."""


class LeftoverProcessError(LedgerError):
    """A process of an earlier run is still alive and would skew this one."""


class FrontEndStartError(LedgerError):
    """The front-end child did not announce its port in time."""


def _start_time(pid: int) -> Optional[str]:
    """The kernel's start tick of ``pid`` (None when it is gone), so a
    recycled pid is not mistaken for the process that was recorded."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Field 22, counted after the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[19]


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise LedgerError(f"no VmHWM for pid {pid}")


def check_no_leftovers(work_root: Path) -> None:
    """Fail loudly if an earlier run left a process behind; sweep the
    directories of runs whose processes are all gone."""
    if not work_root.is_dir():
        return
    for run_dir in sorted(work_root.glob("run-*")):
        pid_file = run_dir / _PID_FILE
        try:
            recorded = json.loads(pid_file.read_text())
        except (OSError, ValueError):
            recorded = {}
        alive = [f"{role} pid {pid}" for role, (pid, started)
                 in recorded.items() if _start_time(pid) == started]
        if alive:
            raise LeftoverProcessError(
                f"{run_dir} still has live processes ({', '.join(alive)}); "
                "stop them before measuring")
        shutil.rmtree(run_dir, ignore_errors=True)


class Stack:
    """A running fleet plus front end, and the harness's own client."""

    def __init__(self, records: Sequence[Any], *,
                 work_root: Path = DEFAULT_WORK_ROOT,
                 child_front_end: bool = True):
        self._records = list(records)
        self._work_root = work_root
        self._child_front_end = child_front_end
        self._dir: Optional[Path] = None
        self._supervisor: Any = None
        self._front: Optional[subprocess.Popen] = None
        #: The harness's own white-pages client: output checks, fleet
        #: reset, telemetry windows.  Never shared with a front end.
        self.db: Optional[ShardServiceClient] = None
        self.port = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Stack":
        check_no_leftovers(self._work_root)
        self._work_root.mkdir(parents=True, exist_ok=True)
        self._dir = Path(tempfile.mkdtemp(prefix="run-",
                                          dir=self._work_root))
        atexit.register(self.stop)
        try:
            self._record_pids()
            self._supervisor = build_shard_service(
                SHARDS, self._dir / "snapshots", records=self._records,
                wal="fsync")
            self._supervisor.start()
            self.db = ShardServiceClient(self._supervisor.endpoints)
            self._record_pids()
            if self._child_front_end:
                self.start_front_end()
        except BaseException:
            self.stop()
            raise
        return self

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        return list(self._supervisor.endpoints)

    def start_front_end(self) -> None:
        """Launch ``repro serve --shard-service`` on port 0 and read the
        bound port from its first (unbuffered) line."""
        spec = ",".join(f"{host}:{port}" for host, port in self.endpoints)
        env = dict(os.environ)
        # The child imports the same ``repro`` this process did.
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + [p for p in [env.get("PYTHONPATH")] if p])
        self._front = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--shard-service", spec, "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True)
        self._record_pids()
        ready, _, _ = select.select([self._front.stdout], [], [],
                                    _FRONT_START_TIMEOUT_S)
        line = self._front.stdout.readline() if ready else ""
        try:
            self.port = int(line.split(" on ", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop_front_end()
            raise FrontEndStartError(
                f"front end announced no port within "
                f"{_FRONT_START_TIMEOUT_S}s (first line: {line!r})"
            ) from None

    def stop_front_end(self) -> None:
        front, self._front = self._front, None
        if front is None:
            return
        front.terminate()
        try:
            front.wait(_FRONT_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            front.kill()
            front.wait(_FRONT_STOP_TIMEOUT_S)
        if front.stdout is not None:
            front.stdout.close()

    def reset_fleet(self) -> None:
        """Back to the seed records (cold rounds start from here)."""
        self.db.reset(self._records)

    async def restart(self) -> None:
        """A fresh front end over a fleet reset to the seed records."""
        self.stop_front_end()
        self.reset_fleet()
        self.start_front_end()

    def stop(self) -> None:
        """Stop everything this stack started; idempotent."""
        atexit.unregister(self.stop)
        self.stop_front_end()
        if self.db is not None:
            self.db.close()
            self.db = None
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    # -- observation ---------------------------------------------------------

    def _pids(self) -> Dict[str, int]:
        pids = {"harness": os.getpid()}
        if self.db is not None:
            for shard in self.db.health():
                pids[f"worker{shard['shard_index']}"] = int(shard["pid"])
        if self._front is not None:
            pids["front_end"] = self._front.pid
        return pids

    def _record_pids(self) -> None:
        recorded = {role: (pid, _start_time(pid))
                    for role, pid in self._pids().items()}
        (self._dir / _PID_FILE).write_text(json.dumps(recorded))

    def peak_rss_mb(self) -> float:
        """Sum of the high-water resident sets of the front end and the
        shard workers (the harness itself is not the system under test)."""
        return sum(_peak_rss_mb(pid) for role, pid in self._pids().items()
                   if role != "harness")
