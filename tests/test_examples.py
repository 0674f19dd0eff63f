"""Smoke test: the shipped examples run to completion.

The examples are roots of the reachability census
(``tests/test_reachability.py``): code they import stays because they
run it, so they must keep running. ``run_all_figures`` is left out — it
takes tens of seconds and ``benchmarks/test_fig*.py`` drive the same
figure experiments; ``live_resharding`` and ``observability_tour`` take
size flags and have their own smoke tests in ``test_resharding`` and
``test_telemetry``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("example", [
    "quickstart",
    "classroom_burst",
    "interop_classads",
    "adaptive_reaggregation",
    "live_asyncio_demo",
    "wan_federation",
])
def test_example_runs(tmp_path, example):
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{example}.py")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "HOME": str(tmp_path)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
