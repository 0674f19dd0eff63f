"""Structural guard: the wire has one server core and one async client.

``asyncio.start_server`` and ``asyncio.open_connection`` may each be
called from exactly one module under ``src/``, so a fourth hand-rolled
accept loop or dial fails tier-1 instead of waiting for a review.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _callers(function: str):
    """Modules under ``src/`` that call ``asyncio.<function>``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == function
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "asyncio"
               for node in ast.walk(tree)):
            found.append(str(path.relative_to(SRC)))
    return found


@pytest.mark.parametrize("function, home", [
    ("start_server", "repro/runtime/protocol.py"),
    ("open_connection", "repro/runtime/client.py"),
])
def test_one_module_touches_the_socket_api(function, home):
    assert _callers(function) == [home]
