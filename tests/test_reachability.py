"""Structural guard: every module under ``src/repro/`` is reached.

A module earns its place by being imported, directly or transitively,
from something that runs: the CLI (``repro.cli``), a benchmark
(``benchmarks/**/*.py``) or an example (``examples/*.py``). Code that
only its own tests import fails tier-1 here instead of waiting for a
census in review.

The walk follows Python's import semantics statically with ``ast``:
``import a.b.c`` and ``from a.b import c`` both execute ``a`` and
``a.b`` (their ``__init__``), and the latter also ``a.b.c`` when that
names a module rather than an attribute. Imports inside functions
count: a lazily imported module is still reached. Only absolute
imports exist in the tree, and the walk refuses a relative one rather
than resolve it wrongly.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = "repro"


def _module_path(name: str) -> Path | None:
    """The file that ``import name`` executes, if it lives under ``src/``."""
    base = SRC.joinpath(*name.split("."))
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _imports(path: Path) -> Iterator[str]:
    """Every module name that executing ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            yield from _with_parents(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if alias.name != "*" and _module_path(name):
                    yield name


def _roots() -> Iterator[Path]:
    yield _module_path(f"{PACKAGE}.cli")
    yield from sorted((REPO / "benchmarks").rglob("*.py"))
    yield from sorted((REPO / "examples").glob("*.py"))


def reached() -> Set[str]:
    """Module names under ``src/`` reachable from the roots."""
    stack = list(_roots())
    seen = {_module_name(path) for path in stack if path.is_relative_to(SRC)}
    while stack:
        for name in _imports(stack.pop()):
            path = _module_path(name)
            if path is not None and name not in seen:
                seen.add(name)
                stack.append(path)
    return seen


def test_every_src_module_is_reached():
    every = {_module_name(path)
             for path in (SRC / PACKAGE).rglob("*.py")}
    unreached = sorted(every - reached())
    assert not unreached, (
        "modules under src/ that no CLI verb, benchmark or example "
        "imports (wire them in or delete them with their tests): "
        + ", ".join(unreached))


def test_walk_follows_python_import_semantics(tmp_path):
    script = tmp_path / "root.py"
    script.write_text(
        "import repro.net.latency\n"
        "from repro.core import resource_pool, build_service\n"
        "def lazy():\n"
        "    from repro.sim import kernel\n",
        encoding="utf-8")
    assert set(_imports(script)) == {
        "repro", "repro.net", "repro.net.latency",
        "repro.core", "repro.core.resource_pool",
        "repro.sim", "repro.sim.kernel",
    }
