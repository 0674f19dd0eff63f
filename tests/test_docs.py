"""Doc-smoke: the runbook and architecture notes cannot drift.

Three guarantees over ``docs/*.md`` + ``ARCHITECTURE.md`` (the CI
``docs`` job runs this file):

- every relative markdown link resolves to a real file;
- every repo path mentioned in inline code (``tests/foo.py`` style)
  exists, so renames cannot orphan the prose;
- every ``python -m repro.cli ...`` / ``repro ...`` command in a fenced
  block parses against the *real* CLI parser, and every ``repro
  <verb>`` mention in prose names a real subcommand — the runbook's
  copy-pasteable promise.

Plus a mirror of the ruff D101/D102/D103 selection (scoped in
ruff.toml to the operator-facing service layer) so the docstring
contract is enforced by tier-1 even where ruff is not installed.
"""

from __future__ import annotations

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "ARCHITECTURE.md"]

# Inline code that looks like a repo path: has a slash, a known suffix,
# and no placeholder metacharacters (`shard_<i>.wal` is a pattern, not
# a path).  ARCHITECTURE.md abbreviates package paths (`database/wal.py`
# for `src/repro/database/wal.py`), so both roots are tried.
_PATH_SUFFIXES = (".py", ".md", ".json", ".toml", ".yml", ".yaml")
_PLACEHOLDER = re.compile(r"[<>*{}\s]")

_LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
_INLINE_CODE = re.compile(r"`([^`]+)`")
_FENCE = re.compile(r"^```")


def _doc_ids():
    return [str(p.relative_to(REPO)) for p in DOC_FILES]


@pytest.fixture(scope="module")
def parser():
    return build_parser()


@pytest.fixture(scope="module")
def cli_verbs(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("CLI parser has no subcommands")


def _fenced_blocks(text: str):
    """Yield the body lines of each fenced code block."""
    lines = text.splitlines()
    block, inside = [], False
    for line in lines:
        if _FENCE.match(line.strip()):
            if inside:
                yield block
                block = []
            inside = not inside
            continue
        if inside:
            block.append(line)


def _commands(text: str):
    """CLI invocations in fenced blocks, continuations joined."""
    for block in _fenced_blocks(text):
        joined, pending = [], ""
        for line in block:
            pending += line.rstrip()
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            joined.append(pending.strip())
            pending = ""
        for line in joined:
            if line.startswith("python -m repro.cli "):
                yield line, line[len("python -m repro.cli "):]
            elif line.startswith("repro "):
                yield line, line[len("repro "):]


class TestDocLinks:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
    def test_relative_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            target = target.split("#", 1)[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc.parent / target).resolve()
            assert resolved.exists(), \
                f"{doc.name}: broken link -> {target}"

    @pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
    def test_mentioned_repo_paths_exist(self, doc):
        text = doc.read_text(encoding="utf-8")
        missing = []
        for code in _INLINE_CODE.findall(text):
            if "/" not in code or _PLACEHOLDER.search(code):
                continue
            candidate = code.split("::", 1)[0].rstrip("/")
            if not candidate.endswith(_PATH_SUFFIXES):
                continue
            if not ((REPO / candidate).exists()
                    or (REPO / "src" / "repro" / candidate).exists()):
                missing.append(code)
        assert not missing, f"{doc.name}: paths not in repo: {missing}"


class TestDocCommands:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
    def test_fenced_cli_commands_parse(self, doc, parser):
        text = doc.read_text(encoding="utf-8")
        checked = 0
        for shown, argv_text in _commands(text):
            argv = shlex.split(argv_text)
            try:
                parser.parse_args(argv)
            except SystemExit as exc:  # argparse reports via exit(2)
                raise AssertionError(
                    f"{doc.name}: command does not parse: {shown}") from exc
            checked += 1
        if doc.name == "OPERATIONS.md":
            assert checked >= 5, "runbook lost its worked commands"

    @pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
    def test_prose_verbs_exist(self, doc, cli_verbs):
        text = doc.read_text(encoding="utf-8")
        bogus = []
        for code in _INLINE_CODE.findall(text):
            match = re.match(r"(?:python -m repro\.cli|repro) ([a-z][a-z-]*)",
                             code)
            if match and match.group(1) not in cli_verbs:
                bogus.append(code)
        assert not bogus, f"{doc.name}: unknown CLI verbs: {bogus}"


class TestServiceLayerDocstrings:
    """Mirror of the ruff D-rule scoping: every public class/function/
    method in the operator-facing modules carries a docstring."""

    ENFORCED = (
        "src/repro/runtime/shard_worker.py",
        "src/repro/runtime/verbs.py",
        "src/repro/database/service.py",
        "src/repro/database/resharding.py",
        "src/repro/obs/telemetry.py",
        "src/repro/obs/tracing.py",
        "src/repro/obs/logconfig.py",
    )

    @pytest.mark.parametrize("rel", ENFORCED)
    def test_public_api_documented(self, rel):
        tree = ast.parse((REPO / rel).read_text(encoding="utf-8"))
        missing = []

        def walk(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    if (not child.name.startswith("_")
                            and not ast.get_docstring(child)):
                        missing.append(f"{child.name}:{child.lineno}")
                    walk(child)

        walk(tree)
        assert not missing, f"{rel}: undocumented public API: {missing}"
