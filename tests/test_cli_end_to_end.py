"""End-to-end CLI test: serve in a subprocess, query via the CLI client."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def fleet_file(tmp_path):
    out = tmp_path / "fleet.json"
    assert main(["fleet", "--size", "64", "--out", str(out)]) == 0
    return out


def test_serve_and_query_over_real_sockets(fleet_file):
    """Spawn `repro.cli serve` as a real subprocess and query it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--fleet", str(fleet_file), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        # The serve command prints "ActYP service on host:port (...)".
        line = proc.stdout.readline()
        assert "ActYP service on" in line, line
        port = int(line.split(":")[1].split(" ")[0])

        rc = main(["query", "punch.rsrc.arch = sun", "--port", str(port),
                   "--release"])
        assert rc == 0

        # An unsatisfiable query exits non-zero but doesn't crash.
        rc = main(["query", "punch.rsrc.arch = cray", "--port", str(port)])
        assert rc == 1
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()


def test_query_output_is_json(fleet_file, capsys):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--fleet", str(fleet_file), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        line = proc.stdout.readline()
        port = int(line.split(":")[1].split(" ")[0])
        rc = main(["query", "punch.rsrc.arch = sun", "--port", str(port),
                   "--release"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out.split("\nreleased")[0])
        assert payload["ok"] is True
        assert payload["allocation"]["machine_name"].startswith("sun")
    finally:
        proc.terminate()
        proc.wait(timeout=10)



#: case -> (file contents, or None for no file; the error line's start).
_BAD_FLEETS = {
    "not_json": ("this is not json",
                 "DatabaseError: invalid database JSON"),
    "retired_snapshot": (json.dumps({"format": "repro.whitepages",
                                     "version": 2, "machines": []}),
                         "DatabaseError: unsupported snapshot version"),
    "v4_snapshot": (json.dumps({"format": "repro.whitepages",
                                "version": 4, "machines": []}),
                    "DatabaseError: unsupported snapshot version 4"),
    "missing": (None, "FileNotFoundError"),
}


@pytest.mark.parametrize("command", ["serve", "shard-serve"])
@pytest.mark.parametrize("case", sorted(_BAD_FLEETS))
def test_bad_fleet_file_is_one_error_line(tmp_path, capsys, command, case):
    """A fleet file the CLI cannot load exits 1 with one named error
    line, not a Python traceback."""
    contents, error = _BAD_FLEETS[case]
    fleet = tmp_path / "fleet.json"
    if contents is not None:
        fleet.write_text(contents, encoding="utf-8")
    extra = (["--snapshot-dir", str(tmp_path / "shards")]
             if command == "shard-serve" else ["--port", "0"])
    assert main([command, "--fleet", str(fleet), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"repro: error: {error}")
    assert err.count("\n") == 1
