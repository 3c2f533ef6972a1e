"""Byte-level regression guard for the CLI.

`golden_cli.json` holds, for a fixed set of fast commands, the exit code
and the sha256 of everything the command prints to stdout.  Any change to
a basis, a decomposition, a degree multiset, a certificate field or the
report layout shows up as a digest mismatch.  Commands run in process from
the repository root, so the finite-group files are found by relative path.

Run as a script, it prints the stdout of every case whose exit code or
digest differs from the file, so a change can be read rather than
trusted; ``--write`` then records the current digests:

    PYTHONPATH=src python tests/test_golden_cli.py [--write]

Running it in a checkout of an earlier commit, with this golden file
copied in, prints the old stdout of the same cases for a diff.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from classinv.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


def run_case(case) -> tuple[int, str]:
    """(exit code, stdout) of one case, run from the repository root.

    argparse wraps ``--help`` to the terminal width, so the width is
    pinned at 80 columns for the call."""
    out = io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        code = main(list(case["argv"]))
    return code, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: c["name"])
def test_stdout_digest_and_exit_code(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, stdout = run_case(case)
    assert code == case["exit"]
    assert digest(stdout) == case["sha256"]


def regenerate(write: bool) -> None:
    """Print every case that differs from the golden file; with write,
    record the current exit codes and digests."""
    os.chdir(ROOT)
    current, changed = [], 0
    for case in GOLDEN:
        code, stdout = run_case(case)
        if (code, digest(stdout)) != (case["exit"], case["sha256"]):
            changed += 1
            print(f"=== {case['name']} (exit {code})")
            print(stdout, end="")
        current.append({**case, "exit": code, "sha256": digest(stdout)})
    print(f"{changed} of {len(GOLDEN)} cases differ", file=sys.stderr)
    if write and changed:
        text = "[\n" + ",\n".join(json.dumps(c) for c in current) + "\n]\n"
        Path(__file__).with_name("golden_cli.json").write_text(text)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="show, and optionally record, golden CLI changes")
    parser.add_argument("--write", action="store_true", help="rewrite golden_cli.json")
    regenerate(parser.parse_args().write)
