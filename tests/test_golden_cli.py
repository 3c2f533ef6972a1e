"""Byte-level regression guard for the CLI.

`golden_cli.json` holds, for a fixed set of fast commands, the exit code
and the sha256 of everything the command prints to stdout.  Any change to
a basis, a decomposition, a degree multiset, a certificate field or the
report layout shows up as a digest mismatch.  Commands run in process from
the repository root, so the finite-group files are found by relative path.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from classinv.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: c["name"])
def test_stdout_digest_and_exit_code(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["sha256"]
