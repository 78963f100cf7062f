"""Byte-identical CLI output: every recorded call keeps its exit code and stdout.

perfbench/golden.json maps a CLI command line (run from the repo root) to
the exit code and the sha256 of the stdout it produced when recorded.  The
file is only read here.
"""

import contextlib
import hashlib
import io
import json
import shlex

import pytest

from conftest import REPO_ROOT

GOLDEN = json.loads((REPO_ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_matches_golden(command, monkeypatch):
    from recint.cli import main

    monkeypatch.chdir(REPO_ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    expected = GOLDEN[command]
    assert code == expected["exit"], err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected["sha256"]
