"""The scripts under scripts/ run to completion at small sizes."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

RUNS = {
    "denominator_scan.py": ["--n", "10"],
    "identity_suite.py": ["--order", "8", "--n", "6"],
    "bracket_survey.py": ["--bound", "3", "--bound3", "2"],
}


@pytest.mark.parametrize("script", RUNS)
def test_script_runs(script):
    path = filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), *RUNS[script]],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
