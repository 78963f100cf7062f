"""Byte-identical JSON reports: each pinned run keeps its exit code and stdout.

tests/data/report_pins.json lists CLI command lines (run from the repo root)
with the exit code and the sha256 of the stdout they produced when recorded:
`certify --format json` on the six specs, a passing and a failing
`verify --format json`, and `brackets --format json` on an odd and a
permissive tuple.  A run whose "perturb" is [degree, group] goes through
conftest.perturb_derivation, so its derivation check reports a mismatch.
The file is only read here.
"""

import hashlib
import json
import shlex

import pytest

from conftest import DATA_DIR, REPO_ROOT, perturb_derivation, run_cli

PINS = json.loads((DATA_DIR / "report_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "pin", PINS, ids=[f"{p['argv']}{' perturbed' if p['perturb'] else ''}" for p in PINS]
)
def test_report_matches_pin(pin, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    if pin["perturb"]:
        perturb_derivation(monkeypatch, *pin["perturb"])
    code, out, err = run_cli(*shlex.split(pin["argv"]))
    assert code == pin["exit"], err
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]
