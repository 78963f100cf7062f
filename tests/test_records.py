"""The record classes and what a recint process imports at start-up.

The records are plain __slots__ classes.  Those that src/ or the tests
compare have value equality (and VarSet, a dict key, a matching hash); the
rest compare by identity.  Start-up imports neither dataclasses (with
inspect), hashlib nor typing: spec_hash imports hashlib when it first runs.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import REPO_ROOT, SPECS_DIR

from recint.multipoly import DenomProfile, MultiPoly, VarSet
from recint.reclang import ParamSeq, RecurrenceSpec
from recint.series import IdentityReport

#: spec_hash of specs/wseq.spec: the sha256 of its canonical printed text.
WSEQ_HASH = "ba07e3413d0bece6b40a7ddb10a0c5f36720b4f8f378f33a80a5a1d8c224191e"

STARTUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import recint, recint.cli
loaded = [m for m in ("dataclasses", "inspect", "hashlib", "typing") if m in sys.modules]
from recint.reclang import parse_spec, spec_hash
with open(sys.argv[2], encoding="utf-8") as fh:
    digest = spec_hash(parse_spec(fh.read()))
print(json.dumps({"loaded": loaded, "digest": digest}))
"""


def test_startup_imports_no_dataclasses_hashlib_or_typing():
    # -S: without site, whose .pth files may import typing before recint runs
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP, str(REPO_ROOT / "src"), str(SPECS_DIR / "wseq.spec")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert result["digest"] == WSEQ_HASH


class TestVarSetValue:
    def test_equal_names_are_one_key(self):
        a, b = VarSet.of("b", "c"), VarSet.of("b", "c")
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1, b: 2} == {a: 2}

    def test_different_names_differ(self):
        bc = VarSet.of("b", "c")
        assert bc != VarSet.of("c", "b")
        assert bc != VarSet.of("b")
        assert bc != ("b", "c")


def _spec(lead_power: int) -> RecurrenceSpec:
    vs = VarSet.of("b", "n")
    return RecurrenceSpec(("b",), "f", lead_power, (MultiPoly.variable(vs, "n"),))


def _seq(den: int) -> ParamSeq:
    vs = VarSet.of("b")
    return ParamSeq(vs, [MultiPoly.one(vs), MultiPoly.const(vs, Fraction(1, den))])


@pytest.mark.parametrize(
    "make, same, other",
    [(lambda a: DenomProfile(a, True, 3), 8, 4), (_spec, 1, 2), (_seq, 2, 3)],
    ids=["DenomProfile", "RecurrenceSpec", "ParamSeq"],
)
def test_records_compare_by_value(make, same, other):
    assert make(same) == make(same)
    assert make(same) != make(other)
    assert make(same) != object()


def test_identity_report_fields_stay_assignable():
    report = IdentityReport("derivation", 8, True)
    assert (report.first_mismatch, report.note) == (None, "")
    report.note = "k in {0, 1, 2} on the base series"
    assert report.to_dict()["note"] == "k in {0, 1, 2} on the base series"
