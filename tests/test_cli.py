"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    DATA_DIR,
    REPO_ROOT,
    SPECS_DIR,
    derivation_lhs_by_products,
    digits_value,
    forbid_unpacking,
    perturb_derivation,
    run_cli,
)
from recint import cli, series
from recint.multipoly import MAX_COEF_BITS, MAX_DEGREE, MAX_ORDER, UPoly, _decimal
from recint.scalars import factorial
from recint.reclang import parse_poly_list, parse_spec

USEQ = str(SPECS_DIR / "useq.spec")
WSEQ = str(SPECS_DIR / "wseq.spec")
APERY = str(SPECS_DIR / "apery.spec")

U3_TEXT = "-20*b^3 + 160*b^2 + 12*b*c - 240*b - 40*c"


class TestGen:
    def test_table_output(self):
        code, out, err = run_cli("gen", "--spec", USEQ, "--n", "3")
        assert code == 0
        assert err == ""
        assert U3_TEXT in out
        assert out.splitlines()[0].split() == ["n", "poly", "denominator", "v2_defect"]

    def test_n_zero_single_row(self):
        code, out, _ = run_cli("gen", "--spec", USEQ, "--n", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + one record

    def test_csv_format(self):
        code, out, _ = run_cli("gen", "--spec", USEQ, "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,poly,denominator,v2_defect"
        assert len(lines) == 4

    def test_json_format(self):
        code, out, _ = run_cli("gen", "--spec", WSEQ, "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["records"][2]["poly"] == "1/2*b^2 - b"

    def test_malformed_spec_is_usage_error(self):
        code, out, err = run_cli("gen", "--spec", str(DATA_DIR / "malformed.spec"))
        assert code == 2
        assert out == ""
        assert "malformed.spec" in err

    def test_spec_cut_off_is_end_of_input(self, tmp_path):
        spec = tmp_path / "cut.spec"
        spec.write_text("ring b c;\nseq w;\nrec: n*w[n] = (b +")
        code, out, err = run_cli("gen", "--spec", str(spec))
        assert (code, out) == (2, "")
        assert err == f"recint: {spec}: line 3, col 19: unexpected end of input\n"

    def test_missing_file_is_io_error(self):
        code, _, err = run_cli("gen", "--spec", str(DATA_DIR / "no-such.spec"))
        assert code == 3
        assert "cannot read" in err

    def test_negative_n_rejected(self):
        code, _, err = run_cli("gen", "--spec", USEQ, "--n", "-1")
        assert code == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize("command", ["gen", "certify", "expand"])
    def test_zero_right_side_is_usage_error(self, command, tmp_path):
        spec = tmp_path / "zero.spec"
        spec.write_text("seq a;\nrec: n*a[n] = a[n-1] - a[n-1];\n")
        code, out, err = run_cli(command, "--spec", str(spec))
        assert (code, out) == (2, "")
        assert "line 2, col 1: right side has no sequence references" in err


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ("id3", "--order", "8"),
            ("r2", "--order", "8"),
            ("hg-c0", "--order", "6"),
            ("clausen", "--order", "6"),
            ("bin", "--n", "5"),
            ("inv", "--n", "5"),
            ("conv", "--n", "4"),
            ("ode-g", "--order", "8"),
            ("ode-G", "--order", "8"),
            ("derivation", "--order", "6"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_identity_passes(self, argv):
        code, out, err = run_cli("verify", *argv)
        assert code == 0, err
        assert "PASS" in out

    def test_unknown_identity_is_usage_error(self):
        code, _, err = run_cli("verify", "no-such-identity")
        assert code == 2
        assert "invalid choice" in err

    def test_json_report(self):
        code, out, _ = run_cli("verify", "id3", "--order", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] == "id3"
        assert doc["passed"] is True
        assert doc["order"] == 6

    def test_mismatch_exits_1(self, monkeypatch):
        failing = series.IdentityReport("id3", 6, False, (4, "b^2", "2*c"))
        monkeypatch.setattr(series, "verify_id3", lambda order: failing)
        code, out, err = run_cli("verify", "id3", "--order", "6")
        assert (code, err) == (1, "")
        assert out == "id3: FAIL (order 6)\n  first mismatch at degree 4:\n    lhs = b^2\n    rhs = 2*c\n"
        code, out, err = run_cli("verify", "id3", "--order", "6", "--format", "json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["first_mismatch"] == {"degree": 4, "lhs": "b^2", "rhs": "2*c"}

    def test_derivation_mismatch_exits_1(self, monkeypatch):
        # the k = 2 right side gains 1 in degree 7: k = 1 and k = 0 pass, so
        # the k = 2 mismatch is the one printed
        lhs = derivation_lhs_by_products(series.base_series(20), 2, 7)
        rhs = lhs + Fraction(7, 2)
        perturb_derivation(monkeypatch, degree=7, group=5)
        code, out, err = run_cli("verify", "derivation", "--order", "20")
        assert (code, err) == (1, "")
        assert out == (
            "derivation: FAIL (order 20) [k in {0, 1, 2} on the base series]\n"
            f"  first mismatch at degree 7:\n    lhs = {lhs.text()}\n    rhs = {rhs.text()}\n"
        )

    @pytest.mark.parametrize("flags", [("--order", "40", "--n", "5"), ("--n", "5", "--order", "5")])
    def test_n_and_order_together_is_usage_error(self, flags):
        code, out, err = run_cli("verify", "id3", *flags)
        assert (code, out) == (2, "")
        assert err == "recint: verify takes --n or --order, not both\n"

    def test_readme_lists_every_identity_in_order(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("Identity names accepted by `verify`:")[1].split("\n\n")[1]
        assert re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE) == list(cli.IDENTITIES)


class TestBrackets:
    def test_single_variable_table(self):
        code, out, _ = run_cli("brackets", "t", "--n", "4")
        assert code == 0
        assert "35/128" in out
        assert "certified: true" in out

    def test_even_tuple_rejected_by_default(self):
        code, _, err = run_cli("brackets", "t^2")
        assert code == 2
        assert "odd" in err

    def test_even_tuple_allowed_permissively(self):
        # all values stay power-of-two; only the structural parity check fails
        code, out, _ = run_cli("brackets", "t^2", "--n", "6", "--permissive")
        assert code == 0
        assert "certified: false" in out
        assert "all_pow2: true" in out

    def test_inexact_division_is_a_violation(self):
        code, out, _ = run_cli("brackets", "t^2+1", "--n", "4", "--permissive")
        assert code == 1
        assert "inexact_at" in out

    def test_bad_tuple_syntax(self):
        code, _, err = run_cli("brackets", "t^", "--n", "2")
        assert code == 2
        assert "tuple" in err

    def test_tuple_cut_off_is_end_of_input(self):
        code, out, err = run_cli("brackets", "t, ", "--n", "2")
        assert (code, out) == (2, "")
        assert err == "recint: tuple: line 1, col 4: unexpected end of input\n"


class TestCertify:
    def test_fully_integral_spec(self):
        code, out, _ = run_cli("certify", "--spec", USEQ, "--n", "20")
        assert code == 0
        assert "in_ring=True" in out

    def test_denominator_growth_is_not_critical(self):
        code, out, _ = run_cli("certify", "--spec", WSEQ, "--n", "20", "--format", "json")
        assert code == 0  # no guarantee applies, so nothing is contradicted
        doc = json.loads(out)
        assert doc["dn_scaled_integral"] is False
        assert doc["in_ring"] is False
        assert doc["critical"] is False

    def test_csv_per_term(self):
        code, out, _ = run_cli("certify", "--spec", APERY, "--n", "3", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[0] == "n,denominator,v2_defect"


class TestExpand:
    def test_expansion_matches_recurrence(self):
        code, out, _ = run_cli("expand", "--spec", USEQ, "--n", "4")
        assert code == 0
        assert "match: true" in out

    def test_even_part_blocks_expansion(self):
        code, _, err = run_cli("expand", "--spec", WSEQ, "--n", "2")
        assert code == 2
        assert "odd form not applicable" in err

    def test_plain_pipeline_blocks_expansion(self):
        code, _, err = run_cli("expand", "--spec", APERY, "--n", "2")
        assert code == 2
        assert "n^3" in err

    def test_long_bracket_values_print(self, tmp_path):
        # p_1(t) = (2t)^999, so v[8] = prod (2k-1)^999 / 8! is 2^7992 times the
        # one bracket, whose numerator has 6,299 digits
        spec = tmp_path / "wide.spec"
        spec.write_text("ring b;\nseq v;\nrec: n*v[n] = (2*n - 1)^999*v[n-1];\n")
        expected = Fraction(
            math.prod((2 * k - 1) ** 999 for k in range(1, 9)), factorial(8) * 2**7992
        )
        code, out, err = run_cli("expand", "--spec", str(spec), "--n", "8", "--format", "json")
        assert (code, err) == (0, "")
        (record,) = json.loads(out)["records"]
        num, den = record["bracket"].split("/")
        assert len(num) > 4300
        assert (digits_value(num), digits_value(den)) == (expected.numerator, expected.denominator)


class TestRingVariableT:
    """A ring variable named t: the odd form's indeterminate takes a free name."""

    @pytest.mark.parametrize("ring", ["t", "t t_"])
    def test_certify_reports_the_offender(self, ring, tmp_path):
        spec = tmp_path / "t.spec"
        spec.write_text(f"ring {ring};\nseq v;\nrec: n*v[n] = t*n*v[n-1];\n")
        code, out, err = run_cli("certify", "--spec", str(spec), "--n", "4", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["offenders"] == [{"i": 1, "even_part": "1/2*t"}]

    @pytest.mark.parametrize("ring", ["t", "t t_"])
    def test_expand_is_not_applicable(self, ring, tmp_path):
        spec = tmp_path / "t.spec"
        spec.write_text(f"ring {ring};\nseq v;\nrec: n*v[n] = t*n*v[n-1];\n")
        code, out, err = run_cli("expand", "--spec", str(spec), "--n", "4")
        assert (code, out) == (2, "")
        assert err == "recint: odd form not applicable: p_1 has even part 1/2*t\n"


class TestOutput:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "terms.json"
        code, out, _ = run_cli(
            "gen", "--spec", USEQ, "--n", "2", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["records"][0]["poly"] == "1"

    def test_unwritable_out_is_io_error(self):
        code, _, err = run_cli(
            "gen", "--spec", USEQ, "--n", "1", "--out", "/no-such-dir/sub/x.json"
        )
        assert code == 3
        assert "cannot write" in err

    def test_runs_are_byte_identical(self):
        first = run_cli("certify", "--spec", WSEQ, "--n", "10", "--format", "json")
        second = run_cli("certify", "--spec", WSEQ, "--n", "10", "--format", "json")
        assert first == second

    def test_output_unpacks_no_kept_polynomial(self, monkeypatch):
        # text(), the bracket checks and the expansion read kernel results
        # on their packed keys and unpack none
        calls = (
            ("gen", "--spec", WSEQ, "--format", "json"),
            ("brackets", "t^5, t^3, t", "--n", "6", "--format", "json"),
            ("expand", "--spec", USEQ, "--n", "8"),
        )
        expected = [run_cli(*argv) for argv in calls]
        forbid_unpacking(monkeypatch)
        for argv, before in zip(calls, expected):
            assert run_cli(*argv) == before
            assert before[0] == 0


    def test_brackets_and_operators_build_no_upoly(self, monkeypatch):
        # the bracket tuples and the pinned operators keep plain MultiPolys
        calls = (
            ("brackets", "t^5, t^3, t", "--n", "6", "--format", "json"),
            ("verify", "ode-g", "--order", "8"),
            ("verify", "ode-G", "--order", "8"),
        )
        expected = [run_cli(*argv) for argv in calls]

        def built(self, *args):
            raise AssertionError("a UPoly was built")

        monkeypatch.setattr(UPoly, "__init__", built)
        for argv, before in zip(calls, expected):
            assert run_cli(*argv) == before
            assert before[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "recint.cli", "gen", "--spec", USEQ, "--n", "1"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "poly" in proc.stdout


class TestNestingLimit:
    """Input nested past MAX_NESTING is a parse error (exit 2), not a crash."""

    DEEP_PARENS = "(" * 3000 + "{x}" + ")" * 3000
    DEEP_MINUS = "-" * 3000 + "{x}"

    @pytest.mark.parametrize("shape", [DEEP_PARENS, DEEP_MINUS], ids=["parens", "minus"])
    def test_brackets_tuple(self, shape):
        # "--" so that a leading minus reaches the tuple parser, not argparse
        code, out, err = run_cli("brackets", "--", shape.format(x="t"))
        assert code == 2
        assert out == ""
        assert "nested deeper than" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("shape", [DEEP_PARENS, DEEP_MINUS], ids=["parens", "minus"])
    def test_spec_file(self, shape, tmp_path):
        spec = tmp_path / "deep.spec"
        spec.write_text(f"seq w;\nrec: n*w[n] = {shape.format(x='w[n-1]')};\n")
        for command in ("gen", "certify", "expand"):
            code, out, err = run_cli(command, "--spec", str(spec))
            assert code == 2
            assert out == ""
            assert "nested deeper than" in err
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1

    def test_subprocess_has_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "recint.cli", "brackets", self.DEEP_PARENS.format(x="t")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_nesting_at_the_limit_still_parses(self):
        from recint.multipoly import MAX_NESTING

        depth = MAX_NESTING // 2  # half parentheses, half signs
        tuple_text = "-" * depth + "(" * depth + "t" + ")" * depth
        code, out, err = run_cli("brackets", "--n", "2", "--", tuple_text)
        assert code == 0, err
        code, _, err = run_cli("brackets", "--n", "2", "--", "-" + tuple_text)
        assert code == 2
        assert "nested deeper than" in err


class TestDegreeLimit:
    """Exponents, degrees, lags and leading powers past MAX_DEGREE are parse
    errors (exit 2), caught before a power or product of that size is built."""

    D = MAX_DEGREE

    @pytest.mark.parametrize(
        "text",
        [f"t^{D + 1}", f"t^{D} * t", f"(t^2)^{D // 2 + 1}", f"t, t^{D + 1}"],
        ids=["exponent", "product", "power", "second"],
    )
    def test_brackets_tuple(self, text):
        code, out, err = run_cli("brackets", "--", text)
        assert code == 2
        assert out == ""
        assert f"exceeds the limit {MAX_DEGREE}" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "rec",
        [
            f"n*w[n] = w[n-{D + 1}]",
            f"n^{D + 1}*w[n] = w[n-1]",
            f"n*w[n] = n^{D + 1}*w[n-1]",
            f"n*w[n] = b^{D}*n*w[n-1]",
        ],
        ids=["lag", "lead-power", "exponent", "product"],
    )
    def test_spec_file(self, rec, tmp_path):
        spec = tmp_path / "big.spec"
        spec.write_text(f"ring b;\nseq w;\nrec: {rec};\n")
        for command in ("gen", "certify", "expand"):
            code, out, err = run_cli(command, "--spec", str(spec))
            assert code == 2
            assert out == ""
            assert f"exceeds the limit {MAX_DEGREE}" in err
            assert len(err.strip().splitlines()) == 1

    def test_at_the_limit_still_parses(self):
        (p,) = parse_poly_list(f"t^{self.D}", ("t",))
        assert p.total_degree() == self.D
        spec = parse_spec(f"seq w;\nrec: n^{self.D}*w[n] = w[n-{self.D}];\n")
        assert (spec.lead_power, spec.order) == (self.D, self.D)

    def test_overlong_integer_literal(self):
        # longer than int() converts from a string: a parse error, not a ValueError
        for text in ("t^" + "9" * 5000, "9" * 5000 + "*t"):
            code, _, err = run_cli("brackets", "--", text)
            assert code == 2
            assert "integer literal too long" in err


class TestCoefficientLimit:
    """Powers and products whose coefficient bound passes MAX_COEF_BITS are
    parse errors (exit 2), caught before the number is built.  The bound of
    p^k is k * bit_length(|p|), and of p * q bit_length(|p|) + bit_length(|q|),
    where |p| is the sum of the absolute values of p's coefficients."""

    # bounds: 2381 bits * 42 = 100,002 for the power; in the product,
    # t * 2^50000 * 2^49000 is 2^99000 t (99,001 bits), and 99,001 + 1,000
    # (the bits of 2^999) = 100,001
    POWER = f"({2**2380})^42*t"
    PRODUCT = "t*(2^50)^1000*(2^49)^1000*2^999"

    def test_cases_are_sized_for_the_limit(self):
        assert MAX_COEF_BITS == 100_000

    @pytest.mark.parametrize(
        "text", [POWER, PRODUCT, f"t, {PRODUCT}"], ids=["power", "product", "second"]
    )
    def test_brackets_tuple(self, text):
        code, out, err = run_cli("brackets", "--permissive", "--n", "0", "--", text)
        assert code == 2
        assert out == ""
        assert f"exceed the limit {MAX_COEF_BITS}" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "rhs", [f"({2**2380})^42*b", "b*(2^50)^1000*(2^49)^1000*2^999"], ids=["power", "product"]
    )
    def test_spec_file(self, rhs, tmp_path):
        spec = tmp_path / "big.spec"
        spec.write_text(f"ring b;\nseq w;\nrec: n*w[n] = {rhs}*w[n-1];\n")
        for command in ("gen", "certify", "expand"):
            code, out, err = run_cli(command, "--spec", str(spec))
            assert code == 2
            assert out == ""
            assert f"exceed the limit {MAX_COEF_BITS}" in err

    def test_at_the_limit_still_parses(self):
        # bounds exactly at the limit: 2500 bits * 40, and 99,001 + 999
        (p,) = parse_poly_list(f"({2**2499})^40*t", ("t",))
        assert p.num == {(1,): 2**99960}
        (p,) = parse_poly_list("t*(2^50)^1000*(2^49)^1000*2^998", ("t",))
        assert p.num == {(1,): 2**99998}

    def test_long_coefficients_print(self, tmp_path):
        # a[5] = 10^5000 has more digits than str() converts by default
        spec = tmp_path / "tens.spec"
        spec.write_text("seq a;\nrec: n*a[n] = 10^1000*n*a[n-1];\n")
        code, out, err = run_cli("gen", "--spec", str(spec), "--n", "5", "--format", "csv")
        assert (code, err) == (0, "")
        last = out.splitlines()[-1].split(",")
        assert last[:2] == ["5", "1" + "0" * 5000]

    def test_apery_to_3000(self):
        code, out, err = run_cli("gen", "--spec", APERY, "--n", "3000", "--format", "csv")
        assert (code, err) == (0, "")
        a = [1, 5]
        for n in range(2, 3001):
            a.append(((2 * n - 1) * (17 * n * n - 17 * n + 5) * a[-1] - (n - 1) ** 3 * a[-2]) // n**3)
        n, poly, den, _ = out.splitlines()[-1].split(",")
        assert (n, den) == ("3000", "1")
        assert len(poly) > 4300 and digits_value(poly) == a[3000]


class TestDivision:
    """Spec files and tuples divide only by a nonzero constant."""

    @pytest.mark.parametrize(
        "rhs", ["w[n-1]/b", "w[n-1]/0", "w[n-1]/(1-1)", "2/w[n-1]"],
        ids=["variable", "zero", "zero-sum", "reference"],
    )
    def test_other_divisors_are_parse_errors(self, rhs, tmp_path):
        spec = tmp_path / "div.spec"
        spec.write_text(f"ring b;\nseq w;\nrec: n*w[n] = {rhs};\n")
        code, out, err = run_cli("gen", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert "division only by a nonzero constant" in err
        assert len(err.strip().splitlines()) == 1

    def test_division_by_a_constant(self, tmp_path):
        spec = tmp_path / "half.spec"
        spec.write_text("seq w;\nrec: n*w[n] = w[n-1]/2;\n")
        code, out, err = run_cli("gen", "--spec", str(spec), "--n", "2", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("2,1/8,8,")
        code, out, _ = run_cli("brackets", "6*t/2", "--n", "1")
        assert code == 0
        assert "tuple: 3*t\n" in out
        code, _, err = run_cli("brackets", "t/2", "--n", "1")
        assert code == 2
        assert "non-integer coefficient" in err


class TestLongDenominators:
    """Denominators too long for str() reach every output format as digits.

    n*a[n] = a[n-1] gives a[n] = 1/n!, and 1700! has 4,756 digits, more than
    the interpreter converts by default."""

    N = 1700
    DEN = _decimal(factorial(N))

    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fac") / "fac.spec"
        path.write_text("seq a;\nrec: n*a[n] = a[n-1];\n")
        return str(path)

    def test_case_is_past_the_str_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert len(self.DEN) == 4756
        assert limit == 0 or len(self.DEN) > limit

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_gen_text(self, spec, fmt):
        code, out, err = run_cli("gen", "--spec", spec, "--n", str(self.N), "--format", fmt)
        assert (code, err) == (0, "")
        last = out.splitlines()[-1]
        fields = last.split(",") if fmt == "csv" else last.split()
        assert fields[:3] == [str(self.N), f"1/{self.DEN}", self.DEN]

    def test_gen_json(self, spec):
        code, out, err = run_cli("gen", "--spec", spec, "--n", str(self.N), "--format", "json")
        assert (code, err) == (0, "")
        records = json.loads(out, parse_int=str)["records"]
        assert records[-1]["n"] == str(self.N)
        assert records[-1]["denominator"] == self.DEN
        assert records[10]["denominator"] == "3628800"

    def test_certify_table(self, spec):
        code, out, err = run_cli("certify", "--spec", spec, "--n", str(self.N))
        assert (code, err) == (0, "")
        rows = out.splitlines()[-(self.N + 1) :]
        assert rows[-1].split()[:2] == [str(self.N), self.DEN]
        assert rows[10].split()[:2] == ["10", "3628800"]

    def test_certify_json(self, spec):
        code, out, err = run_cli("certify", "--spec", spec, "--n", str(self.N), "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_int=str)
        assert doc["per_term"][-1]["denominator"] == self.DEN
        assert doc["n_checked"] == str(self.N)
        assert doc["dn_scaled_integral"] is False

    def test_certify_csv(self, spec):
        code, out, err = run_cli("certify", "--spec", spec, "--n", str(self.N), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split(",")[:2] == [str(self.N), self.DEN]


class TestTopLevelGuard:
    """Input that cannot be decoded is a usage error (exit 2); any other
    unexpected exception is an internal error (exit 4).  Both print one
    stderr line and no traceback."""

    @pytest.mark.parametrize("command", ["gen", "certify", "expand"])
    def test_non_utf8_spec(self, command, tmp_path):
        spec = tmp_path / "latin.spec"
        spec.write_bytes(b"seq a;\nrec: n*a[n] = a[n-1]; # caf\xe9 \xff\n")
        code, out, err = run_cli(command, "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert "not UTF-8" in err and "latin.spec" in err
        assert len(err.strip().splitlines()) == 1

    def test_unexpected_exception(self, monkeypatch):
        def broken(args):
            raise RuntimeError("unexpected\nstate")

        monkeypatch.setattr(cli, "cmd_verify", broken)
        code, out, err = run_cli("verify", "id3", "--order", "4")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "recint: internal error: RuntimeError: unexpected state\n"


class TestOneParser:
    """main builds its parser once per process and looks up cmd_<command>
    when the command runs, so a handler rebound after the parser exists is
    the one reached."""

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize(
        "argv",
        [("gen", "--spec", USEQ), ("brackets", "t"), ("certify", "--spec", WSEQ), ("expand", "--spec", USEQ)],
        ids=lambda argv: argv[0],
    )
    def test_rebound_handler_is_reached(self, argv, monkeypatch):
        assert run_cli("verify", "id3", "--order", "2")[0] == 0  # the parser exists now
        seen = []

        def handler(args):
            seen.append(args.command)
            return 7

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", handler)
        assert run_cli(*argv) == (7, "", "")
        assert seen == [argv[0]]


class TestOrderLimit:
    """--n and --order above MAX_ORDER exit 2 before any work is done.  Only
    values just above the limit are run."""

    OVER = str(MAX_ORDER + 1)

    def test_limit_admits_documented_sizes(self):
        # apery --n 3000 (README, TestCoefficientLimit) is the largest size used
        assert 3000 <= MAX_ORDER == 5000

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--spec", USEQ, "--n", OVER),
            ("certify", "--spec", WSEQ, "--n", OVER),
            ("expand", "--spec", USEQ, "--n", OVER),
            ("verify", "id3", "--order", OVER),
            ("verify", "derivation", "--n", OVER),
            ("verify", "conv", "--order", "4", "--n", OVER),
            ("gen", "--spec", str(DATA_DIR / "no-such.spec"), "--n", OVER),
            ("brackets", "t", "--n", OVER),
        ],
        ids=[
            "gen",
            "certify",
            "expand",
            "verify-order",
            "verify-n",
            "verify-both",
            "before-io",
            "brackets",
        ],
    )
    def test_just_above_the_limit(self, argv):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"recint: --{argv[-2][2:]} {self.OVER} exceeds the limit {MAX_ORDER}\n"

    def test_at_the_limit_is_accepted(self, monkeypatch):
        # the check passes MAX_ORDER itself through to the command
        seen = []
        run_spec = cli.run_spec

        def short_run(spec, n):
            seen.append(n)
            return run_spec(spec, 0)

        monkeypatch.setattr(cli, "run_spec", short_run)
        code, _, err = run_cli("gen", "--spec", USEQ, "--n", str(MAX_ORDER))
        assert (code, err, seen) == (0, "", [MAX_ORDER])
