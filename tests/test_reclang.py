"""Recurrence spec language: tokenizer, parser, printer, odd form, runner."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, SPECS_DIR, gen_apery, run_cli
from recint.multipoly import MultiPoly, UPoly, VarSet
from recint.reclang import (
    RecurrenceSpec,
    SpecSyntaxError,
    _tokenize,
    parse_poly,
    parse_poly_list,
    parse_spec,
    pretty_print,
    run_spec,
    spec_hash,
    to_odd_form,
)
from recint.sequences import RING_BC, USEQ_TEXT, WSEQ_TEXT
from test_point_oracle import SEEDS, point, u_values
from test_series_oracle import w_values


def load(name: str) -> str:
    return (SPECS_DIR / name).read_text()


class TestParsing:
    def test_w_spec_shape(self):
        spec = parse_spec(load("wseq.spec"))
        assert spec.ring_vars == ("b", "c")
        assert spec.seq_name == "w"
        assert spec.lead_power == 1
        assert spec.order == 3
        vs = spec.q[0].vs
        assert spec.q[0] == parse_poly("b - n*(n - 1)", vs)
        assert spec.q[1].is_zero()
        assert spec.q[2] == parse_poly("c", vs)

    def test_apery_spec_shape(self):
        spec = parse_spec(load("apery.spec"))
        assert spec.ring_vars == ()
        assert spec.lead_power == 3
        assert spec.order == 2

    def test_gap_spec_shape(self):
        spec = parse_spec(load("odd-deep.spec"))
        assert spec.order == 4
        assert spec.q[2].is_zero()

    def test_ring_optional(self):
        spec = parse_spec("seq f;\nrec: n*f[n] = 3*f[n-1];")
        assert spec.ring_vars == ()
        assert run_spec(spec, 3)[3].constant_value() == Fraction(27, 6)

    def test_ring_variables_sorted(self):
        spec = parse_spec("ring z a;\nseq f;\nrec: n*f[n] = (a + z)*f[n-1];")
        assert spec.ring_vars == ("a", "z")

    def test_comments_and_whitespace_ignored(self):
        text = "# header\n  ring b ;# inline\n\nseq f;\nrec: n * f[n] = b*f[n-1] ;"
        spec = parse_spec(text)
        assert spec.seq_name == "f"


class TestTokenPositions:
    """(line, col) of every token: a blank, tab or carriage return is one
    column, a comment none, and a newline starts the next line at column 1."""

    @staticmethod
    def positions(text: str) -> list[tuple[str, str, int, int]]:
        return [(t.kind, t.value, t.line, t.col) for t in _tokenize(text)]

    def test_end_after_a_final_comment(self):
        # the comment does not advance the column, so the end is at the '#'
        assert self.positions("seq a # note")[-1] == ("end", "", 1, 7)
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec("seq a;\nrec: n*a[n] = a[n-1] # no ';'")
        assert (exc.value.line, exc.value.col) == (2, 22)
        assert exc.value.message == "expected ';', found ''"

    def test_crlf_line_ends(self):
        assert self.positions("a;\r\n b\r\n") == [
            ("name", "a", 1, 1),
            ("op", ";", 1, 2),
            ("name", "b", 2, 2),
            ("end", "", 3, 1),
        ]

    def test_tab_is_one_column(self):
        assert self.positions("\tx\t12^\t3") == [
            ("name", "x", 1, 2),
            ("int", "12", 1, 4),
            ("op", "^", 1, 6),
            ("int", "3", 1, 8),
            ("end", "", 1, 9),
        ]

    @pytest.mark.parametrize(
        "text, line, col, char",
        [("# caf\u00e9\n\u00b2", 2, 1, "\u00b2"), ("x # \u00e9\r\n\ty \u20ac", 2, 4, "\u20ac")],
        ids=["first-column", "after-a-tab"],
    )
    def test_non_ascii_after_a_comment_line(self, text, line, col, char):
        with pytest.raises(SpecSyntaxError) as exc:
            _tokenize(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert exc.value.message == f"unexpected character {char!r}"


class TestParseErrors:
    def check(self, text: str, fragment: str):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text)
        assert fragment in str(exc.value)

    def test_empty_ring(self):
        self.check("ring;\nseq u;\nrec: n*u[n] = u[n-1];", "at least one variable")

    def test_ring_after_seq(self):
        self.check("seq u;\nring b;\nrec: n*u[n] = u[n-1];", "must come first")

    def test_duplicate_ring_variable(self):
        self.check("ring b b;\nseq u;\nrec: n*u[n] = u[n-1];", "duplicate ring variable")

    def test_n_reserved(self):
        self.check("ring n;\nseq u;\nrec: n*u[n] = u[n-1];", "reserved")

    def test_seq_collides_with_ring(self):
        self.check("ring b;\nseq b;\nrec: n*b[n] = b[n-1];", "collides")

    def test_missing_seq(self):
        self.check("ring b;\nrec: n*u[n] = u[n-1];", "requires a prior seq")

    def test_missing_rec(self):
        self.check("ring b;\nseq u;", "missing rec")

    def test_missing_everything(self):
        self.check("ring b;", "missing seq")

    def test_current_term_on_rhs(self):
        self.check("seq u;\nrec: n*u[n] = u[n] + u[n-1];", "cannot appear on the right")

    def test_forward_reference(self):
        self.check("seq u;\nrec: n*u[n] = u[n-0];", "out of declared range")

    def test_nonlinear(self):
        self.check("seq u;\nrec: n*u[n] = u[n-1]*u[n-2];", "linear")

    def test_power_of_reference(self):
        self.check("seq u;\nrec: n*u[n] = u[n-1]^2;", "raise a sequence reference")

    def test_pure_term_without_reference(self):
        self.check("seq u;\nrec: n*u[n] = u[n-1] + 1;", "needs a sequence reference")

    def test_no_references_at_all(self):
        self.check("seq u;\nrec: n*u[n] = 0;", "no sequence references")

    @pytest.mark.parametrize("rhs", ["0*u[n-1]", "u[n-1] - u[n-1]", "0*u[n-2] + 0"])
    def test_zero_right_side(self, rhs):
        # it would print as "rec: n*u[n] = ;", which does not parse
        self.check(f"seq u;\nrec: n*u[n] = {rhs};", "no sequence references")

    def test_zero_lead_power(self):
        self.check("seq u;\nrec: n^0*u[n] = u[n-1];", "positive integer")

    def test_unknown_variable(self):
        self.check("seq u;\nrec: n*u[n] = b*u[n-1];", "unknown variable")

    def test_unknown_statement(self):
        self.check("field b;\nseq u;\nrec: n*u[n] = u[n-1];", "unknown statement")

    def test_duplicate_statements(self):
        self.check("seq u;\nseq v;\nrec: n*u[n] = u[n-1];", "duplicate seq")
        self.check(
            "seq u;\nrec: n*u[n] = u[n-1];\nrec: n*u[n] = u[n-1];", "duplicate rec"
        )

    def test_stray_character(self):
        self.check("seq u;\nrec: n*u[n] = u[n-1] $ 2;", "unexpected character")

    @pytest.mark.parametrize(
        "text, line, col, fragment",
        [
            ("ring b, c;\nseq u;\nrec: n*u[n] = u[n-1];", 1, 7, "expected ';'"),
            ("ring b;\nseq u\nrec: n*u[n] = u[n-1];", 3, 1, "expected ';'"),
            ("seq u;\nrec n*u[n] = u[n-1];", 2, 5, "expected ':'"),
            ("seq u;\nrec: m*u[n] = u[n-1];", 2, 6, "left side must start with n"),
            ("seq u;\nrec: n*v[n] = u[n-1];", 2, 8, "declared sequence 'u'"),
            ("seq u;\nrec: n*u[m] = u[n-1];", 2, 10, "exactly [n]"),
            ("seq u;\nrec: n^0*u[n] = u[n-1];", 2, 8, "positive integer"),
            ("; seq u;", 1, 1, "expected a statement, found ';'"),
            ("ring b;", 1, 8, "missing seq statement"),
            ("ring b;\nseq u;", 2, 7, "missing rec statement"),
        ],
        ids=[
            "ring-semicolon",
            "seq-semicolon",
            "rec-colon",
            "head-n",
            "head-sequence",
            "head-index",
            "head-power",
            "not-a-name",
            "missing-seq",
            "missing-rec",
        ],
    )
    def test_statement_error_position(self, text, line, col, fragment):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert fragment in exc.value.message

    def test_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec("seq u;\nrec: n*u[n] = u[n] ;")
        assert exc.value.line == 2
        assert exc.value.col > 0

    def test_malformed_fixture(self):
        fixture = Path(__file__).parent / "data" / "malformed.spec"
        with pytest.raises(SpecSyntaxError):
            parse_spec(fixture.read_text())


class TestPrinting:
    def test_corpus_round_trips(self):
        for name in CORPUS:
            spec = parse_spec(load(name))
            printed = pretty_print(spec)
            again = parse_spec(printed)
            assert again == spec, name
            assert pretty_print(again) == printed, name

    @pytest.mark.parametrize(
        "text, name", [(WSEQ_TEXT, "wseq.spec"), (USEQ_TEXT, "useq.spec")], ids=["w", "u"]
    )
    def test_embedded_specs_match_the_files(self, text, name):
        # gen_w and gen_u run the recurrences embedded in recint.sequences
        assert pretty_print(parse_spec(text)) == pretty_print(parse_spec(load(name)))

    def test_hash_identifies_recurrence(self):
        w1 = parse_spec(load("wseq.spec"))
        w2 = parse_spec(pretty_print(w1))
        assert spec_hash(w1) == spec_hash(w2)
        assert spec_hash(w1) != spec_hash(parse_spec(load("useq.spec")))

    def test_printed_form_is_canonical(self):
        a = parse_spec("ring c b;\nseq f;\nrec: n*f[n] = (b + c)*f[n-1];")
        b = parse_spec("ring b c;\nseq f;\nrec: n*f[n] = (c + b)*f[n-1];")
        assert pretty_print(a) == pretty_print(b)
        assert pretty_print(a).endswith(";\n")

    def test_gap_survives_round_trip(self):
        spec = parse_spec(load("odd-deep.spec"))
        again = parse_spec(pretty_print(spec))
        assert again.order == 4
        assert again.q[2].is_zero()

    def test_zero_coefficients_are_dropped(self):
        # the order is the highest lag with a nonzero coefficient; gaps below it stay
        spec = parse_spec("ring b;\nseq a;\nrec: n*a[n] = b*a[n-1] + 0*a[n-3];")
        assert spec.order == 1
        assert parse_spec(pretty_print(spec)) == spec
        spec = parse_spec("seq a;\nrec: n*a[n] = a[n-1] + 0*a[n-2] + (a[n-4] - a[n-4]) + a[n-3];")
        assert spec.order == 3 and spec.q[1].is_zero()
        assert parse_spec(pretty_print(spec)) == spec

    @given(
        ring=st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=2),
        lead=st.integers(min_value=1, max_value=3),
        ncoeffs=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, ring, lead, ncoeffs, data):
        ring_vars = tuple(sorted(ring))
        vs = VarSet(ring_vars + ("n",))
        dims = len(vs)
        qs = []
        for _ in range(ncoeffs):
            nterms = data.draw(st.integers(min_value=0, max_value=3))
            terms = {}
            for _ in range(nterms):
                exps = tuple(
                    data.draw(st.integers(min_value=0, max_value=2)) for _ in range(dims)
                )
                terms[exps] = data.draw(
                    st.integers(min_value=-9, max_value=9).filter(bool)
                )
            qs.append(MultiPoly(vs, terms))
        if qs[-1].is_zero():  # trailing zero would change the parsed order
            qs[-1] = MultiPoly.one(vs)
        spec = RecurrenceSpec(ring_vars=ring_vars, seq_name="f", lead_power=lead, q=tuple(qs))
        assert parse_spec(pretty_print(spec)) == spec


class TestOddForm:
    def test_u_recurrence_is_odd(self):
        report = to_odd_form(parse_spec(load("useq.spec")))
        assert report.applicable
        assert report.offenders == ()
        assert report.p[0].text() == "4*t^3 - 4*b*t - t"
        assert report.p[1].text() == "-4*c*t"

    def test_w_recurrence_offenders(self):
        spec = parse_spec(load("wseq.spec"))
        report = to_odd_form(spec)
        assert not report.applicable
        offenders = dict(report.offenders)
        assert set(offenders) == {1, 3}
        vs = spec.ring
        expected_p1_even = UPoly(
            vs,
            [parse_poly("b + 1/4", vs), MultiPoly.zero(vs), MultiPoly.const(vs, -1)],
        )
        assert offenders[1] == expected_p1_even
        assert offenders[3] == UPoly(vs, [parse_poly("c", vs)])

    def test_higher_lead_power_not_applicable(self):
        report = to_odd_form(parse_spec(load("apery.spec")))
        assert not report.applicable
        assert report.p is None
        assert "n^3" in report.reason

    def test_synthetic_specs_are_odd(self):
        for name in ("odd-cubic.spec", "odd-mixed.spec", "odd-deep.spec"):
            report = to_odd_form(parse_spec(load(name)))
            assert report.applicable, name

    def test_odd_cubic_shift(self):
        report = to_odd_form(parse_spec(load("odd-cubic.spec")))
        assert report.p[0].text() == "4*t^3 + t"
        assert report.p[1].text() == "2*b*t"


class TestRunner:
    # gen_w and gen_u run on run_spec's engine: the reference is the scalar
    # recurrence at the point oracle's seeded points
    def test_w_spec_matches_generator(self):
        spec = parse_spec(load("wseq.spec"))
        out = run_spec(spec, 10)
        assert out.ring == RING_BC
        for seed in SEEDS:
            b, c = point(seed)
            w = w_values(b, c, 10)
            for n in range(11):
                assert out[n].eval({"b": b, "c": c}) == w[n]

    def test_u_spec_matches_generator(self):
        spec = parse_spec(load("useq.spec"))
        out = run_spec(spec, 10)
        assert out.ring == RING_BC
        for seed in SEEDS:
            b, c = point(seed)
            u = u_values(b, c, 10)
            for n in range(11):
                assert out[n].eval({"b": b, "c": c}) == u[n]

    def test_apery_spec_matches_generator(self):
        spec = parse_spec(load("apery.spec"))
        out = run_spec(spec, 12)
        expected = gen_apery(12)
        for n in range(13):
            assert out[n].constant_value() == expected[n]

    def test_odd_specs_have_two_adic_denominators(self):
        from recint.multipoly import denom_profile

        for name in ("useq.spec", "odd-cubic.spec", "odd-mixed.spec", "odd-deep.spec"):
            spec = parse_spec(load(name))
            out = run_spec(spec, 40)
            for n, term in enumerate(out.terms):
                assert denom_profile(term).two_adic_only, (name, n)

    def test_initial_term_is_one(self):
        spec = parse_spec("seq f;\nrec: n*f[n] = f[n-1];")
        out = run_spec(spec, 0)
        assert out[0].constant_value() == 1

    def test_negative_length_rejected(self):
        spec = parse_spec(load("useq.spec"))
        with pytest.raises(ValueError):
            run_spec(spec, -1)


class TestPolyList:
    def test_tuple_parsing(self):
        polys = parse_poly_list("t^3 - 3*t, t", ("t",))
        assert len(polys) == 2
        vs = polys[0].vs
        assert polys[0] == parse_poly("t^3 - 3*t", vs)

    def test_single_entry(self):
        (p,) = parse_poly_list("(t + 1)*(t - 1)", ("t",))
        vs = p.vs
        assert p == parse_poly("t^2 - 1", vs)

    def test_errors_positioned(self):
        with pytest.raises(SpecSyntaxError):
            parse_poly_list("t +", ("t",))
        with pytest.raises(SpecSyntaxError):
            parse_poly_list("t, , t", ("t",))
        with pytest.raises(SpecSyntaxError):
            parse_poly_list("x", ("t",))


class TestPolyGrammar:
    """parse_poly reads one expression in the spec grammar, limits included."""

    XY = VarSet.of("x", "y")

    def poly(self, text: str) -> MultiPoly:
        return parse_poly(text, self.XY)

    def test_unary_minus_binds_looser_than_power(self):
        x, y = MultiPoly.variable(self.XY, "x"), MultiPoly.variable(self.XY, "y")
        assert self.poly("y*-x^2") == -(x**2 * y)
        assert self.poly("x - -x^2") == x**2 + x
        assert self.poly("2*-x^2") == x**2 * -2

    @pytest.mark.parametrize("text", ["x/y", "x/0", "x/(1-1)", "x/(y - y + x)"])
    def test_division_by_anything_else(self, text):
        with pytest.raises(SpecSyntaxError, match="division only by a nonzero constant"):
            self.poly(text)

    def test_comments_and_trailing_input(self):
        assert self.poly("x # comment\n + 1") == self.poly("x + 1")
        with pytest.raises(SpecSyntaxError, match="expected end of input"):
            self.poly("x y")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x^1001", "exponent 1001 exceeds the limit"),
            ("(2^1000)^1000", "exceed the limit 100000"),
        ],
        ids=["degree", "coefficients"],
    )
    def test_limits(self, text, message):
        with pytest.raises(SpecSyntaxError, match=message):
            self.poly(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x^²", "unexpected character '²'"),
            ("٣*x", "unexpected character '٣'"),
        ],
        ids=["superscript-exponent", "arabic-indic-digit"],
    )
    def test_digits_are_ascii(self, text, message):
        with pytest.raises(SpecSyntaxError, match=message):
            self.poly(text)

    @pytest.mark.parametrize(
        "text, line, col, char",
        [
            ("ring x²; seq u; rec: n*u[n] = x²*u[n-1];", 1, 7, "²"),
            ("ring b;\nseq u;\nrec: n*u[n] = bé*u[n-1];", 3, 16, "é"),
            ("ring é; seq u; rec: n*u[n] = u[n-1];", 1, 6, "é"),
        ],
        ids=["superscript-in-ring-name", "letter-in-coefficient", "letter-as-ring-name"],
    )
    def test_names_are_ascii(self, text, line, col, char, tmp_path):
        # str.isalnum() would take the character into the name, and VarSet
        # would reject it later with a plain ValueError (exit 4)
        with pytest.raises(SpecSyntaxError, match=f"unexpected character '{char}'") as info:
            parse_spec(text)
        assert (info.value.line, info.value.col) == (line, col)
        spec = tmp_path / "name.spec"
        spec.write_text(text, encoding="utf-8")
        for command in ("gen", "certify", "expand"):
            code, out, err = run_cli(command, "--spec", str(spec), "--n", "2")
            assert (code, out) == (2, ""), command
            assert f"line {line}, col {col}: unexpected character" in err, command

    def test_quotients_count_toward_the_coefficient_limit(self):
        # 1 bit for x, and 99,901 for the denominator 2^99900, twice over
        p = self.poly("x/(2^999)^100")
        assert p.den == 2**99900
        with pytest.raises(SpecSyntaxError, match="up to 199802 bits exceed the limit"):
            self.poly("x/(2^999)^100/(2^999)^100")

    def test_sums_count_toward_the_coefficient_limit(self):
        # each term is in bounds (about 63,000 bits), but coprime
        # denominators multiply in a sum
        third, fifth = "1/(3^400)^100", "1/(5^266)^100"
        assert self.poly(f"{third} + {third}") == self.poly(f"2*{third}")
        with pytest.raises(SpecSyntaxError, match="exceed the limit 100000"):
            self.poly(f"{third} + {fifth}")

    def test_rational_spec_round_trips(self):
        vs = VarSet(("b", "c", "n"))
        q = (parse_poly("b + 1/4", vs), MultiPoly.zero(vs), MultiPoly.const(vs, -1))
        spec = RecurrenceSpec(ring_vars=("b", "c"), seq_name="w", lead_power=1, q=q)
        printed = pretty_print(spec)
        assert "(b + 1/4)*w[n-1]" in printed
        assert parse_spec(printed) == spec
