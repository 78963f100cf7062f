"""Polynomial core: sparse multivariate ring, univariate layer, exact division."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digits_value, linear_form
from recint.multipoly import (
    MAX_NESTING,
    DenomProfile,
    InexactDivisionError,
    MultiPoly,
    UPoly,
    VarSet,
    denom_profile,
    horner_sum_div_linear,
    to_upoly,
)
from recint.reclang import parse_poly

XYZ = VarSet.of("x", "y", "z")
XY = VarSet.of("x", "y")
X = VarSet.of("x")


def rand_poly(rng: random.Random, vs: VarSet, max_deg: int, nterms: int) -> MultiPoly:
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in vs)
        terms[exps] = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    return MultiPoly(vs, terms)


def rand_point(rng: random.Random, vs: VarSet) -> dict:
    return {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for name in vs}


@st.composite
def polys(draw, vs=XY, max_deg=4, max_terms=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_deg)) for _ in vs
        )
        terms[exps] = draw(
            st.fractions(min_value=-20, max_value=20, max_denominator=8)
        )
    return MultiPoly(vs, terms)


class TestVarSet:
    def test_basic(self):
        assert list(XYZ) == ["x", "y", "z"]
        assert len(XYZ) == 3
        assert XYZ.index("y") == 1
        assert XYZ.without("y") == VarSet.of("x", "z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VarSet.of("a", "a")

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValueError):
            VarSet.of("2b")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            XYZ.index("w")


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = MultiPoly(XY, {(1, 0): 0, (0, 1): 3})
        assert p.terms == {(0, 1): Fraction(3)}

    def test_bad_exponent_vector(self):
        with pytest.raises(ValueError):
            MultiPoly(XY, {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(XY, {(-1, 0): 1})

    def test_constructors(self):
        assert MultiPoly.zero(XY).is_zero()
        assert MultiPoly.one(XY).constant_value() == 1
        v = MultiPoly.variable(XY, "y")
        assert v.terms == {(0, 1): Fraction(1)}
        m = MultiPoly.monomial(XY, (2, 1), Fraction(1, 2))
        assert m.total_degree() == 3

    def test_constant_value_rejects_nonconstant(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(XY, "x").constant_value()

    def test_total_degree_of_zero(self):
        assert MultiPoly.zero(XY).total_degree() == -1


class TestRingAxioms:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_neutral_elements(self, p):
        assert p + MultiPoly.zero(XY) == p
        assert p * MultiPoly.one(XY) == p
        assert p - p == MultiPoly.zero(XY)

    def test_scalar_mixing(self):
        x = MultiPoly.variable(XY, "x")
        assert (x + 1) * 2 == x * 2 + 2
        assert 1 - x == -(x - 1)
        assert (x / 2) * 2 == x
        assert x ** 0 == MultiPoly.one(XY)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(XY, "x") ** -1

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            MultiPoly.one(XY) / 0


class TestEvaluation:
    def test_eval_point(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        p = x**2 + y * 3 - 1
        assert p.eval({"x": 2, "y": Fraction(1, 3)}) == 4

    def test_eval_homomorphism_seeded_trials(self):
        # 1000 random trials: evaluation respects products and sums
        rng = random.Random(1803)
        for _ in range(1000):
            p = rand_poly(rng, XYZ, 6, 4)
            q = rand_poly(rng, XYZ, 6, 4)
            pt = rand_point(rng, XYZ)
            assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
            assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)

    def test_subst_value(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        p = x**2 * y + y**2 + 2
        q = p.subst_value("y", 1)
        assert q == x**2 + 3
        assert q.vs == XY  # substitution fixes a value, keeps the ring

    def test_cast_by_name(self):
        p = MultiPoly.variable(X, "x") ** 2 + 1
        q = p.cast(XY)
        assert q.vs == XY
        assert q == MultiPoly.variable(XY, "x") ** 2 + 1

    def test_cast_missing_name_rejected(self):
        p = MultiPoly.variable(XY, "y") + 1
        with pytest.raises(KeyError):
            p.cast(X)


class TestCanonicalText:
    def test_ordering_and_signs(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        p = y - x**2 * Fraction(1, 2) + x * y - 3
        # graded-lex descending: degree 2 first, then degree 1, constants last
        assert p.text() == "-1/2*x^2 + x*y + y - 3"

    def test_zero_and_one(self):
        assert MultiPoly.zero(XY).text() == "0"
        assert MultiPoly.one(XY).text() == "1"
        assert MultiPoly.const(XY, Fraction(-3, 4)).text() == "-3/4"

    def test_powers_explicit(self):
        x = MultiPoly.variable(X, "x")
        assert (x**3 * 2).text() == "2*x^3"
        assert (x * -1).text() == "-x"

    def test_parse_round_trip_seeded_trials(self):
        rng = random.Random(977)
        for _ in range(200):
            p = rand_poly(rng, XYZ, 5, 6)
            assert parse_poly(p.text(), XYZ) == p

    @given(polys())
    @settings(max_examples=80, deadline=None)
    def test_parse_round_trip_property(self, p):
        assert parse_poly(p.text(), XY) == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_poly("x + w", XY)  # unknown variable
        with pytest.raises(ValueError):
            parse_poly("x +", XY)  # dangling operator
        with pytest.raises(ValueError):
            parse_poly("(x + 1", XY)  # unbalanced parens
        with pytest.raises(ValueError):
            parse_poly("x / y", XY)  # division by a variable
        with pytest.raises(ValueError):
            parse_poly("x / 0", XY)  # division by zero
        with pytest.raises(ValueError):
            parse_poly("x $ 1", XY)  # stray character

    def test_parse_accepts_rational_literals(self):
        p = parse_poly("1/2*x^2 - 3/4", XY)
        assert p == MultiPoly(XY, {(2, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)})

    def test_hash_consistent_with_eq(self):
        p = parse_poly("x*y + 2", XY)
        q = parse_poly("2 + y*x", XY)
        assert p == q
        assert hash(p) == hash(q)

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "x*" + "-" * 3000 + "y"],
        ids=["parens", "leading-minus", "inner-minus"],
    )
    def test_parse_rejects_deep_nesting(self, text):
        with pytest.raises(ValueError, match="nested deeper than"):
            parse_poly(text, XY)

    def test_parse_nesting_up_to_the_limit(self):
        depth = MAX_NESTING // 2
        text = "-" * depth + "(" * depth + "x" + ")" * depth
        assert parse_poly(text, XY) == MultiPoly.variable(XY, "x") * (-1) ** depth
        with pytest.raises(ValueError, match="nested deeper than"):
            parse_poly("-" + text, XY)


class TestLongCoefficients:
    """text() prints coefficients longer than str() converts (4,300 digits
    by default) without changing the interpreter's limit."""

    def test_five_thousand_digit_constant(self):
        c = 3**10481
        limit = sys.get_int_max_str_digits()
        text = MultiPoly.const(XY, c).text()
        assert sys.get_int_max_str_digits() == limit
        assert 5000 <= len(text) < 5010 and text[0] != "0"
        assert digits_value(text) == c
        assert MultiPoly.const(XY, -c).text() == "-" + text

    @pytest.mark.parametrize(
        "c",
        [10**4299, 10**4300, 10**5000, 10**5000 + 1, 2**20000 - 1],
        ids=["4300-digits", "4301-digits", "power-of-ten", "zeros-inside", "all-ones"],
    )
    def test_around_the_limit(self, c):
        text = MultiPoly.const(X, c).text()
        assert digits_value(text) == c
        assert len(text) == math.floor(math.log10(c)) + 1

    def test_rational_coefficients_and_monomials(self):
        num, den = 7**6000 + 2, 2**17000
        p = MultiPoly(XY, {(1, 2): Fraction(num, den), (0, 0): Fraction(-5, 3)})
        head, tail = p.text().split(" - ")
        assert tail == "5/3"
        mag, mono = head.split("*", 1)
        assert mono == "x*y^2"
        p_text, q_text = mag.split("/")
        assert (digits_value(p_text), digits_value(q_text)) == (num, den)


class TestUPoly:
    def test_degree_and_coeff(self):
        p = UPoly(X, [1, 0, MultiPoly.variable(X, "x")])
        assert p.degree() == 2
        assert p.coeff(1).is_zero()
        assert p.coeff(5).is_zero()

    def test_trailing_zeros_trimmed(self):
        p = UPoly(X, [1, 0, 0])
        assert p.degree() == 0
        assert UPoly(X, []).is_zero()
        assert UPoly(X, []).degree() == -1

    def test_compose_affine_matches_pointwise(self):
        rng = random.Random(5)
        vs = VarSet.of()
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
            p = UPoly(vs, coeffs)
            shift = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            q = p.compose_affine(shift)
            for t in (Fraction(0), Fraction(2), Fraction(-5, 3)):
                assert q.eval_scalar(t) == p.eval_scalar(t + shift)

    def test_compose_affine_round_trip(self):
        p = UPoly(X, [MultiPoly.variable(X, "x"), 2, 0, 5])
        s = Fraction(3, 2)
        assert p.compose_affine(s).compose_affine(-s) == p

    def test_parity_predicates(self):
        vs = VarSet.of()
        odd = UPoly(vs, [0, 3, 0, -1])
        even = UPoly(vs, [1, 0, 2])
        mixed = UPoly(vs, [0, 1, 1])
        assert odd.is_odd()
        assert not even.is_odd()
        assert not mixed.is_odd()
        assert UPoly(vs, []).is_odd()  # zero is vacuously odd
        assert mixed.even_part() == UPoly(vs, [0, 0, 1])
        assert odd.even_part().is_zero()

    def test_eval_poly_substitutes_argument(self):
        vs = VarSet.of()
        p = UPoly(vs, [1, 0, 1])  # 1 + t^2
        arg = linear_form(XY, [1, 2])  # x + 2y
        out = p.eval_poly(arg)
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        assert out == (x + y * 2) ** 2 + 1

    def test_to_multipoly_and_back(self):
        p = MultiPoly(XY, {(2, 1): Fraction(3), (0, 2): Fraction(-1), (1, 0): Fraction(2)})
        up = to_upoly(p, "y")
        assert up.degree() == 2
        assert up.to_multipoly("y").cast(XY) == p

    def test_upoly_text(self):
        vs = VarSet.of()
        p = UPoly(vs, [0, -5, 0, 1])
        assert p.text("t") == "t^3 - 5*t"


class TestExactDivision:
    def test_round_trip_seeded_trials(self):
        # 200 trials: (p * <m,x>) / <m,x> == p for random p and weights
        rng = random.Random(424242)
        for _ in range(200):
            d = rng.randint(1, 3)
            vs = VarSet.of(*(f"x{i}" for i in range(1, d + 1)))
            p = rand_poly(rng, vs, 5, 5)
            m = [rng.randint(0, 4) for _ in range(d)]
            if not any(m):
                m[rng.randrange(d)] = rng.randint(1, 4)
            form = linear_form(vs, m)
            assert horner_sum_div_linear(vs, [((1,), (), 1, p * form)], m) == p

    def test_zero_dividend(self):
        assert horner_sum_div_linear(XY, [((1,), (), 1, MultiPoly.zero(XY))], (1, 1)).is_zero()

    def test_pivot_skips_zero_weights(self):
        y = MultiPoly.variable(XY, "y")
        p = (y + 1) * y * 2
        q = horner_sum_div_linear(XY, [((1,), (), 1, p)], (0, 2))
        assert q == y + 1

    def test_remainder_reported(self):
        one = MultiPoly.one(XY)
        with pytest.raises(InexactDivisionError) as exc:
            horner_sum_div_linear(XY, [((1,), (), 1, one)], (1, 0))
        assert exc.value.remainder == one

    def test_partial_remainder(self):
        x = MultiPoly.variable(XY, "x")
        with pytest.raises(InexactDivisionError) as exc:
            horner_sum_div_linear(XY, [((1,), (), 1, x * x + 3)], (1, 0))
        assert exc.value.remainder == MultiPoly.const(XY, 3)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            horner_sum_div_linear(XY, [((1,), (), 1, MultiPoly.one(XY))], (0, 0))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            horner_sum_div_linear(XY, [((1,), (), 1, MultiPoly.one(XY))], (1,))


class TestDenomProfile:
    def test_integer_poly(self):
        p = parse_poly("3*x^2 - 7", XY)
        assert denom_profile(p) == DenomProfile(1, True, 0)

    def test_two_adic(self):
        p = parse_poly("1/8*x + 1/2", XY)
        assert denom_profile(p) == DenomProfile(8, True, 3)

    def test_mixed(self):
        p = parse_poly("1/6*x + 1/4", XY)
        prof = denom_profile(p)
        assert prof.lcm_denominator == 12
        assert not prof.two_adic_only
        assert prof.max_neg_v2 == 2

    def test_zero_poly(self):
        assert denom_profile(MultiPoly.zero(XY)) == DenomProfile(1, True, 0)

    def test_odd_denominator_only(self):
        p = parse_poly("1/3*x", XY)
        prof = denom_profile(p)
        assert prof.lcm_denominator == 3
        assert not prof.two_adic_only
        assert prof.max_neg_v2 == 0


class TestLinearForm:
    def test_builds_weighted_sum(self):
        f = linear_form(XYZ, [2, 0, Fraction(1, 2)])
        assert f.text() == "2*x + 1/2*z"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_form(XYZ, [1, 2])


def assert_normalised(p: MultiPoly):
    """The representation invariant: integer numerators over one positive
    denominator, in lowest terms, with den == 1 for zero."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) and c for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if p.is_zero():
        assert p.den == 1
    assert dict(p.terms) == {e: Fraction(c, p.den) for e, c in p.num.items()}


class TestRepresentation:
    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_invariant_after_every_operation(self, p, q):
        for r in (
            p,
            p + q,
            p - q,
            -p,
            p * q,
            p * Fraction(6, 35),
            p / Fraction(-10, 21),
            p * 4,
            p / 4,
            p**2,
            p - p,
            p + (-p),
            p * 0,
            p * q - q * p,
        ):
            assert_normalised(r)

    def test_cancellation_to_zero_resets_denominator(self):
        p = MultiPoly(XY, {(1, 0): Fraction(1, 6), (0, 1): Fraction(5, 4)})
        assert p.den == 12
        for zero in (p - p, p + (-p), p * 0, p * MultiPoly.zero(XY), (p - p) / 7):
            assert zero.is_zero()
            assert (zero.den, zero.num) == (1, {})
            assert zero == MultiPoly.zero(XY)

    def test_sums_reduce_to_lowest_terms(self):
        half = MultiPoly.const(XY, Fraction(1, 2))
        x = MultiPoly.variable(XY, "x")
        r = (x * half + half) + (x * half + half)
        assert (r.den, r.num) == (1, {(1, 0): 1, (0, 0): 1})
        r = MultiPoly(XY, {(1, 0): Fraction(1, 6)}) + MultiPoly(XY, {(0, 1): Fraction(1, 10)})
        assert (r.den, r.num) == (30, {(1, 0): 5, (0, 1): 3})

    def test_scalar_factors_cancel_against_both_sides(self):
        p = MultiPoly(XY, {(1, 0): Fraction(4, 3), (0, 1): Fraction(8, 9)})
        assert (p.den, p.num) == (9, {(1, 0): 12, (0, 1): 8})
        r = p * Fraction(9, 4)
        assert (r.den, r.num) == (1, {(1, 0): 3, (0, 1): 2})
        r = p / 4
        assert (r.den, r.num) == (9, {(1, 0): 3, (0, 1): 2})

    @given(polys(), st.fractions(min_value=-9, max_value=9, max_denominator=9))
    @settings(max_examples=60, deadline=None)
    def test_equal_by_any_route_means_equal_and_hash_equal(self, p, c):
        routes = [
            p * Fraction(2, 3) * Fraction(3, 2),
            (p * 6) / 6,
            p + p - p,
            parse_poly(p.text(), XY),
        ]
        if c:
            routes.append((p * c) / c)
        for r in routes:
            assert r == p
            assert hash(r) == hash(p)
            assert (r.den, r.num) == (p.den, p.num)

    def test_terms_view_is_read_only(self):
        p = MultiPoly(XY, {(1, 0): Fraction(1, 2)})
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = Fraction(1)
        assert p.terms == {(1, 0): Fraction(1, 2)}

    def test_wide_exponents_do_not_collide(self):
        x, y = MultiPoly.variable(XY, "x"), MultiPoly.variable(XY, "y")
        big = MultiPoly.monomial(XY, (70000, 0), 1)
        r = (big + y) * (big - y)
        assert r.num == {(140000, 0): 1, (0, 2): -1}
        assert r == MultiPoly.monomial(XY, (140000, 0), 1) - y * y
        assert (big * x).num == {(70001, 0): 1}

    def test_exponent_sums_beyond_32_bits(self):
        e1, e2 = 2**32 + 5, 2**32 - 1
        p = MultiPoly(XYZ, {(e1, 0, 1): 3, (0, e2, 0): Fraction(-1, 2)})
        q = MultiPoly(XYZ, {(e2, 1, 0): 2, (1, e1, 2**33): 5})
        r = p * q
        assert r.terms == {
            (e1 + e2, 1, 1): 6,
            (e1 + 1, e1, 2**33 + 1): 15,
            (e2, e2 + 1, 0): -1,
            (1, e1 + e2, 2**33): Fraction(-5, 2),
        }
        assert max(sum(e) for e in r.terms) > 2**33
        assert_normalised(r)
