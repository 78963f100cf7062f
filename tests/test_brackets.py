"""Bracket tables, power-of-2 certification, closed forms, odd-form expansion."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import q_monomial, r3_closed_form
from recint.brackets import (
    Atom,
    BracketDivisionError,
    BracketTable,
    SCALARS,
    QTuple,
    Theorem3ViolationError,
    build_expansion,
    certify_table,
    decompose_odd,
    expand_terms,
    x_varset,
)
from recint.multipoly import MultiPoly, UPoly, VarSet, denom_profile
from recint.reclang import parse_poly, parse_spec, run_spec, to_odd_form
from recint.sequences import gen_u

SPECS = Path(__file__).resolve().parent.parent / "specs"


def q_tuple(*coeff_lists, permissive=False) -> QTuple:
    return QTuple([UPoly(SCALARS, cs) for cs in coeff_lists], permissive=permissive)


T = [0, 1]
T3 = [0, 0, 0, 1]
T5 = [0, 0, 0, 0, 0, 1]
T3_MINUS_3T = [0, -3, 0, 1]


class TestQTuple:
    def test_dimension_and_text(self):
        q = q_tuple(T3_MINUS_3T, T)
        assert q.d == 2
        assert q.text() == "t^3 - 3*t, t"

    def test_odd_enforced_by_default(self):
        with pytest.raises(ValueError):
            q_tuple([0, 0, 1])

    def test_permissive_admits_even(self):
        q = q_tuple([0, 0, 1], permissive=True)
        assert not q.is_odd()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QTuple([])

    def test_non_integer_coefficients_rejected(self):
        bad = UPoly(VarSet.of(), [0, Fraction(1, 2)])
        with pytest.raises(ValueError):
            QTuple([bad])

    def test_parametric_coefficients_rejected(self):
        vs = VarSet.of("b")
        bad = UPoly(vs, [MultiPoly.zero(vs), MultiPoly.variable(vs, "b")])
        with pytest.raises(ValueError):
            QTuple([bad])

    def test_q_monomial(self):
        assert q_monomial(0).text() == "t"
        assert q_monomial(2).text() == "t^5"
        with pytest.raises(ValueError):
            q_monomial(-1)


class TestBracketRecursion:
    def test_base_entry_is_one(self):
        t = BracketTable(q_tuple(T))
        assert t.entry((0,)).constant_value() == 1

    def test_negative_coordinates_are_zero(self):
        t = BracketTable(q_tuple(T, T))
        assert t.entry((-1, 0)).is_zero()

    def test_dimension_checked(self):
        t = BracketTable(q_tuple(T))
        with pytest.raises(ValueError):
            t.entry((1, 2))

    def test_single_t_collapses_to_central_binomials(self):
        t = BracketTable(q_tuple(T))
        expected = [Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128)]
        for m, val in enumerate(expected):
            assert t.entry((m,)).constant_value() == val

    def test_cubic_entries(self):
        t = BracketTable(q_tuple(T3))
        xvs = x_varset(1)
        assert t.entry((1,)) == parse_poly("1/8*x1^2", xvs)
        assert t.entry((2,)) == parse_poly("27/128*x1^4", xvs)

    def test_pair_spot_value(self):
        t = BracketTable(q_tuple(T, T))
        assert t.entry((1, 1)).constant_value() == Fraction(3, 4)

    def test_closed_form_agreement_exhaustive(self):
        # all-t tuples, d <= 3, |m| <= 6
        for d in (1, 2, 3):
            t = BracketTable(q_tuple(*([T] * d)))
            for m in itertools.product(range(7), repeat=d):
                if sum(m) > 6:
                    continue
                assert t.entry(m).constant_value() == r3_closed_form(m)

    def test_permutation_symmetry(self):
        # permuting the tuple and the point together leaves the bracket
        # invariant up to renaming the x variables
        q = q_tuple(T3, T)
        qs = q_tuple(T, T3)
        a = BracketTable(q).entry((2, 1))
        b = BracketTable(qs).entry((1, 2))
        xvs = x_varset(2)
        swapped = MultiPoly(xvs, {(j, i): c for (i, j), c in b.terms.items()})
        assert a == swapped

    def test_one_shot_helper(self):
        assert BracketTable(q_tuple(T)).entry((3,)).constant_value() == Fraction(5, 16)

    def test_inexact_division_reported(self):
        q = q_tuple([1, 0, 1], permissive=True)  # constant term breaks division
        t = BracketTable(q)
        with pytest.raises(BracketDivisionError) as exc:
            t.entry((1,))
        assert exc.value.point == (1,)
        assert exc.value.remainder.constant_value() == 1


class TestR3ClosedForm:
    def test_values(self):
        assert r3_closed_form(()) == 1
        assert r3_closed_form((0,)) == 1
        assert r3_closed_form((3,)) == Fraction(5, 16)
        assert r3_closed_form((1, 1)) == Fraction(3, 4)
        assert r3_closed_form((-1, 2)) == 0

    def test_permutation_invariance(self):
        for m in itertools.product(range(4), repeat=3):
            assert r3_closed_form(m) == r3_closed_form(tuple(sorted(m)))

    def test_denominators_are_powers_of_two(self):
        for m in itertools.product(range(5), repeat=2):
            d = r3_closed_form(m).denominator
            assert d & (d - 1) == 0


class TestCertification:
    def test_cubic_profile(self):
        cert = certify_table(q_tuple(T3), 2)
        assert cert.certified
        assert cert.level_max_defect == [0, 3, 7]
        assert cert.all_pow2
        assert cert.even_degree_ok
        assert cert.odd_tuple
        assert cert.inexact_at is None
        assert cert.entry_count == 3

    def test_suite_certifies(self):
        for coeff_lists, bound in (
            ((T,), 6),
            ((T, T3), 5),
            ((T3_MINUS_3T, T), 5),
            ((T5, T3, T), 4),
        ):
            cert = certify_table(q_tuple(*coeff_lists), bound)
            assert cert.certified
            assert cert.even_degree_ok

    def test_defect_levels_monotone_for_t(self):
        cert = certify_table(q_tuple(T), 8)
        assert cert.level_max_defect == sorted(cert.level_max_defect)
        assert cert.slope > 0

    def test_permissive_even_square_never_fails_denominators(self):
        # entries are ((2m-1)!!)^2 / (4^m m!) * x^m: power-of-2 denominators
        # forever, but odd polynomial degree from m = 1, so not certified
        q = q_tuple([0, 0, 1], permissive=True)
        table = BracketTable(q)
        cert = certify_table(q, 10, table=table)
        assert not cert.certified
        assert cert.all_pow2
        assert not cert.even_degree_ok
        assert cert.inexact_at is None
        assert table.entry((1,)) == parse_poly("1/4*x1", x_varset(1))
        assert table.entry((2,)) == parse_poly("9/32*x1^2", x_varset(1))

    def test_permissive_first_inexact_failure_recorded(self):
        q = q_tuple([1, 0, 1], permissive=True)
        cert = certify_table(q, 3)
        assert not cert.certified
        assert cert.inexact_at == [1]
        assert cert.inexact_remainder == "1"

    def test_poisoned_table_raises_violation(self):
        # a non-2-power denominator for an odd tuple is a counterexample,
        # not a report; force one to check the guard fires
        q = q_tuple(T)
        table = BracketTable(q)
        table.entries[(1,)] = MultiPoly.const(table.vs, Fraction(1, 3))
        table.levels_done = 1
        with pytest.raises(Theorem3ViolationError):
            certify_table(q, 1, table=table)

    def test_export_sorted_by_level(self):
        q = q_tuple(T, T)
        table = BracketTable(q)
        table.extend_to_level(3)
        records = table.export()
        levels = [sum(r["m"]) for r in records]
        assert levels == sorted(levels)

    def test_serialization_keys(self):
        doc = certify_table(q_tuple(T), 2).to_dict()
        assert list(doc) == [
            "tuple", "odd_tuple", "bound", "entry_count", "level_max_defect",
            "slope", "all_pow2", "even_degree_ok", "inexact_at",
            "inexact_remainder", "violations", "certified",
        ]


class TestOddFormExpansion:
    def test_decompose_odd(self):
        vs = VarSet.of("b")
        b = MultiPoly.variable(vs, "b")
        p = UPoly(vs, [MultiPoly.zero(vs), -(b * 4) - 1, MultiPoly.zero(vs), MultiPoly.const(vs, 4)])
        atoms = decompose_odd(p)
        assert atoms == [(0, -(b * 4) - 1), (1, MultiPoly.const(vs, 4))]

    def test_decompose_rejects_even(self):
        vs = VarSet.of()
        with pytest.raises(ValueError):
            decompose_odd(UPoly(vs, [1, 0, 1]))

    def test_expansion_of_product_recurrence(self):
        spec = parse_spec((SPECS / "useq.spec").read_text())
        odd = to_odd_form(spec)
        assert odd.applicable
        expansion = build_expansion(odd.p, spec.ring)
        assert [(a.weight, a.halfdeg) for a in expansion.atoms] == [(1, 0), (1, 1), (2, 0)]
        u = gen_u(6)
        zero = MultiPoly.zero(spec.ring)
        for n in range(7):
            assert sum((t.contribution for t in expand_terms(expansion, n)), zero) == u[n]

    def test_hand_checked_first_expansion(self):
        spec = parse_spec((SPECS / "useq.spec").read_text())
        expansion = build_expansion(to_odd_form(spec).p, spec.ring)
        terms = expand_terms(expansion, 1)
        assert [t.multiset for t in terms] == [[(1, 0, 1)], [(1, 1, 1)]]
        assert [t.bracket_value for t in terms] == [Fraction(1, 2), Fraction(1, 8)]
        texts = [t.contribution.text() for t in terms]
        assert texts == ["-2*b - 1/2", "1/2"]
        total = terms[0].contribution + terms[1].contribution
        assert total.text() == "-2*b"

    def test_zero_index_is_unit(self):
        spec = parse_spec((SPECS / "useq.spec").read_text())
        expansion = build_expansion(to_odd_form(spec).p, spec.ring)
        total = sum((t.contribution for t in expand_terms(expansion, 0)), MultiPoly.zero(spec.ring))
        assert total.constant_value() == 1

    def test_synthetic_specs_reconstruct(self):
        for name in ("odd-cubic.spec", "odd-mixed.spec", "odd-deep.spec"):
            spec = parse_spec((SPECS / name).read_text())
            odd = to_odd_form(spec)
            assert odd.applicable, name
            expansion = build_expansion(odd.p, spec.ring)
            direct = run_spec(spec, 10)
            zero = MultiPoly.zero(spec.ring)
            for n in range(11):
                total = sum((t.contribution for t in expand_terms(expansion, n)), zero)
                assert total == direct[n], (name, n)

    @pytest.mark.parametrize(
        "name", ["useq.spec", "odd-cubic.spec", "odd-mixed.spec", "odd-deep.spec"]
    )
    def test_point_values_match_table_entries(self, name):
        # expand takes each bracket at the point; the polynomial table of the
        # same monomial tuple, evaluated there, must give the same number
        spec = parse_spec((SPECS / name).read_text())
        expansion = build_expansion(to_odd_form(spec).p, spec.ring)
        tables = {}
        checked = 0
        for n in range(7):  # weights are >= 1, so |m| <= 6
            for term in expand_terms(expansion, n):
                if not term.multiset:
                    continue
                weights, halfdegs, point = zip(*term.multiset)
                if halfdegs not in tables:
                    tables[halfdegs] = BracketTable(QTuple([q_monomial(j) for j in halfdegs]))
                x = {f"x{k}": w for k, w in enumerate(weights, start=1)}
                expected = tables[halfdegs].entry(point).eval(x)
                assert term.bracket_value == expected, (n, term.multiset)
                checked += 1
        assert checked > 20 and any(len(h) == 3 for h in tables)

    def test_expansion_denominators_are_powers_of_two(self):
        spec = parse_spec((SPECS / "odd-deep.spec").read_text())
        expansion = build_expansion(to_odd_form(spec).p, spec.ring)
        zero = MultiPoly.zero(spec.ring)
        for n in range(7):
            prof = denom_profile(sum((t.contribution for t in expand_terms(expansion, n)), zero))
            assert prof.two_adic_only, n

    def test_negative_index_rejected(self):
        spec = parse_spec((SPECS / "useq.spec").read_text())
        expansion = build_expansion(to_odd_form(spec).p, spec.ring)
        with pytest.raises(ValueError):
            expand_terms(expansion, -1)

    def test_build_expansion_ring_mismatch(self):
        vs = VarSet.of("b")
        other = VarSet.of("z")
        p = UPoly(vs, [MultiPoly.zero(vs), MultiPoly.one(vs)])
        with pytest.raises(ValueError):
            build_expansion([p], other)

    def test_atom_fields(self):
        vs = VarSet.of("b")
        atom = Atom(2, 1, MultiPoly.one(vs))
        assert (atom.weight, atom.halfdeg) == (2, 1)
