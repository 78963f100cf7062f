"""Sequence generators, inter-family transforms, and integrality behavior."""

import random
from fractions import Fraction

import pytest

from conftest import apery_closed_form, conv_by_products, gen_apery, u_c0
from recint import multipoly, sequences
from recint.multipoly import MultiPoly, VarSet, denom_profile
from recint.reclang import ParamSeq, parse_poly
from recint.scalars import factorial, lcm_upto
from recint.sequences import (
    RING_BC,
    _inversion_sums,
    gen_u,
    gen_w,
    poch_products,
    seq_records,
    split_sqrt_parity,
    u_bin,
    u_conv,
    w_inv,
)


def random_poly(rng: random.Random, vs: VarSet, zero: float = 0.25) -> MultiPoly:
    """A random sparse polynomial over vs, zero with probability `zero`:
    up to six terms of degree up to 4 per variable, signed integer
    numerators over denominators up to 15, most of them not factorials."""
    if rng.random() < zero:
        return MultiPoly.zero(vs)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, 4) for _ in vs)
        terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 15))
    return MultiPoly(vs, terms)


class TestGenW:
    def test_frozen_first_terms(self):
        w = gen_w(4)
        assert w[0].text() == "1"
        assert w[1].text() == "b"
        assert w[2].text() == "1/2*b^2 - b"
        assert w[3].text() == "1/6*b^3 - 4/3*b^2 + 2*b + 1/3*c"
        assert w[4].text() == "1/24*b^4 - 5/6*b^3 + 9/2*b^2 + 1/3*b*c - 6*b - c"

    def test_recurrence_numerically(self):
        # independent scalar-arithmetic replay of the recurrence
        rng = random.Random(31)
        w = gen_w(15)
        for _ in range(25):
            pt = {"b": Fraction(rng.randint(-9, 9)), "c": Fraction(rng.randint(-9, 9))}
            vals = [Fraction(1)]
            for n in range(1, 16):
                acc = (pt["b"] - n * (n - 1)) * vals[n - 1]
                if n >= 3:
                    acc += pt["c"] * vals[n - 3]
                vals.append(acc / n)
            for n in range(16):
                assert w[n].eval(pt) == vals[n]

    def test_denominator_is_exactly_factorial(self):
        w = gen_w(15)
        for n in range(16):
            assert denom_profile(w[n]).lcm_denominator == factorial(n)

    def test_factorial_scale_clears_denominators(self):
        w = gen_w(30)
        for n in range(31):
            assert denom_profile(w[n] * factorial(n)).lcm_denominator == 1

    def test_lcm_scale_does_not_clear_from_n4(self):
        # lcm(1..n) is too small from n = 4 on: the leading coefficient of
        # w[n] is 1/n! and n! does not divide lcm(1..n) for n >= 4
        w = gen_w(8)
        for n in range(4):
            assert denom_profile(w[n] * lcm_upto(n)).lcm_denominator == 1
        for n in range(4, 9):
            assert denom_profile(w[n] * lcm_upto(n)).lcm_denominator > 1
        assert denom_profile(w[4] * lcm_upto(4)).lcm_denominator == 2

    def test_leading_coefficient(self):
        w = gen_w(10)
        for n in range(11):
            assert w[n].terms.get((n, 0)) == Fraction(1, factorial(n))

    def test_weighted_degree_is_index(self):
        # wt(b) = 1, wt(c) = 2: the maximum weighted degree equals n
        # (strict homogeneity fails from n = 2: w[2] mixes weights 1 and 2)
        w = gen_w(20)
        for n in range(21):
            weights = {i + 2 * j for (i, j) in w[n].terms}
            assert max(weights, default=0) == n
        assert {i + 2 * j for (i, j) in w[2].terms} == {1, 2}

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            gen_w(-1)

    def test_prefix_stability(self):
        # the cache returns identical objects for overlapping prefixes
        a = gen_w(5)
        b = gen_w(9)
        for n in range(6):
            assert a[n] == b[n]


class TestGenU:
    def test_frozen_first_terms(self):
        u = gen_u(3)
        assert u[0].text() == "1"
        assert u[1].text() == "-2*b"
        assert u[2].text() == "6*b^2 - 12*b - 2*c"
        assert u[3].text() == "-20*b^3 + 160*b^2 + 12*b*c - 240*b - 40*c"

    def test_integrality_at_unit_scale(self):
        u = gen_u(30)
        for n in range(31):
            assert denom_profile(u[n]).lcm_denominator == 1

    def test_weighted_degree_is_index(self):
        u = gen_u(20)
        for n in range(21):
            weights = {i + 2 * j for (i, j) in u[n].terms}
            assert max(weights, default=0) == n
        assert {i + 2 * j for (i, j) in u[2].terms} == {1, 2}

    def test_parity_of_leading_sign(self):
        u = gen_u(8)
        for n in range(9):
            lead = u[n].terms.get((n, 0))
            assert lead is not None
            assert (lead < 0) == (n % 2 == 1)


class TestTransforms:
    def test_convolution_matches_generator(self):
        u = gen_u(12)
        conv = u_conv(12, gen_w(24))
        assert all(conv[m] == u[m] for m in range(13))

    @pytest.mark.parametrize("n", range(11))
    def test_convolution_matches_generator_at_every_length(self, n):
        assert u_conv(n, gen_w(2 * n)).terms == gen_u(n).terms

    @pytest.mark.parametrize("nvars", range(4))
    @pytest.mark.parametrize("seed", range(6))
    def test_convolution_matches_term_pairs(self, nvars, seed):
        rng = random.Random(1000 * nvars + seed)
        vs = VarSet(("x", "y", "z")[:nvars])
        n = rng.randint(0, 8)
        w = ParamSeq(vs, [random_poly(rng, vs) for _ in range(2 * n + 1 + rng.randint(0, 2))])
        assert u_conv(n, w).terms == conv_by_products(n, w).terms

    @pytest.mark.parametrize("nvars", range(4))
    def test_convolution_with_rows_all_zero(self, nvars):
        # w[k] = 0 from k = 2 on: every row of u[m] is zero for m >= 2
        rng = random.Random(7 + nvars)
        vs = VarSet(("x", "y", "z")[:nvars])
        head = [random_poly(rng, vs, zero=0) for _ in range(2)]
        w = ParamSeq(vs, head + [MultiPoly.zero(vs)] * 9)
        u = u_conv(5, w)
        assert u.terms == conv_by_products(5, w).terms
        assert not u[1].is_zero() and all(u[m].is_zero() for m in range(2, 6))

    def test_convolution_of_monomials_meets_the_bound(self):
        # w[k] = a_k x^k y^(k % 3) / q_k: every row of u[m] is a monomial
        # x^(2m) y^(k % 3 + (2m - k) % 3), so nothing cancels at the top
        vs = VarSet.of("x", "y")
        w = ParamSeq(
            vs,
            [
                MultiPoly.monomial(vs, (k, k % 3), Fraction((-1) ** (k // 2) * (k + 2), 2 * k + 3))
                for k in range(17)
            ],
        )
        u = u_conv(8, w)
        assert u.terms == conv_by_products(8, w).terms
        assert all(max(e[0] for e in u[m].terms) == 2 * m for m in range(9))

    def test_node_sets_of_the_base_sequence(self):
        # supp w[k] lies in i + 3j <= k, so the node set of u[m] is the lower
        # set i + 3j <= 2m, read from the corners of the supports alone
        _, _, plans = sequences._prepare(20, gen_w(40))
        sizes = []
        for m in range(21):
            nodes = sequences._lower(plans[m][0])
            bound = {(i, j) for j in range(2 * m // 3 + 1) for i in range(2 * m - 3 * j + 1)}
            assert set(nodes) == bound
            assert len(set(nodes)) == len(nodes)
            sizes.append(len(nodes))
        assert sum(sizes) == 2282

    @pytest.mark.parametrize("nvars", (2, 3))
    def test_convolution_meets_the_bound_at_every_corner(self, nvars):
        # w[k] = a_k x^e with the exponents of e summing to k: every row of
        # u[m] is a monomial on the plane |e| = 2m, so the row sums are the
        # corners of L_m, and each has a nonzero coefficient in u[m]
        rng = random.Random(50 + nvars)
        vs = VarSet(("x", "y", "z")[:nvars])
        terms = []
        for k in range(17):
            cuts = sorted(rng.randint(0, k) for _ in range(nvars - 1))
            e = tuple(b - a for a, b in zip([0, *cuts], [*cuts, k]))
            a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 15))
            terms.append(MultiPoly.monomial(vs, e, a))
        w = ParamSeq(vs, terms)
        u = u_conv(8, w)
        assert u.terms == conv_by_products(8, w).terms
        _, _, plans = sequences._prepare(8, w)
        for m in range(9):
            assert set(u[m].terms) == set(plans[m][0])
        assert max(len(plans[m][0]) for m in range(9)) > 2

    @pytest.mark.parametrize("nvars", (1, 2, 3))
    @pytest.mark.parametrize("seed", range(4))
    def test_convolution_of_supports_with_holes(self, nvars, seed):
        # supports that are not lower sets: no constant term, exponents up
        # to 6 with gaps, so the corners alone must carry the bound
        rng = random.Random(2000 + 10 * nvars + seed)
        vs = VarSet(("x", "y", "z")[:nvars])
        n = rng.randint(3, 6)
        w = []
        for _ in range(2 * n + 1):
            exps = {tuple(rng.choice((1, 2, 4, 6)) for _ in vs) for _ in range(rng.randint(1, 4))}
            coefs = {e: Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12)) for e in exps}
            w.append(MultiPoly(vs, coefs))
        w = ParamSeq(vs, w)
        assert all((0,) * nvars not in p.terms for p in w.terms)
        assert u_conv(n, w).terms == conv_by_products(n, w).terms

    def test_convolution_uses_no_product_kernel(self, monkeypatch):
        w, u = gen_w(24), gen_u(12)

        def refuse(*args, **kwargs):
            raise AssertionError("u_conv reached the product kernel")

        monkeypatch.setattr(sequences, "sum_of_products", refuse)
        monkeypatch.setattr(multipoly, "_pair_sums", refuse)
        assert u_conv(12, w) == u

    def test_convolution_rejects_mixed_rings(self):
        w = gen_w(4)
        mixed = ParamSeq(w.ring, w.terms[:4] + [MultiPoly.one(VarSet.of("b"))])
        with pytest.raises(ValueError):
            u_conv(2, mixed)

    def test_convolution_rejects_negative_length(self):
        with pytest.raises(ValueError, match="negative length"):
            u_conv(-1, gen_w(4))

    def test_binomial_formula_matches_generator(self):
        u = gen_u(12)
        ub = u_bin(12, gen_w(12))
        assert all(ub[m] == u[m] for m in range(13))

    def test_conv_requires_double_length(self):
        with pytest.raises(ValueError):
            u_conv(5, gen_w(9))

    def test_bin_requires_full_length(self):
        with pytest.raises(ValueError):
            u_bin(5, gen_w(4))

    def test_bin_rejects_negative_length(self):
        with pytest.raises(ValueError, match="negative length"):
            u_bin(-1, gen_w(4))

    def test_inversion_matches_scaled_w(self):
        w = gen_w(10)
        wi = w_inv(10, gen_u(10))
        for n in range(11):
            assert wi[n] == w[n] * factorial(n)

    def test_inversion_requires_full_length(self):
        with pytest.raises(ValueError):
            w_inv(5, gen_u(4))

    def test_inversion_rejects_negative_length(self):
        with pytest.raises(ValueError, match="negative length"):
            w_inv(-1, gen_u(4))

    def test_inversion_raw_sum_has_no_odd_sqrt_powers(self):
        u = gen_u(8)
        for n in range(9):
            raw = _inversion_sums(u, [n])[0]
            _, odd = split_sqrt_parity(raw)
            assert odd.is_zero()

    def test_sqrt_parity_split_recombines(self):
        from recint.sequences import RING_BS

        p = parse_poly("b^2*s + 3*s^2 - s^3 + 7", RING_BS)
        even, odd = split_sqrt_parity(p)
        assert even + odd == p
        assert all(j % 2 == 0 for (_, j) in even.terms)
        assert all(j % 2 == 1 for (_, j) in odd.terms)

    def test_odd_power_cancellation_is_structural(self):
        # the cancellation is a binomial-coefficient identity: it holds for
        # arbitrary input sequences, not just the genuine u family
        rng = random.Random(7)
        fake_terms = [MultiPoly.one(RING_BC)] + [
            MultiPoly(
                RING_BC,
                {
                    (rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-9, 9))
                    for _ in range(3)
                },
            )
            for _ in range(6)
        ]
        fake = type(gen_u(0))(RING_BC, fake_terms)
        for n in range(7):
            _, odd = split_sqrt_parity(_inversion_sums(fake, [n])[0])
            assert odd.is_zero()

    def test_poisoned_input_breaks_reconstruction(self):
        # what a wrong input does break is the equality with the scaled
        # base sequence, not the parity cancellation
        u = gen_u(4)
        poisoned = type(u)(u.ring, list(u.terms))
        poisoned.terms[1] = poisoned.terms[1] + 1
        out = w_inv(4, poisoned)
        w = gen_w(4)
        assert any(out[n] != w[n] * factorial(n) for n in range(5))


class TestSpecializations:
    def test_poch_product_structure(self):
        pochs = poch_products(3)
        assert pochs[3] == parse_poly("-b^3 + 8*b^2 - 12*b", pochs[1].vs)
        assert pochs[0].constant_value() == 1

    def test_c0_closed_form_matches_generator(self):
        u = gen_u(15)
        for n in range(16):
            collapsed = u[n].subst_value("c", 0)
            expected = u_c0(n).cast(RING_BC)
            assert collapsed == expected

    def test_c0_closed_form_values(self):
        assert u_c0(2).text() == "6*b^2 - 12*b"


class TestApery:
    def test_frozen_prefix(self):
        assert gen_apery(5) == [1, 5, 73, 1445, 33001, 819005]

    def test_matches_closed_form(self):
        terms = gen_apery(20)
        for n in range(21):
            assert terms[n] == apery_closed_form(n)

    def test_all_divisions_exact(self):
        # the generator raises if any /n^3 step leaves a remainder
        gen_apery(40)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gen_apery(-2)


class TestRecords:
    def test_seq_records_shape(self):
        recs = seq_records(gen_w(3))
        assert [r["n"] for r in recs] == [0, 1, 2, 3]
        assert recs[3]["poly"] == "1/6*b^3 - 4/3*b^2 + 2*b + 1/3*c"
        assert recs[3]["denominator"] == 6
        assert recs[3]["v2_defect"] == 1
        assert recs[2]["denominator"] == 2

    def test_paramseq_container(self):
        w = gen_w(4)
        assert len(w) == 5
        assert w[2] is w.terms[2]
