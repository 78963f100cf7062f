"""Truncated series ring, inverse square root, pinned operators, identity battery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    clausen_rhs_by_terms,
    derivation_lhs_by_products,
    dot_by_products,
    forbid_unpacking,
    id3_rhs_by_terms,
    perturb_derivation,
    r2_rhs_by_terms,
    run_cli,
)
from recint import sequences, series
from recint.multipoly import MultiPoly, VarSet, _pack
from recint.scalars import binomial
from recint.sequences import RING_BC, gen_u, gen_w, poch_products
from recint.series import (
    OdeOperator,
    TruncSeries,
    _clausen_rhs,
    _dot,
    _id3_rhs,
    _r2_rhs,
    base_ode,
    base_series,
    derivation_identity_check,
    inv_sqrt,
    product_series,
    symmetric_square_ode,
    verify_clausen,
    verify_hg_c0,
    verify_id3,
    verify_ode_g,
    verify_ode_product,
    verify_r2,
)

S = VarSet.of()  # scalar series (no parameters)


def const_series(vs: VarSet, order: int, values) -> TruncSeries:
    return TruncSeries(vs, order, [MultiPoly.const(vs, v) for v in values])


@st.composite
def scalar_series(draw, order=8):
    vals = draw(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=6),
            min_size=0,
            max_size=order + 1,
        )
    )
    return const_series(S, order, vals)


class TestTruncSeriesAlgebra:
    def test_construction_pads_and_truncates(self):
        s = const_series(S, 3, [1, 2])
        assert [c.constant_value() for c in s.coeffs] == [1, 2, 0, 0]
        t = const_series(S, 1, [1, 2, 3, 4])
        assert [c.constant_value() for c in t.coeffs] == [1, 2]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(S, -1)

    def test_geometric_inverse(self):
        order = 10
        geo = const_series(S, order, [1] * (order + 1))  # 1/(1-t)
        one_minus_t = const_series(S, order, [1, -1])
        assert (geo * one_minus_t) == TruncSeries(S, order, [1])

    def test_mul_truncates(self):
        t = const_series(S, 2, [0, 1])
        cube = t * t * t
        assert cube.is_zero()  # t^3 overflows order 2

    @given(scalar_series(), scalar_series(), scalar_series())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(scalar_series(), scalar_series())
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            const_series(S, 2, [1]) + const_series(S, 3, [1])

    def test_shift_and_reflect(self):
        s = const_series(S, 4, [1, 2, 3])
        assert [c.constant_value() for c in s.shift(2).coeffs] == [0, 0, 1, 2, 3]
        assert [c.constant_value() for c in s.reflect().coeffs] == [1, -2, 3, 0, 0]
        with pytest.raises(ValueError):
            s.shift(-1)

    def test_reflect_is_involution(self):
        s = const_series(S, 5, [3, 1, 4, 1, 5, 9])
        assert s.reflect().reflect() == s

    def test_diff_drops_order(self):
        s = const_series(S, 4, [5, 1, 2, 3, 4])
        d = s.diff()
        assert d.order == 3
        assert [c.constant_value() for c in d.coeffs] == [1, 4, 9, 16]

    def test_theta_preserves_order(self):
        s = const_series(S, 4, [5, 1, 2, 3, 4])
        th = s.theta()
        assert th.order == 4
        assert [c.constant_value() for c in th.coeffs] == [0, 1, 4, 9, 16]

    def test_theta_equals_t_times_diff(self):
        s = const_series(S, 6, [2, 7, 1, 8, 2, 8, 1])
        viaderiv = s.diff()  # order 5
        assert s.theta().truncate(5) == TruncSeries(
            S, 5, [MultiPoly.zero(S)] + viaderiv.coeffs[:5]
        )

    def test_truncate_cannot_extend(self):
        s = const_series(S, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            s.truncate(5)

    def test_first_mismatch(self):
        a = const_series(S, 5, [1, 2, 3, 4])
        b = const_series(S, 5, [1, 2, 9, 4])
        assert a.first_mismatch(b) == (2, "3", "9")
        assert a.first_mismatch(a) is None


class TestInvSqrt:
    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            inv_sqrt(const_series(S, 3, [2, 1]))

    def test_one_minus_t_expansion(self):
        # (1 - t)^(-1/2) has coefficients binom(2k, k) / 4^k
        s = inv_sqrt(const_series(S, 8, [1, -1]))
        for k, c in enumerate(s.coeffs):
            assert c.constant_value() == Fraction(binomial(2 * k, k), 4**k)

    @given(scalar_series(order=7))
    @settings(max_examples=40, deadline=None)
    def test_square_times_input_is_one(self, tail):
        # squeeze arbitrary tails under a unit constant term
        a = TruncSeries(S, 7, [1]) + tail.shift(1)
        s = inv_sqrt(a)
        assert s * s * a == TruncSeries(S, 7, [1])

    def test_parametric_input(self):
        # at r2's order too: its right side takes s = inv_sqrt(1 + 4c t^4) on trust
        c = MultiPoly.variable(RING_BC, "c")
        for order in (8, 40):
            quartic = TruncSeries(RING_BC, order, [MultiPoly.one(RING_BC), 0, 0, 0, c * 4])
            s = inv_sqrt(quartic)
            assert s * s * quartic == TruncSeries(RING_BC, order, [1])


class TestPinnedOperators:
    def test_base_residual_vanishes(self):
        res = base_ode().apply(base_series(20))
        assert res.order == 18
        assert res.is_zero()

    def test_product_residual_vanishes(self):
        res = symmetric_square_ode().apply(product_series(20))
        assert res.order == 17
        assert res.is_zero()

    def test_residual_detects_perturbation(self):
        g = base_series(12)
        poisoned = TruncSeries(
            RING_BC,
            12,
            [c + 1 if k == 7 else c for k, c in enumerate(g.coeffs)],
        )
        assert not base_ode().apply(poisoned).is_zero()

    def test_residual_linearity(self):
        rng = random.Random(99)
        op = base_ode()
        for _ in range(20):
            a = TruncSeries(
                RING_BC, 8, [MultiPoly.const(RING_BC, rng.randint(-9, 9)) for _ in range(9)]
            )
            b = TruncSeries(
                RING_BC, 8, [MultiPoly.const(RING_BC, rng.randint(-9, 9)) for _ in range(9)]
            )
            assert op.apply(a + b) == op.apply(a) + op.apply(b)

    def test_operator_rejects_small_series(self):
        with pytest.raises(ValueError):
            symmetric_square_ode().apply(TruncSeries(RING_BC, 2, [1]))

    def test_max_order(self):
        assert base_ode().max_order == 2
        assert symmetric_square_ode().max_order == 3


def naive_mul(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """Reference product: out[i + j] += x[i] * y[j], one MultiPoly at a time."""
    return TruncSeries(x.vs, x.order, dot_by_products(x.vs, x.order, [(x, y, 1)]))


def naive_apply(op: OdeOperator, y: TruncSeries) -> TruncSeries:
    """Reference operator: differentiate k times, multiply term by term, truncate."""
    n = y.order
    out = [MultiPoly.zero(op.vs)] * (n + 1)
    for k, coeffs in op.terms:
        dk = list(y.coeffs)
        for _ in range(k):
            dk = [(i + 1) * dk[i + 1] for i in range(len(dk) - 1)]
        for j, cj in enumerate(coeffs):
            for i, di in enumerate(dk):
                if i + j <= n:
                    out[i + j] = out[i + j] + cj * di
    top = n - op.max_order
    return TruncSeries(op.vs, top, out[: top + 1])


def random_poly(rng: random.Random) -> MultiPoly:
    """A sparse polynomial in b, c with mixed denominators; zero one time in four."""
    if rng.random() < 0.25:
        return MultiPoly.zero(RING_BC)
    terms = {
        (rng.randint(0, 3), rng.randint(0, 2)): Fraction(
            rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 35))
        )
        for _ in range(rng.randint(1, 4))
    }
    return MultiPoly(RING_BC, terms)


def random_series(rng: random.Random, order: int) -> TruncSeries:
    return TruncSeries(RING_BC, order, [random_poly(rng) for _ in range(order + 1)])


def proportional_bases(rng: random.Random) -> list[MultiPoly]:
    """Three base polynomials: p with 2-4 terms, q with p's exponents but not
    proportional to p, and an unrelated r; all have rational coefficients."""

    def coef():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 5, 6)))

    exps = {(rng.randint(0, 3), rng.randint(0, 2)) for _ in range(rng.randint(2, 4))}
    while len(exps) < 2:
        exps.add((rng.randint(0, 3), rng.randint(0, 2)))
    p = MultiPoly(RING_BC, {e: coef() for e in exps})
    while True:
        q = MultiPoly(RING_BC, {e: coef() for e in exps})
        if len({q.terms[e] / p.terms[e] for e in exps}) > 1:
            break
    r = MultiPoly(RING_BC, {(rng.randint(0, 3), rng.randint(0, 2)): coef() for _ in range(3)})
    return [p, q, r]


def proportional_series(rng: random.Random, order: int, bases: list[MultiPoly]) -> TruncSeries:
    """Coefficients are zero or rational multiples, of either sign, of the bases."""
    coeffs = []
    for _ in range(order + 1):
        if rng.random() < 0.2:
            coeffs.append(MultiPoly.zero(RING_BC))
        else:
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((1, 2, 3, 7, 12)))
            coeffs.append(rng.choice(bases) * scale)
    return TruncSeries(RING_BC, order, coeffs)


def unfused_derivation_sum(f: TruncSeries, k: int) -> TruncSeries:
    """sum_j (-1)^j theta^j(f) theta^(2k-j)(f) as 2k+1 separate products and
    2k additions: the loop derivation_identity_check used before the sum was
    fused, with naive_mul for each product."""
    powers = [f]
    for _ in range(2 * k):
        powers.append(powers[-1].theta())
    acc = TruncSeries(f.vs, f.order)
    for j in range(2 * k + 1):
        prod = naive_mul(powers[j], powers[2 * k - j])
        acc = acc - prod if j % 2 else acc + prod
    return acc


class TestAgainstNaiveReference:
    """The fused products equal the term-by-term reference loops exactly."""

    @pytest.mark.parametrize("seed", range(12))
    def test_product(self, seed):
        rng = random.Random(seed)
        order = rng.randint(0, 9)
        x, y = random_series(rng, order), random_series(rng, order)
        assert x * y == naive_mul(x, y)
        assert x * x == naive_mul(x, x)

    def test_product_of_pinned_series(self):
        g = base_series(14)
        assert g * g.reflect() == naive_mul(g, g.reflect())
        theta = g.theta().theta().theta()
        assert g * theta == naive_mul(g, theta)

    @pytest.mark.parametrize("seed", range(16))
    def test_proportional_coefficients(self, seed):
        # products of multiples of 2-3 bases: squares, g * g(-t) and
        # theta^j-scaled copies
        rng = random.Random(1000 + seed)
        order = rng.randint(3, 10)
        bases = proportional_bases(rng)[: rng.choice((2, 3))]
        x, y = proportional_series(rng, order, bases), proportional_series(rng, order, bases)
        assert x * y == naive_mul(x, y)
        assert x * x == naive_mul(x, x)
        assert x * x.reflect() == naive_mul(x, x.reflect())
        assert x.reflect() * y == naive_mul(x.reflect(), y)
        tx = x
        for _ in range(3):
            tx = tx.theta()
            assert x * tx == naive_mul(x, tx)
            assert tx * y.reflect() == naive_mul(tx, y.reflect())

    @pytest.mark.parametrize("seed", range(8))
    def test_odd_degrees_cancel_to_exact_zero(self, seed):
        rng = random.Random(2000 + seed)
        x = proportional_series(rng, rng.randint(3, 11), proportional_bases(rng))
        prod = x * x.reflect()
        assert prod == naive_mul(x, x.reflect())
        for k in range(1, x.order + 1, 2):
            assert prod.coeffs[k].num == {} and prod.coeffs[k].den == 1

    @pytest.mark.parametrize("k", range(4))
    def test_fused_derivation_sum(self, k):
        rng = random.Random(3000 + k)
        cases = (
            base_series(8),
            proportional_series(rng, 9, proportional_bases(rng)),
            random_series(rng, 7),
        )

        def weight(i, j):  # theta^t(f)[i] theta^(2k-t)(f)[j] = i^t j^(2k-t) f[i] f[j]
            return sum((-1) ** t * i**t * j ** (2 * k - t) for t in range(2 * k + 1))

        for f in cases:
            fused = TruncSeries(f.vs, f.order, _dot(f.vs, f.order, [(f, f, weight)]))
            assert fused == unfused_derivation_sum(f, k)

    @pytest.mark.parametrize("seed", range(12))
    def test_apply(self, seed):
        rng = random.Random(seed)
        y = random_series(rng, rng.randint(3, 9))
        for op in (base_ode(), symmetric_square_ode()):
            assert op.apply(y) == naive_apply(op, y)
        ks = rng.sample(range(4), rng.randint(1, 3))
        op = OdeOperator(
            RING_BC,
            tuple(
                (k, [random_poly(rng) for _ in range(rng.randint(0, 4))])
                for k in ks
            ),
        )
        assert op.apply(y) == naive_apply(op, y)

    def test_apply_to_pinned_series(self):
        assert base_ode().apply(base_series(16)) == naive_apply(base_ode(), base_series(16))
        op, y = symmetric_square_ode(), product_series(16)
        assert op.apply(y) == naive_apply(op, y)


class TestSeriesBuilders:
    def test_base_series_matches_generator(self):
        g = base_series(10)
        w = gen_w(10)
        assert g.coeffs == w.terms[:11]

    def test_product_series_is_even_with_u_coefficients(self):
        G = product_series(12)
        u = gen_u(6)
        for k, c in enumerate(G.coeffs):
            if k % 2:
                assert c.is_zero()
            else:
                assert c == u[k // 2]

    def test_product_series_equals_reflected_product(self):
        order = 14
        g = base_series(order)
        assert g * g.reflect() == product_series(order)


class TestIdentityBattery:
    def test_id3(self):
        report = verify_id3(16)
        assert report.passed and report.first_mismatch is None

    def test_r2(self):
        assert verify_r2(16).passed

    def test_hg_c0(self):
        assert verify_hg_c0(12).passed

    def test_clausen(self):
        assert verify_clausen(10).passed

    def test_ode_reports(self):
        assert verify_ode_g(16).passed
        assert verify_ode_product(16).passed

    @given(scalar_series(order=9), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_derivation_identity_holds_for_all_series(self, f, k):
        # the telescoping identity is exact for arbitrary series, any k
        [report] = derivation_identity_check(f, [k])
        assert report.passed

    def test_derivation_on_base_series(self):
        f = base_series(10)
        for report in derivation_identity_check(f, range(3)):
            assert report.passed

    def test_derivation_rejects_negative_k(self):
        with pytest.raises(ValueError):
            derivation_identity_check(base_series(4), [-1])

    def test_identities_trivial_at_origin(self):
        # at b = c = 0 every positive-index term vanishes, collapsing the
        # battery to 1 = 1
        for n in range(1, 13):
            assert gen_w(12)[n].eval({"b": 0, "c": 0}) == 0
            assert gen_u(12)[n].eval({"b": 0, "c": 0}) == 0

    def test_report_serialization(self):
        rep = verify_id3(8)
        doc = rep.to_dict()
        assert doc["identity"] == "id3"
        assert doc["passed"] is True
        assert doc["first_mismatch"] is None

    def test_mismatch_reported_with_degree(self):
        a = const_series(S, 6, [1, 2, 3])
        b = const_series(S, 6, [1, 2, 4])
        from recint.series import _report

        rep = _report("probe", 6, a, b)
        assert not rep.passed
        assert rep.first_mismatch[0] == 2


def kept_at(p: MultiPoly, width: int) -> MultiPoly:
    """p with its keys kept at the given field width, as a kernel result
    whose total-degree bound needed that width keeps them."""
    deg = (1 << width) - 1
    keys = _pack(list(zip(*p.num)), width, len(p.num))
    return MultiPoly._new(p.vs, p.den, (width, deg, keys, list(p.num.values())))


def rand_poly(rng: random.Random, vs: VarSet) -> MultiPoly:
    """A nonzero polynomial over vs with 1-4 terms and mixed denominators."""
    while True:
        terms = {
            tuple(rng.randint(0, 3) for _ in vs): Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))
            for _ in range(rng.randint(1, 4))
        }
        p = MultiPoly(vs, terms)
        if not p.is_zero():
            return p


def recorded_rows(monkeypatch) -> list[list]:
    """The groups of rows that _dot hands to the product kernel, one list per
    call, recorded as the calls are made."""
    calls = []
    kernel = series.sum_of_products

    def recording(vs, groups):
        groups = [list(g) for g in groups]
        calls.append(groups)
        return kernel(vs, groups)

    monkeypatch.setattr(series, "sum_of_products", recording)
    return calls


class TestPackedClassMerge:
    """_dot merges the rows of a degree on the same unordered pair of
    coefficient objects, adding their weights; every case is checked against
    a reference of tests/conftest.py or naive_mul."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_parts_kept_at_different_widths_are_one_row(self, seed, monkeypatch):
        # two proportional coefficients stated as one object kept wide, with
        # their factors as weights: one row, equal to the product of the two
        # scaled copies kept at different widths
        rng = random.Random(4000 + seed)
        vs = VarSet(("b", "c", "d")[: 2 + seed % 2])
        base, r = rand_poly(rng, vs), rand_poly(rng, vs)
        narrow = base.total_degree().bit_length()
        f1, f2 = Fraction(rng.randint(1, 9), rng.randint(1, 5)), Fraction(-rng.randint(1, 9), 7)
        wide = kept_at(base, narrow + 3 + seed)
        x, y = TruncSeries(vs, 1, [wide, wide]), TruncSeries(vs, 1, [r, r])
        calls = recorded_rows(monkeypatch)
        out = _dot(vs, 1, [(x, y, lambda i, j: f2 if i else f1)])
        copies = TruncSeries(vs, 1, [kept_at(base * f1, narrow), kept_at(base * f2, narrow + 3 + seed)])
        assert out == naive_mul(copies, y).coeffs
        [groups] = calls
        assert [len(g) for g in groups] == [1, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_distinct_parts_with_one_signature_stay_apart(self, seed, monkeypatch):
        # same lead exponent, lead coefficient and term count, not proportional
        rng = random.Random(5000 + seed)
        vs = VarSet.of("b", "c")
        lead = rng.randint(1, 5)
        mid = rng.sample([m for m in range(-7, 8) if m], 2)
        p, q = (MultiPoly(vs, {(2, 0): lead, (1, 1): m, (0, 0): 1}) for m in mid)
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)) for _ in range(2)]
        x = TruncSeries(vs, 1, [p * scales[0], q * scales[1]])
        r = rand_poly(rng, vs)
        y = TruncSeries(vs, 1, [r, r])
        calls = recorded_rows(monkeypatch)
        assert x * y == naive_mul(x, y)
        [groups] = calls
        assert [len(g) for g in groups] == [1, 2]

    def test_weights_over_unequal_denominators_are_added(self, monkeypatch):
        vs = VarSet.of("b", "c")
        p = MultiPoly(vs, {(1, 0): 1, (0, 1): 1})
        r = MultiPoly(vs, {(0, 1): 1, (0, 0): 3})
        # p * r at t^1 twice, from x[0] * y[1] at weight 1/2 and x[1] * y[0]
        # at weight 1/3: one row of weight 5/6
        x, y = TruncSeries(vs, 1, [p, p]), TruncSeries(vs, 1, [r, r])
        calls = recorded_rows(monkeypatch)
        out = _dot(vs, 1, [(x, y, lambda i, j: Fraction(1, 2 + i))])
        scaled = TruncSeries(vs, 1, [p * Fraction(1, 2), p * Fraction(1, 3)])
        assert out == naive_mul(scaled, y).coeffs
        assert out[1] == p * r * Fraction(5, 6)
        [groups] = calls
        [(_, _, r)] = groups[1]
        assert r == Fraction(5, 6)

    def test_weights_that_cancel_to_zero_are_dropped(self, monkeypatch):
        vs = VarSet.of("b", "c")
        p = MultiPoly(vs, {(1, 0): 1, (0, 0): 1})
        r = MultiPoly(vs, {(0, 1): 1, (0, 0): 3})
        # p * r at t^1 from x[0] * y[1] at weight 1/2 and x[1] * y[0] at
        # weight -1/2 cancels exactly
        x, y = TruncSeries(vs, 2, [p, p]), TruncSeries(vs, 2, [r, r])
        calls = recorded_rows(monkeypatch)
        out = _dot(vs, 2, [(x, y, lambda i, j: Fraction(1 - 2 * i, 2))])
        scaled = TruncSeries(vs, 2, [p * Fraction(1, 2), p * Fraction(-1, 2)])
        assert out == naive_mul(scaled, y).coeffs
        assert out[1].is_zero()
        [groups] = calls
        assert [len(g) for g in groups] == [1, 0, 1]
        # and across pairs: x * y - y * x is zero in every degree
        one, minus = (lambda i, j: 1), (lambda i, j: -1)
        assert _dot(vs, 2, [(x, y, one), (y, x, minus)]) == [MultiPoly.zero(vs)] * 3
        assert [len(g) for g in calls[-1]] == [0, 0, 0]

    @pytest.mark.parametrize("nvars", range(3))
    @pytest.mark.parametrize("seed", range(6))
    def test_over_zero_one_and_two_variables(self, nvars, seed):
        rng = random.Random(6000 + 10 * nvars + seed)
        vs = VarSet(("b", "c")[:nvars])
        bases = [rand_poly(rng, vs) for _ in range(2)]
        order = rng.randint(2, 8)

        def rand_series():
            coeffs = []
            for _ in range(order + 1):
                scale = Fraction(rng.choice((-1, 0, 1, 2)) * rng.randint(1, 6), rng.choice((1, 2, 3, 5)))
                coeffs.append(rng.choice(bases) * scale)
            return TruncSeries(vs, order, coeffs)

        x, y = rand_series(), rand_series()
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        # x * x(-t) and theta(y) * x as weights on x, x and y, x
        pairs = [(x, y, lambda i, j: s), (x, x, lambda i, j: (-1) ** j), (y, x, lambda i, j: -2 * i)]
        expected = dot_by_products(vs, order, [(x, y, s), (x, x.reflect(), 1), (y.theta(), x, -2)])
        assert _dot(vs, order, pairs) == expected
        assert x * y == naive_mul(x, y)

    def test_constant_series_merge_into_one_row_per_degree(self, monkeypatch):
        # every coefficient is one object, so each degree's rows are one pair
        c = MultiPoly.const(S, Fraction(-3, 4))
        x = TruncSeries(S, 4, [c] * 5)
        calls = recorded_rows(monkeypatch)
        assert x * x == naive_mul(x, x)
        [groups] = calls
        assert [len(g) for g in groups] == [1] * 5
        assert [r for [(_, _, r)] in groups] == [1, 2, 3, 4, 5]


class TestWeightsReplaceScaledSeries:
    """hg-c0 and the derivation check state a(-t) and theta^j(f) as weights;
    they build no reflected or theta series."""

    def test_checks_pass_with_theta_and_reflect_unusable(self, monkeypatch):
        def unusable(self):
            raise AssertionError("a scaled series was built")

        monkeypatch.setattr(TruncSeries, "theta", unusable)
        monkeypatch.setattr(TruncSeries, "reflect", unusable)
        for identity in ("derivation", "hg-c0"):
            code, out, err = run_cli("verify", identity, "--order", "8")
            assert (code, err) == (0, "") and out.startswith(f"{identity}: PASS")

    def test_rows_per_degree(self, monkeypatch):
        calls = recorded_rows(monkeypatch)
        assert verify_hg_c0(12).passed
        [groups] = calls
        assert [len(g) for g in groups] == [0 if d % 2 else d // 2 + 1 for d in range(13)]
        calls.clear()
        assert all(r.passed for r in derivation_identity_check(base_series(12), range(3)))
        assert len(calls) == 13
        for d, groups in enumerate(calls):
            assert len(groups) == 6 and all(len(g) <= d // 2 + 1 for g in groups)


class TestSeriesProductsOnPackedForm:
    def test_no_kept_coefficient_is_unpacked(self, monkeypatch):
        # the series products merge rows and compare on the packed form alone
        f12, f8 = base_series(12), base_series(8)
        forbid_unpacking(monkeypatch)
        assert verify_hg_c0(20).passed
        assert verify_clausen(12).passed
        for report in derivation_identity_check(f12, range(3)):
            assert report.passed
        prod = f8 * f8.reflect()
        assert prod.coeffs[1].is_zero() and not prod.coeffs[2].is_zero()


class TestDerivationFailurePath:
    """The identity holds for every series, so the failure path is reached
    by perturbing one group of the check's kernel call in one degree."""

    def test_perturbed_right_side_of_k2_fails_at_its_degree(self, monkeypatch):
        f = base_series(20)
        perturb_derivation(monkeypatch, degree=7, group=5)
        reports = derivation_identity_check(f, (1, 0, 2))
        assert [(r.passed, r.note) for r in reports] == [(True, "k=1"), (True, "k=0"), (False, "k=2")]
        lhs = derivation_lhs_by_products(f, 2, 7)
        assert reports[2].first_mismatch == (7, lhs.text(), (lhs + Fraction(7, 2)).text())
        assert reports[0].first_mismatch is reports[1].first_mismatch is None

    def test_perturbed_left_side_of_k1_fails_the_k1_report(self, monkeypatch):
        f = base_series(12)
        perturb_derivation(monkeypatch, degree=3, group=0)
        reports = derivation_identity_check(f, (1, 0, 2))
        assert [r.passed for r in reports] == [False, True, True]
        lhs = derivation_lhs_by_products(f, 1, 3)
        assert reports[0].first_mismatch == (3, (lhs + 1).text(), lhs.text())


class TestFusedRightSides:
    """The right sides of id3, r2 and the Clausen square are one kernel call
    each; tests/conftest.py keeps the term-by-term sums as references."""

    @pytest.mark.parametrize("order", range(13))
    def test_id3_matches_term_by_term(self, order):
        w = gen_w(order // 2)
        assert _id3_rhs(order, w).coeffs == id3_rhs_by_terms(order, w).coeffs

    @pytest.mark.parametrize("order", [*range(13), 24, 40])
    def test_r2_matches_term_by_term(self, order):
        w = gen_w(order // 2)
        assert _r2_rhs(order, w).coeffs == r2_rhs_by_terms(order, w).coeffs

    @pytest.mark.parametrize("order", [*range(13), 20, 30])
    def test_clausen_matches_term_by_term(self, order):
        pochs = poch_products(order)
        assert _clausen_rhs(order, pochs).coeffs == clausen_rhs_by_terms(order, pochs).coeffs

    @pytest.mark.parametrize("verify, degree", [(verify_id3, 4), (verify_r2, 4), (verify_clausen, 2)])
    def test_one_wrong_binomial_fails_the_identity(self, monkeypatch, verify, degree):
        # binomial(4, 2) is in every right side, first at this degree
        monkeypatch.setattr(series, "binomial", lambda n, k: binomial(n, k) + ((n, k) == (4, 2)))
        report = verify(10)
        assert not report.passed
        assert report.first_mismatch[0] == degree

    def test_id3_does_not_call_u_bin(self, monkeypatch):
        # id3 and the bin route of verify must stay independent
        def refuse(*args):
            raise AssertionError("verify_id3 called u_bin")

        assert "u_bin" not in vars(series)
        monkeypatch.setattr(sequences, "u_bin", refuse)
        assert verify_id3(24).passed

    @pytest.mark.parametrize(
        "verify, order, products", [(verify_clausen, 30, 1), (verify_r2, 40, 1), (verify_id3, 40, 0)]
    )
    def test_at_most_order_plus_one_additions(self, monkeypatch, verify, order, products):
        # the sums are kernel calls, so only the inputs (the Pochhammer
        # factors i(i+1) - b of clausen) may add polynomials; the powers
        # x^n are closed-form binomials, so the only series products are
        # clausen's f * f and r2's s * sum
        combines, muls = [], []
        combine, mul = MultiPoly._combine, TruncSeries.__mul__

        def counted_combine(self, other, sign):
            combines.append(1)
            return combine(self, other, sign)

        def counted_mul(self, other):
            muls.append(1)
            return mul(self, other)

        monkeypatch.setattr(MultiPoly, "_combine", counted_combine)
        monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
        assert verify(order).passed
        assert len(combines) <= order + 1
        assert len(muls) == products
