"""Integer kernels against plain MultiPoly references.

UPoly.eval_poly, UPoly.compose_affine, horner_sum_div_linear (whose
one-row case is an exact division by a linear form) and the bracket table's
entry step built on it, run_spec (with its q_i(k) evaluation), MultiPoly.text
and MultiPoly.eval work on packed or plain integer numerators or cached
pieces.
The references below are the straightforward versions built from MultiPoly
ring operations (Horner with `*` and `+`, synthetic division slice by slice,
the recurrence loop term by term), or, for text(), the one-key sort and
per-term join, or, for eval(), a Fraction power and product per term; the
kernels must give equal polynomials (or equal strings or numbers), and equal
remainders when a division is inexact.  sum_of_products must keep the
same den and packed keys and numerators whether a weight is given as an
int or as a Fraction.  It multiplies a pair of multi-term operands that
recurs across the rows of a call once; seeded calls check its sums
against naive products and its term-pair steps against the count that
sharing gives.

Every polynomial carries its packed form from construction, and kernel
calls read it, repacked when their field width differs.  The chained tests
below feed kernel results into kernel calls at wider and narrower widths
and compare each result with a plain reference and with its twin
MultiPoly(vs, p.terms), packed at the width of its own total degree.  One
test checks the packed form itself on every route that builds a polynomial.
"""

import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from conftest import CORPUS, SPECS_DIR, forbid_unpacking, linear_form, q_poly
from recint import multipoly
from recint.brackets import BracketDivisionError, BracketTable, QTuple
from recint.multipoly import (
    InexactDivisionError,
    MultiPoly,
    UPoly,
    VarSet,
    _columns,
    _decimal,
    _degrees,
    _max_str_digits,
    _pack,
    _repack,
    denom_profile,
    horner_sum_div_linear,
    sum_of_products,
    to_upoly,
)
from recint.reclang import SpecRunner, _q_at, parse_poly, parse_poly_list, parse_spec, run_spec
from recint.sequences import USEQ_TEXT

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 9, 12, 35)
SEEDS = range(60)


def rand_poly(rng: random.Random, vs: VarSet, max_exp: int = 4, max_terms: int = 6) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in vs)
        terms[exps] = Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
    return MultiPoly(vs, terms)


def rand_varset(rng: random.Random, low: int = 0) -> VarSet:
    return VarSet(tuple(f"x{i}" for i in range(rng.randint(low, 3))))


# -- references -------------------------------------------------------------------


def horner_eval_poly(u: UPoly, arg: MultiPoly) -> MultiPoly:
    acc = MultiPoly.zero(arg.vs)
    for coef in reversed(u.coeffs):
        acc = acc * arg + coef.cast(arg.vs)
    return acc


def slice_div_linear(p: MultiPoly, m) -> MultiPoly:
    """Synthetic division with one MultiPoly per pivot slice."""
    pivot = next(i for i, w in enumerate(m) if w)
    if p.is_zero():
        return p
    mp = Fraction(m[pivot])
    rest = linear_form(p.vs, [0 if i == pivot else w for i, w in enumerate(m)])
    parts: dict[int, dict] = {}
    for exps, c in p.terms.items():
        stripped = exps[:pivot] + (0,) + exps[pivot + 1 :]
        parts.setdefault(exps[pivot], {})[stripped] = c
    polys = {k: MultiPoly(p.vs, t) for k, t in parts.items()}
    deg = max(polys)
    zero = MultiPoly.zero(p.vs)
    quot = zero
    cur = polys[deg]
    for k in range(deg, 0, -1):
        qk = cur * (1 / mp)
        lift = {exps[:pivot] + (k - 1,) + exps[pivot + 1 :]: c for exps, c in qk.terms.items()}
        quot = quot + MultiPoly(p.vs, lift)
        cur = polys.get(k - 1, zero) - qk * rest
    if not cur.is_zero():
        raise InexactDivisionError("remainder", remainder=cur)
    return quot


def loop_eval(p: MultiPoly, point) -> Fraction:
    """p at a point, with a Fraction power and a Fraction product per term."""
    vals = []
    for name in p.vs.names:
        if name not in point:
            raise ValueError(f"missing assignment for variable {name!r}")
        vals.append(Fraction(point[name]))
    total = Fraction(0)
    for exps, coef in p.num.items():
        term = coef
        for v, e in zip(vals, exps):
            if e:
                term *= v**e
        total += term
    return total / p.den


def loop_run_spec(spec, n: int) -> list[MultiPoly]:
    """The recurrence one MultiPoly product and sum at a time."""
    ring = spec.ring
    qs = [to_upoly(spec.q[i - 1], "n") for i in range(1, spec.order + 1)]
    terms = [MultiPoly.one(ring)]
    for k in range(1, n + 1):
        acc = MultiPoly.zero(ring)
        for i, qi in enumerate(qs, start=1):
            if i > k:
                break
            qk = MultiPoly.zero(ring)
            for coef in reversed(qi.coeffs):
                qk = qk * k + coef
            acc = acc + qk * terms[k - i]
        terms.append(acc / Fraction(k) ** spec.lead_power)
    return terms


def reference_text(p: MultiPoly) -> str:
    """text() as one sort on a (total degree, exponents) key, a gcd and a
    monomial join per term, and one string concatenation per term."""
    terms = p.num  # one unpacked dict, read per term below
    if not terms:
        return "0"
    den = p.den
    limit = 3 * _max_str_digits()
    wide = limit and max(den, *map(abs, terms.values())).bit_length() > limit
    digits = _decimal if wide else str
    pieces = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        coef = terms[exps]
        g = gcd(coef, den)
        num, q = abs(coef) // g, den // g
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(p.vs.names, exps) if e
        )
        mag = digits(num) if q == 1 else f"{digits(num)}/{digits(q)}"
        if not mono:
            body = mag
        elif num == 1 and q == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coef < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def horner_compose_affine(u: UPoly, shift) -> UPoly:
    """u(t + shift) by Horner with one MultiPoly per coefficient."""
    shift = Fraction(shift)
    res: list[MultiPoly] = []
    for coef in reversed(u.coeffs):
        new = [MultiPoly.zero(u.vs) for _ in range(len(res) + 1)]
        for k, ck in enumerate(res):
            new[k + 1] = new[k + 1] + ck
            new[k] = new[k] + ck * shift
        new[0] = new[0] + coef
        res = new
    return UPoly(u.vs, res)


def rand_weights(rng: random.Random, d: int) -> list[int]:
    """Weights with zeros, negatives and a pivot that need not come first."""
    m = [rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(d)]
    if not any(m):
        m[rng.randrange(d)] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 5, 6))
    return m


# -- eval_poly ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_poly_matches_horner(seed):
    rng = random.Random(seed)
    vs = rand_varset(rng)
    u = UPoly(vs, [rand_poly(rng, vs, 3) for _ in range(rng.randint(0, 5))])
    for arg in (
        rand_poly(rng, vs, 2, 4),
        MultiPoly.const(vs, Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))),
        MultiPoly.zero(vs),
    ):
        assert u.eval_poly(arg) == horner_eval_poly(u, arg)
    x = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    assert u.eval_scalar(x) == horner_eval_poly(u, MultiPoly.const(vs, x))


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_poly_casts_coefficients(seed):
    # coefficients over fewer variables than the argument, as for the Q
    # polynomials of a bracket table
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(1, rng.randint(2, 4))))
    sub = VarSet(vs.names[1:])
    u = UPoly(sub, [rand_poly(rng, sub, 3) for _ in range(rng.randint(1, 5))])
    arg = rand_poly(rng, vs, 3, 4)
    assert u.eval_poly(arg) == horner_eval_poly(u, arg)


def test_eval_poly_constant_and_empty():
    vs = VarSet.of("x", "y")
    arg = linear_form(vs, [Fraction(3, 2), -1])
    const = UPoly(vs, [Fraction(-5, 6)])
    assert const.eval_poly(arg) == MultiPoly.const(vs, Fraction(-5, 6))
    assert UPoly(vs, []).eval_poly(arg).is_zero()
    assert UPoly(VarSet.of(), [1, 0, 1]).eval_poly(MultiPoly.zero(vs)) == MultiPoly.one(vs)


def test_eval_poly_high_power_of_a_late_variable():
    # deg * top(arg) + top(coefficients) = 4 * 2 + 0: the field must hold 8
    vs = VarSet.of("x", "y")
    arg = MultiPoly(vs, {(0, 2): Fraction(1, 3), (1, 0): 1})
    u = UPoly(VarSet.of(), [0, 0, 0, 0, 1])
    assert u.eval_poly(arg) == horner_eval_poly(u, arg)
    assert u.eval_poly(arg).num[(0, 8)] == 1


# -- text ------------------------------------------------------------------------------


def assert_text(p: MultiPoly):
    text = p.text()
    assert text == reference_text(p)
    assert parse_poly(text, p.vs) == p


@pytest.mark.parametrize("seed", SEEDS)
def test_text_matches_reference(seed):
    rng = random.Random(seed)
    vs = rand_varset(rng)
    for _ in range(4):
        assert_text(rand_poly(rng, vs, rng.randint(0, 5), rng.randint(0, 12)))


def test_text_edge_cases():
    xy = VarSet.of("x", "y")
    for terms in (
        {(2, 0): 1, (1, 1): -1, (0, 1): 1, (0, 0): -1},  # unit coefficients
        {(0, 0): Fraction(-7, 3)},  # a constant
        {(3, 0): Fraction(1, 2), (0, 3): Fraction(-1, 2), (1, 0): Fraction(4, 2)},
        {},  # zero
    ):
        assert_text(MultiPoly(xy, terms))
    assert MultiPoly(xy, {(0, 0): -1}).text() == "-1"
    none = VarSet.of()
    for value in (0, 1, -1, Fraction(5, 6)):
        assert_text(MultiPoly.const(none, value))


def test_text_keys_monomials_by_variable_order():
    # the same exponent vector over the same names in another order is
    # another monomial, so the cache must not hand one VarSet's string to the other
    terms = {(2, 1): 1, (0, 3): -2, (1, 0): 1}
    xy = MultiPoly(VarSet.of("x", "y"), terms)
    yx = MultiPoly(VarSet.of("y", "x"), terms)
    assert xy.text() == "x^2*y - 2*y^3 + x"
    assert yx.text() == "y^2*x - 2*x^3 + y"
    for p in (xy, yx, xy, yx):
        assert_text(p)


def test_text_coefficients_longer_than_str_converts():
    vs = VarSet.of("x", "y")
    big = 10**4400 + 7
    p = MultiPoly(vs, {(1, 1): big, (0, 2): Fraction(-1, big * 3), (0, 0): 1})
    text = p.text()
    assert text == reference_text(p)
    # reading the text back needs int() of a 4,401-digit literal, which the
    # interpreter's default limit refuses; lift the limit for the parse only
    limit = _max_str_digits()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert parse_poly(text, vs) == p
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """A random exponent vector of `parts` entries summing to total (parts > 0)."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@pytest.mark.parametrize("nvars", range(4))
@pytest.mark.parametrize("width", range(7))
def test_degrees_match_the_field_sums(width, nvars):
    # every total degree below 2^width, the top one 2^width - 1 (a key of
    # which is 0 mod 2^width - 1, as is the constant key) included
    rng = random.Random(8 * width + nvars)
    top = (1 << width) - 1
    exps = [(0,) * nvars]
    if nvars:
        exps += [composition(rng, rng.choice((top, rng.randint(0, top))), nvars) for _ in range(60)]
        exps += [(top,) + (0,) * (nvars - 1), (0,) * (nvars - 1) + (top,)]
    keys = _pack(list(zip(*exps)), width, len(exps))
    cols = _columns(keys, width, nvars)
    sums = [sum(col[j] for col in cols) for j in range(len(keys))]
    assert sums == [sum(e) for e in exps]
    assert _degrees(width, keys) == sums
    if nvars:
        assert top in sums


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 3, 7, 15])
def test_text_at_a_total_degree_of_all_ones(degree, nvars):
    # packed at the width of its own total degree, 2^width - 1, whose keys
    # are 0 mod 2^width - 1 like the constant's: they must still print first
    rng = random.Random(4 * degree + nvars)
    vs = VarSet(tuple(f"x{i}" for i in range(nvars)))
    terms = {(0,) * nvars: Fraction(rng.randint(-9, 9), 4)}
    for _ in range(6):
        top = composition(rng, degree, nvars)
        terms[top] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice(DENOMINATORS))
        terms[tuple(rng.randint(0, e) for e in top)] = rng.randint(-9, 9)
    p = MultiPoly(vs, terms)
    assert p._packed[:2] == (degree.bit_length(), degree)
    assert p.total_degree() == degree
    assert_text(p)


@pytest.mark.parametrize("seed", range(12))
def test_text_of_results_kept_wider_than_their_degree(seed):
    # a sum_of_products call packs every group at the width of its highest one,
    # so the low group's keys have wider fields than its own degree needs
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(1 + seed % 3)))
    a, b = (rand_poly(rng, vs, 2, 5) + MultiPoly.monomial(vs, (1,) * len(vs), 1) for _ in range(2))
    big = MultiPoly.monomial(vs, (9,) * len(vs), Fraction(1, 3))
    low, high = sum_of_products(vs, [[(a, b, 1), (b, b, Fraction(-2, 3))], [(big, big, 1), (a, b, 1)]])
    assert low._packed[0] > low.total_degree().bit_length()
    for p in (low, high, MultiPoly(vs, low.terms)):
        assert_text(p)


# -- compose_affine ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_compose_affine_matches_horner(seed):
    rng = random.Random(seed)
    vs = rand_varset(rng)
    u = UPoly(vs, [rand_poly(rng, vs, 3) for _ in range(rng.randint(0, 7))])
    shift = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    assert u.compose_affine(shift) == horner_compose_affine(u, shift)


@pytest.mark.parametrize("name", CORPUS)
def test_compose_affine_on_corpus_q(name):
    spec = parse_spec((SPECS_DIR / name).read_text())
    for i in range(1, spec.order + 1):
        u = to_upoly(spec.q[i - 1], "n")
        assert u.compose_affine(Fraction(i, 2)) == horner_compose_affine(u, Fraction(i, 2))


def test_compose_affine_over_a_ring_with_t():
    # the auxiliary indeterminate must not collide with a ring variable
    vs = VarSet.of("s", "t", "t_")
    rng = random.Random(5)
    u = UPoly(vs, [rand_poly(rng, vs, 2) for _ in range(5)])
    for shift in (Fraction(1, 2), -3, 0):
        assert u.compose_affine(shift) == horner_compose_affine(u, shift)
    assert u.compose_affine(Fraction(1, 2)).vs == vs


# -- exact division by a linear form -----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_div_matches_slices(seed):
    rng = random.Random(seed)
    vs = rand_varset(rng, low=1)
    m = rand_weights(rng, len(vs))
    p = rand_poly(rng, vs) * linear_form(vs, m)
    assert horner_sum_div_linear(vs, [((1,), (), 1, p)], m) == slice_div_linear(p, m)


@pytest.mark.parametrize("seed", SEEDS)
def test_inexact_div_has_the_same_remainder(seed):
    rng = random.Random(seed)
    vs = rand_varset(rng, low=1)
    m = rand_weights(rng, len(vs))
    p = rand_poly(rng, vs) * linear_form(vs, m) + rand_poly(rng, vs, 3, 3)
    try:
        expected = slice_div_linear(p, m)
    except InexactDivisionError as e:
        with pytest.raises(InexactDivisionError) as exc:
            horner_sum_div_linear(vs, [((1,), (), 1, p)], m)
        assert exc.value.remainder == e.remainder
        assert not exc.value.remainder.is_zero()
    else:
        assert horner_sum_div_linear(vs, [((1,), (), 1, p)], m) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_horner_sum_div_linear_matches_references(seed):
    # sum(h(A) * p / s) by Horner with `*` and `+`, divided slice by slice;
    # the second pass multiplies every p by the divisor, so it divides exactly
    rng = random.Random(seed)
    vs = rand_varset(rng, low=1)
    m = rand_weights(rng, len(vs))
    rows = []
    for _ in range(rng.randint(0, 3)):
        h = [rng.choice((0, rng.randint(-9, 9))) for _ in range(rng.randint(0, 4))]
        a = [rng.randint(-3, 3) for _ in vs]
        rows.append((h, a, rng.choice((1, 2, 3, 8)), rand_poly(rng, vs, 3, 4)))
    for scale in (MultiPoly.one(vs), linear_form(vs, m)):
        scaled = [(h, a, s, p * scale) for h, a, s, p in rows]
        num = MultiPoly.zero(vs)
        for h, a, s, p in scaled:
            num = num + horner_eval_poly(UPoly(VarSet.of(), h[::-1]), linear_form(vs, a)) * p * Fraction(1, s)
        try:
            expected = slice_div_linear(num, m)
        except InexactDivisionError as e:
            with pytest.raises(InexactDivisionError) as exc:
                horner_sum_div_linear(vs, scaled, m)
            assert exc.value.remainder == e.remainder
        else:
            assert horner_sum_div_linear(vs, scaled, m) == expected


def test_pivot_weight_not_dividing_the_numerators():
    # x^2 / (2x) = x/2, and the quotients below, need a denominator that the
    # dividend does not carry, so the pivot weight does not divide its levels
    vs = VarSet.of("w", "x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    assert horner_sum_div_linear(vs, [((1,), (), 1, x * x)], (0, 2, 0)) == x * Fraction(1, 2)
    for m in ((0, -3, 2), (0, 6, -4), (0, 4, 1)):
        q = x * Fraction(5, 7) + y * Fraction(1, 3) + 1
        p = q * linear_form(vs, m)
        assert horner_sum_div_linear(vs, [((1,), (), 1, p)], m) == slice_div_linear(p, m) == q


def reference_entry(table: BracketTable, m) -> MultiPoly:
    """sum_i Q_i(<m,x> - x_i/2) * <Q>_{m-e_i} by Horner and products, then
    divided slice by slice; the entries below m are the table's own."""
    vs = table.vs
    num = MultiPoly.zero(vs)
    for i, qi in enumerate(table.q.polys):
        if m[i]:
            prev = table.entries[m[:i] + (m[i] - 1,) + m[i + 1 :]]
            weights = [Fraction(w) - (Fraction(1, 2) if j == i else 0) for j, w in enumerate(m)]
            num = num + horner_eval_poly(to_upoly(qi, "t"), linear_form(vs, weights)) * prev
    return slice_div_linear(num, m)


def check_table(q: QTuple, bound: int) -> BracketDivisionError | None:
    """Build q's table to bound and check every entry against reference_entry.
    If a level raises, the points before the failing one (in the table's
    order) must divide exactly, and the failing one must leave the same
    remainder; the error is returned."""
    table = BracketTable(q)
    try:
        table.extend_to_level(bound)
        failure = None
    except BracketDivisionError as e:
        failure = e
    for m, entry in table.entries.items():
        if any(m):
            assert reference_entry(table, m) == entry, m
    if failure is not None:
        level = table.levels_done + 1
        points = sorted(p for p in itertools.product(range(level + 1), repeat=q.d) if sum(p) == level)
        for m in points:
            try:
                reference_entry(table, m)
            except InexactDivisionError as e:
                assert failure.point == m
                assert failure.remainder.text() == e.remainder.text()
                break
        else:
            pytest.fail(f"the table failed at {failure.point}, the reference nowhere")
    return failure


def q_tuple(text: str, permissive: bool = False) -> QTuple:
    return QTuple(parse_poly_list(text, ("t",)), permissive)


def test_bracket_entries_match_references():
    # the table's own arithmetic, entry by entry: sum_i Q_i(<m,x> - x_i/2) *
    # <Q>_{m-e_i} by Horner and products, then divided slice by slice
    q = QTuple([q_poly(c) for c in ([0, -3, 0, 1], [0, 1], [0, 0, 0, 2])])
    assert check_table(q, 4) is None


#: The odd tuples of scripts/bracket_survey.py, at its level bounds.
SURVEY = (("t", 8), ("t^3", 8), ("t, t", 8), ("t, t^3", 8), ("t^3 - 3*t, t", 8), ("t^5, t^3, t", 6))


def odd_tuple(rng: random.Random, degrees) -> str:
    """An odd polynomial of each degree, every odd power present, with odd
    coefficients of absolute value at most 9."""
    polys = []
    for deg in degrees:
        polys.append(" + ".join(f"({rng.choice((-9, -3, -1, 1, 5, 7))})*t^{k}" for k in range(deg, 0, -2)))
    return ", ".join(polys)


@pytest.mark.parametrize("text, bound", SURVEY)
def test_survey_tables_match_references(text, bound):
    assert check_table(q_tuple(text), bound) is None


@pytest.mark.parametrize("seed", range(6))
def test_seeded_odd_tables_match_references(seed):
    rng = random.Random(seed)
    degrees = ((1,), (3,), (1, 1), (1, 3), (3, 1), (5, 3, 1))[seed]
    assert check_table(q_tuple(odd_tuple(rng, degrees)), 6 if len(degrees) < 3 else 4) is None


#: Permissive tuples: zero Q_i, even parts, constant terms.  (tuple, bound,
#: whether a division is inexact by then)
PERMISSIVE = (
    ("0", 4, False),
    ("t - t, t", 5, False),
    ("t, 0, t^3", 4, False),
    ("t^2", 5, False),
    ("t^4 - 3*t^2", 5, False),
    ("2*t^2 + t", 5, False),
    ("t^2, t", 4, True),
    ("t^4 - 3*t^2, t^3", 4, True),
    ("1", 3, True),
    ("t + 1, t", 4, True),
    ("t^2 - 5, t^3 + t", 4, True),
    ("3, t, t^2", 3, True),
)


@pytest.mark.parametrize("text, bound, inexact", PERMISSIVE)
def test_permissive_tables_match_references(text, bound, inexact):
    failure = check_table(q_tuple(text, permissive=True), bound)
    assert (failure is not None) == inexact


@pytest.mark.parametrize("seed", range(8))
def test_random_permissive_tables_match_references(seed):
    rng = random.Random(seed)
    polys = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(rng.randint(0, 4))]
        polys.append(q_poly(coeffs))
    check_table(QTuple(polys, permissive=True), 4 if len(polys) < 3 else 3)


# -- eval -------------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_matches_loop(seed):
    rng = random.Random(seed)
    vs = rand_varset(rng)
    p = rand_poly(rng, vs, rng.randint(0, 6), rng.randint(0, 8))
    for _ in range(4):
        point = {
            name: rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-30, 30), rng.randint(1, 12))))
            for name in vs.names
        }
        value = p.eval(point)
        assert type(value) is Fraction
        assert value == loop_eval(p, point)


def test_eval_edge_cases():
    xy = VarSet.of("x", "y")
    p = MultiPoly(xy, {(3, 0): Fraction(2, 3), (0, 2): -1, (0, 0): Fraction(1, 6)})
    for point in ({"x": 0, "y": 0}, {"x": -2, "y": Fraction(-1, 3)}, {"x": Fraction(5, 2), "y": 7, "z": 9}):
        assert p.eval(point) == loop_eval(p, point)
    assert MultiPoly.zero(xy).eval({"x": 3, "y": 1}) == 0
    assert MultiPoly.const(VarSet.of(), Fraction(-5, 6)).eval({}) == Fraction(-5, 6)
    with pytest.raises(ValueError, match="missing assignment for variable 'y'"):
        p.eval({"x": 1})
    with pytest.raises(ValueError, match="missing assignment"):
        MultiPoly.zero(xy).eval({"x": 1})


# -- run_spec ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_run_spec_matches_plain_loop(name):
    spec = parse_spec((SPECS_DIR / name).read_text())
    n = 14
    assert run_spec(spec, n).terms == loop_run_spec(spec, n)


def test_run_spec_lead_power_three():
    spec = parse_spec((SPECS_DIR / "apery.spec").read_text())
    assert spec.lead_power == 3
    terms = run_spec(spec, 12).terms
    assert terms == loop_run_spec(spec, 12)
    assert [t.constant_value() for t in terms[:5]] == [1, 5, 73, 1445, 33001]


RATIONAL_SPECS = (
    "ring b; seq v; rec: n*v[n] = (n/2 + 1/3)*v[n-1] + b*(n^2/5 - 7)*v[n-3];",
    "ring a b; seq v; rec: n^3*v[n] = (a*n^3/4 - 2/3)*v[n-1] - b^2*n*v[n-2];",
)


@pytest.mark.parametrize("text", [(SPECS_DIR / name).read_text() for name in CORPUS] + list(RATIONAL_SPECS))
def test_q_at_matches_eval_scalar(text):
    spec = parse_spec(text)
    for i, q in enumerate(spec.q, start=1):
        u = to_upoly(spec.q[i - 1], "n")
        for k in range(41):
            assert _q_at(q, spec.ring, k) == u.eval_scalar(k)


@pytest.mark.parametrize("text", RATIONAL_SPECS)
def test_run_spec_rational_coefficients(text):
    spec = parse_spec(text)
    assert run_spec(spec, 12).terms == loop_run_spec(spec, 12)


# -- kept packed forms ---------------------------------------------------------------------


def naive_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p * q with one Fraction product per pair of terms."""
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly(p.vs, out)


def horner_sum_reference(vs: VarSet, rows, m) -> MultiPoly:
    """sum(h(A) * p / s) by Horner with `*` and `+`, divided slice by slice."""
    num = MultiPoly.zero(vs)
    for h, a, s, p in rows:
        num = num + horner_eval_poly(UPoly(VarSet.of(), h[::-1]), linear_form(vs, a)) * p * Fraction(1, s)
    return slice_div_linear(num, m)


def assert_twin(p: MultiPoly, expected: MultiPoly):
    """p equals expected and its twin, built from p's terms and so packed at
    the width of its own total degree, in num, den, text() and eval."""
    twin = MultiPoly(p.vs, p.terms)
    deg = max(twin.total_degree(), 0)
    assert twin._packed[:2] == (deg.bit_length(), deg)
    assert p.num == twin.num == expected.num
    assert p.den == twin.den == expected.den
    assert p.text() == twin.text() == reference_text(expected)
    point = {name: Fraction(2 * i + 3, i + 2) for i, name in enumerate(p.vs.names)}
    assert p.eval(point) == twin.eval(point) == loop_eval(expected, point)


@pytest.mark.parametrize("seed", SEEDS)
def test_chained_kernel_calls_match_references(seed):
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(seed % 5)))
    n = len(vs)
    a, b, c = (rand_poly(rng, vs, 3, 5) + MultiPoly.monomial(vs, (1,) * n, 1) for _ in range(3))
    big = rand_poly(rng, vs, 3, 3) + MultiPoly.monomial(vs, (13,) * n, Fraction(1, 3))
    k = MultiPoly.const(vs, Fraction(3, 4)) * MultiPoly.const(vs, -2)
    ab = a * b
    # the call packs at high's width, so low is kept wider than it needs
    low, high, gone = sum_of_products(
        vs,
        [[(a, c, Fraction(-2, 3))], [(big, big, 3), (a, b, -1)], [(a, b, 1), (b, a, -1)]],
    )
    ref_ab, ref_k = naive_mul(a, b), MultiPoly.const(vs, Fraction(-3, 2))
    ref_low = naive_mul(a, c) * Fraction(-2, 3)
    ref_high = naive_mul(big, big) * 3 - ref_ab
    checks = [
        (ab, ref_ab),
        (low, ref_low),
        (high, ref_high),
        (gone, MultiPoly.zero(vs)),
        (k, ref_k),
        (ab * big, naive_mul(ref_ab, big)),  # ab's keys at a wider width
        (low * c, naive_mul(ref_low, c)),  # low's keys at a narrower width
        (k * ab, ref_ab * Fraction(-3, 2)),
        (-high * Fraction(5, 6), ref_high * Fraction(-5, 6)),  # the kept form carried over
        ((-high) * low, naive_mul(ref_high * -1, ref_low)),
        (gone * ab, MultiPoly.zero(vs)),
        (sum_of_products(vs, [[(low, k, 2), (ab, c, 1)]])[0], ref_low * -3 + naive_mul(ref_ab, c)),
        (UPoly(vs, [low, k, ab]).eval_poly(high), horner_eval_poly(UPoly(vs, [ref_low, ref_k, ref_ab]), ref_high)),
    ]
    if n:
        m = rand_weights(rng, n)
        lin = linear_form(vs, m)
        q = horner_sum_div_linear(vs, [((1,), (), 1, ab * lin)], m)
        h, h2 = [rng.randint(-3, 3) for _ in range(3)], [1, 0]
        rows = [(h, [rng.randint(-2, 2) for _ in vs], 2, q * lin), (h2, m, 3, low), (h2, m, 1, k)]
        ref_rows = [(h, rows[0][1], 2, naive_mul(ref_ab, lin)), (h2, m, 3, ref_low), (h2, m, 1, ref_k)]
        r = horner_sum_div_linear(vs, rows, m)
        ref_r = horner_sum_reference(vs, ref_rows, m)
        checks += [
            (q, ref_ab),
            (horner_sum_div_linear(vs, [((1,), (), 1, k * lin)], m), ref_k),  # a constant quotient
            (r, ref_r),
            (horner_sum_div_linear(vs, [(h2, m, 1, r), ([2], m, 1, q * lin)], m), ref_r + ref_ab * 2),
            (r * q, naive_mul(ref_r, ref_ab)),
            (horner_sum_div_linear(vs, [(h2, m, 1, q), ([1], m, 1, -(q * lin))], m), MultiPoly.zero(vs)),
        ]
    for p, expected in checks:
        assert_twin(p, expected)


def quotient_or_remainder(divide) -> tuple[str, MultiPoly]:
    try:
        return "quotient", divide()
    except InexactDivisionError as e:
        return "remainder", e.remainder


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z"), ("z", "y", "x")])
def test_total_degree_wider_than_the_top_exponent(names):
    # x^3*y^3 + x*y has top exponent 3 (2 bits) but total degree 6 (3 bits).
    # A product, a Horner step or an exact quotient keeps each exponent
    # within the operands' tops, but an inexact division moves exponents
    # from the pivot to the other variables, up to the total degree
    # (x^3*y^3 = (x + y)(x^2*y^3 - x*y^4 + y^5) - y^6), so the kept bound
    # and the field width must come from the total degree, both for kernel
    # results and for the polynomials packed when they are built.
    vs = VarSet(names)

    def poly(*terms):  # (coefficient, x exponent, y exponent), no kernel call
        return MultiPoly(vs, {tuple({"x": ex, "y": ey}.get(n, 0) for n in names): c for c, ex, ey in terms})

    x, y = MultiPoly.variable(vs, "x"), MultiPoly.variable(vs, "y")
    p = (x * y) * (x * x * y * y + 1)
    [q] = sum_of_products(vs, [[(x * x * x, y * y * y, Fraction(1, 2)), (x, x * y, -3)]])
    ref_p, ref_q = poly((1, 3, 3), (1, 1, 1)), poly((Fraction(1, 2), 3, 3), (-3, 2, 1))
    assert_twin(p, ref_p)
    assert_twin(q, ref_q)
    ref_pq = naive_mul(ref_p, ref_q)
    assert_twin(p * q, ref_pq)
    u = UPoly(vs, [q, 1, p])
    assert_twin(u.eval_poly(p), horner_eval_poly(UPoly(vs, [ref_q, 1, ref_p]), ref_p))
    for m in ([1 if n == "x" else 0 for n in names], [1, 1, 1][: len(names)], [2, -1, 3][: len(names)]):
        lin = linear_form(vs, m)
        assert_twin(horner_sum_div_linear(vs, [((1,), (), 1, p * lin)], m), ref_p)
        assert_twin(horner_sum_div_linear(vs, [((1,), (), 1, q * (lin * lin))], m), naive_mul(ref_q, lin))
        for dividend, ref_dividend in (
            (p, ref_p),
            (q, ref_q),
            (p * q, ref_pq),
            (p + q, ref_p + ref_q),
            (MultiPoly(vs, ref_pq.terms), ref_pq),
        ):
            kind, got = quotient_or_remainder(lambda: horner_sum_div_linear(vs, [((1,), (), 1, dividend)], m))
            assert (kind, got) == quotient_or_remainder(lambda: slice_div_linear(ref_dividend, m))
            assert_twin(got, got)
        rows = [([1, -2], [1, 0, 2][: len(names)], 1, p), ([3, 0, 1], m, 2, q), ([1], m, 3, p - q)]
        ref_rows = [(h, a, s, r) for (h, a, s, _), r in zip(rows, (ref_p, ref_q, ref_p - ref_q))]
        kind, got = quotient_or_remainder(lambda: horner_sum_div_linear(vs, rows, m))
        assert (kind, got) == quotient_or_remainder(lambda: horner_sum_reference(vs, ref_rows, m))
        assert_twin(got, got)


@pytest.mark.parametrize("nvars", range(5))
def test_repack_matches_packing_at_the_new_width(nvars):
    rng = random.Random(nvars)
    exps = [tuple(rng.randint(0, 7) for _ in range(nvars)) for _ in range(20)]
    cols = list(zip(*exps))
    for old, new in ((3, 3), (3, 6), (6, 3), (4, 9), (9, 4)):
        keys = _pack(cols, old, len(exps))
        assert list(_repack(keys, old, new, nvars)) == list(_pack(cols, new, len(exps)))


def assert_lowest_terms_unread(monkeypatch, make) -> list[MultiPoly]:
    """The polynomials make() builds, built and profiled with num patched to
    raise: den is final when a kernel makes a polynomial, before anything is
    unpacked, so the profile equals that of its twin built from terms."""
    with monkeypatch.context() as m:
        forbid_unpacking(m)
        polys = list(make())
        profiles = [denom_profile(p) for p in polys]
    for p, profile in zip(polys, profiles):
        assert profile == denom_profile(MultiPoly(p.vs, p.terms))
    return polys


def test_gen_u_terms_are_in_lowest_terms_before_any_read(monkeypatch):
    assert_lowest_terms_unread(monkeypatch, lambda: SpecRunner(parse_spec(USEQ_TEXT)).upto(60).terms[1:])


def test_cancelling_group_is_in_lowest_terms_before_any_read(monkeypatch):
    # the rows' denominators are 3 and 12; the x/3 parts cancel, so the
    # sum y/4 has denominator 4
    vs = VarSet.of("x", "y")
    x, y = MultiPoly.variable(vs, "x"), MultiPoly.variable(vs, "y")
    a = x * Fraction(1, 3) + y * Fraction(1, 4)
    [p] = assert_lowest_terms_unread(
        monkeypatch, lambda: sum_of_products(vs, [[(a, y, 1), (x, y, Fraction(-1, 3))]])
    )
    assert p.den == 4


def cancels(a: MultiPoly, b: MultiPoly, r) -> bool:
    """True when r / (a.den * b.den) is an integer."""
    return (Fraction(r) / (a.den * b.den)).denominator == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_weights_that_cancel_the_operand_denominators(seed, monkeypatch):
    # a row's weight r is reduced against a.den * b.den before the group's
    # lcm is taken, so a group whose weights all cancel those denominators
    # accumulates over 1
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(seed % 4)))
    groups = []
    for _ in range(4):
        rows = []
        for _ in range(rng.randint(0, 4)):
            a, b = rand_poly(rng, vs), rand_poly(rng, vs)
            base = a.den * b.den * rng.choice((1, -1, 2, -3))
            r = rng.choice((0, base, base * rng.randint(2, 9), Fraction(base, rng.choice(DENOMINATORS))))
            rows.append((a, b, r))
        if rng.random() < 0.3:  # a row whose weight need not cancel
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows.append((rand_poly(rng, vs), rand_poly(rng, vs), r))
        groups.append(rows)
    dens = []
    from_packed = multipoly._from_packed

    def recording(vs, acc, width, den, deg):
        dens.append(den)
        return from_packed(vs, acc, width, den, deg)

    monkeypatch.setattr(multipoly, "_from_packed", recording)
    results = sum_of_products(vs, groups)
    monkeypatch.undo()
    for got, den, rows in zip(results, dens, groups):
        assert_twin(got, sum((naive_mul(a, b) * r for a, b, r in rows), MultiPoly.zero(vs)))
        if all(cancels(*row) for row in rows):
            assert den == 1


def kept_dict(p: MultiPoly) -> tuple[int, int, dict[int, int]]:
    """(den, width, key -> numerator) of the packed form a kernel result keeps."""
    width, _, keys, nums = p._packed
    return p.den, width, dict(zip(keys, nums))


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_rows_match_sum_of_products(seed):
    # a weight may be an int or a Fraction: each whole weight given as the
    # other type (an int as a Fraction, a whole Fraction as an int) gives the
    # same sums and packed forms
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(seed % 4)))
    groups, alt_groups = [], []
    for _ in range(rng.randint(0, 5)):
        rows, alt_rows = [], []
        for _ in range(rng.randint(0, 4)):
            a, b = rand_poly(rng, vs), rand_poly(rng, vs)
            r = rng.choice(
                (
                    0,
                    Fraction(rng.randint(-9, -1), rng.randint(1, 9)),
                    # a numerator that shares factors with an operand's den
                    Fraction(a.den * rng.choice((1, -2, 3)), rng.choice(DENOMINATORS)),
                    b.den * rng.randint(-6, 6),
                )
            )
            rows.append((a, b, r))
            alt = Fraction(r) if isinstance(r, int) else int(r) if r.denominator == 1 else r
            alt_rows.append((a, b, alt))
        groups.append(rows)
        alt_groups.append(alt_rows)
    expected = sum_of_products(vs, groups)
    got = sum_of_products(vs, alt_groups)
    assert len(got) == len(expected) == len(groups)
    for p, q, rows in zip(got, expected, groups):
        assert p == q == sum((naive_mul(a, b) * r for a, b, r in rows), MultiPoly.zero(vs))
        if p.is_zero():
            assert q.is_zero() and p._packed == q._packed == (0, 0, (), ())
        else:
            assert kept_dict(p) == kept_dict(q)


def multi_term_poly(rng: random.Random, vs: VarSet) -> MultiPoly:
    """A seeded polynomial of at least two terms over vs, divided by 2, 6 or
    35, so that its den is seldom 1."""
    while True:
        p = rand_poly(rng, vs) * Fraction(1, rng.choice((2, 6, 35)))
        if len(p.terms) > 1:
            return p


def counted_pair_sums(monkeypatch) -> list[int]:
    """Wrap multipoly._pair_sums; the one-item list counts its term-pair steps."""
    steps = [0]
    pair_sums = multipoly._pair_sums

    def counting(acc, left, right):
        left = list(left)
        steps[0] += len(left) * len(right)
        pair_sums(acc, left, right)

    monkeypatch.setattr(multipoly, "_pair_sums", counting)
    return steps


def shared_pair_groups(rng: random.Random, vs: VarSet) -> list[list]:
    """sum_of_products groups that repeat pairs of multi-term operands: (a, b)
    twice in one group and in two more, once as (b, a); the square c * c in
    two groups; (c, a) once; and the one-term operands m, n in several rows.
    Weights are Fractions, some of them zero."""
    a, b, c = (multi_term_poly(rng, vs) for _ in range(3))
    m = MultiPoly.variable(vs, "x0") * Fraction(rng.randint(1, 9), 4)
    n = MultiPoly.const(vs, Fraction(-5, 3))

    def w() -> Fraction:
        return Fraction(rng.choice((0, 1, -1, 3, -12)), rng.choice((1, 2, 9)))

    return [
        [(a, b, w()), (a, b, w()), (c, c, w()), (m, a, w())],
        [(b, a, w()), (c, a, w()), (m, a, w()), (n, c, w())],
        [(a, b, w()), (c, c, w()), (a, m, w()), (m, n, w())],
        [],
    ]


def product_support(a: MultiPoly, b: MultiPoly) -> int:
    """|a * b| before cancellation: the distinct sums of an exponent of a
    and one of b."""
    return len({tuple(map(sum, zip(e1, e2))) for e1 in a.terms for e2 in b.terms})


def shared_pair_steps(groups: list[list]) -> int:
    """The term-pair steps of sum_of_products on groups: a pair of multi-term
    operands in r > 1 rows of nonzero weight costs |a| * |b| + r * |a * b|,
    with |a * b| its product_support, and any other row |a| * |b|."""
    rows: dict[tuple[int, int], list] = {}
    for a, b, r in itertools.chain(*groups):
        if r:
            rows.setdefault(tuple(sorted((id(a), id(b)))), []).append((a, b))
    steps = 0
    for pair in rows.values():
        (a, b), r = pair[0], len(pair)
        size = len(a.terms) * len(b.terms)
        if r > 1 and min(len(a.terms), len(b.terms)) > 1:
            steps += size + r * product_support(a, b)
        else:
            steps += r * size
    return steps


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_pairs_match_the_row_reference(seed, monkeypatch):
    # a pair of multi-term operands in several rows of a call is multiplied
    # once; each group must still be its rows summed one naive product at a time
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(1 + seed % 3)))
    groups = shared_pair_groups(rng, vs)
    steps = counted_pair_sums(monkeypatch)
    results = sum_of_products(vs, groups)
    monkeypatch.undo()
    assert steps[0] == shared_pair_steps(groups)
    assert len(results) == len(groups)
    for got, rows in zip(results, groups):
        assert_twin(got, sum((naive_mul(a, b) * r for a, b, r in rows), MultiPoly.zero(vs)))


def test_a_shared_pair_costs_one_product_and_one_pass_per_row(monkeypatch):
    # (a, b) in three rows of three groups, once as (b, a): one product of
    # |a| * |b| steps, then |a * b| steps per row
    vs = VarSet.of("x", "y")
    x, y = MultiPoly.variable(vs, "x"), MultiPoly.variable(vs, "y")
    a, b = x + y * Fraction(1, 2), x - y + 3
    steps = counted_pair_sums(monkeypatch)
    first, second, third = sum_of_products(
        vs, [[(a, b, 2)], [(b, a, Fraction(-1, 3))], [(a, b, Fraction(6, 4)), (a, x, 1)]]
    )
    monkeypatch.undo()
    ab = naive_mul(a, b)
    assert len(ab.terms) == product_support(a, b) == 5  # x^2 - 1/2*x*y - 1/2*y^2 + 3*x + 3/2*y
    assert steps[0] == 2 * 3 + 3 * 5 + 2 * 1
    assert (first, second, third) == (ab * 2, ab * Fraction(-1, 3), ab * Fraction(3, 2) + naive_mul(a, x))


def test_one_term_operands_keep_the_direct_path(monkeypatch):
    # (c, p) rows, as OdeOperator.apply and w_inv make them, are not shared:
    # each costs |c| * |p| steps
    vs = VarSet.of("x", "y")
    c = MultiPoly.variable(vs, "y") * 3
    p = MultiPoly.variable(vs, "x") + Fraction(1, 5)
    steps = counted_pair_sums(monkeypatch)
    results = sum_of_products(vs, [[(c, p, 1)], [(c, p, 2)], [(p, c, Fraction(1, 2)), (c, c, 1)], [(c, c, 3)]])
    monkeypatch.undo()
    assert steps[0] == 3 * 2 + 2 * 1
    cp, cc = naive_mul(c, p), naive_mul(c, c)
    assert results == [cp, cp * 2, cp * Fraction(1, 2) + cc, cc * 3]


def test_bracket_entries_are_in_lowest_terms_before_any_read(monkeypatch):
    table = BracketTable(q_tuple("t^3 - 3*t, t"))

    def entries():
        table.extend_to_level(6)
        return (entry for m, entry in table.entries.items() if any(m))

    assert_lowest_terms_unread(monkeypatch, entries)


# -- the packed form on every construction route -------------------------------------


def terms_add(*parts: tuple[Fraction | int, dict]) -> dict:
    """sum(r * t for r, t in parts) over Fraction term dicts."""
    out: dict = {}
    for r, t in parts:
        for e, c in t.items():
            out[e] = out.get(e, 0) + r * c
    return {e: c for e, c in out.items() if c}


def assert_packed_form(p: MultiPoly, expected: dict):
    """p's packed keys decode, field by field, to num, and num / den is
    expected; its bound is at least the total degree and below 2^width; its
    numerators are nonzero and share no factor with den."""
    width, deg, keys, nums = p._packed
    nvars = len(p.vs)
    mask = (1 << width) - 1
    decoded = {}
    for key, c in zip(keys, nums):
        assert 0 <= key < 1 << width * nvars
        decoded[tuple((key >> width * (nvars - 1 - i)) & mask for i in range(nvars))] = c
    assert len(decoded) == len(keys) == len(nums)
    assert decoded == p.num
    assert {e: Fraction(c, p.den) for e, c in decoded.items()} == expected
    assert p.total_degree() <= deg < 1 << width
    assert all(nums) and gcd(p.den, *nums) == 1


@pytest.mark.parametrize("seed", range(24))
def test_every_construction_route_carries_its_packed_form(seed):
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(seed % 4)))
    n = len(vs)

    def draw() -> dict:
        t = {
            tuple(rng.randint(0, 3) for _ in vs): Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
            for _ in range(5)
        }
        t[(1,) * n] = Fraction(1, rng.choice(DENOMINATORS))  # nonzero
        return {e: c for e, c in t.items() if c}

    ta, tb, tc = draw(), draw(), draw()
    a, b, c = MultiPoly(vs, ta), MultiPoly(vs, tb), MultiPoly(vs, tc)
    big = MultiPoly.monomial(vs, (9,) * n, 1)
    ab = a * b
    # the call packs at big * big's width, so ac is kept wider than ab
    ac, _ = sum_of_products(vs, [[(a, c, 1)], [(big, big, 1)]])
    # naive_mul builds its result from Fraction terms, not from a packed form
    tab, tac = naive_mul(a, b).terms, naive_mul(a, c).terms
    if n:
        assert ac._packed[0] > ab._packed[0]
    one = (0,) * n
    routes = [
        (a, ta),
        (MultiPoly.const(vs, Fraction(-3, 4)), {one: Fraction(-3, 4)}),
        (MultiPoly.const(vs, 0), {}),
        (MultiPoly.zero(vs), {}),
        (MultiPoly.monomial(vs, (2,) * n, Fraction(5, 6)), {(2,) * n: Fraction(5, 6)}),
        (ab, tab),
        (ac, tac),
        (a ** 2, naive_mul(a, a).terms),
        (ab + ac, terms_add((1, tab), (1, tac))),
        (ac - ab, terms_add((1, tac), (-1, tab))),
        (ab - ab, {}),
        (ac + a * Fraction(1, 7), terms_add((1, tac), (Fraction(1, 7), ta))),
        (a + 1, terms_add((1, ta), (1, {one: 1}))),
        (-ac, terms_add((-1, tac))),
        (-a, terms_add((-1, ta))),
        (ac * Fraction(-6, 35), terms_add((Fraction(-6, 35), tac))),
        (a / 3, terms_add((Fraction(1, 3), ta))),
        (UPoly(vs, [a, b]).eval_poly(c), terms_add((1, ta), (1, naive_mul(b, c).terms))),
    ]
    for i, name in enumerate(vs.names):
        e = tuple(int(j == i) for j in range(n))
        routes.append((MultiPoly.variable(vs, name), {e: 1}))
    if n:
        m = rand_weights(rng, n)
        lin = linear_form(vs, m)
        routes.append((horner_sum_div_linear(vs, [((1,), (), 1, ab * lin)], m), tab))
        # cast into the variables reversed, after a new one
        wide = VarSet(("y",) + vs.names[::-1])
        routes.append((ac.cast(wide), {(0,) + e[::-1]: c for e, c in tac.items()}))
        u = to_upoly(ac, vs.names[0])
        for k, coef in enumerate(u.coeffs):
            routes.append((coef, {e[1:]: c for e, c in tac.items() if e[0] == k}))
        routes.append((u.to_multipoly("t"), {e[1:] + e[:1]: c for e, c in tac.items()}))
    for p, expected in routes:
        assert_packed_form(p, expected)
