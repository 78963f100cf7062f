"""Differential oracle: MultiPoly arithmetic and the w/u recurrences against
sympy over QQ.

sympy is a test-only dependency; without it this module is skipped.  Inputs
are seeded random polynomials in one to three variables whose coefficients
carry mixed denominators.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from conftest import linear_form  # noqa: E402
from recint.multipoly import (  # noqa: E402
    InexactDivisionError,
    MultiPoly,
    VarSet,
    exact_div_linear,
    sum_of_products,
)
from recint.sequences import gen_u, gen_w  # noqa: E402

QQ = sympy.QQ
DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 9, 12, 35)
SEEDS = range(40)


def rand_poly(rng: random.Random, vs: VarSet) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 4) for _ in vs)
        terms[exps] = Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
    return MultiPoly(vs, terms)


def rand_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice(DENOMINATORS))


def case(seed: int):
    """A VarSet with its sympy generators and two random polynomials."""
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(rng.randint(1, 3))))
    gens = sympy.symbols(vs.names)
    return rng, vs, gens, rand_poly(rng, vs), rand_poly(rng, vs)


def to_sympy(p: MultiPoly, gens) -> "sympy.Poly":
    coeffs = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, *gens, domain=QQ)


def coeffs_of(poly: "sympy.Poly") -> dict:
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}


def agrees(p: MultiPoly, poly: "sympy.Poly") -> bool:
    return dict(p.terms) == coeffs_of(poly)


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations(seed):
    _, _, gens, p, q = case(seed)
    P, Q = to_sympy(p, gens), to_sympy(q, gens)
    assert agrees(p + q, P + Q)
    assert agrees(p - q, P - Q)
    assert agrees(p * q, P * Q)
    assert agrees(-p, -P)


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_operations(seed):
    rng, _, gens, p, _ = case(seed)
    P = to_sympy(p, gens)
    for c in (rand_scalar(rng), rng.randint(-12, 12) or 7):
        s = sympy.Rational(c.numerator, c.denominator)
        assert agrees(p * c, P * s)
        assert agrees(c * p, P * s)
        assert agrees(p / c, P * (1 / s))


@pytest.mark.parametrize("seed", SEEDS)
def test_powers(seed):
    _, _, gens, p, _ = case(seed)
    P = to_sympy(p, gens)
    for k in range(4):
        assert agrees(p**k, P**k)


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_div_linear(seed):
    rng, vs, gens, p, _ = case(seed)
    weights = [rng.choice((0, rng.randint(-5, 5))) for _ in vs]
    weights[rng.randrange(len(vs))] = rng.choice((-3, -1, 1, 2, 5))
    form = linear_form(vs, weights)
    L = to_sympy(form, gens)

    quot, rem = sympy.div(to_sympy(p * form, gens), L)
    assert rem.is_zero
    assert agrees(exact_div_linear(p * form, weights), quot)

    # a constant term breaks divisibility: the form vanishes at the origin
    inexact = p * form + MultiPoly.const(vs, rand_scalar(rng))
    _, rem = sympy.div(to_sympy(inexact, gens), L)
    assert not rem.is_zero
    with pytest.raises(InexactDivisionError):
        exact_div_linear(inexact, weights)


def to_expr(p: MultiPoly, gens):
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        total += sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(g**e for g, e in zip(gens, exps))
        )
    return total


def expr_coeffs(expr, gens) -> dict:
    if not gens:  # a constant; sympy has no Poly without generators
        return {(): Fraction(int(expr.p), int(expr.q))} if expr else {}
    return coeffs_of(sympy.Poly(expr, *gens, domain=QQ))


def normalised(p: MultiPoly) -> bool:
    """The representation invariant: nonzero int numerators over one positive
    den, in lowest terms, with den == 1 for zero."""
    return (
        p.den > 0
        and all(isinstance(c, int) and c for c in p.num.values())
        and gcd(p.den, *p.num.values()) == 1
        and (p.den == 1 or bool(p.num))
    )


def rand_groups(rng: random.Random, vs: VarSet) -> list:
    """Groups of (a, b, r) rows drawn from a shared pool: mixed denominators,
    integer, rational and zero weights, zero operands, empty groups."""
    pool = [rand_poly(rng, vs) for _ in range(4)] + [MultiPoly.zero(vs)]

    def row():
        weight = rng.choice((0, 1, rng.randint(-9, 9), rand_scalar(rng)))
        return rng.choice(pool), rng.choice(pool), weight

    return [[row() for _ in range(rng.randint(0, 5))] for _ in range(rng.randint(0, 4))]


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_of_products(seed):
    rng = random.Random(seed)
    vs = VarSet(tuple(f"x{i}" for i in range(seed % 4)))  # 0 to 3 variables
    gens = sympy.symbols(vs.names)
    groups = rand_groups(rng, vs)
    out = sum_of_products(vs, groups)
    assert len(out) == len(groups)
    for group, got in zip(groups, out):
        expected = sympy.expand(
            sum(
                (
                    sympy.Rational(r.numerator, r.denominator)
                    * to_expr(a, gens)
                    * to_expr(b, gens)
                    for a, b, r in group
                ),
                sympy.Integer(0),
            )
        )
        assert dict(got.terms) == expr_coeffs(expected, gens)
        assert normalised(got)


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_of_products_cancels_to_exact_zero(seed):
    rng, vs, _, p, q = case(seed)
    r = rand_scalar(rng)
    other = rand_poly(rng, vs)
    zero, half = sum_of_products(
        vs,
        [
            [(p, q, r), (other, p, 3), (q, p, -r), (p, other, -3)],
            [(p, q, Fraction(1, 3)), (p, q, Fraction(1, 6))],
        ],
    )
    assert zero.is_zero() and zero.den == 1 and normalised(zero)
    assert half == p * q / 2 and normalised(half)


def test_sum_of_products_without_rows():
    vs = VarSet.of("x")
    assert sum_of_products(vs, []) == []
    assert sum_of_products(vs, [[], []]) == [MultiPoly.zero(vs)] * 2


def sympy_sequences(n: int):
    """w[0..n] and u[0..n] from the recurrences in the sequences docstring:

    n*w[n] + (n*(n-1) - b)*w[n-1] - c*w[n-3] = 0
    n*u[n] - 2*(2*n-1)*(n*(n-1) - b)*u[n-1] + 4*c*(n-1)*u[n-2] = 0
    with w[0] = u[0] = 1.
    """
    b, c = sympy.symbols("b c")
    w, u = [sympy.Integer(1)], [sympy.Integer(1)]
    for k in range(1, n + 1):
        w_prev3 = w[k - 3] if k >= 3 else 0
        w.append(sympy.expand((c * w_prev3 - (k * (k - 1) - b) * w[k - 1]) / k))
        u_prev2 = u[k - 2] if k >= 2 else 0
        u.append(
            sympy.expand(
                (2 * (2 * k - 1) * (k * (k - 1) - b) * u[k - 1] - 4 * c * (k - 1) * u_prev2) / k
            )
        )
    return [sympy.Poly(e, b, c, domain=QQ) for e in w], [sympy.Poly(e, b, c, domain=QQ) for e in u]


def test_w_and_u_match_sympy_recurrences():
    n = 10
    w_ref, u_ref = sympy_sequences(n)
    w, u = gen_w(n), gen_u(n)
    for k in range(n + 1):
        assert agrees(w[k], w_ref[k]), k
        assert agrees(u[k], u_ref[k]), k
