"""Scalar-point oracle for the recurrence engine, the transforms and the
bracket tables.

At seeded integer points (b, c) with |b|, |c| up to 2^32, each sequence is
built from its defining scalar recurrence or sum with plain int and Fraction
arithmetic: no MultiPoly arithmetic and no sum_of_products.  The library's
output enters only through MultiPoly.eval.  By Schwartz-Zippel (Schwartz,
JACM 1980; Zippel, EUROSAM 1979), a nonzero difference of total degree d
vanishes at a point drawn from S^k with probability at most d/|S|, so a
wrong polynomial passes three points with |S| >= 2^32 only with negligible
probability.
"""

import random
from fractions import Fraction

import pytest

from conftest import CORPUS, SPECS_DIR, q_poly
from recint.brackets import BracketTable, QTuple
from recint.reclang import parse_spec, run_spec
from recint.scalars import binomial, factorial
from recint.sequences import gen_u, gen_w, u_bin, u_conv, w_inv
from test_series_oracle import w_values

SEEDS = (31, 32, 33)
W_ORDER = 80
U_ORDER = 60
SPEC_ORDER = 40


def integer(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(2, 2**32)


def point(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return integer(rng), integer(rng)


def u_values(b, c, order: int) -> list[Fraction]:
    """n u[n] = 2(2n-1)(n(n-1) - b) u[n-1] - 4c(n-1) u[n-2], u[0] = 1."""
    u = [Fraction(1)]
    for n in range(1, order + 1):
        acc = 2 * (2 * n - 1) * (n * (n - 1) - b) * u[n - 1]
        if n >= 2:
            acc -= 4 * c * (n - 1) * u[n - 2]
        u.append(acc / n)
    return u


def at(seq, values: dict) -> list[Fraction]:
    return [term.eval(values) for term in seq.terms]


# -- w and u ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_w(seed):
    b, c = point(seed)
    assert at(gen_w(W_ORDER), {"b": b, "c": c}) == w_values(b, c, W_ORDER)


@pytest.mark.parametrize("seed", SEEDS)
def test_u(seed):
    b, c = point(seed)
    assert at(gen_u(U_ORDER), {"b": b, "c": c}) == u_values(b, c, U_ORDER)


# -- the transforms, each against its own scalar sum ---------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_u_conv(seed):
    b, c = point(seed)
    n = 20
    w = w_values(b, c, 2 * n)
    sums = [sum((-1) ** k * w[k] * w[2 * m - k] for k in range(2 * m + 1)) for m in range(n + 1)]
    assert at(u_conv(n, gen_w(2 * n)), {"b": b, "c": c}) == sums
    assert sums == u_values(b, c, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_u_bin(seed):
    b, c = point(seed)
    n = 40
    w = w_values(b, c, n)
    sums = [
        (-1) ** m
        * sum(
            (-1) ** k
            * c**k
            * factorial(m - 2 * k)
            * w[m - 2 * k]
            * binomial(m - k, k)
            * binomial(2 * m - 2 * k, m - k)
            for k in range(m // 2 + 1)
        )
        for m in range(n + 1)
    ]
    assert at(u_bin(n, gen_w(n)), {"b": b, "c": c}) == sums
    assert sums == u_values(b, c, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_w_inv(seed):
    # the inversion sum carries sqrt(c): take c = s^2 for an integer s
    b, s = point(seed)
    c = s * s
    n = 25
    u = u_values(b, c, n)

    def inversion_sum(j: int) -> Fraction:
        return sum(
            Fraction(binomial(j, m), binomial(2 * m, m))
            * sum(
                (-1) ** (j + m + k)
                * (binomial(2 * m, m - k) - binomial(2 * m, m - k - 1))
                * 2 ** (m - k)
                * s ** (j - k)
                * u[k]
                for k in range(m + 1)
            )
            for m in range(j + 1)
        )

    sums = [inversion_sum(j) for j in range(n + 1)]
    assert at(w_inv(n, gen_u(n)), {"b": b, "c": c}) == sums
    assert sums == [factorial(j) * v for j, v in enumerate(w_values(b, c, n))]


# -- the spec corpus -----------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_spec(name):
    spec = parse_spec((SPECS_DIR / name).read_text())
    out = run_spec(spec, SPEC_ORDER)
    for seed in SEEDS:
        rng = random.Random(seed)
        values = {v: integer(rng) for v in spec.ring_vars}
        seq = [Fraction(1)]
        for k in range(1, SPEC_ORDER + 1):
            acc = sum(
                q.eval({**values, "n": k}) * seq[k - i]
                for i, q in enumerate(spec.q, start=1)
                if i <= k
            )
            seq.append(acc / k**spec.lead_power)
        assert at(out, values) == seq, (name, seed)


# -- bracket tables ------------------------------------------------------------------

#: Q_1..Q_d as coefficient lists in ascending powers of t, with a level bound:
#: the odd tuples of scripts/bracket_survey.py at its bounds, and one even
#: tuple whose entries are polynomials all the same
TUPLES = {
    "t": (([0, 1],), 8),
    "t^3": (([0, 0, 0, 1],), 8),
    "t,t": (([0, 1], [0, 1]), 8),
    "t,t^3": (([0, 1], [0, 0, 0, 1]), 8),
    "t^3-3*t,t": (([0, -3, 0, 1], [0, 1]), 8),
    "t^5,t^3,t": (([0, 0, 0, 0, 0, 1], [0, 0, 0, 1], [0, 1]), 6),
    "t^2": (([0, 0, 1],), 8),
}


def scalar_brackets(qs, x: list[Fraction], bound: int) -> dict[tuple[int, ...], Fraction]:
    """<Q>_m(x) = sum_i Q_i(<m, x> - x_i/2) <Q>_{m - e_i}(x) / <m, x> for
    |m| <= bound, level by level from <Q>_0 = 1."""
    d = len(qs)

    def q_at(i: int, t: Fraction) -> Fraction:
        return sum(coef * t**k for k, coef in enumerate(qs[i]))

    out = {(0,) * d: Fraction(1)}
    level = {(0,) * d}
    for _ in range(bound):
        nxt = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in level for i in range(d)}
        for m in nxt:
            form = sum(mj * xj for mj, xj in zip(m, x))
            total = Fraction(0)
            for i in range(d):
                if m[i]:
                    prev = out[m[:i] + (m[i] - 1,) + m[i + 1 :]]
                    total += q_at(i, form - x[i] / 2) * prev
            out[m] = total / form
        level = nxt
    return out


@pytest.mark.parametrize("name", TUPLES)
def test_bracket_entries(name):
    qs, bound = TUPLES[name]
    table = BracketTable(QTuple([q_poly(cs) for cs in qs], permissive=True))
    table.extend_to_level(bound)
    for seed in SEEDS:
        rng = random.Random(seed)
        x = [Fraction(rng.randint(1, 2**32), rng.randint(1, 2**16)) for _ in qs]
        names = {f"x{i}": xi for i, xi in enumerate(x, start=1)}
        expected = scalar_brackets(qs, x, bound)
        assert {m: table.entry(m).eval(names) for m in expected} == expected, seed
