"""Scalar-point oracle for the series layer.

At seeded rational points (b, c), the coefficients of g = sum w[n] t^n, of
g(-t), of theta^j g and of the Pochhammer series are built from their scalar
recurrences with plain Fractions, and their Cauchy products by plain double
loops; no MultiPoly arithmetic is involved.  Each is compared with
MultiPoly.eval of the coefficients the library computes.  A wrong
polynomial agrees with the right one at a random point of this size only
with negligible probability (Schwartz-Zippel), so a few points check the
whole polynomial.
"""

import random
from fractions import Fraction

import pytest

from recint.scalars import binomial, factorial
from recint.sequences import RING_B, RING_BC, poch_products
from recint.series import TruncSeries, _dot, base_series, product_series

ORDER = 24
POCH_ORDER = 20
SEEDS = (11, 12, 13)


def point(seed: int) -> tuple[Fraction, Fraction]:
    rng = random.Random(seed)

    def value():
        return Fraction(rng.choice((-1, 1)) * rng.randint(2, 2**32), rng.randint(2, 2**16))

    return value(), value()


def w_values(b: Fraction, c: Fraction, order: int) -> list[Fraction]:
    """n w[n] = (b - n(n-1)) w[n-1] + c w[n-3], w[0] = 1."""
    w = [Fraction(1)]
    for n in range(1, order + 1):
        acc = (b - n * (n - 1)) * w[n - 1]
        if n >= 3:
            acc += c * w[n - 3]
        w.append(acc / n)
    return w


def poch_values(b: Fraction, order: int) -> list[Fraction]:
    """P[n] = prod_{i<n} (i(i+1) - b)."""
    p = [Fraction(1)]
    for i in range(order):
        p.append(p[-1] * (i * (i + 1) - b))
    return p


def cauchy(x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
    return [sum(x[i] * y[d - i] for i in range(d + 1)) for d in range(len(x))]


def at(series: TruncSeries, values: dict) -> list[Fraction]:
    return [c.eval(values) for c in series.coeffs]


@pytest.fixture(scope="module")
def g():
    return base_series(ORDER)


@pytest.mark.parametrize("seed", SEEDS)
def test_base_series_and_reflection(g, seed):
    b, c = point(seed)
    w = w_values(b, c, ORDER)
    assert at(g, {"b": b, "c": c}) == w
    assert at(g.reflect(), {"b": b, "c": c}) == [(-1) ** n * v for n, v in enumerate(w)]


@pytest.mark.parametrize("seed", SEEDS)
def test_product_with_reflection(g, seed):
    b, c = point(seed)
    w = w_values(b, c, ORDER)
    expected = cauchy(w, [(-1) ** n * v for n, v in enumerate(w)])
    assert all(v == 0 for v in expected[1::2])
    assert at(g * g.reflect(), {"b": b, "c": c}) == expected
    assert at(product_series(ORDER), {"b": b, "c": c}) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_product_with_theta_cubed(g, seed):
    b, c = point(seed)
    w = w_values(b, c, ORDER)
    expected = cauchy(w, [n**3 * v for n, v in enumerate(w)])
    assert at(g * g.theta().theta().theta(), {"b": b, "c": c}) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", (0, 1, 2))
def test_fused_derivation_sum(g, seed, k):
    b, c = point(seed)
    w = w_values(b, c, ORDER)
    powers = [g]
    for _ in range(2 * k):
        powers.append(powers[-1].theta())
    pairs = [(powers[j], powers[2 * k - j], (-1) ** j) for j in range(2 * k + 1)]
    fused = _dot(RING_BC, ORDER, pairs)
    expected = [
        sum(
            (-1) ** j * i**j * (d - i) ** (2 * k - j) * w[i] * w[d - i]
            for j in range(2 * k + 1)
            for i in range(d + 1)
        )
        for d in range(ORDER + 1)
    ]
    assert [p.eval({"b": b, "c": c}) for p in fused] == expected
    # the telescoping identity itself, at the point
    lhs = cauchy(w, [n ** (2 * k + 1) * v for n, v in enumerate(w)])
    assert lhs == [Fraction(d, 2) * v for d, v in enumerate(expected)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pochhammer_series(seed):
    b, _ = point(seed)
    p = poch_values(b, POCH_ORDER)
    pochs = poch_products(POCH_ORDER)
    assert [q.eval({"b": b}) for q in pochs] == p
    # hg-c0: a(t) a(-t) with a[n] = P[n] / n!
    a = TruncSeries(RING_B, POCH_ORDER, [q * Fraction(1, factorial(n)) for n, q in enumerate(pochs)])
    av = [v / factorial(n) for n, v in enumerate(p)]
    expected = cauchy(av, [(-1) ** n * v for n, v in enumerate(av)])
    assert at(a * a.reflect(), {"b": b}) == expected
    assert expected[::2] == [p[n] * binomial(2 * n, n) for n in range(POCH_ORDER // 2 + 1)]
    # clausen: f(t)^2 with f[n] = P[n] / n!^2
    f = TruncSeries(
        RING_B, POCH_ORDER, [q * Fraction(1, factorial(n) ** 2) for n, q in enumerate(pochs)]
    )
    fv = [v / factorial(n) ** 2 for n, v in enumerate(p)]
    assert at(f * f, {"b": b}) == cauchy(fv, fv)
