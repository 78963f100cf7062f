"""Scalar-point oracle for the series layer.

At seeded rational points (b, c), the coefficients of g = sum w[n] t^n, of
g(-t), of theta^j g and of the Pochhammer series are built from their scalar
recurrences with plain Fractions, and their Cauchy products by plain double
loops; so are the right sides of id3, r2 and the Clausen square, with the
coefficients of (1 + 4c t^4)^(-1/2) and of (t (1 - t))^n in closed form.  No
MultiPoly arithmetic is involved.  Each is compared with
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
from recint.sequences import gen_w
from recint.series import (
    TruncSeries,
    _clausen_rhs,
    _dot,
    _id3_rhs,
    _r2_rhs,
    base_series,
    product_series,
)

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

    def weight(i, j):  # theta^t(g)[i] theta^(2k-t)(g)[j] = i^t j^(2k-t) g[i] g[j]
        return sum((-1) ** t * i**t * j ** (2 * k - t) for t in range(2 * k + 1))

    fused = _dot(RING_BC, ORDER, [(g, g, weight)])
    # sum_j (-1)^j theta^j(g) theta^(2k-j)(g) from the scalar theta series
    thetas = [[n**j * v for n, v in enumerate(w)] for j in range(2 * k + 1)]
    products = [cauchy(thetas[j], thetas[2 * k - j]) for j in range(2 * k + 1)]
    expected = [sum((-1) ** j * p[d] for j, p in enumerate(products)) for d in range(ORDER + 1)]
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


def power_sum(scalars: list[Fraction], x: list[Fraction]) -> list[Fraction]:
    """sum_n scalars[n] * x^n, truncated to len(x) coefficients."""
    acc = [Fraction(0)] * len(x)
    xn = [Fraction(1)] + [Fraction(0)] * (len(x) - 1)
    for s in scalars:
        acc = [a + s * v for a, v in zip(acc, xn)]
        xn = cauchy(xn, x)
    return acc


@pytest.mark.parametrize("seed", SEEDS)
def test_id3_right_side(seed):
    b, c = point(seed)
    w = w_values(b, c, ORDER // 2)
    expected = [Fraction(0)] * (ORDER + 1)
    for k in range(ORDER // 4 + 1):
        for n in range((ORDER - 4 * k) // 2 + 1):
            scal = factorial(n) * binomial(n + k, k) * binomial(2 * n + 2 * k, n + k)
            expected[2 * n + 4 * k] += (-1) ** (n + k) * c**k * scal * w[n]
    assert at(_id3_rhs(ORDER, gen_w(ORDER // 2)), {"b": b, "c": c}) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_r2_right_side(seed):
    b, c = point(seed)
    w = w_values(b, c, ORDER // 2)
    # (1 + 4c t^4)^(-1/2) = sum_j (-1)^j binomial(2j, j) c^j t^(4j), and
    # x = -t^2 / (1 + 4c t^4) = -sum_j (-4c)^j t^(4j + 2)
    s = [Fraction(0)] * (ORDER + 1)
    x = [Fraction(0)] * (ORDER + 1)
    for j in range(ORDER // 4 + 1):
        s[4 * j] = (-1) ** j * binomial(2 * j, j) * c**j
        if 4 * j + 2 <= ORDER:
            x[4 * j + 2] = -((-4 * c) ** j)
    scalars = [binomial(2 * n, n) * factorial(n) * v for n, v in enumerate(w)]
    expected = cauchy(s, power_sum(scalars, x))
    assert at(_r2_rhs(ORDER, gen_w(ORDER // 2)), {"b": b, "c": c}) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_clausen_right_side(seed):
    b, _ = point(seed)
    p = poch_values(b, POCH_ORDER)
    scalars = [v * Fraction(binomial(2 * n, n), factorial(n) ** 2) for n, v in enumerate(p)]
    # (t (1 - t))^n has coefficient (-1)^(d-n) binomial(n, d - n) at t^d
    expected = [
        sum(scalars[n] * (-1) ** (d - n) * binomial(n, d - n) for n in range(d // 2, d + 1))
        for d in range(POCH_ORDER + 1)
    ]
    assert at(_clausen_rhs(POCH_ORDER, poch_products(POCH_ORDER)), {"b": b}) == expected
