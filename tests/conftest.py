"""Shared test helpers.

Exposes the repo paths, an in-process CLI runner, a linear-form builder,
the odd monomial atoms t^(2j+1), the term-pair convolution reference, the
per-degree series-product reference, the exponent-tuple route of to_upoly,
a patch that makes every polynomial's num view raise (forbid_unpacking),
a perturbation of the derivation check's kernel calls with a product
reference for its left side, the term-by-term right sides of the id3, r2
and Clausen identities, the closed form of u at c = 0, Apery's sequence
with its closed form, the closed form of the all-t brackets, and the
acceptance-line collector: acceptance tests append one PASS/FAIL line per
criterion and the terminal-summary hook prints them as a block at the end
of the run.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SPECS_DIR = REPO_ROOT / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"

CORPUS = (
    "useq.spec",
    "wseq.spec",
    "apery.spec",
    "odd-cubic.spec",
    "odd-mixed.spec",
    "odd-deep.spec",
)

ACCEPTANCE_LINES: list[str] = []


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    from recint.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def linear_form(vs, coeffs: Sequence[Fraction | int]):
    """The linear polynomial sum(coeffs[i] * vs[i]) as a MultiPoly over vs."""
    from recint.multipoly import MultiPoly

    if len(coeffs) != len(vs):
        raise ValueError("coefficient count does not match variable count")
    terms = {}
    for i, c in enumerate(coeffs):
        e = [0] * len(vs)
        e[i] = 1
        terms[tuple(e)] = c
    return MultiPoly(vs, terms)


def q_poly(coeffs):
    """The Q polynomial sum(coeffs[k] * t^k), a MultiPoly over (t,) as
    parse_poly_list reads a bracket tuple."""
    from recint.multipoly import MultiPoly, VarSet

    return MultiPoly(VarSet.of("t"), {(k,): c for k, c in enumerate(coeffs)})


def q_monomial(halfdeg: int):
    """The odd atom t^(2*halfdeg + 1) as a Q polynomial."""
    if halfdeg < 0:
        raise ValueError("negative half-degree")
    return q_poly([0] * (2 * halfdeg + 1) + [1])


def conv_by_products(n: int, w):
    """u[0..n] from w[0..2n] by the alternating self-convolution, summed as
    term pairs in the multiply kernel: the reference for sequences.u_conv.

    u[m] = (-1)^m w[m]^2 + 2 sum_{k<m} (-1)^k w[k] w[2m-k], one
    sum_of_products group per m.
    """
    from recint.multipoly import sum_of_products
    from recint.reclang import ParamSeq

    if len(w) < 2 * n + 1:
        raise ValueError(f"need w terms up to index {2 * n}, have {len(w) - 1}")
    groups = (
        [(w[m], w[m], (-1) ** m)] + [(w[k], w[2 * m - k], 2 * (-1) ** k) for k in range(m)]
        for m in range(n + 1)
    )
    return ParamSeq(w.ring, sum_of_products(w.ring, groups))


def dot_by_products(vs, order: int, pairs):
    """Coefficients of sum(s * x * y for x, y, s in pairs) through the order,
    for scalars s, one MultiPoly product and one addition per coefficient
    pair in each degree: the reference for series._dot, with its weights
    given here as s and as scaled series (theta, reflect)."""
    from recint.multipoly import MultiPoly

    out = [MultiPoly.zero(vs)] * (order + 1)
    for x, y, s in pairs:
        for i, a in enumerate(x.coeffs):
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + a * y.coeffs[j] * s
    return out


def to_upoly_by_exponents(p, var: str):
    """p as univariate in var, from its exponent tuples: per power of var a
    dict of the other exponents, normalised by MultiPoly._make.  The
    reference for multipoly.to_upoly, which splits the packed keys instead."""
    from recint.multipoly import MultiPoly, UPoly

    i = p.vs.index(var)
    sub = p.vs.without(var)
    buckets: dict = {}
    for exps, c in p.num.items():
        buckets.setdefault(exps[i], {})[exps[:i] + exps[i + 1 :]] = c
    deg = max(buckets, default=-1)
    return UPoly(sub, [MultiPoly._make(sub, buckets.get(k, {}), p.den) for k in range(deg + 1)])


def forbid_unpacking(monkeypatch):
    """Patch MultiPoly.num to raise, so that reading the exponent-tuple view
    of any polynomial (num, terms, eval, subst_value) fails the test: the
    code run afterwards must work on the packed form alone."""
    from recint.multipoly import MultiPoly

    def unpacked(self):
        raise AssertionError(f"a polynomial was unpacked: {self.text()}")

    monkeypatch.setattr(MultiPoly, "num", property(unpacked))


def perturb_derivation(monkeypatch, degree: int, group: int):
    """Rebind series.sum_of_products so that in its call for `degree` of a
    derivation check, one call per degree from 0, result `group` gains 1.
    The series f is built by the recurrence engine on reclang's binding of
    the kernel, so only the check's calls are counted.  With ks = (1, 0, 2)
    the groups are the left and right side of k = 1, then of k = 0, then of
    k = 2."""
    from recint import series

    calls = [0]
    kernel = series.sum_of_products

    def perturbed(vs, groups):
        out = kernel(vs, groups)
        if calls[0] == degree:
            out[group] = out[group] + 1
        calls[0] += 1
        return out

    monkeypatch.setattr(series, "sum_of_products", perturbed)


def derivation_lhs_by_products(f, k: int, degree: int):
    """Coefficient `degree` of f * theta^(2k+1)(f), one product per pair."""
    g = f
    for _ in range(2 * k + 1):
        g = g.theta()
    return dot_by_products(f.vs, f.order, [(f, g, 1)])[degree]


def id3_rhs_by_terms(order: int, w):
    """The right side of id3 from w[0..order // 2], one MultiPoly product
    and one addition per term: the reference for series._id3_rhs.

    sum_k (-1)^k c^k t^(4k) sum_n n! w[n] binomial(n+k, k) binomial(2n+2k, n+k) (-1)^n t^(2n)
    """
    from recint.multipoly import MultiPoly
    from recint.sequences import RING_BC
    from recint.series import TruncSeries

    c = MultiPoly.variable(RING_BC, "c")
    coeffs = [MultiPoly.zero(RING_BC)] * (order + 1)
    ck = MultiPoly.one(RING_BC)
    for k in range(order // 4 + 1):
        for n in range((order - 4 * k) // 2 + 1):
            scal = math.factorial(n) * math.comb(n + k, k) * math.comb(2 * n + 2 * k, n + k)
            coeffs[2 * n + 4 * k] = coeffs[2 * n + 4 * k] + ck * w[n] * ((-1) ** (n + k) * scal)
        ck = ck * c
    return TruncSeries(RING_BC, order, coeffs)


def r2_rhs_by_terms(order: int, w):
    """The right side of r2 from w[0..order // 2], with the powers x^n built
    by series products from x = -t^2 s^2 and summed with one series scale and
    one series addition per n: the reference for series._r2_rhs.

    (1 + 4c t^4)^(-1/2) * sum_n binomial(2n, n) n! w[n] (-t^2 / (1 + 4c t^4))^n
    """
    from recint.multipoly import MultiPoly
    from recint.sequences import RING_BC
    from recint.series import TruncSeries, inv_sqrt

    c = MultiPoly.variable(RING_BC, "c")
    quartic = TruncSeries(RING_BC, order, [1, 0, 0, 0, c * 4])
    s = inv_sqrt(quartic)
    x = (s * s).shift(2).scale(-1)
    acc = TruncSeries(RING_BC, order)
    xpow = TruncSeries(RING_BC, order, [1])
    for n in range(order // 2 + 1):
        acc = acc + xpow.scale(w[n] * (math.comb(2 * n, n) * math.factorial(n)))
        xpow = xpow * x
    return s * acc


def clausen_rhs_by_terms(order: int, pochs):
    """The right side of the Clausen square from P[0..order], with the powers
    (t (1 - t))^n built by series products and summed with one series scale
    and one series addition per n: the reference for series._clausen_rhs.

    sum_n P[n] binomial(2n, n) (t (1 - t))^n / n!^2
    """
    from recint.sequences import RING_B
    from recint.series import TruncSeries

    tm1t = TruncSeries(RING_B, order, [0, 1, -1])
    acc = TruncSeries(RING_B, order)
    xpow = TruncSeries(RING_B, order, [1])
    for n in range(order + 1):
        acc = acc + xpow.scale(pochs[n] * Fraction(math.comb(2 * n, n), math.factorial(n) ** 2))
        xpow = xpow * tm1t
    return acc


def u_c0(n: int):
    """u[n] at c = 0 in closed form, binomial(2n, n) * prod_{i<n} (i(i+1) - b)
    over Z[b], one factor at a time: the independent side of criterion 5."""
    from recint.multipoly import MultiPoly, VarSet

    ring = VarSet.of("b")
    b = MultiPoly.variable(ring, "b")
    acc = MultiPoly.const(ring, math.comb(2 * n, n))
    for i in range(n):
        acc = acc * (MultiPoly.const(ring, i * (i + 1)) - b)
    return acc


def gen_apery(n: int) -> list[int]:
    """Apery's sequence 1, 5, 73, 1445, ... via its three-term recurrence,
    the integer stress case of criterion 12.

    Each step divides by n^3; inexactness would disprove integrality and
    raises ArithmeticError.
    """
    if n < 0:
        raise ValueError("negative length")
    terms = [1]
    for k in range(1, n + 1):
        acc = (2 * k - 1) * (17 * k * k - 17 * k + 5) * terms[k - 1]
        if k >= 2:
            acc -= (k - 1) ** 3 * terms[k - 2]
        q, r = divmod(acc, k**3)
        if r:
            raise ArithmeticError(f"apery step {k}: remainder {r} after /{k**3}")
        terms.append(q)
    return terms


def apery_closed_form(n: int) -> int:
    """Independent oracle: sum of binomial(n+k, k)^2 * binomial(n, k)^2."""
    return sum(math.comb(n + k, k) ** 2 * math.comb(n, k) ** 2 for k in range(n + 1))


def r3_closed_form(m: Sequence[int]) -> Fraction:
    """Closed form for the all-t tuple, the independent side of criterion 10:
    the bracket collapses to the constant

        binomial(2|m|, |m|) / 4^|m| * multinomial(|m|; m)

    i.e. the z^m coefficient of (1 - z_1 - ... - z_d)^(-1/2).
    """
    m = tuple(m)
    if any(c < 0 for c in m):
        return Fraction(0)
    s = sum(m)
    multi = math.factorial(s)
    for c in m:
        multi //= math.factorial(c)
    return Fraction(math.comb(2 * s, s) * multi, 4**s)


def digits_value(text: str) -> int:
    """The int a decimal string spells, read in chunks that int() accepts."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
