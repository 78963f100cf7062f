"""Parametric sequence generators and the exact transforms between them.

The two core families w and u live over the ring Z[b, c].  WSEQ_TEXT and
USEQ_TEXT state their recurrences in the spec language (those of
specs/wseq.spec and specs/useq.spec; w[0] = u[0] = 1), and gen_w and gen_u
run them on reclang's SpecRunner, the one recurrence engine.  u is the
coefficient sequence of the even product series built from the
w-generating series; u_conv, u_bin and w_inv are the independent routes
between the two families that the test suite plays against each other.
Apery's integer sequence rides along as the classical stress case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .multipoly import MultiPoly, VarSet, denom_profile, sum_of_products
from .reclang import ParamSeq, SpecRunner, parse_spec
from .scalars import binomial, factorial

RING_BC = VarSet.of("b", "c")
RING_B = VarSet.of("b")
#: Square-root cover of RING_BC used by w_inv: s stands in for sqrt(c).
RING_BS = VarSet.of("b", "s")

_C = MultiPoly.variable(RING_BC, "c")

WSEQ_TEXT = """\
ring b c;
seq w;
rec: n*w[n] = (b - n*(n - 1))*w[n-1] + c*w[n-3];
"""

USEQ_TEXT = """\
ring b c;
seq u;
rec: n*u[n] = 2*(2*n - 1)*(n*(n - 1) - b)*u[n-1] - 4*c*(n - 1)*u[n-2];
"""

_W = SpecRunner(parse_spec(WSEQ_TEXT))
_U = SpecRunner(parse_spec(USEQ_TEXT))


class IntegralityViolationError(ArithmeticError):
    """An exact integer division demanded by a recurrence failed."""


class IdentityViolationError(ArithmeticError):
    """A structural cancellation demanded by a closed formula failed."""


def gen_w(n: int) -> ParamSeq:
    """w[0..n] from the three-term recurrence."""
    return _W.upto(n)


def gen_u(n: int) -> ParamSeq:
    """u[0..n] from the two-term recurrence."""
    return _U.upto(n)


def gen_apery(n: int) -> list[int]:
    """Apery's sequence 1, 5, 73, 1445, ... via its three-term recurrence.

    Each step divides by n^3; inexactness would disprove integrality and
    raises IntegralityViolationError.
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
            raise IntegralityViolationError(f"apery step {k}: remainder {r} after /{k**3}")
        terms.append(q)
    return terms


def apery_closed_form(n: int) -> int:
    """Independent oracle: sum of binomial(n+k, k)^2 * binomial(n, k)^2."""
    return sum(binomial(n + k, k) ** 2 * binomial(n, k) ** 2 for k in range(n + 1))


# -- transforms between the families -------------------------------------------


def u_conv(n: int, w: ParamSeq) -> ParamSeq:
    """u via the alternating self-convolution of w.

    u[m] = sum_{k=0}^{2m} (-1)^k w[k] w[2m-k]; needs w up to index 2n.

    The mirror pair (k, 2m-k) is collapsed (both carry sign (-1)^k):

        u[m] = (-1)^m w[m]^2 + 2 sum_{k<m} (-1)^k w[k] w[2m-k]

    and each u[m] is summed over the common denominator (2m)!, so that
    every intermediate coefficient is an integer.
    """
    if len(w) < 2 * n + 1:
        raise ValueError(f"need w terms up to index {2 * n}, have {len(w) - 1}")
    groups = (
        [(w[m], w[m], (-1) ** m)] + [(w[k], w[2 * m - k], 2 * (-1) ** k) for k in range(m)]
        for m in range(n + 1)
    )
    return ParamSeq(w.ring, sum_of_products(w.ring, groups))


def u_bin(n: int, w: ParamSeq) -> ParamSeq:
    """u via the single binomial sum.

    u[m] = (-1)^m sum_{k=0}^{floor(m/2)} (-1)^k c^k (m-2k)! w[m-2k]
                   * binomial(m-k, k) * binomial(2m-2k, m-k)
    """
    if len(w) < n + 1:
        raise ValueError(f"need w terms up to index {n}, have {len(w) - 1}")
    ck = [MultiPoly.one(RING_BC)]
    for _ in range(n // 2):
        ck.append(ck[-1] * _C)

    def weight(m: int, k: int) -> int:
        coef = factorial(m - 2 * k) * binomial(m - k, k) * binomial(2 * m - 2 * k, m - k)
        return -coef if (m + k) % 2 else coef

    groups = (
        [(ck[k], w[m - 2 * k], weight(m, k)) for k in range(m // 2 + 1)] for m in range(n + 1)
    )
    return ParamSeq(RING_BC, sum_of_products(RING_BC, groups))


def _embed_sqrt(p: MultiPoly) -> MultiPoly:
    """Map Z[b, c] into Z[b, s] by c -> s^2."""
    if p.vs != RING_BC:
        raise ValueError("expected a polynomial over (b, c)")
    return MultiPoly._new(RING_BS, {(i, 2 * j): coef for (i, j), coef in p.num.items()}, p.den)


def split_sqrt_parity(p: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Split a Z[b, s] polynomial into its even-in-s and odd-in-s parts."""
    even: dict[tuple[int, int], int] = {}
    odd: dict[tuple[int, int], int] = {}
    for (i, j), coef in p.num.items():
        (odd if j % 2 else even)[(i, j)] = coef
    return MultiPoly._make(RING_BS, even, p.den), MultiPoly._make(RING_BS, odd, p.den)


def _inversion_sums(u: ParamSeq, ns: Sequence[int]) -> list[MultiPoly]:
    """inv_formula_sum(n, u) for each n in ns, sharing the inner sums.

    With s^(n-k) = s^(n-m) s^(m-k), the inner sum over k does not depend
    on n:

        I(m) = sum_{k=0}^{m} (-1)^k (binomial(2m,m-k) - binomial(2m,m-k-1))
                                * 2^(m-k) * s^(m-k) * u[k](b, s^2)
        total(n) = sum_{m=0}^{n} (-1)^(n+m) binomial(n,m)/binomial(2m,m) * s^(n-m) * I(m)
    """
    top = max(ns)
    us = [_embed_sqrt(u[k]) for k in range(top + 1)]
    spow = [MultiPoly.monomial(RING_BS, (0, j), 1) for j in range(top + 1)]

    def inner_weight(m: int, k: int) -> int:
        return (-1) ** k * (binomial(2 * m, m - k) - binomial(2 * m, m - k - 1)) * 2 ** (m - k)

    inner = sum_of_products(
        RING_BS,
        ([(spow[m - k], us[k], inner_weight(m, k)) for k in range(m + 1)] for m in range(top + 1)),
    )

    def outer_weight(n: int, m: int) -> Fraction:
        return Fraction((-1) ** (n + m) * binomial(n, m), binomial(2 * m, m))

    return sum_of_products(
        RING_BS,
        ([(spow[n - m], inner[m], outer_weight(n, m)) for m in range(n + 1)] for n in ns),
    )


def inv_formula_sum(n: int, u: ParamSeq) -> MultiPoly:
    """Raw inversion sum for n! * w[n], over Z[b, s] with s^2 = c.

    sum_{m=0}^{n} binomial(n,m)/binomial(2m,m)
      * sum_{k=0}^{m} (-1)^(n+m+k) (binomial(2m,m-k) - binomial(2m,m-k-1))
                      * 2^(m-k) * s^(n-k) * u[k](b, s^2)

    The half-integer powers of c appear as odd powers of s; they must cancel
    identically in the total (checked by the caller).
    """
    return _inversion_sums(u, [n])[0]


def w_inv(n: int, u: ParamSeq) -> ParamSeq:
    """n! * w[n] recovered from u alone, via the inversion sum.

    Raises IdentityViolationError if any odd power of s survives; otherwise
    reduces s^2 -> c and returns the factorial-scaled w prefix.
    """
    if len(u) < n + 1:
        raise ValueError(f"need u terms up to index {n}, have {len(u) - 1}")
    terms = []
    for m, raw in enumerate(_inversion_sums(u, range(n + 1))):
        even, odd = split_sqrt_parity(raw)
        if not odd.is_zero():
            raise IdentityViolationError(
                f"inversion sum at n={m}: odd sqrt powers survive: {odd.text()}"
            )
        reduced = MultiPoly._new(
            RING_BC, {(i, j // 2): coef for (i, j), coef in even.num.items()}, even.den
        )
        terms.append(reduced)
    return ParamSeq(RING_BC, terms)


# -- specializations -------------------------------------------------------------


def poch_products(n: int) -> list[MultiPoly]:
    """[poch_product(0), ..., poch_product(n)], as one running product."""
    acc = MultiPoly.one(RING_B)
    bvar = MultiPoly.variable(RING_B, "b")
    out = [acc]
    for i in range(n):
        acc = acc * (MultiPoly.const(RING_B, i * (i + 1)) - bvar)
        out.append(acc)
    return out


def poch_product(n: int) -> MultiPoly:
    """prod_{i=0}^{n-1} (i*(i+1) - b) over Z[b]: the collapsed Pochhammer pair."""
    return poch_products(n)[n]


def u_c0(n: int) -> MultiPoly:
    """Closed form of u[n] at c = 0: binomial(2n, n) * poch_product(n)."""
    return poch_product(n) * binomial(2 * n, n)


# -- structured dumps ------------------------------------------------------------


def seq_records(seq: ParamSeq) -> list[dict]:
    """One record per term: index, canonical text, denominator profile."""
    out = []
    for i, term in enumerate(seq.terms):
        prof = denom_profile(term)
        out.append(
            {
                "n": i,
                "poly": term.text(),
                "denominator": prof.lcm_denominator,
                "v2_defect": prof.max_neg_v2,
            }
        )
    return out
