"""Parametric sequence generators and the exact transforms between them.

The two core families w and u live over the ring Z[b, c].  WSEQ_TEXT and
USEQ_TEXT state their recurrences in the spec language (those of
specs/wseq.spec and specs/useq.spec; w[0] = u[0] = 1), and gen_w and gen_u
run them on reclang's SpecRunner, the one recurrence engine.  u is the
coefficient sequence of the even product series built from the
w-generating series; u_conv, u_bin and w_inv are the independent routes
between the two families that the test suite plays against each other.
u_bin and w_inv sum their products in multipoly's fused kernel, which the
recurrence engine also runs on; u_conv shares no kernel with gen_u, since
it evaluates w at integer points and interpolates u from its values there.
Apery's integer sequence rides along as the classical stress case.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, islice, product, repeat
from math import lcm, prod
from operator import add, mul, sub
from typing import Sequence

from .multipoly import MultiPoly, VarSet, _exponent_columns, denom_profile, sum_of_products
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
    """u via the alternating self-convolution of w, by exact evaluation and
    interpolation (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5).

    u[m] = sum_{k=0}^{2m} (-1)^k w[k] w[2m-k]; needs w up to index 2n.  With
    the mirror pairs (k, 2m-k) collapsed, the rows of u[m] are
    (-1)^m w[m]^2 and 2 (-1)^k w[k] w[2m-k] for k < m, over the pairs whose
    factors are both nonzero.

    In each variable, the degree of u[m] is at most the largest degree sum
    deg w[k] + deg w[2m-k] over its rows, whatever w is, so u[m] is fixed by
    its values on a box of bound + 1 consecutive integer nodes per variable,
    -h..bound-h with h = ceil(bound/2).  At a node, L_m u[m] is an integer,
    the sum of f_k N_k N_{2m-k} over the rows: N_k is the value of w[k]'s
    integer numerators there, L_m the lcm of the rows' den_k * den_{2m-k},
    and f_k the row's sign and weight times L_m / (den_k * den_{2m-k}).  The
    numerators are evaluated one node of the first variable at a time
    (_node_slices); each u[m] is interpolated from its box one variable at a
    time (_newton) and reduced once, by MultiPoly._make.  No step multiplies
    two polynomials.
    """
    if len(w) < 2 * n + 1:
        raise ValueError(f"need w terms up to index {2 * n}, have {len(w) - 1}")
    vs = w.ring
    nvars = len(vs)
    size = 2 * n + 1
    terms, dens, degs = [], [], []
    for p in w.terms[:size]:
        if p.vs != vs:
            raise ValueError(f"variable-set mismatch: {p.vs.names} vs {vs.names}")
        cols, nums = _exponent_columns(p)
        terms.append((cols, nums))
        dens.append(p.den)
        degs.append([max(col) for col in cols] if nums else [0] * nvars)
    # per m with a row: the degree bounds, L_m and the f_k (0 off the rows)
    plans: dict[int, tuple[list[int], int, list[int]]] = {}
    for m in range(n + 1):
        ks = [k for k in range(m + 1) if terms[k][1] and terms[2 * m - k][1]]
        if ks:
            bounds = [max(degs[k][v] + degs[2 * m - k][v] for k in ks) for v in range(nvars)]
            lcm_m = lcm(*(dens[k] * dens[2 * m - k] for k in ks))
            f = [0] * (m + 1)
            for k in ks:
                f[k] = (1 if k == m else 2) * (-1) ** k * (lcm_m // (dens[k] * dens[2 * m - k]))
            plans[m] = (bounds, lcm_m, f)
    out = [MultiPoly.zero(vs)] * (n + 1)
    if not plans:
        return ParamSeq(vs, out)
    top = [(max(b[v] for b, _, _ in plans.values()) + 1) // 2 for v in range(nvars)]
    # the values of L_m u[m] on its box, row-major, first variable major;
    # for each point of the other variables' nodes, the boxes that hold it,
    # with the first variable's (h, bound), the box's slice size and the
    # point's place in it
    grids = {m: [0] * prod(b + 1 for b in bounds) for m, (bounds, _, _) in plans.items()}
    points = []
    for point in product(*map(_nodes, top[1:])):
        boxes = []
        for m, (bounds, _, f) in plans.items():
            place = 0
            for x, b in zip(point, bounds[1:]):
                i = x + (b + 1) // 2
                if not 0 <= i <= b:
                    break
                place = place * (b + 1) + i
            else:
                first = bounds[0] if nvars else 0
                width = prod(b + 1 for b in bounds[1:])
                boxes.append(((first + 1) // 2, first, width, place, f, size - 1 - 2 * m, grids[m]))
        points.append(boxes)
    for x0, values in _node_slices(terms, degs, top):
        for p, boxes in enumerate(points):
            row = values[p * size : (p + 1) * size]
            mirror = row[::-1]
            for h, bound, width, place, f, skip, grid in boxes:
                if 0 <= x0 + h <= bound:
                    grid[(x0 + h) * width + place] = sum(
                        map(mul, map(mul, f, row), islice(mirror, skip, None))
                    )
    for m, (bounds, lcm_m, _) in plans.items():
        values, den, shape = grids[m], lcm_m, []
        for b in bounds:
            values, count, scale = _newton(values, (b + 1) // 2, b + 1)
            shape.append(count)
            den *= scale
        num = {e: c for e, c in zip(product(*map(range, shape)), values) if c}
        if num:
            out[m] = MultiPoly._make(vs, num, den)
    return ParamSeq(vs, out)


def _horner(rows, squares: list[int]) -> list[int]:
    """Horner in x^2 over rows (iterators), top power first:
    acc = acc * squares + row, elementwise.  A row may be longer than acc,
    whose missing entries count as 0: groups sorted by degree, highest
    first, join as their degree comes up.  map stops at the end of acc
    before it takes from the row, so the rest of the row follows."""
    acc: list[int] = []
    for row in rows:
        acc = [*map(add, map(mul, acc, squares), row), *row]
    return acc


def _plan(lens: list[int], copies: int, h: int) -> tuple[list, list, list[int], list[int]]:
    """How _evaluate takes one variable of a batch at the nodes 1..h at once.

    The batch is `copies` lists of dense coefficient groups, group g holding
    lens[g] coefficients of the powers 0, 1, ....  The Horner vectors run
    (group by degree, highest first; copy; node).  Returns the batch places
    to gather at each step of the even and of the odd powers, the places of
    the constant coefficients (the values at node 0), and the permutation
    that lays out the output as (copy, node 0, 1..h, -1..-h, group).
    """
    starts = list(accumulate(lens, initial=0))
    size, count = starts.pop(), len(lens)
    order = sorted(range(count), key=lens.__getitem__, reverse=True)
    runs = [(g, c * size + starts[g]) for g in order for c in range(copies)]
    top = lens[order[0]] - 1
    evens, odds = (
        [[base + e for g, base in runs if lens[g] > e for _ in range(h)] for e in powers]
        for powers in (range(top - (top - r) % 2, -1, -2) for r in (0, 1))
    )
    zeros = [c * size + i for c in range(copies) for i in starts]
    # the output is gathered from zeros (copy, group), E + xO and E - xO
    place = [0] * count
    for i, g in enumerate(order):
        place[g] = i * copies * h
    plus, minus = copies * count, copies * count * (h + 1)
    perm = []
    for c in range(copies):
        perm += range(c * count, (c + 1) * count)
        for base in (plus, minus):
            for x in range(h):
                perm += [base + place[g] + c * h + x for g in range(count)]
    return evens, odds, zeros, perm


def _rows(batch: list[int], plan: tuple) -> list:
    """The Horner rows of a batch under a plan, as iterators: of the even,
    then of the odd powers."""
    return [[map(batch.__getitem__, places) for places in steps] for steps in plan[:2]]


def _evaluate(batch: list[int], plan: tuple, rows: list, squares: list[int], nodes: list[int]):
    """One variable of a batch at its nodes, as _plan lays it out: Horner in
    x^2 over its rows (_rows) for the even and the odd powers, whose parts E
    and O give E + xO at x and E - xO at -x; squares and nodes hold x^2 and
    x per place of the Horner vectors."""
    _, _, zeros, perm = plan
    even = _horner(rows[0], squares)
    odd = list(map(mul, _horner(rows[1], squares), nodes))
    rest = even[len(odd) :]
    signed = [
        *map(batch.__getitem__, zeros),
        *map(add, even, odd),
        *rest,
        *map(sub, even, odd),
        *rest,
    ]
    return list(map(signed.__getitem__, perm))


def _node_slices(terms: list[tuple], degs: list[list[int]], top: list[int]):
    """Yield (x, values) for each node x of the first variable in -top[0]..top[0]
    (x = 0 alone when there is no variable).  values holds, for each point of
    the other variables' nodes -top[v]..top[v] (row-major, each variable's
    nodes in the order of _nodes), the values there of all the polynomials
    given as terms, (exponent columns, numerators) pairs (degs: their degree
    per variable).

    The variables are evaluated one at a time by _evaluate, over groups of
    dense coefficients: one group per polynomial and exponents of the later
    variables.  The first variable is taken at one node x > 0 at a time, as
    x and -x; each later one at all its nodes, for all the points before it,
    at once.  Only one node of the first variable is held at a time.
    """
    nvars = len(top)
    if not nvars:
        yield 0, [nums[0] if nums else 0 for _, nums in terms]
        return
    # first variable: per polynomial and exponents of the others (the last
    # one outermost), the dense coefficients in the first exponent
    coefs, lens = [], []
    for (cols, nums), deg in zip(terms, degs):
        dense: dict[tuple, list[int]] = {}
        for e, rest, c in zip(cols[0], zip(*cols[1:]) if nvars > 1 else repeat(()), nums):
            dense.setdefault(rest, [0] * (deg[0] + 1))[e] = c
        for key in product(*(range(deg[v] + 1) for v in range(nvars - 1, 0, -1))):
            group = dense.get(key[::-1], [0])
            while len(group) > 1 and not group[-1]:
                group.pop()
            coefs += group
            lens.append(len(group))
    groups = len(lens)
    first = _plan(lens, 1, 1)
    first_rows = [[list(row) for row in rows] for rows in _rows(coefs, first)]
    levels = []
    copies = 2  # x and -x
    for v in range(1, nvars):
        # one group per polynomial and exponents of the variables after v
        lens = [deg[v] + 1 for deg in degs for _ in range(prod(d + 1 for d in deg[v + 1 :]))]
        nodes = list(range(1, top[v] + 1)) * (len(lens) * copies)
        levels.append((_plan(lens, copies, top[v]), [x * x for x in nodes], nodes))
        copies *= 2 * top[v] + 1
    for x in range(top[0] + 1):
        rows = [map(iter, steps) for steps in first_rows]
        batch = _evaluate(coefs, first, rows, [x * x] * groups, [x] * groups)[groups:]
        for plan, squares, nodes in levels:
            batch = _evaluate(batch, plan, _rows(batch, plan), squares, nodes)
        half = len(batch) // 2
        yield x, batch[:half]
        if x:
            yield -x, batch[half:]


def _nodes(h: int) -> list[int]:
    """The nodes -h..h in the order _node_slices lays them out: 0, 1..h, -1..-h."""
    return [0, *range(1, h + 1), *range(-1, -h - 1, -1)]


def _newton(values: list[int], h: int, count: int) -> tuple[list[int], int, int]:
    """Interpolate a row-major box along its major axis, which holds the
    `count` nodes -h, 1 - h, ....  Returns the coefficient rows, transposed
    so that the coefficient index becomes the minor axis, their count d + 1
    and d!: the rows are d! times the coefficients of the interpolant, whose
    degree is d.

    Newton forward differences: the interpolant is the sum of
    D^i * binomial(x + h, i), D^i the i-th difference at node -h.  The
    differences stop at the first level that is all zero, which bounds the
    degree exactly.  d! times the Newton form is then Horner,
    P = P * (x + h - i) + D^i * d!/i! for i = d - 1..0.
    """
    width = len(values) // count
    diffs = []
    while any(values):
        diffs.append(values[:width])
        values = list(map(sub, values[width:], values))
    if not diffs:
        return [], 0, 1
    d = len(diffs) - 1
    poly, scale, zero = diffs[d], 1, [0] * width
    for i in range(d - 1, -1, -1):
        scale *= i + 1
        low = list(map(scale.__mul__, diffs[i]))
        c = h - i
        if c:
            poly = list(map(add, chain(map(c.__mul__, poly), zero), chain(low, poly)))
        else:
            poly = low + poly
    rows = [poly[i : i + width] for i in range(0, len(poly), width)]
    return list(chain.from_iterable(zip(*rows))), d + 1, scale


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
