"""Parametric sequence generators and the exact transforms between them.

The two core families w and u live over the ring Z[b, c].  WSEQ_TEXT and
USEQ_TEXT state their recurrences in the spec language (those of
specs/wseq.spec and specs/useq.spec; w[0] = u[0] = 1), and gen_w and gen_u
run them on reclang's SpecRunner, the one recurrence engine.  u is the
coefficient sequence of the even product series built from the
w-generating series; u_conv, u_bin and w_inv are the independent routes
between the two families that the test suite plays against each other.
u_bin and w_inv sum their products in multipoly's fused kernel, which the
recurrence engine also runs on; w_inv, over Z[b, c] alone, checks on every
call that the half-integer powers of c in its sum vanish.  u_conv shares no
kernel with gen_u, since it evaluates w at integer points and interpolates
each u[m] from its values on the lower set of exponents that the supports
of w allow it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, product, repeat
from math import lcm, prod
from operator import add, itemgetter, mul, sub

from .multipoly import (
    MultiPoly,
    VarSet,
    _columns,
    _exponent_columns,
    _pack,
    _sum_rows,
    denom_profile,
    sum_of_products,
)
from .reclang import ParamSeq, SpecRunner, parse_spec
from .scalars import binomial, factorial

RING_BC = VarSet.of("b", "c")
RING_B = VarSet.of("b")

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


class IdentityViolationError(ArithmeticError):
    """A structural cancellation demanded by a closed formula failed."""


def gen_w(n: int) -> ParamSeq:
    """w[0..n] from the three-term recurrence."""
    return _W.upto(n)


def gen_u(n: int) -> ParamSeq:
    """u[0..n] from the two-term recurrence."""
    return _U.upto(n)


# -- transforms between the families -------------------------------------------


def u_conv(n: int, w: ParamSeq) -> ParamSeq:
    """u via the alternating self-convolution of w, by exact evaluation and
    interpolation on lower sets (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 5; Chkifa, Cohen & Schwab, Found. Comput. Math. 14 (2014)).

    u[m] = sum_{k=0}^{2m} (-1)^k w[k] w[2m-k]; needs w up to index 2n.  With
    the mirror pairs (k, 2m-k) collapsed, the rows of u[m] are
    (-1)^m w[m]^2 and 2 (-1)^k w[k] w[2m-k] for k < m, over the pairs whose
    factors are both nonzero.

    Whatever w is, the exponents of u[m] lie in the lower set L_m, the
    downward closure of the sums supp w[k] + supp w[2m-k] over its rows,
    taken from the corners (maximal exponents) of each support (_corners).
    An exponent e stands for the node (x_e1, x_e2, ...), with the nodes of
    each variable in the order x_0, x_1, x_2, ... = 0, 1, -1, 2, -2, ...: a
    prefix of that order is a run of consecutive integers, and each line of
    a lower set is a prefix.  At a node, d_m u[m] is an integer, the sum of
    f_k N_k N_{2m-k} over the rows: N_k is the value of w[k]'s integer
    numerators there, d_m the lcm of the rows' den_k * den_{2m-k}, and f_k
    the row's sign and weight times d_m / (den_k * den_{2m-k}).  The
    numerators are evaluated one node pair +-x of the first variable at a
    time, only as far as the union of the L_m reaches (_node_slices); each
    u[m] is interpolated from its values on L_m (_newton) and reduced once,
    by MultiPoly._make.  No step multiplies two polynomials.
    """
    if n < 0:
        raise ValueError("negative length")
    if len(w) < 2 * n + 1:
        raise ValueError(f"need w terms up to index {2 * n}, have {len(w) - 1}")
    vs = w.ring
    nvars = len(vs)
    size = 2 * n + 1
    terms, degs, plans = _prepare(n, w)
    out = [MultiPoly.zero(vs)] * (n + 1)
    if not plans:
        return ParamSeq(vs, out)
    # per first-variable pair +-x, the h up to which each later variable is
    # taken: the union of the L_m at x (index 2x - 1) holds its slice at -x
    union = set().union(*(c for c, _, _ in plans.values()))
    reach = [()]
    if nvars:
        reach = [
            tuple((max(c[v] for c in union if c[0] >= 2 * x - 1) + 1) // 2 for v in range(1, nvars))
            for x in range((max(c[0] for c in union) + 1) // 2 + 1)
        ]
    # the points of each L_m with their values, and per point the L_m that
    # hold it, with its place there; row[2m::-1] pairs w[k] with w[2m-k]
    grids, slots = {}, {}
    for m, (ends, _, f) in plans.items():
        points = _lower(ends)
        grid = [0] * len(points)
        grids[m] = points, grid
        for i, e in enumerate(points):
            slots.setdefault(e, []).append((grid, i, f, 2 * m))
    for x, values in _node_slices(terms, degs, reach):
        first = (2 * x - 1 if x > 0 else -2 * x,)[:nvars]  # the node index of x
        later = product(*(range(2 * h + 1) for h in reach[abs(x)]))
        for p, rest in enumerate(later):
            targets = slots.get((*first, *rest))
            if targets:
                row = values[p * size : (p + 1) * size]
                for grid, i, f, top in targets:
                    grid[i] = sum(map(mul, map(mul, f, row), row[top::-1]))
    for m, (points, grid) in grids.items():
        num, scale = _newton(points, grid)
        if num:
            out[m] = MultiPoly._make(vs, num, plans[m][1] * scale)
    return ParamSeq(vs, out)


def _prepare(n: int, w: ParamSeq) -> tuple[list[tuple], list[list[int]], dict]:
    """What u_conv reads of w[0..2n]: per term its exponent columns and
    numerators, and its degree per variable; and per m with a row, the
    corners of L_m (tuples, decreasing), d_m and the f_k (0 off the rows)."""
    vs = w.ring
    nvars = len(vs)
    terms, dens, degs = [], [], []
    for p in w.terms[: 2 * n + 1]:
        if p.vs != vs:
            raise ValueError(f"variable-set mismatch: {p.vs.names} vs {vs.names}")
        cols, nums = _exponent_columns(p)
        terms.append((cols, nums))
        dens.append(p.den)
        degs.append([max(col) for col in cols] if nums else [0] * nvars)
    # the corners of each w[k]'s support, packed at a width that holds the
    # sum of any two exponents and a spare top bit, the first exponent highest
    width = (2 * max(map(max, degs)) if nvars else 0).bit_length() + 1
    corners = [_corners(_pack(cols, width, len(nums)), width, nvars) for cols, nums in terms]
    plans = {}
    for m in range(n + 1):
        ks = [k for k in range(m + 1) if terms[k][1] and terms[2 * m - k][1]]
        if ks:
            sums = {a + b for k in ks for a in corners[k] for b in corners[2 * m - k]}
            lcm_m = lcm(*(dens[k] * dens[2 * m - k] for k in ks))
            f = [0] * (m + 1)
            for k in ks:
                f[k] = (1 if k == m else 2) * (-1) ** k * (lcm_m // (dens[k] * dens[2 * m - k]))
            ends = list(zip(*_columns(_corners(sums, width, nvars), width, nvars))) or [()]
            plans[m] = (ends, lcm_m, f)
    return terms, degs, plans


def _corners(keys, width: int, nvars: int) -> list[int]:
    """The maximal elements, componentwise, of a set of exponent vectors
    packed at width, the first exponent highest: the corners of the lower
    set they span, in decreasing order."""
    mask = (1 << width) - 1
    # per head (all exponents but the last), the point with the largest last
    tops = {e >> width: e for e in sorted(keys)}
    # the top bit of each field, which no exponent reaches: c >= e
    # componentwise iff every guard bit survives (c | guard) - e
    guard = sum(1 << (width * v + width - 1) for v in range(nvars))
    out, best = [], -1
    for e in reversed(tops.values()):
        # a corner above e comes before it, the latest one likeliest; one
        # with a last exponent above best lies below none
        if e & mask > best or not any(((c | guard) - e) & guard == guard for c in reversed(out)):
            out.append(e)
            best = max(best, e & mask)
    return out


def _lower(corners: list[tuple], head: tuple = ()) -> list[tuple]:
    """The points of the lower set with these corners, in lexicographic
    order, each after the exponents in head."""
    if len(corners[0]) < 2:
        return list(product(*zip(head), range(max(corners)[0] + 1))) if corners[0] else [head]
    # from the top first exponent down, the corners at or above it join
    ordered = sorted(corners, reverse=True)
    blocks: list[list[tuple]] = []
    tails: list[tuple] = []
    for i in range(ordered[0][0], -1, -1):
        while len(tails) < len(ordered) and ordered[len(tails)][0] >= i:
            tails.append(ordered[len(tails)][1:])
        blocks.append(_lower(tails, (*head, i)))
    return [*chain.from_iterable(reversed(blocks))]


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
    that lays out the output as (copy, node 0, 1, -1, ..., h, -h, group).
    """
    starts = list(accumulate(lens, initial=0))
    size, count = starts.pop(), len(lens)
    order = sorted(range(count), key=lens.__getitem__, reverse=True)
    runs = [c * size + starts[g] for g in order for c in range(copies)]
    # the runs of the groups with a power e, each place repeated per node
    ascending = sorted(lens)
    active = [(count - bisect_right(ascending, e)) * copies for e in range(ascending[-1])]
    top = len(active) - 1
    evens, odds = (
        [[*chain.from_iterable(zip(*[[*map(e.__add__, runs[: active[e]])]] * h))] for e in powers]
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
        for x in range(h):
            for base in (plus, minus):
                perm += map((base + c * h + x).__add__, place)
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


def _node_slices(terms: list[tuple], degs: list[list[int]], reach: list[tuple]):
    """Yield (x, values) for x = 0, then x and -x for x = 1, 2, ..., as many
    as reach holds (x = 0 alone when there is no variable).  reach[|x|]
    holds an h for each later variable, and values holds, for each point of
    their nodes -h..h (row-major, each variable's nodes in the order 0, 1,
    -1, ..., h, -h), the values there of all the polynomials given as
    terms, (exponent columns, numerators) pairs (degs: their degree per
    variable).

    The variables are evaluated one at a time by _evaluate, over groups of
    dense coefficients: one group per polynomial and exponents of the later
    variables.  The first variable is taken at one node x > 0 at a time, as
    x and -x; each later one at all its nodes, for all the points before it,
    at once.  Only one node of the first variable is held at a time.
    """
    nvars = len(degs[0])
    if not nvars:
        yield 0, [nums[0] if nums else 0 for _, nums in terms]
        return
    # first variable: per polynomial and exponents of the others (the last
    # one outermost), the dense coefficients in the first exponent
    coefs, lens = [], []
    for (cols, nums), deg in zip(terms, degs):
        # each term's place in the groups laid out one after another
        places = cols[-1]
        for v in range(nvars - 2, -1, -1):
            places = map(add, map((deg[v] + 1).__mul__, places), cols[v])
        dense = dict(zip(places, nums))
        for start in range(0, prod(d + 1 for d in deg), deg[0] + 1):
            group = list(map(dense.get, range(start, start + deg[0] + 1), repeat(0)))
            while len(group) > 1 and not group[-1]:
                group.pop()
            coefs += group
            lens.append(len(group))
    groups = len(lens)
    first = _plan(lens, 1, 1)
    first_rows = [[list(row) for row in rows] for rows in _rows(coefs, first)]
    # later variables: one group per polynomial and exponents of the
    # variables after it; their plans for the reach at x, which shrinks as
    # x grows, so that only the current ones are held
    later = [
        [deg[v] + 1 for deg in degs for _ in range(prod(d + 1 for d in deg[v + 1 :]))]
        for v in range(1, nvars)
    ]
    levels, planned = [], None
    for x, hs in enumerate(reach):
        if hs != planned:
            levels, planned, copies = [], hs, 2  # x and -x
            for lens, h in zip(later, hs):
                nodes = list(range(1, h + 1)) * (len(lens) * copies)
                levels.append((_plan(lens, copies, h), [x * x for x in nodes], nodes))
                copies *= 2 * h + 1
        if x:
            rows = [map(iter, steps) for steps in first_rows]
            batch = _evaluate(coefs, first, rows, [x * x] * groups, [x] * groups)[groups:]
        else:  # the constant coefficients, as the values at x and -x
            batch = list(map(coefs.__getitem__, first[2])) * 2
        for plan, squares, nodes in levels:
            batch = _evaluate(batch, plan, _rows(batch, plan), squares, nodes)
        half = len(batch) // 2
        yield x, batch[:half]
        if x:
            yield -x, batch[half:]


def _newton(points: list[tuple], values: list[int]) -> tuple[dict[tuple, int], int]:
    """Interpolate on a lower set, given in lexicographic order: values[i] is
    the value at the node of points[i], its exponents read as indices into
    the node order 0, 1, -1, 2, -2, ....  Returns the interpolant's monomial
    coefficients, multiplied by the scale it also returns: the product of
    d! over the variables, d the interpolant's degree in each.

    Tensor Newton form: the interpolant is the sum over the points e of
    c_e prod_v N_{e_v}(x_v), with N_i(x) = (x - x_0) ... (x - x_{i-1}) and
    c_e the divided difference over the nodes below e, which the set holds.
    A prefix of i + 1 nodes is a run of consecutive integers, so c_e is the
    mixed forward difference at the least nodes over prod_v e_v!, taken in
    integers one variable at a time along the lines.  The lines have
    different lengths, so the monomials come only after every variable's
    differences: Horner along each line, one variable at a time, is
    triangular and stays inside the set.
    """
    lines = [_lines(points, v) for v in range(len(points[0]))]
    for vlines in lines:
        for line in vlines:
            row = list(map(values.__getitem__, line))
            if not any(row):
                continue
            # the forward differences by node, -floor((p-1)/2) first; D^t
            # over the first t + 1 nodes starts at -floor(t/2).  Once a
            # level is all zero, so are the later ones.
            level = row[::2][::-1] + row[1::2]
            mid = (len(row) - 1) // 2
            for t in range(1, len(row)):
                level = list(map(sub, level[1:], level))
                d = level[mid - t // 2]
                if not (d or any(level)):
                    for i in line[t:]:
                        values[i] = 0
                    break
                values[line[t]] = d
    live = [e for e, c in zip(points, values) if c]
    if not live:
        return {}, 1
    # the differences vanish past the degree d in each variable; d!/t! for t <= d
    tops = [max(col) for col in zip(*live)]
    for vlines, d in zip(lines, tops):
        weights = list(accumulate(range(d, 0, -1), mul, initial=1))[::-1]
        for line in vlines:
            coefs = list(map(values.__getitem__, line[: d + 1]))
            while coefs and not coefs[-1]:
                coefs.pop()
            coefs = list(map(mul, coefs, weights))
            if len(coefs) > 1:
                # Horner from the top, P = P * (x - x_t) + c_t; x_0 = 0
                poly = coefs[-1:]
                for t in range(len(coefs) - 2, 0, -1):
                    x = (t + 1) // 2 if t % 2 else -t // 2
                    low, high = chain((coefs[t],), poly), chain(map(x.__mul__, poly), (0,))
                    poly = list(map(sub, low, high))
                coefs[1:] = poly
            for i, c in zip(line, coefs):
                values[i] = c
    return {e: c for e, c in zip(points, values) if c}, prod(map(factorial, tops))


def _lines(points: list[tuple], v: int) -> list[list[int]]:
    """The lines of a lower set along its v-th variable: the indices of the
    points that differ only there, in increasing order of that exponent."""
    others = [u for u in range(len(points[0])) if u != v]
    keys = map(itemgetter(*others), points) if others else repeat((), len(points))
    lines: dict = {}
    for i, key in enumerate(keys):
        lines.setdefault(key, []).append(i)
    return list(lines.values())


def _c_powers(k: int) -> list[MultiPoly]:
    """c^0..c^k over Z[b, c]."""
    return [MultiPoly.monomial(RING_BC, (0, j), 1) for j in range(k + 1)]


def u_bin(n: int, w: ParamSeq) -> ParamSeq:
    """u via the single binomial sum.

    u[m] = (-1)^m sum_{k=0}^{floor(m/2)} (-1)^k c^k (m-2k)! w[m-2k]
                   * binomial(m-k, k) * binomial(2m-2k, m-k)
    """
    if n < 0:
        raise ValueError("negative length")
    if len(w) < n + 1:
        raise ValueError(f"need w terms up to index {n}, have {len(w) - 1}")
    ck = _c_powers(n // 2)

    def weight(m: int, k: int) -> int:
        coef = factorial(m - 2 * k) * binomial(m - k, k) * binomial(2 * m - 2 * k, m - k)
        return -coef if (m + k) % 2 else coef

    groups = (
        [(ck[k], w[m - 2 * k], weight(m, k)) for k in range(m // 2 + 1)] for m in range(n + 1)
    )
    return ParamSeq(RING_BC, sum_of_products(RING_BC, groups))


def _inversion_sums(u: ParamSeq, ns: Sequence[int]) -> list[tuple[MultiPoly, MultiPoly]]:
    """The raw inversion sum for n! * w[n], for each n in ns,

        sum_{m=0}^{n} binomial(n,m)/binomial(2m,m)
          * sum_{k=0}^{m} (-1)^(n+m+k) (binomial(2m,m-k) - binomial(2m,m-k-1))
                          * 2^(m-k) * sqrt(c)^(n-k) * u[k],

    as the pair (E, O) over Z[b, c] whose E + sqrt(c) * O it is.  Summed
    over m first, in integers over d = lcm(binomial(2m,m) : m <= max(ns)),
    u[k] has a weight f[k] / d: E sums f[k] / d * c^((n-k)/2) * u[k] over
    k = n (mod 2), O sums f[k] / d * c^((n-k-1)/2) * u[k] over the other k,
    whose f[k] a binomial-coefficient identity makes 0.  One kernel call.
    """
    top = max(ns)
    d = lcm(*(binomial(2 * m, m) for m in range(top + 1)))
    # the m-th summand of f[k] is (-1)^(n+m+k) binomial(n,m) d / binomial(2m,m) * inner[m][k]
    inner = [
        [(binomial(2 * m, m - k) - binomial(2 * m, m - k - 1)) * 2 ** (m - k) for k in range(m + 1)]
        for m in range(top + 1)
    ]
    cs = _c_powers(top // 2)
    groups = []
    for n in ns:
        f = [0] * (n + 1)
        for m in range(n + 1):
            scale = (-1) ** m * binomial(n, m) * (d // binomial(2 * m, m))
            f[: m + 1] = map(add, f, map(scale.__mul__, inner[m]))
        groups += (
            [(cs[(n - k) // 2], u[k], (-1) ** odd * f[k], d) for k in range(n - odd, -1, -2)]
            for odd in (0, 1)
        )
    sums = _sum_rows(RING_BC, groups)
    return list(zip(sums[::2], sums[1::2]))


def w_inv(n: int, u: ParamSeq) -> ParamSeq:
    """n! * w[n] recovered from u alone, as the parts E of _inversion_sums;
    raises IdentityViolationError if a half-integer power of c survives."""
    if n < 0:
        raise ValueError("negative length")
    if len(u) < n + 1:
        raise ValueError(f"need u terms up to index {n}, have {len(u) - 1}")
    sums = _inversion_sums(u, range(n + 1))
    for m, (_, odd) in enumerate(sums):
        if not odd.is_zero():
            raise IdentityViolationError(f"inversion sum at n={m}: sqrt(c)*({odd.text()}) survives")
    return ParamSeq(RING_BC, [even for even, _ in sums])


# -- specializations -------------------------------------------------------------


def poch_products(n: int) -> list[MultiPoly]:
    """P[0..n] over Z[b], P[n] = prod_{i=0}^{n-1} (i*(i+1) - b) (the collapsed
    Pochhammer pair), as one running product."""
    acc = MultiPoly.one(RING_B)
    bvar = MultiPoly.variable(RING_B, "b")
    out = [acc]
    for i in range(n):
        acc = acc * (MultiPoly.const(RING_B, i * (i + 1)) - bvar)
        out.append(acc)
    return out


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
