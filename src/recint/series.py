"""Truncated power series in t with MultiPoly coefficients, the two pinned
differential operators, and the identity battery that plays the series
routes against the recurrence routes.

Truncation discipline: arithmetic keeps a fixed order N; differentiation is
the only lossy step, so a k-th order operator applied to an order-N series
is trustworthy through order N - k and the residual is truncated there.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction

from .multipoly import MultiPoly, UPoly, VarSet, _primitive, _sum_rows, sum_of_products
from .scalars import binomial, factorial
from .sequences import RING_B, RING_BC, gen_u, gen_w, poch_products


class TruncSeries:
    """Power series truncated at a fixed order; coeffs[k] multiplies t^k."""

    __slots__ = ("vs", "order", "coeffs")

    def __init__(self, vs: VarSet, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = []
        for c in list(coeffs)[: order + 1]:
            if not isinstance(c, MultiPoly):
                c = MultiPoly.const(vs, c)
            elif c.vs != vs:
                raise ValueError("coefficient VarSet mismatch")
            cs.append(c)
        zero = MultiPoly.zero(vs)
        while len(cs) < order + 1:
            cs.append(zero)
        self.vs = vs
        self.order = order
        self.coeffs = cs

    @classmethod
    def _of(cls, vs: VarSet, order: int, coeffs: list[MultiPoly]) -> "TruncSeries":
        # Internal fast path: the caller guarantees exactly order + 1
        # MultiPoly coefficients over vs, as the kernels and the
        # coefficientwise operations make them.
        self = cls.__new__(cls)
        self.vs, self.order, self.coeffs = vs, order, coeffs
        return self

    @classmethod
    def one(cls, vs: VarSet, order: int) -> "TruncSeries":
        return cls(vs, order, [MultiPoly.one(vs)])

    def _check(self, other: "TruncSeries"):
        if self.vs != other.vs:
            raise ValueError("VarSet mismatch")
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return TruncSeries._of(self.vs, self.order, coeffs)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        coeffs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return TruncSeries._of(self.vs, self.order, coeffs)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._of(self.vs, self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries._of(self.vs, self.order, _dot(self.vs, self.order, [(self, other, 1)]))

    def scale(self, factor) -> "TruncSeries":
        """Coefficientwise multiplication by a scalar or MultiPoly."""
        return TruncSeries._of(self.vs, self.order, [c * factor for c in self.coeffs])

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by t^k, dropping what overflows the truncation order."""
        if k < 0:
            raise ValueError("negative shift")
        zero = MultiPoly.zero(self.vs)
        return TruncSeries(self.vs, self.order, [zero] * k + self.coeffs[: self.order + 1 - k])

    def reflect(self) -> "TruncSeries":
        """t -> -t: negate the odd coefficients."""
        return TruncSeries._of(
            self.vs, self.order, [-c if k % 2 else c for k, c in enumerate(self.coeffs)]
        )

    def diff(self) -> "TruncSeries":
        """d/dt; the result's trustworthy order drops by one."""
        if self.order == 0:
            return TruncSeries(self.vs, 0)
        return TruncSeries(
            self.vs,
            self.order - 1,
            [(k + 1) * self.coeffs[k + 1] for k in range(self.order)],
        )

    def theta(self) -> "TruncSeries":
        """t * d/dt, degree-preserving: coefficient k picks up a factor k."""
        return TruncSeries._of(self.vs, self.order, [k * c for k, c in enumerate(self.coeffs)])

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.vs, order, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.vs == other.vs and self.order == other.order and self.coeffs == other.coeffs

    def first_mismatch(self, other: "TruncSeries") -> tuple[int, str, str] | None:
        self._check(other)
        for k, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return (k, a.text(), b.text())
        return None

    def __repr__(self):
        parts = [f"({c.text()})*t^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return f"TruncSeries[{' + '.join(parts) or '0'} + O(t^{self.order + 1})]"


def _dot(vs: VarSet, order: int, pairs: Sequence[tuple]) -> list[MultiPoly]:
    """Coefficients of sum(s * x * y for x, y, s in pairs): the one series product."""
    return _sum_rows(vs, (groups[0] for groups in _dot_groups(order, [pairs])))


def _dot_groups(order: int, sums: Sequence[Sequence[tuple]]) -> Iterator[list[list[tuple]]]:
    """The weight stage of _dot: per degree through the order, one _sum_rows
    group for each sum in sums, a list of (x, y, s) pairs as _dot takes.

    Each distinct coefficient is split once by _primitive, on its kept
    packed form, into an integer factor over its den times a primitive part;
    parts with equal signatures are compared exactly, by ==.  In each
    degree, the rows x[i] * y[d - i] of a sum whose parts form the same
    unordered pair become one row whose weight, an unreduced integer pair
    (n, d), is the sum of theirs; rows whose weight cancels to zero are
    dropped.  So mirror pairs (a square, g * g(-t)) and theta-scaled copies
    of a coefficient make one row per degree, on parts the sums share.
    """
    parts: dict[int, tuple[int, int, int]] = {}  # id -> (factor, den, class)
    classes: dict[tuple, list[int]] = {}  # signature -> classes
    prims: list[MultiPoly] = []  # class -> primitive part

    def split(p: MultiPoly) -> tuple[int, int, int]:
        if id(p) in parts:
            return parts[id(p)]
        g, prim, signature = _primitive(p)
        bucket = classes.setdefault(signature, [])
        for cls in bucket:
            if prims[cls] == prim:
                break
        else:
            cls = len(prims)
            prims.append(prim)
            bucket.append(cls)
        parts[id(p)] = (g, p.den, cls)
        return parts[id(p)]

    weights = [[{} for _ in sums] for _ in range(order + 1)]
    for m, pairs in enumerate(sums):
        for x, y, s in pairs:
            ys = [(j, *split(c)) for j, c in enumerate(y.coeffs) if not c.is_zero()]
            for i, c in enumerate(x.coeffs):
                if c.is_zero():
                    continue
                fx, dx, cx = split(c)
                fx, dx = fx * s.numerator, dx * s.denominator
                for j, fy, dy, cy in ys:
                    if i + j > order:
                        break
                    w = weights[i + j][m]
                    key = (cx, cy) if cx <= cy else (cy, cx)
                    n, d = fx * fy, dx * dy
                    n0, d0 = w.get(key, (0, d))
                    w[key] = (n0 + n, d) if d0 == d else (n0 * d + n * d0, d0 * d)
    return (
        [[(prims[a], prims[b], n, d) for (a, b), (n, d) in w.items() if n] for w in ws]
        for ws in weights
    )


def inv_sqrt(a: TruncSeries) -> TruncSeries:
    """S with S^2 * a = 1 through the truncation order; a must start at 1.

    S = a^(-1/2) solves a * S' = -a' * S / 2; comparing coefficients of
    t^(k-1) gives s[k] = -sum_{j=1}^{k} (2k - j) / (2k) * a[j] * s[k-j], one
    sum_of_products group per k over the nonzero a[j].
    """
    if a.coeffs[0] != 1:
        raise ValueError("inv_sqrt requires constant term exactly 1")
    s = [a.coeffs[0]]
    terms = [(j, c) for j, c in enumerate(a.coeffs) if j and not c.is_zero()]
    for k in range(1, a.order + 1):
        rows = [(c, s[k - j], Fraction(j - 2 * k, 2 * k)) for j, c in terms if j <= k]
        s += sum_of_products(a.vs, [rows])
    return TruncSeries._of(a.vs, a.order, s)


# -- pinned differential operators -----------------------------------------------


class OdeOperator:
    """Linear differential operator sum_k p_k(t) * D^k with polynomial
    coefficients; p_k is a UPoly in t.  Applying an operator of maximal
    derivative order k to an order-N series yields a residual trustworthy
    through order N - k.
    """

    __slots__ = ("vs", "terms")

    def __init__(self, vs, terms):
        self.vs: VarSet = vs
        self.terms: tuple[tuple[int, UPoly], ...] = terms

    @property
    def max_order(self) -> int:
        return max((k for k, _ in self.terms), default=0)

    def apply(self, y: TruncSeries) -> TruncSeries:
        """The residual sum_k p_k(t) * D^k y, truncated to its trustworthy
        order y.order - max_order."""
        if y.vs != self.vs:
            raise ValueError("VarSet mismatch")
        top = y.order - self.max_order
        if top < 0:
            raise ValueError("series order too small for this operator")
        groups: list[list] = [[] for _ in range(top + 1)]
        for k, poly in self.terms:
            for j, cj in enumerate(poly.coeffs):
                # coefficient i of the k-th derivative is (i+1)...(i+k) * y[i+k]
                for i in range(top + 1 - j):
                    groups[i + j].append((cj, y.coeffs[i + k], factorial(i + k) // factorial(i)))
        return TruncSeries._of(self.vs, top, sum_of_products(self.vs, groups))


def base_ode() -> OdeOperator:
    """t^2 y'' + (1 + 2t) y' - (c t^2 + b) y, the second-order operator whose
    coefficient recursion is exactly the three-term w recurrence."""
    b = MultiPoly.variable(RING_BC, "b")
    c = MultiPoly.variable(RING_BC, "c")
    zero = MultiPoly.zero(RING_BC)
    one = MultiPoly.one(RING_BC)
    return OdeOperator(
        RING_BC,
        (
            (2, UPoly(RING_BC, [zero, zero, one])),
            (1, UPoly(RING_BC, [one, MultiPoly.const(RING_BC, 2)])),
            (0, UPoly(RING_BC, [-b, zero, -c])),
        ),
    )


def symmetric_square_ode() -> OdeOperator:
    """t^4 Y''' + 6 t^3 Y'' - (4c t^4 - (6 - 4b) t^2 + 1) Y' - 4t (2c t^2 + b) Y.

    Third-order operator annihilating the even product series; its odd-index
    coefficient recursion is exactly the two-term u recurrence.
    """
    b = MultiPoly.variable(RING_BC, "b")
    c = MultiPoly.variable(RING_BC, "c")
    zero = MultiPoly.zero(RING_BC)
    one = MultiPoly.one(RING_BC)
    return OdeOperator(
        RING_BC,
        (
            (3, UPoly(RING_BC, [zero, zero, zero, zero, one])),
            (2, UPoly(RING_BC, [zero, zero, zero, MultiPoly.const(RING_BC, 6)])),
            (1, UPoly(RING_BC, [-one, zero, MultiPoly.const(RING_BC, 6) - b * 4, zero, -c * 4])),
            (0, UPoly(RING_BC, [zero, -b * 4, zero, -c * 8])),
        ),
    )


# -- series built from the sequences ----------------------------------------------


def base_series(order: int) -> TruncSeries:
    """g(t) = sum w[n] t^n through the truncation order."""
    w = gen_w(order)
    return TruncSeries(RING_BC, order, w.terms)


def product_series(order: int) -> TruncSeries:
    """G(t) = g(t) g(-t) = sum u[n] t^(2n) through the truncation order."""
    u = gen_u(order // 2)
    zero = MultiPoly.zero(RING_BC)
    coeffs = [zero] * (order + 1)
    for n in range(order // 2 + 1):
        coeffs[2 * n] = u[n]
    return TruncSeries(RING_BC, order, coeffs)


# -- identity battery --------------------------------------------------------------


class IdentityReport:
    """Structured outcome of one identity check."""

    __slots__ = ("name", "order", "passed", "first_mismatch", "note")

    def __init__(self, name, order, passed, first_mismatch=None, note=""):
        self.name: str = name
        self.order: int = order
        self.passed: bool = passed
        self.first_mismatch: tuple[int, str, str] | None = first_mismatch
        self.note: str = note

    def to_dict(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            k, lhs, rhs = self.first_mismatch
            mismatch = {"degree": k, "lhs": lhs, "rhs": rhs}
        return {
            "identity": self.name,
            "order": self.order,
            "passed": self.passed,
            "first_mismatch": mismatch,
            "note": self.note,
        }


def _report(name: str, order: int, lhs: TruncSeries, rhs: TruncSeries, note: str = "") -> IdentityReport:
    mismatch = lhs.first_mismatch(rhs)
    return IdentityReport(name, order, mismatch is None, mismatch, note)


def _weighted_sum(
    vs: VarSet, order: int, terms: Sequence[tuple[MultiPoly, TruncSeries, Fraction | int]]
) -> TruncSeries:
    """sum(r * p * x for p, x, r in terms), for polynomials p, series x and
    rational weights r: one sum_of_products group per degree."""
    groups = ([(p, x.coeffs[d], r) for p, x, r in terms] for d in range(order + 1))
    return TruncSeries._of(vs, order, sum_of_products(vs, groups))


def _id3_rhs(order: int, w: Sequence[MultiPoly]) -> TruncSeries:
    """The right side of id3 from w[0..order // 2]: coefficient 2n + 4k sums
    the rows c^k * w[n] * (-1)^(n+k) n! binomial(n+k, k) binomial(2n+2k, n+k),
    one sum_of_products group per even degree."""
    c = MultiPoly.variable(RING_BC, "c")
    ck = [MultiPoly.one(RING_BC)]
    for _ in range(order // 4):
        ck.append(ck[-1] * c)

    def weight(n: int, k: int) -> int:
        scal = factorial(n) * binomial(n + k, k) * binomial(2 * n + 2 * k, n + k)
        return -scal if (n + k) % 2 else scal

    groups = (
        [(ck[k], w[m - 2 * k], weight(m - 2 * k, k)) for k in range(m // 2 + 1)]
        for m in range(order // 2 + 1)
    )
    coeffs = [MultiPoly.zero(RING_BC)] * (order + 1)
    coeffs[::2] = sum_of_products(RING_BC, groups)
    return TruncSeries._of(RING_BC, order, coeffs)


def verify_id3(order: int) -> IdentityReport:
    """Quartic-deformation transform of the even product series.

    sum u[n] t^(2n) = sum_k (-1)^k c^k t^(4k)
                      * sum_n n! w[n] binomial(n+k, k) binomial(2n+2k, n+k) (-1)^n t^(2n)
    """
    return _report("id3", order, product_series(order), _id3_rhs(order, gen_w(order // 2)))


def _r2_rhs(order: int, w: Sequence[MultiPoly]) -> TruncSeries:
    """The right side of r2 from w[0..order // 2]: the powers x^n are series
    products, and sum_n binomial(2n, n) n! w[n] x^n is one _weighted_sum."""
    c = MultiPoly.variable(RING_BC, "c")
    quartic = TruncSeries(
        RING_BC, order, [MultiPoly.one(RING_BC)] + [MultiPoly.zero(RING_BC)] * 3 + [c * 4]
    )
    s = inv_sqrt(quartic)
    # x = -t^2 / (1 + 4c t^4), built as (-t^2) * s^2
    x = (s * s).shift(2).scale(-1)
    xpow = [TruncSeries.one(RING_BC, order)]
    for _ in range(order // 2):
        xpow.append(xpow[-1] * x)
    terms = [(w[n], xn, binomial(2 * n, n) * factorial(n)) for n, xn in enumerate(xpow)]
    return s * _weighted_sum(RING_BC, order, terms)


def verify_r2(order: int) -> IdentityReport:
    """Inverse-square-root form of the quartic-deformation transform.

    sum u[n] t^(2n) = (1 + 4c t^4)^(-1/2)
                      * sum_n binomial(2n, n) n! w[n] (-t^2 / (1 + 4c t^4))^n
    """
    return _report("r2", order, product_series(order), _r2_rhs(order, gen_w(order // 2)))


def verify_hg_c0(order: int) -> IdentityReport:
    """c = 0 collapse: with P[n] = prod_{i<n} (i(i+1) - b) (poch_products),

    (sum P[n] t^n / n!) * (sum P[n] (-t)^n / n!) = sum P[n] binomial(2n, n) t^(2n)
    """
    pochs = poch_products(order)
    a = TruncSeries(
        RING_B, order, [p * Fraction(1, factorial(n)) for n, p in enumerate(pochs)]
    )
    lhs = a * a.reflect()
    zero = MultiPoly.zero(RING_B)
    coeffs = [zero] * (order + 1)
    for n in range(order // 2 + 1):
        coeffs[2 * n] = pochs[n] * binomial(2 * n, n)
    rhs = TruncSeries(RING_B, order, coeffs)
    return _report("hg-c0", order, lhs, rhs)


def _clausen_rhs(order: int, pochs: Sequence[MultiPoly]) -> TruncSeries:
    """The right side of the Clausen square from P[0..order]: the powers
    (t (1 - t))^n are series products, and sum_n P[n] binomial(2n, n) / n!^2
    times them is one _weighted_sum."""
    tm1t = TruncSeries(
        RING_B, order, [MultiPoly.zero(RING_B), MultiPoly.one(RING_B), MultiPoly.const(RING_B, -1)]
    )
    xpow = [TruncSeries.one(RING_B, order)]
    for _ in range(order):
        xpow.append(xpow[-1] * tm1t)
    terms = [
        (pochs[n], xn, Fraction(binomial(2 * n, n), factorial(n) ** 2)) for n, xn in enumerate(xpow)
    ]
    return _weighted_sum(RING_B, order, terms)


def verify_clausen(order: int) -> IdentityReport:
    """Clausen-type square: (sum P[n] t^n / n!^2)^2
    = sum P[n] binomial(2n, n) (t (1 - t))^n / n!^2."""
    pochs = poch_products(order)
    f = TruncSeries(
        RING_B, order, [p * Fraction(1, factorial(n) ** 2) for n, p in enumerate(pochs)]
    )
    return _report("clausen", order, f * f, _clausen_rhs(order, pochs))


def derivation_identity_check(f: TruncSeries, ks: Sequence[int]) -> list[IdentityReport]:
    """Telescoping identity for the derivation theta = t d/dt, one report per k in ks:

    f * theta^(2k+1)(f) = (1/2) theta( sum_{j=0}^{2k} (-1)^j theta^j(f) theta^(2k-j)(f) )

    theta is degree-preserving, so both sides are exact at the full order.
    As theta^j(f)[i] = i^j f[i], in each degree both sides of every k are rows
    on the same primitive parts, so one _sum_rows call multiplies each pair
    once and the sides differ only in weights.  Both trusted that kernel on
    those parts before, so no route is shared anew.  Right side: d/2 * sum[d].
    """
    if any(k < 0 for k in ks):
        raise ValueError("negative order")
    powers = [f]
    for _ in range(2 * max(ks, default=0) + 1):
        powers.append(powers[-1].theta())
    sums = []
    for k in ks:
        sums.append([(f, powers[2 * k + 1], 1)])
        sums.append([(powers[j], powers[2 * k - j], -1 if j % 2 else 1) for j in range(2 * k + 1)])
    mismatches = [None] * len(ks)
    for d, groups in enumerate(_dot_groups(f.order, sums)):
        sides = _sum_rows(f.vs, groups)
        for i, m in enumerate(mismatches):
            lhs, rhs = sides[2 * i], sides[2 * i + 1] * Fraction(d, 2)
            if m is None and lhs != rhs:
                mismatches[i] = (d, lhs.text(), rhs.text())
    return [IdentityReport("derivation", f.order, m is None, m, f"k={k}") for k, m in zip(ks, mismatches)]


def verify_ode_g(order: int) -> IdentityReport:
    """Residual of the pinned second-order operator on the base series."""
    res = base_ode().apply(base_series(order))
    zero = TruncSeries(RING_BC, res.order)
    return _report("ode-g", res.order, res, zero, note=f"series order {order}")


def verify_ode_product(order: int) -> IdentityReport:
    """Residual of the pinned third-order operator on the product series."""
    res = symmetric_square_ode().apply(product_series(order))
    zero = TruncSeries(RING_BC, res.order)
    return _report("ode-G", res.order, res, zero, note=f"series order {order}")
