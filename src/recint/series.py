"""Truncated power series in t with MultiPoly coefficients, the two pinned
differential operators, and the identity battery that plays the series
routes against the recurrence routes.

Truncation discipline: arithmetic keeps a fixed order N; differentiation is
the only lossy step, so a k-th order operator applied to an order-N series
is trustworthy through order N - k and the residual is truncated there.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from .multipoly import MultiPoly, VarSet, sum_of_products
from .scalars import binomial, factorial
from .sequences import RING_B, RING_BC, _c_powers, gen_u, gen_w, poch_products


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
        coeffs = _dot(self.vs, self.order, [(self, other, lambda i, j: 1)])
        return TruncSeries._of(self.vs, self.order, coeffs)

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
    """Coefficients of sum(w(i, j) * x[i] * y[j] * t^(i+j) for x, y, w in
    pairs) through the order, each weight w(i, j) an int or Fraction: the
    one series product, one sum_of_products group per degree.  A caller
    states a scaled copy of a series as a weight instead of building it:
    theta^m(y) as j^m, y(-t) as (-1)^j."""
    return sum_of_products(vs, (groups[0] for groups in _dot_groups(order, [pairs])))


def _dot_groups(order: int, sums: Sequence[Sequence[tuple]]) -> Iterator[list[list[tuple]]]:
    """The weight stage of _dot, one degree at a time: per degree through the
    order, one sum_of_products group for each sum in sums, a list of
    (x, y, w) pairs as _dot takes.  In degree d, the rows x[i] * y[d - i] of
    a sum on the same unordered pair of coefficient objects become one
    [x[i], y[d - i], weight] row whose weight is the sum of theirs, and rows
    of weight zero are dropped."""
    sums = [
        [([(i, c) for i, c in enumerate(x.coeffs) if not c.is_zero()], y.coeffs, w) for x, y, w in ps]
        for ps in sums
    ]
    for d in range(order + 1):
        groups = []
        for pairs in sums:
            rows: dict[tuple[int, int], list] = {}
            for xs, ys, w in pairs:
                for i, a in xs:
                    if i > d:
                        break
                    b = ys[d - i]
                    if not b.is_zero():
                        key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
                        rows.setdefault(key, [a, b, 0])[2] += w(i, d - i)
            groups.append([row for row in rows.values() if row[2]])
        yield groups


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
    coefficients; each term is (k, [coefficients of t^0, t^1, ... in p_k]),
    MultiPolys over vs.  Applying an operator of maximal derivative order k
    to an order-N series yields a residual trustworthy through order N - k.
    """

    __slots__ = ("vs", "terms")

    def __init__(self, vs, terms):
        self.vs: VarSet = vs
        self.terms: tuple[tuple[int, list[MultiPoly]], ...] = terms

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
        for k, coeffs in self.terms:
            for j, cj in enumerate(coeffs):
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
            (2, [zero, zero, one]),
            (1, [one, MultiPoly.const(RING_BC, 2)]),
            (0, [-b, zero, -c]),
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
            (3, [zero, zero, zero, zero, one]),
            (2, [zero, zero, zero, MultiPoly.const(RING_BC, 6)]),
            (1, [-one, zero, MultiPoly.const(RING_BC, 6) - b * 4, zero, -c * 4]),
            (0, [zero, -b * 4, zero, -c * 8]),
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


def _even_rhs(order: int, w: Sequence[MultiPoly], weight: Callable[[int, int], int]) -> TruncSeries:
    """sum of (-1)^(n+k) weight(n, k) c^k w[n] t^(2n + 4k) over w[0..order // 2]:
    one sum_of_products group per even degree, of the rows (c^k, w[n], weight)."""
    ck = _c_powers(order // 4)
    groups = (  # n + k = m - k
        [(ck[k], w[m - 2 * k], (-1) ** (m - k) * weight(m - 2 * k, k)) for k in range(m // 2 + 1)]
        for m in range(order // 2 + 1)
    )
    coeffs = [MultiPoly.zero(RING_BC)] * (order + 1)
    coeffs[::2] = sum_of_products(RING_BC, groups)
    return TruncSeries._of(RING_BC, order, coeffs)


def _id3_rhs(order: int, w: Sequence[MultiPoly]) -> TruncSeries:
    """The right side of id3 from w[0..order // 2]: coefficient 2n + 4k sums
    the rows c^k * w[n] * (-1)^(n+k) n! binomial(n+k, k) binomial(2n+2k, n+k)."""
    return _even_rhs(
        order, w, lambda n, k: factorial(n) * binomial(n + k, k) * binomial(2 * n + 2 * k, n + k)
    )


def verify_id3(order: int) -> IdentityReport:
    """Quartic-deformation transform of the even product series.

    sum u[n] t^(2n) = sum_k (-1)^k c^k t^(4k)
                      * sum_n n! w[n] binomial(n+k, k) binomial(2n+2k, n+k) (-1)^n t^(2n)
    """
    return _report("id3", order, product_series(order), _id3_rhs(order, gen_w(order // 2)))


def _r2_rhs(order: int, w: Sequence[MultiPoly]) -> TruncSeries:
    """The right side of r2 from w[0..order // 2].  By the negative binomial
    series, x^n = (-t^2 / (1 + 4c t^4))^n has coefficient
    (-1)^(n+k) binomial(n+k-1, k) 4^k c^k at t^(2n+4k), and x^0 = 1, so
    sum_n binomial(2n, n) n! w[n] x^n has rows laid out as id3's; it is
    multiplied by s = (1 + 4c t^4)^(-1/2) from inv_sqrt once."""
    c = MultiPoly.variable(RING_BC, "c")
    s = inv_sqrt(TruncSeries(RING_BC, order, [1, 0, 0, 0, c * 4]))

    def weight(n: int, k: int) -> int:
        if not n:  # binomial(k - 1, k) is undefined at k = 0
            return int(not k)
        return binomial(2 * n, n) * factorial(n) * binomial(n + k - 1, k) * 4**k

    return s * _even_rhs(order, w, weight)


def verify_r2(order: int) -> IdentityReport:
    """Inverse-square-root form of the quartic-deformation transform.

    sum u[n] t^(2n) = (1 + 4c t^4)^(-1/2)
                      * sum_n binomial(2n, n) n! w[n] (-t^2 / (1 + 4c t^4))^n
    """
    return _report("r2", order, product_series(order), _r2_rhs(order, gen_w(order // 2)))


def verify_hg_c0(order: int) -> IdentityReport:
    """c = 0 collapse: with P[n] = prod_{i<n} (i(i+1) - b) (poch_products),

    (sum P[n] t^n / n!) * (sum P[n] (-t)^n / n!) = sum P[n] binomial(2n, n) t^(2n)

    The left side is a * a with the sign of a(-t) as the weight (-1)^j, so
    a[i] * a[j] and a[j] * a[i] are one row: weights 2 (-1)^i or 1 at even
    degrees, and at odd degrees they cancel and no row is left.
    """
    pochs = poch_products(order)
    a = TruncSeries(
        RING_B, order, [p * Fraction(1, factorial(n)) for n, p in enumerate(pochs)]
    )
    lhs = TruncSeries._of(RING_B, order, _dot(RING_B, order, [(a, a, lambda i, j: (-1) ** j)]))
    zero = MultiPoly.zero(RING_B)
    coeffs = [zero] * (order + 1)
    for n in range(order // 2 + 1):
        coeffs[2 * n] = pochs[n] * binomial(2 * n, n)
    rhs = TruncSeries(RING_B, order, coeffs)
    return _report("hg-c0", order, lhs, rhs)


def _clausen_rhs(order: int, pochs: Sequence[MultiPoly]) -> TruncSeries:
    """The right side of the Clausen square from P[0..order].  By the binomial
    theorem [t^d] (t (1 - t))^n = (-1)^(d-n) binomial(n, d - n), so coefficient
    d sums the rows P[n] (-1)^(d-n) binomial(n, d - n) binomial(2n, n) / n!^2
    for d / 2 <= n <= d, one sum_of_products group per degree."""

    def weight(n: int, k: int) -> Fraction:
        return Fraction((-1) ** k * binomial(n, k) * binomial(2 * n, n), factorial(n) ** 2)

    one = MultiPoly.one(RING_B)
    groups = (
        [(pochs[n], one, weight(n, d - n)) for n in range((d + 1) // 2, d + 1)]
        for d in range(order + 1)
    )
    return TruncSeries._of(RING_B, order, sum_of_products(RING_B, groups))


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
    As theta^j(f)[i] = i^j f[i], both sides of every k are f * f with
    weights, j^(2k+1) on the left and sum_t (-1)^t i^t j^(2k-t) on the
    right, so no theta series is built.  In each degree one sum_of_products
    call takes both sides of every k, at most d/2 + 1 rows each on the same
    pairs of coefficients, and multiplies each pair once; the sides differ
    only in weights.  Right side: d/2 * sum[d].
    """
    if any(k < 0 for k in ks):
        raise ValueError("negative order")
    sums = []
    for k in ks:
        e = 2 * k
        sums.append([(f, f, lambda i, j, e=e: j ** (e + 1))])
        sums.append([(f, f, lambda i, j, e=e: sum((-i) ** t * j ** (e - t) for t in range(e + 1)))])
    mismatches = [None] * len(ks)
    for d, groups in enumerate(_dot_groups(f.order, sums)):
        sides = sum_of_products(f.vs, groups)
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
