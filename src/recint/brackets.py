"""Multivariate bracket tables and their integrality certification.

For a tuple Q = (Q_1, ..., Q_d) of integer polynomials and a lattice point
m in Z_{>=0}^d, the bracket <Q>_m is defined by <Q>_0 = 1 and

    <Q>_m = ( sum_i Q_i(<m, x> - x_i/2) * <Q>_{m - e_i} ) / <m, x>

where <m, x> = sum_j m_j x_j, entries at points with a negative coordinate
are 0, and the division by the linear form must be exact.  For tuples of odd
polynomials every entry is a polynomial whose coefficient denominators are
pure powers of 2; certify_table checks exactly that, entry by entry.

The Q_i stay the MultiPolys over (t,) that parse_poly_list reads; the table
takes their integer coefficients off the packed keys.

The expansion of odd-form recurrence terms weights each monomial in the
recurrence's atom coefficients by a bracket of the corresponding monomial
tuple at the integer weights.  It needs only that number, so it runs the same
recurrence with x fixed, in Fractions, and builds no table.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .multipoly import (
    InexactDivisionError,
    MultiPoly,
    UPoly,
    VarSet,
    _degrees,
    denom_profile,
    horner_sum_div_linear,
)

class BracketDivisionError(ArithmeticError):
    """Bracket construction hit an inexact division at a lattice point."""

    def __init__(self, point: tuple[int, ...], remainder: MultiPoly):
        super().__init__(
            f"inexact division at m={point}: remainder {remainder.text()}"
        )
        self.point = point
        self.remainder = remainder


class Theorem3ViolationError(ArithmeticError):
    """An odd tuple produced a non-2-power denominator; this disproves the
    integrality guarantee and must never fire."""


def x_varset(d: int) -> VarSet:
    return VarSet.of(*(f"x{i}" for i in range(1, d + 1)))


class QTuple:
    """Validated tuple of integer polynomials in t, each a MultiPoly over (t,).

    Odd tuples (only odd powers of t) are the certified regime; permissive
    mode admits arbitrary integer polynomials for exploration.
    """

    def __init__(self, polys: Sequence[MultiPoly], permissive: bool = False):
        if not polys:
            raise ValueError("empty tuple")
        for p in polys:
            if p.vs.names != ("t",):
                raise ValueError("Q polynomials must be integer polynomials in t alone")
            if p.den != 1:
                raise ValueError(f"non-integer coefficient in {p.text()}")
        self.polys = tuple(polys)
        if not permissive and not self.is_odd():
            raise ValueError(
                "tuple contains a non-odd polynomial; pass permissive=True to explore"
            )

    @property
    def d(self) -> int:
        return len(self.polys)

    def is_odd(self) -> bool:
        return all(d % 2 for p in self.polys for d in _degrees(p._packed[0], p._packed[2]))

    def text(self) -> str:
        return ", ".join(p.text() for p in self.polys)


class BracketTable:
    """Lazily built table of bracket entries for one Q tuple.

    Entries are memoized over the full dependency cone of every queried
    point; construction is by level |m|.
    """

    def __init__(self, q: QTuple):
        self.q = q
        self.vs = x_varset(q.d)
        # 2^D * Q_i(A / 2) = sum(c_k * 2^(D - k) * A^k) for D = deg Q_i: the
        # Horner multipliers c_D, 2 c_(D-1), ..., 2^D c_0 (none for Q_i = 0)
        self._horner = []
        for p in q.polys:
            degs = _degrees(p._packed[0], p._packed[2])
            top = max(degs, default=-1)
            h = [0] * (top + 1)
            for k, c in zip(degs, p._packed[3]):
                h[top - k] = c << top - k
            self._horner.append(h)
        self.entries: dict[tuple[int, ...], MultiPoly] = {
            (0,) * q.d: MultiPoly.one(self.vs)
        }
        self.levels_done = 0

    # -- access --------------------------------------------------------------

    def entry(self, m: Sequence[int]) -> MultiPoly:
        """The bracket at m; points with a negative coordinate give 0."""
        m = tuple(m)
        if len(m) != self.q.d:
            raise ValueError("lattice point has wrong dimension")
        if any(c < 0 for c in m):
            return MultiPoly.zero(self.vs)
        if m not in self.entries:
            # every point p <= m (componentwise), by level, then lexicographic
            for p in sorted(itertools.product(*(range(c + 1) for c in m)), key=sum):
                if p not in self.entries:
                    self.entries[p] = self._compute(p)
        return self.entries[m]

    def _compute(self, m: tuple[int, ...]) -> MultiPoly:
        # row i is 2^D * Q_i(A / 2) * <Q>_{m - e_i} over 2^D, for D = deg Q_i
        # and A = 2 <m, x> - x_i = sum((2 m_j - [i == j]) x_j)
        rows = []
        for i, h in enumerate(self._horner):
            if m[i] and h:
                form = [2 * w - (j == i) for j, w in enumerate(m)]
                prev = self.entries[m[:i] + (m[i] - 1,) + m[i + 1 :]]
                rows.append((h, form, 1 << len(h) - 1, prev))
        try:
            return horner_sum_div_linear(self.vs, rows, m)
        except InexactDivisionError as e:
            raise BracketDivisionError(m, e.remainder) from e

    def extend_to_level(self, bound: int):
        """Complete all levels |m| <= bound."""
        while self.levels_done < bound:
            level = self.levels_done + 1
            points = [p for p in _simplex_level(self.q.d, level) if p not in self.entries]
            # a level is stored whole or, if one of its points raises, not at all
            values = [self._compute(p) for p in points]
            self.entries.update(zip(points, values))
            self.levels_done = level

    # -- export ----------------------------------------------------------------

    def export(self) -> list[dict]:
        """Sorted records (by level, then lexicographically): point, canonical
        text, 2-adic defect."""
        out = []
        for m in sorted(self.entries, key=lambda p: (sum(p), p)):
            poly = self.entries[m]
            prof = denom_profile(poly)
            out.append(
                {
                    "m": list(m),
                    "poly": poly.text(),
                    "denominator": prof.lcm_denominator,
                    "v2_defect": prof.max_neg_v2,
                }
            )
        return out


def _simplex_level(d: int, level: int) -> list[tuple[int, ...]]:
    """All points of Z_{>=0}^d with coordinate sum == level, sorted."""
    if d == 1:
        return [(level,)]
    out = []
    for first in range(level, -1, -1):
        for rest in _simplex_level(d - 1, level - first):
            out.append((first,) + rest)
    return sorted(out)


# -- certification ------------------------------------------------------------------


class BracketCertification:
    """Outcome of sweeping a bracket table up to a level bound."""

    __slots__ = (
        "tuple_text", "odd_tuple", "bound", "entry_count", "level_max_defect", "slope",
        "all_pow2", "even_degree_ok", "inexact_at", "inexact_remainder", "violations", "certified",
    )

    def __init__(
        self, tuple_text, odd_tuple, bound, entry_count, level_max_defect, slope, all_pow2,
        even_degree_ok, inexact_at, inexact_remainder, violations, certified,
    ):
        self.tuple_text: str = tuple_text
        self.odd_tuple: bool = odd_tuple
        self.bound: int = bound
        self.entry_count: int = entry_count
        self.level_max_defect: list[int] = level_max_defect
        self.slope: float = slope
        self.all_pow2: bool = all_pow2
        self.even_degree_ok: bool = even_degree_ok
        self.inexact_at: list[int] | None = inexact_at
        self.inexact_remainder: str | None = inexact_remainder
        self.violations: list[dict] = violations
        self.certified: bool = certified

    def to_dict(self) -> dict:
        return {("tuple" if f == "tuple_text" else f): getattr(self, f) for f in self.__slots__}


def certify_table(q: QTuple, bound: int, table: BracketTable | None = None) -> BracketCertification:
    """Build levels 0..bound and check the power-of-2 denominator guarantee.

    For odd tuples a violation (non-2-power denominator or inexact division)
    raises Theorem3ViolationError: it would be a counterexample, not a report.
    For permissive tuples the first failure is recorded and certification is
    marked failed.  The observed defect-growth slope is reported but never
    asserted against.
    """
    if table is None:
        table = BracketTable(q)
    inexact_at = None
    inexact_rem = None
    try:
        table.extend_to_level(bound)
    except BracketDivisionError as e:
        if q.is_odd():
            raise Theorem3ViolationError(str(e)) from e
        inexact_at = list(e.point)
        inexact_rem = e.remainder.text()

    violations = []
    level_max = [0] * (bound + 1)
    even_ok = True
    count = 0
    for m, poly in sorted(table.entries.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        level = sum(m)
        if level > bound:
            continue
        count += 1
        prof = denom_profile(poly)
        if prof.max_neg_v2 > level_max[level]:
            level_max[level] = prof.max_neg_v2
        if not prof.two_adic_only:
            violations.append(
                {"m": list(m), "denominator": prof.lcm_denominator, "poly": poly.text()}
            )
        if any(d % 2 for d in _degrees(poly._packed[0], poly._packed[2])):
            even_ok = False
    if violations and q.is_odd():
        worst = violations[0]
        raise Theorem3ViolationError(
            f"odd tuple ({q.text()}) produced denominator {worst['denominator']} at m={worst['m']}"
        )

    slope = _fit_slope(level_max)
    certified = q.is_odd() and not violations and inexact_at is None
    return BracketCertification(
        tuple_text=q.text(),
        odd_tuple=q.is_odd(),
        bound=bound,
        entry_count=count,
        level_max_defect=level_max,
        slope=slope,
        all_pow2=not violations,
        even_degree_ok=even_ok,
        inexact_at=inexact_at,
        inexact_remainder=inexact_rem,
        violations=violations,
        certified=certified,
    )


def _fit_slope(level_max: list[int]) -> float:
    """Least-squares slope of max defect against level; 0 for a single level."""
    n = len(level_max)
    if n < 2:
        return 0.0
    xs = range(n)
    xbar = Fraction(sum(xs), n)
    ybar = Fraction(sum(level_max), n)
    num = sum((Fraction(x) - xbar) * (Fraction(y) - ybar) for x, y in zip(xs, level_max))
    den = sum((Fraction(x) - xbar) ** 2 for x in xs)
    return float(num / den)


# -- odd-form expansion ----------------------------------------------------------------


def _multisets(atoms: Sequence[tuple], n: int) -> list[list[tuple[tuple, int]]]:
    """All multiplicity assignments (atom, multiplicity) of total weight n, in
    deterministic order; an atom's weight is its first field."""
    out: list[list[tuple[tuple, int]]] = []

    def rec(idx: int, remaining: int, chosen: list[tuple[tuple, int]]):
        if remaining == 0:
            out.append(list(chosen))
            return
        if idx == len(atoms):
            return
        atom = atoms[idx]
        for mult in range(remaining // atom[0], -1, -1):
            if mult:
                chosen.append((atom, mult))
            rec(idx + 1, remaining - mult * atom[0], chosen)
            if mult:
                chosen.pop()

    rec(0, n, [])
    return out


def _point_bracket(values: dict, atoms: tuple, m: tuple[int, ...]) -> Fraction:
    """<Q>_m at x_i = w_i for the monomial tuple Q_i = t^(2 j_i + 1), where
    atoms[i] = (w_i, j_i), by the defining recurrence with x fixed; values
    holds the points already known for these atoms, <Q>_0 = 1 among them.

    The box 0 <= p <= m is filled in lexicographic order, which reaches each
    p - e_i before p.  The weights are positive, so <p, x> > 0.
    """
    if m not in values:
        for p in itertools.product(*(range(c + 1) for c in m)):
            if p in values:
                continue
            form = sum(a * w for a, (w, _) in zip(p, atoms))
            total = sum(
                Fraction(2 * form - w, 2) ** (2 * j + 1) * values[p[:i] + (a - 1,) + p[i + 1 :]]
                for i, (a, (w, j)) in enumerate(zip(p, atoms))
                if a
            )
            values[p] = total / form
    return values[m]


def expand_terms(
    odd_polys: Sequence[UPoly], ring: VarSet, n: int
) -> list[tuple[list[tuple[int, int, int]], Fraction, MultiPoly]]:
    """All bracket-weighted contributions to u[n] of the odd form p_1, ...,
    p_r over ring (OddFormReport.p), in deterministic order: rows (multiset,
    bracket value, contribution), each multiset entry (weight, halfdeg,
    multiplicity) for the atom a * t^(2 halfdeg + 1) of p_weight."""
    if n < 0:
        raise ValueError("negative index")
    atoms = []  # (weight i, halfdeg j, a), by i and then j
    for i, p in enumerate(odd_polys, start=1):
        if p.vs != ring:
            raise ValueError("odd-form polynomial ring mismatch")
        if not p.is_odd():
            raise ValueError(f"not an odd polynomial: {p.text()}")
        atoms += [(i, k // 2, c) for k, c in enumerate(p.coeffs) if k % 2 and not c.is_zero()]
    memo: dict = {}  # ((weight, halfdeg), ...) -> {point: bracket value}
    rows = []
    for multiset in _multisets(atoms, n):
        key = tuple(atom[:2] for atom, _ in multiset)
        point = tuple(mult for _, mult in multiset)
        values = memo.setdefault(key, {(0,) * len(key): Fraction(1)})
        value = _point_bracket(values, key, point)  # 1 for n = 0
        contrib = MultiPoly.const(ring, value)
        for (_, _, c), mult in multiset:
            contrib = contrib * c**mult
        rows.append(([(i, j, mult) for (i, j), mult in zip(key, point)], value, contrib))
    return rows
