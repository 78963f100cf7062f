"""Sparse multivariate polynomials over exact rationals.

MultiPoly is the workhorse.  It stores integer numerators over one common
positive denominator (`den`), keyed to an ordered VarSet; the polynomial is
sum(num[e] * x^e) / den.  Every construction normalises, so the
representation is canonical: no numerator is zero, gcd(den, every
numerator) == 1, and the zero polynomial has den == 1.  The arithmetic
kernels work on these integers and never build a Fraction per term.

The numerators are stored in one form only, the packed form (width, deg,
keys, numerators) of the terms: each exponent vector packed into one int
key, deg a bound on the total degree.  The kernels (`*`, `+`, `-`,
sum_of_products, UPoly.eval_poly, horner_sum_div_linear) read their operands
and make their results in this form, and text, total_degree, denom_profile,
is_zero, equality, negation and scaling read it too.  `num` (exponent
vector -> numerator) and `terms` (exponent vector -> Fraction) are views
unpacked from it on each read, for eval, subst_value and callers that want
coefficients.

UPoly layers a dense univariate polynomial (in an auxiliary indeterminate)
over MultiPoly coefficients, for one job: the odd form's half-shift
q_i(n + i/2) in reclang.to_odd_form and the parity reads of its result.
Everything is immutable by convention and arithmetic is exact.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

#: Deepest nesting of parentheses and chained unary signs a polynomial or
#: spec expression may use; deeper input is a parse error, not a crash.
MAX_NESTING = 100

#: Largest exponent, total degree, sequence lag (the i of seq[n - i]) and
#: leading power of n that parsed polynomial text may use.  The parser
#: (reclang) checks it before it builds a power or a product, so input over
#: the limit is a parse error instead of a dense list of that many
#: coefficients.
MAX_DEGREE = 1000

#: Largest coefficient size, in bits, that parsed polynomial text may build.
#: With |p| = max(sum of |numerators|, denominator) of p, the parser bounds a
#: power p^k by k * bits(|p|) and a product or quotient p * q by
#: bits(|p|) + bits(|q|), and checks the bound before it computes the power,
#: the product or the quotient; so ((2^1000)^1000)^10 is a parse error
#: instead of a ten-million-bit constant.  A sum is checked once built.
#: 100,000 bits is about 30,000 decimal digits.
MAX_COEF_BITS = 100_000

#: Largest sequence index (--n) or truncation order (--order) that the gen,
#: certify, expand, verify and brackets commands accept.  They check it
#: before they do any work, so one flag cannot ask for unbounded time and
#: memory.
MAX_ORDER = 5000


class InexactDivisionError(ArithmeticError):
    """A division that had to be exact left a remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class VarSet:
    """Ordered, immutable tuple of variable names.

    The order fixes the exponent-vector layout and the canonical printing of
    every polynomial built over it.  Two polynomials interoperate only when
    their VarSets compare equal.
    """

    __slots__ = ("names",)

    def __init__(self, names):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name: {name!r}")
        self.names: tuple[str, ...] = names

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is VarSet and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    @classmethod
    def of(cls, *names: str) -> "VarSet":
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in {self.names}") from None

    def without(self, name: str) -> "VarSet":
        i = self.index(name)
        return VarSet(self.names[:i] + self.names[i + 1 :])

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)


def _pack(cols: list[tuple[int, ...]], width: int, count: int) -> Sequence[int]:
    """Packed keys of `count` monomials given as exponent columns (one tuple
    per variable): the exponents side by side in width-bit fields, first
    variable highest."""
    if not cols:
        return [0] * count
    keys = cols[0]
    for col in cols[1:]:
        keys = [(k << width) | e for k, e in zip(keys, col)]
    return keys


def _columns(keys: Sequence[int], width: int, nvars: int) -> list[list[int]]:
    """Exponent columns of packed keys, one list per variable; inverse of _pack."""
    if not nvars:
        return []
    mask = (1 << width) - 1
    cols = [[k >> (width * (nvars - 1)) for k in keys]]
    for i in range(nvars - 2, -1, -1):
        shift = width * i
        cols.append([(k >> shift) & mask for k in keys])
    return cols


def _degrees(width: int, keys: Iterable[int]) -> list[int]:
    """Total degrees of keys packed at width, in order: a key's field sum d
    is at most m = 2^width - 1 and key = d modulo m, so d = (key - 1) mod m
    + 1 for key > 0 (d = m leaves 0 like d = 0); width 0 has only key 0."""
    m = (1 << width) - 1
    return [(k - 1) % m + 1 if k else 0 for k in keys]


def _repack(keys: Sequence[int], old: int, new: int, nvars: int) -> Sequence[int]:
    """Keys packed at field width `old`, packed again at width `new`; every
    exponent must fit in `new` bits.  With one variable or none a key does
    not depend on the width."""
    if old == new or nvars < 2:
        return keys
    if nvars == 2:
        # (e0 << old) + e1 -> (e0 << new) + e1
        step = (1 << new) - (1 << old)
        return [k + (k >> old) * step for k in keys]
    return _pack(_columns(keys, old, nvars), new, len(keys))


#: The packed form of the zero polynomial, shared by every zero.
_EMPTY = (0, 0, (), ())


def _packing(num: dict[tuple[int, ...], int]) -> tuple:
    """The packed form of num (see MultiPoly), at the width of its total degree."""
    deg = max(map(sum, num), default=0)
    width = deg.bit_length()
    return width, deg, _pack(list(zip(*num)), width, len(num)), list(num.values())


def _pairs(p: MultiPoly, width: int, scale: int = 1) -> list[tuple[int, int]]:
    """(key, numerator * scale) pairs of p's packed form, with the keys
    repacked by shifts if they were packed at another width."""
    old, _, keys, nums = p._packed
    if scale != 1:
        nums = [c * scale for c in nums]
    return list(zip(_repack(keys, old, width, len(p.vs)), nums))


def _pair_sums(acc: dict[int, int], left: Iterable[tuple[int, int]], right: list[tuple[int, int]]):
    """acc[k1 + k2] += c1 * c2 for every pair of packed (key, numerator)
    terms: the one inner loop of the kernels.  A left of [(0, s)] adds s
    times right to acc."""
    get = acc.get
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _horner(acc: dict[int, int], arg: list[tuple[int, int]], steps: list[tuple[int, list]]):
    """Add H to acc, where H starts at 0 and each step (s, pairs) makes it
    H * arg + s * pairs, over packed (key, numerator) pairs.  The last step
    accumulates straight into acc.  arg, a linear form or a Horner argument,
    is the short operand: its terms run outermost, H's innermost."""
    h: dict[int, int] = {}
    last = len(steps) - 1
    for i, (s, pairs) in enumerate(steps):
        prior, h = h, (acc if i == last else {})
        _pair_sums(h, arg, list(prior.items()))
        if s:
            _pair_sums(h, [(0, s)], pairs)


def _from_packed(vs: VarSet, acc: dict[int, int], width: int, den: int, deg: int) -> MultiPoly:
    """The polynomial acc / den in lowest terms, for acc keyed by packed
    exponents at `width`, none of total degree above `deg`, in that packed
    form."""
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    if not acc:
        return MultiPoly.zero(vs)
    nums = list(acc.values())
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    return MultiPoly._new(vs, den, (width, deg, list(acc), nums))


#: How many digits str() converts at most, 0 for no limit; Python versions
#: before 3.10.7 have no limit and no such function.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decimal(n: int) -> str:
    """str(n) for an int n of any size.  str() refuses ints of more than
    _max_str_digits() digits, so longer ones are split around a power of ten
    into two halves that convert the same way."""
    limit = _max_str_digits()
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits (log10(2) > 3/10)
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def json_text(doc) -> str:
    """json.dumps(doc, indent=2), with ints of any size written as JSON numbers.

    json converts ints with str(), which refuses ints of more than
    _max_str_digits() digits.  When it does, every int over 3 times that many
    bits is swapped for a placeholder string "\\0<i>", and in one pass over
    the text each placeholder for the _decimal digits of int i; the
    interpreter's limit is left unchanged.
    """
    try:
        return json.dumps(doc, indent=2)
    except ValueError:  # an int too long for str()
        pass
    limit = _max_str_digits()
    digits: list[str] = []

    def swap(v):
        if isinstance(v, dict):
            return {k: swap(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [swap(x) for x in v]
        if type(v) is int and v.bit_length() > 3 * limit:
            digits.append(_decimal(v))
            return f"\0{len(digits) - 1}"
        return v

    text = json.dumps(swap(doc), indent=2)
    return re.sub(r'"\\u0000(\d+)"', lambda m: digits[int(m.group(1))], text)


class MultiPoly:
    """Sparse polynomial with rational coefficients over a fixed VarSet.

    Stored as (vs, den, _packed): integer numerators over one denominator
    `den`, in lowest terms, held in the packed form (width, deg, keys,
    numerators), with the keys packed in width-bit fields as _pack lays them
    out, no total degree (and so no exponent) above deg, deg < 2^width, and
    the numerators, nonzero and sharing no factor with den, in the order of
    the keys; den == 1 when there are no keys.  Two equal polynomials
    therefore have equal den and equal (key, numerator) pairs once their keys
    are at one width.  `num` unpacks a fresh dict (exponent tuple -> nonzero
    int) on each read.  Monomials print in descending graded-lexicographic
    order, which makes text() a canonical form.
    """

    __slots__ = ("vs", "den", "_packed")

    def __init__(self, vs: VarSet, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        nvars = len(vs)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for variables {vs.names}")
            c = Fraction(coef)
            if c:
                clean[exps] = c
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the numerators already share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self.vs = vs
        self.den = den
        self._packed = _packing({e: c.numerator * (den // c.denominator) for e, c in clean.items()})

    # -- construction ------------------------------------------------------

    @classmethod
    def _new(cls, vs: VarSet, den: int, packed: tuple) -> "MultiPoly":
        # Internal fast path: caller guarantees the normalised packed form
        # (see the class docstring).
        self = cls.__new__(cls)
        self.vs = vs
        self.den = den
        self._packed = packed
        return self

    @classmethod
    def _make(cls, vs: VarSet, num: dict[tuple[int, ...], int], den: int) -> "MultiPoly":
        # Internal: nonzero numerators over den > 0, reduced to lowest terms here.
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den, num = den // g, {k: c // g for k, c in num.items()}
        return cls._new(vs, den, _packing(num))

    @classmethod
    def zero(cls, vs: VarSet) -> "MultiPoly":
        return cls._new(vs, 1, _EMPTY)

    @classmethod
    def const(cls, vs: VarSet, value) -> "MultiPoly":
        c = Fraction(value)
        if not c:
            return cls.zero(vs)
        return cls._new(vs, c.denominator, (0, 0, [0], [c.numerator]))

    @classmethod
    def one(cls, vs: VarSet) -> "MultiPoly":
        return cls.const(vs, 1)

    @classmethod
    def variable(cls, vs: VarSet, name: str) -> "MultiPoly":
        # total degree 1, so one bit per field
        return cls._new(vs, 1, (1, 1, [1 << (len(vs) - 1 - vs.index(name))], [1]))

    @classmethod
    def monomial(cls, vs: VarSet, exps: Sequence[int], coef) -> "MultiPoly":
        return cls(vs, {tuple(exps): coef})

    # -- predicates and views ----------------------------------------------

    @property
    def num(self) -> dict[tuple[int, ...], int]:
        """Map from exponent vector to nonzero integer numerator over den,
        unpacked from the packed form into a new dict on each read."""
        width, _, keys, nums = self._packed
        nvars = len(self.vs)
        exps = zip(*_columns(keys, width, nvars)) if nvars else [()] * len(keys)
        return dict(zip(exps, nums))

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map from exponent vector to nonzero Fraction coefficient,
        built on each read."""
        den = self.den
        if den == 1:  # Fraction(c) skips the gcd that Fraction(c, 1) runs
            return MappingProxyType({e: Fraction(c) for e, c in self.num.items()})
        return MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})

    def is_zero(self) -> bool:
        return not self._packed[3]

    def is_constant(self) -> bool:
        return not any(self._packed[2])

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self.text()}")
        return Fraction(next(iter(self._packed[3]), 0), self.den)

    def total_degree(self) -> int:
        """Total degree, read off the packed keys; -1 for the zero polynomial."""
        return max(_degrees(self._packed[0], self._packed[2]), default=-1)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vs != self.vs:
                raise ValueError(f"variable-set mismatch: {self.vs.names} vs {other.vs.names}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.vs, other)
        return NotImplemented

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other: both packed forms, at the wider width and
        over the lcm of the two denominators, merged into one accumulator."""
        if other.is_zero():
            return self
        den = lcm(self.den, other.den)
        a, b = self._packed, other._packed
        width = max(a[0], b[0])
        acc = dict(_pairs(self, width, den // self.den))
        get = acc.get
        for k, c in _pairs(other, width, sign * (den // other.den)):
            acc[k] = get(k, 0) + c
        return _from_packed(self.vs, acc, width, den, max(a[1], b[1]))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._mapped(1, -1, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c: Fraction | int) -> "MultiPoly":
        """self * c for a nonzero rational c = p/q, reduced in one step: p
        only shares factors with den, q only with the numerators' content."""
        p, q = c.numerator, c.denominator
        den = self.den
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        g = 1
        if q != 1:
            g = gcd(q, *self._packed[3])
            den *= q // g
        return self._mapped(g, p, den)

    def _mapped(self, div: int, mul: int, den: int) -> "MultiPoly":
        """The polynomial with the monomials of self and numerators
        c // div * mul over den, on the same packed keys and bounds."""
        packed = self._packed
        if div == mul == 1:
            return MultiPoly._new(self.vs, den, packed)
        if div == 1:
            values = [c * mul for c in packed[3]]
        else:
            values = [c // div * mul for c in packed[3]]
        return MultiPoly._new(self.vs, den, (*packed[:3], values))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or self.is_zero():
                return MultiPoly.zero(self.vs)
            return self._scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero(self.vs)
        # Monagan-Pearce packed exponents: one int per monomial, with fields
        # wide enough that adding two keys never carries between variables
        deg = self._packed[1] + other._packed[1]
        width = deg.bit_length()
        acc: dict[int, int] = {}
        _pair_sums(acc, _pairs(self, width), _pairs(other, width))
        return _from_packed(self.vs, acc, width, self.den * other.den, deg)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = Fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / c)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {k}")
        result = MultiPoly.one(self.vs)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == Fraction(other)
            return NotImplemented
        if self.vs != other.vs or self.den != other.den:
            return False
        # the packed forms, keys brought to one width: no num is built
        a, b = self._packed, other._packed
        if len(a[2]) != len(b[2]):
            return False
        width, nvars = max(a[0], b[0]), len(self.vs)
        return dict(zip(_repack(a[2], a[0], width, nvars), a[3])) == dict(
            zip(_repack(b[2], b[0], width, nvars), b[3])
        )

    # -- evaluation and substitution -----------------------------------------

    def eval(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Evaluate at a full assignment of rationals to the variables.

        With each value v = p/q and E the variable's top exponent, a term
        c * prod(v^e) is c * prod(p^e * q^(E - e)) over den * prod(q^E); the
        numerators come from two integer power tables per variable and are
        summed as ints, with one Fraction at the end.
        """
        vals = []
        for name in self.vs.names:
            if name not in point:
                raise ValueError(f"missing assignment for variable {name!r}")
            vals.append(Fraction(point[name]))
        num = self.num
        if not num:
            return Fraction(0)
        den = self.den
        tables = []
        for v, top in zip(vals, map(max, zip(*num))):
            p, q = v.numerator, v.denominator
            ps, qs = [1], [1]
            for _ in range(top):
                ps.append(ps[-1] * p)
                qs.append(qs[-1] * q)
            tables.append([ps[e] * qs[top - e] for e in range(top + 1)])
            den *= qs[top]
        total = 0
        for exps, c in num.items():
            for table, e in zip(tables, exps):
                c *= table[e]
            total += c
        return Fraction(total, den)

    def subst_value(self, name: str, value: Fraction | int) -> "MultiPoly":
        """Substitute a rational value for one variable; VarSet is unchanged."""
        i = self.vs.index(name)
        value = Fraction(value)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in self.num.items():
            e = exps[:i] + (0,) + exps[i + 1 :]
            out[e] = out.get(e, 0) + coef * value ** exps[i]
        return MultiPoly(self.vs, {e: c / self.den for e, c in out.items()})

    def cast(self, vs: VarSet) -> "MultiPoly":
        """Reinterpret over another VarSet, matching variables by name, on
        the packed keys: each exponent column moves to its variable's place.

        Every variable actually used must exist in the target VarSet.
        """
        width, deg, keys, nums = self._packed
        cols = [[0] * len(keys) for _ in vs]
        for name, col in zip(self.vs.names, _columns(keys, width, len(self.vs))):
            try:
                cols[vs.index(name)] = col
            except KeyError:
                if any(col):
                    raise
        return MultiPoly._new(vs, self.den, (width, deg, _pack(cols, width, len(keys)), nums))

    # -- canonical text -------------------------------------------------------

    def text(self) -> str:
        """Canonical form: monomials in descending graded-lex order, explicit
        * and ^, rational coefficients as p/q.  Round-trips through
        reclang.parse_poly within the parser's limits.

        On the packed form alone: one C-level sort of (total degree, key)
        descending, as keys order like exponents; monomial strings from a
        cache bounded and keyed by (names, width, key); no gcd when den == 1.
        """
        (width, _, keys, nums), den, names = self._packed, self.den, self.vs.names
        if not keys:
            return "0"
        limit = 3 * _max_str_digits()  # bits that str() always converts
        wide = limit and max(den, *map(abs, nums)).bit_length() > limit
        digits = _decimal if wide else str
        out = []
        for _, key, coef in sorted(zip(_degrees(width, keys), keys, nums), reverse=True):
            out.append(" - " if coef < 0 else " + ")
            p, q = abs(coef), 1
            if den != 1:
                g = gcd(p, den)
                p, q = p // g, den // g
            mono = _monomial(names, width, key)
            if q != 1:
                mag = f"{digits(p)}/{digits(q)}"
            elif p == 1 and mono:
                out.append(mono)
                continue
            else:
                mag = digits(p)
            out.append(f"{mag}*{mono}" if mono else mag)
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self):
        return f"MultiPoly({self.text()!r} over {self.vs.names})"


@lru_cache(maxsize=1 << 14)
def _monomial(names: tuple[str, ...], width: int, key: int) -> str:
    """The monomial of a key packed at width over the variables names, as
    text() prints it ("" for the constant monomial)."""
    exps = [col[0] for col in _columns([key], width, len(names))]
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)


def sum_of_products(
    vs: VarSet, groups: Iterable[Iterable[tuple[MultiPoly, MultiPoly, Fraction | int]]]
) -> list[MultiPoly]:
    """[sum(r * a * b for a, b, r in group) for group in groups], for int or
    Fraction weights r: the one product kernel.

    Every distinct operand is packed once for the call, at one field width
    (its packed keys, repacked if they have another width).  Each row's weight
    over its operands' denominators, r / (a.den * b.den), is reduced by one
    integer gcd.  Each group accumulates packed keys over the lcm of its
    rows' reduced denominators, a row's share of it times its numerator
    folded once into its smaller operand, and is normalised once, keeping
    its packed form.  A pair of multi-term operands in several rows of the
    call is multiplied once, after the other rows, and each of its rows adds
    its share times the product; so one such product is alive at a time.
    Rows with a zero weight or operand add nothing; an empty group gives zero.
    """
    operands: dict[int, MultiPoly] = {}  # id -> p
    uses: dict[tuple[int, int], int] = {}  # unordered pair of multi-term operands -> rows
    width = 0
    all_rows = []
    for group in groups:
        rows = []
        deg = 0
        for a, b, r in group:
            if not r or a.is_zero() or b.is_zero():
                continue
            for p in (a, b):
                if id(p) not in operands:
                    if p.vs != vs:
                        raise ValueError(f"variable-set mismatch: {p.vs.names} vs {vs.names}")
                    operands[id(p)] = p
            pair = None
            if len(a._packed[2]) > 1 < len(b._packed[2]):
                pair = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
                uses[pair] = uses.get(pair, 0) + 1
            deg = max(deg, a._packed[1] + b._packed[1])
            f, d = r.numerator, r.denominator * a.den * b.den
            g = gcd(f, d)
            rows.append((a, b, f // g, d // g, pair))
        all_rows.append((rows, deg))
        width = max(width, deg.bit_length())
    packed = {key: _pairs(p, width) for key, p in operands.items()}
    shared = {pair: [] for pair, r in uses.items() if r > 1}  # pair -> (acc, share) per row
    out: list = []
    for rows, deg in all_rows:
        den = lcm(*(row[3] for row in rows))
        acc: dict[int, int] = {}
        for a, b, f, d, pair in rows:
            f *= den // d
            if pair in shared:
                shared[pair].append((acc, f))
                continue
            left, right = packed[id(a)], packed[id(b)]
            if len(left) > len(right):
                left, right = right, left
            if f != 1:
                left = [(k, c * f) for k, c in left]
            _pair_sums(acc, left, right)
        out.append((acc, den, deg) if shared else _from_packed(vs, acc, width, den, deg))
    if not shared:
        return out
    for pair, shares in shared.items():
        product: dict[int, int] = {}
        _pair_sums(product, packed[pair[0]], packed[pair[1]])
        for acc, f in shares:
            _pair_sums(acc, [(0, f)], product.items())
    return [_from_packed(vs, acc, width, den, deg) for acc, den, deg in out]


# -- univariate layer ----------------------------------------------------------


class UPoly:
    """Dense univariate polynomial in an auxiliary indeterminate, with
    MultiPoly coefficients over a shared VarSet.  coeffs[k] multiplies the
    k-th power; trailing zeros are trimmed, so the zero polynomial has an
    empty coefficient list and degree -1.
    """

    __slots__ = ("vs", "coeffs")

    def __init__(self, vs: VarSet, coeffs: Iterable):
        cs = []
        for c in coeffs:
            if not isinstance(c, MultiPoly):
                c = MultiPoly.const(vs, c)
            elif c.vs != vs:
                raise ValueError("coefficient VarSet mismatch")
            cs.append(c)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.vs = vs
        self.coeffs = cs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> MultiPoly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return MultiPoly.zero(self.vs)

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.vs == other.vs and self.coeffs == other.coeffs

    def __add__(self, other: "UPoly") -> "UPoly":
        if self.vs != other.vs:
            raise ValueError("VarSet mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.vs, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self):
        return UPoly(self.vs, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "UPoly":
        return UPoly(self.vs, [c * factor for c in self.coeffs])

    def compose_affine(self, shift: Fraction | int) -> "UPoly":
        """Return q(t) = self(t + shift): eval_poly (packed Horner) at t + shift,
        with t a variable appended to vs under a name vs does not use."""
        t = _free_name(self.vs, "t")
        full = VarSet(self.vs.names + (t,))
        return to_upoly(self.eval_poly(MultiPoly.variable(full, t) + Fraction(shift)), t)

    def is_odd(self) -> bool:
        """True when only odd powers of the indeterminate occur."""
        return all(c.is_zero() for c in self.coeffs[0::2])

    def even_part(self) -> "UPoly":
        cs = [c if k % 2 == 0 else MultiPoly.zero(self.vs) for k, c in enumerate(self.coeffs)]
        return UPoly(self.vs, cs)

    def eval_scalar(self, x: Fraction | int) -> MultiPoly:
        """Evaluate the indeterminate at a rational; coefficients survive."""
        return self.eval_poly(MultiPoly.const(self.vs, x))

    def eval_poly(self, arg: MultiPoly) -> MultiPoly:
        """Evaluate the indeterminate at a polynomial.  Coefficients are cast
        into the argument's VarSet, so they must only use variables available
        there (constants always work).

        Horner on packed integer numerators.  With arg = A / a and every
        coefficient c_j = C_j / L over the lcm L of their denominators, step j
        keeps N_j = a^(deg - j) * L * H_j, where H_j = sum(c_i * arg^(i - j)
        for i >= j), as N_j = N_(j+1) * A + a^(deg - j) * C_j.  No N_j has a
        total degree above deg * deg(arg) + deg(coefficients), which fixes
        the field width up front; N_0 / (a^deg * L) is normalised once, and
        keeps its packed form.
        """
        vs = arg.vs
        if not self.coeffs:
            return MultiPoly.zero(vs)
        coeffs = self.coeffs if vs == self.vs else [c.cast(vs) for c in self.coeffs]
        bound = (len(coeffs) - 1) * arg._packed[1] + max([c._packed[1] for c in coeffs])
        width = bound.bit_length()
        den, a = lcm(*(c.den for c in coeffs)), arg.den
        # step i = deg - j adds a^i * C_j, and C_j is c_j's numerators times L / c_j.den
        steps = [(den * a**i // c.den, _pairs(c, width)) for i, c in enumerate(reversed(coeffs))]
        acc: dict[int, int] = {}
        _horner(acc, _pairs(arg, width), steps)
        return _from_packed(vs, acc, width, den * a ** (len(coeffs) - 1), bound)

    def to_multipoly(self, indet: str) -> MultiPoly:
        """Flatten into a MultiPoly over vs + (indet,), indet appended last,
        on the packed keys: a coefficient's keys at the width of the largest
        total degree, shifted up by one field that holds the power.  Its
        monomials are distinct, so over the lcm of the coefficients'
        denominators it is in lowest terms, as in MultiPoly.__init__."""
        full = VarSet(self.vs.names + (indet,))
        if not self.coeffs:
            return MultiPoly.zero(full)
        deg = max(c._packed[1] + k for k, c in enumerate(self.coeffs))
        width, den = deg.bit_length(), lcm(*(c.den for c in self.coeffs))
        keys, nums = [], []
        for k, coef in enumerate(self.coeffs):
            for key, c in _pairs(coef, width, den // coef.den):
                keys.append((key << width) | k)
                nums.append(c)
        return MultiPoly._new(full, den, (width, deg, keys, nums))

    def text(self, indet: str = "t") -> str:
        """to_multipoly's text, under indet with "_" appended until free."""
        return self.to_multipoly(_free_name(self.vs, indet)).text()

    def __repr__(self):
        return f"UPoly({self.text()!r})"


def _free_name(vs: VarSet, name: str) -> str:
    """name with "_" appended until vs does not use it."""
    while name in vs.names:
        name += "_"
    return name


def to_upoly(p: MultiPoly, var: str) -> UPoly:
    """View a MultiPoly as univariate in `var` with coefficients over the
    remaining variables: each packed key of p, with var's field taken out,
    is a key of its coefficient at p's width, over p's den."""
    width, deg, keys, nums = p._packed
    sub = p.vs.without(var)
    shift = width * (len(sub) - p.vs.index(var))
    low, mask = (1 << shift) - 1, (1 << width) - 1
    buckets: dict[int, dict[int, int]] = {}
    for key, c in zip(keys, nums):
        high = (key >> (shift + width)) << shift
        buckets.setdefault((key >> shift) & mask, {})[high | (key & low)] = c
    top = max(buckets, default=-1)
    return UPoly(sub, [_from_packed(sub, buckets.get(k, {}), width, p.den, deg) for k in range(top + 1)])


# -- denominator profile and exact division ------------------------------------


class DenomProfile:
    """Summary of a polynomial's coefficient denominators.

    lcm_denominator: lcm of all coefficient denominators (1 for the zero
    polynomial); two_adic_only: that lcm is a power of 2; max_neg_v2: the
    largest 2-adic defect, the exponent of 2 in a coefficient's denominator.
    """

    __slots__ = ("lcm_denominator", "two_adic_only", "max_neg_v2")

    def __init__(self, lcm_denominator, two_adic_only, max_neg_v2):
        self.lcm_denominator: int = lcm_denominator
        self.two_adic_only: bool = two_adic_only
        self.max_neg_v2: int = max_neg_v2

    def __eq__(self, other) -> bool:
        same = (getattr(self, f) == getattr(other, f) for f in DenomProfile.__slots__)
        return type(other) is DenomProfile and all(same)


def denom_profile(p: MultiPoly) -> DenomProfile:
    # In lowest terms den is the lcm of the coefficient denominators, and when
    # den is even some numerator is odd, so the worst 2-adic defect is v, 2^v || den.
    den = p.den
    return DenomProfile(den, den & (den - 1) == 0, (den & -den).bit_length() - 1)


def horner_sum_div_linear(
    vs: VarSet,
    rows: Iterable[tuple[Sequence[int], Sequence[int], int, MultiPoly]],
    m: Sequence[int],
) -> MultiPoly:
    """sum(h(A) * p / s for h, A, s, p in rows), divided exactly by the
    linear form sum(m[i] * x_i).

    h lists the integer coefficients of a univariate polynomial from its top
    degree down, A the integer weights of the linear form sum(A[j] * x_j) at
    which h is taken, and s a positive integer.  Rows with an empty h or a
    zero p add nothing.  Every p is packed once, at one field width for the
    call (the largest total-degree bound of p plus deg h), with its
    numerators scaled to the lcm of the rows' s * p.den.  h(A) * p is Horner
    in A, each step one pass over the running sum per term of A, and the
    rows add into one accumulator.

    The division is synthetic, on the pivot, the first variable with a
    nonzero weight.  Level k is the part of the sum of degree k in the
    pivot.  From the top level down, level k divided by the pivot weight is
    the quotient's level k - 1, and that times the rest of the form, one pass
    over the quotient level per term of the form, is subtracted from level
    k - 1.  Level 0 must come out empty; otherwise InexactDivisionError
    carries it as the remainder.  At least one weight must be nonzero.  The
    levels and the quotient live over the lcm times f, where f grows by
    |m_pivot| / gcd(m_pivot, level numerators) only at a level whose
    numerators the pivot weight does not divide.  The quotient is normalised
    once and keeps its packed form, with the call's bound less one as its
    total-degree bound.
    """
    nvars = len(vs)
    if len(m) != nvars:
        raise ValueError("weight vector length does not match variable count")
    pivot = next((i for i, w in enumerate(m) if w), None)
    if pivot is None:
        raise ValueError("all-zero weight vector")
    rows = [(h, a, s, p) for h, a, s, p in rows if h and not p.is_zero()]
    # every product, level and quotient term has total degree at most this
    bound = 0
    for h, _, _, p in rows:
        if p.vs != vs:
            raise ValueError(f"variable-set mismatch: {p.vs.names} vs {vs.names}")
        bound = max(bound, p._packed[1] + len(h) - 1)
    width = bound.bit_length()
    den = lcm(*(s * p.den for _, _, s, p in rows))
    total: dict[int, int] = {}
    for h, a, s, p in rows:
        left = _pairs(p, width, den // (s * p.den))
        form = [(1 << width * (nvars - 1 - j), w) for j, w in enumerate(a) if w]
        _horner(total, form, [(c, left) for c in h])

    shift = width * (nvars - 1 - pivot)
    mask = (1 << width) - 1
    steps = [(1 << width * (nvars - 1 - i), -w) for i, w in enumerate(m) if w and i != pivot]
    levels: dict[int, dict[int, int]] = {}
    for key, c in total.items():
        if c:
            k = (key >> shift) & mask
            levels.setdefault(k, {})[key - (k << shift)] = c
    if not levels:
        return MultiPoly.zero(vs)
    mp = m[pivot]
    f = 1
    quot = []  # (pivot exponent, numerators over den * f_k, f_k)
    cur = levels[max(levels)]
    for k in range(max(levels), 0, -1):
        # cur / mp = (cur / g) / (mp / g), with g carrying the sign of mp
        g = gcd(mp, *cur.values())
        if mp < 0:
            g = -g
        f *= mp // g
        q = {key: c // g for key, c in cur.items() if c}
        quot.append((k - 1, q, f))
        cur = levels.get(k - 1, {})
        if f != 1:
            cur = {key: c * f for key, c in cur.items()}
        _pair_sums(cur, steps, list(q.items()))
    if any(cur.values()):
        remainder = _from_packed(vs, cur, width, den * f, bound)
        raise InexactDivisionError(
            f"linear division by weights {tuple(m)} leaves remainder {remainder.text()}",
            remainder=remainder,
        )
    out: dict[int, int] = {}
    for k, q, fk in quot:
        s, off = f // fk, k << shift
        for key, c in q.items():
            out[key + off] = c * s
    return _from_packed(vs, out, width, den * f, bound - 1)
