"""Parser, printer and runner for the small recurrence spec language.

A spec file declares a parameter ring, a sequence name, and one recurrence
whose left side is n (optionally a power of n) times the current term:

    # three-term example
    ring b c;
    seq w;
    rec: n*w[n] = (b - n*(n-1))*w[n-1] + c*w[n-3];

Expressions are sums of terms, each a polynomial in n and the ring
variables times one back-reference seq[n - i] with i >= 1; integer
literals, + - * / ^ and parentheses, where / divides only by a nonzero
constant (so p/q literals read as rationals); whitespace-insensitive; #
starts a comment.  Unary minus binds tighter than * and / but looser than
^.  Parentheses and chained unary signs nest at most MAX_NESTING deep;
exponents, degrees, lags and the leading power of n are at most
MAX_DEGREE, and the coefficients and denominators that powers, products,
quotients and sums build are at most MAX_COEF_BITS bits long.  The initial
term seq[0] is implicitly 1 and not writable.

One parser, _Parser, reads every token: parse_spec runs the ring, seq and
rec statements on it and then hands it the right side of rec:.  The same
grammar, without sequence references, reads CLI tuples (parse_poly_list)
and single polynomials (parse_poly, the inverse of MultiPoly.text within
these limits).

The canonical pretty-printer sorts ring variables and expands every
coefficient polynomial, so parse -> print -> parse is stable and the
printed text's hash identifies the recurrence.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .multipoly import (
    MAX_COEF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MultiPoly,
    UPoly,
    VarSet,
    _degrees,
    _from_packed,
    sum_of_products,
    to_upoly,
)


class SpecSyntaxError(ValueError):
    """Parse or semantic error in a spec file, with line/column position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind: str = kind  # "int", "name", "op", "end"
        self.value: str = value
        self.line: int = line
        self.col: int = col


# ASCII digits and names only: str.isdigit() also admits "²" and "٣".  A
# comment does not advance the column; any other character is an error.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[;:=\[\]()+\-*/^,])"
    r"|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<newline>\n)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
        elif kind == "bad":
            raise SpecSyntaxError(line, col, f"unexpected character {value!r}")
        elif kind != "comment":
            if kind != "blank":
                tokens.append(Token(kind, value, line, col))
            col += len(value)
    tokens.append(Token("end", "", line, col))
    return tokens


class RecurrenceSpec:
    """A parsed recurrence: n^lead_power * seq[n] = sum q_i(n) * seq[n-i].

    ring_vars are stored sorted; each q_i is a MultiPoly over the ring
    variables plus the reserved indeterminate n (zero entries mark gaps).
    """

    __slots__ = ("ring_vars", "seq_name", "lead_power", "q")

    def __init__(self, ring_vars, seq_name, lead_power, q):
        self.ring_vars: tuple[str, ...] = ring_vars
        self.seq_name: str = seq_name
        self.lead_power: int = lead_power
        self.q: tuple[MultiPoly, ...] = q

    def __eq__(self, other) -> bool:
        same = (getattr(self, f) == getattr(other, f) for f in RecurrenceSpec.__slots__)
        return type(other) is RecurrenceSpec and all(same)

    @property
    def order(self) -> int:
        return len(self.q)

    @property
    def ring(self) -> VarSet:
        return VarSet(self.ring_vars)


# -- parser -------------------------------------------------------------------------


def _int_value(tok: Token) -> int:
    try:
        return int(tok.value)
    except ValueError:  # longer than Python converts from a string
        raise SpecSyntaxError(tok.line, tok.col, "integer literal too long") from None


def _bounded(tok: Token, value: int, what: str) -> int:
    if value > MAX_DEGREE:
        raise SpecSyntaxError(tok.line, tok.col, f"{what} {value} exceeds the limit {MAX_DEGREE}")
    return value


def _degree(value: dict) -> int:
    return max(p.total_degree() for p in value.values())


def _coef_bits(value: dict) -> int:
    """Bit length of the largest max(sum of |numerators|, denominator) among
    value's polynomials: products of these bound products' numerators and
    denominators alike."""
    return max(max(sum(map(abs, p._packed[3])), p.den).bit_length() for p in value.values())


def _coef_bounded(tok: Token, bits: int):
    if bits > MAX_COEF_BITS:
        raise SpecSyntaxError(
            tok.line, tok.col, f"coefficients of up to {bits} bits exceed the limit {MAX_COEF_BITS}"
        )


class _Parser:
    def __init__(self, tokens: list[Token], vs: VarSet | None, seq_name: str | None):
        self.tokens = tokens
        self.pos = 0
        self.vs = vs
        self.seq_name = seq_name
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: Token, msg: str):
        raise SpecSyntaxError(tok.line, tok.col, msg)

    def nest(self, tok: Token):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(tok, f"expression nested deeper than {MAX_NESTING} levels")

    def expect_op(self, op: str) -> Token:
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            self.fail(tok, f"expected {op!r}, found {tok.value!r}")
        return tok

    def expect_name(self, name: str, msg: str):
        if (tok := self.next()).kind != "name" or tok.value != name:
            self.fail(tok, msg)

    # values are dicts {None: poly} | {shift: poly, ...}; None marks the
    # pure polynomial part, integer keys mark coefficients of seq[n-shift]
    def parse_expr(self) -> dict:
        depth = self.depth
        sign = 1
        while self.peek().kind == "op" and self.peek().value in "+-":
            tok = self.next()
            self.nest(tok)
            if tok.value == "-":
                sign = -sign
        total = self._scaled(self.parse_term(), sign)
        self.depth = depth
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.next()
            term = self.parse_term()
            total = self._merge(op, total, self._scaled(term, -1 if op.value == "-" else 1))
        return total

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while self.peek().kind == "op" and self.peek().value in "*/":
            op = self.next()
            rhs = self.parse_factor()
            if op.value == "/":
                p = rhs.get(None)
                if set(rhs) != {None} or not p.is_constant() or p.is_zero():
                    self.fail(op, "division only by a nonzero constant")
                rhs = {None: MultiPoly.const(self.vs, 1 / p.constant_value())}
            value = self._product(value, rhs)
        return value

    def parse_factor(self) -> dict:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.nest(self.next())
            value = self._scaled(self.parse_factor(), -1)
            self.depth -= 1
            return value
        value = self.parse_atom()
        if self.peek().kind == "op" and self.peek().value == "^":
            op = self.next()
            exp = self.next()
            if exp.kind != "int":
                self.fail(exp, "exponent must be an integer literal")
            if set(value) != {None}:
                self.fail(op, "cannot raise a sequence reference to a power")
            k = _bounded(exp, _int_value(exp), "exponent")
            _bounded(op, max(_degree(value), 0) * k, "degree")
            _coef_bounded(op, _coef_bits(value) * k)
            return {None: value[None] ** k}
        return value

    def parse_atom(self) -> dict:
        tok = self.next()
        if tok.kind == "int":
            return {None: MultiPoly.const(self.vs, _int_value(tok))}
        if tok.kind == "op" and tok.value == "(":
            self.nest(tok)
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        if tok.kind == "name":
            if tok.value == self.seq_name:
                return {self._parse_ref_index(): MultiPoly.one(self.vs)}
            if tok.value in self.vs.names:
                return {None: MultiPoly.variable(self.vs, tok.value)}
            self.fail(tok, f"unknown variable {tok.value!r}")
        if tok.kind == "end":
            self.fail(tok, "unexpected end of input")
        self.fail(tok, f"unexpected token {tok.value!r}")

    def _parse_ref_index(self) -> int:
        self.expect_op("[")
        self.expect_name("n", "sequence index must have the form n - <int>")
        tok = self.next()
        if tok.kind == "op" and tok.value == "]":
            self.fail(tok, f"{self.seq_name}[n] cannot appear on the right side")
        if tok.kind != "op" or tok.value != "-":
            self.fail(tok, "sequence index must have the form n - <int>")
        shift = self.next()
        if shift.kind != "int":
            self.fail(shift, "sequence index must have the form n - <int>")
        self.expect_op("]")
        i = _bounded(shift, _int_value(shift), "lag")
        if i < 1:
            self.fail(shift, f"index out of declared range: n - {i}")
        return i

    def _scaled(self, value: dict, sign: int) -> dict:
        if sign == 1:
            return value
        return {k: -p for k, p in value.items()}

    def _merge(self, op: Token, a: dict, b: dict) -> dict:
        # a sum of two bounded operands is cheap to build, but fractions over
        # coprime denominators would grow without bound over many terms
        out = dict(a)
        for k, p in b.items():
            out[k] = out[k] + p if k in out else p
            _coef_bounded(op, _coef_bits({k: out[k]}))
        return out

    def _product(self, a: dict, b: dict) -> dict:
        if (set(a) - {None}) and (set(b) - {None}):
            self.fail(self.peek(), "recurrence must be linear in the sequence")
        _bounded(self.peek(), _degree(a) + _degree(b), "degree")
        _coef_bounded(self.peek(), _coef_bits(a) + _coef_bits(b))
        if set(b) - {None}:
            a, b = b, a
        scal = b.get(None, MultiPoly.zero(self.vs))
        return {k: p * scal for k, p in a.items()}


def parse_spec(text: str) -> RecurrenceSpec:
    """Parse a complete spec file into its canonical RecurrenceSpec."""
    p = _Parser(_tokenize(text), vs=None, seq_name=None)
    ring: list[str] | None = None
    seq_name: str | None = None
    lead_power = 1
    coeffs: dict[int, MultiPoly] | None = None
    while (tok := p.next()).kind != "end":
        if tok.kind != "name":
            p.fail(tok, f"expected a statement, found {tok.value!r}")
        if tok.value == "ring":
            if ring is not None:
                p.fail(tok, "duplicate ring statement")
            if seq_name is not None:  # a rec statement needs a seq statement before it
                p.fail(tok, "ring statement must come first")
            ring = []
            while p.peek().kind == "name":
                name = p.next()
                if name.value == "n":
                    p.fail(name, "n is reserved and cannot be a ring variable")
                if name.value in ring:
                    p.fail(name, f"duplicate ring variable {name.value!r}")
                ring.append(name.value)
            if not ring:
                p.fail(p.peek(), "ring statement needs at least one variable")
            p.expect_op(";")
        elif tok.value == "seq":
            if seq_name is not None:
                p.fail(tok, "duplicate seq statement")
            name = p.next()
            if name.kind != "name":
                p.fail(name, "expected a sequence name")
            if name.value == "n" or name.value in (ring or ()):
                p.fail(name, f"sequence name {name.value!r} collides with a variable")
            seq_name = name.value
            p.expect_op(";")
        elif tok.value == "rec":
            if coeffs is not None:
                p.fail(tok, "duplicate rec statement")
            if seq_name is None:
                p.fail(tok, "rec statement requires a prior seq statement")
            p.expect_op(":")
            # left side: n[^k]*seq[n]
            p.expect_name("n", "left side must start with n")
            if p.peek().kind == "op" and p.peek().value == "^":
                p.next()
                ptok = p.next()
                if ptok.kind != "int" or _int_value(ptok) < 1:
                    p.fail(ptok, "leading power must be a positive integer")
                lead_power = _bounded(ptok, _int_value(ptok), "leading power")
            p.expect_op("*")
            p.expect_name(seq_name, f"left side must use the declared sequence {seq_name!r}")
            p.expect_op("[")
            p.expect_name("n", "left side index must be exactly [n]")
            p.expect_op("]")
            p.expect_op("=")
            p.seq_name, p.vs = seq_name, VarSet(tuple(sorted(ring or ())) + ("n",))
            coeffs = p.parse_expr()
            p.expect_op(";")
            pure = coeffs.pop(None, None)
            if pure is not None and not pure.is_zero():
                p.fail(tok, "every term on the right side needs a sequence reference")
            coeffs = {i: qi for i, qi in coeffs.items() if not qi.is_zero()}
            if not coeffs:
                p.fail(tok, "right side has no sequence references")
        else:
            p.fail(tok, f"unknown statement {tok.value!r}")

    if seq_name is None:
        p.fail(tok, "missing seq statement")
    if coeffs is None:
        p.fail(tok, "missing rec statement")
    r = max(coeffs)
    zero = MultiPoly.zero(p.vs)
    q = tuple(coeffs.get(i, zero) for i in range(1, r + 1))
    return RecurrenceSpec(
        ring_vars=p.vs.names[:-1],
        seq_name=seq_name,
        lead_power=lead_power,
        q=q,
    )


def parse_poly(text: str, vs: VarSet) -> MultiPoly:
    """One polynomial expression over vs, in the spec grammar without
    sequence references; reads MultiPoly.text() back."""
    parser = _Parser(_tokenize(text), vs=vs, seq_name=None)
    value = parser.parse_expr()
    tok = parser.next()
    if tok.kind != "end":
        parser.fail(tok, f"expected end of input, found {tok.value!r}")
    return value[None]


def parse_poly_list(text: str, varnames: tuple[str, ...]) -> list[MultiPoly]:
    """Comma-separated polynomial expressions in the same grammar; used for
    CLI tuple input."""
    parser = _Parser(_tokenize(text), vs=VarSet(varnames), seq_name=None)
    polys = []
    while True:
        value = parser.parse_expr()
        polys.append(value[None])
        tok = parser.next()
        if tok.kind == "end":
            return polys
        if tok.kind != "op" or tok.value != ",":
            parser.fail(tok, f"expected ',' or end of input, found {tok.value!r}")


# -- canonical printing ---------------------------------------------------------------


def pretty_print(spec: RecurrenceSpec) -> str:
    """Canonical text: sorted ring variables, expanded coefficients.

    parse(pretty_print(parse(text))) == parse(text) for all valid input.
    """
    lines = []
    if spec.ring_vars:
        lines.append(f"ring {' '.join(spec.ring_vars)};")
    lines.append(f"seq {spec.seq_name};")
    head = "n" if spec.lead_power == 1 else f"n^{spec.lead_power}"
    terms = []
    for i, qi in enumerate(spec.q, start=1):
        if qi.is_zero():
            continue
        terms.append(f"({qi.text()})*{spec.seq_name}[n-{i}]")
    lines.append(f"rec: {head}*{spec.seq_name}[n] = {' + '.join(terms)};")
    return "\n".join(lines) + "\n"


def spec_hash(spec: RecurrenceSpec) -> str:
    import hashlib  # on first use: importing it costs every process milliseconds
    return hashlib.sha256(pretty_print(spec).encode()).hexdigest()


# -- odd form ----------------------------------------------------------------------------


class OddFormReport:
    """Outcome of the half-shift reindexing p_i(t) = q_i(t + i/2).

    applicable is True when every p_i is odd; offenders lists (i, even part)
    for the p_i that are not.  For recurrences with a higher leading power
    of n the analysis does not apply at all and reason says so.
    """

    __slots__ = ("applicable", "p", "offenders", "reason")

    def __init__(self, applicable, p, offenders, reason=""):
        self.applicable: bool = applicable
        self.p: tuple[UPoly, ...] | None = p
        self.offenders: tuple[tuple[int, UPoly], ...] = offenders
        self.reason: str = reason


def to_odd_form(spec: RecurrenceSpec) -> OddFormReport:
    if spec.lead_power != 1:
        return OddFormReport(
            applicable=False,
            p=None,
            offenders=(),
            reason=f"leading coefficient n^{spec.lead_power} is outside the odd-form regime",
        )
    ps = []
    offenders = []
    for i, q in enumerate(spec.q, start=1):
        p = to_upoly(q, "n").compose_affine(Fraction(i, 2))
        ps.append(p)
        if not p.is_odd():
            offenders.append((i, p.even_part()))
    if offenders:
        return OddFormReport(applicable=False, p=tuple(ps), offenders=tuple(offenders))
    return OddFormReport(applicable=True, p=tuple(ps), offenders=())


# -- running ------------------------------------------------------------------------------


class ParamSeq:
    """A finite prefix of a parametric sequence: one MultiPoly per index."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring: VarSet = ring
        self.terms: list[MultiPoly] = terms

    def __eq__(self, other) -> bool:
        return type(other) is ParamSeq and (self.ring, self.terms) == (other.ring, other.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, n: int) -> MultiPoly:
        return self.terms[n]


class SpecRunner:
    """seq[0..n] of one spec, each term computed once and kept: the one
    recurrence loop behind run_spec, gen_w and gen_u.

    seq[0] = 1; each later term divides by n^lead_power exactly (the division
    is by a scalar, so it always succeeds over rationals; integrality is the
    certifier's question, not the runner's).
    """

    def __init__(self, spec: RecurrenceSpec):
        self.ring = spec.ring
        self.lead_power = spec.lead_power
        self.q = [(i, qi) for i, qi in enumerate(spec.q, start=1) if not qi.is_zero()]
        self.terms = [MultiPoly.one(self.ring)]

    def upto(self, n: int) -> ParamSeq:
        """seq[0..n] over the fraction field of the ring."""
        if n < 0:
            raise ValueError("negative length")
        terms = self.terms
        for k in range(len(terms), n + 1):
            scale = Fraction(1, k**self.lead_power)
            rows = [(_q_at(qi, self.ring, k), terms[k - i], scale) for i, qi in self.q if i <= k]
            terms.extend(sum_of_products(self.ring, [rows]))
        return ParamSeq(self.ring, terms[: n + 1])


def _q_at(q: MultiPoly, ring: VarSet, k: int) -> MultiPoly:
    """A q_i of a spec (over ring + (n,)) at the integer n = k, over ring: one
    pass over the packed keys, whose lowest field is n's exponent."""
    width, _, keys, nums = q._packed
    mask = (1 << width) - 1
    acc: dict[int, int] = {}
    get = acc.get
    for key, c in zip(keys, nums):
        r = key >> width
        acc[r] = get(r, 0) + c * k ** (key & mask)
    return _from_packed(ring, acc, width, q.den, max(_degrees(width, acc), default=0))


def run_spec(spec: RecurrenceSpec, n: int) -> ParamSeq:
    """Generate seq[0..n] with a fresh SpecRunner."""
    return SpecRunner(spec).upto(n)
