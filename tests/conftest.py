"""Shared test helpers.

Exposes the repo paths, an in-process CLI runner, a linear-form builder,
the odd monomial atoms t^(2j+1), the term-pair convolution reference, the
closed form of u at c = 0, Apery's sequence with its closed form, the
closed form of the all-t brackets, and the acceptance-line collector:
acceptance tests append one PASS/FAIL line per criterion and the
terminal-summary hook prints them as a block at the end of the run.
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


def q_monomial(halfdeg: int):
    """The odd atom t^(2*halfdeg + 1) as a UPoly with integer coefficients."""
    from recint.brackets import SCALARS
    from recint.multipoly import UPoly

    if halfdeg < 0:
        raise ValueError("negative half-degree")
    return UPoly(SCALARS, [0] * (2 * halfdeg + 1) + [1])


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
