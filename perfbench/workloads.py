"""The benchmark's three workloads: fixed batches of calls into recint's public
API, each call followed by an exact check of its output.

An operation is one call plus its check.  It fails when the check does not
hold, when it raises, or when a CLI call exits with another code than the
one expected.  The seed changes values (the evaluation point of the multiply
check, the order of the CLI calls, the coefficients of six odd tuples) and
never the sizes.

Calls go through module attributes (``sequences.gen_w``, ``cli.main``) so
that the tracer, installed before this module runs anything, sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shlex
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from recint import cli, multipoly, sequences

GOLDEN_PATH = Path(__file__).with_name("golden.json")

SPECS = ("apery", "odd-cubic", "odd-deep", "odd-mixed", "useq", "wseq")

#: The odd tuples of scripts/bracket_survey.py, at its level bounds.
SURVEY = ("t", "t^3", "t, t", "t, t^3", "t^3 - 3*t, t", "t^5, t^3, t")

#: Degrees of the seeded odd tuples, one shape per survey tuple.
SEEDED_SHAPES = ((1,), (3,), (1, 1), (1, 3), (3, 1), (5, 3, 1))


def survey_bound(d: int) -> int:
    return 8 if d <= 2 else 6


@dataclass
class Op:
    """One operation: run(notes) returns True when the output checks out.

    notes collects figures an operation reports besides pass/fail, such as
    the time of one pinned call or the bytes a CLI call wrote.
    """

    name: str
    run: Callable[[dict], bool]


# -- crosscheck ------------------------------------------------------------------------


def _seeded_point(rng: random.Random) -> dict[str, Fraction]:
    def value():
        return Fraction(rng.choice((-1, 1)) * rng.randint(2, 99), rng.randint(2, 99))

    return {"b": value(), "c": value()}


def _w_at(n: int, b: Fraction, c: Fraction) -> Fraction:
    """w[n] at a rational point, by the scalar recurrence (no MultiPoly)."""
    w = [Fraction(1)]
    for k in range(1, n + 1):
        acc = (b - k * (k - 1)) * w[k - 1]
        if k >= 3:
            acc += c * w[k - 3]
        w.append(acc / k)
    return w[n]


def crosscheck_ops(seed: int) -> list[Op]:
    point = _seeded_point(random.Random(seed))

    def gen_w(notes):
        w = sequences.gen_w(80)
        return len(w) == 81 and w[80].eval(point) == _w_at(80, point["b"], point["c"])

    def gen_u(notes):
        u = sequences.gen_u(60)
        return len(u) == 61 and all(
            multipoly.denom_profile(term).lcm_denominator == 1 for term in u.terms
        )

    def u_conv(notes):
        return sequences.u_conv(20, sequences.gen_w(40)).terms == sequences.gen_u(20).terms

    def u_bin(notes):
        return sequences.u_bin(40, sequences.gen_w(40)).terms == sequences.gen_u(40).terms

    def w_inv(notes):
        w = sequences.gen_w(25)
        scaled = [term * math.factorial(k) for k, term in enumerate(w.terms)]
        return sequences.w_inv(25, sequences.gen_u(25)).terms == scaled

    def mul_300x314(notes):
        w = sequences.gen_w(41)
        left = w[40] * math.factorial(40)
        right = w[41] * math.factorial(41)
        start = time.perf_counter()
        product = left * right
        notes["multipoly.mul_300x314_s"] = time.perf_counter() - start
        return (
            (len(left.terms), len(right.terms)) == (300, 314)
            and product.eval(point) == left.eval(point) * right.eval(point)
        )

    return [Op(f.__name__, f) for f in (gen_w, gen_u, u_conv, u_bin, w_inv, mul_300x314)]


# -- CLI calls -----------------------------------------------------------------------------


def call_cli(argv: list[str], notes: dict) -> tuple[int, str]:
    """recint.cli.main(argv) with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    notes["cli.stdout_bytes"] = notes.get("cli.stdout_bytes", 0) + len(text.encode())
    return code, text


def golden_op(argv: list[str], expected: dict | None) -> Op:
    """A CLI call whose exit code and stdout sha256 must match the record;
    a call with no record fails."""

    def run(notes):
        code, text = call_cli(argv, notes)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return expected is not None and (code, digest) == (expected["exit"], expected["sha256"])

    return Op(shlex.join(argv), run)


# -- identities ----------------------------------------------------------------------------

#: (identity, order): the acceptance orders, and derivation at the
#: scripts/identity_suite.py order.
IDENTITY_ORDERS = (
    ("id3", 40),
    ("r2", 40),
    ("hg-c0", 40),
    ("ode-g", 40),
    ("ode-G", 40),
    ("clausen", 30),
    ("derivation", 20),
)


def identities_ops(seed: int) -> list[Op]:
    def verify(name, order):
        argv = ["verify", name, "--order", str(order)]

        def run(notes):
            code, text = call_cli(argv, notes)
            return code == 0 and text.startswith(f"{name}: PASS")

        return Op(shlex.join(argv), run)

    return [verify(name, order) for name, order in IDENTITY_ORDERS]


# -- cli-corpus ----------------------------------------------------------------------------


def fixed_corpus() -> list[list[str]]:
    """The CLI calls whose outputs are recorded in golden.json."""
    calls = []
    for command in ("gen", "certify", "expand"):
        calls += [[command, "--spec", f"specs/{s}.spec"] for s in SPECS]
    calls.append(["expand", "--spec", "specs/useq.spec", "--n", "8"])
    # the README's example commands, verbatim
    calls += [
        ["gen", "--spec", "specs/useq.spec", "--n", "8"],
        ["certify", "--spec", "specs/wseq.spec", "--n", "20"],
        ["verify", "id3", "--order", "40"],
        ["brackets", "t^3 - 3*t, t", "--n", "8"],
        ["expand", "--spec", "specs/useq.spec", "--n", "4"],
    ]
    calls += [["gen", "--spec", "specs/useq.spec", "--n", "40", "--format", f] for f in ("csv", "json")]
    calls += [["verify", name, "--n", "12"] for name in ("bin", "inv", "conv")]
    for text in SURVEY:
        d = text.count(",") + 1
        calls.append(["brackets", text, "--n", str(survey_bound(d)), "--format", "json"])
    return calls


def odd_poly_text(degree: int, rng: random.Random) -> str:
    """An odd polynomial in t of the given odd degree; every odd power up to
    it has an odd coefficient of absolute value at most 9."""
    out = ""
    for k in range(degree, 0, -2):
        coef = rng.choice((1, 3, 5, 7, 9)) * rng.choice((-1, 1))
        mono = "t" if k == 1 else f"t^{k}"
        body = mono if abs(coef) == 1 else f"{abs(coef)}*{mono}"
        if not out:
            out = body if coef > 0 else f"-{body}"
        else:
            out += f" {'+' if coef > 0 else '-'} {body}"
    return out


def seeded_tuples(seed: int) -> list[str]:
    rng = random.Random(f"tuples-{seed}")
    return [", ".join(odd_poly_text(deg, rng) for deg in shape) for shape in SEEDED_SHAPES]


def certified_op(tuple_text: str) -> Op:
    """A seeded odd tuple: the table must certify and the call exit 0."""
    d = tuple_text.count(",") + 1
    # after "--", so that a tuple such as "-3*t" is not read as an option
    argv = ["brackets", "--n", str(survey_bound(d)), "--format", "json", "--", tuple_text]

    def run(notes):
        code, text = call_cli(argv, notes)
        return code == 0 and json.loads(text)["summary"]["certified"] is True

    return Op(shlex.join(argv), run)


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_corpus_ops(seed: int, golden: dict[str, dict] | None = None) -> list[Op]:
    golden = load_golden() if golden is None else golden
    ops = [golden_op(argv, golden.get(shlex.join(argv))) for argv in fixed_corpus()]
    ops += [certified_op(t) for t in seeded_tuples(seed)]
    random.Random(f"order-{seed}").shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "crosscheck": crosscheck_ops,
    "identities": identities_ops,
    "cli-corpus": cli_corpus_ops,
}


def run_ops(ops: list[Op], notes: dict, tracer=None) -> list[dict]:
    """Run ops in order, one after another; one record per op.

    A raising op counts as failed and the batch goes on.  With a tracer, each
    record also holds the op's inclusive time per span name.
    """
    records = []
    for op in ops:
        before = tracer.snapshot() if tracer is not None else None
        start = time.perf_counter()
        try:
            ok = bool(op.run(notes))
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            ok = False
            error = f"{type(exc).__name__}: {exc}"
        record = {"op": op.name, "ok": ok, "s": time.perf_counter() - start}
        if error is not None:
            record["error"] = error[:300]
        if tracer is not None:
            after = tracer.snapshot()
            record["spans"] = {
                name: s[1] - before.get(name, (0, 0.0))[1]
                for name, s in after.items()
                if s[0] != before.get(name, (0,))[0]
            }
        records.append(record)
    return records
