"""Command-line interface.

Subcommands: gen, verify, brackets, certify, expand.  All output is
deterministic (fixed key order, sorted records) so runs are byte-for-byte
reproducible.  Exit codes: 0 success / identity verified, 1 mathematical
mismatch or violation found, 2 usage or parse error, 3 I/O error, 4 internal
error (an unexpected exception, reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import brackets as br
from . import series
from .certify import certify
from .multipoly import MAX_ORDER, MultiPoly, _decimal, json_text
from .reclang import (
    SpecSyntaxError,
    parse_poly_list,
    parse_spec,
    run_spec,
    to_odd_form,
)
from .scalars import factorial
from .sequences import gen_u, gen_w, seq_records, u_bin, u_conv, w_inv

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="recint",
        description="Exact integrality toolkit for P-recursive sequences.",
    )
    top.add_argument("-v", "--verbose", action="count", default=0)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_spec: bool):
        if needs_spec:
            p.add_argument("--spec", required=True, help="path to a recurrence spec file")
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("gen", help="generate sequence terms from a spec")
    common(p, needs_spec=True)
    p.add_argument("--n", type=int, default=40)

    p = sub.add_parser("verify", help="check one named identity exactly")
    p.add_argument("identity", choices=IDENTITIES)
    p.add_argument("--n", type=int, default=None, help="sequence length for term checks")
    p.add_argument("--order", type=int, default=None, help="truncation order for series checks")
    common(p, needs_spec=False)

    p = sub.add_parser("brackets", help="build and certify a bracket table")
    p.add_argument("tuple", help="comma-separated odd polynomials in t, e.g. 't^3-3*t, t'")
    common(p, needs_spec=False)
    p.add_argument("--n", type=int, default=6, help="level bound |m| <= n")
    p.add_argument("--permissive", action="store_true", help="allow non-odd polynomials")

    p = sub.add_parser("certify", help="integrality report for a spec")
    common(p, needs_spec=True)
    p.add_argument("--n", type=int, default=40)

    p = sub.add_parser("expand", help="bracket expansion of one term vs the recurrence")
    common(p, needs_spec=True)
    p.add_argument("--n", type=int, default=4)

    return top


def _emit(text: str, out_path: str | None) -> int:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"recint: cannot write {out_path}: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _read_spec(args):
    """The prologue of gen, certify and expand: the spec file, then the sign
    of --n.  Returns (spec, exit_code); spec is None when exit_code != EXIT_OK."""
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"recint: cannot read {args.spec}: {e}", file=sys.stderr)
        return None, EXIT_IO
    except UnicodeDecodeError as e:
        print(f"recint: {args.spec}: not UTF-8 text: byte {e.start} cannot be decoded", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        spec = parse_spec(text)
    except SpecSyntaxError as e:
        print(f"recint: {args.spec}: {e}", file=sys.stderr)
        return None, EXIT_USAGE
    if args.n < 0:
        print("recint: --n must be nonnegative", file=sys.stderr)
        return None, EXIT_USAGE
    return spec, EXIT_OK


def _format_records(records: list[dict], fmt: str, summary: dict | None = None) -> str:
    if fmt == "json":
        doc: dict = {"records": records}
        if summary is not None:
            doc["summary"] = summary
        return json_text(doc)
    if fmt == "csv":
        buf = io.StringIO()
        if records:
            writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
            writer.writeheader()
            for rec in records:
                writer.writerow({k: _cell(v) for k, v in rec.items()})
        return buf.getvalue()
    lines = []
    if records:
        keys = list(records[0].keys())
        rows = [[_cell(rec[k]) for k in keys] for rec in records]
        widths = [max(len(k), *(len(r[i]) for r in rows)) for i, k in enumerate(keys)]
        lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip())
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    if summary is not None:
        lines.append("")
        for k, v in summary.items():
            lines.append(f"{k}: {_cell(v)}")
    return "\n".join(lines)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    if isinstance(v, int):
        return _decimal(v)
    return str(v)


def _too_large(args) -> bool:
    """Report and refuse an --n or --order above MAX_ORDER."""
    for flag in ("n", "order"):
        value = getattr(args, flag, None)
        if value is not None and value > MAX_ORDER:
            print(f"recint: --{flag} {value} exceeds the limit {MAX_ORDER}", file=sys.stderr)
            return True
    return False


def cmd_gen(args) -> int:
    spec, code = _read_spec(args)
    if code != EXIT_OK:
        return code
    seq = run_spec(spec, args.n)
    return _emit(_format_records(seq_records(seq), args.format), args.out)


def _seq_report(name: str, n: int, lhs, rhs) -> series.IdentityReport:
    for k, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return series.IdentityReport(name, n, False, (k, a.text(), b.text()))
    return series.IdentityReport(name, n, True, None)


def _derivation(n: int) -> series.IdentityReport:
    reports = series.derivation_identity_check(series.base_series(max(n, 4)), (1, 0, 2))
    report = next((r for r in reports if not r.passed), reports[0])
    report.note = "k in {0, 1, 2} on the base series"
    return report


def _inv(n: int) -> series.IdentityReport:
    scaled = [term * factorial(k) for k, term in enumerate(gen_w(n).terms)]
    return _seq_report("inv", n, scaled, w_inv(n, gen_u(n)).terms)


# verify's identities, name -> check(order).  The checks look up module
# functions when they run, so a rebound module attribute reaches them.
IDENTITIES = {
    "id3": lambda n: series.verify_id3(n),
    "r2": lambda n: series.verify_r2(n),
    "hg-c0": lambda n: series.verify_hg_c0(n),
    "clausen": lambda n: series.verify_clausen(n),
    "bin": lambda n: _seq_report("bin", n, gen_u(n).terms, u_bin(n, gen_w(n)).terms),
    "inv": _inv,
    "conv": lambda n: _seq_report("conv", n, gen_u(n).terms, u_conv(n, gen_w(2 * n)).terms),
    "ode-g": lambda n: series.verify_ode_g(max(n, 2)),
    "ode-G": lambda n: series.verify_ode_product(max(n, 3)),
    "derivation": _derivation,
}


def cmd_verify(args) -> int:
    name = args.identity
    if args.n is not None and args.order is not None:
        print("recint: verify takes --n or --order, not both", file=sys.stderr)
        return EXIT_USAGE
    n = args.n if args.n is not None else (args.order if args.order is not None else 40)
    if n < 0:
        print("recint: order must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    report = IDENTITIES[name](n)

    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2)
    else:
        status = "PASS" if report.passed else "FAIL"
        text = f"{name}: {status} (order {report.order})"
        if report.note:
            text += f" [{report.note}]"
        if report.first_mismatch:
            k, lhs, rhs = report.first_mismatch
            text += f"\n  first mismatch at degree {k}:\n    lhs = {lhs}\n    rhs = {rhs}"
    code = _emit(text, args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_brackets(args) -> int:
    try:
        polys = parse_poly_list(args.tuple, ("t",))
    except SpecSyntaxError as e:
        print(f"recint: tuple: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        q = br.QTuple(polys, permissive=args.permissive)
    except ValueError as e:
        print(f"recint: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.n < 0:
        print("recint: --n must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    table = br.BracketTable(q)
    try:
        cert = br.certify_table(q, args.n, table=table)
    except br.Theorem3ViolationError as e:
        print(f"recint: CRITICAL: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    code = _emit(_format_records(table.export(), args.format, summary=cert.to_dict()), args.out)
    if code != EXIT_OK:
        return code
    violated = (not cert.all_pow2) or cert.inexact_at is not None
    return EXIT_MISMATCH if violated else EXIT_OK


def cmd_certify(args) -> int:
    spec, code = _read_spec(args)
    if code != EXIT_OK:
        return code
    report = certify(spec, args.n)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = _format_records(report.per_term, "csv")
    else:
        text = "\n".join(report.table_lines())
    code = _emit(text, args.out)
    if code != EXIT_OK:
        return code
    return EXIT_MISMATCH if report.critical else EXIT_OK


def cmd_expand(args) -> int:
    spec, code = _read_spec(args)
    if code != EXIT_OK:
        return code
    odd = to_odd_form(spec)
    if not odd.applicable:
        detail = odd.reason or "; ".join(
            f"p_{i} has even part {part.text()}" for i, part in odd.offenders
        )
        print(f"recint: odd form not applicable: {detail}", file=sys.stderr)
        return EXIT_USAGE
    total = MultiPoly.zero(spec.ring)
    records = []
    for multiset, v, contribution in br.expand_terms(odd.p, spec.ring, args.n):
        bracket = _decimal(v.numerator)  # str() refuses over 4,300 digits by default
        if v.denominator != 1:
            bracket += f"/{_decimal(v.denominator)}"
        records.append(
            {
                "multiset": [list(entry) for entry in multiset],
                "bracket": bracket,
                "contribution": contribution.text(),
            }
        )
        total = total + contribution
    direct = run_spec(spec, args.n)[args.n]
    match = total == direct
    summary = {
        "n": args.n,
        "expansion": total.text(),
        "direct": direct.text(),
        "match": match,
    }
    code = _emit(_format_records(records, args.format, summary=summary), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if match else EXIT_MISMATCH


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process.  The parser holds no handler: main
    looks up cmd_<command> when the command runs, so a rebound cmd_* is the
    one called."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    if _too_large(args):
        return EXIT_USAGE
    try:
        return globals()[f"cmd_{args.command}"](args)
    except Exception as e:  # a fault in recint itself, not in the input
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"recint: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
