#!/usr/bin/env python3
"""Sweep bracket tables for a suite of odd tuples and report defect growth.

For each tuple the full table up to the level bound is built with exact
arithmetic, every entry's denominator is checked to be a power of 2, and the
worst 2-adic defect per level is printed together with a fitted growth slope.
"""

import argparse

from recint.brackets import QTuple, certify_table
from recint.reclang import parse_poly_list

SUITE = ("t", "t^3", "t, t", "t, t^3", "t^3 - 3*t, t", "t^5, t^3, t")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("tuples", nargs="*", default=list(SUITE), metavar="TUPLE",
                    help="comma-separated odd polynomials in t (default: built-in suite)")
    ap.add_argument("--bound", type=int, default=8, help="level bound for d <= 2")
    ap.add_argument("--bound3", type=int, default=6, help="level bound for d >= 3")
    args = ap.parse_args()

    worst = 0
    for text in args.tuples:
        q = QTuple(parse_poly_list(text, ("t",)))
        bound = args.bound3 if q.d >= 3 else args.bound
        cert = certify_table(q, bound)
        status = "certified" if cert.certified else "NOT CERTIFIED"
        print(f"({cert.tuple_text})  d={q.d}  bound={bound}  entries={cert.entry_count}  {status}")
        print(f"  max v2 defect per level: {cert.level_max_defect}   slope ~ {cert.slope:.2f}")
        worst = max(worst, 0 if cert.certified else 1)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
