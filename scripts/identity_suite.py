#!/usr/bin/env python3
"""Run the full battery of named identity checks and report one line each.

Series identities (id3, r2, hg-c0, clausen, ode-g, ode-G, derivation) are
checked through the given truncation order; term identities (bin, inv, conv)
compare the first --n sequence terms.  Exit status is the number of failures.
"""

import argparse

from recint.cli import IDENTITIES, main as run_cli

TERM_IDENTITIES = {"bin", "inv", "conv"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=20, help="series truncation order")
    ap.add_argument("--n", type=int, default=12, help="term count for sequence identities")
    args = ap.parse_args()

    failures = 0
    for name in IDENTITIES:
        if name in TERM_IDENTITIES:
            argv = ["verify", name, "--n", str(args.n)]
        else:
            argv = ["verify", name, "--order", str(args.order)]
        failures += run_cli(argv) != 0
    print(f"\n{len(IDENTITIES) - failures}/{len(IDENTITIES)} identities verified")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
