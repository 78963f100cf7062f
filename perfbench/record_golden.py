"""Write golden.json: exit code and stdout sha256 of every fixed cli-corpus call.

    python3 perfbench/record_golden.py

The cli-corpus workload compares every run against this record, so run it
only at a commit whose outputs are trusted, and review the diff it makes.
"""

import hashlib
import json
import os
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    record = {}
    for argv in workloads.fixed_corpus():
        code, text = workloads.call_cli(argv, {})
        record[shlex.join(argv)] = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"recorded {len(record)} calls in {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
