"""Every top-level function in src/recint is reached from the command line.

A fixed corpus runs under a sys.setprofile hook: every command on the six
corpus specs in all three formats, every verify identity in table and JSON,
the bracket survey tuples plus t^2 with and without --permissive, and the
three scripts at small sizes.  Each top-level `def` of src/recint/*.py,
private ones included, must be called at least once; a function that only
tests call is dead weight in the package, and its test-side uses belong in
the tests.  Methods are out of scope.

The probe runs in a fresh interpreter, so that calls made while the package
is imported, and per-process caches (cli._parser), count the same whatever
ran earlier in the pytest process.  Run this file directly, with src on
PYTHONPATH, to print the functions that the corpus does not reach.
"""

from __future__ import annotations

import ast
import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from conftest import CORPUS, REPO_ROOT, SPECS_DIR

SRC = REPO_ROOT / "src" / "recint"

#: The public API exported at the package root, called by users, not by the CLI.
ALLOWED = {"reclang.parse_poly"}

SURVEY = ("t", "t^3", "t, t", "t, t^3", "t^3 - 3*t, t", "t^5, t^3, t", "t^2")

SCRIPTS = (
    ("bracket_survey.py", ["--bound", "3", "--bound3", "2"]),
    ("denominator_scan.py", ["--n", "8"]),
    ("identity_suite.py", ["--order", "6", "--n", "6"]),
)


def top_level_defs() -> dict[tuple[str, int], str]:
    """(module, first line of its code object) -> "module.name" for every
    top-level def; a decorated function's code starts at its first decorator."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs[(f"recint.{path.stem}", first)] = f"{path.stem}.{node.name}"
    return defs


def corpus() -> list[list[str]]:
    from recint.cli import IDENTITIES

    runs = []
    for name in CORPUS:
        spec = str(SPECS_DIR / name)
        for command in ("gen", "certify", "expand"):
            for fmt in ("table", "json", "csv"):
                runs.append([command, "--spec", spec, "--n", "8", "--format", fmt])
    for identity in IDENTITIES:
        for fmt in ("table", "json"):
            runs.append(["verify", identity, "--n", "8", "--format", fmt])
    for text in SURVEY:
        for extra in ([], ["--permissive"]):
            runs.append(["brackets", text, "--n", "4", *extra])
    return runs


def probe() -> list[str]:
    """Run the corpus under a profile hook; the top-level functions of
    recint that it never called, as "module.name"."""
    called = set()

    def hook(frame, event, _arg):
        if event == "call":
            called.add((frame.f_globals.get("__name__"), frame.f_code.co_firstlineno))

    argv = sys.argv
    sys.setprofile(hook)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            from recint.cli import main

            for args in corpus():
                main(args)
            for script, args in SCRIPTS:
                path = REPO_ROOT / "scripts" / script
                sys.argv = [str(path), *args]
                try:
                    runpy.run_path(str(path), run_name="__main__")
                except SystemExit:
                    pass
    finally:
        sys.setprofile(None)
        sys.argv = argv
    return sorted(name for key, name in top_level_defs().items() if key not in called)


def test_every_top_level_function_is_reached():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    unreached = set(json.loads(proc.stdout)) - ALLOWED
    assert not unreached, "never called by the corpus: " + ", ".join(sorted(unreached))


if __name__ == "__main__":
    print(json.dumps(probe()))
