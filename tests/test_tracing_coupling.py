"""The benchmark's tracer and workloads use recint by name; each name must exist.

perfbench/tracing.py lists, per class, the methods it replaces with timing
wrappers, and reads each one from the class's own __dict__.  A method that
is deleted or moved to a base class would crash the traced benchmark pass,
so this test fails first.  perfbench/workloads.py calls module attributes
(sequences.gen_w, cli.main, ...); deleting one would fail benchmark
operations rather than tests.  The attribution test installs the tracer
in a fresh interpreter and checks that the series layer reaches the product
kernel through its public, traced name.  The tests only read perfbench/.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


def _traced_methods():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(cls, attr) for cls, methods in tracing._METHODS.items() for attr, _ in methods]


@pytest.mark.parametrize("path, attr", _traced_methods())
def test_traced_method_is_defined_on_its_class(path, attr):
    layer, cls_name = path.split(".")
    cls = getattr(importlib.import_module(f"recint.{layer}"), cls_name)
    assert attr in cls.__dict__


def _workload_attributes():
    tree = ast.parse((REPO_ROOT / "perfbench" / "workloads.py").read_text())
    names = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("sequences", "multipoly", "cli")
    }
    return sorted(names)


@pytest.mark.parametrize("module, attr", _workload_attributes())
def test_workload_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"recint.{module}"), attr)


ATTRIBUTION = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import recint
import tracing
from recint import series

f = series.base_series(8)
tracer = tracing.install(recint)
assert all(r.passed for r in series.derivation_identity_check(f, (0, 1, 2)))
print(tracer.stats.get("multipoly.sum_of_products", [0])[0])
"""


def test_series_products_are_traced_as_the_kernel():
    # f is built before the tracer is installed, so the only kernel calls
    # are the check's: one per degree 0..8, each a multipoly.sum_of_products span
    proc = subprocess.run(
        [sys.executable, "-c", ATTRIBUTION, str(REPO_ROOT)], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["9"]
