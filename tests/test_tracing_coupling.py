"""The benchmark's tracer and workloads use recint by name; each name must exist.

perfbench/tracing.py lists, per class, the methods it replaces with timing
wrappers, and reads each one from the class's own __dict__.  A method that
is deleted or moved to a base class would crash the traced benchmark pass,
so this test fails first.  perfbench/workloads.py calls module attributes
(sequences.gen_w, cli.main, ...); deleting one would fail benchmark
operations rather than tests.  Both tests only read perfbench/.
"""

import ast
import importlib
import importlib.util

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
