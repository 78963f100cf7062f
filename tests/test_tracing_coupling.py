"""The benchmark's tracer wraps methods by name; each must still exist.

perfbench/tracing.py lists, per class, the methods it replaces with timing
wrappers, and reads each one from the class's own __dict__.  A method that
is deleted or moved to a base class would crash the traced benchmark pass,
so this test fails first.  It only reads perfbench/.
"""

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
