"""Span tracing around recint's public API, installed from outside the package.

install() replaces the public functions of every traced module, and the
arithmetic and table methods of MultiPoly, UPoly, TruncSeries, OdeOperator
and BracketTable, with wrappers that open a span on entry and close it on
exit.  A span has a name, a start, an end and a parent (the span open when
it started).  Closing a span adds its duration to its name's totals and to
its parent's child time, so a span's self time is its duration minus the
time its child spans cover.  Spans are folded into per-name totals as they
close, which keeps memory flat on runs with millions of calls.

Exact counts (multiply term pairs, coefficient bit sizes, text bytes,
bracket entries) are taken at the same boundaries.  The work of counting
runs after the span closes and is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

#: Traced layers, in dependency order; a span's name starts with its layer.
LAYERS = ("scalars", "multipoly", "sequences", "series", "brackets", "reclang", "certify", "cli")

#: Counters kept besides the per-span totals.
COUNTERS = (
    "multipoly.mul.term_pairs",
    "multipoly.max_coef_bits",
    "multipoly.text.bytes",
    "brackets.entries",
)


class Tracer:
    """Per-span-name totals: name -> [calls, inclusive seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[list[float]] = []  # child seconds of each open span

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span called name.

        before(args) runs on entry and its value is passed to
        after(state, args, result), which runs when the call returns.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        opened = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            child = [0.0]
            opened.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child[0]
                if opened:
                    opened[-1][0] += dur
            if after is not None:
                after(state, args, result)
                if opened:
                    # counting is tracer work: keep it out of the parent's self time
                    opened[-1][0] += clock() - end
            return result

        return traced

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {name: tuple(s) for name, s in self.stats.items()}

    # -- counters ---------------------------------------------------------------

    def _count_mul(self, _state, args, result):
        left, right = args[0], args[1]
        pairs = len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)
        self.counters["multipoly.mul.term_pairs"] += pairs
        if result is NotImplemented:
            return
        bits = self.counters["multipoly.max_coef_bits"]
        for coef in result.terms.values():
            b = max(coef.numerator.bit_length(), coef.denominator.bit_length())
            if b > bits:
                bits = b
        self.counters["multipoly.max_coef_bits"] = bits

    def _count_text(self, _state, _args, result):
        self.counters["multipoly.text.bytes"] += len(result.encode())

    @staticmethod
    def _table_size(args):
        return len(args[0].entries)

    def _count_entries(self, before, args, _result):
        self.counters["brackets.entries"] += len(args[0].entries) - before


# "module.Class" -> (attribute, span name) pairs
_METHODS = {
    "multipoly.MultiPoly": (
        ("__add__", "multipoly.add"),
        ("__radd__", "multipoly.add"),
        ("__sub__", "multipoly.sub"),
        ("__rsub__", "multipoly.sub"),
        ("__neg__", "multipoly.neg"),
        ("__mul__", "multipoly.mul"),
        ("__rmul__", "multipoly.mul"),
        ("__truediv__", "multipoly.truediv"),
        ("__pow__", "multipoly.pow"),
        ("eval", "multipoly.eval"),
        ("subst_value", "multipoly.subst_value"),
        ("cast", "multipoly.cast"),
        ("text", "multipoly.text"),
    ),
    "multipoly.UPoly": (
        ("__add__", "multipoly.upoly_add"),
        ("__sub__", "multipoly.upoly_sub"),
        ("__neg__", "multipoly.upoly_neg"),
        ("scale", "multipoly.upoly_scale"),
        ("compose_affine", "multipoly.upoly_compose_affine"),
        ("eval_scalar", "multipoly.upoly_eval_scalar"),
        ("eval_poly", "multipoly.upoly_eval_poly"),
        ("to_multipoly", "multipoly.upoly_to_multipoly"),
        ("text", "multipoly.upoly_text"),
    ),
    "series.TruncSeries": (
        ("__add__", "series.truncseries_add"),
        ("__sub__", "series.truncseries_sub"),
        ("__neg__", "series.truncseries_neg"),
        ("__mul__", "series.truncseries_mul"),
        ("scale", "series.truncseries_scale"),
        ("shift", "series.truncseries_shift"),
        ("reflect", "series.truncseries_reflect"),
        ("diff", "series.truncseries_diff"),
        ("theta", "series.truncseries_theta"),
        ("truncate", "series.truncseries_truncate"),
    ),
    "series.OdeOperator": (("apply", "series.ode_apply"),),
    "brackets.BracketTable": (
        ("entry", "brackets.entry"),
        ("extend_to_level", "brackets.extend_to_level"),
        ("export", "brackets.export"),
    ),
}


def install(package) -> Tracer:
    """Trace every layer of an imported recint package; returns the tracer.

    Module globals that name a wrapped function, including names bound by
    `from .x import y`, are rebound to the wrapper, so calls between modules
    are traced too.
    """
    tracer = Tracer()
    # importlib, not getattr: the package rebinds `recint.certify` to the function
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (
                isinstance(obj, types.FunctionType)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)

    for path, methods in _METHODS.items():
        layer, cls_name = path.split(".")
        cls = getattr(modules[layer], cls_name)
        for attr, span in methods:
            before = after = None
            if span == "multipoly.mul":
                after = tracer._count_mul
            elif span == "multipoly.text":
                after = tracer._count_text
            elif layer == "brackets" and attr != "export":
                before, after = tracer._table_size, tracer._count_entries
            setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr], before, after))

    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                setattr(mod, name, replacement)
    return tracer
