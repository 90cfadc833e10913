"""Spans and counts around the package's public functions, from outside.

``traced()`` wraps the layer functions for the duration of a
``with`` block and restores the originals on exit. A function imported by
name (``from .superlinalg import graded_exp``) has one binding per
importing module, so every binding that is the original object is
replaced; a function called through its own module's globals
(``jet_matmul`` inside ``superlinalg``) is caught the same way.

Each span has a name, a start, an end and a parent (the enclosing span).
Spans are folded into totals as they close instead of being stored,
because the Thom workload opens millions of them:

* ``calls``  every entry;
* ``s``      time inside the outermost span of that name (nested spans of
  the same name, such as a field evaluating its cutoff field, are not
  counted twice);
* ``self_s`` span duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from math import prod

import numpy as np

from chernforms import clifford_berezin, exterior, jets, quillen, relative, superlinalg

# metric prefix -> (owner, attribute) of the function wrapped in a span.
SPANS = {
    "superlinalg.graded_exp": (superlinalg, "graded_exp"),
    "superlinalg.jet_matmul": (superlinalg, "jet_matmul"),
    "superlinalg.star_product": (superlinalg, "star_product"),
    "superlinalg.volterra_exp": (superlinalg, "volterra_exp"),
    "superlinalg.graded_norm": (superlinalg, "graded_norm"),
    "relative.integrate_compact": (relative, "integrate_compact"),
    "relative.integrate_fiber": (relative, "integrate_fiber"),
    "exterior.FormField": (exterior.FormField, "__call__"),
    "exterior.wedge": (exterior, "wedge"),
    "exterior.differentiate_value": (exterior, "differentiate_value"),
    "clifford_berezin.algebra_mul": (clifford_berezin, "algebra_mul"),
    "clifford_berezin.wedge_exp": (clifford_berezin, "wedge_exp"),
    "clifford_berezin.berezin_T": (clifford_berezin, "berezin_T"),
}

COUNTS = {
    "superlinalg.graded_exp.matrices": "count",
    "superlinalg.graded_exp.peak_array_mb": "MB",
    "superlinalg.jet_matmul.gflop": "Gflop",
    "quillen.eta_rounds": "count",
    "relative.integrate_compact.nodes": "count",
    "relative.integrate_fiber.nodes": "count",
    "jets.Jet.mul.calls": "count",
}

# Field evaluations whose direct parent is an integrator are its nodes.
NODE_PARENTS = ("relative.integrate_compact", "relative.integrate_fiber")

def _jet_products(order: int, m: int) -> int:
    """Complex n x n products in one jet_matmul call, by jet order."""
    return (1, 1 + 2 * m, 1 + 2 * m + 3 * m * m)[order]


class Tracer:
    """Totals of the spans and counts recorded while tracing is on."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._open: dict[str, int] = {}
        # Open spans, innermost last: [name, seconds covered by children].
        self._stack: list[list] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, before=None):
        stack, opened = self._stack, self._open
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter
        is_field = name == "exterior.FormField"

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if is_field and stack and stack[-1][0] in NODE_PARENTS:
                self.count(stack[-1][0] + ".nodes")
            if before is not None:
                before(self, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            opened[name] = opened.get(name, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                opened[name] -= 1
                if not opened[name]:
                    total_s[name] = total_s.get(name, 0.0) + dur
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), zero where nothing ran."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.s"] = (self.total_s.get(name, 0.0), "s")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for key, unit in COUNTS.items():
            out[key] = (self.counts.get(key, 0), unit)
        return out


def _graded_exp_sizes(tracer: Tracer, args, kwargs) -> None:
    mat = args[0] if args else kwargs["mat"]
    batch = ()
    for c in mat.components.values():
        batch = np.broadcast_shapes(batch, c.shape[:-3])
    matrices = prod(batch)
    rep = mat.split.dim << mat.chart_dim
    tracer.count("superlinalg.graded_exp.matrices", matrices)
    mb = matrices * mat.slots * rep * rep * 16 / 1e6
    key = "superlinalg.graded_exp.peak_array_mb"
    tracer.counts[key] = max(tracer.counts.get(key, 0.0), mb)


def _jet_matmul_flops(tracer: Tracer, args, kwargs) -> None:
    a, b = args[0], args[1]
    m = args[2] if len(args) > 2 else kwargs["chart_dim"]
    slots = min(a.shape[-3], b.shape[-3])
    order = superlinalg.order_of_slots(slots, m)
    batch = prod(np.broadcast_shapes(a.shape[:-3], b.shape[:-3]))
    n = a.shape[-1]
    flops = 8 * n**3 * batch * _jet_products(order, m)
    tracer.count("superlinalg.jet_matmul.gflop", flops / 1e9)


BEFORE = {
    "superlinalg.graded_exp": _graded_exp_sizes,
    "superlinalg.jet_matmul": _jet_matmul_flops,
}


def _rebind(original, replacement, modules, undo) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, value))
                setattr(module, key, replacement)


@contextmanager
def traced():
    """Trace every binding of the layer functions inside the block."""
    tracer = Tracer()
    modules = [
        mod for name, mod in sys.modules.items()
        if name == "chernforms" or name.startswith("chernforms.")
    ]
    undo: list[tuple] = []
    try:
        for name, (owner, attr) in SPANS.items():
            original = getattr(owner, attr)
            wrapper = tracer.span(name, original, BEFORE.get(name))
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper, modules, undo)
        # Every gauss_legendre call quillen makes opens one eta quadrature
        # round (two more per b_forms point, at fixed orders).
        undo.append((quillen, "gauss_legendre", quillen.gauss_legendre))
        quillen.gauss_legendre = tracer.counter("quillen.eta_rounds", quillen.gauss_legendre)
        counted = tracer.counter("jets.Jet.mul.calls", jets.Jet.__mul__)
        for attr in ("__mul__", "__rmul__"):
            undo.append((jets.Jet, attr, getattr(jets.Jet, attr)))
            setattr(jets.Jet, attr, counted)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
