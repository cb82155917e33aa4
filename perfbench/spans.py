"""Spans and counts recorded from outside mgtlab, at its public functions.

A Tracer wraps every public function and public method of each mgtlab
module.  Because modules bind imported names at import time
(`from .cosine import conv_sin`), a function is replaced in every mgtlab
module that holds it, and in the benchmark modules named by the caller,
not only where it is defined.  Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

# Public entry points that build an S x N cos/sin phase table: the phase,
# its cosine and its sine, three float64 arrays of len(times) x len(omega).
PHASE_BUILDERS = {
    "cosine.conv_sin": ("times", "omega"),
    "cosine.conv_cos": ("times", "omega"),
    "reduction.KernelFamily.evaluate": ("t", None),
    "reduction.KernelFamily.derivative": ("t", None),
}
PHASE_ARRAYS = 3


class Tracer:
    """Span recorder with a parent stack; one per traced run."""

    def __init__(self, holders=()):
        self.holders = list(holders)  # non-mgtlab modules that import from it
        # each span: [name, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # item -> name -> n
        self.item = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.item][name] += n

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        phase = PHASE_BUILDERS.get(name)
        signature = inspect.signature(fn) if phase else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if phase:
                self._count_phase(signature.bind(*args, **kwargs).arguments, phase)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _count_phase(self, bound: dict, phase: tuple) -> None:
        times_arg, omega_arg = phase
        steps = len(bound[times_arg])
        modes = len(bound[omega_arg] if omega_arg else bound["self"].omega)
        self.count("cosine.phase_builds")
        self.count("cosine.phase_bytes_computed", PHASE_ARRAYS * 8 * steps * modes)

    def counted(self, name: str, fn):
        """Wrap a callable so that each call adds one to a count, no span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[self.item][name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace the public functions and methods of every mgtlab module."""
        pkg = importlib.import_module("mgtlab")
        modules = [importlib.import_module(f"mgtlab.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        holders = [pkg, *modules, *self.holders]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(f"{short}.{attr}", obj)
                    for holder in holders:
                        if vars(holder).get(attr) is obj:
                            self._patch(holder, attr, obj, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, fn,
                                        self.wrap(f"{short}.{attr}.{meth}", fn))

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then one
        array per span; a span's id is its line number after the header."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: list[list]) -> dict:
    """Per item and span name: calls, busy_s (inclusive) and self_s.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                                         "self_s": 0.0}))
    for i, (name, start, end, _parent, item) in enumerate(spans):
        covered = union_length([(max(s, start), min(e, end))
                                for s, e in children.get(i, ()) if e > start and s < end])
        agg = out[item][name]
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += (end - start) - covered
    return out
