"""Span recording around calls into freeboson's layers, and self time.

The tracer wraps named functions of the package from outside: each wrapper
records one span (name, start, end, parent) per call in parallel arrays and
is installed in every namespace where callers look the function up: module
globals (``hilbert.expect_combo``, ``fock.expect_combo`` and the package
re-exports), class dictionaries (``Exact.__mul__`` and ``Exact.__rmul__`` are
one function) and module-level dispatch tables (``verify.SUITES``).  Nothing
inside the package is edited, so the spans sit at layer boundaries as seen by
callers.

A span's self time is its duration minus the part of its interval that its
direct children cover; the layer's self time is the sum over its spans.
"""
from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Iterable, Optional


class SpanLog:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # open spans; the sentinel -1 is the parent of top-level spans
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; returns its index (used by fixtures)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.name) - 1

    def __len__(self) -> int:
        return len(self.name)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def write(self, path) -> None:
        """Write the spans as tab-separated text: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n"
                )


def layer_totals(log: SpanLog, scale=None) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and self time.

    Children are visited in start order, so a running frontier per parent
    turns their intervals into a union: overlapping children are not counted
    twice, and the part of a child outside its parent is not subtracted.
    ``scale``, when given, holds one factor per span for its times.
    """
    n = len(log)
    start, end, parent = log.start, log.end, log.parent
    covered = [0.0] * n
    frontier = [float("-inf")] * n
    order = sorted(range(n), key=start.__getitem__)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > frontier[p]:
            frontier[p] = hi
    totals: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in log.names
    }
    for i in range(n):
        row = totals[log.names[log.name[i]]]
        k = 1.0 if scale is None else scale[i]
        duration = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += duration * k
        row["self_s"] += (duration - covered[i]) * k
    return totals


def _traced(fn: Callable, nid: int, log: SpanLog, observe: Optional[Callable]) -> Callable:
    names, starts, ends, parents, stack = log.name, log.start, log.end, log.parent, log.stack
    clock = time.perf_counter

    def traced(*args, **kwargs):
        idx = len(names)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if observe is not None:
            observe(log, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


class Tracer:
    """Installs span wrappers into a package and removes them again."""

    def __init__(self, log: SpanLog, package: str):
        self.log = log
        self.package = package
        self._undo: list[tuple[object, str, Callable]] = []
        self.missing: list[str] = []

    def _holders(self) -> Iterable[object]:
        """Every module, class and module-level dict of the package: the
        places where callers look a function up."""
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, dict):
                    yield value
                elif isinstance(value, type) and value.__module__.startswith(prefix):
                    yield value

    def wrap(self, target: str, name: str, observe: Optional[Callable] = None) -> int:
        """Wrap ``module:attr`` or ``module:Class.attr``; returns places patched.

        A target that no longer exists is recorded in ``missing`` and left
        alone, so its layer reports zero calls instead of stopping the run.
        """
        modname, _, path = target.partition(":")
        try:
            obj = sys.modules[modname]
            for part in path.split("."):
                obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
        except (KeyError, AttributeError):
            self.missing.append(target)
            return 0
        return self.wrap_object(obj, name, observe, target)

    def wrap_object(
        self, original: Callable, name: str, observe: Optional[Callable] = None, label: str = ""
    ) -> int:
        """Replace every reference to ``original`` in the package by a wrapper."""
        wrapper = _traced(original, self.log.name_id(name), self.log, observe)
        patched = 0
        seen: set[int] = set()
        for holder in self._holders():
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            mapping = holder if isinstance(holder, dict) else vars(holder)
            for key, value in list(mapping.items()):
                if value is not original:
                    continue
                if isinstance(holder, dict):
                    holder[key] = wrapper
                else:
                    setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))
                patched += 1
        if not patched:
            self.missing.append(label or name)
        return patched

    def remove(self) -> None:
        """Put every original function back."""
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()
