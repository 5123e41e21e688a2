"""Spans around the calls into the ldqfi modules, recorded from outside.

The traced run replaces every public function of the six library modules
(and ``CoherentFamily.checked_displacement``) with a timing wrapper, in every
``ldqfi`` module namespace that binds it, so a call is caught whichever
module it is made from (``branches_at`` is bound in ``family``, ``qfi``,
``zoo``, ``cli`` and the package itself).  The library code is untouched;
``uninstall`` puts the original objects back.

Each span records (id, parent id, pass id, name, start, end).  Spans are kept
in memory and aggregated per pass; a span's self time is its duration minus
the part of its interval covered by its child spans.  The sweep thread pool
runs points on worker threads: a span opened on a worker thread with no open
span of its own takes the innermost open span of the thread that created the
tracer as parent, so the pool's work counts as a child of ``cli.run_sweep``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "zoo", "family", "ldops", "qfi", "linalg")

# (layer, class, method) of the methods wrapped besides the public
# module-level functions.
METHODS = (("zoo", "CoherentFamily", "checked_displacement"),)


class Tracer:
    """In-memory span recorder with wrappers for the ldqfi modules."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.clusters = 0
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        top = self._owner_stack[-1:]  # slice: atomic read of another thread's list
        return top[0] if top else 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name; the result is returned unchanged."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.pass_id, name, start, end))

    def wrap(self, name: str, fn):
        if name == "family.spectral_branches":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                self.clusters += out.n_clusters
                return out

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ldqfi" or n.startswith("ldqfi.")]
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ldqfi.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"ldqfi.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def take(self) -> tuple[list[tuple[int, int, int, str, float, float]], int]:
        """Hand over the recorded spans and cluster count and start afresh."""
        spans, clusters = self.spans, self.clusters
        self.spans, self.clusters = [], 0
        return spans, clusters


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _pid, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _parent, _pid, name, start, end in spans:
        dur = end - start
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _covered(children.get(sid, []), start, end)
    return dict(out)
