"""In-memory span tracer that instruments jspec from the outside.

Spans are recorded by wrappers that the benchmark installs around the
public functions and methods of each jspec module; nothing inside the
package is edited. Each span keeps (id, parent, name, key, trace id,
thread, start, end). Every thread has its own span stack, and a worker
started by ``suites._pmap`` inherits the pmap span as its parent, so
spans from worker threads nest under the campaign that launched them.

A layer's self time is a span's duration minus the part of that interval
its children cover; children running on two threads may overlap, so the
covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

# span tuple layout
SID, PARENT, NAME, KEY, TRACE, THREAD, T0, T1 = range(8)


@dataclass(frozen=True)
class Probe:
    """One instrumented callable: where it lives, the span name it
    records, and an optional observer ``fn(tracer, args, kwargs, result)``
    that returns the span's grouping key and may bump counters."""

    module: str
    attr: str
    name: str
    observe: Callable | None = None
    owner: str | None = None  # class name when attr is a method


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(float)
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._keys: dict = {}
        self._lock = threading.Lock()

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, name: str, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._stack()
            parent = st[-1] if st else getattr(tracer._local, "base", 0)
            sid = next(tracer._ids)
            st.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
            key = observe(tracer, args, kwargs, result) if observe else None
            tracer.spans.append(
                (sid, parent, name, key, tracer.trace_id, threading.get_ident(), t0, t1)
            )
            return result

        return traced

    def wrap_pmap(self, pmap):
        """Trace ``_pmap(fn, items)``; its worker calls become children of it."""
        tracer = self

        def run(fn, items):
            parent = tracer._stack()[-1]  # this pmap span

            def inner(x):
                loc = tracer._local
                prev = getattr(loc, "base", 0)
                loc.base = parent
                try:
                    return fn(x)
                finally:
                    loc.base = prev

            return pmap(inner, items)

        return self.wrap(run, "suites.pmap")

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:  # observers run on worker threads too
            self.counters[name] += value

    def key_of(self, obj, make) -> str:
        """Memoized grouping key for an object (kept alive with the key so
        its id is never reused while cached)."""
        hit = self._keys.get(id(obj))
        if hit is None:
            hit = self._keys[id(obj)] = (obj, make(obj))
        return hit[1]

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one CSV row (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("sid,parent,name,key,trace,thread,t0,t1\n")
            for s in self.spans:
                key = "" if s[KEY] is None else s[KEY]
                fh.write(f"{s[SID]},{s[PARENT]},{s[NAME]},{key},{s[TRACE]},{s[THREAD]},{s[T0]:.9f},{s[T1]:.9f}\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, probes):
    """Swap traced wrappers into the jspec modules; restore on exit.

    A module function is replaced in every loaded ``jspec`` module that
    bound the same object (``from .linmaps import op_norm_estimate``
    copies the reference), so every call site is covered. A probe whose
    target does not exist is skipped.
    """
    mods = [m for n, m in sys.modules.items() if n == "jspec" or n.startswith("jspec.")]
    undo = []
    try:
        for pr in probes:
            mod = sys.modules.get(pr.module)
            if mod is None:
                continue
            if pr.owner is not None:
                cls = getattr(mod, pr.owner, None)
                orig = cls.__dict__.get(pr.attr) if cls is not None else None
                if orig is not None:
                    undo.append((cls, pr.attr, orig))
                    setattr(cls, pr.attr, tracer.wrap(orig, pr.name, pr.observe))
                continue
            orig = getattr(mod, pr.attr, None)
            if orig is None:
                continue
            if pr.attr == "_pmap":
                wrapped = tracer.wrap_pmap(orig)
            else:
                wrapped = tracer.wrap(orig, pr.name, pr.observe)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        yield tracer
    finally:
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)


# -- span arithmetic ------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[T0], s[T1]))
    out = {}
    for s in spans:
        kids = children.get(s[SID])
        covered = union_length(kids, s[T0], s[T1]) if kids else 0.0
        out[s[SID]] = (s[T1] - s[T0]) - covered
    return out


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0
