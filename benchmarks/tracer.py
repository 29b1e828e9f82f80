"""In-memory span tracer that times calls into a package from outside it.

The tracer replaces a public function with a timing wrapper under every name
a caller can look it up by: the defining module, each package module that
bound it with ``from ... import``, or the class that owns a method. Spans are
kept in memory with their parent span and replication id and written out once
the run ends; restoring puts every original object back.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call. parent is the id of the enclosing span, or -1."""

    id: int
    parent: int
    name: str
    rep: int
    start: int = 0  # perf_counter_ns
    end: int = 0
    rows: int = 0
    flop: int = 0
    info: object = None


@dataclass(frozen=True)
class Target:
    """A function to wrap: owner.attr, recorded under span name.

    work(span, args, kwargs, result), when given, fills span.rows, span.flop
    or span.info after the call returns; its cost is not inside the span.
    """

    name: str
    owner: object
    attr: str
    work: object = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.rep = -1
        self._stack = []
        self._patches = []

    def _wrap(self, target, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name, work = target.name, target.work

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else -1, name, self.rep)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                work(span, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _holders(self, target, original):
        """(object, attr) pairs that bind `original`: the owner first, then
        every loaded cdnn module that imported it under the same name."""
        holders = [target.owner]
        if isinstance(target.owner, type):
            return holders
        for mod_name, mod in list(sys.modules.items()):
            if mod is target.owner or mod is None:
                continue
            if mod_name != "cdnn" and not mod_name.startswith("cdnn."):
                continue
            if getattr(mod, target.attr, None) is original:
                holders.append(mod)
        return holders

    def install(self, targets):
        for target in targets:
            original = target.owner.__dict__[target.attr]
            if getattr(original, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"{target.name} is already wrapped")
            wrapper = self._wrap(target, original)
            for holder in self._holders(target, original):
                self._patches.append((holder, target.attr, original))
                setattr(holder, target.attr, wrapper)

    def restore(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self, targets):
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()

    def write_csv(self, path):
        """Write spans as CSV: id,parent,rep,name,start_ns,end_ns,rows,flop."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "rep", "name", "start_ns", "end_ns", "rows", "flop"])
            for s in self.spans:
                writer.writerow([s.id, s.parent, s.rep, s.name, s.start, s.end, s.rows, s.flop])
        return path


def covered_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_ns(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }
