"""In-memory span tracer for the traced benchmark run.

The tracer wraps basisdiff's public callables from outside the package: class
methods are replaced on their class, and module functions are replaced in
every ``basisdiff`` module that holds a reference to them (modules import
each other's functions by name, so patching only the defining module would
miss most call sites).  Every wrapped call records one span
``(id, name, start, end, parent, run_id)``; spans stay in memory and are
written out once, when the run ends.

A layer's self time is its spans' total duration minus the time covered by
the spans nested inside them.  The package is single-threaded, so nested
spans never overlap and that cover is the sum of the child durations.
"""

from __future__ import annotations

import json
import time

# Spans kept for the written trace file.  Aggregate statistics always cover
# every call; only the per-span records beyond this many are dropped.
SPAN_CAP = 100_000


class Stat:
    """Aggregates of one span name: call count, total and self time, counters."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """Records spans and counters; patch_* wraps callables, uninstall restores."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self.run_id = 0
        self._stack = []  # one [span id, child seconds] frame per open span
        self._next_id = 0
        self._undo = []

    def stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def span(self, name, fn, count=None):
        """fn wrapped to record one span per call; count() adds counters."""
        st = self.stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent, self.run_id))
                else:
                    self.dropped += 1
            if count is not None:
                count(st, args, out)
            return out

        return traced

    def counter(self, name, fn, count):
        """fn wrapped to update counters only, for calls cheaper than a span."""
        st = self.stat(name)

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(st, args, out)
            return out

        return counted

    # -- patching ---------------------------------------------------------

    def patch_method(self, cls, attr, wrapped_fn):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapped_fn)
        self._undo.append((cls, attr, original))

    def patch_function(self, modules, owner, attr, make):
        """Replace owner.attr, and every by-name import of it in modules.

        make(original) builds the replacement.
        """
        original = getattr(owner, attr)
        wrapped_fn = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped_fn)
                    self._undo.append((mod, key, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def write(self, path, meta):
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**meta, "spans": len(self.spans),
                                 "spans_dropped": self.dropped,
                                 "fields": ["id", "name", "start_s", "end_s",
                                            "parent", "run_id"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
