"""In-memory spans around calls into specpole's layers.

The package is not changed: ``Tracer.wrap`` replaces a module attribute
with a timing wrapper, so a call that a specpole module makes through
that name is recorded.  Spans carry a name, start, end, parent and trace
id (the replication seed where the call has one), are kept in memory
and are written once at exit.  Self time is a span's duration minus the
part of it covered by its children.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        # Spans opened in worker threads hang from the innermost root
        # span open in the main thread.
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, trace=None, root=False):
        stack = self._stack()
        parent, parent_trace = stack[-1] if stack else (self._root or (None, None))
        sid = next(self._ids)
        trace = parent_trace if trace is None else trace
        stack.append((sid, trace))
        saved_root = self._root
        if root:
            self._root = (sid, trace)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = saved_root
            with self._lock:
                self.spans.append({
                    "id": sid, "name": name, "trace": trace, "parent": parent,
                    "start": start, "end": end,
                    "thread": threading.get_ident(),
                })

    def wrap(self, module, attr, name, trace_of=None):
        """Record a span around every call of ``module.attr``, if it exists."""
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            trace = trace_of(args, kwargs) if trace_of else None
            with tracer.span(name, trace):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def named(self, name, within=None):
        """Spans called ``name``, optionally only those under span ``within``."""
        spans = [s for s in self.spans if s["name"] == name]
        if within is not None:
            parent_of = {s["id"]: s["parent"] for s in self.spans}

            def under(sid):
                while sid is not None and sid != within:
                    sid = parent_of.get(sid)
                return sid == within

            spans = [s for s in spans if under(s["parent"])]
        return sorted(spans, key=lambda s: s["start"])

    def self_times(self):
        """Summed self time per span name."""
        kids = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered = _union(
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in kids.get(s["id"], ())
            )
            own = (s["end"] - s["start"]) - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        doc = {
            "spans": [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                      for s in sorted(self.spans, key=lambda s: s["start"])],
            "self_s": self.self_times(),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def _union(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
