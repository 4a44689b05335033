"""In-memory span recorder for the traced benchmark round.

The tracer replaces module attributes (the functions one module of the
package calls in another, plus the public entry points the benchmark
calls) with wrappers.  Every call through a wrapper records a span: its
name, start, end and the span that was open when it began.  A layer's
self time is its span time minus the time of its child spans.

Spans live in flat arrays while the round runs and are written out once,
at the end.  A target whose attribute no longer exists (a private helper
renamed or merged away) is listed as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")       # -1 no outcome, 0 miss, 1 hit
        self.size = array("q")      # input size, -1 when not recorded
        self.stack = []
        self.missing = []
        self.wrapped = []
        self.available = set()      # span names with at least one wrapped target

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, size=-1):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.hit.append(-1)
        self.size.append(size)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name):
        """Context manager for a span around code in the benchmark itself."""
        return _Span(self, self._nid(name))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, module_name, attr, name, outcome=None, size=None, split=None):
        """Route calls to module_name.attr through a recording wrapper.

        attr may be "Class.method".  outcome(result) gives a hit flag,
        size(args, kwargs) an input size, and split(args, kwargs) picks one
        of two span names (a pair) for calls of different kinds.
        """
        target = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        nids = tuple(self._nid(n) for n in _names(name))
        tracer = self

        def wrapper(*args, **kwargs):
            nid = nids[split(args, kwargs)] if split is not None else nids[0]
            idx = tracer._open(nid, size(args, kwargs) if size is not None else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if outcome is not None:
                tracer.hit[idx] = 1 if outcome(result) else 0
            return result

        setattr(owner, leaf, staticmethod(wrapper) if static else wrapper)
        self.wrapped.append(target)
        self.available.update(_names(name))

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total and self seconds, hits, size sum."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(count):
            name = self.names[self.name_id[i]]
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "hits": 0, "size_sum": 0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
            if self.hit[i] > 0:
                s["hits"] += 1
            if self.size[i] >= 0:
                s["size_sum"] += self.size[i]
        return out

    def write(self, path):
        """Write every span as a tab-separated line: id, parent, name,
        start and end in seconds (perf_counter clock)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# wrapped: {' '.join(self.wrapped)}\n")
            fh.write(f"# missing: {' '.join(self.missing)}\n")
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _names(name):
    return (name,) if isinstance(name, str) else tuple(name)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
