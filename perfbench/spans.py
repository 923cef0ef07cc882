"""In-memory span tracer for the traced run.

The tracer wraps functions from the benchmark side: it records one span per
call (name, start, end, parent span, request id) in flat arrays, keeps named
counters, and computes self times after the run.  Nothing in the program is
edited; :meth:`Tracer.patch` rebinds a name in a namespace and
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Spans of one single-threaded traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.stack: List[int] = []
        self.current_request = -1
        self.counters: Counter = Counter()
        self.maxima: Dict[str, int] = {}
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        """Start a span; returns its index.  Pair with :meth:`close`."""
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k

    def record_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- wrapping ------------------------------------------------------
    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None,
             iterator: bool = False) -> Callable:
        """``fn`` with a span around every call.

        ``hook(tracer, args, kwargs, result)`` runs after the span closes.
        With ``iterator=True`` the returned iterator is wrapped too, so that
        the work done inside each ``next`` call is a span of the same name.
        """
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if iterator:
                return _TracedIterator(tracer, nid, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, namespace, attr: str, replacement) -> None:
        """Rebind ``namespace.attr``; :meth:`restore` undoes it."""
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # -- results -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        return self_times(self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Write the spans as gzip'd tab-separated lines: name, start and end
        in ns from the first span, parent index (-1 for roots), request id."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            names = self.names
            for i in range(len(self)):
                fh.write(f"{names[self.name_id[i]]}\t{round((self.start[i] - t0) * 1e9)}\t"
                         f"{round((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\t{self.request[i]}\n")


class _TracedIterator:
    """Iterator whose every ``next`` call is a span.

    Counts the items yielded as ``<name>.yielded`` and, separately, as
    ``<name>.yielded_by.<caller>`` for the span that created the iterator.
    """

    def __init__(self, tracer: Tracer, nid: int, inner) -> None:
        self._tracer = tracer
        self._nid = nid
        self._inner = iter(inner)
        name = tracer.names[nid]
        caller = tracer.names[tracer.name_id[tracer.stack[-1]]] if tracer.stack else "none"
        self._counters = (name + ".yielded", f"{name}.yielded_by.{caller}")

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.open(self._nid)
        try:
            item = next(self._inner)
        finally:
            tracer.close(idx)
        for counter in self._counters:
            tracer.count(counter)
        return item


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest, so direct children cover disjoint parts of
    their parent; the self times of all spans then add up to the summed
    duration of the root spans.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own
