"""Timing spans recorded from outside the code under test.

The traced run replaces chosen bound methods on live instances with
wrappers that only take the time around the call; they never change
arguments, results or control flow.  Spans are appended to a list in
memory and folded into per-layer numbers, or saved, when the run ends.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Tracer", "self_times"]


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Each span is ``[name, parent, start, end, work]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``work`` a count such
    as the rows a call served.  All spans under one top-level call, such as
    one flush, share that call's index as their root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: index of the most recent top-level span
        self.last_root = -1
        self._stack: list[int] = []

    def wrap(self, obj, attr: str, name: str, work=None) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``work(*args)``, when given, returns the call's work count.
        """
        fn = getattr(obj, attr)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            if stack:
                span = [name, stack[-1], 0.0, 0.0, work(*args) if work else 0]
            else:
                span = [name, -1, 0.0, 0.0, work(*args) if work else 0]
                self.last_root = idx
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        setattr(obj, attr, traced)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured by the caller."""
        self.last_root = len(self.spans)
        self.spans.append([name, -1, start, end, 0])

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns, with each span's root index."""
        names, parents, starts, ends, work = (
            zip(*self.spans) if self.spans else ((),) * 5
        )
        parents = np.asarray(parents, dtype=np.int64)
        roots = np.arange(parents.size)
        for i in np.flatnonzero(parents >= 0):  # a parent precedes its children
            roots[i] = roots[parents[i]]
        return {
            "name": np.asarray(names, dtype=str),
            "parent": parents,
            "root": roots,
            "start": np.asarray(starts, dtype=np.float64),
            "end": np.asarray(ends, dtype=np.float64),
            "work": np.asarray(work, dtype=np.float64),
        }

    def table(self) -> dict[str, dict]:
        """Per span name: calls, busy and self milliseconds, summed work."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        own = self_times(dur, cols["parent"])
        out = {}
        for name in sorted(set(cols["name"].tolist())):
            mask = cols["name"] == name
            out[name] = {
                "calls": int(mask.sum()),
                "busy_ms": 1e3 * float(dur[mask].sum()),
                "self_ms": 1e3 * float(own[mask].sum()),
                "work": float(cols["work"][mask].sum()),
            }
        return out

    def top_level_ms(self) -> float:
        """Time covered by top-level spans; equals the sum of all self times."""
        return 1e3 * sum(s[3] - s[2] for s in self.spans if s[1] < 0)


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """A span's duration minus the time its direct children cover.

    In one thread a span's children run one after another inside it, so
    the time they cover is the sum of their durations.
    """
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents)
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - covered
