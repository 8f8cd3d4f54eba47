"""Pure-NumPy arithmetic of the perf benchmark: schedules and estimators.

Nothing here touches the serving stack, so the unit tests can check the
numbers the benchmark reports without running a workload.
"""

from __future__ import annotations

import statistics

import numpy as np

#: every pass splits its stream into this many equal segments by request index
SEGMENTS = 10
#: segment 0 is warm-up: served and checked, never counted
WARMUP_SEGMENTS = 1
#: requests a full-length open-loop segment holds at the least, so that 48
#: samples lie beyond its p99
MIN_SEGMENT_REQUESTS = 4800


def open_loop_schedule(step_sizes, rate: float) -> np.ndarray:
    """Due time (s, from the start of the pass) of every request.

    Traffic step ``k`` occupies the tick ``[kT, (k+1)T)`` with
    ``T = mean requests per step / rate``, and its ``n_k`` requests are due
    at even spacing inside the tick.  A step holding ``c`` times the mean
    request count therefore arrives at ``c`` times ``rate``, and the whole
    schedule spans ``N / rate``.  Empty steps still take their tick.
    """
    sizes = np.asarray(step_sizes, dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0)
    tick = total / sizes.size / rate
    step_of = np.repeat(np.arange(sizes.size), sizes)
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.arange(total) - first[step_of]
    return (step_of + pos / sizes[step_of]) * tick


def segment_of(n: int) -> np.ndarray:
    """Segment index of each of ``n`` requests (``SEGMENTS`` equal slices)."""
    return np.arange(n) * SEGMENTS // max(n, 1)


def counted(segments: np.ndarray) -> np.ndarray:
    """Mask of the requests outside the warm-up segment."""
    return np.asarray(segments) >= WARMUP_SEGMENTS


def best_of_passes(segment_values) -> float:
    """Sum over the counted segments of each segment's least value.

    ``segment_values[p, s]`` is the time (wall or CPU) pass ``p`` spent in
    segment ``s``.  Every pass serves the same segments, so each segment is
    the same work every time, and host noise only ever adds time to it:
    the least of a segment's passes is its cost.  Taken segment by segment,
    one slow stretch of the host costs only the segments it overlaps, in
    the passes it overlaps.
    """
    v = np.asarray(segment_values, dtype=np.float64)
    return float(v[:, WARMUP_SEGMENTS:].min(axis=0).sum())


def segment_percentiles(latency_ms: np.ndarray, q: float) -> np.ndarray:
    """Each counted segment's ``q``-th percentile (failed requests are +inf).

    The percentile is a sample, not an interpolation, so a tail of failed
    requests reads +inf rather than NaN.
    """
    lat = np.asarray(latency_ms, dtype=np.float64)
    seg = segment_of(lat.size)
    return np.asarray([
        np.percentile(lat[seg == s], q, method="higher")
        for s in range(WARMUP_SEGMENTS, SEGMENTS)
        if np.any(seg == s)
    ])


def latency(latency_ms: np.ndarray, q: float) -> float:
    """The lower quartile over the counted segments of each segment's
    ``q``-th percentile.

    A slow stretch of the host raises the percentiles of the segments it
    overlaps; it must overlap three quarters of them to move the estimate.
    """
    return float(np.percentile(segment_percentiles(latency_ms, q), 25))


def tail_samples(n: int, q: float = 99.0) -> int:
    """Samples beyond the ``q``-th percentile in the smallest counted segment."""
    seg = segment_of(n)
    smallest = min(int(np.sum(seg == s)) for s in range(WARMUP_SEGMENTS, SEGMENTS))
    return int(smallest * (100.0 - q) / 100.0)


def summarize(values) -> dict:
    """Median, quartiles and spread (quartile distance over median).

    The quartiles are :func:`statistics.quantiles` with ``n=4``, the
    estimator the acceptance rule for a benchmark run set uses.
    """
    vals = [float(v) for v in values]
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "n": len(vals),
    }
