"""Request coalescing: many single requests → one batched engine call.

Serving traffic arrives as independent requests (one user's id sequence, or
a single id when ``input_length`` is 1).  Running the engine per request
wastes the substrate's vectorization; the :class:`Batcher` queues requests
and serves the whole queue in ``(max_batch, L)`` stacked batches, then
hands each request exactly the score row it would have received alone —
coalescing changes throughput, never results
(``tests/serve/test_batcher_cache.py``).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Batcher", "PendingRequest"]


class PendingRequest:
    """A submitted request; ``result`` is populated by the next ``flush()``.

    ``latency_ms`` is the request's *own* wall-clock wait, submit→resolve:
    the clock starts when :meth:`Batcher.submit` accepts the request and
    stops when its result row is assigned.  Two riders of the same flush
    can therefore report different latencies — the one that queued longer
    waited longer — which is what makes replay percentiles honest (a
    flush-granularity number would hide exactly the queueing delay a
    latency SLO exists to bound).  A request requeued by a failed flush
    keeps its original start, so recovery time counts against it too.
    """

    __slots__ = ("ids", "result", "submitted_at", "latency_ms")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids
        self.result: np.ndarray | None = None
        self.submitted_at = time.perf_counter()
        self.latency_ms: float | None = None

    @property
    def done(self) -> bool:
        return self.result is not None


class Batcher:
    """Coalesce single requests into batched :meth:`InferenceEngine.predict` calls.

    By default flushing is explicit (the measurement loops own their batch
    boundaries).  With ``max_delay_ms`` set, the batcher self-flushes on
    :meth:`submit` once the batch is full **or** the oldest queued request
    has waited past the deadline — a latency SLO for trickling traffic: no
    request waits longer than ``max_delay_ms`` for co-riders, and a full
    batch never waits at all.  Auto-flushed requests carry their results on
    ``PendingRequest.result`` exactly as a manual flush would set them.
    """

    def __init__(
        self,
        engine,
        max_batch: int = 256,
        max_delay_ms: float | None = None,
    ) -> None:
        # ``engine`` is anything with predict/input_length/vocab_size — an
        # InferenceEngine, or the multi-process ServingRuntime.
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_delay_ms is not None and max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be non-negative, got {max_delay_ms}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms) if max_delay_ms is not None else None
        self._pending: list[PendingRequest] = []
        self._oldest_pending_at: float | None = None
        self.auto_flushes = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, ids: np.ndarray | int) -> PendingRequest:
        """Queue one request: an ``(input_length,)`` id sequence, or a bare
        id when the model's input length is 1.

        Invalid requests are rejected *here* — dtype, shape and id range —
        so one bad request can never poison a later batched flush for
        everyone coalesced with it.
        """
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":
            raise TypeError(f"request ids must be integers, got {ids.dtype}")
        if ids.ndim == 0:
            ids = ids[None]
        if ids.ndim != 1 or ids.shape[0] != self.engine.input_length:
            raise ValueError(
                f"request must be ({self.engine.input_length},) ids, got shape {ids.shape}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.engine.vocab_size):
            raise ValueError(
                f"request ids out of range [0, {self.engine.vocab_size}): "
                f"[{ids.min()}, {ids.max()}]"
            )
        request = PendingRequest(ids)
        self._pending.append(request)
        if self.max_delay_ms is not None:
            if self._oldest_pending_at is None:
                self._oldest_pending_at = time.monotonic()
            overdue = (
                1e3 * (time.monotonic() - self._oldest_pending_at) >= self.max_delay_ms
            )
            if len(self._pending) >= self.max_batch or overdue:
                self.auto_flushes += 1
                self.flush()
        return request

    def flush(self) -> list[np.ndarray]:
        """Serve every pending request in ``max_batch``-sized stacked batches.

        Returns the per-request score rows in submission order (also set on
        each request's ``.result``) and clears the queue.  Results are
        assigned per sub-batch as computed; if the engine fails mid-flush —
        with *any* exception, ``BaseException`` included, so a
        ``KeyboardInterrupt`` or an alarm-driven timeout cannot silently
        drop traffic — already-served requests keep their results and every
        undelivered request goes back on the queue.  The latency-deadline
        clock is restored along with them: a requeued request keeps its
        original wait start, so ``max_delay_ms`` still counts from when it
        was first submitted, not from when the engine recovered.
        """
        pending, self._pending = self._pending, []
        oldest, self._oldest_pending_at = self._oldest_pending_at, None
        if not pending:
            return []
        batch = np.stack([r.ids for r in pending])
        results: list[np.ndarray] = []
        for start in range(0, batch.shape[0], self.max_batch):
            try:
                scores = self.engine.predict(batch[start : start + self.max_batch])
            except BaseException:
                self._pending = pending[start:] + self._pending
                if self.max_delay_ms is not None:
                    self._oldest_pending_at = (
                        oldest if oldest is not None else time.monotonic()
                    )
                raise
            resolved_at = time.perf_counter()
            for request, row in zip(pending[start:], scores):
                request.result = row
                request.latency_ms = 1e3 * (resolved_at - request.submitted_at)
            results.extend(scores)
        return results

    def serve(self, requests) -> list[np.ndarray]:
        """Convenience: submit an iterable of requests and flush once."""
        for ids in requests:
            self.submit(ids)
        return self.flush()
