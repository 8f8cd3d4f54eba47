"""Request coalescing: many single requests → one batched engine call.

Serving traffic arrives as independent requests (one user's id sequence, or
a single id when ``input_length`` is 1).  Running the engine per request
wastes the substrate's vectorization; the :class:`Batcher` queues requests
and serves the whole queue in ``(max_batch, L)`` batches, then hands each
request exactly the score row it would have received alone — coalescing
changes throughput, never results (``tests/serve/test_batcher_cache.py``).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Batcher", "PendingRequest"]

_INT64 = np.dtype(np.int64)


class PendingRequest:
    """A submitted request, resolved by the next ``flush()``.

    The request carries its own copy of the ids, staged by
    :meth:`Batcher.submit` as native int64 bytes, so the caller may reuse
    or mutate its buffer at once.  A flush resolves the request one of two
    ways: ``result`` gets its score row, or — when an id lies outside
    ``[0, vocab_size)`` — ``error`` gets the ``ValueError`` naming the
    range, and the request is dropped without reaching the engine.

    ``latency_ms`` is the request's *own* wall-clock wait, submit→resolve:
    the clock starts when :meth:`Batcher.submit` accepts the request and
    stops when its result row is assigned.  Two riders of the same flush
    can therefore report different latencies — the one that queued longer
    waited longer — which is what makes replay percentiles honest (a
    flush-granularity number would hide exactly the queueing delay a
    latency SLO exists to bound).  A request requeued by a failed flush
    keeps its original start, so recovery time counts against it too.
    """

    __slots__ = ("result", "error", "submitted_at", "latency_ms", "_unsigned", "_ids")

    def __init__(self, unsigned: bool = False, ids: bytes = b"") -> None:
        self.result: np.ndarray | None = None
        self.error: ValueError | None = None
        self.submitted_at = time.perf_counter()
        self.latency_ms: float | None = None
        # Submitted as an unsigned dtype: uint64 ids >= 2**63 stage as
        # negative int64, so the error message reads the row back unsigned.
        self._unsigned = unsigned
        self._ids = ids

    @property
    def done(self) -> bool:
        """Resolved: served (``result``) or rejected (``error``)."""
        return self.result is not None or self.error is not None


class Batcher:
    """Coalesce single requests into batched :meth:`InferenceEngine.predict` calls.

    The batcher owns its request ids.  :meth:`submit` checks a request's
    dtype and shape and queues a :class:`PendingRequest` holding its ids
    as native int64 bytes; :meth:`flush` joins the queue's bytes once into
    an ``(n, input_length)`` array, range-checks every row with one
    vectorized comparison and serves ``max_batch``-row slices of it.  A
    request with an id outside ``[0, vocab_size)`` never reaches the
    engine: it is resolved with ``error`` set, its co-riders are served in
    exactly the batches they would have had without it, and the flush then
    raises its error.  One bad request therefore cannot poison the requests
    coalesced with it.

    By default flushing is explicit (the measurement loops own their batch
    boundaries).  With ``max_delay_ms`` set, the batcher self-flushes on
    :meth:`submit` once the batch is full **or** the oldest queued request
    has waited past the deadline — a latency SLO for trickling traffic: no
    request waits longer than ``max_delay_ms`` for co-riders, and a full
    batch never waits at all.  Auto-flushed requests resolve exactly as a
    manual flush would resolve them, and an auto-flush that rejects a
    request raises its error out of ``submit``.

    One thread drives a batcher; ``submit`` and ``flush`` do not nest.  The
    staging width follows the engine's ``input_length`` at submit time, so
    replace ``engine`` only with an empty queue (``ServeSession.hot_swap``
    drains first).
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
        #: ids per queued request
        self._width = 0
        self._oldest_pending_at: float | None = None
        self.auto_flushes = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, ids: np.ndarray | int) -> PendingRequest:
        """Queue one request: an ``(input_length,)`` id sequence, or a bare
        id when the model's input length is 1.

        Dtype and shape are checked here; the ids are copied, so the caller
        keeps ownership of its buffer.  The id range is checked at flush.
        """
        length = self.engine.input_length
        if type(ids) is np.ndarray and ids.dtype is _INT64 and ids.shape == (length,):
            # The common request, one row of an int64 id array: its bytes,
            # C-ordered whatever its strides, are the staged row.
            staged, unsigned = ids.tobytes(), False
        else:
            ids = np.asarray(ids)
            kind = ids.dtype.kind
            if kind not in "iu":
                raise TypeError(f"request ids must be integers, got {ids.dtype}")
            if ids.ndim == 0:
                ids = ids[None]
            if ids.shape != (length,):
                raise ValueError(f"request must be ({length},) ids, got shape {ids.shape}")
            staged, unsigned = ids.astype(_INT64).tobytes(), kind == "u"
        if length != self._width:
            if self._pending:
                raise ValueError(
                    f"engine input_length changed from {self._width} to "
                    f"{length} with {len(self._pending)} requests queued; "
                    "flush before replacing the engine"
                )
            self._width = length
        request = PendingRequest(unsigned, staged)
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
        """Serve every pending request in ``max_batch``-row batches.

        Returns the per-request score rows in submission order (also set on
        each request's ``.result``) and clears the queue.  Requests with an
        id outside ``[0, vocab_size)`` are dropped before any engine call
        and never requeued: each gets its ``ValueError`` on ``.error``, the
        others are served as if they had been submitted alone, and the
        flush then raises the first rejected request's error.

        Results are assigned per batch as computed.  If anything in the
        flush fails — with *any* exception, ``BaseException`` included, so
        a ``KeyboardInterrupt`` or an alarm-driven timeout cannot silently
        drop traffic — already-resolved requests keep their results and
        every undelivered request goes back on the queue with its staged
        ids.  The latency-deadline clock is restored along with them: a
        requeued request keeps its original wait start, so ``max_delay_ms``
        still counts from when it was first submitted, not from when the
        engine recovered.
        """
        pending, self._pending = self._pending, []
        oldest, self._oldest_pending_at = self._oldest_pending_at, None
        if not pending:
            return []
        # ``queue`` and ``rows`` are the requests still to serve and their
        # ids; ``queue[:served]`` have their results.
        queue, served = pending, 0
        rejected: list[int] = []
        try:
            rows = np.frombuffer(
                b"".join([request._ids for request in pending]), dtype=np.int64
            ).reshape(len(pending), self._width)
            vocab = self.engine.vocab_size
            # Under the unsigned view a negative id reads as a huge one, so
            # one comparison covers both ends of the range.
            if rows.view(np.uint64).max(initial=0) >= vocab:
                bad = (rows.view(np.uint64) >= vocab).any(axis=1)
                rejected = np.flatnonzero(bad).tolist()
                for i in rejected:
                    pending[i].error = _range_error(pending[i], rows[i], vocab)
                keep = np.flatnonzero(~bad)
                queue, rows = [pending[i] for i in keep.tolist()], rows[keep]
            results: list[np.ndarray] = []
            for start in range(0, len(queue), self.max_batch):
                # Split the scores into rows once: they are both the
                # requests' results and the returned list.
                scores = list(self.engine.predict(rows[start : start + self.max_batch]))
                resolved_at = time.perf_counter()
                for request, row in zip(queue[start : start + self.max_batch], scores):
                    request.result = row
                    request.latency_ms = 1e3 * (resolved_at - request.submitted_at)
                    served += 1
                results.extend(scores)
        except BaseException:
            # Undelivered requests, each holding its ids, go back on the
            # emptied queue.
            if served < len(queue):
                self._pending = queue[served:]
                if self.max_delay_ms is not None:
                    self._oldest_pending_at = (
                        oldest if oldest is not None else time.monotonic()
                    )
            raise
        if rejected:
            raise pending[rejected[0]].error
        return results

    def serve(self, requests) -> list[np.ndarray]:
        """Submit an iterable of requests and flush; returns each request's
        score row in order, auto-flushed (``max_delay_ms``) or not."""
        submitted = [self.submit(ids) for ids in requests]
        self.flush()
        return [request.result for request in submitted]


def _range_error(request: PendingRequest, ids: np.ndarray, vocab: int) -> ValueError:
    """The rejection of one staged row, its ids read in the submitted sign."""
    if request._unsigned:
        ids = ids.view(np.uint64)
    return ValueError(
        f"request ids out of range [0, {vocab}): [{ids.min()}, {ids.max()}]"
    )
