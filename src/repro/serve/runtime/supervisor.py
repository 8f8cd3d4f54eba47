"""Supervised multi-process serving: replica workers under a failure budget.

``ServingRuntime`` puts the single-process :class:`InferenceEngine` behind
a pool of :mod:`worker <repro.serve.runtime.worker>` processes.  Every
worker is a replica: it rebuilds the session's engine from the on-disk
artifact under the same :class:`~repro.serve.session.ServeConfig`, hot-row
cache included, and answers whole batches.  The parent validates each
batch and sends it to the next live worker, round-robin.  The answers are
bit-identical to the single-process plan — the same frozen code on the
same bytes, just in another address space.

The :class:`Supervisor` half owns the failure model (DESIGN.md §10):

* **Detection** — three independent tripwires: a dead process
  (pipe EOF or ``is_alive``), a per-attempt response deadline
  (:class:`~repro.serve.runtime.retry.RetryPolicy`), and a CRC-32 check on
  every score payload.  Idle failures are caught by heartbeat sweeps in
  :meth:`ServingRuntime.check_health`.
* **Recovery** — a dead or overdue worker is respawned *from the
  artifact* (the durable source of truth) with a fresh pipe, and
  the batch is resent to it after a bounded, jittered backoff; answers
  from superseded attempts of the same batch are adopted if intact (the
  scores are deterministic, any attempt's correct answer is *the* answer).
* **Degradation** — a worker whose retry budget is exhausted, or whose
  respawn source turns out corrupted, is degraded: the failed batch is
  served by the parent's resident engine (same frozen plan, so scores stay
  bit-identical), later batches go to the remaining workers, and the
  failure is visible in :class:`~repro.serve.runtime.qos.QoSStats` rather
  than in the answers.

Requests therefore never error out because a worker died — the runtime's
contract is "bit-identical predictions, degraded latency, honest
counters", proven by the chaos matrix in ``tests/serve/runtime``.
"""

from __future__ import annotations

import multiprocessing as mp
import select
import time
import zlib
from typing import TYPE_CHECKING

import numpy as np

from repro.artifact.container import load_artifact
from repro.serve.engine import InferenceEngine
from repro.serve.runtime.faults import FaultSpec
from repro.serve.runtime.qos import QoSStats
from repro.serve.runtime.retry import RetryPolicy
from repro.serve.runtime.worker import (
    PREDICT,
    PREDICT_HEADER,
    READY,
    SCORES,
    SCORES_HEADER,
    SPAWN_FAILED,
    STOP,
    worker_main,
    write_frame,
)

if TYPE_CHECKING:
    from repro.serve.session import ServeConfig

__all__ = ["ServingRuntime", "Supervisor"]


def _mp_context():
    """fork where available (fast, Linux); spawn otherwise."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _WorkerHandle:
    """One supervised replica worker: process + pipe + health state.

    Each worker has its own duplex pipe, held by the parent as ``conn``
    (``None`` once closed).  A killed process can die halfway through a
    frame; the half frame dies with the pipe it is respawned without, and
    no other worker shares it.
    """

    __slots__ = (
        "id", "process", "conn", "incoming", "fault", "ready", "degraded",
        "spawn_failed", "last_seen", "cache_counts",
    )

    def __init__(self, worker_id: int, fault: FaultSpec | None) -> None:
        self.id = worker_id
        self.process = None
        self.conn = None
        self.incoming = None  # a poll object over ``conn``
        self.fault = fault
        self.ready = False
        self.degraded = False
        self.spawn_failed: str | None = None  # the worker's load error
        self.last_seen = 0.0
        self.cache_counts = (0, 0)  # its cache's (hits, misses), last answer

    @property
    def alive(self) -> bool:
        """Pipe open and process running: EOF shows a death before
        ``waitpid`` does."""
        return self.conn is not None and self.process.is_alive()


class _InFlight:
    """The outstanding batch: which worker, which attempt, and its answer.

    ``ids`` are the caller's int64 rows, not a copy: every attempt writes
    them whole before ``predict`` returns, so nothing reads them after.
    """

    __slots__ = (
        "req_id", "worker_id", "ids", "attempt", "deadline", "resend_at",
        "failed_at", "scores",
    )

    def __init__(self, req_id: int, worker_id: int, ids: np.ndarray) -> None:
        self.req_id = req_id
        self.worker_id = worker_id
        self.ids = ids
        self.attempt = 1
        self.deadline: float | None = None  # None while waiting out a backoff
        self.resend_at: float | None = None
        self.failed_at: float | None = None  # first failure detection time
        self.scores: np.ndarray | None = None


class Supervisor:
    """Worker lifecycle: spawn, heartbeat bookkeeping, respawn, degrade."""

    def __init__(
        self,
        artifact_path: str,
        config: ServeConfig,
        *,
        heartbeat_interval_s: float,
        faults: dict[int, FaultSpec] | None,
        faults_persist: bool,
        qos: QoSStats,
    ) -> None:
        self.artifact_path = artifact_path
        self._config = config
        self._hb_interval = heartbeat_interval_s
        self._faults_persist = faults_persist
        self._qos = qos
        self._ctx = _mp_context()
        #: final cache counts of every worker a respawn replaced
        self.retired_cache_counts = (0, 0)
        faults = faults or {}
        for spec in faults.values():
            spec.validate()
        self.workers = [
            _WorkerHandle(i, faults.get(i)) for i in range(config.workers)
        ]
        for w in self.workers:
            self._spawn(w, fault=w.fault)

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, w: _WorkerHandle, fault: FaultSpec | None) -> None:
        w.conn, child = self._ctx.Pipe()
        w.incoming = select.poll()
        w.incoming.register(w.conn.fileno(), select.POLLIN)
        w.ready = False
        w.spawn_failed = None
        w.last_seen = time.monotonic()
        w.cache_counts = (0, 0)
        w.process = self._ctx.Process(
            target=worker_main,
            args=(self.artifact_path, self._config, child, fault, self._hb_interval),
            name=f"repro-replica-{w.id}",
            daemon=True,
        )
        w.process.start()
        # The worker holds its end now, so its exit is the parent's EOF.
        child.close()

    def respawn(self, w: _WorkerHandle) -> None:
        """Replace a dead/wedged worker with a fresh one from the artifact.

        The old pipe is closed with the old process, so stale frames can
        never replay against the replacement.  Injected faults are not
        re-armed unless ``faults_persist`` — a crash is an event, not a
        property of the respawned process.
        """
        self._qos.respawns += 1
        self._stop(w)
        hits, misses = self.retired_cache_counts
        self.retired_cache_counts = (
            hits + w.cache_counts[0], misses + w.cache_counts[1]
        )
        self._spawn(w, fault=w.fault if self._faults_persist else None)

    def degrade(self, w: _WorkerHandle) -> None:
        """Give up on a worker for good; batches go to the others."""
        if w.degraded:
            return
        w.degraded = True
        self._qos.degraded_workers += 1
        self._stop(w)

    @property
    def all_degraded(self) -> bool:
        return all(w.degraded for w in self.workers)

    @staticmethod
    def _stop(w: _WorkerHandle) -> None:
        """Kill ``w``'s process (stopped or not) and close its pipe."""
        if w.process.is_alive():
            w.process.kill()
        w.process.join(timeout=5.0)
        if w.conn is not None:
            w.conn.close()
            w.conn = None

    def close(self) -> None:
        deadline = time.monotonic() + 2.0
        for w in self.workers:
            if w.conn is not None:
                write_frame(w.conn, deadline, bytes([STOP]))
        for w in self.workers:
            w.process.join(timeout=max(0.1, deadline - time.monotonic()))
            self._stop(w)


class ServingRuntime:
    """Fault-tolerant multi-process serving front end over one artifact.

    Duck-type compatible with :class:`InferenceEngine` where it matters
    (``predict`` / ``predict_one`` / ``input_length`` / ``vocab_size``),
    so the :class:`~repro.serve.batcher.Batcher` and the bench harnesses
    drive it unchanged.

    Parameters
    ----------
    artifact_path:
        The on-disk :mod:`repro.artifact` container — both the initial
        source of every worker and the respawn source after failures.
        A durable artifact is *required*: recovery re-reads it.
    config:
        The session's :class:`~repro.serve.session.ServeConfig`:
        ``workers`` (>= 1) replicas, each building its engine from this
        config; ``retry`` is the failure budget (``RetryPolicy()`` when
        ``None``).
    faults:
        Optional ``{worker_id: FaultSpec}`` chaos injection (tests only).
    engine:
        An already-built engine over the same artifact and config (the
        session front door passes its own); built from the artifact when
        omitted.  Used for request validation and degraded fallback.
    """

    def __init__(
        self,
        artifact_path: str,
        config: ServeConfig,
        *,
        faults: dict[int, FaultSpec] | None = None,
        engine: InferenceEngine | None = None,
        heartbeat_interval_s: float = 0.25,
        faults_persist: bool = False,
        start_timeout_s: float = 60.0,
    ) -> None:
        config.validate()
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        if heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, got {heartbeat_interval_s}"
            )
        self.retry = config.retry if config.retry is not None else RetryPolicy()
        self._engine = (
            engine
            if engine is not None
            else InferenceEngine.from_artifact(
                load_artifact(artifact_path, mmap=config.mmap), config
            )
        )
        self.artifact_path = artifact_path
        self.n_workers = config.workers
        self.qos = QoSStats()
        self.requests_served = 0
        self.batches_served = 0
        self.swaps = 0
        self._hb_interval = float(heartbeat_interval_s)
        self._seq = 0
        self._next_worker = 0
        self._closed = False
        self.supervisor = Supervisor(
            artifact_path,
            config,
            heartbeat_interval_s=self._hb_interval,
            faults=faults,
            faults_persist=faults_persist,
            qos=self.qos,
        )
        self._workers = self.supervisor.workers
        self._wait_until_ready(start_timeout_s)

    # -- engine-compatible surface ----------------------------------------------

    @property
    def input_length(self) -> int:
        return self._engine.input_length

    @property
    def vocab_size(self) -> int:
        return self._engine.vocab_size

    @property
    def embedding_dim(self) -> int:
        return self._engine.embedding_dim

    @property
    def bits(self) -> int:
        return self._engine.bits

    @property
    def model_name(self) -> str:
        return self._engine.model_name

    @property
    def degraded(self) -> bool:
        """True once every worker has been given up on (full local
        fallback — still serving, still bit-identical)."""
        return self.supervisor.all_degraded

    # -- startup ---------------------------------------------------------------

    def _wait_until_ready(self, timeout_s: float) -> None:
        """Block until every worker loaded the artifact (fail fast at init).

        Failures *after* startup degrade gracefully; failure to ever start
        is configuration-shaped (bad path, unreadable artifact) and raises.
        """
        deadline = time.monotonic() + timeout_s
        try:
            while any(not w.ready for w in self._workers):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"serving runtime: workers not ready within {timeout_s}s"
                    )
                waiting = [w for w in self._workers if not w.ready]
                self._receive(waiting[0], None, min(remaining, self._hb_interval))
                for w in waiting[1:]:
                    self._receive(w, None)
                for w in self._workers:
                    if w.spawn_failed or not (w.ready or w.alive):
                        raise RuntimeError(
                            f"serving runtime: worker {w.id} failed to start "
                            f"from {self.artifact_path!r}"
                            + (f": {w.spawn_failed}" if w.spawn_failed else "")
                        )
        except BaseException:
            self.close()
            raise

    # -- serving ---------------------------------------------------------------

    def predict(self, ids: np.ndarray) -> np.ndarray:
        """Scores for a ``(B, input_length)`` batch — the engine contract,
        served by one replica under the full failure model."""
        if self._closed:
            raise RuntimeError("serving runtime is closed")
        ids = self._engine.validate_ids(ids)
        start = time.perf_counter()
        self.check_health()
        w = self._pick_worker()
        if w is None:
            # Full fallback: the resident single-process plan — bit-identical
            # by the engine's own invariants.
            self.qos.fallback_requests += 1
            out = self._engine.predict(ids)
        else:
            self._seq += 1
            flight = _InFlight(
                self._seq, w.id, np.ascontiguousarray(ids, dtype=np.int64)
            )
            self._send(flight)
            while flight.scores is None:
                self._pump(flight)
            out = flight.scores
        self.requests_served += ids.shape[0]
        self.batches_served += 1
        self.qos.record_batch(1e3 * (time.perf_counter() - start), ids.shape[0])
        return out

    def predict_one(self, ids: np.ndarray | int) -> np.ndarray:
        """Scores for one request; a bare id when ``input_length`` is 1."""
        return self.predict(np.atleast_1d(ids)[None, :])[0]

    def _pick_worker(self) -> _WorkerHandle | None:
        """The next live worker after the last one used (round-robin)."""
        for k in range(self.n_workers):
            w = self._workers[(self._next_worker + k) % self.n_workers]
            if not w.degraded:
                self._next_worker = (w.id + 1) % self.n_workers
                return w
        return None

    # -- the supervision loop ---------------------------------------------------

    def _send(self, flight: _InFlight) -> None:
        w = self._workers[flight.worker_id]
        flight.resend_at = None
        flight.deadline = time.monotonic() + self.retry.deadline_s(
            fresh_worker=not w.ready
        )
        header = PREDICT_HEADER.pack(
            PREDICT, flight.req_id, flight.attempt, flight.ids.shape[0]
        )
        write_frame(w.conn, flight.deadline, header, flight.ids)

    def _pump(self, flight: _InFlight) -> None:
        w = self._workers[flight.worker_id]
        next_event = flight.resend_at if flight.deadline is None else flight.deadline
        wait = max(0.001, min(next_event - time.monotonic(), self._hb_interval))
        self._receive(w, flight, wait)
        if flight.scores is not None:
            return
        now = time.monotonic()
        if w.degraded:
            self._serve_locally(flight)
        elif not w.alive:
            self._attempt_failed(flight, cause="death")
        elif flight.deadline is None:
            if now >= flight.resend_at:
                self._send(flight)
        elif now >= flight.deadline:
            self._attempt_failed(flight, cause="timeout")

    def _receive(
        self, w: _WorkerHandle, flight: _InFlight | None, timeout: float = 0.0
    ) -> None:
        """Dispatch every frame ``w`` has sent, waiting up to ``timeout``
        seconds for the first one; close its pipe at EOF."""
        while w.conn is not None and w.incoming.poll(1e3 * timeout):
            timeout = 0.0
            try:
                frame = w.conn.recv_bytes()
            except (EOFError, OSError):  # the worker exited, perhaps mid-frame
                w.conn.close()
                w.conn = None
                return
            self._dispatch(w, frame, flight)  # may degrade ``w``: pipe closed

    def _dispatch(
        self, w: _WorkerHandle, frame: bytes, flight: _InFlight | None
    ) -> None:
        w.last_seen = time.monotonic()
        kind = frame[0]
        if kind == READY:
            w.ready = True
            return
        if kind == SPAWN_FAILED:
            # The respawn source is rotten (e.g. artifact corrupted on
            # disk): stop respawning; the parent's engine serves instead.
            w.spawn_failed = frame[1:].decode(errors="replace")
            self.supervisor.degrade(w)
            return
        if kind != SCORES:
            return  # a heartbeat
        _, req_id, attempt, rows, cols, crc, hits, misses = (
            SCORES_HEADER.unpack_from(frame)
        )
        w.cache_counts = (hits, misses)
        if flight is None or req_id != flight.req_id or flight.scores is not None:
            return  # an answer to a batch already served
        payload = memoryview(frame)[SCORES_HEADER.size:]
        intact = (
            rows == flight.ids.shape[0]
            and payload.nbytes == 4 * rows * cols
            and zlib.crc32(payload) == crc
        )
        if not intact:
            self.qos.corrupt_payloads += 1
            if attempt == flight.attempt:
                self._attempt_failed(flight, cause="corrupt")
            return  # a stale attempt's damage is already being retried
        # Any intact answer is *the* answer (scores are deterministic), so
        # late responses from earlier attempts are adopted, not wasted.  The
        # copy is the caller's to keep: nothing else holds its memory.
        flight.scores = np.frombuffer(payload, np.float32).reshape(rows, cols).copy()
        if flight.failed_at is not None:
            self.qos.record_recovery(1e3 * (time.monotonic() - flight.failed_at))

    def _attempt_failed(self, flight: _InFlight, cause: str) -> None:
        now = time.monotonic()
        if flight.failed_at is None:
            flight.failed_at = now
        if cause == "death":
            self.qos.worker_deaths += 1
        elif cause == "timeout":
            self.qos.timeouts += 1
        # (corrupt payloads were already counted at detection)
        w = self._workers[flight.worker_id]
        if flight.attempt >= self.retry.max_attempts:
            self.supervisor.degrade(w)
            self._serve_locally(flight)
            return
        if cause in ("death", "timeout"):
            # Dead or wedged either way: replace the process, resend the
            # batch.  (A corrupt payload leaves the worker standing — the
            # damage was in transit, not in the worker.)
            self.supervisor.respawn(w)
        self.qos.retries += 1
        flight.attempt += 1
        flight.deadline = None
        flight.resend_at = now + self.retry.backoff(flight.attempt - 1)

    def _serve_locally(self, flight: _InFlight) -> None:
        """Graceful degradation: the parent's resident engine answers the
        batch — same frozen plan, so predictions stay bit-identical."""
        flight.scores = self._engine.predict(flight.ids)
        self.qos.fallback_requests += 1
        if flight.failed_at is not None:
            self.qos.record_recovery(1e3 * (time.monotonic() - flight.failed_at))

    # -- health ----------------------------------------------------------------

    def check_health(self) -> dict:
        """Heartbeat sweep: drain liveness traffic, respawn dead idle workers.

        Runs at the top of every ``predict`` and is callable on its own (a
        deployment would put it on a timer).  Returns a small report so
        callers can see what the sweep found.
        """
        for w in self._workers:
            self._receive(w, None)
        now = time.monotonic()
        respawned, silent = 0, 0
        for w in self._workers:
            if w.degraded:
                continue
            if not w.alive:
                # Died while idle — no request tripped over it, the
                # heartbeat sweep did.
                self.qos.worker_deaths += 1
                self.supervisor.respawn(w)
                respawned += 1
            elif now - w.last_seen > max(3.0 * self._hb_interval, 1.0):
                self.qos.heartbeats_missed += 1
                silent += 1
        return {
            "workers": self.n_workers,
            "alive": sum(1 for w in self._workers if not w.degraded and w.alive),
            "degraded": sum(1 for w in self._workers if w.degraded),
            "respawned": respawned,
            "silent": silent,
        }

    # -- live deployment --------------------------------------------------------

    def hot_swap(
        self, artifact_path: str, engine: InferenceEngine, timeout_s: float = 60.0
    ) -> None:
        """Re-point every replica at a new artifact.

        ``engine`` is the already-built local engine over the *new*
        artifact (the session builds it before calling, so a bad artifact
        fails before any worker is touched).  Every worker — healthy or
        previously degraded — is respawned from the new path through the
        normal Supervisor respawn machinery, then the call blocks until all
        are ready again.  The caller drains its batcher first, so no
        in-flight request ever spans the generation boundary.
        """
        if self._closed:
            raise RuntimeError("serving runtime is closed")
        self._engine = engine
        self.artifact_path = artifact_path
        self.supervisor.artifact_path = artifact_path
        self.swaps += 1
        for w in self._workers:
            # A degraded worker gets a clean slate: degradation was a verdict
            # on the *old* artifact/process, and the new generation starts
            # from a fresh respawn source.
            w.degraded = False
            self.supervisor.respawn(w)
        self._wait_until_ready(timeout_s)

    # -- accounting / lifecycle -------------------------------------------------

    def cache_counts(self) -> tuple[int, int]:
        """Cumulative ``(hits, misses)`` of the replicas' hot-row caches.

        Each answer frame carries its worker's running counts; this sums
        the latest of every worker with the final counts of the workers
        that respawns and hot swaps replaced.  ``(0, 0)`` when the plan
        declines the cache.
        """
        hits, misses = self.supervisor.retired_cache_counts
        for w in self._workers:
            hits, misses = hits + w.cache_counts[0], misses + w.cache_counts[1]
        return hits, misses

    def stats(self) -> dict:
        out = {
            "model": self.model_name,
            "bits": self.bits,
            "input_length": self.input_length,
            "vocab_size": self.vocab_size,
            "embedding_dim": self.embedding_dim,
            "workers": self.n_workers,
            "workers_degraded": sum(1 for w in self._workers if w.degraded),
            "requests_served": self.requests_served,
            "batches_served": self.batches_served,
            "hot_swaps": self.swaps,
        }
        out.update(self.qos.snapshot())
        return out

    def close(self) -> None:
        """Stop every worker and close its pipe (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.supervisor.close()

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: don't leak processes
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "degraded" if self.supervisor.all_degraded else "supervised"
        return (
            f"ServingRuntime({self.model_name}, workers={self.n_workers}, "
            f"{state}, artifact={self.artifact_path!r})"
        )
