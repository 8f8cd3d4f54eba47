"""The replica worker process: artifact in, whole-batch scores out.

Every worker is a replica of the session's engine: it builds
:meth:`InferenceEngine.from_artifact` over the same artifact and the same
:class:`~repro.serve.session.ServeConfig` (hot-row cache included) and
answers whole ``predict(ids)`` batches.  Its scores are bit-identical to
the parent's because it runs the same frozen plan on the same bytes.

Protocol: the parent and each worker share one duplex
``multiprocessing.Pipe``, and every message on it is one **frame** — a
fixed :mod:`struct` header whose first byte is the frame's kind, followed
by raw array bytes.  Nothing is pickled.

* parent → worker: ``PREDICT`` — ``(kind, req_id, attempt, rows)``, then
  ``rows × input_length`` C-order int64 ids — and the header-only
  ``STOP``.
* worker → parent: the header-only ``READY`` once the engine is built and
  ``HEARTBEAT`` while idle; ``SCORES`` answers — ``(kind, req_id,
  attempt, rows, cols, crc32, cache hits, cache misses)``, then
  ``rows × cols`` float32 scores; and ``SPAWN_FAILED`` plus a UTF-8
  message when the artifact cannot be loaded — the corrupted-respawn case,
  reported before the process exits so the supervisor can degrade the
  worker instead of respawn-looping.

Every answer carries a CRC-32 of its score bytes so the parent can detect
a payload corrupted in transit and retry instead of serving garbage, and
the replica's cumulative hot-row cache counts so the parent can report the
hit rate of the caches that actually serve.

The worker reads and writes with the pipe's own blocking calls.  The
parent writes with :func:`write_frame` instead, which never blocks past
a deadline.
"""

from __future__ import annotations

import os
import select
import struct
import time
import zlib

import numpy as np

from repro.artifact.container import load_artifact
from repro.serve.engine import InferenceEngine

__all__ = [
    "HEARTBEAT", "PREDICT", "PREDICT_HEADER", "READY", "SCORES",
    "SCORES_HEADER", "SPAWN_FAILED", "STOP", "worker_main", "write_frame",
]

#: frame kinds, the first byte of every frame
PREDICT, STOP, READY, HEARTBEAT, SCORES, SPAWN_FAILED = range(6)

#: kind, req_id, attempt, rows; ``rows × input_length`` int64 ids follow
PREDICT_HEADER = struct.Struct("=B7xQII")
#: kind, req_id, attempt, rows, cols, crc32, cache hits, cache misses;
#: ``rows × cols`` float32 scores follow
SCORES_HEADER = struct.Struct("=B7xQIIIIQQ")

#: the length prefix ``Connection.recv_bytes`` reads before every message
_LENGTH = struct.Struct("!i")

#: exit codes, distinguishable in the supervisor's logs/tests
EXIT_SPAWN_FAILED = 13
EXIT_FAULT_KILL = 17


def write_frame(conn, deadline: float, header: bytes, payload=b"") -> None:
    """Send ``header + payload`` as one message, giving up at ``deadline``.

    ``Connection.send_bytes`` blocks until the reader has taken whatever
    does not fit in the pipe buffer, which a stopped or still-loading
    worker never does in time.  This writes the same wire format with the
    descriptor non-blocking and stops at the ``time.monotonic()`` deadline
    or when the reader is gone, possibly mid-frame.  The caller's deadline
    and EOF checks then retire the pipe, half frame and all.
    """
    size = len(header) + memoryview(payload).nbytes
    wire = memoryview(b"".join((_LENGTH.pack(size), header, payload)))
    fd = conn.fileno()
    os.set_blocking(fd, False)
    try:
        while wire:
            try:
                wire = wire[os.write(fd, wire):]
            except BlockingIOError:
                left = deadline - time.monotonic()
                writable = select.poll()
                writable.register(fd, select.POLLOUT)
                if left <= 0 or not writable.poll(1e3 * left):
                    return
    except ConnectionError:
        return  # the worker exited; the caller sees the EOF
    finally:
        os.set_blocking(fd, True)


def worker_main(
    artifact_path: str,
    config,
    conn,
    fault,
    heartbeat_interval_s: float,
) -> None:
    """Process entry point: build the engine, then serve whole batches.

    ``fault`` is an optional :class:`~repro.serve.runtime.faults.FaultSpec`
    — production workers run with ``None``; chaos tests arm exactly one.
    """
    try:
        engine = InferenceEngine.from_artifact(
            load_artifact(artifact_path, mmap=config.mmap), config
        )
    except BaseException as exc:  # noqa: BLE001 — report, then die loudly
        try:
            message = f"{type(exc).__name__}: {exc}".encode()
            conn.send_bytes(bytes([SPAWN_FAILED]) + message)
        finally:
            os._exit(EXIT_SPAWN_FAILED)
    conn.send_bytes(bytes([READY]))
    incoming = select.poll()
    incoming.register(conn.fileno(), select.POLLIN)
    width, cache = engine.input_length, engine.cache
    served = 0
    try:
        while True:
            if not incoming.poll(1e3 * heartbeat_interval_s):
                conn.send_bytes(bytes([HEARTBEAT]))
                continue
            frame = conn.recv_bytes()
            if frame[0] == STOP:
                return
            _, req_id, attempt, rows = PREDICT_HEADER.unpack_from(frame)
            ids = np.frombuffer(
                frame, np.int64, rows * width, PREDICT_HEADER.size
            ).reshape(rows, width)
            served += 1
            if fault is not None and fault.kill_on == served:
                # Crash *before* replying: the in-flight batch dies with the
                # process, exactly like a segfault mid-predict would.
                os._exit(EXIT_FAULT_KILL)
            scores = engine.predict(ids)
            crc = zlib.crc32(scores)
            if fault is not None:
                if fault.delay_on == served and fault.delay_ms:
                    time.sleep(fault.delay_ms / 1e3)
                if fault.drop_on == served:
                    continue  # computed, never sent: a lost message
                if fault.corrupt_on == served:
                    scores = scores.copy()
                    scores.view(np.uint8)[0] ^= 0xFF  # the crc above now lies
            hits, misses = (0, 0) if cache is None else (cache.hits, cache.misses)
            header = SCORES_HEADER.pack(
                SCORES, req_id, attempt, rows, scores.shape[1], crc, hits, misses
            )
            conn.send_bytes(b"".join((header, scores)))
    except (EOFError, ConnectionError):
        return  # the parent closed its end: this replica was retired
