"""The replica worker process: artifact in, whole-batch scores out.

Every worker is a replica of the session's engine: it builds
:meth:`InferenceEngine.from_artifact` over the same artifact and the same
:class:`~repro.serve.session.ServeConfig` (hot-row cache included) and
answers whole ``predict(ids)`` batches.  Its scores are bit-identical to
the parent's because it runs the same frozen plan on the same bytes.

Protocol (all messages are tuples; queues pickle the arrays):

* parent → worker, the worker's request queue:
  ``("predict", req_id, attempt, ids)`` and ``("stop",)``.
* worker → parent, the worker's response queue:
  ``("ready", worker_id, pid)`` once the engine is built,
  ``("hb", worker_id)`` heartbeats while idle,
  ``("scores", worker_id, req_id, attempt, scores, crc32)`` answers, and
  ``("spawn-failed", worker_id, message)`` when the artifact cannot be
  loaded — the corrupted-respawn case, reported before the process exits
  so the supervisor can degrade the worker instead of respawn-looping.

Every answer carries a CRC-32 of the score bytes so the parent can detect
a payload corrupted in transit and retry instead of serving garbage.
"""

from __future__ import annotations

import os
import queue
import time
import zlib

import numpy as np

from repro.artifact.container import load_artifact
from repro.serve.engine import InferenceEngine

__all__ = ["payload_crc", "worker_main"]

#: exit codes, distinguishable in the supervisor's logs/tests
EXIT_SPAWN_FAILED = 13
EXIT_FAULT_KILL = 17


def payload_crc(scores: np.ndarray) -> int:
    """CRC-32 over the C-order bytes of a score block (cheap end-to-end checksum)."""
    return zlib.crc32(scores.tobytes())


def worker_main(
    worker_id: int,
    artifact_path: str,
    config,
    request_q,
    response_q,
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
            response_q.put(("spawn-failed", worker_id, f"{type(exc).__name__}: {exc}"))
            time.sleep(0.05)  # give the queue feeder a beat before _exit
        finally:
            os._exit(EXIT_SPAWN_FAILED)
    response_q.put(("ready", worker_id, os.getpid()))
    served = 0
    while True:
        try:
            msg = request_q.get(timeout=heartbeat_interval_s)
        except queue.Empty:
            response_q.put(("hb", worker_id))
            continue
        if msg[0] == "stop":
            return
        _, req_id, attempt, ids = msg
        served += 1
        if fault is not None and fault.kill_on == served:
            # Crash *before* replying: the in-flight batch dies with the
            # process, exactly like a segfault mid-predict would.
            os._exit(EXIT_FAULT_KILL)
        scores = engine.predict(ids)
        crc = payload_crc(scores)
        if fault is not None:
            if fault.delay_on == served and fault.delay_ms:
                time.sleep(fault.delay_ms / 1e3)
            if fault.drop_on == served:
                continue  # computed, never sent: a lost message
            if fault.corrupt_on == served:
                scores = scores.copy()
                scores.view(np.uint8)[0] ^= 0xFF  # the crc above now lies
        response_q.put(("scores", worker_id, req_id, attempt, scores, crc))
