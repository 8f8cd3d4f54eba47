"""`repro.serve` — batched inference serving over frozen models.

The request-time half of the ROADMAP's north star, fronted by one API:
build a :class:`ServeConfig`, then :meth:`ServeSession.from_model` (freeze
a live model) or :meth:`ServeSession.load` (serve a
:mod:`repro.artifact` container straight off disk).  The session wires the
forward-only :class:`InferenceEngine` plan, the coalescing
:class:`Batcher`, the LRU hot-row caches (:class:`LRUCache` /
:class:`QuantizedRowCache` with admission + TTL decay) and the
:mod:`repro.quant` integer-storage widths from that single config.  The
engine/batcher/cache classes remain public — they are the moving parts,
the session is the front door.  See DESIGN.md §6–§8 and
``repro export-artifact``.  Serving is measured by replaying
:mod:`repro.traffic` streams through a session (``repro serve-bench``
replays static Zipf, ``repro traffic-bench`` drifting sessions).

``ServeConfig(workers=N)`` on a loaded artifact puts the fault-tolerant
multi-process :mod:`repro.serve.runtime` in front of the same contract:
supervised replica workers, retry/backoff, graceful degradation, QoS
percentiles — bit-identical predictions under induced faults
(DESIGN.md §10, ``repro serve-bench --chaos``).
"""

from repro.serve.batcher import Batcher, PendingRequest
from repro.serve.cache import LRUCache, QuantizedRowCache, rows_for_budget
from repro.serve.engine import InferenceEngine
from repro.serve.runtime import (
    ChaosReport,
    FaultSpec,
    QoSStats,
    RetryPolicy,
    ServingRuntime,
    run_chaos,
)
from repro.serve.session import ServeConfig, ServeSession

__all__ = [
    "Batcher",
    "ChaosReport",
    "FaultSpec",
    "InferenceEngine",
    "LRUCache",
    "PendingRequest",
    "QoSStats",
    "QuantizedRowCache",
    "RetryPolicy",
    "ServeConfig",
    "ServeSession",
    "ServingRuntime",
    "rows_for_budget",
    "run_chaos",
]
