"""`repro.serve.runtime` — fault-tolerant multi-process serving.

The distributed half of the serving plane: :class:`ServingRuntime` runs
supervised replica :mod:`worker <repro.serve.runtime.worker>` processes,
each answering whole batches with the session's own engine, and survives
worker death, wedged workers, and corrupted payloads under a declarative
:class:`RetryPolicy` — degrading to the local fallback engine, never
erroring, always bit-identical to the single-process plan.
:class:`FaultSpec` + :func:`run_chaos` are the proof harness
(``repro serve-bench --chaos``).  See DESIGN.md §10.
"""

from repro.serve.runtime.chaos import CHAOS_SCENARIOS, ChaosReport, run_chaos
from repro.serve.runtime.faults import FaultSpec, corrupt_artifact_payload
from repro.serve.runtime.qos import QoSStats
from repro.serve.runtime.retry import RetryPolicy
from repro.serve.runtime.supervisor import ServingRuntime, Supervisor

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosReport",
    "FaultSpec",
    "QoSStats",
    "RetryPolicy",
    "ServingRuntime",
    "Supervisor",
    "corrupt_artifact_payload",
    "run_chaos",
]
