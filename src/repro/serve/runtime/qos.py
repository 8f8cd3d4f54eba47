"""Per-request QoS accounting for the multi-process serving runtime.

A fault-tolerant plane is only trustworthy if its failures are *visible*:
a retry that silently succeeds still cost someone latency, and a worker
that dies every minute still serves bit-identical predictions.  The
runtime therefore measures what the single-process benches never had to —
latency *percentiles* rather than means (recovery events live entirely in
the tail), plus one counter per failure mode so the chaos harness can
assert not just "the answers match" but "recovery actually happened via
the mechanism under test" (retries for corrupt payloads, respawns for
kills and deadline overruns, fallbacks for unrecoverable workers).
"""

from __future__ import annotations

import numpy as np

__all__ = ["QoSStats"]

#: percentile points every report carries (the SLO trio)
PERCENTILES = (50.0, 95.0, 99.0)


class QoSStats:
    """Latency distribution + failure/recovery counters for one runtime.

    Latencies are recorded per *request*: every request coalesced into a
    batch experienced that batch's wall-clock latency, so a batch's sample
    enters the distribution once per rider.  Stored as ``(ms, count)``
    pairs and expanded only when percentiles are computed.
    """

    def __init__(self) -> None:
        self._lat_ms: list[float] = []
        self._lat_n: list[int] = []
        self._recovery_ms: list[float] = []
        self.retries = 0  # resent batches (any failure cause)
        self.respawns = 0  # worker processes restarted from the artifact
        self.worker_deaths = 0  # failures detected via a dead process
        self.timeouts = 0  # failures detected via deadline overrun
        self.corrupt_payloads = 0  # responses whose checksum lied
        self.heartbeats_missed = 0  # health checks that found a silent worker
        self.fallback_requests = 0  # batches served by the local engine
        self.degraded_workers = 0  # workers given up on for good

    # -- recording -------------------------------------------------------------

    def record_batch(self, latency_ms: float, num_requests: int) -> None:
        """One served batch: ``num_requests`` riders saw ``latency_ms``."""
        if num_requests > 0:
            self._lat_ms.append(float(latency_ms))
            self._lat_n.append(int(num_requests))

    def record_recovery(self, latency_ms: float) -> None:
        """Time from first failure detection to the request completing."""
        self._recovery_ms.append(float(latency_ms))

    # -- reporting -------------------------------------------------------------

    @property
    def requests_recorded(self) -> int:
        return int(sum(self._lat_n))

    @property
    def faults_detected(self) -> int:
        """Every failure the runtime noticed, by any mechanism."""
        return self.worker_deaths + self.timeouts + self.corrupt_payloads

    def latency_percentiles(self) -> dict[str, float]:
        """``{"p50": …, "p95": …, "p99": …}`` over per-request latencies (ms)."""
        if not self._lat_ms:
            return {f"p{int(p)}": 0.0 for p in PERCENTILES}
        expanded = np.repeat(
            np.asarray(self._lat_ms, dtype=np.float64),
            np.asarray(self._lat_n, dtype=np.int64),
        )
        values = np.percentile(expanded, PERCENTILES)
        return {f"p{int(p)}": float(v) for p, v in zip(PERCENTILES, values)}

    def recovery_latency_ms(self) -> float:
        """Worst observed failure→completion latency (0 when fault-free)."""
        return max(self._recovery_ms, default=0.0)

    def snapshot(self) -> dict:
        """One flat dict — what ``ServingRuntime.stats()`` merges in."""
        pct = self.latency_percentiles()
        return {
            "latency_ms_p50": pct["p50"],
            "latency_ms_p95": pct["p95"],
            "latency_ms_p99": pct["p99"],
            "recovery_latency_ms": self.recovery_latency_ms(),
            "recoveries": len(self._recovery_ms),
            "retries": self.retries,
            "respawns": self.respawns,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "corrupt_payloads": self.corrupt_payloads,
            "heartbeats_missed": self.heartbeats_missed,
            "fallback_requests": self.fallback_requests,
            "degraded_workers": self.degraded_workers,
            "faults_detected": self.faults_detected,
        }
