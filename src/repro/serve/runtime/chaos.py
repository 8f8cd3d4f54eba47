"""Chaos harness: prove recovery, don't just claim it.

:func:`run_chaos` runs one fault scenario end-to-end and returns evidence:
serve a fixed Zipf workload through a fault-free single-process session,
serve the *same* workload through a :class:`ServingRuntime` with a fault
armed, and assert two things at once —

1. **bit-identical predictions**: ``np.array_equal`` over every score the
   two paths produced (the runtime's core contract: faults cost latency,
   never correctness), and
2. **the fault actually fired and recovery took the intended path**: each
   scenario names the QoS counters that must have moved (respawns for a
   kill, timeouts+respawns for a delayed worker, checksum-retries for a
   corrupted payload, degradation+fallback for a corrupted respawn
   artifact).  A chaos run whose counters stayed at zero tested nothing
   and reports ``ok=False`` even if the answers matched.

``repro serve-bench --chaos`` and the CI fault-injection smoke step are
thin wrappers over this function; the full matrix (scenarios × models ×
widths) lives in ``tests/serve/runtime/test_faults.py``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.zipf import ZipfSampler
from repro.serve.runtime.faults import FaultSpec, corrupt_artifact_payload
from repro.serve.runtime.retry import RetryPolicy
from repro.serve.runtime.supervisor import ServingRuntime

__all__ = ["CHAOS_SCENARIOS", "ChaosReport", "run_chaos"]

#: scenario name -> one-line description (CLI help + report rendering)
CHAOS_SCENARIOS = {
    "kill": "worker hard-exits mid-request; supervisor respawns, resends",
    "delay": "worker sleeps past the deadline; timeout fires, worker respawned",
    "drop": "worker swallows a reply; timeout fires, worker respawned",
    "corrupt": "payload corrupted in transit; checksum catches it, retried",
    "corrupt-artifact": (
        "worker dies and its respawn artifact is corrupted; worker degrades "
        "to the local fallback engine"
    ),
}

#: the fault fires on worker 0's 2nd batch (the runtime's 3rd, with two
#: workers taking turns) — after proving the healthy path works, with
#: recovery provable on the batches that follow
_TRIGGER = 2


@dataclass(frozen=True)
class ChaosReport:
    """Evidence from one chaos scenario (see :func:`run_chaos`)."""

    scenario: str
    workers: int
    bits: int
    num_requests: int
    bit_identical: bool
    #: which QoS counters this scenario required to move, and whether they did
    evidence: dict = field(default_factory=dict)
    #: full runtime stats()/QoS snapshot for the faulted run
    stats: dict = field(default_factory=dict)

    @property
    def fault_fired(self) -> bool:
        return all(self.evidence.values())

    @property
    def ok(self) -> bool:
        """Recovered within budget: identical answers AND the intended path."""
        return self.bit_identical and self.fault_fired

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        parts = [
            f"[{verdict}] chaos={self.scenario}",
            f"bit_identical={self.bit_identical}",
            *(f"{name}={'yes' if hit else 'NO'}" for name, hit in self.evidence.items()),
            f"recovery_ms={self.stats.get('recovery_latency_ms', 0.0):.1f}",
            f"p99_ms={self.stats.get('latency_ms_p99', 0.0):.2f}",
        ]
        return "  ".join(parts)


def _fault_for(scenario: str, retry: RetryPolicy) -> FaultSpec:
    if scenario in ("kill", "corrupt-artifact"):
        return FaultSpec(kill_on=_TRIGGER)
    if scenario == "delay":
        # Sleep well past the per-attempt deadline so the timeout must fire.
        return FaultSpec(delay_on=_TRIGGER, delay_ms=2.5e3 * retry.timeout_s)
    if scenario == "drop":
        return FaultSpec(drop_on=_TRIGGER)
    if scenario == "corrupt":
        return FaultSpec(corrupt_on=_TRIGGER)
    raise ValueError(
        f"unknown chaos scenario {scenario!r}; choose from {sorted(CHAOS_SCENARIOS)}"
    )


def _evidence_for(scenario: str, stats: dict) -> dict:
    """The per-scenario proof obligations over the QoS counters."""
    if scenario in ("kill", "delay", "drop"):
        # Recovery must have gone through respawn+retry, and the worker must
        # have come back — degradation here would mean the budget was blown.
        return {
            "fault_detected": stats["faults_detected"] >= 1,
            "respawned": stats["respawns"] >= 1,
            "retried": stats["retries"] >= 1,
            "no_degradation": stats["degraded_workers"] == 0,
        }
    if scenario == "corrupt":
        # Damage in transit: checksum + retry, no process ever restarted.
        return {
            "checksum_caught_it": stats["corrupt_payloads"] >= 1,
            "retried": stats["retries"] >= 1,
            "no_respawn": stats["respawns"] == 0,
            "no_degradation": stats["degraded_workers"] == 0,
        }
    # corrupt-artifact: respawn was attempted, found the source rotten, and
    # the worker degraded to local fallback instead of respawn-looping.
    return {
        "fault_detected": stats["faults_detected"] >= 1,
        "respawn_attempted": stats["respawns"] >= 1,
        "degraded": stats["degraded_workers"] >= 1,
        "served_by_fallback": stats["fallback_requests"] >= 1,
    }


def _copy_artifact(path: str, dst_dir: str) -> str:
    dst = os.path.join(dst_dir, os.path.basename(os.path.normpath(path)))
    if os.path.isdir(path):
        shutil.copytree(path, dst)
    else:
        shutil.copy2(path, dst)
    return dst


def run_chaos(
    artifact_path: str,
    scenario: str,
    *,
    workers: int = 2,
    num_requests: int = 64,
    batch_size: int = 16,
    retry: RetryPolicy | None = None,
    bits: int | None = None,
    calibration_percentile: float | None = None,
    alpha: float = 1.1,
    seed: int = 0,
) -> ChaosReport:
    """One scenario, end to end; returns the :class:`ChaosReport` evidence.

    The artifact at ``artifact_path`` is never modified — the
    ``corrupt-artifact`` scenario corrupts a temporary copy.  ``retry``
    defaults to a test-tempo budget (sub-second timeout) so a chaos sweep
    finishes in seconds; pass a production policy to rehearse real SLOs.
    """
    # Lazy: the session façade itself wires runtimes, so importing it at
    # module scope would close an import cycle (session -> runtime -> chaos).
    from repro.serve.session import ServeConfig, ServeSession

    if scenario not in CHAOS_SCENARIOS:
        raise ValueError(
            f"unknown chaos scenario {scenario!r}; choose from {sorted(CHAOS_SCENARIOS)}"
        )
    if retry is None:
        retry = RetryPolicy(
            timeout_s=0.5, backoff_base_s=0.02, backoff_max_s=0.2, max_attempts=3
        )
    config = ServeConfig(bits=bits, calibration_percentile=calibration_percentile)
    baseline = ServeSession.load(artifact_path, config)
    traffic = ZipfSampler(baseline.engine.vocab_size, alpha).sample(
        seed, (num_requests, baseline.engine.input_length)
    )
    batches = [
        traffic[i : i + batch_size] for i in range(0, traffic.shape[0], batch_size)
    ]
    expected = [baseline.predict(b) for b in batches]

    tmp_dir = None
    serve_path = artifact_path
    try:
        if scenario == "corrupt-artifact":
            # Corrupt a *copy*, and only after the workers have loaded it —
            # the damage must hit the respawn, not the launch.
            tmp_dir = tempfile.mkdtemp(prefix="repro-chaos-")
            serve_path = _copy_artifact(artifact_path, tmp_dir)
        runtime = ServingRuntime(
            serve_path,
            replace(config, workers=workers, retry=retry),
            faults={0: _fault_for(scenario, retry)},
        )
        try:
            if scenario == "corrupt-artifact":
                corrupt_artifact_payload(serve_path)
            got = [runtime.predict(b) for b in batches]
            stats = runtime.stats()
        finally:
            runtime.close()
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    bit_identical = all(
        e.shape == g.shape and np.array_equal(e, g) for e, g in zip(expected, got)
    )
    return ChaosReport(
        scenario=scenario,
        workers=workers,
        bits=baseline.bits,
        num_requests=num_requests,
        bit_identical=bit_identical,
        evidence=_evidence_for(scenario, stats),
        stats=stats,
    )
