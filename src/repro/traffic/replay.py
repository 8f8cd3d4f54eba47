"""Replay simulated traffic through a serving session; report per-phase QoS.

The harness is the bridge between :class:`~repro.traffic.model.TrafficModel`
(what traffic looks like) and :class:`~repro.serve.ServeSession` (what
serves it): each arrival step's requests are submitted to the session's
:class:`~repro.serve.batcher.Batcher` and flushed once per step — bursty
steps queue deeper and coalesce into bigger batches, exactly the mechanism
latency percentiles must expose.  Per-request latency comes from
``PendingRequest.latency_ms`` (submit→resolve wall clock), so a request
that waited out a burst is charged its wait, not its batch's average.

The report is split **per drift phase**: the whole point of replaying
non-stationary traffic is seeing the phase boundary — the hit-rate dip as
the cache's head goes stale, the admission TTL re-learning the new head,
the tail latency of the refill — rather than one blended number.

Determinism: the request stream and the served predictions are pure
functions of ``(TrafficSpec, artifact)``; ``ReplayReport.checksum``
fingerprints both, so two runs with the same seed must agree bit-for-bit
even across the multi-process runtime (latency numbers, of course, vary).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.traffic.model import TrafficModel
from repro.traffic.slo import SLOSpec

__all__ = ["PhaseReport", "ReplayReport", "replay"]

#: the SLO latency trio, shared with the runtime's QoS accounting
_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class PhaseReport:
    """QoS of one drift phase (or of the whole run, for the rollup)."""

    phase: int
    requests: int
    batches: int
    distinct_users: int
    elapsed_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    rps: float
    #: cache hit rate over this phase's lookups, or None when uncached
    hit_rate: float | None = None

    def to_dict(self) -> dict:
        out = {
            "phase": self.phase,
            "requests": self.requests,
            "batches": self.batches,
            "distinct_users": self.distinct_users,
            "elapsed_s": round(self.elapsed_s, 6),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "rps": round(self.rps, 2),
        }
        out["hit_rate"] = None if self.hit_rate is None else round(self.hit_rate, 4)
        return out

    def row(self) -> tuple:
        hit = "—" if self.hit_rate is None else f"{100 * self.hit_rate:.1f}%"
        return (
            self.phase, self.requests, self.distinct_users,
            f"{self.p50_ms:.2f}", f"{self.p95_ms:.2f}", f"{self.p99_ms:.2f}",
            f"{self.rps:,.0f}", hit,
        )


@dataclass(frozen=True)
class ReplayReport:
    """Everything one replayed workload measured, phases + rollup."""

    phases: list[PhaseReport]
    overall: PhaseReport
    #: SHA-256 over (ids, predictions) — the determinism fingerprint
    checksum: str
    spec: dict = field(default_factory=dict)
    #: split fingerprints around ``swap_step`` (None when no split was asked):
    #: ``checksum_post`` of a hot-swapped run must equal ``checksum_post`` of
    #: a cold-load run of the swapped-in artifact over the same stream.
    checksum_pre: str | None = None
    checksum_post: str | None = None
    swap_step: int | None = None

    # Rollup conveniences (what SLOSpec.check reads).
    @property
    def requests(self) -> int:
        return self.overall.requests

    @property
    def p50_ms(self) -> float:
        return self.overall.p50_ms

    @property
    def p95_ms(self) -> float:
        return self.overall.p95_ms

    @property
    def p99_ms(self) -> float:
        return self.overall.p99_ms

    @property
    def rps(self) -> float:
        return self.overall.rps

    @property
    def hit_rate(self) -> float | None:
        return self.overall.hit_rate

    @property
    def distinct_users(self) -> int:
        return self.overall.distinct_users

    def to_dict(self) -> dict:
        out = {
            "requests": self.requests,
            "distinct_users": self.distinct_users,
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "rps": round(self.rps, 2),
            "hit_rate": None if self.hit_rate is None else round(self.hit_rate, 4),
            "checksum": self.checksum,
            "phases": [p.to_dict() for p in self.phases],
        }
        if self.swap_step is not None:
            out["swap_step"] = self.swap_step
            out["checksum_pre"] = self.checksum_pre
            out["checksum_post"] = self.checksum_post
        return out

    def summary(self) -> str:
        lines = [
            f"{'phase':>5} {'requests':>9} {'users':>7} {'p50':>8} {'p95':>8} "
            f"{'p99':>8} {'req/s':>9} {'hit':>6}"
        ]
        for ph in self.phases + [self.overall]:
            tag = "all" if ph is self.overall else str(ph.phase)
            hit = "—" if ph.hit_rate is None else f"{100 * ph.hit_rate:.1f}%"
            lines.append(
                f"{tag:>5} {ph.requests:>9,} {ph.distinct_users:>7,} "
                f"{ph.p50_ms:>8.2f} {ph.p95_ms:>8.2f} {ph.p99_ms:>8.2f} "
                f"{ph.rps:>9,.0f} {hit:>6}"
            )
        return "\n".join(lines)


class _PhaseAccumulator:
    """Latency/hit/user bookkeeping for one phase while it streams."""

    def __init__(self, phase: int) -> None:
        self.phase = phase
        self.latencies: list[float] = []
        self.users: set[int] = set()
        self.batches = 0
        self.elapsed_s = 0.0
        self.hits0 = 0
        self.misses0 = 0
        self.hits1 = 0
        self.misses1 = 0

    def report(self) -> PhaseReport:
        lat = np.asarray(self.latencies, dtype=np.float64)
        if lat.size:
            p50, p95, p99 = np.percentile(lat, _PERCENTILES)
        else:
            p50 = p95 = p99 = 0.0
        hits = self.hits1 - self.hits0
        misses = self.misses1 - self.misses0
        hit_rate = hits / (hits + misses) if (hits + misses) > 0 else None
        return PhaseReport(
            phase=self.phase,
            requests=int(lat.size),
            batches=self.batches,
            distinct_users=len(self.users),
            elapsed_s=self.elapsed_s,
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
            rps=lat.size / self.elapsed_s if self.elapsed_s > 0 else 0.0,
            hit_rate=hit_rate,
        )


def _settle(deferred: list, total: _PhaseAccumulator) -> None:
    """Fold resolved requests into checksums and latency books, in stream
    order.  Every request must have a result by now — a ``None`` means the
    serving plane dropped it, which a replay treats as a hard failure."""
    while deferred:
        acc, hashers, requests_blob, pending = deferred.pop(0)
        for h in hashers:
            h.update(requests_blob)
        for req in pending:
            if req.result is None:
                raise RuntimeError(
                    "replay dropped a request: unresolved after flush"
                )
            blob = np.ascontiguousarray(req.result).tobytes()
            for h in hashers:
                h.update(blob)
        for a in (acc, total):
            a.latencies.extend(req.latency_ms for req in pending)


def replay(
    session,
    model: TrafficModel,
    slo: SLOSpec | None = None,
    baseline: dict | None = None,
    *,
    swap_path=None,
    swap_step: int | None = None,
) -> ReplayReport:
    """Stream ``model``'s traffic through ``session``; measure per phase.

    ``session`` is a :class:`~repro.serve.ServeSession` (single-process or
    ``workers=n`` — the batcher fronts either).  When ``slo`` is given the
    report is asserted against it (and optionally against ``baseline``)
    before returning, raising :class:`~repro.traffic.slo.SLOViolation` on
    any miss — a replay is then an executable service-level test.

    When the session's batcher has a ``max_delay_ms`` deadline, the harness
    stops force-flushing every step and lets the deadline drive batching —
    requests settle whenever their batch fills or ages out, and the books
    are balanced at drain points.  The checksum is byte-identical to the
    per-step-flush mode: same stream, same predictions, same hash order.

    ``swap_path`` (with ``swap_step``) hot-swaps the session onto a new
    artifact *mid-stream*, right before step ``swap_step`` — in-flight
    requests drain against the old plan, later steps serve from the new
    one, and nothing is dropped.  ``swap_step`` alone just splits the
    checksum at that boundary: replaying the swapped-in artifact cold with
    the same ``swap_step`` must yield an equal ``checksum_post``.
    """
    if swap_path is not None and swap_step is None:
        raise ValueError("swap_path requires swap_step")
    deadline = getattr(session.batcher, "max_delay_ms", None) is not None
    sha = hashlib.sha256()
    split = (hashlib.sha256(), hashlib.sha256()) if swap_step is not None else None
    accs = {p: _PhaseAccumulator(p) for p in range(model.spec.num_phases)}
    total = _PhaseAccumulator(-1)
    deferred: list = []
    swapped = False
    last_acc = total

    for step_index, step in enumerate(model.stream()):
        if swap_path is not None and step_index == swap_step and not swapped:
            # Drains everything in flight against the old plan, then adopts
            # the new artifact — deferred books settle afterwards, in order.
            session.hot_swap(swap_path)
            swapped = True
        if step.requests.shape[0] == 0:
            continue
        acc = last_acc = accs[step.phase]
        counts = session.cache_counts()
        for a in (acc, total):
            if a.batches == 0:
                a.hits0, a.misses0 = counts
        start = time.perf_counter()
        pending = [session.submit(ids) for ids in step.requests]
        if not deadline:
            session.flush()
        elapsed = time.perf_counter() - start
        hashers = [sha]
        if split is not None:
            hashers.append(split[0] if step_index < swap_step else split[1])
        # Hashing is deferred with the results so both flush modes produce
        # the identical (requests, results) interleaving per step.
        deferred.append(
            (acc, hashers, np.ascontiguousarray(step.requests).tobytes(), pending)
        )
        counts = session.cache_counts()
        for a in (acc, total):
            a.batches += 1
            a.elapsed_s += elapsed
            a.users.update(step.users.tolist())
            a.hits1, a.misses1 = counts
        if not deadline:
            _settle(deferred, total)

    if swap_path is not None and not swapped:
        raise RuntimeError(
            f"swap_step {swap_step} is beyond the end of the stream — "
            "the hot swap never happened"
        )
    if deadline:
        start = time.perf_counter()
        session.flush()
        drain = time.perf_counter() - start
        for a in (last_acc, total) if last_acc is not total else (total,):
            a.elapsed_s += drain
        _settle(deferred, total)

    report = ReplayReport(
        phases=[accs[p].report() for p in sorted(accs)],
        overall=total.report(),
        checksum=sha.hexdigest(),
        spec=model.spec.to_dict(),
        checksum_pre=split[0].hexdigest() if split else None,
        checksum_post=split[1].hexdigest() if split else None,
        swap_step=swap_step,
    )
    if slo is not None:
        slo.assert_ok(report, baseline)
    return report
