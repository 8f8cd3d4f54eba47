"""The perf-trajectory bench: scenario grid → ``BENCH_traffic.json``.

One canonical workload (:data:`BENCH_SPEC`) replayed through a grid of
serving configurations — technique × storage bits × worker processes —
each producing per-phase latency percentiles, throughput, and hit rate.
The grid result is written as ``BENCH_traffic.json`` at the repo root and
*committed*: that file is the cross-PR perf record, and
``benchmarks/gate.py`` fails CI when a fresh run regresses p99 or
requests/sec against it by more than the tolerance.

Comparability rules (what makes the gate meaningful):

* ``--smoke`` shrinks the *duration* (steps per phase), never the per-step
  shape — vocab, input length, batch width, and session structure are
  identical.  Duration still changes the warm-up *fraction* (cache fill,
  session ramp), so a recorded document carries the grid at both
  durations and the gate compares a smoke run against the record's
  ``smoke_scenarios`` section — like against like.
* every result carries ``calibration_ms``, the wall time of a fixed NumPy
  workload measured in the same process; the gate normalizes latencies by
  it so a slower CI machine doesn't read as a code regression.
* the request stream is pinned by seed, and each scenario records the
  replay ``checksum`` so bit-level serving changes are visible in the diff
  of the JSON itself;
* each scenario is replayed :data:`DEFAULT_REPEATS` times and the run
  with the lowest p99 is recorded — scheduler noise only ever inflates
  latency, so the minimum estimates what the *code* costs and keeps the
  gate's tolerance about regressions rather than machine load.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.core.registry import default_hyper
from repro.models.builder import build_pointwise_ranker
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic.model import TrafficModel, TrafficSpec
from repro.traffic.replay import ReplayReport, replay
from repro.traffic.slo import SLOSpec

__all__ = [
    "BENCH_SPEC", "SCENARIOS", "scenario_key", "run_scenario", "run_scenarios",
    "write_report", "calibration_ms", "DEFAULT_BENCH_PATH", "DEFAULT_REPEATS",
]

#: schema version of BENCH_traffic.json (bump on incompatible layout change)
SCHEMA_VERSION = 1

#: repo-root perf record (relative to CWD; benches resolve it themselves)
DEFAULT_BENCH_PATH = "BENCH_traffic.json"

#: the canonical replayed workload — drifting head, 1M users, bursty sessions
BENCH_SPEC = TrafficSpec(
    vocab=20_000,
    input_length=16,
    num_users=1_000_000,
    alpha=1.1,
    num_phases=3,
    steps_per_phase=24,
    drift_fraction=0.6,
    head_size=256,
    sessions_per_step=24.0,
    burst_every=8,
    burst_factor=4.0,
    session_length=6,
    session_items=12,
    locality=0.7,
    seed=7,
)

#: (technique, bits, workers) — the grid the perf record tracks
SCENARIOS: tuple[tuple[str, int, int], ...] = (
    ("memcom", 32, 0),
    ("memcom", 8, 0),
    ("memcom", 4, 0),
    ("memcom", 32, 2),
    ("tt_rec", 32, 0),
    ("tt_rec", 8, 0),
    ("full", 32, 0),
)

_EMBEDDING_DIM = 32
_NUM_ITEMS = 50
_CACHE_ROWS = 4096
_MAX_BATCH = 64

#: replays per scenario; the best run (lowest p99) is recorded.  Scheduler
#: noise is one-sided — contention only ever *inflates* latency — so the
#: minimum over repeats estimates what the code costs, and the gate
#: compares code against code instead of noise against noise.
DEFAULT_REPEATS = 3


def scenario_key(technique: str, bits: int, workers: int) -> str:
    width = "fp32" if bits == 32 else f"int{bits}"
    return f"{technique}-{width}-w{workers}"


def calibration_ms(iters: int = 30) -> float:
    """Median wall time of a fixed NumPy workload — the machine-speed yardstick.

    The gate divides latencies (and multiplies throughput) by this, so a
    perf record taken on a fast workstation can still gate a CI runner:
    only *relative* regressions — the code getting slower on the same
    metal — trip it.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192)).astype(np.float32)
    b = rng.standard_normal((192, 192)).astype(np.float32)
    samples = []
    for _ in range(iters):
        start = time.perf_counter()
        c = a @ b
        np.argsort(c, axis=None)
        samples.append(time.perf_counter() - start)
    return float(1e3 * np.median(samples))


def _build_model(technique: str, vocab: int, seed: int = 0):
    hyper = default_hyper(technique, vocab, _EMBEDDING_DIM, hash_fraction=16)
    return build_pointwise_ranker(
        technique, vocab, _NUM_ITEMS,
        input_length=BENCH_SPEC.input_length,
        embedding_dim=_EMBEDDING_DIM,
        rng=seed,
        **hyper,
    )


def run_scenario(
    technique: str,
    bits: int,
    workers: int,
    spec: TrafficSpec,
    artifact_dir: str,
    repeats: int = DEFAULT_REPEATS,
) -> ReplayReport:
    """Replay ``spec``'s traffic through one serving configuration.

    Every scenario serves through the deployment contract — model →
    on-disk artifact → ``ServeSession.load`` — because that is the path a
    device takes, and because ``workers >= 1`` needs the artifact as its
    respawn source anyway.  Artifacts are cached per technique in
    ``artifact_dir`` so the grid exports each table once.

    The scenario replays ``repeats`` times against a fresh (cold) session
    each time and keeps the run with the lowest overall p99 — see
    :data:`DEFAULT_REPEATS` for why the minimum is the honest estimator.
    Every repeat serves the identical pinned stream, so the kept run's
    ``checksum`` is the same whichever repeat wins.
    """
    from repro.artifact import save_artifact

    path = os.path.join(artifact_dir, f"{technique}.artifact")
    if not os.path.exists(path):
        save_artifact(_build_model(technique, spec.vocab), path, bits=32)
    config = ServeConfig(
        bits=None if bits == 32 else bits,
        cache_rows=_CACHE_ROWS,
        cache_min_count=2,
        cache_ttl_batches=32,
        max_batch=_MAX_BATCH,
        workers=workers,
    )
    model = TrafficModel(spec)
    best: ReplayReport | None = None
    for _ in range(max(1, int(repeats))):
        with ServeSession.load(path, config) as session:
            report = replay(session, model)
        if best is None or report.p99_ms < best.p99_ms:
            best = report
    return best


def run_scenarios(
    smoke: bool = False,
    seed: int | None = None,
    scenarios=SCENARIOS,
    slo: SLOSpec | None = None,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Run the grid; return the ``BENCH_traffic.json`` document as a dict.

    ``smoke`` keeps the per-step shape and cuts phase duration to a
    quarter.  ``slo`` (when given) is asserted per scenario — the bench
    then doubles as the service-level smoke test.  ``repeats`` is the
    per-scenario best-of-N (noise suppression; see :func:`run_scenario`).
    """
    spec = BENCH_SPEC if seed is None else BENCH_SPEC.with_seed(seed)
    if smoke:
        spec = replace(spec, steps_per_phase=max(6, spec.steps_per_phase // 4))
    doc = {
        "schema": SCHEMA_VERSION,
        "smoke": bool(smoke),
        "repeats": max(1, int(repeats)),
        "calibration_ms": calibration_ms(),
        "spec": spec.to_dict(),
        "scenarios": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-traffic-bench-") as tmp:
        for technique, bits, workers in scenarios:
            report = run_scenario(technique, bits, workers, spec, tmp, repeats)
            if slo is not None:
                slo.assert_ok(report)
            entry = {
                "technique": technique,
                "bits": bits,
                "workers": workers,
            }
            entry.update(report.to_dict())
            doc["scenarios"][scenario_key(technique, bits, workers)] = entry
    return doc


def write_report(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_table(doc: dict) -> str:
    lines = [
        f"{'scenario':>16} {'requests':>9} {'p50':>8} {'p95':>8} {'p99':>8} "
        f"{'req/s':>9} {'hit':>6}"
    ]
    for key in sorted(doc["scenarios"]):
        s = doc["scenarios"][key]
        hit = "—" if s["hit_rate"] is None else f"{100 * s['hit_rate']:.1f}%"
        lines.append(
            f"{key:>16} {s['requests']:>9,} {s['p50_ms']:>8.2f} "
            f"{s['p95_ms']:>8.2f} {s['p99_ms']:>8.2f} {s['rps']:>9,.0f} {hit:>6}"
        )
    lines.append(f"calibration: {doc['calibration_ms']:.3f} ms (machine yardstick)")
    return "\n".join(lines)
