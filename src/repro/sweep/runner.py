"""Sweep execution: one-point front door plus the multi-process fleet.

:func:`execute_point` is the single way any harness trains one grid point
— the experiment runner, the serial sweep, and every pool worker call it,
so a point's result can never depend on *who* ran it.  Determinism per
point rests on three legs:

1. the dataset comes from the shared :class:`~repro.data.cache.
   DatasetCache` (materialized once by the parent, loaded from the same
   bytes by every consumer);
2. distillation teachers are pre-trained once by the parent and their
   logits shipped to workers as ``.npz`` files;
3. ``TrainSession`` itself is deterministic in its spec's seed.

Together these make an N-point sweep across W workers **bit-identical**,
point for point, to the same sweep run serially — the property the
resume test and the serial-vs-parallel test pin.

Crash safety: a point's ledger record lands atomically only after the
point fully finished, so killing a worker (or the whole parent) mid-grid
loses at most the in-flight points' compute.  :func:`resume` re-runs
exactly the unfinished points.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.sizing import bytes_for_params, embedding_param_count
from repro.data.cache import DatasetCache
from repro.pipeline.spec import PipelineSpec
from repro.sweep.ledger import SweepLedger
from repro.sweep.spec import SweepError, SweepSpec
from repro.utils.logging import log

__all__ = [
    "PointResult",
    "SweepIncompleteError",
    "device_bytes_for",
    "execute_point",
    "resume",
    "run",
]

_DATASETS_DIR = "datasets"
_TEACHERS_DIR = "teachers"
_ARTIFACTS_DIR = "artifacts"


class SweepIncompleteError(SweepError):
    """The sweep stopped with unfinished points (crash or killed worker)."""


@dataclass(frozen=True)
class PointResult:
    """One fully-executed grid point, ready for the ledger and report."""

    point_id: str
    spec: dict  # the point's PipelineSpec manifest
    metric_name: str
    metric: float
    metrics: dict
    params: int
    embedding_params: int
    device_bytes: int
    seconds: float
    artifact: str | None = None  # sweep-dir-relative artifact path
    artifact_sha: str | None = None

    def to_record(self) -> dict:
        return asdict(self)


def device_bytes_for(spec: PipelineSpec, input_vocab: int, total_params: int) -> int:
    """Analytic on-device size of the point's exported artifact.

    The embedding table ships at the spec's export width
    (``spec.bits``); everything else (towers, biases) stays FP32 — the
    same split the quantized artifact writer applies.
    """
    emb = embedding_param_count(
        spec.technique, input_vocab, spec.embedding_dim, **spec.hyper
    )
    if emb > total_params:
        raise ValueError(
            f"embedding params {emb} exceed total {total_params} — "
            f"sizing formula and model disagree"
        )
    return bytes_for_params(emb, spec.bits) + bytes_for_params(total_params - emb, 32)


def _artifact_fingerprint(path: str) -> str:
    """Content hash of an exported artifact's manifest.

    The manifest carries a sha256 per payload and no timestamps, so equal
    fingerprints mean byte-identical tensors — the cross-run identity the
    serial-vs-parallel test checks without hauling arrays around.
    """
    from repro.artifact.container import read_manifest

    manifest, _ = read_manifest(path)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def execute_point(
    spec: PipelineSpec,
    data,
    teacher_logits: np.ndarray | None = None,
    artifact_path: str | None = None,
    point_id: str = "",
) -> PointResult:
    """Train, evaluate and (optionally) export one grid point."""
    from repro.pipeline.session import TrainSession

    start = time.perf_counter()
    session = TrainSession(spec, data=data, teacher_logits=teacher_logits)
    session.fit()
    metrics = session.evaluate()
    artifact_sha = None
    if artifact_path is not None:
        session.export(artifact_path)
        artifact_sha = _artifact_fingerprint(artifact_path)
    total_params = session.model.num_parameters()
    return PointResult(
        point_id=point_id,
        spec=spec.to_manifest(),
        metric_name=session.metric_name,
        metric=float(metrics[session.metric_name]),
        metrics={k: float(v) for k, v in metrics.items()},
        params=int(total_params),
        embedding_params=int(
            embedding_param_count(
                spec.technique, data.spec.input_vocab, spec.embedding_dim, **spec.hyper
            )
        ),
        device_bytes=device_bytes_for(spec, data.spec.input_vocab, total_params),
        seconds=time.perf_counter() - start,
        artifact=None if artifact_path is None else os.path.basename(
            os.path.dirname(artifact_path)
        ) + "/" + os.path.basename(artifact_path),
        artifact_sha=artifact_sha,
    )


# -- fleet orchestration ---------------------------------------------------------


def _point_data_recipe(spec: PipelineSpec):
    """``(data_spec, pairwise, seed)`` — the cache key triple of a point."""
    data_spec = spec.data_spec()
    pairwise = spec.resolve_architecture(data_spec) == "ranknet"
    return data_spec, pairwise, spec.seed


def _teacher_key(teacher_spec: PipelineSpec) -> str:
    blob = json.dumps(teacher_spec.to_manifest(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _prepare_teachers(root: str, pending: list, cache: DatasetCache) -> dict[str, str]:
    """Pre-train each distinct inline teacher once; returns id → logits path.

    Points that name a frozen ``teacher_path`` artifact are skipped (the
    session loads it directly); points sharing a teacher spec share one
    training run and one ``.npz``.
    """
    from repro.metrics.evaluator import predict_scores
    from repro.pipeline.session import TrainSession
    from repro.train.distill import teacher_spec_for

    teacher_dir = os.path.join(root, _TEACHERS_DIR)
    paths: dict[str, str] = {}
    trained: dict[str, str] = {}
    for point_id, spec in pending:
        if spec.distill is None or spec.distill.teacher_path is not None:
            continue
        teacher_spec = teacher_spec_for(spec)
        key = _teacher_key(teacher_spec)
        if key not in trained:
            path = os.path.join(teacher_dir, f"{key}.npz")
            if not os.path.exists(path):
                os.makedirs(teacher_dir, exist_ok=True)
                log(f"[sweep] training teacher {key} ({teacher_spec.technique})")
                data = cache.load(*_point_data_recipe(teacher_spec))
                teacher = TrainSession(teacher_spec, data=data)
                teacher.fit()
                logits = predict_scores(teacher.model, data.x_train)
                tmp = f"{path}.tmp.{os.getpid()}"
                try:
                    with open(tmp, "wb") as fh:
                        np.savez(fh, logits=logits)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.remove(tmp)
            trained[key] = path
        paths[point_id] = trained[key]
    return paths


def _run_task(root: str, task: dict, fail_points: dict | None) -> None:
    """Execute one point inside whichever process owns it."""
    point_id = task["point_id"]
    if fail_points and fail_points.get(point_id) == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    spec = PipelineSpec.from_manifest(task["spec"])
    cache = DatasetCache(os.path.join(root, _DATASETS_DIR))
    data = cache.load(*_point_data_recipe(spec))
    teacher_logits = None
    if task["teacher"] is not None:
        with np.load(task["teacher"]) as archive:
            teacher_logits = archive["logits"]
    artifact_path = os.path.join(root, _ARTIFACTS_DIR, point_id)
    os.makedirs(os.path.dirname(artifact_path), exist_ok=True)
    result = execute_point(
        spec, data,
        teacher_logits=teacher_logits,
        artifact_path=artifact_path,
        point_id=point_id,
    )
    SweepLedger.open(root).record(point_id, result.to_record())
    log(
        f"[sweep] {point_id} {spec.technique}: {result.metric_name}="
        f"{result.metric:.4f} bytes={result.device_bytes}"
    )


def _worker_main(root: str, queue, fail_points: dict | None) -> None:
    # Blocking gets until the sentinel: a non-blocking poll could race the
    # parent's queue feeder thread and see an "empty" queue that is merely
    # still being filled.
    while True:
        task = queue.get()
        if task is None:
            return
        _run_task(root, task, fail_points)


def _drive(ledger: SweepLedger, workers: int, fail_points: dict | None) -> dict:
    """Complete every unfinished point of ``ledger``'s sweep; return the
    records of its current points (a stale record on disk is not one)."""
    if workers < 0:
        raise SweepError(f"workers must be >= 0, got {workers}")
    root = ledger.root
    points = ledger.spec.expand()
    done = ledger.completed_ids()
    pending = [(pid, spec) for pid, spec in points if pid not in done]
    log(
        f"[sweep] {len(points)} points ({len(points) - len(pending)} already "
        f"complete), {workers or 'serial'} workers"
    )

    if pending:
        # Parent-side preparation: every dataset and teacher materializes
        # exactly once, before any worker exists.
        cache = DatasetCache(os.path.join(root, _DATASETS_DIR))
        for _, spec in pending:
            cache.materialize(*_point_data_recipe(spec))
        teachers = _prepare_teachers(root, pending, cache)
        tasks = [
            {
                "point_id": pid,
                "spec": spec.to_manifest(),
                "teacher": teachers.get(pid),
            }
            for pid, spec in pending
        ]
        if workers == 0:
            for task in tasks:
                _run_task(root, task, fail_points)
        else:
            import multiprocessing as mp

            ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            pool_size = min(workers, len(tasks))
            queue = ctx.Queue()
            for task in tasks:
                queue.put(task)
            for _ in range(pool_size):
                queue.put(None)  # one stop sentinel per worker
            procs = [
                ctx.Process(
                    target=_worker_main,
                    args=(root, queue, fail_points),
                    daemon=True,
                )
                for _ in range(pool_size)
            ]
            for p in procs:
                p.start()
            for p in procs:
                p.join()

    records = ledger.records()
    missing = [pid for pid, _ in points if pid not in records]
    if missing:
        raise SweepIncompleteError(
            f"{len(missing)} of {len(points)} points unfinished "
            f"({', '.join(missing[:4])}{'…' if len(missing) > 4 else ''}) — "
            f"run `repro sweep resume {root}` to complete them"
        )
    return {pid: records[pid] for pid, _ in points}


def run(
    spec: SweepSpec,
    out_dir: str,
    workers: int = 1,
    fail_points: dict | None = None,
) -> dict:
    """Start a fresh sweep at ``out_dir``; returns its point records.

    ``fail_points`` (test-only, needs ``workers >= 1``) maps point ids to
    fault injections — ``"kill"`` SIGKILLs the worker that picks the point
    up, exercising the crash/resume path.
    """
    if fail_points and workers == 0:
        raise SweepError("fail_points injection requires worker processes")
    return _drive(SweepLedger.create(out_dir, spec), workers, fail_points)


def resume(out_dir: str, workers: int = 1) -> dict:
    """Finish an interrupted sweep: runs only the unrecorded points."""
    return _drive(SweepLedger.open(out_dir), workers, None)
