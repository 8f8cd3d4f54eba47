"""`TrainSession` — the one front door to the training stack.

Training grew organically across PRs 1–4: model factories in
``models/builder``, three loop entry points on ``Trainer``/``DPTrainer``,
the experiment runner's private ``_build``, and hand-rolled export glue in
every example.  The session collapses that into one object driven by a
validated :class:`~repro.pipeline.spec.PipelineSpec`:

* :meth:`fit` — task-dispatched training with optional per-epoch durable
  checkpoints;
* :meth:`evaluate` — the task's held-out metrics;
* :meth:`save_checkpoint` / :meth:`resume` — persist / continue a run
  through the v2 artifact container, **bit-identically** to a run that was
  never interrupted;
* :meth:`export` — the versioned serving artifact
  (:mod:`repro.artifact`);
* :meth:`serve_session` — a live :class:`repro.serve.ServeSession` over
  the trained model.

A checkpoint *is* a serving artifact (FP32) with a ``checkpoint`` manifest
section on top, so ``ServeSession.load`` can serve any checkpoint directly
and the training state rides the same sha256-verified payload index
(DESIGN.md §9).
"""

from __future__ import annotations

import glob
import os
import shutil
import threading

import numpy as np

from repro.artifact.container import (
    ModelArtifact,
    collect_artifact,
    load_artifact,
    read_manifest,
    save_artifact,
    save_delta,
)
from repro.artifact.errors import ArtifactError, ArtifactFormatError
from repro.data.synthetic import Dataset, PairwiseDataset
from repro.metrics.evaluator import evaluate_classification, evaluate_ranking
from repro.pipeline.spec import PipelineSpec
from repro.train.checkpoint import capture_state, restore_state
from repro.train.trainer import History, TrainState

__all__ = ["CheckpointWrite", "TrainSession"]

_TASK_OF = {"classifier": "classification", "pointwise": "ranking", "ranknet": "pairwise"}


def _artifact_logits(path: str, x: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Teacher logits over ``x`` from a frozen serving artifact at ``path``."""
    from repro.serve.session import ServeSession

    session = ServeSession.load(path)
    chunks = [
        session.predict(x[start : start + batch_size])
        for start in range(0, len(x), batch_size)
    ]
    return np.concatenate(chunks, axis=0)


def _remove_path(path: str) -> None:
    """Delete a checkpoint artifact — dir or zip — if present."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


class CheckpointWrite:
    """Handle to an in-flight asynchronous checkpoint write.

    Returned by ``save_checkpoint(..., blocking=False)``.  The model was
    already snapshotted synchronously (the expensive serialization and
    disk I/O are what run in the background), so training may mutate the
    model freely while this is pending.  :meth:`wait` joins the writer and
    either returns the published artifact or re-raises the write's error.
    """

    def __init__(self, thread: threading.Thread, box: dict) -> None:
        self._thread = thread
        self._box = box

    @property
    def done(self) -> bool:
        return not self._thread.is_alive()

    def wait(self, timeout: float | None = None) -> ModelArtifact:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("checkpoint write still in flight")
        if "error" in self._box:
            raise self._box["error"]
        return self._box["artifact"]


class TrainSession:
    """A configured training run: data + model + trainer behind one façade."""

    def __init__(
        self,
        spec: PipelineSpec,
        data: Dataset | PairwiseDataset | None = None,
        callbacks: list | None = None,
        teacher_logits: np.ndarray | None = None,
    ) -> None:
        if not isinstance(spec, PipelineSpec):
            raise TypeError(f"spec must be a PipelineSpec, got {type(spec).__name__}")
        self.spec = spec
        self.data = data if data is not None else spec.load_data()
        self.architecture = spec.resolve_architecture(self.data.spec)
        needs_pairs = self.architecture == "ranknet"
        if needs_pairs != isinstance(self.data, PairwiseDataset):
            raise ValueError(
                f"architecture {self.architecture!r} "
                f"{'requires' if needs_pairs else 'cannot train on'} pairwise data"
            )
        if teacher_logits is not None and spec.distill is None:
            raise ValueError("teacher_logits given but the spec has no distill config")
        self.model = spec.build_model(self.data.spec)
        self.trainer = spec.build_trainer(callbacks)
        self._teacher_logits = teacher_logits
        self._state: TrainState | None = None
        self._ckpt_write: CheckpointWrite | None = None

    # -- introspection ----------------------------------------------------------

    @property
    def task(self) -> str:
        if self.spec.distill is not None:
            return "distillation"
        return _TASK_OF[self.architecture]

    @property
    def metric_name(self) -> str:
        return "accuracy" if self.architecture == "classifier" else "ndcg"

    @property
    def state(self) -> TrainState | None:
        """The resumable training state (None before the first ``fit``)."""
        return self._state

    @property
    def history(self) -> History | None:
        return self._state.history if self._state is not None else None

    @property
    def finished(self) -> bool:
        return self._state is not None and self._state.finished(self.spec.train.epochs)

    # -- lifecycle --------------------------------------------------------------

    def fit(
        self,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        stop_after_epoch: int | None = None,
        checkpoint_keep: int = 3,
        checkpoint_blocking: bool = True,
    ) -> History:
        """Train (or continue training) per the spec; returns the history.

        ``checkpoint_path`` writes a durable checkpoint every
        ``checkpoint_every`` epochs (and always at the final one);
        ``stop_after_epoch`` cuts the run after that many *total* epochs
        without marking it finished — call ``fit`` again (or
        :meth:`resume` the checkpoint) to continue.

        ``checkpoint_keep`` bounds the rotated-checkpoint history (see
        :meth:`save_checkpoint`); ``checkpoint_blocking=False`` overlaps
        checkpoint I/O with the next epoch's training — the final write is
        always waited out before ``fit`` returns, so a completed ``fit``
        means a durable checkpoint.
        """
        if checkpoint_every <= 0:
            raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
        spec = self.spec
        total = spec.train.epochs

        hook = None
        if checkpoint_path is not None:
            def hook(state: TrainState) -> None:
                # A finished run checkpoints *after* finalization (below),
                # so the serving payload carries the restored best weights;
                # mid-run epochs and simulated kills checkpoint here, with
                # the continuation state the next epoch needs.
                due = (
                    not state.finished(total) and state.epoch % checkpoint_every == 0
                ) or (stop_after_epoch is not None and state.epoch >= stop_after_epoch)
                if due:
                    self.save_checkpoint(
                        checkpoint_path, state=state,
                        keep=checkpoint_keep, blocking=checkpoint_blocking,
                    )

        d = self.data
        x_val = y_val = None
        if self.architecture == "ranknet":
            if spec.monitor:
                x_val, y_val = d.x_eval, d.pos_eval
            history = self._run_fit(
                d.x_train, d.pos_train, x_val, y_val, neg=d.neg_train,
                epoch_hook=hook, max_epochs=stop_after_epoch,
            )
        else:
            if spec.monitor:
                x_val, y_val = d.x_eval, d.y_eval
            distill_kwargs = {}
            if spec.distill is not None:
                distill_kwargs = dict(
                    teacher=self.teacher_logits(),
                    distill=spec.distill,
                    hard_task=_TASK_OF[self.architecture],
                )
            history = self._run_fit(
                d.x_train, d.y_train, x_val, y_val,
                epoch_hook=hook, max_epochs=stop_after_epoch,
                **distill_kwargs,
            )
        if checkpoint_path is not None and self.finished:
            # Post-finalization write: the model now holds the best weights
            # (when early stopping restored them), so ServeSession.load on a
            # finished checkpoint serves exactly what the session serves.
            self.save_checkpoint(
                checkpoint_path, keep=checkpoint_keep, blocking=checkpoint_blocking
            )
        self.wait_for_checkpoints()
        return history

    def _run_fit(self, x, y, x_val, y_val, **kwargs) -> History:
        history = self.trainer.fit(
            self.model, x, y, x_val, y_val, task=self.task,
            state=self._state, **kwargs,
        )
        self._state = self.trainer.last_state
        return history

    def teacher_logits(self) -> np.ndarray:
        """The frozen teacher's (N_train, C) logits for distillation.

        Resolution order: logits injected at construction (the sweep runner
        pre-trains one shared teacher per grid), else a frozen artifact at
        ``distill.teacher_path`` served through ``ServeSession``, else a
        full-table teacher trained inline from
        :func:`repro.train.distill.teacher_spec_for` — deterministic in the
        spec's seed either way, so a resumed student recomputes identical
        logits and stays bit-identical to an uninterrupted run.
        """
        distill = self.spec.distill
        if distill is None:
            raise ValueError("spec carries no distillation config")
        if self._teacher_logits is None:
            if distill.teacher_path is not None:
                self._teacher_logits = _artifact_logits(
                    distill.teacher_path, self.data.x_train
                )
            else:
                from repro.train.distill import teacher_spec_for

                teacher = TrainSession(teacher_spec_for(self.spec), data=self.data)
                teacher.fit()
                from repro.metrics.evaluator import predict_scores

                self._teacher_logits = predict_scores(
                    teacher.model, self.data.x_train
                )
        logits = np.asarray(self._teacher_logits)
        expected = (len(self.data.x_train), self.data.spec.output_vocab)
        if logits.shape != expected:
            raise ValueError(
                f"teacher logits shape {logits.shape} != expected {expected}"
            )
        return logits

    def evaluate(self) -> dict[str, float]:
        """Held-out metrics for the task (accuracy family or nDCG family)."""
        d = self.data
        if self.architecture == "classifier":
            return evaluate_classification(self.model, d.x_eval, d.y_eval)
        y = d.pos_eval if self.architecture == "ranknet" else d.y_eval
        return evaluate_ranking(self.model, d.x_eval, y, k=self.spec.ndcg_k)

    # -- persistence ------------------------------------------------------------

    def save_checkpoint(
        self,
        path: str,
        state: TrainState | None = None,
        *,
        keep: int = 3,
        blocking: bool = True,
    ) -> ModelArtifact | CheckpointWrite:
        """Write a durable, resumable checkpoint artifact at ``path``.

        The container is a complete FP32 serving artifact plus the
        training state (optimizer slots, RNG positions, history, early-stop
        bookkeeping) and the spec itself — everything
        :meth:`resume` needs, every tensor sha256-verified on load.

        The write is crash-safe: the new checkpoint lands at a sibling
        temporary path and is swapped in only once fully written, so a
        kill mid-save never destroys the previous good checkpoint (the
        exact scenario checkpoints exist for).

        **Rotation** — ``path`` always holds the newest checkpoint; the
        checkpoint it displaces is rolled to a ``<path>.keep-<epoch>``
        sibling, and only the ``keep`` most recent survive (``keep=1``
        keeps just ``path`` itself).  Any rotated sibling resumes exactly
        like the primary.

        **Async** — ``blocking=False`` snapshots the model synchronously
        (cheap: array copies) and runs serialization + disk I/O on a
        background thread, returning a :class:`CheckpointWrite` handle;
        training continues while the bytes land.  Writes are serialized:
        a new save first waits out the previous one, and any background
        failure surfaces at that point (or at :meth:`wait_for_checkpoints`)
        rather than being swallowed.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        state = state if state is not None else self._state
        if state is None:
            raise ValueError("nothing to checkpoint yet — call fit() first")
        # One writer at a time: surfaces a prior async failure and keeps
        # two writes from racing on the same rotation siblings.
        self.wait_for_checkpoints()
        meta, arrays = capture_state(self.trainer, self.model, state)
        ckpt_meta = {"spec": self.spec.to_manifest(), "train_state": meta}
        # collect_artifact flips the model to eval mode while snapshotting
        # the tower; a mid-fit checkpoint must hand the loop back unchanged.
        was_training = self.model.training
        try:
            pending = collect_artifact(
                self.model, bits=32, checkpoint=(ckpt_meta, arrays)
            )
        finally:
            self.model.train(was_training)
        # Everything past this line touches only the frozen snapshot.
        if blocking:
            return self._publish_checkpoint(pending, path, keep)
        box: dict = {}

        def run() -> None:
            try:
                box["artifact"] = self._publish_checkpoint(pending, path, keep)
            except BaseException as exc:  # noqa: BLE001 — surfaced at wait()
                box["error"] = exc

        thread = threading.Thread(
            target=run, name="repro-checkpoint-writer", daemon=True
        )
        thread.start()
        self._ckpt_write = CheckpointWrite(thread, box)
        return self._ckpt_write

    def wait_for_checkpoints(self) -> ModelArtifact | None:
        """Block until the in-flight async checkpoint (if any) is published.

        Returns its artifact, or None when nothing was pending.  Re-raises
        the background error if the write failed.
        """
        write, self._ckpt_write = self._ckpt_write, None
        if write is None:
            return None
        return write.wait()

    @staticmethod
    def _rotated_path(path: str, epoch: int) -> str:
        if path.endswith(".zip"):
            return f"{path[:-4]}.keep-{epoch:05d}.zip"
        return f"{path}.keep-{epoch:05d}"

    @staticmethod
    def _rotation_pattern(path: str) -> str:
        base = path[:-4] if path.endswith(".zip") else path
        return glob.escape(base) + ".keep-*" + (".zip" if path.endswith(".zip") else "")

    def _rotate_checkpoint(self, path: str, keep: int) -> None:
        """Roll the checkpoint being displaced at ``path`` aside; prune.

        The displaced checkpoint moves to ``<path>.keep-<epoch>`` (its own
        epoch read from its manifest — no payloads touched), and rotated
        siblings beyond the ``keep - 1`` newest are deleted.  An unreadable
        displaced checkpoint (torn by an unclean kill) is deleted rather
        than archived — rotation keeps good history, not wreckage.
        """
        if os.path.exists(path):
            if keep == 1:
                _remove_path(path)
            else:
                try:
                    manifest, _ = read_manifest(path)
                    epoch = int(manifest["checkpoint"]["meta"]["train_state"]["epoch"])
                except (ArtifactError, KeyError, TypeError, ValueError):
                    _remove_path(path)
                else:
                    rotated = self._rotated_path(path, epoch)
                    _remove_path(rotated)  # same-epoch re-save: replace
                    os.rename(path, rotated)
        siblings = sorted(glob.glob(self._rotation_pattern(path)))
        for stale in siblings[: max(0, len(siblings) - (keep - 1))]:
            _remove_path(stale)

    def _publish_checkpoint(
        self, pending, path: str, keep: int
    ) -> ModelArtifact:
        # The container writer picks zip-vs-dir off the path suffix, so the
        # temporary path must keep it.
        tmp = path[:-4] + ".tmp.zip" if path.endswith(".zip") else path + ".tmp"
        _remove_path(tmp)
        artifact = pending.write(tmp)
        self._rotate_checkpoint(path, keep)
        if path.endswith(".zip"):
            os.replace(tmp, path)  # atomic file swap
        else:
            os.rename(tmp, path)  # rotation just vacated ``path``
        artifact.path = path
        return artifact

    @classmethod
    def resume(
        cls,
        path: str | ModelArtifact,
        data: Dataset | PairwiseDataset | None = None,
        callbacks: list | None = None,
    ) -> "TrainSession":
        """Rebuild a session from a checkpoint written by
        :meth:`save_checkpoint`; ``fit()`` then continues the run
        bit-identically to one that was never interrupted.

        ``data`` skips dataset regeneration (it must be the same data the
        checkpointed run trained on — by default it is regenerated from
        the stored spec, which guarantees that).
        """
        artifact = path if isinstance(path, ModelArtifact) else load_artifact(path)
        if not artifact.has_checkpoint:
            raise ArtifactFormatError(
                f"artifact at {artifact.path!r} carries no training checkpoint "
                "(serving-only export?) — nothing to resume"
            )
        meta = artifact.checkpoint_meta()
        arrays = artifact.checkpoint_arrays()
        try:
            spec = PipelineSpec.from_manifest(meta["spec"])
        except (KeyError, ValueError) as exc:
            raise ArtifactFormatError(
                f"checkpoint carries an unusable pipeline spec: {exc}"
            ) from exc
        session = cls(spec, data=data, callbacks=callbacks)
        try:
            session._state = restore_state(
                session.trainer, session.model, meta["train_state"], arrays
            )
        except (KeyError, ValueError) as exc:
            raise ArtifactFormatError(
                f"checkpoint training state does not fit the rebuilt pipeline: {exc}"
            ) from exc
        return session

    # -- deployment -------------------------------------------------------------

    def export(
        self,
        path: str,
        bits: int | None = None,
        percentile: float | None = None,
    ) -> ModelArtifact:
        """Export the trained model as a serving artifact (spec defaults)."""
        bits = self.spec.bits if bits is None else bits
        percentile = self.spec.percentile if percentile is None else percentile
        was_training = self.model.training
        try:
            return save_artifact(self.model, path, bits=bits, percentile=percentile)
        finally:
            self.model.train(was_training)

    def export_delta(
        self,
        path: str,
        parent: str,
        touched_rows=None,
        bits: int | None = None,
        percentile: float | None = None,
    ) -> ModelArtifact:
        """Export only what changed since the ``parent`` export.

        The continuous-deployment step: after more training, ship a delta
        artifact instead of the full table — unchanged payloads become
        parent references, sparse row changes become patches
        (:func:`repro.artifact.save_delta`), and a serving session adopts
        the result via ``ServeSession.hot_swap(path)``.
        """
        bits = self.spec.bits if bits is None else bits
        percentile = self.spec.percentile if percentile is None else percentile
        was_training = self.model.training
        try:
            return save_delta(
                self.model, path, parent, touched_rows,
                bits=bits, percentile=percentile,
            )
        finally:
            self.model.train(was_training)

    def serve_session(self, config=None, **overrides):
        """A :class:`repro.serve.ServeSession` frozen from this model."""
        from repro.serve.session import ServeSession

        return ServeSession.from_model(self.model, config, **overrides)

    def __repr__(self) -> str:
        epoch = self._state.epoch if self._state is not None else 0
        return (
            f"TrainSession({self.spec.dataset}/{self.architecture}/"
            f"{self.spec.technique}, epoch {epoch}/{self.spec.train.epochs})"
        )
