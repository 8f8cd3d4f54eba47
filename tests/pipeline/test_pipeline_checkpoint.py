"""Resumable checkpoints: bit-identical continuation, typed corruption errors.

The acceptance matrix: for {full, memcom, tt_rec} × {classification,
pairwise} × {adam, sgd}, resuming a mid-run checkpoint must produce final
weights and a ``History`` bit-identical to an uninterrupted ``fit()``
(wall-clock ``seconds`` excepted — it is honest elapsed time).
"""

import json
import os

import numpy as np
import pytest

from repro.artifact import FORMAT_VERSION, load_artifact, save_artifact
from repro.artifact.errors import (
    ArtifactFormatError,
    ArtifactIntegrityError,
    ArtifactVersionError,
)
from repro.pipeline import TrainSession
from repro.train import DPConfig

from pipeline_helpers import tiny_spec


def _spec_for(technique: str, task: str, optimizer: str, **kw):
    if task == "classification":
        return tiny_spec(technique=technique, dataset="newsgroup",
                         optimizer=optimizer, **kw)
    return tiny_spec(technique=technique, architecture="ranknet",
                     optimizer=optimizer, **kw)


def _assert_bit_identical(run_a: TrainSession, run_b: TrainSession, label: str = ""):
    state_a, state_b = run_a.model.state_dict(), run_b.model.state_dict()
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), f"{label}: weight {key}"
    h_a, h_b = run_a.history, run_b.history
    assert h_a.train_loss == h_b.train_loss, label
    assert h_a.val_metric == h_b.val_metric or (  # NaN-tolerant equality
        len(h_a.val_metric) == len(h_b.val_metric)
        and all(
            (np.isnan(x) and np.isnan(y)) or x == y
            for x, y in zip(h_a.val_metric, h_b.val_metric)
        )
    ), label
    assert (h_a.steps, h_a.best_epoch, h_a.metric_name) == (
        h_b.steps, h_b.best_epoch, h_b.metric_name
    ), label


def _interrupt_and_resume(spec, tmp_path, stop_after: int = 1) -> TrainSession:
    """fit → checkpoint → kill at ``stop_after`` → resume from disk → finish."""
    path = str(tmp_path / "ckpt")
    killed = TrainSession(spec)
    killed.fit(checkpoint_path=path, checkpoint_every=1, stop_after_epoch=stop_after)
    assert not killed.finished
    resumed = TrainSession.resume(path)
    assert resumed.state.epoch == stop_after
    resumed.fit()
    assert resumed.finished
    return resumed


class TestResumeMatrix:
    @pytest.mark.parametrize("technique", ["full", "memcom", "tt_rec"])
    @pytest.mark.parametrize("task", ["classification", "pairwise"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_resume_is_bit_identical(self, tmp_path, technique, task, optimizer):
        spec = _spec_for(technique, task, optimizer)
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        resumed = _interrupt_and_resume(spec, tmp_path)
        _assert_bit_identical(
            uninterrupted, resumed, f"{technique}/{task}/{optimizer}"
        )


class TestResumeVariants:
    def test_checkpointing_does_not_perturb_training(self, tmp_path, spec):
        plain = TrainSession(spec)
        plain.fit()
        checkpointed = TrainSession(spec)
        checkpointed.fit(checkpoint_path=str(tmp_path / "ck"))
        _assert_bit_identical(plain, checkpointed, "checkpoint side effects")

    def test_resume_at_later_epoch(self, tmp_path):
        spec = tiny_spec(epochs=4)
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        resumed = _interrupt_and_resume(spec, tmp_path, stop_after=3)
        _assert_bit_identical(uninterrupted, resumed, "late resume")

    def test_resume_with_rmsprop_and_scheduler(self, tmp_path):
        spec = tiny_spec(
            optimizer="rmsprop", epochs=4,
            train_overrides={"lr_schedule": "cosine"},
        )
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        resumed = _interrupt_and_resume(spec, tmp_path, stop_after=2)
        _assert_bit_identical(uninterrupted, resumed, "rmsprop+cosine")
        assert resumed.state.optimizer.lr == uninterrupted.state.optimizer.lr

    def test_resume_with_early_stopping(self, tmp_path):
        spec = tiny_spec(
            epochs=8,
            train_overrides={"early_stopping_patience": 1, "lr": 5e-2},
        )
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        resumed = _interrupt_and_resume(spec, tmp_path)
        _assert_bit_identical(uninterrupted, resumed, "early stopping")
        # Both runs stopped at the same epoch and restored the same best.
        assert resumed.state.epoch == uninterrupted.state.epoch
        assert resumed.state.stopped == uninterrupted.state.stopped

    def test_resume_dp_training(self, tmp_path):
        spec = tiny_spec(dataset="newsgroup", dp=DPConfig(0.5, l2_clip=1.0))
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        resumed = _interrupt_and_resume(spec, tmp_path)
        _assert_bit_identical(uninterrupted, resumed, "dp")
        assert resumed.trainer.steps_taken == uninterrupted.trainer.steps_taken

    def test_zip_checkpoint_round_trip(self, tmp_path, spec):
        path = str(tmp_path / "ck.zip")
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        killed = TrainSession(spec)
        killed.fit(checkpoint_path=path, stop_after_epoch=1)
        resumed = TrainSession.resume(path)
        resumed.fit()
        _assert_bit_identical(uninterrupted, resumed, "zip checkpoint")

    def test_finished_checkpoint_resumes_as_noop(self, tmp_path, spec):
        path = str(tmp_path / "done")
        session = TrainSession(spec)
        session.fit(checkpoint_path=path)
        resumed = TrainSession.resume(path)
        assert resumed.finished
        history = resumed.fit()  # no further epochs
        assert history.train_loss == session.history.train_loss

    def test_checkpoint_serves_directly(self, tmp_path, spec):
        from repro.serve.session import ServeSession

        path = str(tmp_path / "ck")
        session = TrainSession(spec)
        session.fit(checkpoint_path=path)
        serve = ServeSession.load(path)
        probe = session.data.x_eval[:16]
        direct = ServeSession.from_model(session.model)
        assert np.array_equal(serve.predict(probe), direct.predict(probe))

    def test_early_stopped_checkpoint_serves_best_weights(self, tmp_path):
        """The final checkpoint of a finished run is written *after* the
        best-weight restore, so loading it serves exactly what the
        session serves (review regression)."""
        from repro.serve.session import ServeSession

        spec = tiny_spec(
            epochs=8,
            train_overrides={"early_stopping_patience": 1, "lr": 5e-2},
        )
        path = str(tmp_path / "ck")
        session = TrainSession(spec)
        session.fit(checkpoint_path=path)
        assert session.finished
        probe = session.data.x_eval[:16]
        direct = ServeSession.from_model(session.model)
        assert np.array_equal(
            ServeSession.load(path).predict(probe), direct.predict(probe)
        )

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, spec, monkeypatch):
        """A crash mid-save must never destroy the last good checkpoint —
        the new bytes land at a temporary sibling and swap in atomically
        (review regression)."""
        import repro.pipeline.session as session_mod

        path = str(tmp_path / "ck")
        session = TrainSession(spec)
        session.fit(checkpoint_path=path, stop_after_epoch=1)
        good_epoch = TrainSession.resume(path).state.epoch

        real_collect = session_mod.collect_artifact

        def dying_collect(model, **kwargs):
            pending = real_collect(model, **kwargs)
            real_write = pending.write

            def dying_write(out):
                real_write(out)  # bytes hit the temp path...
                raise OSError("simulated kill mid-checkpoint")

            pending.write = dying_write
            return pending

        monkeypatch.setattr(session_mod, "collect_artifact", dying_collect)
        with pytest.raises(OSError, match="simulated"):
            session.fit(checkpoint_path=path, stop_after_epoch=2)
        monkeypatch.undo()
        # The original checkpoint is intact and still resumable.
        resumed = TrainSession.resume(path)
        assert resumed.state.epoch == good_epoch
        resumed.fit()
        assert resumed.finished

    def test_resumed_export_matches_uninterrupted_export(self, tmp_path, spec):
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        resumed = _interrupt_and_resume(spec, tmp_path)
        a = uninterrupted.export(str(tmp_path / "a"), bits=8)
        b = resumed.export(str(tmp_path / "b"), bits=8)
        for name, meta in a.manifest["payloads"].items():
            assert meta["sha256"] == b.manifest["payloads"][name]["sha256"], name


class TestCheckpointErrors:
    def _checkpoint(self, tmp_path, spec) -> str:
        path = str(tmp_path / "ck")
        session = TrainSession(spec)
        session.fit(checkpoint_path=path, stop_after_epoch=1)
        return path

    def test_serving_artifact_has_no_checkpoint(self, tmp_path, spec):
        session = TrainSession(spec)
        session.fit()
        path = str(tmp_path / "serving")
        session.export(path)
        artifact = load_artifact(path)
        assert not artifact.has_checkpoint
        with pytest.raises(ArtifactFormatError, match="no training checkpoint"):
            TrainSession.resume(path)

    def test_corrupted_checkpoint_payload_is_typed(self, tmp_path, spec):
        path = self._checkpoint(tmp_path, spec)
        victim = next(
            f for f in sorted(os.listdir(os.path.join(path, "payloads")))
            if f.startswith("checkpoint.opt.")
        )
        full = os.path.join(path, "payloads", victim)
        blob = bytearray(open(full, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(full, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(ArtifactIntegrityError, match="hash mismatch"):
            TrainSession.resume(path)

    def test_truncated_checkpoint_payload_is_typed(self, tmp_path, spec):
        path = self._checkpoint(tmp_path, spec)
        # checkpoint/model/* aliases the serving payloads in v3, so only the
        # optimizer slots are guaranteed their own member files.
        victim = next(
            f for f in sorted(os.listdir(os.path.join(path, "payloads")))
            if f.startswith("checkpoint.opt.")
        )
        full = os.path.join(path, "payloads", victim)
        blob = open(full, "rb").read()
        with open(full, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ArtifactIntegrityError, match="bytes"):
            TrainSession.resume(path)

    def test_tampered_spec_is_typed(self, tmp_path, spec):
        path = self._checkpoint(tmp_path, spec)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["checkpoint"]["meta"]["spec"]["optimizer_flavour"] = "quantum"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactFormatError, match="spec"):
            TrainSession.resume(path)

    def test_checkpoint_requires_fp32(self, tmp_path, spec):
        session = TrainSession(spec)
        session.fit()
        from repro.train.checkpoint import capture_state

        payload = capture_state(session.trainer, session.model, session.state)
        with pytest.raises(ValueError, match="bits=32"):
            save_artifact(
                session.model, str(tmp_path / "x"), bits=8,
                checkpoint=({"spec": {}, "train_state": payload[0]}, payload[1]),
            )


def _with_spec_field(path: str, key: str, value) -> None:
    """Add ``key: value`` to the pipeline spec stored in the checkpoint at
    ``path``, as an older writer recorded it."""
    manifest_path = os.path.join(path, "manifest.json")
    manifest = json.load(open(manifest_path))
    manifest["checkpoint"]["meta"]["spec"][key] = value
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


class TestVersionCompat:
    def test_checkpoint_with_older_spec_resumes_bit_identically(self, tmp_path):
        """Checkpoints written while sharded export existed store
        ``"shards": 0`` in their spec; it selected nothing, so they resume
        and finish exactly as an uninterrupted run."""
        spec = tiny_spec(epochs=2)
        uninterrupted = TrainSession(spec)
        uninterrupted.fit()
        path = str(tmp_path / "ckpt")
        TrainSession(spec).fit(
            checkpoint_path=path, checkpoint_every=1, stop_after_epoch=1
        )
        _with_spec_field(path, "shards", 0)
        resumed = TrainSession.resume(path)
        assert resumed.spec == spec
        resumed.fit()
        _assert_bit_identical(uninterrupted, resumed, "older spec")

    def test_checkpoint_asking_for_sharded_export_is_typed(self, tmp_path, spec):
        path = str(tmp_path / "ckpt")
        TrainSession(spec).fit(checkpoint_path=path)
        _with_spec_field(path, "shards", 4)
        with pytest.raises(ArtifactFormatError, match="shards=4.*removed"):
            TrainSession.resume(path)

    def test_v1_artifacts_still_load(self, tmp_path, spec):
        """A PR 4 container (format_version 1, no checkpoint) must keep
        loading and serving under the v2 runtime."""
        from repro.serve.session import ServeSession

        session = TrainSession(spec)
        session.fit()
        path = str(tmp_path / "v1")
        session.export(path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.load(open(manifest_path))
        assert manifest["format_version"] == FORMAT_VERSION
        manifest["format_version"] = 1
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        artifact = load_artifact(path)
        assert artifact.manifest["format_version"] == 1
        assert not artifact.has_checkpoint
        probe = session.data.x_eval[:8]
        direct = ServeSession.from_model(session.model)
        assert np.array_equal(
            ServeSession.load(artifact).predict(probe), direct.predict(probe)
        )

    def test_future_version_rejected(self, tmp_path, spec):
        session = TrainSession(spec)
        session.fit()
        path = str(tmp_path / "v99")
        session.export(path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["format_version"] = 99
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactVersionError):
            load_artifact(path)

    def test_new_exports_are_current_version(self, tmp_path, spec):
        session = TrainSession(spec)
        session.fit()
        artifact = session.export(str(tmp_path / "a"))
        assert artifact.manifest["format_version"] == FORMAT_VERSION
