"""Knowledge distillation: loss arithmetic, teacher plumbing, acceptance.

The acceptance test at the bottom pins the subsystem's production claim at
the **artifact** level: the distilled student exports at 8 bits, so under
the same on-device byte budget it affords a 4× larger hash table than a
32-bit from-scratch baseline — and wins the held-out metric served from
the quantized artifact.  (At bench scale the full-table teacher does not
out-generalize a hashed student — hashing is itself a regularizer — so a
low soft-target weight is used and the byte budget does the heavy
lifting, which is exactly the paper's accuracy-per-byte framing.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import distillation_loss, softmax_cross_entropy
from repro.nn.tensor import Tensor
from repro.pipeline import PipelineSpec
from repro.pipeline.session import TrainSession
from repro.train import DistillConfig, TrainConfig
from repro.train.distill import teacher_spec_for

RNG = np.random.default_rng(0)


def _logits(b=8, c=5):
    return Tensor(RNG.normal(size=(b, c)).astype(np.float32), requires_grad=True)


def _labels(b=8, c=5):
    return RNG.integers(0, c, size=b)


class TestDistillationLoss:
    def test_alpha_zero_is_bitwise_cross_entropy(self):
        x1, x2 = _logits(), None
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        labels = _labels()
        teacher = RNG.normal(size=x1.shape).astype(np.float32)

        hard = softmax_cross_entropy(x1, labels)
        blended = distillation_loss(x2, teacher, labels, temperature=3.0, alpha=0.0)
        assert blended.data == hard.data  # bit-identical forward
        hard.backward()
        blended.backward()
        np.testing.assert_array_equal(x1.grad, x2.grad)  # bit-identical backward

    def test_pure_soft_ignores_labels(self):
        x = _logits()
        teacher = RNG.normal(size=x.shape).astype(np.float32)
        a = distillation_loss(x, teacher, _labels(), temperature=2.0, alpha=1.0)
        b = distillation_loss(
            Tensor(x.data.copy(), requires_grad=True),
            teacher,
            np.zeros(len(x.data), dtype=np.int64),
            temperature=2.0,
            alpha=1.0,
        )
        assert a.data == b.data

    def test_soft_term_minimized_when_student_matches_teacher(self):
        teacher = RNG.normal(size=(8, 5)).astype(np.float32)
        labels = _labels()
        matched = distillation_loss(
            Tensor(teacher.copy(), requires_grad=True), teacher, labels, alpha=1.0
        )
        perturbed = distillation_loss(
            Tensor(teacher + 1.5 * RNG.normal(size=teacher.shape).astype(np.float32),
                   requires_grad=True),
            teacher, labels, alpha=1.0,
        )
        assert matched.data < perturbed.data

    def test_matched_logits_have_zero_soft_gradient(self):
        teacher = RNG.normal(size=(8, 5)).astype(np.float32)
        x = Tensor(teacher.copy(), requires_grad=True)
        distillation_loss(x, teacher, _labels(), temperature=2.0, alpha=1.0).backward()
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-7)

    def test_temperature_squared_scaling(self):
        # With teacher == student the soft CE equals the softened
        # distribution's entropy; doubling T must scale the soft term by
        # exactly T² × (entropy at 2T) / (entropy at T) — check the grad
        # instead, which is the invariant Hinton's T² buys: bounded, not
        # vanishing, as T grows.
        teacher = RNG.normal(size=(8, 5)).astype(np.float32)
        grads = []
        for t in (2.0, 20.0):
            x = _logits()
            distillation_loss(x, teacher, _labels(), temperature=t, alpha=1.0).backward()
            grads.append(np.abs(x.grad).mean())
        assert grads[1] > 0.05 * grads[0]  # T² keeps the gradient alive

    @pytest.mark.parametrize(
        "kwargs, err",
        [
            (dict(temperature=0.0), ValueError),
            (dict(temperature=-1.0), ValueError),
            (dict(alpha=-0.1), ValueError),
            (dict(alpha=1.5), ValueError),
        ],
    )
    def test_bad_hyperparameters(self, kwargs, err):
        x = _logits()
        teacher = np.zeros(x.shape, dtype=np.float32)
        with pytest.raises(err):
            distillation_loss(x, teacher, _labels(), **kwargs)

    def test_shape_mismatches(self):
        x = _logits(8, 5)
        with pytest.raises(ValueError, match="teacher"):
            distillation_loss(x, np.zeros((8, 4), np.float32), _labels())
        with pytest.raises(ValueError, match="labels"):
            distillation_loss(x, np.zeros((8, 5), np.float32), _labels(b=7))
        with pytest.raises(TypeError, match="integers"):
            distillation_loss(x, np.zeros((8, 5), np.float32), np.zeros(8))


class TestDistillConfig:
    def test_defaults_are_valid(self):
        cfg = DistillConfig()
        assert cfg.temperature == 2.0 and cfg.alpha == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(temperature=0.0),
            dict(alpha=-0.01),
            dict(alpha=1.01),
            dict(teacher_epochs=0),
            dict(teacher_path=123),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            DistillConfig(**kwargs)


def _student_spec(**overrides) -> PipelineSpec:
    defaults = dict(
        dataset="movielens",
        technique="memcom",
        hyper={"num_hash_embeddings": 16},
        embedding_dim=8,
        scale=0.01,
        cap_train=384,
        cap_eval=128,
        input_length=16,
        train=TrainConfig(epochs=1, batch_size=64, lr=3e-3, seed=0),
        monitor=False,
        seed=0,
        distill=DistillConfig(alpha=0.3, temperature=2.0, teacher_epochs=1),
    )
    defaults.update(overrides)
    return PipelineSpec(**defaults)


class TestTeacherSpec:
    def test_full_table_fp32_teacher(self):
        spec = _student_spec()
        teacher = teacher_spec_for(spec)
        assert teacher.technique == "full"
        assert teacher.hyper == {}
        assert teacher.distill is None
        assert teacher.bits == 32 and teacher.percentile is None
        assert teacher.dataset == spec.dataset and teacher.seed == spec.seed

    def test_teacher_epochs_override(self):
        spec = _student_spec(distill=DistillConfig(teacher_epochs=7))
        assert teacher_spec_for(spec).train.epochs == 7
        spec = _student_spec(distill=DistillConfig())
        assert teacher_spec_for(spec).train.epochs == spec.train.epochs

    def test_requires_distill_config(self):
        with pytest.raises(ValueError, match="no distillation config"):
            teacher_spec_for(_student_spec(distill=None))


class TestSessionPlumbing:
    def test_task_dispatches_to_distillation(self):
        assert TrainSession(_student_spec()).task == "distillation"
        assert TrainSession(_student_spec(distill=None)).task in (
            "ranking", "pointwise",
        )

    def test_injected_logits_require_distill_config(self):
        with pytest.raises(ValueError, match="no distill config"):
            TrainSession(
                _student_spec(distill=None),
                teacher_logits=np.zeros((384, 4), np.float32),
            )

    def test_injected_logits_shape_checked(self):
        session = TrainSession(
            _student_spec(), teacher_logits=np.zeros((3, 4), np.float32)
        )
        with pytest.raises(ValueError, match="teacher logits shape"):
            session.teacher_logits()

    def test_injected_and_inline_teachers_train_identical_students(self):
        # The sweep runner pre-trains one shared teacher and injects its
        # logits; a standalone session trains the same teacher inline.
        # Both paths must produce bit-identical student weights.
        inline = TrainSession(_student_spec())
        logits = inline.teacher_logits()
        inline.fit()

        injected = TrainSession(_student_spec(), teacher_logits=logits.copy())
        injected.fit()
        for p_a, p_b in zip(inline.model.parameters(), injected.model.parameters()):
            np.testing.assert_array_equal(p_a.data, p_b.data)

    def test_frozen_artifact_teacher_matches_inline(self, tmp_path):
        spec = _student_spec()
        teacher = TrainSession(teacher_spec_for(spec))
        teacher.fit()
        path = str(tmp_path / "teacher")
        teacher.export(path, bits=32)

        from_artifact = TrainSession(
            _student_spec(
                distill=DistillConfig(alpha=0.3, temperature=2.0, teacher_path=path)
            )
        ).teacher_logits()
        inline = TrainSession(spec).teacher_logits()
        np.testing.assert_allclose(from_artifact, inline, atol=1e-5)

    def test_distillation_moves_the_weights(self):
        plain = TrainSession(_student_spec(distill=None))
        plain.fit()
        distilled = TrainSession(_student_spec())
        distilled.fit()
        flat = lambda s: np.concatenate(
            [p.data.ravel() for p in s.model.parameters()]
        )
        assert not np.array_equal(flat(plain), flat(distilled))


class TestTrainerDispatch:
    @staticmethod
    def _model_and_batch(tiny_spec):
        from repro.models.builder import build_classifier

        model = build_classifier(
            "full",
            tiny_spec.input_vocab,
            tiny_spec.output_vocab,
            input_length=tiny_spec.input_length,
            embedding_dim=8,
            rng=0,
        )
        x = np.zeros((4, tiny_spec.input_length), dtype=np.int64)
        y = np.zeros(4, dtype=np.int64)
        return model, x, y

    def test_distillation_requires_config_and_teacher(self, tiny_spec):
        from repro.train.trainer import Trainer

        model, x, y = self._model_and_batch(tiny_spec)
        with pytest.raises(ValueError, match="requires a DistillConfig"):
            Trainer(TrainConfig(epochs=1)).fit(model, x, y, task="distillation")

    def test_distillation_cannot_wrap_pairwise(self, tiny_spec):
        from repro.train.trainer import Trainer

        model, x, y = self._model_and_batch(tiny_spec)
        with pytest.raises(ValueError, match="cannot wrap"):
            Trainer(TrainConfig(epochs=1)).fit(
                model, x, y,
                task="distillation",
                teacher=np.zeros((4, tiny_spec.output_vocab), np.float32),
                distill=DistillConfig(),
                hard_task="pairwise",
            )

    def test_teacher_row_count_must_match(self, tiny_spec):
        from repro.train.trainer import Trainer

        model, x, y = self._model_and_batch(tiny_spec)
        with pytest.raises(ValueError, match="teacher logits"):
            Trainer(TrainConfig(epochs=1)).fit(
                model, x, y,
                task="distillation",
                teacher=np.zeros((3, tiny_spec.output_vocab), np.float32),
                distill=DistillConfig(),
                hard_task="classification",
            )


class TestAcceptance:
    def test_distilled_artifact_beats_same_byte_budget_scratch(self, tmp_path):
        """The subsystem's production claim, end to end through the sweep
        front door: distill a student, export it quantized, and the served
        artifact beats a from-scratch 32-bit baseline that spends the same
        device bytes (8-bit export affords a 4× larger hash table)."""
        from repro.metrics.ndcg import ndcg_single_relevant
        from repro.serve.session import ServeSession
        from repro.sweep.runner import execute_point

        base = dict(
            dataset="movielens",
            technique="memcom",
            scale=0.02,
            cap_train=2000,
            cap_eval=800,
            monitor=False,
            seed=1,
        )
        train = TrainConfig(epochs=12, batch_size=128, lr=1e-3, seed=1)
        scratch_spec = PipelineSpec(
            **base, hyper={"num_hash_embeddings": 8}, train=train, bits=32
        )
        student_spec = PipelineSpec(
            **base, hyper={"num_hash_embeddings": 32}, train=train, bits=8,
            distill=DistillConfig(alpha=0.1, temperature=2.0, teacher_epochs=12),
        )
        data = scratch_spec.load_data()

        def served_ndcg(spec, tag):
            path = str(tmp_path / tag)
            result = execute_point(spec, data, artifact_path=path)
            session = ServeSession.load(path)
            scores = np.concatenate(
                [session.predict(data.x_eval[i:i + 512])
                 for i in range(0, len(data.x_eval), 512)]
            )
            return result, ndcg_single_relevant(scores, data.y_eval, k=10)

        scratch, scratch_ndcg = served_ndcg(scratch_spec, "scratch")
        student, student_ndcg = served_ndcg(student_spec, "student")

        # Same budget: the 8-bit student must not spend more device bytes.
        assert student.device_bytes <= scratch.device_bytes
        # And it must win the held-out metric, served from the artifact.
        assert student_ndcg > scratch_ndcg
