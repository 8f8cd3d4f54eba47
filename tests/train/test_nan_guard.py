"""Trainer failure injection: non-finite losses and gradients fail fast and loud."""

import numpy as np
import pytest

from repro.models.builder import build_classifier, build_pointwise_ranker
from repro.train.dp import DPConfig, DPTrainer
from repro.train.trainer import TrainConfig, Trainer


class TestNaNGuard:
    def test_diverging_lr_raises_floating_point_error(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        # Poison a weight so the first forward produces a non-finite loss.
        model.parameters()[0].data[:] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=64, lr=1e-3, seed=0)
        # inf · 0 in the poisoned forward warns before the guard raises.
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                Trainer(cfg).fit(model, ds.x_train, ds.y_train)

    def test_error_message_names_epoch_and_lr(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        model.parameters()[0].data[:] = np.nan
        with pytest.raises(FloatingPointError, match="epoch 1.*lr="):
            Trainer(TrainConfig(epochs=1, batch_size=64)).fit(model, ds.x_train, ds.y_train)

    def test_healthy_training_unaffected(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        hist = Trainer(TrainConfig(epochs=1, batch_size=64)).fit(model, ds.x_train, ds.y_train)
        assert np.isfinite(hist.train_loss).all()

    def test_loss_message_drops_clip_hint_when_clipping(self, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        model = build_classifier(
            "full", spec.input_vocab, spec.output_vocab,
            input_length=spec.input_length, embedding_dim=8, rng=0,
        )
        model.parameters()[0].data[:] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=64, grad_clip_norm=1.0)
        with pytest.raises(FloatingPointError, match="epoch 1.*lr=") as info:
            Trainer(cfg).fit(model, ds.x_train, ds.y_train)
        assert "grad_clip_norm" not in str(info.value)


def _planting(base):
    """``base`` with a NaN planted in one multiplier gradient at batch 3,
    after snapshotting the weights that step would update."""

    class Planting(base):
        def __init__(self, *args, model):
            super().__init__(*args)
            self.model, self.calls, self.before = model, 0, None

        def _process_gradients(self, opt, batch_size):
            self.calls += 1
            if self.calls == 3:
                self.model.embedding.multiplier.raw_grad.values[0, 0] = np.nan
                self.before = self.model.state_dict()
            super()._process_gradients(opt, batch_size)

    return Planting


class TestGradientGuard:
    @pytest.mark.parametrize("kind", ["clip", "dp"])
    def test_planted_nan_gradient_raises_before_the_step(self, kind):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 50, size=(160, 4))
        y = x[:, 0] % 6
        model = build_pointwise_ranker(
            "memcom", 50, 6, input_length=4, embedding_dim=8, rng=0, num_hash_embeddings=8
        )
        cfg = TrainConfig(epochs=2, batch_size=16, grad_clip_norm=1.0, shuffle=False)
        if kind == "clip":
            trainer = _planting(Trainer)(cfg, model=model)
        else:
            trainer = _planting(DPTrainer)(cfg, DPConfig(noise_multiplier=0.5), model=model)
        with pytest.raises(
            FloatingPointError,
            match=r"epoch 1, batch 3 \(stage: gradient, parameter 'embedding.multiplier'\)",
        ):
            trainer.fit(model, x, y, task="pointwise")
        assert trainer.calls == 3
        after = model.state_dict()
        assert after.keys() == trainer.before.keys()
        for key, value in trainer.before.items():
            assert after[key].tobytes() == value.tobytes(), key
