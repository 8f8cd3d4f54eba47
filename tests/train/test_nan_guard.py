"""Trainer failure injection: non-finite losses fail fast and loud."""

import numpy as np
import pytest

from repro.models.builder import build_classifier
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
