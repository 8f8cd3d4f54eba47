"""The three paper architectures with pluggable compression."""

import numpy as np
import pytest

from repro.metrics.evaluator import predict_scores
from repro.models.builder import (
    build_classifier,
    build_pointwise_ranker,
    build_ranknet,
    model_param_count,
)
from repro.models.classifier import EmbeddingClassifier, classifier_head_params
from repro.models.pointwise import PointwiseRanker, pointwise_head_params
from repro.models.ranknet import RankNet, ranknet_head_params
from repro.nn.tensor import no_grad

V, C, L, E = 120, 9, 8, 16
TECHNIQUES = [
    ("full", {}),
    ("memcom", dict(num_hash_embeddings=12)),
    ("memcom_nobias", dict(num_hash_embeddings=12)),
    ("qr_mult", dict(num_hash_embeddings=12)),
    ("qr_concat", dict(num_hash_embeddings=12)),
    ("hash", dict(num_hash_embeddings=12)),
    ("double_hash", dict(num_hash_embeddings=12)),
    ("factorized", dict(hidden_dim=4)),
    ("reduce_dim", dict(reduced_dim=4)),
    ("truncate_rare", dict(keep=30)),
    ("hashed_onehot", dict(num_hash_embeddings=12)),
]


def _ids(rng, n=6):
    return rng.integers(0, V, size=(n, L)).astype(np.int32)


class TestClassifier:
    @pytest.mark.parametrize("technique,hyper", TECHNIQUES)
    def test_forward_shape_for_every_technique(self, technique, hyper, rng):
        model = build_classifier(
            technique, V, C, input_length=L, embedding_dim=E, rng=0, **hyper
        )
        out = model(_ids(rng))
        assert out.shape == (6, C)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("technique,hyper", TECHNIQUES)
    def test_param_count_matches_analytic(self, technique, hyper):
        model = build_classifier(
            technique, V, C, input_length=L, embedding_dim=E, rng=0, **hyper
        )
        assert model.num_parameters() == model_param_count(
            "classifier", technique, V, C, E, **hyper
        )

    def test_gradients_reach_every_parameter(self, rng):
        from repro.nn.losses import softmax_cross_entropy

        model = build_classifier(
            "memcom", V, C, input_length=L, embedding_dim=E, rng=0, num_hash_embeddings=12
        )
        loss = softmax_cross_entropy(model(_ids(rng)), rng.integers(0, C, 6))
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_eval_mode_is_deterministic(self, rng):
        model = build_classifier(
            "memcom", V, C, input_length=L, embedding_dim=E, rng=0, num_hash_embeddings=12
        )
        model.eval()
        x = _ids(rng)
        with no_grad():
            a, b = model(x).data, model(x).data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_varies(self, rng):
        model = build_classifier(
            "full", V, C, input_length=L, embedding_dim=E, dropout=0.5, rng=0
        )
        x = _ids(rng)
        assert not np.array_equal(model(x).data, model(x).data)

    def test_head_params_formula(self):
        assert classifier_head_params(16, 9) == 2 * 16 + (16 * 8 + 8) + 2 * 8 + (8 * 9 + 9)

    def test_rejects_single_label(self):
        with pytest.raises(ValueError):
            build_classifier("full", V, 1, input_length=L, embedding_dim=E, rng=0)


class TestPointwise:
    def test_forward_shape(self, rng):
        model = build_pointwise_ranker(
            "memcom", V, C, input_length=L, embedding_dim=E, rng=0, num_hash_embeddings=12
        )
        assert model(_ids(rng)).shape == (6, C)

    def test_no_hidden_dense(self):
        model = build_pointwise_ranker("full", V, C, input_length=L, embedding_dim=E, rng=0)
        assert not hasattr(model, "hidden")

    def test_param_count(self):
        model = build_pointwise_ranker("full", V, C, input_length=L, embedding_dim=E, rng=0)
        assert model.num_parameters() == V * E + pointwise_head_params(E, C)

    def test_reduce_dim_shrinks_head(self):
        model = build_pointwise_ranker(
            "reduce_dim", V, C, input_length=L, embedding_dim=E, rng=0, reduced_dim=4
        )
        assert model.out.in_features == 4
        assert model.num_parameters() == model_param_count(
            "pointwise", "reduce_dim", V, C, E, reduced_dim=4
        )


class TestRankNet:
    def test_pair_scores_shapes(self, rng):
        model = build_ranknet(
            "memcom", V, C, input_length=L, embedding_dim=E, rng=0, num_hash_embeddings=12
        )
        x = _ids(rng)
        pos = rng.integers(0, C, 6)
        neg = rng.integers(0, C, 6)
        s_pos, s_neg = model.score_pair(x, pos, neg)
        assert s_pos.shape == (6,) and s_neg.shape == (6,)

    def test_forward_scores_full_catalog(self, rng):
        model = build_ranknet("full", V, C, input_length=L, embedding_dim=E, rng=0)
        assert model(_ids(rng)).shape == (6, C)

    def test_pair_scores_consistent_with_catalog_scores(self, rng):
        model = build_ranknet("full", V, C, input_length=L, embedding_dim=E, rng=0)
        model.eval()
        x = _ids(rng)
        items = rng.integers(0, C, 6)
        with no_grad():
            full = model(x).data
            s, _ = model.score_pair(x, items, items)
        np.testing.assert_allclose(s.data, full[np.arange(6), items], rtol=1e-4, atol=1e-5)

    def test_param_count(self):
        model = build_ranknet("full", V, C, input_length=L, embedding_dim=E, rng=0)
        assert model.num_parameters() == V * E + ranknet_head_params(E, C)

    def test_item_shape_validation(self, rng):
        model = build_ranknet("full", V, C, input_length=L, embedding_dim=E, rng=0)
        user = model.user_repr(_ids(rng))
        with pytest.raises(ValueError):
            model.score_items(user, rng.integers(0, C, 3))


class TestBuilder:
    def test_unknown_architecture(self):
        with pytest.raises(KeyError):
            model_param_count("transformer", "full", V, C, E)

    def test_evaluator_roundtrip(self, rng):
        model = build_classifier("full", V, C, input_length=L, embedding_dim=E, rng=0)
        scores = predict_scores(model, _ids(rng, 12), batch_size=5)
        assert scores.shape == (12, C)
        assert model.training  # mode restored


class TestSequenceLength:
    """Each model pools exactly ``input_length`` ids per request."""

    @pytest.mark.parametrize("length", [L - 1, L + 1, 2 * L])
    @pytest.mark.parametrize("technique", ["memcom", "full"])
    @pytest.mark.parametrize(
        "build", [build_classifier, build_pointwise_ranker, build_ranknet],
        ids=["classifier", "pointwise", "ranknet"],
    )
    def test_other_lengths_raise(self, build, technique, length, rng):
        hyper = dict(TECHNIQUES)[technique]
        model = build(technique, V, C, input_length=L, embedding_dim=E, rng=0, **hyper)
        assert model(_ids(rng)).shape[0] == 6
        with pytest.raises(ValueError, match="input_length"):
            model(rng.integers(0, V, size=(6, length)))
