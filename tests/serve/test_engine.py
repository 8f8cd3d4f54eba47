"""InferenceEngine correctness: frozen plan ≡ eager eval-mode forward.

The engine mirrors the eval forward operation for operation, so agreement is
asserted *bitwise* for the snapshot-frozen techniques and to tight allclose
for the module-fallback ones (same code path, so those are bitwise too in
practice).  Also pinned: freezing snapshots weights (later training must not
change engine outputs), sharded engines serve through the routed layout,
and input validation mirrors the models'.
"""

import numpy as np
import pytest

from repro.models.builder import (
    build_classifier,
    build_pointwise_ranker,
    build_ranknet,
    shard_model,
)
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import no_grad
from repro.serve.engine import InferenceEngine

V, L, E, C = 250, 8, 16, 12

BUILDERS = {
    "classifier": build_classifier,
    "pointwise": build_pointwise_ranker,
    "ranknet": build_ranknet,
}

TECHNIQUES = {
    "memcom": {"num_hash_embeddings": 32},
    "memcom_nobias": {"num_hash_embeddings": 32},
    "full": {},
    "qr_mult": {"num_hash_embeddings": 32},
    "double_hash": {"num_hash_embeddings": 32},
    "tt_rec": {"tt_rank": 4},
    "factorized": {"hidden_dim": 4},
    "hashed_onehot": {"num_hash_embeddings": 32},
}


def _model(architecture="pointwise", technique="memcom", seed=3):
    return BUILDERS[architecture](
        technique, V, C, input_length=L, embedding_dim=E, rng=seed,
        **TECHNIQUES[technique],
    )


def _eager(model, x):
    model.eval()
    with no_grad():
        return model(x).numpy()


class TestEngineMatchesEager:
    @pytest.mark.parametrize("architecture", sorted(BUILDERS))
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_random_batches(self, architecture, technique):
        model = _model(architecture, technique)
        engine = InferenceEngine(model)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.integers(0, V, size=(7, L))
            np.testing.assert_allclose(
                engine.predict(x), _eager(model, x), rtol=1e-6, atol=1e-7
            )

    @pytest.mark.parametrize("architecture", sorted(BUILDERS))
    def test_bitwise_for_frozen_techniques(self, architecture):
        model = _model(architecture, "memcom")
        engine = InferenceEngine(model)
        x = np.random.default_rng(1).integers(0, V, size=(5, L))
        np.testing.assert_array_equal(engine.predict(x), _eager(model, x))

    def test_matches_after_batchnorm_statistics_move(self):
        """A *trained* model (non-trivial running stats) must still agree."""
        model = _model("classifier", "memcom")
        model.train()
        opt = SGD(model.parameters(), lr=0.05)
        rng = np.random.default_rng(2)
        for _ in range(4):
            x = rng.integers(0, V, size=(16, L))
            y = rng.integers(0, C, size=16)
            opt.zero_grad()
            softmax_cross_entropy(model(x), y).backward()
            opt.step()
        engine = InferenceEngine(model)
        x = rng.integers(0, V, size=(6, L))
        np.testing.assert_array_equal(engine.predict(x), _eager(model, x))

    def test_sharded_model_served_through_routed_layout(self):
        mono = _model("pointwise", "memcom")
        x = np.random.default_rng(3).integers(0, V, size=(4, L))
        want = _eager(mono, x)
        sharded = shard_model(_model("pointwise", "memcom"), 5)
        engine = InferenceEngine(sharded)
        np.testing.assert_array_equal(engine.predict(x), want)

    def test_plan_is_a_snapshot(self):
        """Training the live model must not change the frozen plan."""
        model = _model("pointwise", "memcom")
        x = np.random.default_rng(4).integers(0, V, size=(3, L))
        engine = InferenceEngine(model)
        before = engine.predict(x).copy()
        model.embedding.multiplier.data += 1.0
        np.testing.assert_array_equal(engine.predict(x), before)

    @pytest.mark.parametrize("technique", ["tt_rec", "qr_mult"])
    def test_fallback_plan_is_a_snapshot_too(self, technique):
        """Module-fallback techniques must not mix cached (stale) rows with
        live-weight composes after the model trains on."""
        model = _model("pointwise", technique)
        x = np.random.default_rng(5).integers(0, V, size=(4, L))
        engine = InferenceEngine(model, cache_rows=8)  # tiny: constant misses
        before = engine.predict(x).copy()
        for p in model.embedding.parameters():
            p.data += 0.5
        np.testing.assert_array_equal(engine.predict(x), before)

    def test_predict_one_matches_batch_row(self):
        engine = InferenceEngine(_model())
        rng = np.random.default_rng(5)
        batch = rng.integers(0, V, size=(4, L))
        rows = engine.predict(batch)
        for i in range(4):
            np.testing.assert_array_equal(engine.predict_one(batch[i]), rows[i])

    def test_predict_one_accepts_a_bare_id_at_length_one(self):
        """As ``Batcher.submit`` does: at input_length 1 a request may be a
        bare id, and a bare id is still the wrong shape at any other length."""
        model = build_pointwise_ranker(
            "memcom", V, C, input_length=1, embedding_dim=E, rng=3,
            **TECHNIQUES["memcom"],
        )
        engine = InferenceEngine(model)
        rows = engine.predict(np.array([[5], [V - 1]]))
        np.testing.assert_array_equal(engine.predict_one(5), rows[0])
        np.testing.assert_array_equal(engine.predict_one(np.int64(V - 1)), rows[1])
        np.testing.assert_array_equal(engine.predict_one(np.array([5])), rows[0])
        with pytest.raises(ValueError):
            InferenceEngine(_model()).predict_one(5)


class TestEngineValidation:
    def test_rejects_wrong_length(self):
        engine = InferenceEngine(_model())
        with pytest.raises(ValueError):
            engine.predict(np.zeros((2, L + 1), dtype=np.int64))

    def test_rejects_out_of_range_ids(self):
        engine = InferenceEngine(_model())
        with pytest.raises(IndexError):
            engine.predict(np.full((1, L), V, dtype=np.int64))
        with pytest.raises(IndexError):
            engine.predict(np.full((1, L), -1, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_rejects_non_integer_ids(self, dtype):
        engine = InferenceEngine(_model(), cache_rows=64)
        with pytest.raises(TypeError, match=np.dtype(dtype).name):
            engine.predict(np.ones((1, L), dtype=dtype))

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError):
            InferenceEngine(object())

    def test_counts_requests(self):
        engine = InferenceEngine(_model())
        x = np.zeros((3, L), dtype=np.int64)
        engine.predict(x)
        engine.predict(x)
        assert engine.requests_served == 6
        assert engine.batches_served == 2

    def test_pooled_encoder_has_no_cache(self):
        engine = InferenceEngine(_model(technique="hashed_onehot"), cache_rows=64)
        assert engine.cache is None  # not per-id: caching would be unsound
