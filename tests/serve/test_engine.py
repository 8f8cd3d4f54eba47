"""InferenceEngine correctness: frozen plan ≡ eager eval-mode forward.

Every technique serves through its frozen form, which mirrors the eval
forward operation for operation: composed rows are asserted *bitwise*
against the module per id, whole-batch predictions to tight allclose (the
tower's GEMMs may pick different BLAS kernels than eager by batch shape).
Also pinned: freezing snapshots weights (later training must not change
engine outputs), and input validation mirrors the models'.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.registry import available_techniques
from repro.models.builder import (
    build_classifier,
    build_pointwise_ranker,
    build_ranknet,
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

#: every registered technique, plus hash under its universal family —
#: keyed by test id, valued ``(technique, hyperparameters)``
TECHNIQUES = {
    "full": ("full", {}),
    "memcom": ("memcom", {"num_hash_embeddings": 32}),
    "memcom_nobias": ("memcom_nobias", {"num_hash_embeddings": 32}),
    "qr_mult": ("qr_mult", {"num_hash_embeddings": 32}),
    "qr_concat": ("qr_concat", {"num_hash_embeddings": 32}),
    "hash": ("hash", {"num_hash_embeddings": 32}),
    "hash_universal": (
        "hash", {"num_hash_embeddings": 32, "hash_family": "universal"}
    ),
    "double_hash": ("double_hash", {"num_hash_embeddings": 32}),
    "freq_double_hash": ("freq_double_hash", {"num_hash_embeddings": 32}),
    "factorized": ("factorized", {"hidden_dim": 4}),
    "reduce_dim": ("reduce_dim", {"reduced_dim": 8}),
    "truncate_rare": ("truncate_rare", {"keep": 50}),
    "hashed_onehot": ("hashed_onehot", {"num_hash_embeddings": 32}),
    "tt_rec": ("tt_rec", {"tt_rank": 4}),
    "mixed_dim": ("mixed_dim", {"num_blocks": 3}),
}
PER_ID = sorted(set(TECHNIQUES) - {"hashed_onehot"})


def test_every_registered_technique_is_covered():
    assert {t for t, _ in TECHNIQUES.values()} == set(available_techniques())


def _model(architecture="pointwise", technique="memcom", seed=3, dim=E):
    name, hyper = TECHNIQUES[technique]
    return BUILDERS[architecture](
        name, V, C, input_length=L, embedding_dim=dim, rng=seed, **hyper,
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

    @pytest.mark.parametrize("technique", PER_ID)
    @pytest.mark.parametrize("dim", [16, 64])
    def test_compose_rows_bitwise_equals_module_forward(self, technique, dim):
        model = _model(technique=technique, dim=dim)
        engine = InferenceEngine(model)
        for n in (1, 7, 64, 600):
            flat = np.random.default_rng(n).integers(0, V, size=n)
            with no_grad():
                want = model.embedding(flat).numpy()
            np.testing.assert_array_equal(engine.compose_rows(flat), want)

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

    def test_plan_is_a_snapshot(self):
        """Training the live model must not change the frozen plan."""
        model = _model("pointwise", "memcom")
        x = np.random.default_rng(4).integers(0, V, size=(3, L))
        engine = InferenceEngine(model)
        before = engine.predict(x).copy()
        model.embedding.multiplier.data += 1.0
        np.testing.assert_array_equal(engine.predict(x), before)

    @pytest.mark.parametrize("technique", ["factorized", "memcom"])
    def test_plan_does_not_keep_the_model_tables_alive(self, technique):
        """The plan holds its snapshots only: once the model is dropped, its
        tables can be freed (an eager artifact load would otherwise keep
        two copies of every table resident)."""
        model = _model("pointwise", technique)
        tables = [weakref.ref(p.data) for p in model.embedding.parameters()]
        engine = InferenceEngine(model)
        del model
        gc.collect()
        assert all(ref() is None for ref in tables)
        assert engine.predict(np.zeros((1, L), dtype=np.int64)).shape == (1, C)

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_fallback_plan_is_a_snapshot_too(self, technique):
        """Every technique's form serves snapshots: a cached engine must not
        mix stale cached rows with live-weight composes after the model
        trains on."""
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
            **TECHNIQUES["memcom"][1],
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

    @pytest.mark.parametrize("dtype", [np.int32, ">i8", np.uint64])
    def test_other_id_dtypes_are_range_checked_too(self, dtype):
        """Every integer dtype and byte order is range-checked as its int64
        copy, where a uint64 id of 2**63 or more wraps negative."""
        engine = InferenceEngine(_model())
        below = 2**63 if np.dtype(dtype).kind == "u" else -1
        with pytest.raises(IndexError):
            engine.predict(np.full((1, L), V, dtype=dtype))
        with pytest.raises(IndexError):
            engine.predict(np.full((1, L), below, dtype=dtype))
        ids = np.array([[0] * (L - 1) + [V - 1]], dtype=dtype)
        np.testing.assert_array_equal(
            engine.predict(ids), engine.predict(ids.astype(np.int64))
        )

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
