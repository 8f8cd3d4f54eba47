"""Quantized serving plan: bit-exactness, storage accounting, the cache.

int8/int4-served predictions match the dequantized-FP32 reference bit for
bit (the reference model's embedding is ``QuantizedEmbedding.dequantized()``,
the rows composed once over the decoded tables); cached and uncached
quantized engines serve identical values.
"""

import numpy as np
import pytest

from repro.models.builder import (
    build_classifier,
    build_pointwise_ranker,
    build_ranknet,
)
from repro.quant import quantize_embedding
from repro.serve.engine import InferenceEngine

V, L, E, C = 250, 8, 16, 12

BUILDERS = {
    "classifier": build_classifier,
    "pointwise": build_pointwise_ranker,
    "ranknet": build_ranknet,
}

#: every per-id technique (the pooled one-hot encoder has no row storage)
TECHNIQUES = {
    "memcom": {"num_hash_embeddings": 32},
    "memcom_nobias": {"num_hash_embeddings": 32},
    "full": {},
    "reduce_dim": {"reduced_dim": 8},
    "truncate_rare": {"keep": 50},
    "tt_rec": {"tt_rank": 4},
    "qr_mult": {"num_hash_embeddings": 32},
    "qr_concat": {"num_hash_embeddings": 32},
    "hash": {"num_hash_embeddings": 32},
    "double_hash": {"num_hash_embeddings": 32},
    "freq_double_hash": {"num_hash_embeddings": 32},
    "factorized": {"hidden_dim": 4},
    "mixed_dim": {"num_blocks": 3},
}


def _model(architecture="pointwise", technique="memcom", seed=3, dim=E):
    return BUILDERS[architecture](
        technique, V, C, input_length=L, embedding_dim=dim, rng=seed,
        **TECHNIQUES[technique],
    )


def _requests(n=48, seed=0):
    return np.random.default_rng(seed).integers(0, V, (n, L))


class TestQuantizedMatchesDequantizedReference:
    @pytest.mark.parametrize("architecture", sorted(BUILDERS))
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    @pytest.mark.parametrize("bits", [8, 4])
    def test_bit_for_bit(self, architecture, technique, bits):
        ids = _requests()
        model = _model(architecture, technique)
        engine = InferenceEngine(model, bits=bits)
        reference = _model(architecture, technique)
        reference.embedding = quantize_embedding(model.embedding, bits).dequantized()
        ref_engine = InferenceEngine(reference)
        np.testing.assert_array_equal(
            engine.predict(ids), ref_engine.predict(ids)
        )

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_cached_equals_uncached(self, technique):
        ids = _requests(96)
        for bits in (8, 4):
            plain = InferenceEngine(_model(technique=technique), bits=bits)
            cached = InferenceEngine(
                _model(technique=technique), bits=bits, cache_rows=40
            )
            # two passes: second is cache-hit dominated
            first = cached.predict(ids).copy()
            np.testing.assert_array_equal(first, cached.predict(ids))
            np.testing.assert_array_equal(first, plain.predict(ids))
            if technique in ("tt_rec", "mixed_dim", "freq_double_hash"):
                assert cached.cache.hits > 0
            else:
                # 8 ids × 16 values per request: cheaper than a hit, so the
                # engine declines it (test_cache_rule.py has the long case)
                assert cached.cache is None and cached.cache_declined

    def test_predict_one_matches_batched(self):
        ids = _requests(5)
        engine = InferenceEngine(_model(technique="tt_rec"), bits=8, cache_rows=32)
        assert engine.cache is not None
        batched = engine.predict(ids)
        for k in range(ids.shape[0]):
            np.testing.assert_array_equal(batched[k], engine.predict_one(ids[k]))

    def test_close_to_fp32_engine(self):
        ids = _requests()
        fp32 = InferenceEngine(_model()).predict(ids)
        q8 = InferenceEngine(_model(), bits=8).predict(ids)
        q4 = InferenceEngine(_model(), bits=4).predict(ids)
        assert np.abs(q8 - fp32).max() < 5e-3  # DESIGN.md §7 tolerances
        assert np.abs(q4 - fp32).max() < 1e-1
        assert np.abs(q8 - fp32).max() < np.abs(q4 - fp32).max()


class TestQuantizedStorage:
    @pytest.mark.parametrize("technique", ["memcom", "full"])
    def test_table_resident_bytes_shrink(self, technique):
        # At e=64 the 4-byte per-row scale no longer dominates the codes.
        e = 64
        fp32, q8, q4 = (
            InferenceEngine(_model(technique=technique, dim=e), bits=bits)
            for bits in (32, 8, 4)
        )
        assert q8.table_resident_bytes() <= 0.30 * fp32.table_resident_bytes()
        assert q4.table_resident_bytes() < q8.table_resident_bytes()
        if technique == "full":
            assert fp32.table_resident_bytes() == V * e * 4
            assert q8.table_resident_bytes() == V * (e + 4)
            assert q4.table_resident_bytes() == V * (e // 2 + 4)

    def test_engine_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            InferenceEngine(_model(), bits=16)

    def test_pooled_onehot_cannot_quantize(self):
        model = build_pointwise_ranker(
            "hashed_onehot", V, C, input_length=L, embedding_dim=E, rng=0,
            num_hash_embeddings=32,
        )
        with pytest.raises(TypeError, match="pooled"):
            InferenceEngine(model, bits=8)


class TestQuantizedCache:
    def test_hit_copies_exactly_what_miss_stored(self):
        engine = InferenceEngine(_model(technique="tt_rec"), bits=4, cache_rows=300)
        flat = np.arange(V)
        miss_rows = engine._embed(flat).copy()  # fills the cache
        hit_rows = engine._embed(flat)  # all hits now
        assert engine.cache.hits >= V
        np.testing.assert_array_equal(miss_rows, hit_rows)

    def test_store_holds_fp32_rows(self):
        engine = InferenceEngine(
            _model(technique="tt_rec", dim=64), bits=8, cache_rows=4096
        )
        assert engine.cache.store_nbytes() == 4096 * 64 * 4  # 1 MiB
