"""Artifact round-trips serve bit-identical predictions.

The acceptance matrix of the serving-artifact redesign: for every technique
(full, MEmCom, TT-Rec, composed forms and the pooled one-hot encoder) ×
``bits ∈ {32, 8, 4}``, ``ServeSession.load(save_artifact(model))`` must
produce the same bytes as the in-memory :class:`InferenceEngine` on the
same requests — not close, *equal*: the artifact stores either exact FP32
state or the exact calibrated codes, and both ends decode through the same
kernels.
"""

import numpy as np
import pytest

from repro.artifact import save_artifact
from repro.models.builder import (
    build_classifier,
    build_pointwise_ranker,
    build_ranknet,
)
from repro.serve.engine import InferenceEngine
from repro.serve.session import ServeConfig, ServeSession

VOCAB = 300
DIM = 16
LENGTH = 6
CATALOG = 12

_HYPER = {
    "full": {},
    "memcom": {"num_hash_embeddings": 32},
    "tt_rec": {"tt_rank": 4},
    "qr_mult": {"num_hash_embeddings": 32},       # composed: two gathers, mul
    "double_hash": {"num_hash_embeddings": 32},   # salted hashing, buffers matter
    "factorized": {"hidden_dim": 4},
    "hashed_onehot": {"num_hash_embeddings": 64},  # pooled: FP32 only
}


def _model(technique, architecture="pointwise", seed=0):
    builder = {
        "pointwise": build_pointwise_ranker,
        "classifier": build_classifier,
        "ranknet": build_ranknet,
    }[architecture]
    return builder(
        technique, VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
        rng=seed, **_HYPER[technique],
    )


def _requests(n=40, seed=1):
    return np.random.default_rng(seed).integers(0, VOCAB, size=(n, LENGTH))


def _assert_roundtrip(model, tmp_path, bits):
    reference = InferenceEngine(model, bits=None if bits == 32 else bits)
    artifact = save_artifact(model, str(tmp_path / f"a{bits}"), bits=bits)
    session = ServeSession.load(str(tmp_path / f"a{bits}"))
    assert session.bits == bits
    ids = _requests()
    np.testing.assert_array_equal(session.predict(ids), reference.predict(ids))
    return artifact


class TestMatrix:
    @pytest.mark.parametrize("technique", ["full", "memcom", "tt_rec"])
    @pytest.mark.parametrize("bits", [32, 8, 4])
    def test_core_techniques(self, tmp_path, technique, bits):
        _assert_roundtrip(_model(technique), tmp_path, bits)

    @pytest.mark.parametrize("technique", ["qr_mult", "double_hash", "factorized"])
    @pytest.mark.parametrize("bits", [32, 8])
    def test_composed_form_techniques(self, tmp_path, technique, bits):
        """Composed forms round-trip at FP32 through spec + state (the hash
        salts travel as state-dict buffers) and at int8 through their forms'
        codes (the salts travel in the forms' index maps)."""
        _assert_roundtrip(_model(technique), tmp_path, bits)

    def test_pooled_onehot_fp32(self, tmp_path):
        _assert_roundtrip(_model("hashed_onehot"), tmp_path, 32)

    @pytest.mark.parametrize("architecture", ["classifier", "ranknet"])
    @pytest.mark.parametrize("bits", [32, 8])
    def test_other_architectures(self, tmp_path, architecture, bits):
        _assert_roundtrip(_model("memcom", architecture), tmp_path, bits)


class TestSizes:
    def test_int8_artifact_at_most_035x_fp32(self, tmp_path):
        """The on-disk acceptance gate, per technique.

        Sized so the embedding payload dominates, as in any real deployment
        — at toy scale the FP32 tower and the manifest (both shipped at
        every width) would swamp an already-tiny compressed embedding.
        """
        for technique, vocab, dim, hyper in (
            ("full", 2000, 32, {}),
            ("memcom", 20_000, 64, {"num_hash_embeddings": 1250}),
            ("tt_rec", 50_000, 48, {"tt_rank": 16}),
        ):
            model = build_pointwise_ranker(
                technique, vocab, CATALOG, input_length=LENGTH,
                embedding_dim=dim, rng=0, **hyper,
            )
            fp32 = save_artifact(model, str(tmp_path / f"{technique}-32"))
            int8 = save_artifact(model, str(tmp_path / f"{technique}-8"), bits=8)
            int4 = save_artifact(model, str(tmp_path / f"{technique}-4"), bits=4)
            ratio = int8.total_bytes() / fp32.total_bytes()
            assert ratio <= 0.35, f"{technique}: int8 artifact {ratio:.3f}× FP32"
            assert int4.total_bytes() < int8.total_bytes()


class TestSessionPersistence:
    def test_session_save_then_load_matches(self, tmp_path):
        model = _model("memcom")
        session = ServeSession.from_model(model, ServeConfig(bits=8))
        artifact = session.save(str(tmp_path / "s"))
        loaded = ServeSession.load(str(tmp_path / "s"))
        ids = _requests()
        np.testing.assert_array_equal(loaded.predict(ids), session.predict(ids))
        assert artifact.bits == 8

    def test_fp32_artifact_quantized_at_load_matches_in_memory(self, tmp_path):
        model = _model("memcom")
        save_artifact(model, str(tmp_path / "fp32"))
        session = ServeSession.load(str(tmp_path / "fp32"), ServeConfig(bits=8))
        reference = InferenceEngine(model, bits=8)
        ids = _requests()
        np.testing.assert_array_equal(session.predict(ids), reference.predict(ids))

    def test_cached_session_serves_the_same_bytes(self, tmp_path):
        model = _model("tt_rec")
        save_artifact(model, str(tmp_path / "t"), bits=4)
        plain = ServeSession.load(str(tmp_path / "t"))
        cached = ServeSession.load(
            str(tmp_path / "t"),
            ServeConfig(cache_rows=64, cache_min_count=2, cache_ttl_batches=4),
        )
        for seed in range(4):  # repeated traffic exercises hits + admission
            ids = _requests(seed=seed)
            np.testing.assert_array_equal(cached.predict(ids), plain.predict(ids))
        assert cached.engine.cache.hits > 0
