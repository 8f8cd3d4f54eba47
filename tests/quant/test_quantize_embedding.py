"""Calibration pass: any trained technique → integer serving storage."""

import copy

import numpy as np
import pytest

from repro.core.memcom import MEmComEmbedding
from repro.core.onehot import HashedOneHotEncoder
from repro.core.registry import available_techniques, build_embedding
from repro.core.tt_rec import TTRecEmbedding
from repro.models.builder import build_pointwise_ranker
from repro.nn.tensor import no_grad
from repro.quant import decode_rows, encode_rows, quantize_embedding
from repro.serve.engine import InferenceEngine

V, E = 200, 16

TECHNIQUES = {
    "full": {},
    "reduce_dim": {"reduced_dim": 8},
    "truncate_rare": {"keep": 50},
    "memcom": {"num_hash_embeddings": 32},
    "memcom_nobias": {"num_hash_embeddings": 32},
    "tt_rec": {"tt_rank": 4},
    "qr_mult": {"num_hash_embeddings": 32},
    "qr_concat": {"num_hash_embeddings": 32},
    "hash": {"num_hash_embeddings": 32},
    "double_hash": {"num_hash_embeddings": 32},
    "freq_double_hash": {"num_hash_embeddings": 32},
    "factorized": {"hidden_dim": 4},
    "mixed_dim": {"num_blocks": 3},
}

#: every per-id technique at v=2000, e=64
WIDE = {
    **TECHNIQUES,
    "reduce_dim": {"reduced_dim": 64},
    "truncate_rare": {"keep": 1000},
    "hash": {"num_hash_embeddings": 250},
    "double_hash": {"num_hash_embeddings": 250},
    "freq_double_hash": {"num_hash_embeddings": 250},
    "qr_mult": {"num_hash_embeddings": 250},
    "qr_concat": {"num_hash_embeddings": 250},
    "factorized": {"hidden_dim": 16},
    "mixed_dim": {"num_blocks": 4},
}


def test_every_per_id_technique_is_covered():
    assert set(TECHNIQUES) == set(WIDE) == set(available_techniques()) - {"hashed_onehot"}


def _embedding(technique, seed=0):
    return build_embedding(technique, V, E, rng=seed, **TECHNIQUES[technique])


def _model(technique, vocab=V, dim=E, hyper=None, seed=0):
    """A one-id pointwise ranker whose embedding weights are all moved off
    their init (MEmCom's multiplier starts at one and its bias at zero),
    so every combine does real arithmetic."""
    hyper = TECHNIQUES[technique] if hyper is None else hyper
    model = build_pointwise_ranker(
        technique, vocab, 4, input_length=1, embedding_dim=dim, rng=seed, **hyper
    )
    rng = np.random.default_rng(seed)
    for p in model.embedding.parameters():
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape).astype(np.float32)
    return model.eval()


def _served(model, bits, percentile=None):
    """The quantized engine's per-id rows: ``ids -> rows``."""
    return InferenceEngine(
        model, bits=bits, calibration_percentile=percentile
    ).compose_rows


def _fp32_rows(emb, ids):
    with no_grad():
        return emb.eval()(ids).numpy()


def _forward_on_decoded_tables(emb, q, ids):
    """The module's eval forward with every form table replaced by its
    ``QuantizedTable.dense()`` decode."""
    ref = copy.deepcopy(emb).eval()
    for name, table in ref.frozen().tables.items():
        table.data = q.form.tables[name].dense()
    return _fp32_rows(ref, ids)


class TestQuantizeEmbedding:
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    @pytest.mark.parametrize("bits", [8, 4])
    def test_rows_match_dequantized_reference(self, technique, bits):
        """Served rows ≡ the materialized FP32 reference, bit for bit."""
        model = _model(technique)
        ref = quantize_embedding(model.embedding, bits).dequantized()
        ids = np.array([0, 1, 5, V - 1, 5, 77])
        np.testing.assert_array_equal(
            _served(model, bits)(ids), _fp32_rows(ref, ids)
        )

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_single_vs_batched_bit_identity(self, technique):
        rows = _served(_model(technique), 8)
        ids = np.array([3, 199, 42])
        batched = rows(ids)
        for k, i in enumerate(ids):
            np.testing.assert_array_equal(batched[k], rows(np.array([i]))[0])

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_close_to_fp32_source(self, technique):
        model = _model(technique)
        ids = np.arange(0, V, 7)
        fp32 = _fp32_rows(model.embedding, ids)
        # int8 per-row grids keep rows within a tight fraction of the
        # technique's own row magnitudes.
        tol = max(1e-4, 0.02 * float(np.abs(fp32).max()))
        assert np.abs(_served(model, 8)(ids) - fp32).max() <= tol

    def test_truncate_rare_shares_oov_row(self):
        oov = _served(_model("truncate_rare"), 8)(np.array([51, 137, V - 1]))
        np.testing.assert_array_equal(oov[0], oov[1])
        np.testing.assert_array_equal(oov[0], oov[2])

    def test_memcom_per_entity_columns_use_per_tensor_scales(self):
        q = quantize_embedding(MEmComEmbedding(V, E, 32, rng=0), 8)
        tables = q.form.tables
        assert tables["shared"].per_row and not tables["multiplier"].per_row
        # storage must beat FP32 on every component incl. the (v, 1) columns
        assert tables["multiplier"].nbytes < V * 4

    def test_tt_rec_mode_contracts_quantized_cores(self):
        emb = TTRecEmbedding(V, E, 4, rng=1)
        q = quantize_embedding(emb, 8)
        cores = [q.form.tables[f"core{i}"] for i in (1, 2, 3)]
        assert len(q.form.tables) == 3
        assert q.storage_bytes() == sum(c.nbytes for c in cores)

    def test_storage_bytes_shrink_for_real_storage_modes(self):
        for technique in TECHNIQUES:
            emb = _embedding(technique)
            fp32 = sum(p.data.nbytes for p in emb.parameters())
            q8 = quantize_embedding(emb, 8)
            q4 = quantize_embedding(emb, 4)
            assert q4.storage_bytes() < q8.storage_bytes() < fp32, technique

    def test_pooled_onehot_rejected(self):
        enc = HashedOneHotEncoder(V, E, num_hash_buckets=32, rng=0)
        with pytest.raises(TypeError, match="pooled"):
            quantize_embedding(enc, 8)

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_embedding(_embedding("full"), 16)

    def test_percentile_calibration_changes_grid(self):
        model = _model("full")
        model.embedding.table.data[:, 0] = 3.0  # outlier column
        ids = np.arange(20)
        fp32 = _fp32_rows(model.embedding, ids)
        err_abs = np.abs(_served(model, 8)(ids)[:, 1:] - fp32[:, 1:]).mean()
        err_clip = np.abs(_served(model, 8, 90.0)(ids)[:, 1:] - fp32[:, 1:]).mean()
        assert err_clip < err_abs


class TestEveryTechniqueHasIntegerStorage:
    """Every form table is stored as codes + scales (v=2000, e=64)."""

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_int8_is_at_most_035_of_fp32_and_int4_smaller(self, technique):
        emb = build_embedding(technique, 2000, 64, rng=1, **WIDE[technique])
        fp32 = sum(p.data.nbytes for p in emb.parameters())
        q8, q4 = (quantize_embedding(emb, bits).storage_bytes() for bits in (8, 4))
        assert q8 <= 0.35 * fp32
        assert q4 < q8


class TestOneRounding:
    """A served row is rounded once, at calibration: it is the module's
    eval forward over the decoded tables, composed in FP32, for every
    technique, width and calibration (v=2000, e=64)."""

    @pytest.mark.parametrize("technique", sorted(WIDE))
    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("percentile", [None, 99.0])
    def test_rows_equal_forward_over_decoded_tables(self, technique, bits, percentile):
        model = _model(technique, 2000, 64, WIDE[technique], seed=1)
        ids = np.random.default_rng(0).integers(0, 2000, 3000)
        q = quantize_embedding(model.embedding, bits, percentile=percentile)
        np.testing.assert_array_equal(
            _served(model, bits, percentile)(ids),
            _forward_on_decoded_tables(model.embedding, q, ids),
        )

    def test_tt_rec_int8_rows_are_closer_to_fp32_than_two_roundings(self):
        """Re-quantizing the composed row, a second rounding, only adds
        error: the mean row error, |served − FP32| over the row's absmax,
        is lower with one rounding."""
        model = _model("tt_rec", 2000, 64, {"tt_rank": 4}, seed=1)
        ids = np.arange(2000)
        fp32 = _fp32_rows(model.embedding, ids)
        once = _served(model, 8)(ids)
        twice = decode_rows(*encode_rows(once, 8), 8, 64)

        def row_error(rows):
            return float(
                (np.abs(rows - fp32).mean(axis=1) / np.abs(fp32).max(axis=1)).mean()
            )

        assert row_error(once) < 0.9 * row_error(twice)
