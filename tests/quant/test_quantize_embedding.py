"""Calibration pass: any trained technique → integer serving storage."""

import copy

import numpy as np
import pytest

from repro.core.memcom import MEmComEmbedding
from repro.core.onehot import HashedOneHotEncoder
from repro.core.registry import available_techniques, build_embedding
from repro.core.truncate import TruncateRareEmbedding
from repro.core.tt_rec import TTRecEmbedding
from repro.nn.tensor import no_grad
from repro.quant import decode_rows, encode_rows, quantize_embedding
from repro.quant.table import QuantizedTable

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

#: the techniques that served through the deleted module mode (an FP32
#: working copy with simulated rounding) before every technique had a form
FORMER_MODULE_MODE = {
    "hash": {"num_hash_embeddings": 250},
    "double_hash": {"num_hash_embeddings": 250},
    "freq_double_hash": {"num_hash_embeddings": 250},
    "qr_mult": {"num_hash_embeddings": 250},
    "qr_concat": {"num_hash_embeddings": 250},
    "factorized": {"hidden_dim": 16},
    "mixed_dim": {"num_blocks": 4},
}


def test_every_per_id_technique_is_covered():
    assert set(TECHNIQUES) == set(available_techniques()) - {"hashed_onehot"}


def _embedding(technique, seed=0):
    return build_embedding(technique, V, E, rng=seed, **TECHNIQUES[technique])


def _grid_round_trip(w, bits, percentile):
    """One parameter through the storage grid, as the module mode did:
    per-row scales for multi-column tables, one scale otherwise."""
    if w.ndim == 2 and w.shape[1] > 1:
        codes, scales = encode_rows(w, bits, percentile=percentile)
        return decode_rows(codes, scales, bits, w.shape[1])
    q = QuantizedTable.from_dense(
        w.reshape(1, -1), bits, percentile=percentile, per_row=False
    )
    return q.dense().reshape(w.shape)


def _module_forward_on_grid(emb, ids, bits, percentile):
    ref = copy.deepcopy(emb).eval()
    for p in ref.parameters():
        p.data = _grid_round_trip(p.data, bits, percentile)
    with no_grad():
        return ref(ids).numpy()


def _row_quantized(rows, bits):
    return decode_rows(*encode_rows(rows, bits), bits, rows.shape[1])


class TestQuantizeEmbedding:
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    @pytest.mark.parametrize("bits", [8, 4])
    def test_rows_match_dequantized_reference(self, technique, bits):
        """Served rows ≡ the materialized FP32 reference, bit for bit."""
        q = quantize_embedding(_embedding(technique), bits)
        ids = np.array([0, 1, 5, V - 1, 5, 77])
        rows = q.rows(ids)
        ref = q.dequantized()
        with no_grad():
            np.testing.assert_array_equal(rows, ref(ids).numpy())

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_single_vs_batched_bit_identity(self, technique):
        q = quantize_embedding(_embedding(technique), 8)
        ids = np.array([3, 199, 42])
        batched = q.rows(ids)
        for k, i in enumerate(ids):
            np.testing.assert_array_equal(batched[k], q.rows(np.array([i]))[0])

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_close_to_fp32_source(self, technique):
        emb = _embedding(technique)
        q = quantize_embedding(emb, 8)
        ids = np.arange(0, V, 7)
        with no_grad():
            fp32 = emb.eval()(ids).numpy()
        # int8 per-row grids keep rows within a tight fraction of the
        # technique's own row magnitudes.
        tol = max(1e-4, 0.02 * float(np.abs(fp32).max()))
        assert np.abs(q.rows(ids) - fp32).max() <= tol

    def test_truncate_rare_shares_oov_row(self):
        emb = TruncateRareEmbedding(V, E, keep=50, rng=0)
        q = quantize_embedding(emb, 8)
        oov = q.rows(np.array([51, 137, V - 1]))
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
        emb = _embedding("full")
        emb.table.data[:, 0] = 3.0  # outlier column
        q_abs = quantize_embedding(emb, 8)
        q_clip = quantize_embedding(emb, 8, percentile=90.0)
        ids = np.arange(20)
        with no_grad():
            fp32 = emb.eval()(ids).numpy()
        err_abs = np.abs(q_abs.rows(ids)[:, 1:] - fp32[:, 1:]).mean()
        err_clip = np.abs(q_clip.rows(ids)[:, 1:] - fp32[:, 1:]).mean()
        assert err_clip < err_abs


class TestEveryTechniqueHasIntegerStorage:
    """Every form table is stored as codes + scales (v=2000, e=64)."""

    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_int8_is_at_most_035_of_fp32_and_int4_smaller(self, technique):
        hyper = FORMER_MODULE_MODE.get(technique, TECHNIQUES[technique])
        if technique == "reduce_dim":
            hyper = {"reduced_dim": 64}
        elif technique == "truncate_rare":
            hyper = {"keep": 1000}
        emb = build_embedding(technique, 2000, 64, rng=1, **hyper)
        fp32 = sum(p.data.nbytes for p in emb.parameters())
        q8, q4 = (quantize_embedding(emb, bits).storage_bytes() for bits in (8, 4))
        assert q8 <= 0.35 * fp32
        assert q4 < q8


class TestModuleModeReference:
    """The deleted module mode is the reference for the seven techniques it
    served: round-trip each parameter through the storage grid, run the
    module forward, row-quantize.  Composed forms reproduce it bit for bit.

    ``hash`` is a single-gather form, so it serves its stored codes — one
    rounding where the module mode rounded twice.  The two agree wherever
    re-quantizing a stored row is the identity (absmax calibration, and
    int4 at the 99th percentile here); at int8 under the 99th percentile
    the second rounding moved some rows, and the stored codes are now
    served as they are.
    """

    @pytest.mark.parametrize("technique", sorted(FORMER_MODULE_MODE))
    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("percentile", [None, 99.0])
    def test_rows_equal_module_mode_bitwise(self, technique, bits, percentile):
        emb = build_embedding(
            technique, 2000, 64, rng=1, **FORMER_MODULE_MODE[technique]
        ).eval()
        ids = np.random.default_rng(0).integers(0, 2000, 3000)
        q = quantize_embedding(emb, bits, percentile=percentile)
        composed = _module_forward_on_grid(emb, ids, bits, percentile)
        module_mode = _row_quantized(composed, bits)
        rows = q.rows(ids)
        if technique == "hash":
            np.testing.assert_array_equal(rows, composed)  # the stored codes
            if percentile is None or bits == 4:
                np.testing.assert_array_equal(rows, module_mode)
        else:
            np.testing.assert_array_equal(rows, module_mode)
