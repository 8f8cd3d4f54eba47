"""Model export to the device IR."""

import json
import os

import numpy as np
import pytest

from repro.device.export import export_model
from repro.models.builder import build_classifier, build_pointwise_ranker, build_ranknet

V, C, L, E = 200, 12, 8, 16
TECHNIQUES = [
    ("full", {}),
    ("memcom", dict(num_hash_embeddings=20)),
    ("memcom_nobias", dict(num_hash_embeddings=20)),
    ("qr_mult", dict(num_hash_embeddings=20)),
    ("qr_concat", dict(num_hash_embeddings=20)),
    ("hash", dict(num_hash_embeddings=20)),
    ("double_hash", dict(num_hash_embeddings=20)),
    ("factorized", dict(hidden_dim=4)),
    ("reduce_dim", dict(reduced_dim=4)),
    ("truncate_rare", dict(keep=50)),
    ("hashed_onehot", dict(num_hash_embeddings=20)),
    ("freq_double_hash", dict(num_hash_embeddings=20)),
    ("tt_rec", dict(tt_rank=4)),
    ("mixed_dim", dict(num_blocks=3)),
]
BUILDERS = {
    "classifier": build_classifier,
    "pointwise": build_pointwise_ranker,
    "ranknet": build_ranknet,
}
with open(os.path.join(os.path.dirname(__file__), "export_pins.json")) as _fh:
    PINS = json.load(_fh)


class TestExportCoverage:
    @pytest.mark.parametrize("technique,hyper", TECHNIQUES)
    def test_every_technique_exports(self, technique, hyper):
        model = build_classifier(technique, V, C, input_length=L, embedding_dim=E, rng=0, **hyper)
        exported = export_model(model)
        assert exported.ops, technique
        assert exported.weights, technique
        assert exported.total_flops() >= 0

    @pytest.mark.parametrize("technique,hyper", TECHNIQUES)
    def test_weight_params_match_model(self, technique, hyper):
        """Exported blobs must carry exactly the trainable params plus the
        BatchNorm scale/shift fusions."""
        model = build_classifier(technique, V, C, input_length=L, embedding_dim=E, rng=0, **hyper)
        exported = export_model(model)
        exported_params = sum(w.num_params for w in exported.weights.values())
        # norm layers export 2e fused scale/shift == gamma+beta params: equal
        assert exported_params == model.num_parameters()

    def test_all_architectures_export(self):
        for build, kind in [
            (build_classifier, "classifier"),
            (build_pointwise_ranker, "pointwise"),
            (build_ranknet, "ranknet"),
        ]:
            model = build("memcom", V, C, input_length=L, embedding_dim=E, rng=0,
                          num_hash_embeddings=20)
            exported = export_model(model)
            assert exported.name == kind

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError):
            export_model(object())

    def test_bad_batch_size(self):
        model = build_classifier("full", V, C, input_length=L, embedding_dim=E, rng=0)
        with pytest.raises(ValueError):
            export_model(model, batch_size=0)


class TestStorageKinds:
    def test_lookup_tables_for_memcom(self):
        model = build_classifier("memcom", V, C, input_length=L, embedding_dim=E, rng=0,
                                 num_hash_embeddings=20)
        exported = export_model(model)
        emb_weights = [w for n, w in exported.weights.items() if n.startswith("embedding")]
        assert all(w.storage == "lookup" for w in emb_weights)

    def test_onehot_matrix_flagged(self):
        model = build_classifier("hashed_onehot", V, C, input_length=L, embedding_dim=E, rng=0,
                                 num_hash_embeddings=20)
        exported = export_model(model)
        assert exported.weights["embedding.hash_matrix"].storage == "onehot_dense"
        kinds = [op.kind for op in exported.ops]
        assert "one_hot" in kinds
        assert "mean_pool" not in kinds  # already pooled

    def test_lookup_models_have_pooling(self):
        model = build_classifier("full", V, C, input_length=L, embedding_dim=E, rng=0)
        kinds = [op.kind for op in export_model(model).ops]
        assert "mean_pool" in kinds
        assert "one_hot" not in kinds


class TestSizing:
    def test_on_disk_bytes_fp32(self):
        model = build_pointwise_ranker("full", V, C, input_length=L, embedding_dim=E, rng=0)
        exported = export_model(model)
        assert exported.on_disk_bytes() == pytest.approx(
            model.num_parameters() * 4 + 1024, rel=0.01
        )

    def test_quantized_copy_shrinks(self):
        # Honest packed accounting: int8 payloads are ~1/4 of FP32 plus
        # per-row scale overhead (at this tiny E=16 the scales and the 1 KiB
        # header keep the on-disk ratio near 0.36, not the relabeled 0.25).
        model = build_pointwise_ranker("full", V, C, input_length=L, embedding_dim=E, rng=0)
        exported = export_model(model)
        q8 = exported.quantized(8)
        assert q8.on_disk_bytes() < exported.on_disk_bytes() / 2
        assert len(q8.ops) == len(exported.ops)

    def test_touched_bytes_scale_with_batch(self):
        model = build_classifier("memcom", V, C, input_length=L, embedding_dim=E, rng=0,
                                 num_hash_embeddings=20)
        b1 = export_model(model, batch_size=1)
        b4 = export_model(model, batch_size=4)
        t1 = sum(op.touched_bytes for op in b1.ops)
        t4 = sum(op.touched_bytes for op in b4.ops)
        assert t4 == 4 * t1

    def test_duplicate_weight_rejected(self):
        model = build_classifier("full", V, C, input_length=L, embedding_dim=E, rng=0)
        exported = export_model(model)
        with pytest.raises(ValueError):
            exported.add_weight("embedding.table", (1, 1), "lookup")

    def test_peak_activation_positive(self):
        model = build_classifier("full", V, C, input_length=L, embedding_dim=E, rng=0)
        assert export_model(model).peak_activation_bytes() > 0


class TestPinnedTotals:
    """The form-driven exporter reproduces the per-technique exporter it
    replaced: totals for every technique × architecture × batch, and the
    exact op lists of the two Table 3 models."""

    @pytest.mark.parametrize("technique,hyper", TECHNIQUES)
    @pytest.mark.parametrize("architecture", sorted(BUILDERS))
    @pytest.mark.parametrize("batch", [1, 8])
    def test_totals_match_recorded(self, technique, hyper, architecture, batch):
        model = BUILDERS[architecture](
            technique, V, C, input_length=L, embedding_dim=E, rng=0, **hyper
        )
        exported = export_model(model, batch_size=batch)
        key = f"{technique}/{architecture}/b{batch}"
        assert {
            "total_flops": exported.total_flops(),
            "on_disk_bytes": [
                exported.on_disk_bytes(),
                exported.quantized(8).on_disk_bytes(),
                exported.quantized(4).on_disk_bytes(),
            ],
            "peak_activation_bytes": exported.peak_activation_bytes(),
            "embedding_weights": sorted(
                [list(w.shape), w.storage]
                for name, w in exported.weights.items()
                if name.startswith("embedding")
            ),
        } == PINS["totals"][key]
        if technique in ("memcom_nobias", "hashed_onehot"):
            assert [
                [op.kind, op.name, op.flops, op.activation_bytes,
                 list(op.weights), op.touched_bytes]
                for op in exported.ops
            ] == PINS["ops"][key]
