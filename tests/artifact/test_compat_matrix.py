"""Back-compat matrix: v1/v2 containers — and quantized sections written
before frozen forms — read bit-identically under the current reader.

Old writers are gone, so the fixtures are materialized in-test by
``downgrade`` — the exact layout v1/v2 writers produced (one member file
per payload, no aliases, no zero elision; v1 additionally has no
checkpoint section).  Everything a v3 runtime can do with an old
container — load, mmap, serve, resume — must agree with the v3 original
byte for byte.
"""

import json
import os
import sys

import numpy as np
import pytest

from artifact_helpers import (
    downgrade,
    legacy_module_mode,
    legacy_quant_layout,
    legacy_sharded_spec,
)
from repro.artifact import load_artifact, save_artifact
from repro.artifact.errors import ArtifactFormatError, ArtifactVersionError
from repro.serve.session import ServeConfig, ServeSession

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "pipeline"))

VOCAB, DIM, LENGTH, CATALOG = 220, 8, 6, 10


def _model(seed=0):
    from repro.models.builder import build_pointwise_ranker

    return build_pointwise_ranker(
        "full", VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM, rng=seed,
    )


def _checkpointed(model):
    state = model.state_dict()
    arrays = {f"model/{k}": v for k, v in state.items()}
    arrays["opt/velocity.0"] = np.zeros_like(model.embedding.table.data)
    return {"train_state": {"epoch": 1}}, arrays


@pytest.fixture
def exports(tmp_path):
    model = _model()
    v3 = str(tmp_path / "v3")
    save_artifact(model, v3, checkpoint=_checkpointed(model))
    return model, v3


class TestDowngradedContainers:
    @pytest.mark.parametrize("version", [1, 2])
    def test_loads_bit_identical(self, exports, tmp_path, version):
        _model_, v3 = exports
        old = downgrade(v3, str(tmp_path / f"v{version}"), version)
        v3_art, old_art = load_artifact(v3), load_artifact(old)
        assert old_art.manifest["format_version"] == version
        expected = {
            n for n in v3_art.manifest["payloads"]
            if version > 1 or not n.startswith("checkpoint/")
        }
        assert set(old_art.manifest["payloads"]) == expected
        for name in expected:
            assert np.array_equal(old_art.array(name), v3_art.array(name)), name

    @pytest.mark.parametrize("version", [1, 2])
    def test_serves_identical_predictions(self, exports, tmp_path, version):
        _model_, v3 = exports
        old = downgrade(v3, str(tmp_path / f"v{version}"), version)
        ids = np.random.default_rng(5).integers(0, VOCAB, size=(24, LENGTH))
        with ServeSession.load(v3) as a, ServeSession.load(old) as b:
            assert np.array_equal(a.predict(ids), b.predict(ids))

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_containers_mmap_too(self, exports, tmp_path, version):
        """v3 merely promises what old writers already did (raw C-order
        member bytes) — so the mmap fast path works on old containers."""
        _model_, v3 = exports
        old = downgrade(v3, str(tmp_path / f"v{version}"), version)
        art = load_artifact(old, mmap=True)
        assert isinstance(art.array("embedding/table"), np.memmap)
        assert np.array_equal(
            art.array("embedding/table"),
            load_artifact(v3).array("embedding/table"),
        )

    def test_v1_has_no_checkpoint(self, exports, tmp_path):
        _model_, v3 = exports
        old = downgrade(v3, str(tmp_path / "v1"), 1)
        assert not load_artifact(old).has_checkpoint

    def test_unknown_version_rejected(self, exports, tmp_path):
        _model_, v3 = exports
        old = downgrade(v3, str(tmp_path / "v99"), 2)
        mpath = os.path.join(old, "manifest.json")
        manifest = json.load(open(mpath))
        manifest["format_version"] = 99
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactVersionError):
            load_artifact(old)


class TestV2CheckpointResume:
    def test_resume_from_downgraded_checkpoint_bit_identical(self, tmp_path):
        """A real v2-era training checkpoint (downgraded from v3) resumes to
        the same final weights as the v3 original."""
        from pipeline_helpers import tiny_spec

        from repro.pipeline import TrainSession

        spec = tiny_spec("full", optimizer="sgd", epochs=2)
        session = TrainSession(spec)
        session.fit(stop_after_epoch=1)
        v3 = str(tmp_path / "ck")
        session.save_checkpoint(v3)
        v2 = downgrade(v3, str(tmp_path / "ck-v2"), 2)

        a, b = TrainSession.resume(v3), TrainSession.resume(v2)
        a.fit()
        b.fit()
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        a.export(pa)
        b.export(pb)
        aa, bb = load_artifact(pa), load_artifact(pb)
        for name in aa.manifest["payloads"]:
            assert np.array_equal(aa.array(name), bb.array(name)), name


class TestLegacyQuantizedSections:
    """Quantized containers written before frozen forms: the table, memcom
    and tt_rec modes stored the same per-table payloads and still serve;
    the module mode stored an FP32 working copy and fails typed."""

    @pytest.mark.parametrize("technique,hyper", [
        ("full", {}),
        ("truncate_rare", {"keep": 50}),
        ("memcom", {"num_hash_embeddings": 32}),
        ("memcom_nobias", {"num_hash_embeddings": 32}),
        ("tt_rec", {"tt_rank": 3}),
    ])
    @pytest.mark.parametrize("bits", [8, 4])
    def test_legacy_modes_serve_bit_identical(self, tmp_path, technique, hyper, bits):
        from repro.models.builder import build_pointwise_ranker

        model = build_pointwise_ranker(
            technique, VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
            rng=0, **hyper,
        )
        new = str(tmp_path / "new")
        save_artifact(model, new, bits=bits)
        old = legacy_quant_layout(new, str(tmp_path / "old"), model.embedding)
        manifest = load_artifact(old).manifest
        assert "form" not in manifest["embedding"]["quant"]
        ids = np.random.default_rng(5).integers(0, VOCAB, size=(24, LENGTH))
        with ServeSession.load(new) as a, ServeSession.load(old) as b:
            assert np.array_equal(a.predict(ids), b.predict(ids))

    def test_quantized_artifact_stores_one_payload_pair_per_form_table(self, tmp_path):
        from repro.models.builder import build_pointwise_ranker

        model = build_pointwise_ranker(
            "factorized", VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
            rng=0, hidden_dim=4,
        )
        art = save_artifact(model, str(tmp_path / "q"), bits=8)
        names = {n for n in art.manifest["payloads"] if n.startswith("embedding/")}
        assert names == {
            f"embedding/{t}.{part}" for t in ("table", "projection")
            for part in ("codes", "scales")
        }

    def test_legacy_module_mode_fails_typed(self, tmp_path):
        from repro.models.builder import build_pointwise_ranker

        model = build_pointwise_ranker(
            "hash", VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
            rng=0, num_hash_embeddings=32,
        )
        fp32 = str(tmp_path / "fp32")
        save_artifact(model, fp32)
        old = legacy_module_mode(fp32, str(tmp_path / "module"))
        with pytest.raises(ArtifactFormatError, match="'hash'.*re-export it from the FP32"):
            ServeSession.load(old)


class TestLegacyShardedSpec:
    """FP32 containers of a hash-sharded export record a sharded rebuild
    spec.  Sharded layouts are gone, so both readers fail typed and ask for
    a re-export instead of naming an unknown class."""

    @pytest.fixture(params=["full", "memcom"])
    def sharded(self, request, tmp_path):
        from repro.models.builder import build_pointwise_ranker

        hyper = {"num_hash_embeddings": 32} if request.param == "memcom" else {}
        model = build_pointwise_ranker(
            request.param, VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
            rng=0, **hyper,
        )
        fp32 = str(tmp_path / "fp32")
        save_artifact(model, fp32)
        return legacy_sharded_spec(fp32, str(tmp_path / "sharded"))

    def test_sharded_fp32_spec_fails_typed(self, sharded):
        with pytest.raises(ArtifactFormatError, match="re-export"):
            ServeSession.load(sharded)
        with pytest.raises(ArtifactFormatError, match="re-export"):
            load_artifact(sharded).serving_embedding()

    def test_serve_bench_on_sharded_fp32_export_is_one_line_error(
        self, sharded, capsys
    ):
        from repro.cli import main

        code = main(["serve-bench", "--artifact", sharded, "--requests", "16",
                     "--batch-size", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert "re-export" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
