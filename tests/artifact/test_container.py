"""Container mechanics of :mod:`repro.artifact`: manifest, hashing, errors."""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.artifact import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    ArtifactError,
    ArtifactFormatError,
    ArtifactIntegrityError,
    ArtifactVersionError,
    load_artifact,
    save_artifact,
)
from repro.models.builder import build_pointwise_ranker


def _model(technique="memcom", vocab=300, **hyper):
    defaults = {"memcom": {"num_hash_embeddings": 32}, "full": {}}[technique]
    defaults.update(hyper)
    return build_pointwise_ranker(
        technique, vocab, 12, input_length=6, embedding_dim=16, rng=0, **defaults
    )


def _manifest_path(path):
    return os.path.join(path, "manifest.json")


def _rewrite_manifest(path, mutate):
    with open(_manifest_path(path)) as fh:
        manifest = json.load(fh)
    mutate(manifest)
    with open(_manifest_path(path), "w") as fh:
        json.dump(manifest, fh)


def _first_stored_payload(artifact):
    """First payload that owns a member file (v3 elides all-zero payloads
    and aliases duplicates — corruption tests need real bytes on disk)."""
    return sorted(
        n for n, m in artifact.manifest["payloads"].items()
        if "file" in m and "alias" not in m
    )[0]


class TestLayout:
    def test_directory_layout_and_manifest_fields(self, tmp_path):
        out = str(tmp_path / "art")
        artifact = save_artifact(_model(), out, bits=8)
        assert os.path.isfile(_manifest_path(out))
        with open(_manifest_path(out)) as fh:
            manifest = json.load(fh)
        assert manifest["format"] == FORMAT_MAGIC
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["bits"] == 8
        assert manifest["model"]["architecture"] == "PointwiseRanker"
        assert manifest["embedding"]["technique"] == "memcom"
        for meta in manifest["payloads"].values():
            if meta.get("zeros"):
                # v3 elides all-zero payloads: no member file exists
                assert "file" not in meta
            else:
                member = os.path.join(out, meta["file"])
                assert os.path.isfile(member)
                assert os.path.getsize(member) == meta["nbytes"]
            assert len(meta["sha256"]) == 64
        assert artifact.total_bytes() == artifact.payload_bytes() + os.path.getsize(
            _manifest_path(out)
        )

    def test_zip_container_round_trips_identically(self, tmp_path):
        model = _model()
        as_dir = save_artifact(model, str(tmp_path / "d"))
        as_zip = save_artifact(model, str(tmp_path / "z.zip"))
        assert zipfile.is_zipfile(tmp_path / "z.zip")
        loaded_dir = load_artifact(str(tmp_path / "d"))
        loaded_zip = load_artifact(str(tmp_path / "z.zip"))
        assert loaded_dir.manifest["payloads"] == loaded_zip.manifest["payloads"]
        for name in loaded_dir.manifest["payloads"]:
            np.testing.assert_array_equal(
                loaded_dir.array(name), loaded_zip.array(name)
            )
        assert as_dir.payload_bytes() == as_zip.payload_bytes()

    def test_quantized_payloads_shrink_the_container(self, tmp_path):
        model = _model("full", vocab=2000)
        fp32 = save_artifact(model, str(tmp_path / "fp32"))
        int8 = save_artifact(model, str(tmp_path / "int8"), bits=8)
        int4 = save_artifact(model, str(tmp_path / "int4"), bits=4)
        # Acceptance gate: int8 artifact ≤ 0.35× the FP32 artifact on disk.
        assert int8.total_bytes() <= 0.35 * fp32.total_bytes()
        assert int4.total_bytes() < int8.total_bytes()

    def test_save_rejects_bad_bits_and_models(self, tmp_path):
        with pytest.raises(ValueError, match="bits"):
            save_artifact(_model(), str(tmp_path / "a"), bits=16)
        with pytest.raises(TypeError, match="no artifact export"):
            save_artifact(object(), str(tmp_path / "b"))


class TestTypedErrors:
    def test_missing_path_is_format_error(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="no artifact"):
            load_artifact(str(tmp_path / "nope"))

    def test_plain_file_is_format_error(self, tmp_path):
        stray = tmp_path / "stray.bin"
        stray.write_bytes(b"not an artifact")
        with pytest.raises(ArtifactFormatError, match="neither"):
            load_artifact(str(stray))

    def test_dir_without_manifest_is_format_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArtifactFormatError, match="manifest"):
            load_artifact(str(tmp_path / "empty"))

    def test_unparseable_manifest_is_format_error(self, tmp_path):
        out = str(tmp_path / "art")
        save_artifact(_model(), out)
        with open(_manifest_path(out), "w") as fh:
            fh.write("{broken json")
        with pytest.raises(ArtifactFormatError, match="unparseable"):
            load_artifact(out)

    def test_wrong_magic_is_format_error(self, tmp_path):
        out = str(tmp_path / "art")
        save_artifact(_model(), out)
        _rewrite_manifest(out, lambda m: m.update(format="some.other.container"))
        with pytest.raises(ArtifactFormatError, match="format"):
            load_artifact(out)

    def test_future_version_is_version_error(self, tmp_path):
        out = str(tmp_path / "art")
        save_artifact(_model(), out)
        _rewrite_manifest(out, lambda m: m.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(ArtifactVersionError, match="version"):
            load_artifact(out)

    @pytest.mark.parametrize("version", [True, 3.0, "3"], ids=["true", "3.0", "str"])
    def test_non_integer_version_is_version_error(self, tmp_path, version):
        """``in`` compares with ==, under which true reads as v1 and 3.0 as
        v3: the version must be a JSON integer."""
        out = str(tmp_path / "art")
        save_artifact(_model(), out)
        _rewrite_manifest(out, lambda m: m.update(format_version=version))
        with pytest.raises(ArtifactVersionError, match="version"):
            load_artifact(out)

    def test_missing_required_field_is_format_error(self, tmp_path):
        out = str(tmp_path / "art")
        save_artifact(_model(), out)
        _rewrite_manifest(out, lambda m: m.pop("tower"))
        with pytest.raises(ArtifactFormatError, match="tower"):
            load_artifact(out)

    def test_corrupted_payload_is_integrity_error(self, tmp_path):
        out = str(tmp_path / "art")
        artifact = save_artifact(_model(), out)
        name = _first_stored_payload(artifact)
        member = os.path.join(out, artifact.manifest["payloads"][name]["file"])
        data = bytearray(open(member, "rb").read())
        data[0] ^= 0xFF  # flip one bit pattern, size unchanged
        with open(member, "wb") as fh:
            fh.write(data)
        with pytest.raises(ArtifactIntegrityError, match="hash mismatch"):
            load_artifact(out)

    def test_truncated_payload_is_integrity_error(self, tmp_path):
        out = str(tmp_path / "art")
        artifact = save_artifact(_model(), out)
        name = _first_stored_payload(artifact)
        member = os.path.join(out, artifact.manifest["payloads"][name]["file"])
        data = open(member, "rb").read()
        with open(member, "wb") as fh:
            fh.write(data[:-1])
        with pytest.raises(ArtifactIntegrityError, match="bytes"):
            load_artifact(out)

    def test_deleted_payload_is_integrity_error(self, tmp_path):
        out = str(tmp_path / "art")
        artifact = save_artifact(_model(), out)
        name = _first_stored_payload(artifact)
        os.remove(os.path.join(out, artifact.manifest["payloads"][name]["file"]))
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            load_artifact(out)

    def test_truncated_zip_is_integrity_error(self, tmp_path):
        # A zip cut short (torn download, full disk) must read as damage,
        # not as "this was never an artifact".
        out = str(tmp_path / "art.zip")
        save_artifact(_model(), out)
        data = open(out, "rb").read()
        with open(out, "wb") as fh:
            fh.write(data[: int(len(data) * 0.6)])
        with pytest.raises(ArtifactIntegrityError, match="truncated or corrupted"):
            load_artifact(out)

    def test_bitflipped_zip_member_is_integrity_error(self, tmp_path):
        # Damage *inside* the zip (payload bytes) — caught typed, whether by
        # zipfile's own CRC or by the manifest's sha256, never a bare
        # BadZipFile/struct.error escaping to the caller.
        out = str(tmp_path / "art.zip")
        save_artifact(_model(), out)
        data = bytearray(open(out, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(out, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            load_artifact(out)

    def test_malformed_payload_index_entry_is_format_error(self, tmp_path):
        out = str(tmp_path / "art")
        artifact = save_artifact(_model(), out)
        name = _first_stored_payload(artifact)

        def strip_file_key(manifest):
            del manifest["payloads"][name]["file"]

        _rewrite_manifest(out, strip_file_key)
        with pytest.raises(ArtifactFormatError, match="malformed payload index"):
            load_artifact(out)

    def test_truncated_checkpoint_payload_in_zip_is_integrity_error(self, tmp_path):
        # v2 checkpoint tensors ride the same verified payload index; a
        # truncated checkpoint member in a zip container fails typed too.
        out = str(tmp_path / "ckpt.zip")
        ckpt = ({"epoch": 3}, {"model/w": np.arange(64, dtype=np.float32)})
        artifact = save_artifact(_model(), out, checkpoint=ckpt)
        member = artifact.manifest["payloads"]["checkpoint/model/w"]["file"]
        with zipfile.ZipFile(out) as zf:
            contents = {info.filename: zf.read(info.filename) for info in zf.infolist()}
        contents[member] = contents[member][:-8]
        with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as zf:
            for filename, data in contents.items():
                zf.writestr(filename, data)
        with pytest.raises(ArtifactIntegrityError, match="bytes"):
            load_artifact(out)

    def test_corrupted_checkpoint_payload_in_dir_is_integrity_error(self, tmp_path):
        out = str(tmp_path / "ckpt")
        ckpt = ({"epoch": 3}, {"model/w": np.arange(64, dtype=np.float32)})
        artifact = save_artifact(_model(), out, checkpoint=ckpt)
        member = os.path.join(
            out, artifact.manifest["payloads"]["checkpoint/model/w"]["file"]
        )
        data = bytearray(open(member, "rb").read())
        data[0] ^= 0xFF
        with open(member, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ArtifactIntegrityError, match="hash mismatch"):
            load_artifact(out)

    def test_all_errors_share_the_artifact_root(self):
        for cls in (ArtifactFormatError, ArtifactVersionError, ArtifactIntegrityError):
            assert issubclass(cls, ArtifactError)

    def test_missing_quant_table_entry_is_format_error(self, tmp_path):
        out = str(tmp_path / "q")
        save_artifact(_model(), out, bits=8)
        _rewrite_manifest(
            out, lambda m: m["embedding"]["tables"].pop("multiplier")
        )
        with pytest.raises(ArtifactFormatError, match="quantized embedding"):
            load_artifact(out).serving_embedding()

    def test_fp32_form_naming_a_missing_table_is_format_error(self, tmp_path):
        out = str(tmp_path / "f")
        save_artifact(_model(), out)
        # memcom's form: add(mul(shared, multiplier), bias)
        _rewrite_manifest(
            out, lambda m: m["embedding"]["form"]["parts"][1].update(gather="nope")
        )
        with pytest.raises(ArtifactFormatError, match="FP32 embedding.*'nope'"):
            load_artifact(out).serving_embedding()

    @pytest.mark.parametrize("payload", ["tower/out.bias", "tower/norm.gamma"])
    def test_missing_tower_payload_is_format_error(self, tmp_path, payload):
        """The tower's arrays are named by its payloads: a manifest without
        one fails typed, never serving a tower that lacks it."""
        from repro.serve.session import ServeSession

        out = str(tmp_path / "t")
        save_artifact(_model(), out)
        _rewrite_manifest(out, lambda m: m["payloads"].pop(payload))
        with pytest.raises(ArtifactFormatError, match="tower plan has no"):
            ServeSession.load(out)

    def test_missing_quant_meta_key_is_format_error(self, tmp_path):
        out = str(tmp_path / "q2")
        save_artifact(_model(), out, bits=8)
        _rewrite_manifest(out, lambda m: m["embedding"]["quant"].pop("form"))
        with pytest.raises(ArtifactFormatError, match="quantized embedding"):
            load_artifact(out).serving_embedding()
