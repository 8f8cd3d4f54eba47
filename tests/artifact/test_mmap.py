"""mmap loading: O(manifest) load, shared read-only maps, bit-identity.

``load_artifact(path, mmap=True)`` must never materialize the FP32 table:
payloads become read-only ``np.memmap`` views, aliases share one map, and
a subprocess RSS probe at the bottom proves a big table costs pages-touched
rather than table-size memory.  Predictions through the full serving stack
stay bit-identical to an eager load.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.artifact import load_artifact, save_artifact
from repro.artifact.errors import ArtifactFormatError, ArtifactIntegrityError
from repro.serve.session import ServeConfig, ServeSession

VOCAB, DIM, LENGTH, CATALOG = 300, 16, 6, 12


def _model(technique="full", seed=0, **hyper):
    from repro.models.builder import build_pointwise_ranker

    return build_pointwise_ranker(
        technique, VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
        rng=seed, **hyper,
    )


def _requests(n=32, seed=1):
    return np.random.default_rng(seed).integers(0, VOCAB, size=(n, LENGTH))


class TestMmapLoad:
    def test_arrays_are_readonly_memmaps(self, tmp_path):
        path = str(tmp_path / "a")
        save_artifact(_model(), path)
        art = load_artifact(path, mmap=True)
        assert art.mmap_backed
        table = art.array("embedding/table")
        assert isinstance(table, np.memmap)
        assert not table.flags.writeable
        eager = load_artifact(path)
        for name in art.manifest["payloads"]:
            assert np.array_equal(art.array(name), eager.array(name)), name

    def test_aliases_share_one_map(self, tmp_path):
        model = _model()
        state = model.state_dict()
        ckpt = ({"train_state": {"epoch": 0}},
                {f"model/{k}": v for k, v in state.items()})
        path = str(tmp_path / "a")
        save_artifact(model, path, checkpoint=ckpt)
        art = load_artifact(path, mmap=True)
        assert art.array("embedding/table") is art.array(
            "checkpoint/model/embedding.table"
        )

    @pytest.mark.parametrize("bits", [32, 8, 4])
    def test_served_predictions_bit_identical(self, tmp_path, bits):
        path = str(tmp_path / f"a{bits}")
        save_artifact(_model(), path, bits=bits)
        ids = _requests()
        with ServeSession.load(path) as cold:
            want = cold.predict(ids)
        with ServeSession.load(path, ServeConfig(mmap=True)) as mapped:
            got = mapped.predict(ids)
        assert np.array_equal(want, got)

    def test_memcom_served_bit_identical(self, tmp_path):
        path = str(tmp_path / "m")
        save_artifact(_model("memcom", num_hash_embeddings=32), path)
        ids = _requests()
        with ServeSession.load(path) as cold:
            want = cold.predict(ids)
        with ServeSession.load(path, ServeConfig(mmap=True)) as mapped:
            got = mapped.predict(ids)
        assert np.array_equal(want, got)

    def test_zip_containers_refuse_mmap(self, tmp_path):
        path = str(tmp_path / "a.zip")
        save_artifact(_model(), path)
        with pytest.raises(ArtifactFormatError, match="directory-form"):
            load_artifact(path, mmap=True)

    def test_truncated_member_fails_integrity(self, tmp_path):
        path = str(tmp_path / "a")
        art = save_artifact(_model(), path)
        member = art.manifest["payloads"]["embedding/table"]["file"]
        full = os.path.join(path, member)
        with open(full, "r+b") as fh:
            fh.truncate(os.path.getsize(full) - 8)
        with pytest.raises(ArtifactIntegrityError, match="bytes on disk"):
            load_artifact(path, mmap=True)

    def test_from_model_session_rejects_mmap(self):
        with pytest.raises(ValueError, match="no file to map"):
            ServeSession.from_model(_model(), ServeConfig(mmap=True))


_RSS_PROBE = textwrap.dedent("""
    import sys

    def rss_kib():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])

    import numpy as np
    from repro.artifact import load_artifact
    from repro.serve.session import ServeConfig, ServeSession

    before = rss_kib()
    art = load_artifact(sys.argv[1], mmap=sys.argv[2] == "mmap")
    # The whole serving stack, engine included: its plan must adopt the
    # read-only mapped tables, not copy them.
    session = ServeSession.load(art)
    # serve a handful of rows — what a sparse request pattern costs
    ids = np.arange(session.engine.input_length)[None, :]
    _ = float(session.predict(np.concatenate([ids, ids[:, ::-1] * 97])).sum())
    print(rss_kib() - before)
""")

#: techniques whose ~24.4 MiB table is a (50,000 × 128) gather table;
#: hash, truncate_rare and factorized once served through a deep copy
_BIG_TABLE = {
    "full": {},
    "truncate_rare": {"keep": 49_998},
    "hash": {"num_hash_embeddings": 50_000},
    "factorized": {"hidden_dim": 128},
}


class TestMemoryFootprint:
    @pytest.mark.parametrize("technique", sorted(_BIG_TABLE))
    def test_mmap_does_not_materialize_the_table(self, tmp_path, technique):
        """A table much larger than interpreter noise: loading and serving
        it eagerly carries it in RSS, mapped it costs touched pages only."""
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc for a current-RSS reading")
        from repro.models.builder import build_pointwise_ranker

        big_vocab, big_dim = 50_000, 128  # 50000×128×4B ≈ 24.4 MiB
        model = build_pointwise_ranker(
            technique, big_vocab, CATALOG, input_length=LENGTH,
            embedding_dim=big_dim, rng=0, **_BIG_TABLE[technique],
        )
        path = str(tmp_path / "big")
        save_artifact(model, path)
        table_kib = big_vocab * big_dim * 4 // 1024

        def grew_kib(mode):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run(
                [sys.executable, "-c", _RSS_PROBE, path, mode],
                capture_output=True, text=True, env=env, check=True,
            )
            return int(out.stdout.strip())

        mapped = grew_kib("mmap")
        assert mapped < table_kib / 2, (
            f"mmap load + serving grew RSS by {mapped} KiB "
            f"(table is {table_kib} KiB)"
        )
        if technique == "full":
            # The probe sees a materialized table: the eager load carries
            # the whole table (and its plan snapshot) in RSS.
            assert mapped + table_kib / 2 < grew_kib("eager")
