"""Shared fixtures for the artifact-plane tests.

``downgrade`` materializes the v1/v2-equivalent of a current container —
every payload expanded into its own member file, no aliases, no zero
elision, no delta section — which is both the back-compat fixture (old
readers wrote exactly this layout) and the size baseline the v3 dedup gate
measures against.  ``legacy_fp32_spec`` writes a model as v1–v3 FP32
writers did: a constructor recipe plus the module's state dict.
"""

import hashlib
import json
import os
import shutil

import numpy as np

from repro.artifact import load_artifact, save_artifact


def _write_old_layout(dst: str, manifest: dict, arrays: dict) -> str:
    """One member file per payload: no aliasing, zero elision or delta."""
    os.makedirs(os.path.join(dst, "payloads"))
    index = {}
    for name, arr in arrays.items():
        member = os.path.join("payloads", name.replace("/", ".") + ".bin")
        data = np.ascontiguousarray(arr).tobytes()
        with open(os.path.join(dst, member), "wb") as fh:
            fh.write(data)
        index[name] = {
            "file": member,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "nbytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    manifest["payloads"] = index
    with open(os.path.join(dst, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return dst


def downgrade(src: str, dst: str, version: int) -> str:
    """Write the v1/v2-equivalent container of the artifact at ``src``.

    v2 = same content, one member file per payload, no aliasing/zeros/delta.
    v1 additionally predates checkpoints: the checkpoint section and its
    payloads are dropped (v1 writers never produced them).
    """
    assert version in (1, 2)
    art = load_artifact(src)
    manifest = json.loads(json.dumps(art.manifest))  # deep copy
    manifest["format_version"] = version
    manifest.pop("delta", None)
    if version == 1:
        manifest.pop("checkpoint", None)
    arrays = {
        name: art.array(name) for name in art.manifest["payloads"]
        if version > 1 or not name.startswith("checkpoint/")
    }
    return _write_old_layout(dst, manifest, arrays)


#: the constructor recipe v1–v3 writers recorded per technique class:
#: keyword=attribute, or a keyword read from the attribute of its name
_SPEC_ATTRS = {
    "FullEmbedding": "vocab_size embedding_dim",
    "MEmComEmbedding":
        "vocab_size embedding_dim num_hash_embeddings bias multiplier_init",
    "TTRecEmbedding": "vocab_size embedding_dim tt_rank",
    "FactorizedEmbedding": "vocab_size embedding_dim hidden_dim",
    "ReducedDimEmbedding": "vocab_size reduced_dim=embedding_dim",
    "TruncateRareEmbedding": "vocab_size embedding_dim keep",
    "QREmbedding":
        "vocab_size embedding_dim num_remainder_embeddings operation",
    "NaiveHashEmbedding":
        "vocab_size embedding_dim num_hash_embeddings hash_family",
    "DoubleHashEmbedding": "vocab_size embedding_dim num_hash_embeddings",
    "FrequencyDoubleHashEmbedding":
        "vocab_size embedding_dim num_hash_embeddings keep",
    "MixedDimEmbedding": "vocab_size embedding_dim num_blocks temperature",
    "HashedOneHotEncoder":
        "vocab_size embedding_dim num_hash_buckets signed average",
}


def legacy_fp32_spec(model, dst: str, version: int = 3) -> str:
    """Write ``model`` as an FP32 container of format ``version`` (1–3) as
    those writers laid it out: the embedding section a constructor recipe
    (``spec``) plus state-dict names (``state``), one ``embedding/<key>``
    payload per state-dict entry, one member file per payload."""
    assert version in (1, 2, 3)
    art = save_artifact(model, dst + ".current")
    emb = model.embedding
    spec = {"class": type(emb).__name__, "technique": emb.technique}
    for item in _SPEC_ATTRS[spec["class"]].split():
        key, _, attr = item.partition("=")
        spec[key] = getattr(emb, attr or key)
    state = emb.state_dict()
    manifest = json.loads(json.dumps(art.manifest))  # deep copy
    manifest["format_version"] = version
    section = manifest["embedding"]
    del section["form"]
    section.update(spec=spec, state=sorted(state))
    arrays = {
        name: art.array(name) for name in art.manifest["payloads"]
        if not name.startswith("embedding/")
    }
    arrays.update({f"embedding/{key}": arr for key, arr in state.items()})
    shutil.rmtree(dst + ".current")
    return _write_old_layout(dst, manifest, arrays)


def legacy_quant_layout(src: str, dst: str, embedding) -> str:
    """Write the quantized container at ``src`` as runtimes before frozen
    forms laid it out: the same per-table codes/scales payloads, but a
    quant section keyed by ``mode`` (table, memcom or tt_rec) instead of a
    form.  ``embedding`` is the FP32 module the container was exported
    from; its attributes fill the mode's fields exactly as those writers
    did.
    """
    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    quant = manifest["embedding"]["quant"]
    del quant["form"]
    if hasattr(embedding, "tt_rank"):
        quant.update(
            mode="tt_rec",
            vocab_shape=list(embedding.vocab_shape),
            dim_shape=list(embedding.dim_shape),
            tt_rank=embedding.tt_rank,
        )
    elif hasattr(embedding, "multiplier"):
        quant.update(mode="memcom", num_hash=embedding.num_hash_embeddings)
    else:
        quant.update(mode="table", remap_keep=getattr(embedding, "keep", None))
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return dst


def legacy_module_mode(src: str, dst: str) -> str:
    """Rewrite the FP32 container at ``src`` into the int8 *module mode*
    section those runtimes wrote for techniques without integer storage:
    the FP32 state under ``embedding/module/*`` plus its rebuild spec."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    section = manifest["embedding"]
    manifest["bits"] = 8
    section["kind"] = "quantized"
    section["quant"] = {
        "bits": 8, "percentile": None, "technique": section["technique"],
        "vocab_size": section["vocab_size"], "output_dim": section["output_dim"],
        "mode": "module",
    }
    manifest["payloads"] = {
        name.replace("embedding/", "embedding/module/", 1): meta
        for name, meta in manifest["payloads"].items()
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return dst


def legacy_sharded_spec(model, dst: str) -> str:
    """Write the full or memcom ``model`` as a hash-sharded v3 export
    recorded it: the legacy FP32 spec under ``ShardedFullEmbedding`` or
    ``ShardedMEmComEmbedding`` with ``n_shards``.  Only the spec matters;
    the reader refuses before it reads any state."""
    legacy_fp32_spec(model, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    spec = manifest["embedding"]["spec"]
    assert spec["class"] in ("FullEmbedding", "MEmComEmbedding"), spec
    spec.update({"class": "Sharded" + spec["class"], "n_shards": 4})
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return dst
