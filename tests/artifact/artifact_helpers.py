"""Shared fixtures for the v3 artifact-plane tests.

``downgrade`` materializes the v1/v2-equivalent of a v3 container — every
payload expanded into its own member file, no aliases, no zero elision, no
delta section — which is both the back-compat fixture (old readers wrote
exactly this layout) and the size baseline the v3 dedup gate measures
against.
"""

import json
import os
import shutil

import numpy as np

from repro.artifact import load_artifact


def downgrade(src: str, dst: str, version: int) -> str:
    """Write the v1/v2-equivalent container of the v3 artifact at ``src``.

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

    os.makedirs(os.path.join(dst, "payloads"))
    index = {}
    for name, meta in art.manifest["payloads"].items():
        if version == 1 and name.startswith("checkpoint/"):
            continue
        member = os.path.join("payloads", name.replace("/", ".") + ".bin")
        arr = np.ascontiguousarray(art.array(name))
        with open(os.path.join(dst, member), "wb") as fh:
            fh.write(arr.tobytes())
        index[name] = {
            "file": member,
            "dtype": meta["dtype"],
            "shape": list(meta["shape"]),
            "nbytes": int(meta["nbytes"]),
            "sha256": meta["sha256"],
        }
    manifest["payloads"] = index
    with open(os.path.join(dst, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return dst


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


def legacy_sharded_spec(src: str, dst: str) -> str:
    """Rewrite the FP32 full or memcom container at ``src`` as a hash-sharded
    export recorded it: the same rebuild spec under ``ShardedFullEmbedding``
    or ``ShardedMEmComEmbedding`` with ``n_shards``.  Only the spec matters;
    the reader refuses before it reads any state."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    spec = manifest["embedding"]["spec"]
    assert spec["class"] in ("FullEmbedding", "MEmComEmbedding"), spec
    spec.update({"class": "Sharded" + spec["class"], "n_shards": 4})
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return dst
