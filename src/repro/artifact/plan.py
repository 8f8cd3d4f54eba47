"""Serving plans as plain data: frozen towers and embedding rebuild specs.

The serving engine used to freeze a model's tower by reaching into live
layer objects, which tied "build the forward closures" to "hold the trained
model in memory".  An on-disk artifact has no model object — only arrays —
so the freeze is split in two:

* :func:`tower_plan_of` extracts a :class:`TowerPlan` — architecture kind,
  pooling width, scalar metadata and *named ndarrays* — from a live model;
* :func:`build_tower` turns a plan (from a model or from loaded payloads)
  into the forward-closure chain, running exactly the op sequence the
  eval-mode model runs (same primitives, same association order), so a
  tower rebuilt from disk is bit-identical to one frozen from the model.

FP32 embeddings are persisted as a **rebuild spec** — the constructor
recipe (class + hyperparameters) — plus the module's state dict, and the
serving engine reads the rebuilt module's frozen form.  Construction is
deterministic given the spec, and every value that matters (tables, hash
salts, running statistics) comes from the state dict, so
``build_embedding_from_spec(spec).load_state_dict(state)`` reproduces the
module float-for-float.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.full import FullEmbedding
from repro.core.hashing import (
    DoubleHashEmbedding,
    FrequencyDoubleHashEmbedding,
    NaiveHashEmbedding,
)
from repro.core.low_rank import FactorizedEmbedding, ReducedDimEmbedding
from repro.core.memcom import MEmComEmbedding
from repro.core.mixed_dim import MixedDimEmbedding
from repro.core.onehot import HashedOneHotEncoder
from repro.core.quotient_remainder import QREmbedding
from repro.core.truncate import TruncateRareEmbedding
from repro.core.tt_rec import TTRecEmbedding
from repro.models.classifier import EmbeddingClassifier
from repro.models.pointwise import PointwiseRanker
from repro.models.ranknet import RankNet
from repro.nn.init import lazy_init

from repro.artifact.errors import ArtifactFormatError

__all__ = [
    "TowerPlan",
    "tower_plan_of",
    "build_tower",
    "embedding_spec",
    "build_embedding_from_spec",
]


# -- frozen tower as data ----------------------------------------------------------


@dataclass
class TowerPlan:
    """Everything needed to rebuild a model's post-embedding forward pass.

    ``arrays`` are FP32 snapshots keyed by stable names (``norm.gamma``,
    ``out.weight``, …); ``meta`` carries the scalars the closures need
    (batch-norm epsilons, dense activations).  The plan is the unit the
    artifact container serializes for the tower.
    """

    kind: str  # classifier | pointwise | ranknet
    pool: int  # pooling width (the models pool the full input length)
    meta: dict = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def _snap_batch_norm(plan: TowerPlan, name: str, bn) -> None:
    plan.arrays[f"{name}.gamma"] = bn.gamma.data.copy()
    plan.arrays[f"{name}.beta"] = bn.beta.data.copy()
    plan.arrays[f"{name}.running_mean"] = bn.running_mean.copy()
    plan.arrays[f"{name}.running_var"] = bn.running_var.copy()
    plan.meta.setdefault("eps", {})[name] = float(bn.eps)


def _snap_dense(plan: TowerPlan, name: str, dense) -> None:
    plan.arrays[f"{name}.weight"] = dense.weight.data.copy()
    if dense.bias is not None:
        plan.arrays[f"{name}.bias"] = dense.bias.data.copy()
    plan.meta.setdefault("activation", {})[name] = dense.activation


def tower_plan_of(model) -> TowerPlan:
    """Snapshot the tower of a classifier / pointwise / RankNet model."""
    if isinstance(model, EmbeddingClassifier):
        plan = TowerPlan("classifier", int(model.input_length))
        _snap_batch_norm(plan, "norm1", model.norm1)
        _snap_dense(plan, "hidden", model.hidden)
        _snap_batch_norm(plan, "norm2", model.norm2)
        _snap_dense(plan, "out", model.out)
        return plan
    if isinstance(model, PointwiseRanker):
        plan = TowerPlan("pointwise", int(model.input_length))
        _snap_batch_norm(plan, "norm", model.norm)
        _snap_dense(plan, "out", model.out)
        return plan
    if isinstance(model, RankNet):
        plan = TowerPlan("ranknet", int(model.input_length))
        _snap_batch_norm(plan, "norm", model.norm)
        plan.arrays["item_table"] = model.item_table.data.copy()
        plan.arrays["item_bias"] = model.item_bias.data.copy()
        return plan
    raise TypeError(f"no serving plan for model type {type(model).__name__}")


def _batch_norm_fn(plan: TowerPlan, name: str):
    """Eval-mode batch norm, mirroring the layer's op sequence exactly."""
    a = plan.arrays
    inv_std = 1.0 / np.sqrt(a[f"{name}.running_var"] + plan.meta["eps"][name])
    running_mean = a[f"{name}.running_mean"]
    gamma, beta = a[f"{name}.gamma"], a[f"{name}.beta"]
    return lambda x: ((x - running_mean) * inv_std) * gamma + beta


def _dense_fn(plan: TowerPlan, name: str):
    weight = plan.arrays[f"{name}.weight"]
    bias = plan.arrays.get(f"{name}.bias")
    activation = plan.meta["activation"][name]

    def apply(x: np.ndarray) -> np.ndarray:
        out = x @ weight
        if bias is not None:
            out = out + bias
        if activation == "relu":
            out = np.maximum(out, 0.0)
        elif activation == "tanh":
            out = np.tanh(out)
        elif activation == "sigmoid":
            a = np.abs(out)
            out = np.where(
                out >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(-a) / (1.0 + np.exp(-a))
            ).astype(out.dtype)
        return out

    return apply


def _pool_flatten(x: np.ndarray, pool_size: int) -> np.ndarray:
    """AveragePooling1D + Flatten, as the models compose them."""
    b, length, e = x.shape
    pooled = x.reshape(b, length // pool_size, pool_size, e).mean(axis=2)
    return pooled.reshape(b, (length // pool_size) * e)


def build_tower(plan: TowerPlan):
    """Closure chain ``(B, L, e) | (B, e) -> scores`` for one plan."""
    pool = plan.pool

    if plan.kind == "classifier":
        norm1 = _batch_norm_fn(plan, "norm1")
        hidden = _dense_fn(plan, "hidden")
        norm2 = _batch_norm_fn(plan, "norm2")
        out = _dense_fn(plan, "out")

        def tower(h: np.ndarray) -> np.ndarray:
            if h.ndim == 3:
                h = _pool_flatten(h, pool)
            h = np.maximum(h, 0.0)
            return out(norm2(hidden(norm1(h))))

        return tower

    if plan.kind == "pointwise":
        norm = _batch_norm_fn(plan, "norm")
        out = _dense_fn(plan, "out")

        def tower(h: np.ndarray) -> np.ndarray:
            if h.ndim == 3:
                h = _pool_flatten(h, pool)
            return out(norm(np.maximum(h, 0.0)))

        return tower

    if plan.kind == "ranknet":
        norm = _batch_norm_fn(plan, "norm")
        # A transposed view, as the model multiplies: a contiguous copy
        # takes another BLAS kernel and moves the scores' last bits.
        items_t = plan.arrays["item_table"].T
        item_bias = plan.arrays["item_bias"].reshape(-1).copy()

        def tower(h: np.ndarray) -> np.ndarray:
            if h.ndim == 3:
                h = _pool_flatten(h, pool)
            user = norm(np.maximum(h, 0.0))
            return user @ items_t + item_bias

        return tower

    raise ArtifactFormatError(f"unknown tower kind {plan.kind!r}")


# -- embedding rebuild specs -------------------------------------------------------
#
# One entry per technique class: how to read its constructor recipe off a
# live instance.  Values that are arrays (tables, salts) are NOT part of the
# spec — they travel in the module's state dict.

_SPEC_READERS = {
    FullEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
    },
    MEmComEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_hash_embeddings": e.num_hash_embeddings, "bias": e.bias,
        "multiplier_init": e.multiplier_init,
    },
    TTRecEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "tt_rank": e.tt_rank,
    },
    FactorizedEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "hidden_dim": e.hidden_dim,
    },
    ReducedDimEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "reduced_dim": e.embedding_dim,
    },
    TruncateRareEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "keep": e.keep,
    },
    QREmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_remainder_embeddings": e.num_remainder_embeddings,
        "operation": e.operation,
    },
    NaiveHashEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_hash_embeddings": e.num_hash_embeddings,
        "hash_family": e.hash_family,
    },
    DoubleHashEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_hash_embeddings": e.num_hash_embeddings,
    },
    FrequencyDoubleHashEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_hash_embeddings": e.num_hash_embeddings, "keep": e.keep,
    },
    MixedDimEmbedding: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_blocks": e.num_blocks, "temperature": e.temperature,
    },
    HashedOneHotEncoder: lambda e: {
        "vocab_size": e.vocab_size, "embedding_dim": e.embedding_dim,
        "num_hash_buckets": e.num_hash_buckets, "signed": e.signed,
        "average": e.average,
    },
}

_SPEC_CLASSES = {cls.__name__: cls for cls in _SPEC_READERS}


def embedding_spec(emb: CompressedEmbedding) -> dict:
    """Constructor recipe ``{"class": ..., "technique": ..., **kwargs}``."""
    reader = _SPEC_READERS.get(type(emb))
    if reader is None:
        raise TypeError(
            f"no artifact rebuild spec for embedding type {type(emb).__name__}"
        )
    spec = {"class": type(emb).__name__, "technique": emb.technique}
    spec.update(reader(emb))
    return spec


def build_embedding_from_spec(spec: dict, lazy: bool = False) -> CompressedEmbedding:
    """Instantiate the spec'd class (rng=0 — real values come from state).

    ``lazy=True`` constructs under :func:`repro.nn.init.lazy_init`: random
    parameter fills become untouched zero pages.  Correct whenever the
    caller immediately strict-loads a full state dict (the artifact path) —
    the initial values are dead on arrival, and skipping them keeps an
    mmap-backed load from materializing table-sized scratch.
    """
    try:
        cls_name = spec["class"]
    except (KeyError, TypeError):
        raise ArtifactFormatError(f"embedding spec missing 'class': {spec!r}") from None
    cls = _SPEC_CLASSES.get(cls_name)
    if cls is None and "n_shards" in spec:  # written by a sharded export
        raise ArtifactFormatError(
            f"{cls_name}: sharded embedding layouts were removed; re-export "
            "this artifact from the monolithic model"
        )
    if cls is None:
        raise ArtifactFormatError(f"unknown embedding class {cls_name!r} in spec")
    kwargs = {k: v for k, v in spec.items() if k not in ("class", "technique")}
    try:
        if lazy:
            with lazy_init():
                return cls(**kwargs, rng=0)
        return cls(**kwargs, rng=0)
    except (TypeError, ValueError) as exc:
        raise ArtifactFormatError(
            f"cannot rebuild {cls_name} from spec {kwargs!r}: {exc}"
        ) from exc
