"""Serving towers as plain data.

The serving engine used to freeze a model's tower by reaching into live
layer objects, which tied "build the forward closures" to "hold the trained
model in memory".  An on-disk artifact has no model object — only arrays —
so the freeze is split in two:

* :func:`repro.models.tower.tower_plan_of` extracts a :class:`TowerPlan` —
  architecture kind, pooling width, scalar metadata and *named ndarrays* —
  from a live model;
* :func:`build_tower` turns a plan (from a model or from loaded payloads)
  into the forward-closure chain, running exactly the op sequence the
  eval-mode model runs (same primitives, same association order), so a
  tower rebuilt from disk is bit-identical to one frozen from the model.

The embedding half of a serving plan is the technique's frozen form
(:mod:`repro.frozen`), which artifacts store directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.artifact.errors import ArtifactFormatError

__all__ = ["TowerPlan", "build_tower"]


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


def _batch_norm_fn(plan: TowerPlan, name: str):
    """Eval-mode batch norm, mirroring the layer's op sequence exactly."""
    a = plan.arrays
    inv_std = 1.0 / np.sqrt(a[f"{name}.running_var"] + plan.meta["eps"][name])
    running_mean = a[f"{name}.running_mean"]
    gamma, beta = a[f"{name}.gamma"], a[f"{name}.beta"]
    return lambda x: ((x - running_mean) * inv_std) * gamma + beta


def _dense_fn(plan: TowerPlan, name: str):
    weight, bias = plan.arrays[f"{name}.weight"], plan.arrays[f"{name}.bias"]
    activation = plan.meta["activation"][name]

    def apply(x: np.ndarray) -> np.ndarray:
        out = x @ weight + bias
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
    try:
        return _tower(plan)
    except KeyError as exc:  # a plan read off a manifest that lacks an array
        raise ArtifactFormatError(f"{plan.kind} tower plan has no {exc}") from None


def _tower(plan: TowerPlan):
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
