"""Snapshot a live model's tower as a :class:`~repro.artifact.plan.TowerPlan`.

It reads the model classes, so it lives beside them: serving a stored plan
(:func:`repro.artifact.plan.build_tower`) never imports this module.
"""

from __future__ import annotations

from repro.artifact.plan import TowerPlan
from repro.models.classifier import EmbeddingClassifier
from repro.models.pointwise import PointwiseRanker
from repro.models.ranknet import RankNet

__all__ = ["tower_plan_of"]


def _snap_batch_norm(plan: TowerPlan, name: str, bn) -> None:
    plan.arrays[f"{name}.gamma"] = bn.gamma.data.copy()
    plan.arrays[f"{name}.beta"] = bn.beta.data.copy()
    plan.arrays[f"{name}.running_mean"] = bn.running_mean.copy()
    plan.arrays[f"{name}.running_var"] = bn.running_var.copy()
    plan.meta.setdefault("eps", {})[name] = float(bn.eps)


def _snap_dense(plan: TowerPlan, name: str, dense) -> None:
    # The models' dense layers all carry a bias, so a plan read off a
    # manifest that lacks one fails in build_tower rather than serving
    # without it.
    plan.arrays[f"{name}.weight"] = dense.weight.data.copy()
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
