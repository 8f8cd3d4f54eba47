"""The declarative pipeline configuration: everything one training run needs.

A :class:`PipelineSpec` pins the whole recipe — which Table 2 dataset at
which scale, which architecture and compression technique with which
hyperparameters, the :class:`~repro.train.trainer.TrainConfig`, optional
differential privacy, and the export defaults — and validates all of it up
front, the way :class:`repro.serve.ServeConfig` does for serving: a typo'd
field dies with a one-line ``ValueError`` before any data is generated or
table allocated.

The spec is also the *provenance record* of a checkpoint:
:meth:`to_manifest` / :meth:`from_manifest` round-trip it through the
artifact manifest, so ``TrainSession.resume(path)`` can rebuild the exact
dataset and model skeleton the checkpointed run was using.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.train.distill import DistillConfig
from repro.train.dp import DPConfig, DPTrainer
from repro.train.trainer import TrainConfig, Trainer
from repro.utils.rng import ensure_rng

__all__ = ["ARCHITECTURES", "PipelineSpec"]

ARCHITECTURES = ("auto", "classifier", "pointwise", "ranknet")
_VALID_BITS = (32, 8, 4)


@dataclass(frozen=True)
class PipelineSpec:
    """One validated recipe: dataset → model → training → export.

    Parameters
    ----------
    dataset:
        Table 2 preset name (``repro.data.DATASETS``); looked up when data
        is generated, so a :class:`TrainSession` given explicit data may
        carry any provenance label here.
    architecture:
        ``classifier`` / ``pointwise`` / ``ranknet``, or ``auto`` — pick
        ``classifier`` for classification datasets, ``pointwise`` for
        ranking ones (``ranknet`` trains on pairwise data and is always
        explicit).
    technique / hyper:
        Compression technique name (``repro.core.registry``) and its
        hyperparameters (e.g. ``{"num_hash_embeddings": 512}``).
    scale / cap_train / cap_eval / input_length:
        Dataset sizing: the ``DatasetSpec.scaled`` multiplier, optional
        example-count caps, and an optional input-window override.
    train / dp:
        The optimization loop config; setting ``dp`` trains with the
        DP-SGD gradient treatment (Appendix A.3).
    distill:
        Train the model as a *student* against a full-table teacher's
        logits (:class:`~repro.train.distill.DistillConfig`); the session
        acquires the teacher per the config.  Incompatible with the
        pairwise ``ranknet`` architecture (no per-example logits).
    seed:
        Seeds both the data generator and the model initializer.
    monitor:
        Evaluate the held-out split every epoch (needed for early stopping
        and LR plateaus; sweeps turn it off for speed).
    bits / percentile:
        Export defaults for :meth:`TrainSession.export`.
    """

    dataset: str
    architecture: str = "auto"
    technique: str = "memcom"
    hyper: dict = field(default_factory=dict)
    embedding_dim: int = 32
    dropout: float = 0.2
    scale: float = 1.0
    cap_train: int | None = None
    cap_eval: int | None = None
    input_length: int | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    dp: DPConfig | None = None
    distill: DistillConfig | None = None
    seed: int = 0
    monitor: bool = True
    ndcg_k: int = 10
    bits: int = 32
    percentile: float | None = None

    def __post_init__(self) -> None:
        from repro.core.registry import available_techniques

        if not self.dataset or not isinstance(self.dataset, str):
            raise ValueError("dataset must be a non-empty preset name")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"available: {', '.join(ARCHITECTURES)}"
            )
        if self.technique not in available_techniques():
            raise ValueError(
                f"unknown technique {self.technique!r}; "
                f"available: {', '.join(available_techniques())}"
            )
        if not isinstance(self.hyper, dict):
            raise ValueError(f"hyper must be a dict, got {type(self.hyper).__name__}")
        if self.embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        for name in ("cap_train", "cap_eval", "input_length"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None), got {value}")
        if not isinstance(self.train, TrainConfig):
            raise ValueError("train must be a TrainConfig")
        if self.dp is not None and not isinstance(self.dp, DPConfig):
            raise ValueError("dp must be a DPConfig or None")
        if self.distill is not None:
            if not isinstance(self.distill, DistillConfig):
                raise ValueError("distill must be a DistillConfig or None")
            if self.architecture == "ranknet":
                raise ValueError(
                    "distillation requires per-example logits; the pairwise "
                    "ranknet architecture has none"
                )
        if self.ndcg_k <= 0:
            raise ValueError(f"ndcg_k must be positive, got {self.ndcg_k}")
        if self.bits not in _VALID_BITS:
            raise ValueError(f"bits must be one of {_VALID_BITS}, got {self.bits}")
        if self.percentile is not None and not 0.0 < self.percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")

    # -- resolution -------------------------------------------------------------

    def resolve_architecture(self, data_spec) -> str:
        """The concrete architecture for ``data_spec``'s task.

        ``auto`` maps classification → classifier and ranking → pointwise;
        explicit choices are cross-checked against the task.
        """
        if self.architecture == "auto":
            return "classifier" if data_spec.task == "classification" else "pointwise"
        if self.architecture == "ranknet":
            # Pairwise examples are *derived* (higher/lower preference
            # pairs), so RankNet trains on any dataset — Figure 3 builds
            # its pairs from a classification-task preset.
            return self.architecture
        expected = "classification" if self.architecture == "classifier" else "ranking"
        if data_spec.task != expected:
            raise ValueError(
                f"architecture {self.architecture!r} needs a {expected} dataset, "
                f"but {data_spec.name!r} is a {data_spec.task} dataset"
            )
        return self.architecture

    def data_spec(self):
        """The (scaled, capped, possibly length-overridden) dataset spec."""
        from repro.data.datasets import get_spec

        spec = get_spec(self.dataset, self.scale)
        overrides = {}
        if self.cap_train is not None:
            overrides["num_train"] = min(spec.num_train, self.cap_train)
        if self.cap_eval is not None:
            overrides["num_eval"] = min(spec.num_eval, self.cap_eval)
        if self.input_length is not None:
            overrides["input_length"] = self.input_length
        return replace(spec, **overrides) if overrides else spec

    def load_data(self):
        """Generate the dataset this spec describes (deterministic in seed)."""
        from repro.data.synthetic import generate_dataset, generate_pairwise

        spec = self.data_spec()
        arch = self.resolve_architecture(spec)
        rng = ensure_rng(self.seed)
        if arch == "ranknet":
            return generate_pairwise(spec, rng)
        return generate_dataset(spec, rng)

    def build_model(self, data_spec):
        """The untrained model for ``data_spec`` (deterministic in seed)."""
        from repro.models.builder import (
            build_classifier,
            build_pointwise_ranker,
            build_ranknet,
        )

        arch = self.resolve_architecture(data_spec)
        kwargs = dict(
            vocab_size=data_spec.input_vocab,
            input_length=data_spec.input_length,
            embedding_dim=self.embedding_dim,
            dropout=self.dropout,
            rng=self.seed,
        )
        if arch == "classifier":
            return build_classifier(
                self.technique, num_labels=data_spec.output_vocab, **kwargs, **self.hyper
            )
        if arch == "pointwise":
            return build_pointwise_ranker(
                self.technique, num_items=data_spec.output_vocab, **kwargs, **self.hyper
            )
        return build_ranknet(
            self.technique, num_items=data_spec.output_vocab, **kwargs, **self.hyper
        )

    def build_trainer(self, callbacks: list | None = None) -> Trainer:
        if self.dp is not None:
            return DPTrainer(self.train, self.dp, callbacks)
        return Trainer(self.train, callbacks)

    # -- manifest round trip ----------------------------------------------------

    def to_manifest(self) -> dict:
        """Strict-JSON-able form stored in checkpoint manifests."""
        out = asdict(self)
        out["hyper"] = dict(self.hyper)
        out["train"] = asdict(self.train)
        out["dp"] = None if self.dp is None else asdict(self.dp)
        out["distill"] = None if self.distill is None else asdict(self.distill)
        return out

    @classmethod
    def from_manifest(cls, data: dict) -> "PipelineSpec":
        """Rebuild a spec saved by :meth:`to_manifest`.

        Unknown or missing fields raise ``ValueError`` — a checkpoint from
        a different code revision must fail loudly, not half-apply.
        """
        if not isinstance(data, dict):
            raise ValueError(f"pipeline spec manifest must be a dict, got {type(data).__name__}")
        payload = dict(data)
        # Older manifests carry "shards": 0, which selected nothing.
        if payload.pop("shards", 0) != 0:
            raise ValueError(
                f"pipeline spec manifest sets shards={data['shards']!r}, but sharded "
                "export was removed; drop the field to export one monolithic table"
            )
        try:
            train = TrainConfig(**payload.pop("train"))
            dp_data = payload.pop("dp", None)
            dp = None if dp_data is None else DPConfig(**dp_data)
            distill_data = payload.pop("distill", None)
            distill = None if distill_data is None else DistillConfig(**distill_data)
            return cls(train=train, dp=dp, distill=distill, **payload)
        except TypeError as exc:
            raise ValueError(f"malformed pipeline spec manifest: {exc}") from exc
