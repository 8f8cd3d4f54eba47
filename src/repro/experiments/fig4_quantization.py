"""Figure 4 (Appendix A.2) — accuracy vs. floating-point precision.

Paper setup: MEmCom-compressed models (the fixed-size models of A.1),
post-training ``linear`` quantization to 16/8/4/2 bits; y-axis is the
metric loss vs. the FP32 model.  Shapes to reproduce: no loss at fp16,
≈0.1% at int8 (none for MovieLens), a cliff below 8 bits.

The ``n-bit`` points round every tensor of the module, per tensor, through
:func:`~repro.device.quantize.quantize_module`.  That is not what ships:
the ``int8 served``/``int4 served`` points score the same trained model
through ``InferenceEngine(model, bits=b).predict``, which stores the
embedding tables as integer codes with per-row scales and computes the
rows and the tower in FP32 (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.quantize import SUPPORTED_BITS, quantize_module
from repro.experiments.runner import ExperimentConfig, load_bench_dataset
from repro.metrics.accuracy import accuracy, relative_loss_percent
from repro.metrics.evaluator import predict_scores
from repro.metrics.ndcg import ndcg_single_relevant
from repro.models.builder import build_classifier, build_pointwise_ranker
from repro.quant import SUPPORTED_STORAGE_BITS
from repro.serve.engine import InferenceEngine
from repro.train.trainer import Trainer
from repro.utils.logging import log
from repro.utils.tables import format_table

__all__ = ["PrecisionPoint", "run", "render", "DEFAULT_DATASETS"]

DEFAULT_DATASETS = (
    "newsgroup",
    "movielens",
    "millionsongs",
    "google_local",
    "netflix",
    "games",
    "arcade",
)


@dataclass(frozen=True)
class PrecisionPoint:
    dataset: str
    bits: int
    metric: float
    relative_loss_pct: float
    #: scored through the quantized serving engine rather than the
    #: per-tensor rounding of the whole module
    served: bool = False

    @property
    def label(self) -> str:
        return f"int{self.bits} served" if self.served else f"{self.bits}-bit"


def run(
    config: ExperimentConfig | None = None,
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    bits_sweep: tuple[int, ...] = SUPPORTED_BITS,
    hash_fraction: int = 16,
) -> list[PrecisionPoint]:
    """Train one MEmCom model per dataset, quantize, re-evaluate.

    ``hash_fraction`` sets the MEmCom hash size to ``vocab / fraction``
    (a mid-sweep compression point).  Each width of ``bits_sweep`` with
    integer storage (8, 4) also gets a served point.
    """
    config = config or ExperimentConfig()
    points: list[PrecisionPoint] = []
    for name in datasets:
        data = load_bench_dataset(name, config, rng=config.seed)
        spec = data.spec
        m = max(2, spec.input_vocab // hash_fraction)
        kwargs = dict(
            vocab_size=spec.input_vocab,
            input_length=spec.input_length,
            embedding_dim=config.embedding_dim,
            dropout=config.dropout,
            rng=config.seed,
            num_hash_embeddings=m,
        )
        if spec.task == "classification":
            model = build_classifier("memcom", num_labels=spec.output_vocab, **kwargs)
            Trainer(config.train_config()).fit(model, data.x_train, data.y_train)
            metric_of = lambda scores: accuracy(scores, data.y_eval)
        else:
            model = build_pointwise_ranker("memcom", num_items=spec.output_vocab, **kwargs)
            Trainer(config.train_config()).fit(model, data.x_train, data.y_train, task="ranking")
            metric_of = lambda scores: ndcg_single_relevant(
                scores, data.y_eval, k=config.ndcg_k
            )

        fp32_state = model.state_dict()
        baseline = metric_of(predict_scores(model, data.x_eval))

        def add(bits: int, scores: np.ndarray, served: bool = False) -> None:
            metric = metric_of(scores)
            point = PrecisionPoint(
                name, bits, metric, relative_loss_percent(baseline, metric), served
            )
            points.append(point)
            log(f"[fig4] {name} {point.label}: {metric:.4f} "
                f"({point.relative_loss_pct:+.2f}%)")

        for bits in sorted(bits_sweep, reverse=True):
            model.load_state_dict(fp32_state)
            if bits < 32:
                quantize_module(model, bits)
            add(bits, predict_scores(model, data.x_eval))
        model.load_state_dict(fp32_state)
        for bits in sorted(set(bits_sweep) & set(SUPPORTED_STORAGE_BITS), reverse=True):
            engine = InferenceEngine(model, bits=bits)
            add(bits, engine.predict(data.x_eval), served=True)
    return points


def render(points: list[PrecisionPoint]) -> str:
    datasets = sorted({p.dataset for p in points})
    # module-rounded widths first, then the served ones, widest first
    columns = sorted({(p.served, -p.bits): p.label for p in points}.items())
    rows = []
    for name in datasets:
        loss = {p.label: p.relative_loss_pct for p in points if p.dataset == name}
        rows.append([name] + [
            f"{loss[label]:+.2f}%" if label in loss else "-" for _, label in columns
        ])
    return format_table(
        ["dataset"] + [f"{label} loss" for _, label in columns],
        rows,
        title="Figure 4 — metric loss vs. weight precision (vs. FP32)",
    )
