"""Pointwise learning-to-rank network (§5.2).

The classification network with "the Dense layer following the Average
Pooling" removed — the pooled (and normalized) user representation feeds the
output softmax directly.  Trained with softmax loss; at evaluation the
softmax scores over the output vocabulary are the ranking scores.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.nn.functional import mean_pool
from repro.nn.layers import (
    BatchNorm,
    Dense,
    Dropout,
    Module,
    ReLU,
)
from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng, spawn

__all__ = ["PointwiseRanker", "pointwise_head_params"]


class PointwiseRanker(Module):
    """Embedding → pool → ReLU → Dropout → BatchNorm → Dense(num_items)."""

    def __init__(
        self,
        embedding: CompressedEmbedding,
        input_length: int,
        num_items: int,
        dropout: float = 0.2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if num_items <= 1:
            raise ValueError("num_items must be at least 2")
        rng = ensure_rng(rng)
        r_drop, r_out = spawn(rng, 2)
        e = embedding.output_dim
        self.input_length = input_length
        self.num_items = num_items
        self.embedding = embedding
        self.relu = ReLU()
        self.dropout = Dropout(dropout, rng=r_drop)
        self.norm = BatchNorm(e)
        self.out = Dense(e, num_items, rng=r_out)

    def forward(self, x: np.ndarray) -> Tensor:
        h = mean_pool(self.embedding(x), self.input_length)
        h = self.norm(self.dropout(self.relu(h)))
        return self.out(h)


def pointwise_head_params(embedding_dim: int, num_items: int) -> int:
    """Post-embedding parameters: BatchNorm(e) + Dense e→C."""
    e = embedding_dim
    return (2 * e) + (e * num_items + num_items)
