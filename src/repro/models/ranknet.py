"""Pairwise siamese RankNet (Burges et al. 2005) for the Arcade experiment.

Figure 3's network "takes as input user features and two item IDs such that
the first item is ranked higher than the second item.  It outputs two scores
corresponding to the input item ids, and during training, we maximize the
difference between these scores."  The two item scores share one tower
(siamese weights).

Architecture: the compressed input embedding + the pointwise tower produce a
user vector ``u``; each candidate item has a (full, uncompressed — the
output side is small for Arcade) item vector ``w`` and scalar bias ``b``;
``score(u, item) = u·w + b``.  Scoring the whole catalog for nDCG evaluation
is one matmul.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.nn import init, ops
from repro.nn.functional import mean_pool
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    Module,
    ReLU,
)
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng, spawn

__all__ = ["RankNet", "ranknet_head_params"]


class RankNet(Module):
    """Siamese pairwise ranker over a compressed input embedding."""

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
        r_drop, r_item = spawn(rng, 2)
        e = embedding.output_dim
        self.input_length = input_length
        self.num_items = num_items
        self.embedding = embedding
        self.relu = ReLU()
        self.dropout = Dropout(dropout, rng=r_drop)
        self.norm = BatchNorm(e)
        self.item_table = Parameter(init.uniform((num_items, e), r_item), name="item_table")
        self.item_bias = Parameter(init.zeros((num_items, 1)), name="item_bias")

    def user_repr(self, x: np.ndarray) -> Tensor:
        """Shared tower: (B, L) ids → (B, e) user vector."""
        h = mean_pool(self.embedding(x), self.input_length)
        return self.norm(self.dropout(self.relu(h)))

    def score_items(self, user: Tensor, items: np.ndarray) -> Tensor:
        """Scores (B,) of one candidate item per user: ``u·w_item + b_item``."""
        items = np.asarray(items)
        if items.shape != (user.shape[0],):
            raise ValueError(f"items shape {items.shape} != ({user.shape[0]},)")
        w = ops.embedding_lookup(self.item_table, items)  # (B, e)
        b = ops.embedding_lookup(self.item_bias, items)  # (B, 1)
        dot = ops.sum(ops.mul(user, w), axis=1, keepdims=True)
        return ops.reshape(ops.add(dot, b), (user.shape[0],))

    def score_pair(self, x: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> tuple[Tensor, Tensor]:
        """Siamese forward: both candidates share the same user tower pass."""
        user = self.user_repr(x)
        return self.score_items(user, pos), self.score_items(user, neg)

    def forward(self, x: np.ndarray) -> Tensor:
        """Score the full catalog: (B, num_items) — the nDCG evaluation path."""
        user = self.user_repr(x)
        scores = ops.matmul(user, ops.transpose(self.item_table))
        return ops.add(scores, ops.reshape(self.item_bias, (self.num_items,)))


def ranknet_head_params(embedding_dim: int, num_items: int) -> int:
    """Post-embedding parameters: BatchNorm(e) + item table + item bias."""
    e = embedding_dim
    return (2 * e) + (num_items * e) + num_items
