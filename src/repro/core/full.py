"""The uncompressed embedding wrapped in the common technique interface.

Every sweep's compression ratios are measured against this model (ratio 1.0
by construction).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Gather
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["FullEmbedding"]


class FullEmbedding(CompressedEmbedding):
    """Plain ``v × e`` table — the baseline 'technique'."""

    technique = "full"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.table = Parameter(init.uniform((vocab_size, embedding_dim), rng), name="table")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        return ops.embedding_lookup(self.table, indices)

    def frozen(self):
        return self._form({"table": self.table}, Gather("table"))
