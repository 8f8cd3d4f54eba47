"""The uncompressed embedding wrapped in the common technique interface.

Every sweep's compression ratios are measured against this model (ratio 1.0
by construction).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Gather
from repro.nn import init, ops
from repro.nn.sharding import ShardedTable
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["FullEmbedding", "ShardedFullEmbedding"]


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

    def to_sharded(self, n_shards: int) -> "ShardedFullEmbedding":
        """Hash-partition the table rows across ``n_shards``."""
        return ShardedFullEmbedding.from_monolithic(self, n_shards)


class ShardedFullEmbedding(FullEmbedding):
    """The uncompressed table, hash-partitioned row-wise across shards.

    Forward values are bit-identical to :class:`FullEmbedding`; gradients
    arrive as per-shard local-row sparse grads and the optimizers' sparse
    branches apply them shard by shard (see :mod:`repro.nn.sharding`).
    """

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        n_shards: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim, rng=rng)
        self.n_shards = int(n_shards)
        self.table = ShardedTable(self.table.data, n_shards, name="table")

    @classmethod
    def from_monolithic(
        cls, embedding: FullEmbedding, n_shards: int
    ) -> "ShardedFullEmbedding":
        """Partition the source table directly (no throwaway random init)."""
        out = cls.__new__(cls)
        CompressedEmbedding.__init__(
            out, embedding.vocab_size, embedding.embedding_dim
        )
        out.embedding_dim = embedding.embedding_dim
        out.n_shards = int(n_shards)
        out.table = ShardedTable(embedding.table.data, n_shards, name="table")
        return out

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        return self.table.lookup(indices)
