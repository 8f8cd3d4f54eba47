"""Truncate-rare baseline ("a dumb compression technique", §5.1).

Keep a private embedding row for the ``keep`` most popular entities and
collapse everything rarer into one shared out-of-vocabulary row.  Because ids
are frequency-sorted (id 0 = padding, low ids = popular), truncation is the
range test ``i <= keep``.  On heavily skewed data (Arcade) this is a strong
baseline — the paper reports it beating several sophisticated techniques —
yet MEmCom still outperforms it by 2×.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Gather
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["TruncateRareEmbedding"]


class TruncateRareEmbedding(CompressedEmbedding):
    """Top-``keep`` private rows plus one shared OOV row.

    Row layout: rows ``0…keep`` are the private rows for ids ``0…keep``
    (id 0 is the padding id and keeps its own row); row ``keep+1`` is the
    shared OOV row for every id ``> keep``.
    """

    technique = "truncate_rare"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        keep: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if not 0 < keep <= vocab_size:
            raise ValueError(f"keep must be in (0, {vocab_size}], got {keep}")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.keep = int(keep)
        self.table = Parameter(
            init.uniform((self.keep + 2, embedding_dim), rng), name="table"
        )

    def truncated_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        return np.where(indices <= self.keep, indices, self.keep + 1)

    def forward(self, indices: np.ndarray) -> Tensor:
        return ops.embedding_lookup(self.table, self.truncated_indices(indices))

    def frozen(self):
        return self._form({"table": self.table}, Gather("table", ("clip", self.keep)))
