"""Dimension-reducing baselines.

* :class:`FactorizedEmbedding` — factorized embedding parameterization (Lan
  et al. 2019 / ALBERT): a narrow ``v × h`` table followed by a linear
  ``h → e`` projection, keeping the downstream width at ``e``.
* :class:`ReducedDimEmbedding` — simply train a ``v × d`` table with
  ``d < e``; downstream layer widths shrink with it (the paper's "reduce
  embedding dim" sweep over 128…4).

Both satisfy the unique-vector property of §4 but ignore the power-law
distribution of categories, which is why the paper finds them weak outside
Newsgroup.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.layers import Dense
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["FactorizedEmbedding", "ReducedDimEmbedding"]


class FactorizedEmbedding(CompressedEmbedding):
    """Low-rank factorization ``E ≈ A·B`` with ``A: v×h``, ``B: h×e``.

    ``h`` (the hidden size) is the compression knob; parameters drop from
    ``v·e`` to ``v·h + h·e``.  The projection has no bias, matching ALBERT's
    factorized embedding parameterization.
    """

    technique = "factorized"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        hidden_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.hidden_dim = int(hidden_dim)
        self.table = Parameter(init.uniform((vocab_size, self.hidden_dim), rng), name="table")
        self.projection = Dense(self.hidden_dim, embedding_dim, use_bias=False, rng=rng)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        narrow = ops.embedding_lookup(self.table, indices)
        return self.projection(narrow)

    def frozen(self):
        tables = {"table": self.table, "projection": self.projection.weight}
        return self._form(tables, Combine("project", (Gather("table"),), ("projection",)))


class ReducedDimEmbedding(CompressedEmbedding):
    """Plain table with a smaller embedding dimension ``d``.

    ``output_dim`` equals ``d``, so the model builder shrinks every
    downstream layer accordingly — this is the only technique in the sweep
    whose output width differs from the baseline's 256.
    """

    technique = "reduce_dim"

    def __init__(
        self,
        vocab_size: int,
        reduced_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, reduced_dim)
        rng = ensure_rng(rng)
        self.embedding_dim = reduced_dim
        self.table = Parameter(init.uniform((vocab_size, reduced_dim), rng), name="table")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        return ops.embedding_lookup(self.table, indices)

    def frozen(self):
        return self._form({"table": self.table}, Gather("table"))
