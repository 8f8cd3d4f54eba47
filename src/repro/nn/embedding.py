"""The uncompressed embedding layer — the paper's baseline.

``Embedding(v, e)`` stores the full `v × e` table; every compression
technique in :mod:`repro.core` is measured against this layer's parameter
count.  Lookup is the "table approach" of §3 (an O(b·e) gather), not the
one-hot "matrix approach"; :class:`repro.core.onehot.HashedOneHotEncoder`
implements the latter for the Table 3 comparison.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.layers import Module
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["Embedding"]


class Embedding(Module):
    """Full embedding table: maps integer ids (any shape) to vectors.

    Matches Keras ``Embedding(input_dim=v, output_dim=e)`` with
    uniform(-0.05, 0.05) init and ``mask_zero=False`` (padding id 0 is a
    learned row included in pooling, exactly as in the paper's Code 1).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"embedding dims must be positive, got {num_embeddings}x{embedding_dim}"
            )
        rng = ensure_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        # output_dim is what downstream layers see; for the full table it is
        # the embedding dim itself, but compressed variants may differ.
        self.output_dim = embedding_dim
        self.weight = Parameter(
            init.uniform((num_embeddings, embedding_dim), rng), name="weight"
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        return ops.embedding_lookup(self.weight, indices)

    def frozen(self):
        """The serving form: one gather (see :mod:`repro.core.frozen`)."""
        from repro.core.frozen import FrozenForm, Gather  # repro.core sits above nn

        return FrozenForm(
            type(self).__name__, self.num_embeddings, self.output_dim,
            {"table": self.weight}, Gather("table"),
        )
