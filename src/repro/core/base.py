"""Common interface for embedding-compression techniques.

Every technique in :mod:`repro.core` maps integer category ids (any shape,
typically ``(batch, input_length)``) to dense vectors, exposing:

* ``vocab_size`` — the logical vocabulary ``v`` being represented,
* ``output_dim`` — the dimensionality downstream layers receive,
* ``forward(indices) -> Tensor`` of shape ``indices.shape + (output_dim,)``.

Ids are assumed **frequency-sorted**: id 1 is the most popular entity, as the
paper prescribes in §5.1 ("we used frequency-based mapping for the
vocabulary") and as Algorithm 2 requires ("determine index i of category x
(sorted by frequency)").  :mod:`repro.data.vocab` produces such mappings.
"""

from __future__ import annotations

import numpy as np

from repro.frozen import HASH_PRIME, FrozenForm, universal_hash
from repro.nn.layers import Module
from repro.nn.tensor import Tensor

__all__ = ["CompressedEmbedding", "universal_hash", "HASH_PRIME"]


class CompressedEmbedding(Module):
    """Abstract base for all embedding representations (including the full
    uncompressed table, which is the identity 'compression')."""

    #: registry name, set by subclasses
    technique: str = "abstract"

    def __init__(self, vocab_size: int, output_dim: int) -> None:
        super().__init__()
        if vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {vocab_size}")
        if output_dim <= 0:
            raise ValueError(f"output_dim must be positive, got {output_dim}")
        self.vocab_size = vocab_size
        self.output_dim = output_dim

    def forward(self, indices: np.ndarray) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError(f"category ids must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise IndexError(
                f"category id out of range [0, {self.vocab_size}): "
                f"[{indices.min()}, {indices.max()}]"
            )
        return indices

    def frozen(self):  # pragma: no cover - interface
        """This technique's eval forward as a :class:`~repro.frozen.FrozenForm`."""
        raise NotImplementedError

    def _form(self, tables: dict, root):
        return FrozenForm(self.technique, self.vocab_size, self.output_dim, tables, root)

    def table_parameters(self) -> int:
        """Parameters belonging to the embedding representation itself."""
        return self.num_parameters()

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(technique={self.technique!r}, v={self.vocab_size}, "
            f"dim={self.output_dim}, params={self.table_parameters()})"
        )
