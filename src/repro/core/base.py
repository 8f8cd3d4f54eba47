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

from repro.nn.layers import Module
from repro.nn.tensor import Tensor

__all__ = ["CompressedEmbedding", "universal_hash", "HASH_PRIME"]

# A Mersenne prime comfortably above every vocabulary in Table 2; universal
# hashing needs p > max id.
HASH_PRIME = (1 << 61) - 1


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
        """This technique's eval forward as a :class:`~repro.core.frozen.FrozenForm`."""
        raise NotImplementedError

    def _form(self, tables: dict, root):
        from repro.core.frozen import FrozenForm

        return FrozenForm(self.technique, self.vocab_size, self.output_dim, tables, root)

    def table_parameters(self) -> int:
        """Parameters belonging to the embedding representation itself."""
        return self.num_parameters()

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(technique={self.technique!r}, v={self.vocab_size}, "
            f"dim={self.output_dim}, params={self.table_parameters()})"
        )


def universal_hash(indices: np.ndarray, m: int, a: int, b: int) -> np.ndarray:
    """Salted 64-bit mixing hash of ids into ``[0, m)``.

    ``(a, b)`` select a member of the family (two members behave like
    independent hash functions, which double hashing requires).  The mixer
    is the splitmix64 finalizer — a naive affine hash ``(a·i + b) mod m``
    is *not* good enough here: for ids below the modulus it degenerates to
    a function of ``i mod m``, making the two double-hashing functions
    perfectly correlated and destroying the ``1/m²`` collision rate the
    technique is built on.
    """
    if m <= 0:
        raise ValueError("hash range m must be positive")
    if not 1 <= a < HASH_PRIME or not 0 <= b < HASH_PRIME:
        raise ValueError("hash coefficients out of range")
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"hash input must be integers, got {idx.dtype}")
    with np.errstate(over="ignore"):
        z = idx.astype(np.uint64) + np.uint64(a & 0xFFFFFFFFFFFFFFFF)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = z + np.uint64(b & 0xFFFFFFFFFFFFFFFF) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(m)).astype(np.int64)
