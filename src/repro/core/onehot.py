"""Weinberger's feature-hashing trick on one-hot inputs (Table 3 baseline).

Weinberger et al. 2009 hash each raw feature index into an ``m``-dimensional
vector with a sign hash: ``φ_j(x) = Σ_{i : h(i)=j} ξ(i)·x_i``.  Applied to a
bag of category ids this produces a dense ``(batch, m)`` encoding that is
then multiplied by an ``m × e`` weight matrix — the "matrix approach" of §3,
whose runtime memory is ``O(v·e + b·(e+v))`` rather than the table
approach's ``O(v·e + b·(e+1))``.

This layer therefore *replaces* Embedding→AveragePooling in the model: it
directly emits the pooled ``(batch, e)`` representation.  The on-device
simulator charges it the one-hot materialization and the full dense matmul,
which is exactly why Table 3 shows it slower and far more memory-hungry than
MEmCom's lookups.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Combine, hashed_bag
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["HashedOneHotEncoder"]


class HashedOneHotEncoder(CompressedEmbedding):
    """Hashed bag-of-categories encoder + linear projection to ``e`` dims.

    Parameters
    ----------
    vocab_size, embedding_dim:
        Logical vocabulary and output width (matches other techniques).
    num_hash_buckets:
        Hash range ``m`` (both Table 3 models use 10K).
    signed:
        Use the ±1 sign hash ξ of Weinberger et al. (reduces collision bias);
        disable for the plain counting variant.
    average:
        Divide the bag encoding by the sequence length so magnitudes match
        the average pooling used by the lookup-based models.
    """

    technique = "hashed_onehot"
    buffer_names = ("hash_salt",)

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_hash_buckets: int,
        signed: bool = True,
        average: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if num_hash_buckets <= 0:
            raise ValueError("num_hash_buckets must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.num_hash_buckets = int(num_hash_buckets)
        self.signed = signed
        self.average = average
        self.hash_salt = np.array(
            [
                int(rng.integers(1, 1 << 31)),
                int(rng.integers(0, 1 << 31)),
                int(rng.integers(1, 1 << 31)),
                int(rng.integers(0, 1 << 31)),
            ],
            dtype=np.int64,
        )
        self.weight = Parameter(
            init.glorot_uniform((self.num_hash_buckets, embedding_dim), rng), name="weight"
        )

    def encode(self, indices: np.ndarray) -> np.ndarray:
        """Hash a (batch, length) id matrix into a (batch, m) dense encoding.

        This materializes the one-hot aggregation the hashing trick implies;
        it is *not* differentiable (ids carry no gradient) and is the memory
        hot spot the paper's Table 3 measures.
        """
        indices = self._check_indices(indices)
        if indices.ndim != 2:
            raise ValueError(f"expected (batch, length) ids, got shape {indices.shape}")
        return hashed_bag(indices, *self._bag_args())

    def _bag_args(self) -> tuple:
        salt = (int(x) for x in self.hash_salt)
        return (self.num_hash_buckets, *salt, self.signed, self.average)

    def forward(self, indices: np.ndarray) -> Tensor:
        encoded = Tensor(self.encode(indices))
        return ops.matmul(encoded, self.weight)

    def frozen(self):
        bag = Combine("bag", (), self._bag_args(), label="onehot")
        return self._form(
            {"hash_matrix": self.weight}, Combine("project", (bag,), ("hash_matrix",))
        )
