"""MEmCom — Multi-Embedding Compression (the paper's contribution).

Algorithm 2 (no bias)::

    j      = i mod m
    emb(i) = U[j] ⊙ V[i]          U ∈ R^{m×e},  V ∈ R^{v×1}

Algorithm 3 (with bias)::

    emb(i) = U[j] ⊙ V[i] + W[i]   W ∈ R^{v×1}

``V`` (and ``W``) hold one scalar per entity, so two entities sharing a
hashed row of ``U`` still receive distinct embeddings — the network learns
``v`` distinct functions while storing ``m·e + v`` (``+ v``) parameters
instead of ``v·e``.  The multiplication broadcasts a ``(…, 1)`` column
against ``(…, e)`` rows, the "ubiquitous broadcasting operator" of §4.

Training runs the whole composition as one autograd node,
:func:`repro.nn.ops.memcom_lookup`.  ``V`` and ``W`` share the index ``i``
and ``U``'s rows are ``i mod m`` of the same ids, so its backward sorts a
batch's ids once and hands all three tables gradients that are already
coalesced.  The sharded layer keeps the unfused graph over its routed
lookups.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.sharding import ShardedTable
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["MEmComEmbedding", "ShardedMEmComEmbedding"]


class MEmComEmbedding(CompressedEmbedding):
    """MEmCom embedding (Algorithms 2 and 3).

    Parameters
    ----------
    vocab_size:
        Number of entities ``v`` (ids must be frequency-sorted).
    embedding_dim:
        Row-vector size ``e`` of the shared table.
    num_hash_embeddings:
        Hashed-table size ``m``; entities collide via ``i mod m``.
    bias:
        ``True`` selects Algorithm 3 (adds the per-entity scalar bias W).
    multiplier_init:
        ``"ones"`` starts every per-entity multiplier at the multiplicative
        identity (the shared row passes through unchanged at step 0);
        ``"uniform"`` uses the Keras-style uniform(0.95, 1.05) perturbation.
        The ablation bench compares the two.
    """

    technique = "memcom"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_hash_embeddings: int,
        bias: bool = True,
        multiplier_init: str = "ones",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if num_hash_embeddings <= 0:
            raise ValueError(f"num_hash_embeddings must be positive, got {num_hash_embeddings}")
        if multiplier_init not in ("ones", "uniform"):
            raise ValueError(f"unknown multiplier_init {multiplier_init!r}")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.num_hash_embeddings = int(num_hash_embeddings)
        self.bias = bias
        self.multiplier_init = multiplier_init
        self.shared = Parameter(
            init.uniform((self.num_hash_embeddings, embedding_dim), rng), name="shared"
        )
        if multiplier_init == "ones":
            mult = init.ones((vocab_size, 1))
        else:
            mult = init.uniform((vocab_size, 1), rng, low=0.95, high=1.05)
        self.multiplier = Parameter(mult, name="multiplier")
        self.bias_table = (
            Parameter(init.zeros((vocab_size, 1)), name="bias") if bias else None
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        return ops.memcom_lookup(self.shared, self.multiplier, self.bias_table, indices)

    def frozen(self):
        # Gather U by id mod m, broadcast-multiply V, then add W: the
        # order ops.muladd computes in.  Sharded V/W keep their layout.
        tables = {"shared": self.shared, "multiplier": self.multiplier}
        shared = Gather("shared", ("mod", self.num_hash_embeddings))
        mult = Gather("multiplier", label="mult")
        root = Combine("mul", (shared, mult), label="broadcast_mul")
        if self.bias_table is not None:
            tables["bias"] = self.bias_table
            bias = Gather("bias", label="biasrow")
            root = Combine("add", (root, bias), label="broadcast_add")
        return self._form(tables, root)

    def multipliers(self) -> np.ndarray:
        """Per-entity multiplier column as a flat (v,) array (for the A.4
        uniqueness audit)."""
        return self.multiplier.data[:, 0].copy()

    def bucket_of(self, indices: np.ndarray) -> np.ndarray:
        """Hash bucket ``i mod m`` for each id."""
        return self._check_indices(indices) % self.num_hash_embeddings

    def to_sharded(self, n_shards: int) -> "ShardedMEmComEmbedding":
        """Hash-partition the per-entity tables across ``n_shards``."""
        return ShardedMEmComEmbedding.from_monolithic(self, n_shards)


class ShardedMEmComEmbedding(MEmComEmbedding):
    """MEmCom with its per-entity ``V``/``W`` columns sharded row-wise.

    The ``(v, 1)`` multiplier and bias columns are the tables that grow with
    the vocabulary; each becomes a :class:`repro.nn.sharding.ShardedTable`
    (hash-partitioned, sparse per-shard gradients).  The shared ``(m, e)``
    table is already compressed to a fixed small size and stays monolithic.

    Forward values are bit-identical to the monolithic layer (a routed
    gather reads the same floats), and per-shard sparse optimizer steps
    perform the same per-row math — ``tests/nn/test_sharding.py`` pins the
    equivalence across every model architecture.
    """

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_hash_embeddings: int,
        n_shards: int,
        bias: bool = True,
        multiplier_init: str = "ones",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        # Consume the rng exactly as the monolithic layer does, then
        # partition — same seed, same logical table values.
        super().__init__(
            vocab_size,
            embedding_dim,
            num_hash_embeddings,
            bias=bias,
            multiplier_init=multiplier_init,
            rng=rng,
        )
        self.n_shards = int(n_shards)
        self.multiplier = ShardedTable(self.multiplier.data, n_shards, name="multiplier")
        if self.bias_table is not None:
            self.bias_table = ShardedTable(self.bias_table.data, n_shards, name="bias")

    @classmethod
    def from_monolithic(
        cls, embedding: MEmComEmbedding, n_shards: int
    ) -> "ShardedMEmComEmbedding":
        """Partition an existing (possibly trained) MEmCom layer's tables.

        Copies the source values straight into the shard layout — no
        throwaway random init of a second full-size table.
        """
        out = cls.__new__(cls)
        CompressedEmbedding.__init__(
            out, embedding.vocab_size, embedding.embedding_dim
        )
        out.embedding_dim = embedding.embedding_dim
        out.num_hash_embeddings = embedding.num_hash_embeddings
        out.bias = embedding.bias
        out.multiplier_init = embedding.multiplier_init
        out.shared = Parameter(embedding.shared.data.copy(), name="shared")
        out.multiplier = ShardedTable(
            embedding.multiplier.data, n_shards, name="multiplier"
        )
        out.bias_table = (
            ShardedTable(embedding.bias_table.data, n_shards, name="bias")
            if embedding.bias_table is not None
            else None
        )
        out.n_shards = int(n_shards)
        return out

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        hashed = indices % self.num_hash_embeddings
        x_rem = ops.embedding_lookup(self.shared, hashed)
        x_mult = self.multiplier.lookup(indices)
        if self.bias_table is not None:
            return ops.muladd(x_rem, x_mult, self.bias_table.lookup(indices))
        return ops.mul(x_rem, x_mult)

    def multipliers(self) -> np.ndarray:
        return self.multiplier.dense()[:, 0]
