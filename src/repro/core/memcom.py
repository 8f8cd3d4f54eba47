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
coalesced.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["MEmComEmbedding"]


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
        # order ops.memcom_lookup computes in.
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
