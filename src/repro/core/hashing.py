"""Hashing-based compression baselines.

* :class:`NaiveHashEmbedding` — the hashing trick on the *number of
  embeddings*: one table of ``m`` rows addressed by ``i mod m``.  Entities in
  the same bucket are indistinguishable; expected per-bucket collision rate
  is ``v/m − 1 + (1 − 1/m)^v`` (§4).
* :class:`DoubleHashEmbedding` — Zhang et al. 2020: two independent hash
  functions into two tables; the concatenated pair collides only when *both*
  hashes collide, dropping the rate to ``v/m² − 1 + (1 − 1/m²)^v``.
* :class:`FrequencyDoubleHashEmbedding` — Zhang et al.'s full
  frequency-based scheme: the most frequent entities keep dedicated rows and
  only the long tail is double-hashed, concentrating collision noise on the
  ids that matter least.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding, universal_hash
from repro.core.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["NaiveHashEmbedding", "DoubleHashEmbedding", "FrequencyDoubleHashEmbedding"]


class NaiveHashEmbedding(CompressedEmbedding):
    """Single-table hashed embedding: ``emb(i) = U[i mod m]``.

    The paper's "naive hashing" baseline performs the mod directly on the
    (frequency-sorted) id, which is what ``hash_family="mod"`` does; a
    universal hash family is available for the ablation bench.
    """

    technique = "hash"
    # The salt is state, not a weight: restoring a checkpoint under a
    # different salt would address different rows entirely.
    buffer_names = ("hash_salt",)

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_hash_embeddings: int,
        hash_family: str = "mod",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if num_hash_embeddings <= 0:
            raise ValueError("num_hash_embeddings must be positive")
        if hash_family not in ("mod", "universal"):
            raise ValueError(f"unknown hash_family {hash_family!r}")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.num_hash_embeddings = int(num_hash_embeddings)
        self.hash_family = hash_family
        if hash_family == "universal":
            self.hash_salt = np.array(
                [int(rng.integers(1, 1 << 31)), int(rng.integers(0, 1 << 31))], dtype=np.int64
            )
        else:
            self.hash_salt = np.zeros(2, dtype=np.int64)  # unused for mod
        self.table = Parameter(
            init.uniform((self.num_hash_embeddings, embedding_dim), rng), name="table"
        )

    def hash_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        if self.hash_family == "mod":
            return indices % self.num_hash_embeddings
        a, b = (int(x) for x in self.hash_salt)
        return universal_hash(indices, self.num_hash_embeddings, a, b)

    def forward(self, indices: np.ndarray) -> Tensor:
        return ops.embedding_lookup(self.table, self.hash_indices(indices))

    def frozen(self):
        m = self.num_hash_embeddings
        salt = (int(x) for x in self.hash_salt)
        index = ("mod", m) if self.hash_family == "mod" else ("hash", m, *salt)
        return self._form({"table": self.table}, Gather("table", index))


class DoubleHashEmbedding(CompressedEmbedding):
    """Two-hash embedding (Zhang et al. 2020): concat of two hashed lookups.

    Each table holds ``e/2``-dim rows so the concatenated output matches the
    sweep's common width.  The two hash functions are independent draws from
    a 2-universal family; ids collide in the *composed* representation only
    if they collide under both, which the collision analytics in
    :mod:`repro.core.collisions` quantify.
    """

    technique = "double_hash"
    buffer_names = ("hash_salt",)

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_hash_embeddings: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if num_hash_embeddings <= 0:
            raise ValueError("num_hash_embeddings must be positive")
        if embedding_dim % 2 != 0:
            raise ValueError("double hashing needs an even embedding_dim")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.num_hash_embeddings = int(num_hash_embeddings)
        half = embedding_dim // 2
        self.hash_salt = np.array(
            [
                int(rng.integers(1, 1 << 31)),
                int(rng.integers(0, 1 << 31)),
                int(rng.integers(1, 1 << 31)),
                int(rng.integers(0, 1 << 31)),
            ],
            dtype=np.int64,
        )
        self.table1 = Parameter(
            init.uniform((self.num_hash_embeddings, half), rng), name="table1"
        )
        self.table2 = Parameter(
            init.uniform((self.num_hash_embeddings, half), rng), name="table2"
        )

    def hash_indices(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        indices = self._check_indices(indices)
        a1, b1, a2, b2 = (int(x) for x in self.hash_salt)
        h1 = universal_hash(indices, self.num_hash_embeddings, a1, b1)
        h2 = universal_hash(indices, self.num_hash_embeddings, a2, b2)
        return h1, h2

    def forward(self, indices: np.ndarray) -> Tensor:
        h1, h2 = self.hash_indices(indices)
        return ops.concat(
            [ops.embedding_lookup(self.table1, h1), ops.embedding_lookup(self.table2, h2)],
            axis=-1,
        )

    def frozen(self):
        m = self.num_hash_embeddings
        a1, b1, a2, b2 = (int(x) for x in self.hash_salt)
        parts = (Gather("table1", ("hash", m, a1, b1)), Gather("table2", ("hash", m, a2, b2)))
        return self._form({"table1": self.table1, "table2": self.table2}, Combine("concat", parts))


class FrequencyDoubleHashEmbedding(CompressedEmbedding):
    """Frequency-based double hashing (Zhang et al. 2020, RecSys).

    The ``keep`` most frequent ids (which, under the §5.1 frequency-sorted
    id assignment, are simply ids ``0 … keep−1``) each own a dedicated
    full-width row; all rarer ids share a :class:`DoubleHashEmbedding` of
    ``m`` rows per half-table.  This is the variant Twitter deployed: head
    entities dominate both traffic and metric impact, so giving them
    collision-free rows buys most of the accuracy of a full table at a
    fraction of the size.
    """

    technique = "freq_double_hash"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_hash_embeddings: int,
        keep: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if num_hash_embeddings <= 0:
            raise ValueError("num_hash_embeddings must be positive")
        rng = ensure_rng(rng)
        keep = num_hash_embeddings if keep is None else int(keep)
        if not 0 < keep <= vocab_size:
            raise ValueError(f"keep must be in (0, {vocab_size}], got {keep}")
        self.embedding_dim = embedding_dim
        self.num_hash_embeddings = int(num_hash_embeddings)
        self.keep = keep
        self.head = Parameter(init.uniform((keep, embedding_dim), rng), name="head")
        self.tail = DoubleHashEmbedding(
            vocab_size, embedding_dim, num_hash_embeddings, rng=rng
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        is_head = indices < self.keep
        # Both paths are evaluated batch-wide and gated by the mask: out-of-
        # path ids are clamped into range so the lookups stay vectorized, and
        # the mask zeroes both their forward value and backward gradient.
        head = ops.embedding_lookup(self.head, np.where(is_head, indices, 0))
        tail = self.tail(indices)
        gate = is_head.astype(np.float32)[..., None]
        return ops.add(ops.mul(head, Tensor(gate)), ops.mul(tail, Tensor(1.0 - gate)))

    def frozen(self):
        # 1 - gate is exactly the tail's range mask, so the gated sum is a
        # masked sum over the head range and the tail range.
        tail = self.tail.frozen()
        parts = (Gather("head", ("range", 0, self.keep)), tail.root)
        ranges = ((0, self.keep), (self.keep, self.vocab_size))
        return self._form({"head": self.head, **tail.tables}, Combine("masked_sum", parts, ranges))
