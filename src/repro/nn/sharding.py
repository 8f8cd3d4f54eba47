"""Sharded embedding tables: hash-partitioned rows with sparse routing.

A monolithic ``(v, e)`` table caps out at one array on one host.  Serving
heavy multi-user traffic (ROADMAP north star) needs the id→row path to be
*partitionable*: each row lives in exactly one of ``n_shards`` smaller
arrays, lookups route each id to its shard, and the sparse row gradients of
:mod:`repro.nn.sparse_grad` route the same way — so a training step applies
per-shard sparse updates that are bit-for-bit the per-row math of the
monolithic table (each row's gather, gradient sum, and optimizer update
involve exactly the same floats, just addressed through a shard).

Partitioning is by a salted 64-bit mixing hash of the row id (the splitmix64
finalizer, the same mixer :func:`repro.core.base.universal_hash` uses —
re-derived here because :mod:`repro.nn` sits below :mod:`repro.core` in the
layering).  Hashing, rather than contiguous range partition, spreads the
Zipf-head rows of a frequency-sorted vocabulary evenly across shards, so no
shard becomes the hot shard under skewed traffic.

Because every shard is an ordinary :class:`~repro.nn.tensor.Parameter`, the
optimizers' existing sparse branches *are* the sharded apply: a
:class:`ShardedTable` hands each optimizer one parameter per shard, and each
touched shard gets a compact :class:`~repro.nn.sparse_grad.SparseRowGrad` in
its local row numbering.  ``Optimizer`` also accepts a ``ShardedTable``
directly in its parameter list (see :mod:`repro.nn.optim`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module
from repro.nn.sparse_grad import SparseRowGrad
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["ShardedTable", "ShardedEmbedding", "shard_of_rows"]

# Fixed salts: partitioning must be a pure function of (row id, n_shards) so
# a table sharded on one host routes identically on every other.
_SALT_A = np.uint64(0x9E3779B97F4A7C15)
_SALT_B = np.uint64(0xD1B54A32D192ED03)


def shard_of_rows(rows: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard assignment: splitmix64-mixed row id mod shards.

    The mixer decorrelates shard choice from the id's low bits — adjacent
    (equally popular) ids land on different shards, which is what balances
    load when ids are frequency-sorted.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    z = np.asarray(rows).astype(np.uint64) + _SALT_A
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = z + _SALT_B
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(n_shards)).astype(np.int64)


class ShardedTable(Module):
    """A 2-D parameter table hash-partitioned row-wise across ``n_shards``.

    Logical row ``i`` lives at local row ``local_of[i]`` of shard
    ``shard_of[i]``.  :meth:`lookup` is the autograd-aware gather whose
    backward emits one local-row :class:`SparseRowGrad` per *touched* shard;
    shards no id hit receive no gradient at all (their optimizer state is
    untouched, exactly like an un-looked-up monolithic table).

    The shard parameters are regular autograd leaves discovered by module
    traversal (state-dict keys ``shards.0 … shards.{n-1}``), so optimizers,
    clipping and serialization all work unchanged.  The routing arrays are
    deterministic from ``(num_rows, n_shards)`` and are recomputed on
    construction, never serialized.
    """

    def __init__(self, dense: np.ndarray, n_shards: int, name: str = "table") -> None:
        super().__init__()
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"ShardedTable needs a 2-D table, got shape {dense.shape}")
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        v = dense.shape[0]
        self.num_rows = int(v)
        self.num_cols = int(dense.shape[1])
        self.n_shards = int(n_shards)
        self.name = name
        self._shard_of = shard_of_rows(np.arange(v), n_shards)
        self._local_of = np.empty(v, dtype=np.int64)
        self._shard_rows: list[np.ndarray] = []
        shards: list[Parameter] = []
        for s in range(n_shards):
            rows = np.flatnonzero(self._shard_of == s)
            self._local_of[rows] = np.arange(rows.size)
            self._shard_rows.append(rows)
            shards.append(Parameter(dense[rows].copy(), name=f"{name}.shard{s}"))
        self.shards = shards

    # -- geometry ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """The logical (monolithic) table shape."""
        return (self.num_rows, self.num_cols)

    @property
    def dtype(self) -> np.dtype:
        return self.shards[0].data.dtype

    def shard_sizes(self) -> list[int]:
        """Rows per shard (sums to ``num_rows``)."""
        return [p.data.shape[0] for p in self.shards]

    def shard_parameters(self) -> list[Parameter]:
        """The per-shard autograd leaves, in shard order."""
        return list(self.shards)

    # -- routed access ---------------------------------------------------------

    def take_rows(self, rows: np.ndarray) -> np.ndarray:
        """Forward-only routed gather of logical rows (no autograd graph).

        The serving engine's path: returns exactly the bytes the monolithic
        table would, assembled from per-shard gathers into a fresh array.
        """
        rows = np.asarray(rows).ravel()
        out = np.empty((rows.size, self.num_cols), dtype=self.dtype)
        sid = self._shard_of[rows]
        loc = self._local_of[rows]
        for s, p in enumerate(self.shards):
            sel = np.flatnonzero(sid == s)
            if sel.size:
                out[sel] = p.data[loc[sel]]
        return out

    def lookup(self, indices: np.ndarray) -> Tensor:
        """Autograd gather: ``out[..., :] = table[indices[...], :]``.

        Forward values are bit-identical to a monolithic
        :func:`repro.nn.ops.embedding_lookup`; backward routes each touched
        row's gradient to its owning shard as a local-row
        :class:`SparseRowGrad`, so duplicate ids coalesce inside one shard
        with the same float sums the monolithic path performs.
        """
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise IndexError(
                f"embedding index out of range: [{indices.min()}, {indices.max()}] "
                f"vs table rows {self.num_rows}"
            )
        flat = indices.ravel()
        e = self.num_cols
        sid = self._shard_of[flat]
        loc = self._local_of[flat]
        out = np.empty((flat.size, e), dtype=self.dtype)
        selections: list[np.ndarray] = []
        for s, p in enumerate(self.shards):
            sel = np.flatnonzero(sid == s)
            if sel.size:
                out[sel] = p.data[loc[sel]]
            selections.append(sel)

        def backward(g: np.ndarray) -> None:
            g2d = g.reshape(-1, e)
            for p, sel in zip(self.shards, selections):
                if sel.size and p.requires_grad:
                    # Fancy indexing copies, so the emitted grad owns its
                    # buffers (same contract as embedding_lookup backward).
                    p._accumulate(SparseRowGrad(loc[sel], g2d[sel], p.data.shape))

        return Tensor._make(
            out.reshape(indices.shape + (e,)), tuple(self.shards), backward
        )

    # -- monolithic interchange -----------------------------------------------

    def dense(self) -> np.ndarray:
        """Materialize the logical ``(v, e)`` table (row-exact reassembly)."""
        out = np.empty((self.num_rows, self.num_cols), dtype=self.dtype)
        for p, rows in zip(self.shards, self._shard_rows):
            out[rows] = p.data
        return out

    def load_dense(self, dense: np.ndarray) -> None:
        """Scatter a monolithic table's values into the shards in place."""
        dense = np.asarray(dense)
        if dense.shape != self.shape:
            raise ValueError(f"dense shape {dense.shape} != table shape {self.shape}")
        for p, rows in zip(self.shards, self._shard_rows):
            p.data = dense[rows].astype(p.data.dtype)

    def __repr__(self) -> str:
        return (
            f"ShardedTable(shape={self.shape}, n_shards={self.n_shards}, "
            f"sizes={self.shard_sizes()})"
        )


class ShardedEmbedding(Module):
    """Drop-in :class:`repro.nn.embedding.Embedding` with a sharded table.

    Same init distribution and forward semantics; the weight lives in a
    :class:`ShardedTable` instead of one Parameter.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        n_shards: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"embedding dims must be positive, got {num_embeddings}x{embedding_dim}"
            )
        from repro.nn import init  # local import: init is tiny, avoids cycles

        rng = ensure_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.output_dim = embedding_dim
        self.table = ShardedTable(
            init.uniform((num_embeddings, embedding_dim), rng), n_shards, name="weight"
        )

    @classmethod
    def from_embedding(cls, embedding, n_shards: int) -> "ShardedEmbedding":
        """Partition an existing (possibly trained) ``Embedding``'s weight."""
        out = cls.__new__(cls)
        Module.__init__(out)
        out.num_embeddings = embedding.num_embeddings
        out.embedding_dim = embedding.embedding_dim
        out.output_dim = embedding.output_dim
        out.table = ShardedTable(embedding.weight.data, n_shards, name="weight")
        return out

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.table.lookup(indices)

    def frozen(self):
        """The serving form: one routed gather (see :mod:`repro.core.frozen`)."""
        from repro.core.frozen import FrozenForm, Gather  # repro.core sits above nn

        return FrozenForm(
            type(self).__name__, self.num_embeddings, self.output_dim,
            {"table": self.table}, Gather("table"),
        )
