"""Mixed-dimension embeddings (Ginart et al. 2019).

The paper (§5) evaluates mixed-dimension embeddings as "a blocked extension
of 'factorized embedding'": the frequency-sorted vocabulary is partitioned
into blocks, each block gets its own narrow table whose width shrinks with
popularity (popularity-based dimension sizing, controlled by a temperature),
and a per-block linear projection restores the common output width.

With frequency-sorted ids the blocks are contiguous ranges, so block
membership is a pair of comparisons.  Block sizes grow geometrically — the
head block holds few, popular entities at (near) full width; tail blocks
hold the long tail at a fraction of it.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.layers import Dense
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["MixedDimEmbedding", "block_partition", "block_dims"]


def block_partition(vocab_size: int, num_blocks: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges with geometrically growing sizes.

    Block k holds ~2× the entities of block k−1, so the most popular sliver
    of the vocabulary sits alone in the smallest (widest) block.  Always
    returns exactly ``num_blocks`` non-empty ranges covering ``vocab_size``
    (the block count is clipped when the vocabulary is too small).
    """
    if vocab_size <= 0:
        raise ValueError("vocab_size must be positive")
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    num_blocks = min(num_blocks, vocab_size)
    weights = np.asarray([2.0**k for k in range(num_blocks)])
    sizes = np.maximum(1, np.floor(vocab_size * weights / weights.sum()).astype(int))
    # Fix rounding drift on the last (largest) block.
    sizes[-1] += vocab_size - int(sizes.sum())
    if sizes[-1] < 1:  # tiny vocabularies: rebalance by flattening
        sizes = np.full(num_blocks, vocab_size // num_blocks, dtype=int)
        sizes[: vocab_size % num_blocks] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def block_dims(embedding_dim: int, num_blocks: int, temperature: float) -> list[int]:
    """Per-block widths ``d_k = e / 2^(k·τ)``, floored at 1.

    ``temperature`` τ controls how aggressively the tail narrows: τ = 0
    degenerates to factorized-everywhere at full width; Ginart et al.'s rule
    of thumb is τ ≈ 0.63 for power-law data.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    return [max(1, int(round(embedding_dim / 2 ** (k * temperature)))) for k in range(num_blocks)]


class MixedDimEmbedding(CompressedEmbedding):
    """Popularity-blocked embedding with per-block width and projection.

    Parameters
    ----------
    vocab_size:
        Number of entities (ids must be frequency-sorted — the paper's §5.1
        id assignment; the head block assumes the popular ids come first).
    embedding_dim:
        Common output width every block projects back to.
    num_blocks:
        Number of popularity blocks.  The paper sets this to the number of
        distinct categorical features (1 in their single-feature models),
        which collapses to plain factorization; >1 exercises the blocked
        sizing this class exists for.
    temperature:
        Popularity-based dimension-sizing temperature (see
        :func:`block_dims`).
    """

    technique = "mixed_dim"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_blocks: int,
        temperature: float = 0.63,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.blocks = block_partition(vocab_size, num_blocks)
        self.num_blocks = len(self.blocks)
        self.temperature = float(temperature)
        dims = block_dims(embedding_dim, self.num_blocks, self.temperature)
        self.block_widths = dims
        self.tables = [
            Parameter(init.uniform((stop - start, d), rng), name=f"block{k}")
            for k, ((start, stop), d) in enumerate(zip(self.blocks, dims))
        ]
        # Full-width blocks skip the projection entirely (identity), matching
        # the reference implementation's special case.
        self.projections = [
            Dense(d, embedding_dim, use_bias=False, rng=rng) if d != embedding_dim else None
            for d in dims
        ]

    def block_of(self, indices: np.ndarray) -> np.ndarray:
        """Block index of each id (vectorized binary search over bounds)."""
        indices = self._check_indices(indices)
        bounds = np.asarray([stop for _, stop in self.blocks])
        return np.searchsorted(bounds, indices, side="right")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        flat = indices.ravel()
        block = self.block_of(flat)
        out: Tensor | None = None
        for k, (start, stop) in enumerate(self.blocks):
            mask = block == k
            # Clamp out-of-block ids into the table so a single vectorized
            # lookup works; their rows are zeroed by the mask below, and the
            # mask also zeroes their backward gradient.
            local = np.where(mask, flat - start, 0)
            emb = ops.embedding_lookup(self.tables[k], local)
            if self.projections[k] is not None:
                emb = self.projections[k](emb)
            gated = ops.mul(emb, Tensor(mask.astype(np.float32)[:, None]))
            out = gated if out is None else ops.add(out, gated)
        return ops.reshape(out, tuple(indices.shape) + (self.output_dim,))

    def frozen(self):
        tables, parts = {}, []
        for k, ((start, stop), table, proj) in enumerate(
            zip(self.blocks, self.tables, self.projections)
        ):
            tables[f"block{k}"] = table
            part = Gather(f"block{k}", ("range", start, stop))
            if proj is not None:
                tables[f"proj{k}"] = proj.weight
                part = Combine("project", (part,), (f"proj{k}",), label=f"proj{k}")
            parts.append(part)
        return self._form(tables, Combine("masked_sum", tuple(parts), tuple(self.blocks)))
