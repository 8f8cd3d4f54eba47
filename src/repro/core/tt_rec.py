"""TT-Rec — tensor-train compressed embedding table (Yin et al. 2021).

The paper (§5, "State-of-the-art techniques") reports that TT-Rec results
"were similar to 'factorized embedding' for all datasets; likely because
both these approaches have large number of shared parameters".  This module
implements the technique so that claim can be checked empirically (see
``benchmarks/bench_ablations.py``).

A ``v × e`` table is viewed as a tensor of shape
``(v₁, v₂, v₃) × (e₁, e₂, e₃)`` with ``v₁v₂v₃ ≥ v`` and ``e₁e₂e₃ = e``, and
factorized into three cores::

    G₁ ∈ R^{v₁ × e₁ × r}     G₂ ∈ R^{v₂ × r × e₂ × r}     G₃ ∈ R^{v₃ × r × e₃}

Row ``i`` decomposes into digits ``(i₁, i₂, i₃)`` in the mixed radix
``(v₂·v₃, v₃)``, and its embedding is the chained contraction::

    emb(i) = G₁[i₁] · G₂[i₂] · G₃[i₃]          # (e₁×r)·(r×e₂r)·(r×e₃) → e

Parameters drop from ``v·e`` to ``v₁e₁r + v₂re₂r + v₃re₃`` — cube-root in
``v``.  Every id gets a structurally unique embedding (property 1 of §4),
but the contraction is a heavily *shared* multilinear map, which is exactly
why it behaves like a low-rank factorization on skewed data.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["TTRecEmbedding", "factor_three"]


def factor_three(n: int) -> tuple[int, int, int]:
    """Split ``n`` into three factors with product exactly ``n``, as balanced
    as possible (ascending).  Primes degrade gracefully to ``(1, 1, n)``."""
    if n <= 0:
        raise ValueError("n must be positive")
    best: tuple[int, int, int] = (1, 1, n)
    for a in range(1, int(round(n ** (1 / 3))) + 2):
        if n % a:
            continue
        rest = n // a
        for b in range(a, int(math.isqrt(rest)) + 1):
            if rest % b:
                continue
            c = rest // b
            if c >= b and c - a < best[2] - best[0]:
                best = (a, b, c)
    return best


def _vocab_shape(v: int) -> tuple[int, int, int]:
    """Three index factors with ``v₁·v₂·v₃ ≥ v``, each ≈ v^(1/3).

    Unlike the embedding-dim split, the index space may over-cover the
    vocabulary (padding rows are simply never addressed).
    """
    base = max(1, math.ceil(v ** (1 / 3)))
    v1 = base
    v2 = max(1, math.ceil(math.sqrt(v / v1)))
    v3 = max(1, math.ceil(v / (v1 * v2)))
    return v1, v2, v3


class TTRecEmbedding(CompressedEmbedding):
    """Tensor-train embedding with a single rank knob.

    Parameters
    ----------
    vocab_size:
        Logical vocabulary ``v``; the index space over-covers it.
    embedding_dim:
        Output width ``e``; internally split into three balanced factors.
    tt_rank:
        The train rank ``r`` shared by both internal bonds — the technique's
        compression knob (Yin et al. sweep 8…64 at DLRM scale).
    """

    technique = "tt_rec"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        tt_rank: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if tt_rank <= 0:
            raise ValueError(f"tt_rank must be positive, got {tt_rank}")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.tt_rank = int(tt_rank)
        self.vocab_shape = _vocab_shape(vocab_size)
        self.dim_shape = factor_three(embedding_dim)
        v1, v2, v3 = self.vocab_shape
        e1, e2, e3 = self.dim_shape
        r = self.tt_rank
        # Cores are stored as 2-D (index, flattened-slice) tables so the
        # shared embedding_lookup primitive (and its scatter-add backward)
        # applies; forward reshapes slices back to matrix form.
        # Scale ~ r^(-1/3) per core keeps the product's variance near that of
        # a plain uniform-initialized table.
        scale = 0.05 / r ** (1 / 3)
        self.core1 = Parameter(
            init.uniform((v1, e1 * r), rng, low=-scale, high=scale), name="core1"
        )
        self.core2 = Parameter(
            init.uniform((v2, r * e2 * r), rng, low=-scale, high=scale), name="core2"
        )
        self.core3 = Parameter(
            init.uniform((v3, r * e3), rng, low=-scale, high=scale), name="core3"
        )

    def index_digits(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mixed-radix digits ``(i₁, i₂, i₃)`` addressing the three cores."""
        indices = self._check_indices(indices)
        _, v2, v3 = self.vocab_shape
        return indices // (v2 * v3), (indices // v3) % v2, indices % v3

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        i1, i2, i3 = self.index_digits(indices.ravel())
        e1, e2, e3 = self.dim_shape
        r = self.tt_rank
        n = i1.size
        g1 = ops.reshape(ops.embedding_lookup(self.core1, i1), (n, e1, r))
        g2 = ops.reshape(ops.embedding_lookup(self.core2, i2), (n, r, e2 * r))
        g3 = ops.reshape(ops.embedding_lookup(self.core3, i3), (n, r, e3))
        left = ops.reshape(ops.bmm(g1, g2), (n, e1 * e2, r))  # (n, e1, e2·r) → fold e2
        out = ops.bmm(left, g3)  # (n, e1·e2, e3)
        return ops.reshape(out, tuple(indices.shape) + (self.output_dim,))

    def frozen(self):
        _, v2, v3 = self.vocab_shape
        digits = (
            Gather("core1", ("div", v2 * v3)),
            Gather("core2", ("digit", v3, v2)),
            Gather("core3", ("mod", v3)),
        )
        tables = {"core1": self.core1, "core2": self.core2, "core3": self.core3}
        return self._form(tables, Combine("tt", digits, (*self.dim_shape, self.tt_rank)))

    def core_parameters(self) -> tuple[int, int, int]:
        """Per-core parameter counts (for sizing tests and reports)."""
        return (self.core1.size, self.core2.size, self.core3.size)
