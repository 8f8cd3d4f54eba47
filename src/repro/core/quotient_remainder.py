"""Quotient-remainder trick of Shi et al. 2019 (Algorithm 1 in the paper).

Two tables replace the full one: ``U ∈ R^{m×e}`` indexed by the remainder
``i mod m`` and ``V ∈ R^{⌈v/m⌉×e}`` indexed by the quotient ``i \\ m``.  The
compositional operator is elementwise multiplication (the variant Shi et al.
recommend) or concatenation; the paper evaluates both and argues in §4 that
this operator is "relatively complex to generalize" compared with MEmCom's
scalar multiply.

For the concat variant each table holds ``e/2``-dim rows so the composed
embedding keeps the same output width as every other technique in a sweep.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import Combine, Gather
from repro.nn import init, ops
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["QREmbedding"]


class QREmbedding(CompressedEmbedding):
    """Quotient-remainder compositional embedding.

    Parameters
    ----------
    vocab_size, embedding_dim:
        Logical vocabulary ``v`` and composed output width ``e``.
    num_remainder_embeddings:
        The modulus ``m``; the quotient table gets ``⌈v/m⌉`` rows so every id
        ``i < v`` maps to a valid ``(i mod m, i \\ m)`` pair — a
        "complementary partition" in Shi et al.'s terms.
    operation:
        ``"mult"`` (elementwise product, tables e-dim) or ``"concat"``
        (tables e/2-dim each, concatenated).
    """

    technique = "qr_mult"

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        num_remainder_embeddings: int,
        operation: str = "mult",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(vocab_size, embedding_dim)
        if num_remainder_embeddings <= 0:
            raise ValueError("num_remainder_embeddings must be positive")
        if operation not in ("mult", "concat"):
            raise ValueError(f"unknown QR operation {operation!r}")
        if operation == "concat" and embedding_dim % 2 != 0:
            raise ValueError("concat variant needs an even embedding_dim")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.num_remainder_embeddings = int(num_remainder_embeddings)
        self.num_quotient_embeddings = math.ceil(vocab_size / self.num_remainder_embeddings)
        self.operation = operation
        self.technique = f"qr_{operation}"
        per_table_dim = embedding_dim if operation == "mult" else embedding_dim // 2
        self.remainder = Parameter(
            init.uniform((self.num_remainder_embeddings, per_table_dim), rng),
            name="remainder",
        )
        self.quotient = Parameter(
            init.uniform((self.num_quotient_embeddings, per_table_dim), rng),
            name="quotient",
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = self._check_indices(indices)
        rem_idx = indices % self.num_remainder_embeddings
        quo_idx = indices // self.num_remainder_embeddings
        x_rem = ops.embedding_lookup(self.remainder, rem_idx)
        x_quo = ops.embedding_lookup(self.quotient, quo_idx)
        if self.operation == "mult":
            return ops.mul(x_rem, x_quo)
        return ops.concat([x_rem, x_quo], axis=-1)

    def frozen(self):
        m = self.num_remainder_embeddings
        parts = (Gather("remainder", ("mod", m)), Gather("quotient", ("div", m)))
        op = "mul" if self.operation == "mult" else "concat"
        tables = {"remainder": self.remainder, "quotient": self.quotient}
        return self._form(tables, Combine(op, parts))
