"""The paper's Code 1 network: embedding-based fully connected classifier.

Keras original (§5, Code 1)::

    embed  = Embedding(V, 256, input_length=128)(input)
    l      = AveragePooling1D(128)(embed) ; Flatten ; ReLU
    l      = Dropout ; BatchNormalization
    l      = Dense(embedding_size/2, relu)
    l      = Dropout ; BatchNormalization
    output = Dense(num_labels, softmax)

This class reproduces that stack over any
:class:`repro.core.CompressedEmbedding` (the only line the techniques
change).  The final softmax is fused into the loss; ``forward`` returns
logits.  Encoders that already emit a pooled ``(B, e)`` representation
(Weinberger's hashed one-hot) skip the pooling stage.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.nn.functional import mean_pool
from repro.nn.layers import (
    BatchNorm,
    Dense,
    Dropout,
    Module,
    ReLU,
)
from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng, spawn

__all__ = ["EmbeddingClassifier", "classifier_head_params"]


class EmbeddingClassifier(Module):
    """Code 1 with a pluggable embedding technique."""

    def __init__(
        self,
        embedding: CompressedEmbedding,
        input_length: int,
        num_labels: int,
        dropout: float = 0.2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if num_labels <= 1:
            raise ValueError("num_labels must be at least 2")
        rng = ensure_rng(rng)
        r_drop1, r_drop2, r_dense, r_out = spawn(rng, 4)
        e = embedding.output_dim
        hidden = max(1, e // 2)
        self.input_length = input_length
        self.num_labels = num_labels
        self.embedding = embedding
        self.relu = ReLU()
        self.dropout1 = Dropout(dropout, rng=r_drop1)
        self.norm1 = BatchNorm(e)
        self.hidden = Dense(e, hidden, activation="relu", rng=r_dense)
        self.dropout2 = Dropout(dropout, rng=r_drop2)
        self.norm2 = BatchNorm(hidden)
        self.out = Dense(hidden, num_labels, rng=r_out)

    def forward(self, x: np.ndarray) -> Tensor:
        h = mean_pool(self.embedding(x), self.input_length)
        h = self.relu(h)
        h = self.norm1(self.dropout1(h))
        h = self.hidden(h)
        h = self.norm2(self.dropout2(h))
        return self.out(h)


def classifier_head_params(embedding_dim: int, num_labels: int) -> int:
    """Trainable parameters of everything after the embedding.

    BatchNorm(e): 2e · Dense e→e/2: e·(e/2)+(e/2) · BatchNorm(e/2): 2·(e/2)
    · Dense e/2→C: (e/2)·C+C.  Pinned against ``num_parameters()`` in tests;
    used by the Figure 6 fixed-budget solver.
    """
    e = embedding_dim
    h = max(1, e // 2)
    return (2 * e) + (e * h + h) + (2 * h) + (h * num_labels + num_labels)
