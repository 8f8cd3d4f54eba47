"""Composite differentiable functions and ndarray helpers.

These compose :mod:`repro.nn.ops` primitives (dropout, pooling) or provide
plain-NumPy counterparts used at evaluation time (softmax over logits for
ranking scores).
"""

from __future__ import annotations

import numpy as np

from repro.nn import ops
from repro.nn.tensor import Tensor

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "dropout",
    "average_pool1d",
    "mean_pool",
    "softmax_np",
    "log_softmax_np",
]

relu = ops.relu
sigmoid = ops.sigmoid
tanh = ops.tanh


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator,
    training: bool,
) -> Tensor:
    """Inverted dropout: zero each unit with prob ``rate``, scale by 1/(1-rate).

    Identity when not training or when ``rate`` is 0, so eval passes are free.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return ops.mul(x, Tensor(mask))


def average_pool1d(x: Tensor, pool_size: int) -> Tensor:
    """Average pooling over the sequence axis of a (B, L, E) tensor.

    Matches Keras ``AveragePooling1D``: non-overlapping windows of
    ``pool_size``; the paper pools with ``pool_size = input_length`` so the
    output has a single time step.
    """
    if x.ndim != 3:
        raise ValueError(f"average_pool1d expects (B, L, E), got shape {x.shape}")
    b, length, e = x.shape
    if length % pool_size != 0:
        raise ValueError(f"sequence length {length} not divisible by pool_size {pool_size}")
    windows = ops.reshape(x, (b, length // pool_size, pool_size, e))
    return ops.mean(windows, axis=2)


def mean_pool(x: Tensor, length: int) -> Tensor:
    """The models' pooling of a ``(B, length, E)`` embedding into ``(B, E)``.

    One :func:`~repro.nn.ops.mean` node over the sequence axis: the floats of
    ``AveragePooling1D(length)`` then ``Flatten``, without their reshape
    nodes, and its backward hands the embedding a broadcast view of one
    ``(B, E)`` quotient.  A 2-D input (an encoder that pools itself) passes
    through; a sequence of any other length raises ``ValueError``.
    """
    if x.ndim != 3:
        return x
    if x.shape[1] != length:
        raise ValueError(f"sequence length {x.shape[1]} != input_length {length}")
    return ops.mean(x, axis=1)


def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a raw ndarray (evaluation path)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax on a raw ndarray."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
