"""Weight initializers.

Defaults mirror the Keras layers the paper's Code 1 uses: Dense uses
Glorot-uniform, Embedding uses uniform(-0.05, 0.05), biases start at zero.
Every initializer takes the target shape and a ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import DEFAULT_DTYPE

__all__ = [
    "glorot_uniform",
    "he_uniform",
    "uniform",
    "normal",
    "zeros",
    "ones",
    "constant",
]


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-l, l), l = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(DEFAULT_DTYPE)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He uniform: U(-l, l), l = sqrt(6 / fan_in) — for ReLU stacks."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(DEFAULT_DTYPE)


def uniform(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    low: float = -0.05,
    high: float = 0.05,
) -> np.ndarray:
    """Uniform init; defaults match Keras' Embedding ``RandomUniform``."""
    return rng.uniform(low, high, size=shape).astype(DEFAULT_DTYPE)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.05) -> np.ndarray:
    return (rng.standard_normal(size=shape) * std).astype(DEFAULT_DTYPE)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)


def constant(shape: tuple[int, ...], value: float) -> np.ndarray:
    return np.full(shape, value, dtype=DEFAULT_DTYPE)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
