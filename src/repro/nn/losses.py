"""Loss functions.

``softmax_cross_entropy`` is the training loss for both the classification
experiment (§5.1) and the pointwise ranking experiment (§5.2 — "we use the
softmax as our loss function as in the classification experiments").
``ranknet_loss`` is the pairwise logistic loss of Burges et al. 2005 used by
the Arcade pairwise experiment (Figure 3).

Both are implemented as fused ops: the forward uses log-sum-exp stabilized
arithmetic and the backward is the closed-form gradient, avoiding the
numerical trouble (and graph overhead) of composing exp/log primitives.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "softmax_cross_entropy",
    "distillation_loss",
    "ranknet_loss",
    "binary_cross_entropy_with_logits",
    "mse_loss",
]


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``softmax(logits)`` and integer ``labels``.

    ``logits``: (B, C) Tensor.  ``labels``: (B,) integer ndarray.
    Gradient: ``(softmax(logits) - onehot(labels)) / B``.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    if logits.ndim != 2:
        raise ValueError(f"logits must be (B, C), got {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} != ({b},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c})")

    x = logits.data
    x_max = x.max(axis=1, keepdims=True)
    shifted = x - x_max
    lse = np.log(np.exp(shifted).sum(axis=1)) + x_max[:, 0]
    per_example = lse - x[np.arange(b), labels]
    loss_val = per_example.mean(dtype=np.float64)

    def backward(g: np.ndarray) -> None:
        probs = np.exp(x - lse[:, None])
        probs[np.arange(b), labels] -= 1.0
        probs *= float(g) / b
        logits._accumulate(probs)

    return Tensor._make(np.asarray(loss_val, dtype=x.dtype), (logits,), backward)


def distillation_loss(
    logits: Tensor,
    teacher_logits: np.ndarray,
    labels: np.ndarray,
    temperature: float = 2.0,
    alpha: float = 0.5,
) -> Tensor:
    """Hinton-style distillation: soft teacher targets blended with hard CE.

    ``loss = α·T²·CE(softmax(t/T), softmax(x/T)) + (1-α)·CE(x, labels)``

    where ``x`` are the student ``logits`` (B, C), ``t`` the frozen
    ``teacher_logits`` (B, C — a constant, no gradient flows to the
    teacher), ``T`` the ``temperature`` and ``α`` the soft/hard blend.  The
    ``T²`` factor keeps the soft term's gradient magnitude independent of
    the temperature (Hinton et al. 2015), so ``α`` means the same thing at
    every ``T``.  Fused closed-form backward:

    ``∂loss/∂x = [α·T·(softmax(x/T) − softmax(t/T))
                  + (1−α)·(softmax(x) − onehot(labels))] / B``

    At ``α = 0`` this is bit-identical to :func:`softmax_cross_entropy`.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    if logits.ndim != 2:
        raise ValueError(f"logits must be (B, C), got {logits.shape}")
    teacher = np.asarray(teacher_logits, dtype=logits.data.dtype)
    if teacher.shape != logits.shape:
        raise ValueError(
            f"teacher logits shape {teacher.shape} != student shape {logits.shape}"
        )
    b, c = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} != ({b},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c})")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    x = logits.data
    t_inv = 1.0 / temperature

    # Hard term — same arithmetic as softmax_cross_entropy, so α = 0
    # degenerates to it exactly.
    x_max = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - x_max).sum(axis=1)) + x_max[:, 0]
    hard = (lse - x[np.arange(b), labels]).mean(dtype=np.float64)

    # Soft term — cross-entropy of the temperature-softened distributions:
    # mean_b[ lse(x/T) − Σ_c p_bc · x_bc/T ] with p = softmax(t/T) constant.
    xt = x * t_inv
    xt_max = xt.max(axis=1, keepdims=True)
    lse_t = np.log(np.exp(xt - xt_max).sum(axis=1)) + xt_max[:, 0]
    tt = teacher * t_inv
    tt_max = tt.max(axis=1, keepdims=True)
    p = np.exp(tt - tt_max)
    p /= p.sum(axis=1, keepdims=True)
    soft = (lse_t - (p * xt).sum(axis=1)).mean(dtype=np.float64)

    loss_val = alpha * temperature**2 * soft + (1.0 - alpha) * hard

    def backward(g: np.ndarray) -> None:
        probs = np.exp(x - lse[:, None])
        probs[np.arange(b), labels] -= 1.0
        grad = (1.0 - alpha) * probs
        grad += (alpha * temperature) * (np.exp(xt - lse_t[:, None]) - p)
        logits._accumulate((grad * (float(g) / b)).astype(x.dtype))

    return Tensor._make(np.asarray(loss_val, dtype=x.dtype), (logits,), backward)


def ranknet_loss(score_pos: Tensor, score_neg: Tensor) -> Tensor:
    """RankNet pairwise loss: ``mean(log(1 + exp(-(s+ - s-))))``.

    During training the network "maximizes the difference between these
    scores" (§5.2); this is the cross-entropy of Burges et al. with target
    probability 1 that the first item outranks the second.
    """
    if score_pos.shape != score_neg.shape:
        raise ValueError(f"score shapes differ: {score_pos.shape} vs {score_neg.shape}")
    diff = score_pos.data - score_neg.data
    per_pair = np.logaddexp(0.0, -diff)
    loss_val = per_pair.mean(dtype=np.float64)
    n = diff.size

    def backward(g: np.ndarray) -> None:
        # d/d diff log(1+exp(-diff)) = -sigmoid(-diff)
        d = (-_sigmoid(-diff) * (float(g) / n)).astype(diff.dtype)
        if score_pos.requires_grad:
            score_pos._accumulate(d)
        if score_neg.requires_grad:
            score_neg._accumulate(-d)

    return Tensor._make(
        np.asarray(loss_val, dtype=diff.dtype), (score_pos, score_neg), backward
    )


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE with a stable log-sum-exp formulation.

    ``loss = mean(max(x,0) - x*t + log(1+exp(-|x|)))``.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if targets.shape != logits.shape:
        raise ValueError(f"target shape {targets.shape} != logits shape {logits.shape}")
    x = logits.data
    per = np.maximum(x, 0.0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    loss_val = per.mean(dtype=np.float64)
    n = x.size

    def backward(g: np.ndarray) -> None:
        logits._accumulate(((_sigmoid(x) - targets) * (float(g) / n)).astype(x.dtype))

    return Tensor._make(np.asarray(loss_val, dtype=x.dtype), (logits,), backward)


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    targets = np.asarray(targets, dtype=pred.data.dtype)
    if targets.shape != pred.shape:
        raise ValueError(f"target shape {targets.shape} != prediction shape {pred.shape}")
    diff = pred.data - targets
    loss_val = np.mean(diff * diff, dtype=np.float64)
    n = diff.size

    def backward(g: np.ndarray) -> None:
        pred._accumulate((2.0 * diff * (float(g) / n)).astype(diff.dtype))

    return Tensor._make(np.asarray(loss_val, dtype=pred.data.dtype), (pred,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
