"""Shared test utilities: finite-difference gradient checking, and the
training step of the engine that copied every gradient (the bit-for-bit
reference of the step that adopts interior gradients and packs Adam's
dense slots)."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.optim import Adam
from repro.nn.sparse_grad import SparseRowGrad
from repro.nn.tensor import Tensor


def numeric_gradient(
    f: Callable[[], Tensor],
    wrt: Tensor,
    eps: float = 1e-3,
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``wrt.data``."""
    grad = np.zeros_like(wrt.data, dtype=np.float64)
    flat = wrt.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f().data)
        flat[i] = orig - eps
        lo = float(f().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def check_gradients(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    atol: float = 2e-2,
    rtol: float = 5e-2,
) -> None:
    """Assert autograd gradients of scalar ``f()`` match finite differences.

    Uses float64 copies of the parameters for the numeric pass tolerance;
    inputs should be small tensors (the check is O(params · forward cost)).
    """
    for p in params:
        p.zero_grad()
    out = f()
    assert out.data.ndim == 0 or out.data.size == 1, "gradcheck needs a scalar output"
    out.backward()
    for idx, p in enumerate(params):
        assert p.grad is not None, f"param {idx} received no gradient"
        expected = numeric_gradient(f, p)
        np.testing.assert_allclose(
            p.grad.astype(np.float64),
            expected,
            atol=atol,
            rtol=rtol,
            err_msg=f"gradient mismatch for parameter {idx}",
        )


def copying_accumulate(self: Tensor, grad: np.ndarray | SparseRowGrad) -> None:
    """``Tensor._accumulate`` as the copying engine ran it: every node copies
    its first dense gradient and adds later ones in place.  Patch it over
    ``Tensor._accumulate`` to run a graph on that engine."""
    if grad.shape != self.data.shape:
        raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.data.shape}")
    if isinstance(grad, SparseRowGrad):
        if self._grad is None:
            self._grad = grad.astype(self.data.dtype)
        elif isinstance(self._grad, SparseRowGrad):
            self._grad = self._grad.merge(grad)
        else:
            grad.add_to_dense(self._grad)
        return
    if self._grad is None:
        self._grad = grad.copy() if grad.dtype == self.data.dtype else grad.astype(self.data.dtype)
    elif isinstance(self._grad, SparseRowGrad):
        dense = self._grad.to_dense(dtype=self.data.dtype)
        dense += grad
        self._grad = dense
    else:
        self._grad += grad


class LoopAdam(Adam):
    """Adam's arithmetic as one loop over the parameters, each with its own
    slot arrays and fresh temporaries."""

    def _apply_step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.raw_grad is None:
                continue
            sg = p.sparse_grad
            if sg is not None:
                rows, g = sg.rows, sg.values
                if rows.size == 0:
                    continue
                p_rows = np.take(p.data, rows, axis=0)
                if self.weight_decay:
                    g = g + self.weight_decay * p_rows
                m_rows = np.take(m, rows, axis=0)
                m_rows *= b1
                m_rows += (1.0 - b1) * g
                v_rows = np.take(v, rows, axis=0)
                v_rows *= b2
                v_rows += (1.0 - b2) * (g * g)
                m[rows] = m_rows
                v[rows] = v_rows
                update = np.sqrt(v_rows / bias2)
                update += self.eps
                np.divide(m_rows, update, out=update)
                update *= self.lr / bias1
                p_rows -= update
                p.data[rows] = p_rows
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def loop_clip(params: list, max_norm: float) -> float:
    """``clip_global_norm`` with the squares summed as ``np.sum(g ** 2)``."""
    total = 0.0
    for p in params:
        g = p.raw_grad
        if g is None:
            continue
        values = p.sparse_grad.values if isinstance(g, SparseRowGrad) else g
        total += float(np.sum(values.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            g = p.raw_grad
            if isinstance(g, SparseRowGrad):
                g.scale_(scale)
            elif g is not None:
                g *= scale
    return norm
