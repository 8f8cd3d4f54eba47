"""Differentiable operations over :class:`repro.nn.tensor.Tensor`.

Every function here computes a forward result with vectorized NumPy and
registers a backward closure on the output node.  Broadcasting follows NumPy
semantics; gradients of broadcast operands are reduced back to the operand
shape by :func:`unbroadcast` (sum over the broadcast axes), which is the
adjoint of broadcasting.

The embedding-specific primitive is :func:`embedding_lookup`, whose backward
emits a row-sparse :class:`repro.nn.sparse_grad.SparseRowGrad` — the same
``IndexedSlices`` semantics TF 1.x gives ``tf.gather``, so optimizers update
only the rows a batch touched (see DESIGN.md §5).  :func:`memcom_lookup`
fuses MEmCom's three gathers and its composition into one node whose
backward sorts the batch's ids once and emits all three gradients already
coalesced.  The dense scatter-add baseline is kept behind
``sparse_grads(False)`` for benchmarking.

A backward may hand its inputs views of its gradient (a reshape, a
transpose, the broadcast view of a reduction's backward), and an interior
node adopts what it receives uncopied (:meth:`Tensor._accumulate`).  NumPy
sums and BLAS products can add in an order that depends on memory layout,
so a backward that reduces over its gradient or multiplies matrices with it
first makes it C-contiguous: the layout a gradient had when every node
copied its own, which keeps that engine's floats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import sparse_grad as _sg
from repro.nn.sparse_grad import SparseRowGrad
from repro.nn.tensor import Tensor

__all__ = [
    "as_tensor",
    "unbroadcast",
    "add",
    "sub",
    "mul",
    "muladd",
    "memcom_lookup",
    "div",
    "neg",
    "pow",
    "matmul",
    "bmm",
    "sum",
    "mean",
    "reshape",
    "transpose",
    "concat",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "tanh",
    "relu",
    "embedding_lookup",
    "batch_norm",
]


def as_tensor(value: object) -> Tensor:
    """Coerce scalars/arrays to constant Tensors; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (the gradient of a broadcast result) to ``shape``.

    Summing over broadcast axes is the exact adjoint of NumPy broadcasting:
    an operand value that was replicated k times receives the sum of the k
    downstream gradients.
    """
    if grad.shape == shape:
        return grad
    grad = np.ascontiguousarray(grad)  # the reduction order of a C array
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g_dim, s_dim) in enumerate(zip(grad.shape, shape)) if s_dim == 1 and g_dim != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic ----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(-g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * a.data, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def muladd(a: Tensor, b: Tensor, c: Tensor) -> Tensor:
    """Fused ``a * b + c`` with NumPy broadcasting.

    One graph node and one output buffer instead of two.  Over three
    :func:`embedding_lookup`\\ s it is the unfused MEmCom graph
    ``U[j] ⊙ V[i] + W[i]`` (Algorithm 3), the reference that
    :func:`memcom_lookup` matches float for float in the same order.
    """
    out_data = a.data * b.data
    if out_data.shape == np.broadcast_shapes(out_data.shape, c.data.shape) and (
        out_data.dtype == np.result_type(out_data.dtype, c.data.dtype)
    ):
        out_data += c.data  # in-place fast path: c broadcasts into the product
    else:
        out_data = out_data + c.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * a.data, b.data.shape))
        if c.requires_grad:
            c._accumulate(unbroadcast(g, c.data.shape))

    return Tensor._make(out_data, (a, b, c), backward)


def memcom_lookup(
    shared: Tensor, multiplier: Tensor, bias: Tensor | None, indices: np.ndarray
) -> Tensor:
    """MEmCom's ``U[i mod m] ⊙ V[i] (+ W[i])`` (Algorithms 2 and 3) as one node.

    ``m`` is ``shared``'s row count.  The forward gathers the three tables
    with ``np.take`` and computes ``a * b`` then ``+= c``, the order of
    :func:`muladd` over three :func:`embedding_lookup`\\ s.  ``indices`` must
    already be range-checked (``CompressedEmbedding._check_indices``):
    ``np.take`` raises past the end of a table but wraps negative ids.

    A ``(B, L)`` batch at ``e > 1`` is gathered *position-major* (every
    request's first id, then every second, ...) and handed on as a
    ``(B, L, e)`` view, the serving engine's layout rule (DESIGN.md §6):
    the models' mean-pool then adds whole ``(B, e)`` planes, in the same
    order over L.  At ``e = 1`` numpy sums a request's contiguous window
    pairwise, so those rows stay request-major.

    The backward coalesces once.  V and W are both indexed by ``i``, so one
    ``np.unique(ids, return_inverse=True)`` gives their rows; U's rows are
    ``np.unique(rows % m)``, and its inverse composes the two.  Each table
    then receives a :class:`SparseRowGrad` that is already coalesced, summed
    exactly as :meth:`SparseRowGrad.coalesce` would sum the per-lookup rows
    of the unfused graph (request-major, whatever the forward's layout), so
    norm clipping and the optimizer find nothing left to sort.  A gradient
    that is constant over L (the mean-pool's broadcast view) gives W one
    sum per request.  Under ``sparse_grads(False)`` each is densified
    instead.
    """
    m, e = shared.data.shape
    position_major = indices.ndim == 2 and e > 1
    flat = indices.T.ravel() if position_major else indices.ravel()
    a = np.take(shared.data, flat % m, axis=0)
    b = np.take(multiplier.data, flat, axis=0)
    out_data = a * b
    tables: tuple[Tensor, ...] = (shared, multiplier)
    if bias is not None:
        out_data += np.take(bias.data, flat, axis=0)  # (k, 1) broadcasts into (k, e)
        tables += (bias,)
    if position_major:
        batch, length = indices.shape
        a, b, out_data = (
            x.reshape(length, batch, x.shape[1]).transpose(1, 0, 2) for x in (a, b, out_data)
        )
    else:
        a, b, out_data = (x.reshape(indices.shape + x.shape[1:]) for x in (a, b, out_data))

    def emit(table: Tensor, rows: np.ndarray, inverse: np.ndarray, per_lookup: np.ndarray) -> None:
        values = per_lookup.reshape(-1, table.data.shape[1])
        grad = SparseRowGrad.summed(rows, inverse, values, table.data.shape)
        table._accumulate(grad if _sg.sparse_grads_enabled() else grad.to_dense())

    def backward(g: np.ndarray) -> None:
        rows, inverse = np.unique(indices.ravel(), return_inverse=True)
        # Both (…, e) products go request-major into one buffer: each emit
        # has summed its values into a fresh gradient before the next.
        scratch = np.empty(g.shape, np.result_type(g, a))
        if multiplier.requires_grad:
            emit(multiplier, rows, inverse, unbroadcast(np.multiply(g, a, out=scratch), b.shape))
        if shared.requires_grad:
            shared_rows, shared_inverse = np.unique(rows % m, return_inverse=True)
            emit(shared, shared_rows, shared_inverse[inverse], np.multiply(g, b, out=scratch))
        if bias is not None and bias.requires_grad:
            if g.ndim == 3 and g.strides[1] == 0:
                # Constant over L: one sum per request, for each of its L ids.
                per_request = np.ascontiguousarray(g[:, 0]).sum(axis=-1)
                emit(bias, rows, inverse, np.repeat(per_request, g.shape[1]))
            else:
                emit(bias, rows, inverse, unbroadcast(g, indices.shape + (1,)))

    return Tensor._make(out_data, tables, backward)


def neg(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        a._accumulate(-g)

    return Tensor._make(-a.data, (a,), backward)


def pow(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a *scalar* exponent (all the paper needs)."""
    if isinstance(exponent, Tensor):
        raise TypeError("pow supports scalar exponents only")
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return Tensor._make(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2-D×2-D, or N-D×2-D (dense layer over leading dims)."""
    if b.data.ndim != 2:
        raise ValueError(f"matmul rhs must be 2-D, got {b.data.shape}")
    if a.data.ndim < 2:
        raise ValueError(f"matmul lhs must be at least 2-D, got {a.data.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        g = np.ascontiguousarray(g)
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            if a.data.ndim == 2:
                b._accumulate(a.data.T @ g)
            else:
                k = a.data.shape[-1]
                n = b.data.shape[-1]
                b._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))

    return Tensor._make(out_data, (a, b), backward)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of two 3-D tensors: ``(N,p,q) @ (N,q,r)``.

    Used by tensor-train embeddings, which contract one core slice per
    looked-up index.  No broadcasting across the batch axis — both operands
    must carry the same leading ``N``.
    """
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ValueError(f"bmm needs 3-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ValueError(f"bmm shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        g = np.ascontiguousarray(g)
        if a.requires_grad:
            a._accumulate(g @ b.data.transpose(0, 2, 1))
        if b.requires_grad:
            b._accumulate(a.data.transpose(0, 2, 1) @ g)

    return Tensor._make(out_data, (a, b), backward)


# -- reductions ----------------------------------------------------------------


def _expand_reduced(
    g: np.ndarray, in_shape: tuple[int, ...], axis: object, keepdims: bool
) -> np.ndarray:
    """Broadcast a reduction gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(g, in_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def sum(a: Tensor, axis: object = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray) -> None:
        g = g.astype(a.data.dtype, copy=False)
        a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims))

    return Tensor._make(np.asarray(out_data), (a,), backward)


def mean(a: Tensor, axis: object = None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis``.  The backward divides the reduced gradient by the
    count once and hands on a read-only broadcast view of the quotient: the
    models' mean-pool gives its ``(B, L, e)`` input a view of one ``(B, e)``
    array."""
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    axes = range(a.data.ndim) if axis is None else (axis,) if isinstance(axis, int) else axis
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]

    def backward(g: np.ndarray) -> None:
        quotient = (g / count).astype(a.data.dtype, copy=False)
        a._accumulate(_expand_reduced(quotient, a.data.shape, axis, keepdims))

    return Tensor._make(np.asarray(out_data), (a,), backward)


# -- shape manipulation ----------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(a.data.shape))

    return Tensor._make(out_data, (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    out_data = a.data.transpose(axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.transpose(inverse))

    return Tensor._make(out_data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` (used by double-hashing / QR-concat)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(start), int(stop))
                t._accumulate(np.ascontiguousarray(g[tuple(sl)]))

    return Tensor._make(out_data, tuple(tensors), backward)


# -- elementwise nonlinearities -----------------------------------------------


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * out_data)

    return Tensor._make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g / a.data)

    return Tensor._make(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g / (2.0 * out_data))

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # Stable: never exponentiates a positive argument.
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out_data = out_data.astype(x.dtype)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * (a.data > 0))

    return Tensor._make(out_data, (a,), backward)


# -- embedding lookup -----------------------------------------------------------


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows: ``out[..., :] = table[indices[...], :]``.

    ``indices`` is a raw integer ndarray (not a Tensor — ids are not
    differentiable).  Backward emits a :class:`SparseRowGrad` carrying one
    value row per lookup, so an id looked up k times in the batch accumulates
    k gradient contributions on coalescing — exactly the scatter-add a
    framework embedding layer performs, without ever materializing the
    ``(v, e)`` table gradient.  Optimizers then update only the touched rows
    (the TF 1.x ``IndexedSlices`` fast path the paper trained on).

    Under ``sparse_grads(False)`` backward falls back to densifying via a
    sparse one-hot matmul (the pre-sparse-path baseline, kept for the
    throughput benchmark).
    """
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
    if table.data.ndim != 2:
        raise ValueError(f"embedding table must be 2-D, got shape {table.data.shape}")
    v = table.data.shape[0]
    if indices.size and (indices.min() < 0 or indices.max() >= v):
        raise IndexError(
            f"embedding index out of range: [{indices.min()}, {indices.max()}] vs table rows {v}"
        )
    out_data = table.data[indices]

    def backward(g: np.ndarray) -> None:
        e = table.data.shape[1]
        # Snapshot the ids: callers may legally refill a preallocated index
        # buffer between backward() and optimizer step(), and the sparse
        # grad reads its rows only at coalesce/apply time.
        flat = indices.ravel().copy()
        g2d = g.reshape(-1, e)
        if _sg.sparse_grads_enabled():
            # The emitted SparseRowGrad owns both its arrays (clipping scales
            # its values in place), and ``g`` may be shared with other
            # nodes: a view of it is copied.  Reshaping a broadcast ``g``
            # (the mean-pool's) has copied it already.
            if np.may_share_memory(g2d, g):
                g2d = g2d.copy()
            table._accumulate(SparseRowGrad(flat, g2d, table.data.shape))
            return
        # Dense baseline: scatter-add over the whole table — still O(v·e).
        table._accumulate(_sg.onehot_rowsum(flat, g2d, table.data.shape[0]))

    return Tensor._make(out_data, (table,), backward)


# -- batch normalization (fused) -------------------------------------------------


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm over all axes except the last.

    Returns ``(out, batch_mean, batch_var)``; the layer owns running-stat
    bookkeeping.  The backward pass uses the standard fused formula, which is
    both faster and more numerically stable than composing primitives.
    """
    axes = tuple(range(x.data.ndim - 1))
    mu = x.data.mean(axis=axes)
    var = x.data.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu) * inv_std
    out_data = (x_hat * gamma.data + beta.data).astype(x.data.dtype, copy=False)
    n = x.data.size // x.data.shape[-1]

    def backward(g: np.ndarray) -> None:
        g = np.ascontiguousarray(g)
        # A mean is a sum divided by the count, so each sum serves both a
        # parameter's gradient and the mean the input's gradient subtracts.
        g_sum = g.sum(axis=axes)
        gx_sum = (g * x_hat).sum(axis=axes)
        if gamma.requires_grad:
            gamma._accumulate(gx_sum)
        if beta.requires_grad:
            beta._accumulate(g_sum)
        if x.requires_grad:
            dx = g - g_sum / n
            dx -= x_hat * (gx_sum / n)
            dx *= gamma.data * inv_std
            x._accumulate(dx)

    out = Tensor._make(out_data, (x, gamma, beta), backward)
    return out, mu, var
