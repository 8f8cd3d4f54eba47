"""Reverse-mode automatic differentiation over NumPy arrays.

This is the training substrate the reproduction runs on (the paper used
TensorFlow 1.12 + Keras; see DESIGN.md for the substitution argument).  A
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
produced it; :meth:`Tensor.backward` walks the recorded graph in reverse
topological order accumulating gradients.

Design notes
------------
* Gradients are plain ``numpy.ndarray``s or row-sparse
  :class:`repro.nn.sparse_grad.SparseRowGrad`s, never Tensors — no
  higher-order derivatives are needed for the paper.  Embedding-table
  gradients stay sparse through accumulation, clipping and the optimizer
  step; reading ``.grad`` densifies lazily for backward compatibility,
  while sparse-aware consumers use :attr:`Tensor.raw_grad` /
  :attr:`Tensor.sparse_grad`.
* All arithmetic is defined in :mod:`repro.nn.ops`; the dunder methods here
  delegate to it (imported lazily to avoid an import cycle).
* ``float32`` is the default dtype, matching the paper's FP32 training and
  on-device export setting.
* A global no-grad switch (:func:`no_grad`) lets evaluation skip graph
  construction entirely, which roughly halves inference cost.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.nn.sparse_grad import SparseRowGrad

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled", "DEFAULT_DTYPE"]

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether new operations will record autograd graph edges."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph recording (for inference/eval)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_array(data: object, dtype: np.dtype | None) -> np.ndarray:
    if isinstance(data, np.ndarray):
        arr = data
    else:
        arr = np.asarray(data)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    elif arr.dtype.kind not in "fc":
        # Integers/bools promote to the default float dtype: Tensors carry
        # differentiable values only; integer indices stay raw ndarrays.
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A differentiable node: an ndarray plus the closure that backprops it."""

    __slots__ = ("data", "_grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        dtype: np.dtype | None = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype)
        self._grad: np.ndarray | SparseRowGrad | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- gradient access -------------------------------------------------------

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient as a dense ndarray.

        A sparse row gradient densifies (and is cached dense) on first
        access, so legacy consumers — DP noise injection, tests, direct
        ``p.grad`` math — keep working.  Sparse-aware code (the optimizers)
        reads :attr:`raw_grad` instead and never pays the densification.
        """
        if isinstance(self._grad, SparseRowGrad):
            self._grad = self._grad.to_dense(dtype=self.data.dtype)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | SparseRowGrad | None) -> None:
        self._grad = value

    @property
    def raw_grad(self) -> np.ndarray | SparseRowGrad | None:
        """The gradient in whatever form it is held — no densification."""
        return self._grad

    @property
    def sparse_grad(self) -> SparseRowGrad | None:
        """The gradient as a coalesced :class:`SparseRowGrad`, if sparse.

        Returns ``None`` when the gradient is dense or absent.  The
        coalesced form is cached back, so repeated consumers (norm clipping
        followed by the optimizer step) coalesce once.
        """
        if isinstance(self._grad, SparseRowGrad):
            self._grad = self._grad.coalesce()
            return self._grad
        return None

    # -- graph construction (used by repro.nn.ops) ---------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node whose gradient flows to ``parents``.

        When grad mode is off or no parent requires grad, the node is a
        constant and no closure is retained.
        """
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray | SparseRowGrad) -> None:
        """Add ``grad`` into the held gradient (allocating on first touch).

        Handles all four held/incoming combinations: dense+dense adds in
        place, sparse+sparse merges lazily (coalescing is deferred to the
        consumer), sparse+dense densifies the held sparse grad first, and
        dense+sparse scatter-adds the incoming rows into the dense buffer —
        so a table read by several lookups (e.g. both arms of a RankNet
        pair) accumulates correctly whatever mix of forms arrives.
        """
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )
        if isinstance(grad, SparseRowGrad):
            if self._grad is None:
                # No defensive copy here: the producers (the backward of
                # embedding_lookup and memcom_lookup) emit owned row/value
                # buffers, so the incoming SparseRowGrad never aliases a
                # live grad buffer.
                self._grad = grad.astype(self.data.dtype)
            elif isinstance(self._grad, SparseRowGrad):
                self._grad = self._grad.merge(grad)
            else:
                grad.add_to_dense(self._grad)
            return
        if self._grad is None:
            # Copy: the incoming buffer may be reused by the producing op.
            if grad.dtype == self.data.dtype:
                self._grad = grad.copy()
            else:
                self._grad = grad.astype(self.data.dtype)
        elif isinstance(self._grad, SparseRowGrad):
            dense = self._grad.to_dense(dtype=self.data.dtype)
            dense += grad
            self._grad = dense
        else:
            self._grad += grad

    # -- autodiff ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (so ``loss.backward()`` on a scalar yields
        d loss/d θ in every reachable parameter's ``.grad``).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative DFS: graphs can exceed Python's recursion limit
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node._grad is not None:
                # Interior nodes hold dense grads (only leaf tables receive
                # sparse ones), so the closures always see an ndarray.
                node._backward(node.grad)
                # Interior activations are single-use; free their grad buffers
                # eagerly so large models do not hold every activation grad.
                if not isinstance(node, Parameter) and node is not self:
                    node._grad = None

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a view of the same data cut out of the autograd graph."""
        return Tensor(self.data)

    # -- conveniences ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # -- operator sugar (delegates to repro.nn.ops) ----------------------------

    def __add__(self, other: object) -> "Tensor":
        from repro.nn import ops

        return ops.add(self, ops.as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Tensor":
        from repro.nn import ops

        return ops.sub(self, ops.as_tensor(other))

    def __rsub__(self, other: object) -> "Tensor":
        from repro.nn import ops

        return ops.sub(ops.as_tensor(other), self)

    def __mul__(self, other: object) -> "Tensor":
        from repro.nn import ops

        return ops.mul(self, ops.as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Tensor":
        from repro.nn import ops

        return ops.div(self, ops.as_tensor(other))

    def __rtruediv__(self, other: object) -> "Tensor":
        from repro.nn import ops

        return ops.div(ops.as_tensor(other), self)

    def __neg__(self) -> "Tensor":
        from repro.nn import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.nn import ops

        return ops.pow(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.nn import ops

        return ops.matmul(self, other)

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.nn import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.nn import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.nn import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        from repro.nn import ops

        return ops.transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()


class Parameter(Tensor):
    """A trainable tensor.

    Parameters always require grad, are never freed during backprop, and are
    what :class:`repro.nn.layers.Module` collects for optimizers and
    serialization.
    """

    __slots__ = ("name",)

    def __init__(self, data: object, name: str = "", dtype: np.dtype | None = None) -> None:
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Parameter{label}(shape={self.data.shape}, dtype={self.data.dtype})"
