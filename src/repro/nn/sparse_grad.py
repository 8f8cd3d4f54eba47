"""Sparse row gradients for embedding tables (IndexedSlices semantics).

The paper trains on TF 1.12, where ``tf.gather`` emits an ``IndexedSlices``
gradient — (indices, values) pairs naming only the table rows a batch
actually read — and the optimizer's sparse apply touches only those rows.
:class:`SparseRowGrad` is that representation for our NumPy substrate: the
backward pass of :func:`repro.nn.ops.embedding_lookup` emits one, Tensors
hold and merge them (see :meth:`repro.nn.tensor.Tensor._accumulate`), and
every optimizer in :mod:`repro.nn.optim` applies them with per-row fancy
indexing instead of dense whole-table math.  A 1M-row table trained with a
128-row batch then costs O(batch) per step instead of O(vocab).

Semantics (see DESIGN.md §5):

* ``rows`` may contain duplicates until :meth:`coalesce` — an id looked up
  k times in a batch contributes k value rows that sum on coalescing,
  exactly matching the dense scatter-add.
* Coalesce once per batch of ids.  A producer that already knows the
  sorted unique rows emits its gradient coalesced through
  :meth:`SparseRowGrad.summed`, the kernel :meth:`coalesce` ends in, so the
  sums are the same floats in the same order.  MEmCom's fused node
  (:func:`repro.nn.ops.memcom_lookup`) sorts a batch's ids once for all
  three of its tables, and norm clipping and the optimizer step then find
  nothing left to sort.
* ``Tensor.grad`` densifies lazily, so any consumer that asks for a plain
  ndarray (DP noise injection, tests, serialization) still gets one.
* Optimizers with per-step decay (Adam, RMSProp, momentum-SGD) apply
  **lazy** updates on the sparse path: state decay happens only on touched
  rows.  SGD (no momentum/weight-decay) and Adagrad are exactly equivalent
  to their dense updates.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np
from scipy import sparse as _sparse

__all__ = ["SparseRowGrad", "onehot_rowsum", "sparse_grads", "sparse_grads_enabled"]

_SPARSE_GRADS_ENABLED = True


def onehot_rowsum(col_ids: np.ndarray, values: np.ndarray, num_cols: int) -> np.ndarray:
    """``out[c] = Σ values[col_ids == c]`` via a sparse one-hot matmul.

    The shared scatter-add kernel of the embedding backward: ~20× faster
    than ``np.add.at`` on batch-sized inputs.  Used both to densify a
    lookup gradient over a whole table and to coalesce duplicate rows onto
    a compact id range.  The ``(num_cols, k)`` transposed one-hot is built
    directly in CSC form, so scipy's ``csc_matvecs`` adds the value rows
    into each output row in lookup order.
    """
    k = col_ids.size
    # scipy checks int64 index arrays and downcasts them on every build;
    # handing it int32 ones where they fit skips that.
    index = np.int32 if max(k, num_cols) < 2**31 else np.int64
    onehot_t = _sparse.csc_matrix(
        (np.ones(k, dtype=values.dtype), col_ids.astype(index), np.arange(k + 1, dtype=index)),
        shape=(num_cols, k),
    )
    return np.asarray(onehot_t @ values)


def sparse_grads_enabled() -> bool:
    """Whether embedding backward emits :class:`SparseRowGrad`."""
    return _SPARSE_GRADS_ENABLED


@contextlib.contextmanager
def sparse_grads(enabled: bool) -> Iterator[None]:
    """Toggle the sparse embedding-gradient path (for benchmarks/tests).

    ``sparse_grads(False)`` restores the dense scatter-add baseline in which
    ``embedding_lookup`` backward materializes a full ``(v, e)`` gradient.
    """
    global _SPARSE_GRADS_ENABLED
    prev = _SPARSE_GRADS_ENABLED
    _SPARSE_GRADS_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _SPARSE_GRADS_ENABLED = prev


class SparseRowGrad:
    """Row-sparse gradient of a 2-D table: ``dense[rows[i]] += values[i]``.

    Parameters
    ----------
    rows:
        ``(k,)`` integer row ids, duplicates allowed (coalescing sums them).
    values:
        ``(k, e)`` per-lookup gradient rows.
    shape:
        Full table shape ``(v, e)`` — what :meth:`to_dense` materializes and
        what shape checks in the autograd engine compare against.
    coalesced:
        ``True`` asserts ``rows`` is sorted and duplicate-free (trusted, not
        re-verified; :meth:`coalesce` sets it).
    """

    __slots__ = ("rows", "values", "shape", "coalesced")

    def __init__(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, ...],
        coalesced: bool = False,
    ) -> None:
        rows = np.asarray(rows)
        values = np.asarray(values)
        if rows.ndim != 1:
            raise ValueError(f"rows must be 1-D, got shape {rows.shape}")
        if rows.dtype.kind not in "iu":
            raise TypeError(f"rows must be integers, got {rows.dtype}")
        if len(shape) != 2:
            raise ValueError(f"SparseRowGrad targets 2-D tables, got shape {shape}")
        if values.shape != (rows.size, shape[1]):
            raise ValueError(
                f"values shape {values.shape} != (rows {rows.size}, cols {shape[1]})"
            )
        self.rows = rows
        self.values = values
        self.shape = tuple(int(s) for s in shape)
        self.coalesced = bool(coalesced)

    # -- properties ----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nnz_rows(self) -> int:
        """Distinct touched rows (cheap when coalesced)."""
        if self.coalesced:
            return self.rows.size
        return int(np.unique(self.rows).size)

    # -- transformations -----------------------------------------------------

    def copy(self) -> "SparseRowGrad":
        """Deep copy — owns its buffers (the producing op may reuse its)."""
        return SparseRowGrad(
            self.rows.copy(), self.values.copy(), self.shape, self.coalesced
        )

    def astype(self, dtype: np.dtype) -> "SparseRowGrad":
        if self.values.dtype == dtype:
            return self
        return SparseRowGrad(self.rows, self.values.astype(dtype), self.shape, self.coalesced)

    @classmethod
    def summed(
        cls,
        rows: np.ndarray,
        inverse: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, ...],
    ) -> "SparseRowGrad":
        """The coalesced grad of per-lookup ``values`` landing on ``rows[inverse]``.

        ``rows`` is sorted and duplicate-free (``np.unique``'s output) and
        ``inverse`` (1-D, one entry per value row) maps each value row onto
        it.  Duplicates sum in lookup order; a duplicate-free batch is only
        permuted.  :meth:`coalesce` and the fused MEmCom lookup
        (:func:`repro.nn.ops.memcom_lookup`, which derives every table's
        rows from one ``np.unique``) both end here.
        """
        if rows.size == inverse.size:
            # Duplicate-free: scatter each value row to its sorted position.
            ordered = np.empty_like(values)
            ordered[inverse] = values
            return cls(rows, ordered, shape, True)
        if values.shape[1] == 1:
            # Per-entity scalar tables (MEmCom multiplier/bias, QR-style
            # columns): one weighted bincount beats any 2-D reduction.
            summed = np.bincount(
                inverse, weights=values[:, 0], minlength=rows.size
            ).astype(values.dtype)[:, None]
            return cls(rows, summed, shape, True)
        # Sum duplicate rows onto the compact unique-id range — ~3× faster
        # than np.add.reduceat over sorted values.
        return cls(rows, onehot_rowsum(inverse, values, rows.size), shape, True)

    def coalesce(self) -> "SparseRowGrad":
        """Sum duplicate rows; result has sorted, unique ``rows``.

        This is the point where "id looked up k times accumulates k gradient
        contributions" becomes a single summed row — the same contraction the
        dense scatter-add performs implicitly.
        """
        if self.coalesced:
            return self
        if self.rows.size == 0:
            return SparseRowGrad(self.rows, self.values, self.shape, True)
        unique_rows, inverse = np.unique(self.rows, return_inverse=True)
        return SparseRowGrad.summed(unique_rows, inverse.ravel(), self.values, self.shape)

    def merge(self, other: "SparseRowGrad") -> "SparseRowGrad":
        """Concatenate two sparse grads of the same table (sum semantics)."""
        if other.shape != self.shape:
            raise ValueError(f"cannot merge shapes {self.shape} and {other.shape}")
        values = other.values
        if values.dtype != self.values.dtype:
            values = values.astype(self.values.dtype)
        return SparseRowGrad(
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.values, values]),
            self.shape,
        )

    # -- consumption ---------------------------------------------------------

    def to_dense(self, dtype: np.dtype | None = None) -> np.ndarray:
        """Materialize the full ``(v, e)`` gradient (scatter-add)."""
        out = np.zeros(self.shape, dtype=dtype or self.values.dtype)
        self.add_to_dense(out)
        return out

    def add_to_dense(self, dense: np.ndarray) -> None:
        """Scatter-add into an existing dense array in place."""
        if dense.shape != self.shape:
            raise ValueError(f"dense shape {dense.shape} != sparse shape {self.shape}")
        g = self.coalesce()
        # Coalesced rows are unique, so plain fancy-index += is exact.
        dense[g.rows] += g.values

    def scale_(self, factor: float) -> None:
        """In-place multiply (gradient clipping); linear, so coalescing-order
        independent."""
        self.values *= factor

    def sq_norm(self) -> float:
        """Sum of squares of the *coalesced* gradient (float64).

        Coalescing first is load-bearing: duplicates must sum before
        squaring or the norm of a batch with repeated ids is wrong.
        """
        g = self.coalesce()
        return float(np.sum(g.values.astype(np.float64) ** 2))

    def __repr__(self) -> str:
        tag = ", coalesced" if self.coalesced else ""
        return (
            f"SparseRowGrad(rows={self.rows.size}, shape={self.shape}, "
            f"dtype={self.values.dtype}{tag})"
        )
