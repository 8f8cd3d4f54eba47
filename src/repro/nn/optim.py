"""Optimizers: SGD (+momentum), Adam, Adagrad, RMSProp, and gradient clipping.

Adam with Keras-default hyperparameters is what the experiments use; DP-SGD
(for the Figure 5 privacy experiment) lives in :mod:`repro.train.dp` and
composes :func:`clip_global_norm` with Gaussian noise before calling any of
these optimizers.

Sparse fast path
----------------
Embedding lookups emit row-sparse gradients
(:class:`repro.nn.sparse_grad.SparseRowGrad`); every ``step()`` here has a
sparse branch that updates **only the touched rows**, so a step over a
``v``-row table costs O(batch) instead of O(v) — the TF 1.x
``IndexedSlices`` sparse-apply the paper trained on.  Each branch reads the
touched rows of the parameter and its slots once with ``np.take``, updates
them in place, and writes them back once; the rows of a coalesced gradient
are unique, so this is the same float math as ``p.data[rows] -= update``
without its second gather.  Semantics (DESIGN.md §5):

* **SGD (no momentum, no weight decay)** and **Adagrad** are *exactly*
  equivalent to the dense update: untouched rows receive a zero gradient,
  and zero gradient means zero dense update for both.
* **SGD with momentum / weight decay**, **Adam**, and **RMSProp** apply
  *lazy* updates: first/second-moment decay (and the decoupled weight-decay
  term) are applied only on touched rows, when they are touched.  Untouched
  rows keep stale state and do not drift — this is ``tf.contrib.opt.
  LazyAdamOptimizer`` / Keras sparse-apply behaviour, and deviates from
  dense Adam, which keeps moving every row on momentum alone.  Tests bound
  the deviation (``tests/nn/test_optim_sparse.py``).

:func:`global_grad_norm` and :func:`clip_global_norm` consume sparse grads
without densifying (the norm is over coalesced rows; clipping scales the
value rows in place).
"""

from __future__ import annotations

import numpy as np

from repro.nn.sparse_grad import SparseRowGrad
from repro.nn.tensor import Parameter

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "Adagrad",
    "RMSProp",
    "clip_global_norm",
    "global_grad_norm",
]


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        params = list(params)
        if not params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = lr
        #: cumulative count of parameter rows the applied gradients touched —
        #: a sparse batch advances this by its distinct embedding rows, a
        #: dense gradient by the parameter's full first dimension.  Row-aware
        #: warmup schedules (:class:`repro.nn.schedulers.RowWarmup`) read
        #: this clock instead of counting steps.
        self.rows_applied = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Advance the row clock, then apply the subclass update."""
        self.rows_applied += self._grad_rows()
        self._apply_step()

    def _apply_step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _grad_rows(self) -> int:
        """Rows the pending gradients touch (first-axis convention).

        Sparse grads count their distinct (coalesced) rows; a dense gradient
        touches every row of its parameter — for a non-embedding parameter
        (a tower weight matrix, a bias vector) that is its full first
        dimension, which keeps the clock identical to a step counter scaled
        by total rows when training is fully dense.
        """
        rows = 0
        for p in self.params:
            if p.raw_grad is None:
                continue
            sg = p.sparse_grad
            if sg is not None:
                rows += sg.nnz_rows
            else:
                rows += int(p.data.shape[0]) if p.data.ndim else 1
        return rows

    # -- state (for resumable training checkpoints) ---------------------------

    def state_slots(self) -> dict[str, list[np.ndarray] | None]:
        """Named per-parameter slot lists (``None`` = slot unused).

        Subclasses expose their moment/velocity/accumulator arrays here;
        the base optimizer keeps no per-parameter state.
        """
        return {}

    def state_scalars(self) -> dict[str, float | int]:
        """Scalar state (step counters) serialized alongside the slots.

        ``lr`` is included so a schedule-mutated rate survives a resume;
        ``rows_applied`` keeps the row-warmup clock continuous.
        """
        return {"lr": float(self.lr), "rows_applied": int(self.rows_applied)}

    def load_state_scalars(self, scalars: dict) -> None:
        self.lr = float(scalars["lr"])
        # Checkpoints from before the row clock existed carry no counter;
        # resuming them starts the clock at zero rather than failing.
        self.rows_applied = int(scalars.get("rows_applied", 0))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Slot arrays keyed ``<slot>.<param index>`` — the layout a
        checkpoint stores and :meth:`load_state_dict` restores exactly."""
        out: dict[str, np.ndarray] = {}
        for slot, arrays in self.state_slots().items():
            if arrays is None:
                continue
            for i, a in enumerate(arrays):
                out[f"{slot}.{i}"] = a.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Adopt slot arrays saved by :meth:`state_dict`.

        The optimizer must have been constructed over the same parameter
        list (same order, same shapes); mismatches raise ``KeyError`` /
        ``ValueError`` rather than silently training with fresh slots.
        """
        slots = {k: v for k, v in self.state_slots().items() if v is not None}
        expected = {f"{slot}.{i}" for slot, arrays in slots.items() for i in range(len(arrays))}
        missing = expected - state.keys()
        unexpected = state.keys() - expected
        if missing or unexpected:
            raise KeyError(
                f"optimizer state mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for slot, arrays in slots.items():
            for i, a in enumerate(arrays):
                value = np.asarray(state[f"{slot}.{i}"])
                if value.shape != a.shape:
                    raise ValueError(
                        f"optimizer slot {slot}.{i}: shape {value.shape} != "
                        f"expected {a.shape}"
                    )
                a[...] = value.astype(a.dtype)


class SGD(Optimizer):
    """SGD with optional momentum, Nesterov lookahead and weight decay.

    The sparse branch is exact for plain SGD; with momentum or weight decay
    it is *lazy* (velocity decay / decay term only on touched rows).
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def state_slots(self) -> dict[str, list[np.ndarray] | None]:
        return {"velocity": self._velocity}

    def _apply_step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.raw_grad is None:
                continue
            sg = p.sparse_grad
            if sg is not None:
                self._step_sparse(p, v, sg)
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v -= self.lr * g
                if self.nesterov:
                    p.data += self.momentum * v - self.lr * g
                else:
                    p.data += v
            else:
                p.data -= self.lr * g

    def _step_sparse(self, p: Parameter, v: np.ndarray, sg: SparseRowGrad) -> None:
        rows, g = sg.rows, sg.values
        if rows.size == 0:
            return
        p_rows = np.take(p.data, rows, axis=0)
        if self.weight_decay:
            g = g + self.weight_decay * p_rows
        if self.momentum:
            # Lazy momentum: rows not in the batch keep a frozen velocity.
            v_rows = self.momentum * np.take(v, rows, axis=0) - self.lr * g
            v[rows] = v_rows
            if self.nesterov:
                p_rows += self.momentum * v_rows - self.lr * g
            else:
                p_rows += v_rows
        else:
            p_rows -= self.lr * g
        p.data[rows] = p_rows


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction; Keras-default eps.

    Sparse grads get the **lazy Adam** update: moments decay and the row
    moves only when the row appears in a batch, with the bias correction of
    the current global step.  Dense Adam instead updates every row each step
    (momentum keeps rows moving after their last occurrence); DESIGN.md §5
    documents and tests bound the divergence.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-7,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def state_slots(self) -> dict[str, list[np.ndarray] | None]:
        return {"m": self._m, "v": self._v}

    def state_scalars(self) -> dict[str, float | int]:
        return {**super().state_scalars(), "t": int(self._t)}

    def load_state_scalars(self, scalars: dict) -> None:
        super().load_state_scalars(scalars)
        self._t = int(scalars["t"])

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
                self._step_sparse(p, m, v, sg, bias1, bias2)
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

    def _step_sparse(
        self,
        p: Parameter,
        m: np.ndarray,
        v: np.ndarray,
        sg: SparseRowGrad,
        bias1: float,
        bias2: float,
    ) -> None:
        rows, g = sg.rows, sg.values
        if rows.size == 0:
            return
        p_rows = np.take(p.data, rows, axis=0)
        if self.weight_decay:
            g = g + self.weight_decay * p_rows
        m_rows = np.take(m, rows, axis=0)
        m_rows *= self.beta1
        m_rows += (1.0 - self.beta1) * g
        v_rows = np.take(v, rows, axis=0)
        v_rows *= self.beta2
        v_rows += (1.0 - self.beta2) * (g * g)
        m[rows] = m_rows
        v[rows] = v_rows
        update = np.sqrt(v_rows / bias2)
        update += self.eps
        np.divide(m_rows, update, out=update)
        update *= self.lr / bias1
        p_rows -= update
        p.data[rows] = p_rows


class Adagrad(Optimizer):
    """Adagrad — per-coordinate adaptive rates; effective for sparse
    embedding gradients where rare ids need larger steps.

    The sparse branch is *exactly* the dense update: an untouched row has a
    zero gradient, which leaves both the accumulator and the weights alone.
    """

    def __init__(self, params: list[Parameter], lr: float = 0.01, eps: float = 1e-10) -> None:
        super().__init__(params, lr)
        self.eps = eps
        self._acc = [np.zeros_like(p.data) for p in self.params]

    def state_slots(self) -> dict[str, list[np.ndarray] | None]:
        return {"acc": self._acc}

    def _apply_step(self) -> None:
        for p, acc in zip(self.params, self._acc):
            if p.raw_grad is None:
                continue
            sg = p.sparse_grad
            if sg is not None:
                self._step_sparse(p, acc, sg)
                continue
            acc += p.grad * p.grad
            p.data -= self.lr * p.grad / (np.sqrt(acc) + self.eps)

    def _step_sparse(self, p: Parameter, acc: np.ndarray, sg: SparseRowGrad) -> None:
        rows, g = sg.rows, sg.values
        if rows.size == 0:
            return
        acc_rows = np.take(acc, rows, axis=0) + g * g
        acc[rows] = acc_rows
        p_rows = np.take(p.data, rows, axis=0)
        p_rows -= self.lr * g / (np.sqrt(acc_rows) + self.eps)
        p.data[rows] = p_rows


class RMSProp(Optimizer):
    """RMSProp (Hinton) — exponentially decayed squared-gradient scaling,
    with optional momentum on the scaled update (TensorFlow semantics).

    Sparse grads get a lazy update (squared-average decay and momentum only
    on touched rows), mirroring TF's sparse apply for RMSProp.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        rho: float = 0.9,
        momentum: float = 0.0,
        eps: float = 1e-7,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.rho = rho
        self.momentum = momentum
        self.eps = eps
        self._sq = [np.zeros_like(p.data) for p in self.params]
        self._vel = [np.zeros_like(p.data) for p in self.params] if momentum else None

    def state_slots(self) -> dict[str, list[np.ndarray] | None]:
        return {"sq": self._sq, "vel": self._vel}

    def _apply_step(self) -> None:
        for i, (p, sq) in enumerate(zip(self.params, self._sq)):
            if p.raw_grad is None:
                continue
            sg = p.sparse_grad
            if sg is not None:
                self._step_sparse(p, sq, self._vel[i] if self._vel is not None else None, sg)
                continue
            sq *= self.rho
            sq += (1.0 - self.rho) * (p.grad * p.grad)
            update = self.lr * p.grad / (np.sqrt(sq) + self.eps)
            if self._vel is not None:
                vel = self._vel[i]
                vel *= self.momentum
                vel += update
                update = vel
            p.data -= update

    def _step_sparse(
        self, p: Parameter, sq: np.ndarray, vel: np.ndarray | None, sg: SparseRowGrad
    ) -> None:
        rows, g = sg.rows, sg.values
        if rows.size == 0:
            return
        sq_rows = self.rho * np.take(sq, rows, axis=0) + (1.0 - self.rho) * (g * g)
        sq[rows] = sq_rows
        update = self.lr * g / (np.sqrt(sq_rows) + self.eps)
        if vel is not None:
            vel_rows = self.momentum * np.take(vel, rows, axis=0) + update
            vel[rows] = vel_rows
            update = vel_rows
        p_rows = np.take(p.data, rows, axis=0)
        p_rows -= update
        p.data[rows] = p_rows


def global_grad_norm(params: list[Parameter]) -> float:
    """L2 norm of the concatenated gradients of ``params`` (None = zero).

    Sparse grads contribute the norm of their coalesced rows — identical to
    the dense norm, since untouched rows are exactly zero — without ever
    materializing the table-shaped gradient.
    """
    total = 0.0
    for p in params:
        g = p.raw_grad
        if g is None:
            continue
        if isinstance(g, SparseRowGrad):
            # sparse_grad coalesces and caches back, so the optimizer step
            # that follows a clip does not re-coalesce.
            total += p.sparse_grad.sq_norm()
        else:
            total += float(np.sum(g.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  This is the constant-l2-clip the paper's
    DP setup uses (Appendix A.3).  Sparse grads are scaled in place on their
    value rows (scaling is linear, so coalescing order does not matter).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            g = p.raw_grad
            if g is None:
                continue
            if isinstance(g, SparseRowGrad):
                g.scale_(scale)
            else:
                g *= scale
    return norm
