"""Differential fuzz: sparse row-gradient path vs dense baseline.

A seeded randomized sweep over every optimizer family × index-pattern ×
clipping combination, driving the *real* pipeline (lookup → backward →
[clip] → step) twice — sparse (``IndexedSlices`` semantics) and dense
scatter-add — and asserting agreement to the documented lazy-semantics
tolerances of DESIGN.md §5:

* **exact** optimizers (plain SGD, Adagrad): the trajectories must agree to
  float tolerance for *every* generated schedule.
* **lazy** optimizers (Adam, RMSProp, momentum/Nesterov/weight-decay SGD):
  exact agreement when every row is touched every step; otherwise untouched
  rows must stay frozen and touched rows must stay within the documented
  momentum-amplified drift bound of the dense trajectory.

The hand-picked cases live in ``test_optim_sparse.py``; this sweep exists
to hit the combinations nobody thought to hand-pick (duplicate-heavy
batches, empty batches interleaved with full sweeps, clip kicking in on
some steps only).  It drives two producers of sparse gradients: a bare
``embedding_lookup`` and MEmCom's fused node, which emits its three tables'
gradients already coalesced.
"""

import numpy as np
import pytest

from repro.core.memcom import MEmComEmbedding
from repro.nn import ops
from repro.nn.optim import SGD, Adagrad, Adam, RMSProp, clip_global_norm
from repro.nn.sparse_grad import sparse_grads
from repro.nn.tensor import Parameter

V, E = 17, 4
M = 5  # MEmCom's shared rows: ids collide on id mod M
SEEDS = [0, 1, 2, 3, 4]

# All 4 optimizer families; the sparse equivalence class is part of the
# contract being fuzzed (DESIGN.md §5).
OPTIMIZERS = {
    "sgd": (lambda params: SGD(params, lr=0.08), "exact"),
    "adagrad": (lambda params: Adagrad(params, lr=0.08), "exact"),
    "sgd_momentum": (lambda params: SGD(params, lr=0.04, momentum=0.9), "lazy"),
    "sgd_nesterov": (
        lambda params: SGD(params, lr=0.04, momentum=0.9, nesterov=True),
        "lazy",
    ),
    "sgd_weight_decay": (lambda params: SGD(params, lr=0.04, weight_decay=0.02), "lazy"),
    "adam": (lambda params: Adam(params, lr=0.04), "lazy"),
    "adam_weight_decay": (lambda params: Adam(params, lr=0.04, weight_decay=0.02), "lazy"),
    "rmsprop": (lambda params: RMSProp(params, lr=0.04), "lazy"),
    "rmsprop_momentum": (lambda params: RMSProp(params, lr=0.04, momentum=0.9), "lazy"),
}

#: max |sparse − dense| per step for lazy optimizers: one momentum-amplified
#: full-lr displacement per step (the DESIGN.md §5 drift bound).
LAZY_DRIFT_PER_STEP = 0.04 / (1.0 - 0.9)


def _batches(pattern: str, rng: np.random.Generator, steps: int = 12) -> list[np.ndarray]:
    """Randomized index schedules per pattern family."""
    out = []
    for step in range(steps):
        if pattern == "dup":
            # Duplicate-heavy: few distinct ids, many repeats, random sizes.
            distinct = rng.integers(1, 5)
            ids = rng.choice(V, size=distinct, replace=False)
            out.append(rng.choice(ids, size=rng.integers(distinct, 2 * V)))
        elif pattern == "empty":
            # Sparse traffic with empty batches interleaved.
            if rng.random() < 0.4:
                out.append(np.empty(0, dtype=np.int64))
            else:
                out.append(rng.integers(0, V, size=rng.integers(1, 6)))
        elif pattern == "full":
            # Full coverage: a permutation of all rows every step (lazy ≡
            # dense here), with random duplicates stacked on top.
            extra = rng.integers(0, V, size=rng.integers(0, 5))
            out.append(np.concatenate([rng.permutation(V), extra]))
        else:  # pragma: no cover - unknown pattern is a test bug
            raise KeyError(pattern)
    return out


def _table():
    """One ``(V, E)`` table read by a bare lookup; ``(params, forward)``."""
    rng = np.random.default_rng(99)
    table = Parameter(rng.normal(0.0, 1.0, size=(V, E)).astype(np.float32))
    return [table], lambda idx: ops.embedding_lookup(table, idx)


def _memcom(bias):
    """A MEmCom layer's ``(params, forward)``: tables U, V and (bias) W."""
    emb = MEmComEmbedding(V, E, M, bias=bias, multiplier_init="uniform", rng=99)
    if bias:
        emb.bias_table.data[:] = np.random.default_rng(98).normal(0.0, 0.5, size=(V, 1))
    return emb.parameters(), emb


def _run(factory, build, batches, sparse, clip):
    params, forward = build()
    opt = factory(params)
    norms = []
    with sparse_grads(sparse):
        for idx in batches:
            idx = np.asarray(idx, dtype=np.int64)
            opt.zero_grad()
            out = forward(idx)
            # Size-normalized quadratic: d/dT[i] accumulates (2/n)·T[i] per
            # hit, so duplicate-heavy batches stay in the stable-lr regime
            # (unstable dynamics would amplify float noise, not semantics).
            loss = ops.mul(
                ops.sum(ops.mul(out, out)), ops.as_tensor(1.0 / max(1, idx.size))
            )
            loss.backward()
            if clip is not None:
                norms.append(clip_global_norm(params, clip))
            opt.step()
    return [p.data.copy() for p in params], norms


def _assert_contract(name, pattern, clip, seed, build, row_maps):
    """Run sparse and dense, then hold them to the optimizer's contract.

    ``row_maps`` maps the batch's ids to each parameter's touched rows.
    """
    factory, kind = OPTIMIZERS[name]
    rng = np.random.default_rng(seed)
    batches = _batches(pattern, rng)

    sparse, sparse_norms = _run(factory, build, batches, sparse=True, clip=clip)
    dense, dense_norms = _run(factory, build, batches, sparse=False, clip=clip)

    if kind == "exact" or pattern == "full":
        # Exact class, or lazy with every row touched every step: the sparse
        # branch performs the identical per-row float math, so trajectories
        # — and therefore every step's pre-clip gradient norm — agree.
        np.testing.assert_allclose(sparse_norms, dense_norms, rtol=1e-4)
        for s, d in zip(sparse, dense):
            np.testing.assert_allclose(s, d, rtol=2e-4, atol=2e-5)
        return
    # Lazy on partial coverage: trajectories (hence later gradients and
    # norms) legitimately diverge within the drift bound — only the frozen-
    # row and bounded-drift contracts apply.
    ids = np.concatenate([np.asarray(b, dtype=np.int64) for b in batches])
    init = [p.data for p in build()[0]]
    for s, d, start, rows_of in zip(sparse, dense, init, row_maps):
        # Untouched rows must be frozen ...
        untouched = np.setdiff1d(np.arange(len(start)), rows_of(ids))
        np.testing.assert_array_equal(s[untouched], start[untouched])
        # ... and touched rows bounded within the documented drift of dense.
        drift = np.max(np.abs(s - d))
        assert drift < len(batches) * LAZY_DRIFT_PER_STEP, (
            f"lazy drift {drift:.4f} exceeds documented bound for {name}/{pattern}"
        )


@pytest.mark.parametrize("clip", [None, 0.8], ids=["noclip", "clip"])
@pytest.mark.parametrize("pattern", ["dup", "empty", "full"])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_vs_dense(name, pattern, clip, seed):
    _assert_contract(name, pattern, clip, seed, _table, [lambda ids: ids])


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("clip", [None, 0.8], ids=["noclip", "clip"])
@pytest.mark.parametrize("pattern", ["dup", "empty", "full"])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_memcom_sparse_vs_dense(name, pattern, clip, seed, bias):
    """The same contract through MEmCom's fused node (V=17, m=5, e=4):
    U's touched rows are the ids mod m, V's and W's the ids."""
    row_maps = [lambda ids: ids % M] + [lambda ids: ids] * (2 if bias else 1)
    _assert_contract(name, pattern, clip, seed, lambda: _memcom(bias), row_maps)


@pytest.mark.parametrize("seed", SEEDS)
def test_gradients_identical_before_any_optimizer(seed):
    """The representations themselves agree: densified sparse grad ==
    dense scatter-add grad for random duplicate-heavy index tensors."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, V, size=(rng.integers(1, 6), rng.integers(1, 9)))

    def grad(sparse):
        table = Parameter(rng.normal(size=(V, E)).astype(np.float32))
        table.data[:] = np.arange(V * E, dtype=np.float32).reshape(V, E)
        with sparse_grads(sparse):
            lookup = ops.embedding_lookup(table, idx)
            ops.sum(ops.mul(lookup, ops.as_tensor(3.0))).backward()
        return table.grad  # densifies lazily on access

    np.testing.assert_allclose(grad(True), grad(False), rtol=1e-6, atol=1e-6)
