"""The fused MEmCom node against the graph it replaced.

``ops.memcom_lookup`` gathers ``U[i mod m]``, ``V[i]`` and ``W[i]`` in one
node and emits all three gradients already coalesced.  The reference here is
the old graph — ``muladd`` (``mul`` without bias) over three
``embedding_lookup``\\ s, coalesced by ``SparseRowGrad.coalesce`` — and every
comparison is on bits: forward values and each table's ``(rows, values)``
viewed as ``uint32``.
"""

import numpy as np
import pytest

from repro.core.memcom import MEmComEmbedding
from repro.models import classifier, pointwise, ranknet
from repro.models.builder import build_classifier, build_pointwise_ranker, build_ranknet
from repro.nn import ops
from repro.nn.layers import AveragePooling1D, Flatten
from repro.nn.losses import ranknet_loss, softmax_cross_entropy
from repro.nn.optim import Adam, clip_global_norm, global_grad_norm
from repro.nn.sparse_grad import SparseRowGrad, sparse_grads
from repro.nn.tensor import Tensor
from tests.helpers import LoopAdam, check_gradients, copying_accumulate, loop_clip

V, M, E = 40, 8, 4


def reference_forward(emb, indices):
    """The unfused MEmCom graph: three lookups, then ``muladd`` / ``mul``."""
    indices = emb._check_indices(indices)
    x_rem = ops.embedding_lookup(emb.shared, indices % emb.num_hash_embeddings)
    x_mult = ops.embedding_lookup(emb.multiplier, indices)
    if emb.bias_table is None:
        return ops.mul(x_rem, x_mult)
    return ops.muladd(x_rem, x_mult, ops.embedding_lookup(emb.bias_table, indices))


def _embedding(bias, seed=0):
    emb = MEmComEmbedding(V, E, M, bias=bias, multiplier_init="uniform", rng=seed)
    if bias:
        emb.bias_table.data[:] = np.random.default_rng(seed + 1).normal(size=(V, 1))
    return emb


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def _assert_same_grads(fused, reference):
    for (name, p), q in zip(fused.named_parameters(), reference.parameters()):
        got, want = p.raw_grad, q.sparse_grad
        assert isinstance(got, SparseRowGrad) and got.coalesced, name
        assert got.rows.dtype == want.rows.dtype, name
        np.testing.assert_array_equal(_bits(got.rows), _bits(want.rows), err_msg=name)
        np.testing.assert_array_equal(_bits(got.values), _bits(want.values), err_msg=name)


CASES = {
    "2d_duplicates": lambda rng: rng.integers(0, V, size=(6, 9)),
    "1d_bare": lambda rng: rng.integers(0, V, size=7),
    "all_same": lambda rng: np.full((4, 5), 13),
    "duplicate_free": lambda rng: rng.permutation(V)[:12].reshape(3, 4),
    "shared_rows_duplicate_free": lambda rng: np.array([[0, 1, 2], [3, 4, 5]]),
    "empty": lambda rng: np.zeros((0, 5), dtype=np.int64),
    "uint64": lambda rng: rng.integers(0, V, size=(5, 6)).astype(np.uint64),
    "3d": lambda rng: rng.integers(0, V, size=(2, 3, 4)),
    "extremes": lambda rng: np.array([[0, V - 1, 0], [V - 1, V - 1, 0]]),
}


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_node_matches_unfused_graph_bit_for_bit(case, bias):
    rng = np.random.default_rng(7)
    ids = CASES[case](rng)
    fused, reference = _embedding(bias), _embedding(bias)
    out = fused(ids)
    ref = reference_forward(reference, ids)
    assert out.data.shape == ids.shape + (E,)
    np.testing.assert_array_equal(_bits(out.data), _bits(ref.data))

    seed = rng.normal(size=out.data.shape).astype(np.float32)
    out.backward(seed)
    ref.backward(seed)
    _assert_same_grads(fused, reference)


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
def test_gradients_match_finite_differences(bias):
    emb = MEmComEmbedding(12, 3, 5, bias=bias, multiplier_init="uniform", rng=0)
    ids = np.array([[0, 5, 5, 11], [3, 10, 0, 6]])
    check_gradients(lambda: ops.sum(ops.mul(emb(ids), emb(ids))), emb.parameters())


def test_out_of_range_ids_still_raise():
    emb = _embedding(True)
    for bad in ([[0, V]], [[-1, 2]]):
        with pytest.raises(IndexError):
            emb(np.array(bad))


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
def test_dense_baseline_matches_densified_sparse(bias):
    rng = np.random.default_rng(3)
    ids = rng.integers(0, V, size=(6, 9))
    seed = rng.normal(size=ids.shape + (E,)).astype(np.float32)

    def grads(sparse):
        emb = _embedding(bias)
        with sparse_grads(sparse):
            emb(ids).backward(seed)
        raw = [p.raw_grad for p in emb.parameters()]
        assert all(isinstance(g, SparseRowGrad) is sparse for g in raw)
        return [p.grad for p in emb.parameters()]  # densifies the sparse ones

    for sparse, dense in zip(grads(True), grads(False)):
        np.testing.assert_allclose(dense, sparse, rtol=1e-6, atol=1e-7)


def _ranker(technique):
    return build_pointwise_ranker(
        technique, V, 6, input_length=5, embedding_dim=E, rng=11, num_hash_embeddings=M
    )


@pytest.mark.parametrize("technique", ["memcom", "memcom_nobias"])
def test_adam_with_clipping_is_bit_identical_to_unfused_graph(technique):
    """20 clipped Adam steps of a pointwise ranker: weights and optimizer
    slots equal, byte for byte, a twin trained through the old graph."""
    rng = np.random.default_rng(5)
    batches = [
        (rng.integers(0, V, size=(16, 5)), rng.integers(0, 6, size=16)) for _ in range(20)
    ]

    def train(fused):
        model = _ranker(technique)
        if not fused:
            emb = model.embedding
            emb.forward = lambda ids: reference_forward(emb, ids)
        model.train()
        opt = Adam(model.parameters(), lr=0.05)
        norms = []
        for x, y in batches:
            opt.zero_grad()
            softmax_cross_entropy(model(x), y).backward()
            norms.append(clip_global_norm(opt.params, 1.0))
            opt.step()
        return model.state_dict(), opt.state_dict(), norms

    got, want = train(True), train(False)
    assert got[2] == want[2]
    assert max(got[2]) > 1.0, "the clip never engaged"
    for a, b in zip(got[:2], want[:2]):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key


BUILDERS = {"classifier": build_classifier, "pointwise": build_pointwise_ranker,
            "ranknet": build_ranknet}


def _pool_then_flatten(h, length):
    """The models' pooling before one mean node: AveragePooling1D, Flatten."""
    return Flatten()(AveragePooling1D(length)(h)) if h.ndim == 3 else h


HYPER = {"memcom": {"num_hash_embeddings": M}, "memcom_nobias": {"num_hash_embeddings": M},
         "full": {}, "factorized": {"hidden_dim": 8}}


@pytest.mark.parametrize("e", [1, 32])
@pytest.mark.parametrize("technique", sorted(HYPER))
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_training_step_is_bit_identical_to_the_copying_engine(kind, technique, e, monkeypatch):
    """20 clipped Adam steps of each model: weights, optimizer state and clip
    norms equal, byte for byte, a twin trained by the step this one
    replaced — AveragePooling1D + Flatten, the unfused MEmCom graph, every
    gradient copied on arrival, and Adam and the clip one parameter at a
    time.  ``factorized`` multiplies the pool's broadcast gradient by a
    matrix, which BLAS sums in a layout-dependent order."""
    length = 5
    rng = np.random.default_rng(5)
    batches = [
        tuple(rng.integers(0, hi, size=shape) for hi, shape in
              ((V, (16, length)), (6, 16), (6, 16)))
        for _ in range(20)
    ]
    def train(reference):
        model = BUILDERS[kind](
            technique, V, 6, input_length=length, embedding_dim=e, rng=11, **HYPER[technique]
        )
        optimizer, clip = Adam, clip_global_norm
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(Tensor, "_accumulate", copying_accumulate)
                for module in (classifier, pointwise, ranknet):
                    patch.setattr(module, "mean_pool", _pool_then_flatten)
                if technique.startswith("memcom"):
                    emb = model.embedding
                    emb.forward = lambda ids: reference_forward(emb, ids)
                optimizer, clip = LoopAdam, loop_clip
            model.train()
            opt = optimizer(model.parameters(), lr=0.05)
            norms = []
            for x, pos, neg in batches:
                opt.zero_grad()
                if kind == "ranknet":
                    loss = ranknet_loss(*model.score_pair(x, pos, neg))
                else:
                    loss = softmax_cross_entropy(model(x), pos)
                loss.backward()
                norms.append(clip(opt.params, 0.25))
                opt.step()
        return model.state_dict(), opt.state_dict(), norms

    got, want = train(False), train(True)
    assert got[2] == want[2]
    assert max(got[2]) > 0.25, "the clip never engaged"
    for a, b in zip(got[:2], want[:2]):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key


def test_clip_and_step_find_nothing_to_sort(monkeypatch):
    calls = []
    real_unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args[0].size)
        return real_unique(*args, **kwargs)

    def clip_and_step(fused):
        model = _ranker("memcom")
        if not fused:
            emb = model.embedding
            emb.forward = lambda ids: reference_forward(emb, ids)
        opt = Adam(model.parameters(), lr=0.01)
        x = np.random.default_rng(0).integers(0, V, size=(16, 5))
        softmax_cross_entropy(model(x), x[:, 0] % 6).backward()
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", spy)
            clip_global_norm(opt.params, 1.0)
            global_grad_norm(opt.params)
            opt.step()
        return len(calls)

    assert clip_and_step(fused=False) == 3  # the spy sees the old graph's sorts
    assert clip_and_step(fused=True) == 0
