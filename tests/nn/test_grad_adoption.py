"""Interior nodes adopt their first gradient uncopied and never write it.

The reference is the engine that copied every incoming gradient
(``tests.helpers.copying_accumulate``): on every graph here both engines
give the same leaf gradients, byte for byte, and no backward changes an
array another node received.
"""

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.tensor import Parameter, Tensor
from tests.helpers import copying_accumulate


def _leaves(seed=0):
    rng = np.random.default_rng(seed)
    x = Parameter(rng.normal(size=(4, 3)).astype(np.float32), name="x")
    w = Parameter(rng.normal(size=(3, 5)).astype(np.float32), name="w")
    return x, w


def _diamond(x, w):
    """``out = relu(h) + tanh(h) + 3·relu(h)`` over ``h = x @ w``.

    The root's backward hands one array to ``s`` and ``u``; ``s`` hands it
    on to both ``a`` and ``b``; ``a`` then receives a second contribution
    from ``u``, and ``h`` one from each of ``a`` and ``b``.
    """
    h = ops.matmul(x, w)
    a = ops.relu(h)
    b = ops.tanh(h)
    s = ops.add(a, b)
    u = ops.mul(a, Tensor(np.float32(3.0)))
    return ops.add(s, u)


def _recording_backwards(monkeypatch):
    """Record, for every backward call, the array it received and a copy of
    its bytes at that moment."""
    received = []
    make = Tensor._make

    def recording_make(data, parents, backward):
        def wrapped(g):
            received.append((g, g.tobytes()))
            backward(g)

        return make(data, parents, wrapped)

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    return received


def _grads(engine_patch, monkeypatch, passes=1, record=False):
    x, w = _leaves()
    with monkeypatch.context() as patch:
        if engine_patch:
            patch.setattr(Tensor, "_accumulate", copying_accumulate)
        received = _recording_backwards(patch) if record else []
        out = _diamond(x, w)
        seed = np.random.default_rng(1).normal(size=out.shape).astype(np.float32)
        before = seed.copy()
        for _ in range(passes):
            out.backward(seed)
    assert seed.tobytes() == before.tobytes(), "backward wrote into the caller's seed"
    return x.grad, w.grad, out.grad, received


@pytest.mark.parametrize("passes", [1, 2], ids=["once", "repeated"])
def test_diamond_matches_the_copying_engine(passes, monkeypatch):
    got = _grads(False, monkeypatch, passes)
    want = _grads(True, monkeypatch, passes)
    for name, g, r in zip(("x", "w", "root"), got[:3], want[:3]):
        assert g.tobytes() == r.tobytes(), name


def test_no_backward_changes_a_gradient_another_node_received(monkeypatch):
    *_, received = _grads(False, monkeypatch, passes=2, record=True)
    assert len(received) == 2 * 6  # six interior nodes, two passes
    for g, snapshot in received:
        assert g.tobytes() == snapshot


def test_adopted_gradient_is_shared_not_copied(monkeypatch):
    # The add node hands its own gradient to both inputs: each adopts the
    # same array, and a later contribution makes a fresh sum rather than
    # adding into it.
    a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    left, right = ops.mul(a, a), ops.mul(b, b)
    total = ops.add(left, right)
    total.backward(np.full((2, 2), 2.0, np.float32))
    assert a.grad.tolist() == [[4.0, 4.0], [4.0, 4.0]]

    g = np.ones((2, 2), np.float32)
    node = ops.mul(a, a)
    node._accumulate(g)
    assert node.raw_grad is g
    node._accumulate(np.ones((2, 2), np.float32))
    assert node.raw_grad is not g and g.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_a_leaf_owns_its_gradient():
    # Clipping and the optimizers scale a leaf's gradient in place, so a
    # leaf copies what it receives.
    p = Parameter(np.zeros((2, 2), np.float32))
    g = np.ones((2, 2), np.float32)
    p._accumulate(g)
    p.raw_grad[...] *= 0.5
    assert g.tolist() == [[1.0, 1.0], [1.0, 1.0]]
