"""Optimizers: update rules, state, clipping."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adagrad, Adam, clip_global_norm, global_grad_norm
from repro.nn.sparse_grad import SparseRowGrad
from repro.nn.tensor import Parameter
from tests.helpers import LoopAdam


def _quadratic_params(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return Parameter(rng.standard_normal(n).astype(np.float64))


def _step_quadratic(opt, p, steps=200):
    for _ in range(steps):
        opt.zero_grad()
        p.grad = 2.0 * p.data  # d/dp ||p||^2
        opt.step()


class TestSGD:
    def test_vanilla_update_rule(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        np.testing.assert_allclose(p.data, [0.8])

    def test_converges_on_quadratic(self):
        p = _quadratic_params()
        _step_quadratic(SGD([p], lr=0.1), p)
        assert np.abs(p.data).max() < 1e-6

    def test_momentum_accelerates(self):
        p1, p2 = _quadratic_params(1), _quadratic_params(1)
        _step_quadratic(SGD([p1], lr=0.01), p1, steps=30)
        _step_quadratic(SGD([p2], lr=0.01, momentum=0.9), p2, steps=30)
        assert np.abs(p2.data).max() < np.abs(p1.data).max()

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)

    def test_none_grad_skipped(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: no movement
        np.testing.assert_allclose(p.data, [1.0])


class TestAdam:
    def test_first_step_size_is_lr(self):
        # with bias correction the first Adam step ≈ lr * sign(grad)
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-3)

    def test_converges_on_quadratic(self):
        p = _quadratic_params(2)
        _step_quadratic(Adam([p], lr=0.05), p, steps=400)
        assert np.abs(p.data).max() < 1e-3

    def test_state_grows_with_steps(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p])
        p.grad = np.ones(2)
        opt.step()
        assert opt._t == 1
        assert (opt._m[0] != 0).all()

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], beta1=1.0)


class TestAdamPackedSlots:
    """Dense slots are views of one flat buffer; the bits, the state_dict
    and the untouched parameters are those of a per-parameter loop."""

    SHAPES = [(3, 4), (5,), (6, 2), (2, 2)]  # index 2 takes sparse grads
    # Which parameters get a gradient at each step: packing changes when
    # the set of dense gradients does.
    SCHEDULE = [(0, 1, 2, 3), (0, 2, 3), (0, 1, 2, 3), (2, 3), (0, 1, 2, 3)]

    def _run(self, optimizer, weight_decay=0.0):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.normal(size=s).astype(np.float32)) for s in self.SHAPES]
        opt = optimizer(params, lr=0.1, weight_decay=weight_decay)
        grads = np.random.default_rng(1)
        trace = []
        for live in self.SCHEDULE:
            opt.zero_grad()
            for i in live:
                if i == 2:
                    rows = np.array([4, 1, 4])
                    values = grads.normal(size=(3, 2)).astype(np.float32)
                    params[i].grad = SparseRowGrad(rows, values, params[i].data.shape)
                else:
                    params[i].grad = grads.normal(size=self.SHAPES[i]).astype(np.float32)
            opt.step()
            trace.append(([p.data.copy() for p in params], opt.state_dict()))
        return trace

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_a_per_parameter_loop_bit_for_bit(self, weight_decay):
        got, want = self._run(Adam, weight_decay), self._run(LoopAdam, weight_decay)
        for (weights, state), (ref_weights, ref_state) in zip(got, want):
            assert [w.tobytes() for w in weights] == [w.tobytes() for w in ref_weights]
            assert state.keys() == ref_state.keys()
            for key in state:
                assert state[key].tobytes() == ref_state[key].tobytes(), key

    def test_a_parameter_without_a_gradient_is_untouched(self):
        trace = self._run(Adam)
        for step, live in enumerate(self.SCHEDULE[1:], start=1):
            (before, state_before), (after, state_after) = trace[step - 1], trace[step]
            for i in set(range(len(self.SHAPES))) - set(live):
                assert after[i].tobytes() == before[i].tobytes()
                for slot in "mv":
                    key = f"{slot}.{i}"
                    assert state_after[key].tobytes() == state_before[key].tobytes(), key

    def test_state_dict_keys_and_shapes_are_per_parameter(self):
        params = [Parameter(np.ones(s, np.float32)) for s in self.SHAPES]
        opt = Adam(params)
        before = {k: v.shape for k, v in opt.state_dict().items()}
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        after = {k: v.shape for k, v in opt.state_dict().items()}
        assert before == after
        assert after == {f"{slot}.{i}": s for slot in "mv" for i, s in enumerate(self.SHAPES)}

    def test_load_state_dict_reaches_the_packed_slots(self):
        def stepped(optimizer, state=None):
            params = [Parameter(np.ones(s, np.float32)) for s in self.SHAPES]
            opt = optimizer(params, lr=0.1)
            for p in params:
                p.grad = np.full_like(p.data, 0.5)
            opt.step()  # packs the dense slots
            if state is not None:
                opt.load_state_dict(state)
            for p in params:
                p.grad = np.full_like(p.data, -0.25)
            opt.step()
            return [p.data.tobytes() for p in params], opt.state_dict()

        _, saved = stepped(LoopAdam)
        saved = {k: v + 0.125 for k, v in saved.items()}
        got, want = stepped(Adam, saved), stepped(LoopAdam, saved)
        assert got[0] == want[0]
        assert {k: v.tobytes() for k, v in got[1].items()} == {
            k: v.tobytes() for k, v in want[1].items()
        }


class TestAdagrad:
    def test_per_coordinate_rates(self):
        p = Parameter(np.array([0.0, 0.0]))
        opt = Adagrad([p], lr=1.0)
        p.grad = np.array([10.0, 0.1])
        opt.step()
        # both coordinates move ~lr despite 100x gradient difference
        np.testing.assert_allclose(np.abs(p.data), [1.0, 1.0], rtol=1e-4)

    def test_converges_on_quadratic(self):
        p = _quadratic_params(3)
        _step_quadratic(Adagrad([p], lr=0.5), p, steps=400)
        assert np.abs(p.data).max() < 0.05


class TestOptimizerBase:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        p.grad = np.ones(2)
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None


class TestClipping:
    def test_global_norm_computation(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([0.0, 4.0])
        np.testing.assert_allclose(global_grad_norm([a, b]), 5.0)

    def test_clip_scales_down(self):
        a = Parameter(np.zeros(2))
        a.grad = np.array([3.0, 4.0])
        pre = clip_global_norm([a], 1.0)
        np.testing.assert_allclose(pre, 5.0)
        np.testing.assert_allclose(np.linalg.norm(a.grad), 1.0, rtol=1e-5)

    def test_clip_leaves_small_grads_alone(self):
        a = Parameter(np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        clip_global_norm([a], 1.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])

    def test_none_grads_count_zero(self):
        assert global_grad_norm([Parameter(np.zeros(3))]) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm([Parameter(np.zeros(1))], 0.0)
