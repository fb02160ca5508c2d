import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.errors import ConfigError, NumericError, UsageError
from tadkit.gradcheck import check_gradients
from tadkit.optim import BLOCK, SPLIT_MIN_BLOCKS, Adam, xavier_init
from tadkit.tensor import (
    Parameter, Tensor, add, conv1d, flat_views, mul, relu, sigmoid, square, tmean,
)

from oracles import scalar_adam_trace, tsum


def flat_params(values, names):
    """Parameters holding ``values``, laid out over one flat data/gradient
    pair as a ``Network`` lays out its own."""
    values = [np.asarray(v, dtype=float) for v in values]
    _, _, views = flat_views([v.shape for v in values])
    params = []
    for value, name, (data, grad) in zip(values, names, views):
        data[...] = value
        params.append(Parameter(data, name, grad))
    return params


class TestXavier:
    def test_bound_respected(self):
        w = xavier_init((50, 30), seed=0)
        a = np.sqrt(6.0 / 80)
        assert np.abs(w).max() <= a
        assert w.shape == (50, 30)

    def test_conv_kernel_fans(self):
        # (K, C_in, C_out): fan_in = K*C_in, fan_out = K*C_out
        w = xavier_init((9, 16, 32), seed=1)
        a = np.sqrt(6.0 / (9 * 16 + 9 * 32))
        assert np.abs(w).max() <= a
        assert np.abs(w).max() > 0.9 * a  # actually fills the range

    def test_vector_uses_own_size_for_both_fans(self):
        w = xavier_init((100,), seed=2)
        assert np.abs(w).max() <= np.sqrt(6.0 / 200)

    def test_mean_near_zero(self):
        w = xavier_init((200, 200), seed=3)
        a = np.sqrt(6.0 / 400)
        assert abs(w.mean()) < 0.01 * a

    def test_same_seed_same_values(self):
        assert_allclose(xavier_init((4, 4), seed=9), xavier_init((4, 4), seed=9))

    def test_zero_fan_rejected(self):
        with pytest.raises(ConfigError):
            xavier_init((0, 4), seed=0)


class TestAdam:
    def make_param(self, value=1.0):
        return flat_params([value], ["w"])[0]

    def test_zero_gradient_is_noop(self):
        p = self.make_param(2.5)
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.array(0.0)
        opt.step()
        assert_allclose(p.data, 2.5)

    def test_first_step_magnitude_is_learning_rate(self):
        # holds whenever |g| dominates epsilon
        for g in (1e-4, 1.0, 1e6):
            p = self.make_param(0.0)
            opt = Adam([p], learning_rate=0.01)
            p.grad = np.array(g)
            opt.step()
            assert_allclose(-p.data, 0.01, rtol=1e-3)

    def test_matches_scalar_reference_trace(self):
        rng = np.random.default_rng(4)
        grads = rng.normal(size=20)
        p = self.make_param(0.3)
        opt = Adam([p], learning_rate=0.05)
        mine = []
        for g in grads:
            p.grad = np.array(g)
            opt.step()
            mine.append(float(p.data))
        assert_allclose(mine, scalar_adam_trace(grads, 0.05, x0=0.3), rtol=1e-12)

    def test_quadratic_converges(self):
        p = self.make_param(1.0)
        opt = Adam([p], learning_rate=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = square(p)
            loss.backward()
            opt.step()
        assert abs(float(p.data)) < 0.05

    def test_step_without_backward_rejected(self):
        p = self.make_param()
        opt = Adam([p], learning_rate=0.1)
        with pytest.raises(UsageError):
            opt.step()

    def test_duplicate_names_rejected(self):
        a, b = flat_params([np.zeros(2), np.zeros(3)], ["w", "w"])
        with pytest.raises(ConfigError):
            Adam([a, b], learning_rate=0.1)

    def test_zero_learning_rate_freezes_parameters(self):
        p = self.make_param(0.7)
        opt = Adam([p], learning_rate=0.0)
        p.grad = np.array(5.0)
        opt.step()
        assert_allclose(p.data, 0.7)


class ReferenceAdam:
    """The per-parameter, out-of-place Adam loop: one moment pair per array,
    and a full-size temporary for every product and quotient."""

    def __init__(self, values, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.values = [np.array(v, dtype=float) for v in values]
        self.first = [np.zeros_like(v) for v in self.values]
        self.second = [np.zeros_like(v) for v in self.values]
        self.lr, self.beta1, self.beta2, self.epsilon = learning_rate, beta1, beta2, epsilon
        self.count = 0

    def step(self, grads):
        self.count += 1
        bc1 = 1.0 - self.beta1 ** self.count
        bc2 = 1.0 - self.beta2 ** self.count
        for x, m, v, g in zip(self.values, self.first, self.second, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            x -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)


class TestFlatAdam:
    """The blocked in-place update against the per-parameter reference."""

    SHAPES = ((), (1000,), (9, 64, 64))  # a scalar, a vector and a conv kernel

    def make_params(self, seed=0):
        rng = np.random.default_rng(seed)
        return flat_params([rng.normal(size=s) for s in self.SHAPES],
                           [f"p{i}" for i in range(len(self.SHAPES))])

    def test_sizes_cross_a_block_boundary(self):
        total = sum(p.data.size for p in self.make_params())
        assert total > BLOCK and total % BLOCK != 0

    def test_bare_and_subset_parameters_are_rejected(self):
        params = self.make_params()
        rng = np.random.default_rng(0)
        bare = [Parameter(rng.normal(size=s), name=f"p{i}") for i, s in enumerate(self.SHAPES)]
        for wrong in (bare, bare[1:], params[1:], params[:1], [bare[0], *params[1:]], []):
            with pytest.raises(UsageError, match="flat layout"):
                Adam(wrong, learning_rate=0.01)
        opt = Adam(params, learning_rate=0.01)  # the whole layout is taken as it is
        assert opt.data is params[0].data.base and opt.grad is params[0]._grad_view.base

    def test_assigned_gradients_match_reference(self):
        params = self.make_params(1)
        ref = ReferenceAdam([p.data for p in params], learning_rate=0.01)
        opt = Adam(params, learning_rate=0.01)
        rng = np.random.default_rng(2)
        for _ in range(5):
            grads = [rng.normal(scale=3.0, size=s) for s in self.SHAPES]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            ref.step(grads)
            for p, x in zip(params, ref.values):
                assert np.array_equal(p.data, x), p.name

    def test_backward_gradients_match_reference(self):
        params = self.make_params(3)
        ref = ReferenceAdam([p.data for p in params], learning_rate=0.03)
        opt = Adam(params, learning_rate=0.03)
        weights = [np.random.default_rng(4).normal(size=s) for s in self.SHAPES]
        for _ in range(5):
            opt.zero_grad()
            assert all(p.grad is None for p in params)
            loss = Tensor(0.0)
            for p, w in zip(params, weights):
                loss = add(loss, tsum(add(mul(p, w), square(p))))
            loss.backward()
            grads = []
            for p, w in zip(params, weights):
                assert p.grad.base is opt.grad
                assert_allclose(p.grad, w + 2.0 * p.data, rtol=1e-12)
                grads.append(p.grad.copy())
            opt.step()
            ref.step(grads)
            for p, x in zip(params, ref.values):
                assert np.array_equal(p.data, x), p.name

    def test_same_bits_with_and_without_the_worker(self, worker):
        # enough blocks to run as two pieces, the last block a partial one
        shapes = ((SPLIT_MIN_BLOCKS * BLOCK + 1000,), (9, 64, 64))
        rng = np.random.default_rng(5)
        values = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(scale=3.0, size=s) for s in shapes] for _ in range(3)]
        ref = ReferenceAdam(values, learning_rate=0.01)
        for step in grads:
            ref.step(step)
        for on in (False, True):
            pool = worker(on)
            params = flat_params(values, ["big", "kernel"])
            opt = Adam(params, learning_rate=0.01)
            for step in grads:
                for p, g in zip(params, step):
                    p.grad = g
                opt.step()
            for p, x in zip(params, ref.values):
                assert np.array_equal(p.data, x), p.name
            moments = np.concatenate([np.concatenate([m.ravel() for m in ms])
                                      for ms in (ref.first, ref.second)])
            assert np.array_equal(opt.moments.ravel(), moments)
        assert pool.handed == len(grads)  # one piece of every step


class TestCheckGradients:
    def small_net(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 2))
        k1 = Parameter(xavier_init((3, 2, 4), rng), name="k1")
        b1 = Parameter(xavier_init((4,), rng), name="b1")
        k2 = Parameter(xavier_init((3, 4, 2), rng), name="k2")
        b2 = Parameter(xavier_init((2,), rng), name="b2")

        def loss_fn():
            h = relu(conv1d(Tensor(x), k1, b1, stride=2))
            out = sigmoid(conv1d(h, k2, b2))
            return tmean(square(out - 0.3))

        return loss_fn, [k1, b1, k2, b2]

    def test_small_net_passes(self):
        loss_fn, params = self.small_net()
        result = check_gradients(loss_fn, params, step=1e-5)
        assert result.max_rel_error < 1e-6
        assert set(result.per_param) == {"k1", "b1", "k2", "b2"}

    def test_restores_parameter_values_exactly(self):
        loss_fn, params = self.small_net(seed=5)
        before = [p.data.copy() for p in params]
        check_gradients(loss_fn, params, step=1e-5)
        for p, b in zip(params, before):
            assert np.array_equal(p.data, b)

    def test_detects_a_wrong_gradient(self):
        p = Parameter(np.array([0.5, -0.2]), name="p")

        def broken_loss():
            # forward says sum(p^2) but the recorded backward lies
            out = Tensor(float((p.data ** 2).sum()), parents=(p,))

            def backward_fn(g):
                p._accumulate(np.full_like(p.data, 100.0))

            out._backward_fn = backward_fn
            return out

        result = check_gradients(broken_loss, [p], step=1e-5)
        assert result.max_rel_error > 1.0
        assert result.worst_param == "p"

    def test_nonfinite_loss_raises(self):
        p = Parameter(np.array(1.0), name="p")

        def bad_loss():
            return mul(p, np.inf)

        with pytest.raises(NumericError):
            check_gradients(bad_loss, [p], step=1e-5)
