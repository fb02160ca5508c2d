import gc
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

import tadkit.tensor

from tadkit.errors import ConfigError, NumericError, UsageError
from tadkit.tensor import (
    Parameter,
    Tensor,
    add,
    as_tensor,
    clip,
    concat,
    conv1d,
    exp,
    log,
    logsumexp,
    maxpool1d,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    smooth_l1,
    softmax,
    square,
    take,
    tmean,
    tsum,
)

from oracles import direct_conv1d, direct_maxpool1d, numeric_gradient


def single_param_grad(f, value, shape=None):
    """Analytic gradient of f(p) for one parameter via the graph."""
    p = Parameter(np.asarray(value, dtype=float).reshape(shape) if shape else value, name="p")
    out = f(p)
    out.backward()
    return p, p.grad


class TestBasicOps:
    def test_add_mul_forward(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert_allclose((a + b).data, [4.0, 6.0])
        assert_allclose(mul(a, b).data, [3.0, 8.0])
        assert_allclose((a - b).data, [-2.0, -2.0])
        assert_allclose((a / b).data, [1 / 3, 0.5])

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose((a + 1.0).data, [[2, 3], [4, 5]])
        assert_allclose(mul(a, 2.0).data, [[2, 4], [6, 8]])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(UsageError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(UsageError):
            t.backward()

    def test_grad_accumulates_on_reuse(self):
        p = Parameter(np.array(3.0), name="p")
        loss = tsum(concat([mul(p, 2.0).reshape((1,)), mul(p, 5.0).reshape((1,))]))
        loss.backward()
        assert_allclose(p.grad, 7.0)

    def test_sum_mean_grads(self):
        p, g = single_param_grad(lambda p: tsum(p), np.arange(6.0), shape=(2, 3))
        assert_allclose(g, np.ones((2, 3)))
        p, g = single_param_grad(lambda p: tmean(p), np.arange(6.0), shape=(2, 3))
        assert_allclose(g, np.full((2, 3), 1 / 6))

    def test_square_exp_log_clip(self):
        x = np.array([0.5, 1.5, 2.5])
        assert_allclose(square(Tensor(x)).data, x**2)
        assert_allclose(exp(Tensor(x)).data, np.exp(x))
        assert_allclose(log(Tensor(x)).data, np.log(x))
        assert_allclose(clip(Tensor(x), 0.0, 2.0).data, [0.5, 1.5, 2.0])

    def test_clip_gradient_masks_outside(self):
        _, g = single_param_grad(
            lambda p: tsum(clip(p, -1.0, 1.0)), np.array([-2.0, 0.0, 0.5, 3.0])
        )
        assert_allclose(g, [0.0, 1.0, 1.0, 0.0])

    def test_smooth_l1_values(self):
        # quadratic inside [-1, 1], linear minus a half outside
        x = Tensor([0.0, 0.5, -0.5, 1.5, -3.0])
        assert_allclose(smooth_l1(x).data, [0.0, 0.125, 0.125, 1.0, 2.5])

    def test_take_and_reshape_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        idx = np.array([0, 2, 2])
        p, g = single_param_grad(lambda p: tsum(take(p, idx)), x)
        expect = np.zeros_like(x)
        expect[0] += 1
        expect[2] += 2  # row picked twice accumulates twice
        assert_allclose(g, expect)
        assert_allclose(reshape(Tensor(x), (20,)).data, x.reshape(20))

    def test_concat_backward_splits(self):
        a = Parameter(np.ones(2), name="a")
        b = Parameter(np.ones(3), name="b")
        loss = tsum(mul(concat([a, b]), np.array([1.0, 2, 3, 4, 5])))
        loss.backward()
        assert_allclose(a.grad, [1, 2])
        assert_allclose(b.grad, [3, 4, 5])


class TestActivations:
    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert_allclose(relu(x).data, [0.0, 0.0, 2.0])

    def test_sigmoid_midpoint_and_saturation(self):
        assert_allclose(sigmoid(Tensor([0.0])).data, [0.5])
        out = sigmoid(Tensor([-800.0, 800.0])).data
        assert np.all(np.isfinite(out))
        assert_allclose(out, [0.0, 1.0], atol=1e-300)

    def test_softmax_uniform_on_constant_rows(self):
        out = softmax(Tensor(np.full((3, 4), 7.0))).data
        assert_allclose(out, np.full((3, 4), 0.25))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        out = softmax(Tensor(rng.normal(scale=30, size=(6, 5)))).data
        assert_allclose(out.sum(axis=-1), np.ones(6), rtol=1e-12)

    def test_softmax_large_logits_stay_finite(self):
        out = softmax(Tensor([[1000.0, 0.0, -1000.0]])).data
        assert np.all(np.isfinite(out))
        assert_allclose(out[0, 0], 1.0)

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as sp_lse

        rng = np.random.default_rng(5)
        x = rng.normal(scale=50, size=(4, 7))
        assert_allclose(logsumexp(Tensor(x)).data, sp_lse(x, axis=-1), rtol=1e-12)

    def test_nonfinite_input_rejected(self):
        for fn in (relu, sigmoid, softmax, logsumexp):
            with pytest.raises(NumericError):
                fn(Tensor([np.nan, 1.0]))


class TestConv1d:
    def test_valid_conv_known_values(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        kernel = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
        out = conv1d(Tensor(x), Tensor(kernel), Tensor(np.zeros(1)), padding="valid")
        assert_allclose(out.data, [[-2.0], [-2.0]])

    def test_same_padding_lengths(self):
        rng = np.random.default_rng(0)
        for t, k, s in [(512, 9, 1), (512, 9, 2), (7, 3, 2), (5, 4, 3), (1, 1, 1)]:
            x = rng.normal(size=(t, 2))
            kernel = rng.normal(size=(k, 2, 3))
            out = conv1d(Tensor(x), Tensor(kernel), Tensor(np.zeros(3)), stride=s)
            assert out.data.shape == (-(-t // s), 3)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (3, "same")])
    def test_forward_matches_direct_loops(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(20, 3))
        kernel = rng.normal(size=(5, 3, 4))
        bias = rng.normal(size=4)
        out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias), stride=stride, padding=padding)
        assert_allclose(out.data, direct_conv1d(x, kernel, bias, stride, padding), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(12, 2))
        k0 = rng.normal(size=(3, 2, 3))
        b0 = rng.normal(size=3)
        weights = rng.normal(size=(6, 3))

        x = Parameter(x0.copy(), name="x")
        k = Parameter(k0.copy(), name="k")
        b = Parameter(b0.copy(), name="b")
        loss = tsum(mul(conv1d(x, k, b, stride=2), weights))
        loss.backward()

        def loss_of(part):
            def f(v):
                parts = {"x": x0, "k": k0, "b": b0, part: v}
                return float(
                    (direct_conv1d(parts["x"], parts["k"], parts["b"], 2, "same") * weights).sum()
                )

            return f

        assert_allclose(x.grad, numeric_gradient(loss_of("x"), x0.copy()), atol=1e-6)
        assert_allclose(k.grad, numeric_gradient(loss_of("k"), k0.copy()), atol=1e-6)
        assert_allclose(b.grad, numeric_gradient(loss_of("b"), b0.copy()), atol=1e-6)

    def test_shape_validation(self):
        x = Tensor(np.zeros((8, 2)))
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros(5)))  # C_in mismatch
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 2, 5))), Tensor(np.zeros(4)))  # bias mismatch
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 2, 5))), Tensor(np.zeros(5)), stride=0)
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 2, 5))), Tensor(np.zeros(5)), padding="full")


class TestMaxPool1d:
    def test_known_values(self):
        x = Tensor(np.array([[1.0], [3.0], [2.0], [5.0]]))
        out = maxpool1d(x, 2, 2)
        assert_allclose(out.data, [[3.0], [5.0]])

    def test_matches_direct_loops(self):
        rng = np.random.default_rng(9)
        for t, w, s in [(16, 2, 2), (15, 3, 2), (9, 4, 3), (5, 2, 1)]:
            x = rng.normal(size=(t, 4))
            out = maxpool1d(Tensor(x), w, s)
            expect, _ = direct_maxpool1d(x, w, s)
            assert_allclose(out.data, expect)

    def test_ties_route_gradient_to_first_max(self):
        x = Parameter(np.array([[2.0], [2.0], [1.0], [2.0]]), name="x")
        out = maxpool1d(x, 2, 2)
        tsum(out).backward()
        assert_allclose(x.grad, [[1.0], [0.0], [0.0], [1.0]])

    def test_gradient_scatters_to_argmax(self):
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=(10, 3))
        weights = rng.normal(size=(5, 3))
        x = Parameter(x0.copy(), name="x")
        loss = tsum(mul(maxpool1d(x, 2, 2), weights))
        loss.backward()
        _, argmax = direct_maxpool1d(x0, 2, 2)
        expect = np.zeros_like(x0)
        for i in range(argmax.shape[0]):
            for c in range(argmax.shape[1]):
                expect[argmax[i, c], c] += weights[i, c]
        assert_allclose(x.grad, expect)

    def test_rejects_empty_input(self):
        with pytest.raises(ConfigError):
            maxpool1d(Tensor(np.zeros((0, 2))), 2, 2)


class TestBatchAxis:
    """(B, T, C) inputs give, window for window, what (T, C) inputs give."""

    @pytest.mark.parametrize(
        "stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")]
    )
    def test_conv_matches_direct_loops_per_window(self, stride, padding):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 20, 3))
        kernel = rng.normal(size=(5, 3, 4))
        bias = rng.normal(size=4)
        out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias), stride=stride, padding=padding)
        expect = np.stack([direct_conv1d(w, kernel, bias, stride, padding) for w in x])
        assert out.data.shape == expect.shape
        assert_allclose(out.data, expect, rtol=1e-12)

    def test_maxpool_matches_direct_loops_per_window(self):
        rng = np.random.default_rng(10)
        for t, w, s in [(16, 2, 2), (15, 3, 2), (9, 4, 3), (5, 2, 1)]:
            x = rng.normal(size=(3, t, 4))
            out = maxpool1d(Tensor(x), w, s)
            expect = np.stack([direct_maxpool1d(win, w, s)[0] for win in x])
            assert_allclose(out.data, expect, rtol=1e-12)

    def test_maxpool_ties_route_to_first_max_per_window(self):
        x = Parameter(np.array([[[2.0], [2.0], [1.0], [2.0]],
                                [[1.0], [3.0], [3.0], [3.0]]]), name="x")
        tsum(maxpool1d(x, 2, 2)).backward()
        assert_allclose(x.grad, [[[1.0], [0.0], [0.0], [1.0]],
                                 [[0.0], [1.0], [1.0], [0.0]]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(2, 12, 2))
        k0 = rng.normal(size=(3, 2, 3))
        b0 = rng.normal(size=3)
        weights = rng.normal(size=(2, 3, 3))

        def direct(xv, kv, bv):
            return np.stack(
                [direct_maxpool1d(direct_conv1d(w, kv, bv, 2, "same"), 3, 2)[0] for w in xv]
            )

        x = Parameter(x0.copy(), name="x")
        k = Parameter(k0.copy(), name="k")
        b = Parameter(b0.copy(), name="b")
        loss = tsum(mul(maxpool1d(conv1d(x, k, b, stride=2), 3, 2), weights))
        loss.backward()

        def loss_of(part):
            def f(v):
                parts = {"x": x0, "k": k0, "b": b0, part: v}
                return float((direct(parts["x"], parts["k"], parts["b"]) * weights).sum())

            return f

        assert_allclose(x.grad, numeric_gradient(loss_of("x"), x0.copy()), atol=1e-6)
        assert_allclose(k.grad, numeric_gradient(loss_of("k"), k0.copy()), atol=1e-6)
        assert_allclose(b.grad, numeric_gradient(loss_of("b"), b0.copy()), atol=1e-6)

    def test_rejects_other_ranks(self):
        with pytest.raises(ConfigError):
            conv1d(Tensor(np.zeros(8)), Tensor(np.zeros((3, 1, 1))), Tensor(np.zeros(1)))
        with pytest.raises(ConfigError):
            maxpool1d(Tensor(np.zeros((1, 2, 8, 1))), 2, 2)
        with pytest.raises(ConfigError):
            maxpool1d(Tensor(np.zeros((2, 0, 3))), 2, 2)


class TestGradientAccumulation:
    def test_add_of_a_tensor_with_itself(self):
        x = Parameter(np.array([1.0, -2.0, 3.0]), name="x")
        w = np.array([0.5, 2.0, -1.0])
        y = add(x, x)
        loss = tsum(mul(y, w))
        loss.backward()
        assert_allclose(x.grad, 2 * w)
        # add hands the same upstream array to both parents
        assert_allclose(y.grad, w)

    def test_concat_of_overlapping_slices(self):
        x = Parameter(np.arange(6.0), name="x")
        w = np.arange(1.0, 10.0)
        head = x[0:3]
        c = concat([head, x[1:4], head])
        loss = tsum(mul(c, w))
        loss.backward()
        assert_allclose(head.grad, [1 + 7, 2 + 8, 3 + 9])
        assert_allclose(x.grad, [8.0, 10 + 4, 12 + 5, 6, 0, 0])
        # head first adopted a view of the concat's gradient; it stays intact
        assert_allclose(c.grad, w)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("op", [exp, sigmoid, softmax])
    def test_graph_is_freed_by_reference_counting(self, op):
        gc.collect()
        gc.disable()
        try:
            out = op(Tensor(np.ones(4), requires_grad=True))
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNoGrad:
    def test_ops_record_no_graph(self):
        p = Parameter(np.array([0.5, -1.0, 2.0]), name="p")
        graph = tsum(sigmoid(mul(p, 2.0)))
        with no_grad():
            plain = tsum(sigmoid(mul(p, 2.0)))
        assert np.array_equal(plain.data, graph.data)
        assert plain._parents == () and plain._backward_fn is None
        assert not plain.requires_grad
        assert graph._parents and graph._backward_fn is not None

    def test_mode_is_restored_after_nesting_and_exceptions(self):
        p = Parameter(np.ones(2), name="p")

        def records_graph():
            return bool(mul(p, 2.0)._parents)

        with no_grad():
            with no_grad():
                assert not records_graph()
            assert not records_graph()  # the inner block restored the outer mode
            with pytest.raises(NumericError):
                with no_grad():
                    relu(Tensor([np.inf]))
            assert not records_graph()
        assert records_graph()
        with pytest.raises(NumericError):
            with no_grad():
                relu(Tensor([np.inf]))
        assert records_graph()

    def test_mode_is_per_thread(self):
        p = Parameter(np.ones(2), name="p")
        seen = []
        with no_grad():
            worker = threading.Thread(target=lambda: seen.append(bool(mul(p, 2.0)._parents)))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [True]  # another thread's no_grad() does not reach this one


class TestGraph:
    def test_float64_everywhere(self):
        out = conv1d(
            Tensor(np.zeros((4, 2), dtype=np.float32)),
            Tensor(np.zeros((3, 2, 2), dtype=np.float32)),
            Tensor(np.zeros(2, dtype=np.float32)),
        )
        assert out.data.dtype == np.float64

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_deep_chain_backward_is_iterative(self):
        # would overflow the recursion limit if backward recursed
        x = Parameter(np.array(1.0), name="x")
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        assert_allclose(x.grad, 1.0)


class TestConvBlocks:
    """conv1d's row-block forward and tap-block backward, at the default
    block size and at block sizes small enough to split every pass."""

    @pytest.mark.parametrize("row_block", [tadkit.tensor.ROW_BLOCK, 16, 1])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_gradients_match_central_differences(
            self, stride, padding, k, batched, row_block, monkeypatch):
        monkeypatch.setattr(tadkit.tensor, "ROW_BLOCK", row_block)
        rng = np.random.default_rng([stride, k, batched])
        shape = (2, 11, 2) if batched else (11, 2)
        x0, k0, b0 = rng.normal(size=shape), rng.normal(size=(k, 2, 3)), rng.normal(size=3)

        def direct(xv, kv, bv):
            windows = xv if batched else xv[None]
            out = np.stack([direct_conv1d(w, kv, bv, stride, padding) for w in windows])
            return out if batched else out[0]

        weights = rng.normal(size=direct(x0, k0, b0).shape)
        x, kern, b = Parameter(x0.copy(), "x"), Parameter(k0.copy(), "k"), Parameter(b0.copy(), "b")
        tsum(mul(conv1d(x, kern, b, stride=stride, padding=padding), weights)).backward()

        def loss_of(part):
            def f(v):
                parts = {"x": x0, "k": k0, "b": b0, part: v}
                return float((direct(parts["x"], parts["k"], parts["b"]) * weights).sum())

            return f

        assert_allclose(x.grad, numeric_gradient(loss_of("x"), x0.copy()), atol=1e-6)
        assert_allclose(kern.grad, numeric_gradient(loss_of("k"), k0.copy()), atol=1e-6)
        assert_allclose(b.grad, numeric_gradient(loss_of("b"), b0.copy()), atol=1e-6)

    def test_forward_over_row_blocks_equals_one_gemm(self):
        rng = np.random.default_rng(3)
        x, kernel, bias = rng.normal(size=(3, 700, 4)), rng.normal(size=(5, 4, 6)), rng.normal(size=6)
        assert x.shape[0] * x.shape[1] > tadkit.tensor.ROW_BLOCK  # several row blocks
        padded = np.pad(x, ((0, 0), (2, 2), (0, 0)))
        cols = sliding_window_view(padded, 5, axis=1).transpose(0, 1, 3, 2).reshape(2100, 20)
        expect = cols @ kernel.reshape(20, 6)
        expect += bias
        out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias))
        assert np.array_equal(out.data, expect.reshape(3, 700, 6))

    def test_transient_memory_of_each_pass(self):
        # a 256-filter base conv over 16 windows: the whole (4096, 2304)
        # im2col matrix alone would be 75 MB
        rng = np.random.default_rng(0)
        x = Parameter(rng.normal(size=(16, 256, 256)), "x")
        kernel = Parameter(rng.normal(scale=0.01, size=(9, 256, 256)), "k")
        bias = Parameter(np.zeros(256), "b")
        g = rng.normal(size=(16, 256, 256))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = conv1d(x, kernel, bias)
            forward = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out._backward_fn(g)
            backward = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert forward < 40e6
        assert backward < 40e6


class TestGraphLifetime:
    def test_backward_frees_the_graph_it_consumes(self):
        p = Parameter(np.random.default_rng(0).uniform(0.1, 1.0, size=10**6), "p")
        ops = [sigmoid, exp, square, lambda t: mul(t, 0.5), lambda t: add(t, 1.0),
               log, relu, lambda t: clip(t, 0.0, 5.0), lambda t: mul(t, t), smooth_l1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = p
            for op in ops:
                y = op(y)
            loss = tsum(y)
            del y
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert np.isfinite(p.grad).all()
        assert held <= 2 * p.data.nbytes

    def test_second_backward_through_a_consumed_node_is_refused(self):
        a = Parameter(np.array([1.0, -2.0, 3.0]), "a")
        b = Parameter(np.array([0.5, 4.0, -1.0]), "b")
        h = mul(a, b)
        tsum(h).backward()
        grads = [a.grad.copy(), b.grad.copy()]
        again = tsum(add(h, a))
        with pytest.raises(UsageError, match="already differentiated"):
            again.backward()
        assert np.array_equal(a.grad, grads[0])
        assert np.array_equal(b.grad, grads[1])
