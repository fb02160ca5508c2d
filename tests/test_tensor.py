import gc
import itertools
import threading
import time
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
    cast,
    clip,
    concat,
    conv1d,
    exp,
    logsumexp,
    maxpool1d,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    smooth_l1,
    square,
    take,
    tmean,
)

from oracles import (
    direct_conv1d, direct_conv1d_grads, direct_maxpool1d, numeric_gradient, tsum,
)


def padded_conv(x, kernel, bias, stride=1, padding="same"):
    """conv1d in the oracle's padding modes. conv1d is always same-padded;
    the "valid" outputs, those that read no padding, are taken from its
    stride-1 output: the first at row (K - 1) // 2, then every stride-th."""
    if padding == "same":
        return conv1d(x, kernel, bias, stride=stride)
    k, t = as_tensor(kernel).data.shape[0], as_tensor(x).data.shape[-2]
    rows = np.arange((k - 1) // 2, t - k // 2, stride)
    return take(conv1d(x, kernel, bias), (Ellipsis, rows, slice(None)))


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
        loss = tsum(concat([reshape(mul(p, 2.0), (1,)), reshape(mul(p, 5.0), (1,))]))
        loss.backward()
        assert_allclose(p.grad, 7.0)

    def test_sum_mean_grads(self):
        p, g = single_param_grad(lambda p: tsum(p), np.arange(6.0), shape=(2, 3))
        assert_allclose(g, np.ones((2, 3)))
        p, g = single_param_grad(lambda p: tmean(p), np.arange(6.0), shape=(2, 3))
        assert_allclose(g, np.full((2, 3), 1 / 6))

    def test_square_exp_clip(self):
        x = np.array([0.5, 1.5, 2.5])
        assert_allclose(square(Tensor(x)).data, x**2)
        assert_allclose(exp(Tensor(x)).data, np.exp(x))
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

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as sp_lse

        rng = np.random.default_rng(5)
        x = rng.normal(scale=50, size=(4, 7))
        assert_allclose(logsumexp(Tensor(x)).data, sp_lse(x, axis=-1), rtol=1e-12)

    def test_nonfinite_input_rejected(self):
        for fn in (relu, sigmoid, logsumexp):
            with pytest.raises(NumericError):
                fn(Tensor([np.nan, 1.0]))


class TestConv1d:
    def test_valid_conv_known_values(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        kernel = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
        out = padded_conv(Tensor(x), Tensor(kernel), Tensor(np.zeros(1)), padding="valid")
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
        out = padded_conv(Tensor(x), Tensor(kernel), Tensor(bias), stride, padding)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [33, 40])
    def test_kernels_wider_than_a_tile(self, dtype, k):
        # no tile of the tiled path holds these kernels; they take im2col
        rng = np.random.default_rng(k)
        x0, k0, b0 = rng.normal(size=(50, 3)), rng.normal(size=(k, 3, 4)), rng.normal(size=4)
        x, kernel, bias = Parameter(x0, "x"), Parameter(k0, "k"), Parameter(b0, "b")
        out = conv1d(*(cast(p, dtype) for p in (x, kernel, bias)))
        tsum(out).backward()
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        assert_allclose(out.data, direct_conv1d(x0, k0, b0, 1, "same"), rtol=rtol, atol=rtol)
        assert_allclose(bias.grad, np.full(4, 50.0), rtol=rtol)

    def test_shape_validation(self):
        x = Tensor(np.zeros((8, 2)))
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros(5)))  # C_in mismatch
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 2, 5))), Tensor(np.zeros(4)))  # bias mismatch
        with pytest.raises(ConfigError):
            conv1d(x, Tensor(np.zeros((3, 2, 5))), Tensor(np.zeros(5)), stride=0)


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
        # rounded normals tie often; windows wider than the stride share rows,
        # so a row can win several windows and collect each one's gradient
        rng = np.random.default_rng(21)
        cases = [(10, 2, 2, False), (17, 3, 1, True), (16, 3, 2, True), (15, 4, 3, True),
                 (12, 5, 2, True), (9, 2, 2, True)]
        for (t, w, s, ties), dtype in itertools.product(cases, (np.float64, np.float32)):
            x0 = rng.normal(size=(t, 4))
            x0 = np.round(x0) if ties else x0
            weights = rng.normal(size=(-(-t // s), 4)).astype(np.float32).astype(float)
            x = Parameter(x0.copy(), name="x")
            tsum(mul(cast(maxpool1d(cast(x, dtype), w, s), np.float64), weights)).backward()
            _, argmax = direct_maxpool1d(x0, w, s)
            expect = np.zeros_like(x0)
            for i, c in np.ndindex(argmax.shape):
                expect[argmax[i, c], c] += weights[i, c]
            # float32 sums a row's share of several windows in float32
            assert_allclose(x.grad, expect, rtol=1e-6 if dtype == np.float32 else 1e-7)

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
        out = padded_conv(Tensor(x), Tensor(kernel), Tensor(bias), stride, padding)
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
    @pytest.mark.parametrize("op", [exp, sigmoid])
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
        tsum(mul(padded_conv(x, kern, b, stride, padding), weights)).backward()

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

    @pytest.mark.parametrize("on", [True, False], ids=["worker", "caller-alone"])
    def test_transient_memory_of_each_float32_pass(self, worker, on):
        # the same conv in float32, tiled, each pass as two pieces in flight
        # with the worker, one after the other without it
        pool = worker(on)
        rng = np.random.default_rng(0)
        x = Parameter(rng.normal(size=(16, 256, 256)), "x")
        kernel = Parameter(rng.normal(scale=0.01, size=(9, 256, 256)), "k")
        bias = Parameter(np.zeros(256), "b")
        g = rng.normal(size=(16, 256, 256)).astype(np.float32)
        inputs = [cast(p, np.float32) for p in (x, kernel, bias)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = conv1d(*inputs)
            forward = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out._backward_fn(g)
            backward = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the input's transform, the forward's two steps and the backward pass
        assert pool.handed == (4 if on else 0)
        assert forward < 40e6
        assert backward < 40e6


class TestTwoPieces:
    """Large float32 conv passes run as two pieces fixed by their shapes
    (``tensor._run``): the worker thread runs one, or the caller runs both,
    and the bits are the same either way."""

    @staticmethod
    def float32_pass(x0, k0, b0, g, stride, input_gradient):
        """Output and float64 gradients of sum(conv1d(x, k, b) * g), run in
        float32 over float64 parameters; the input is a constant, as the
        features are to base.0, without ``input_gradient``."""
        x, k, b = (Parameter(v, name=n) for v, n in ((x0, "x"), (k0, "k"), (b0, "b")))
        source = x if input_gradient else Tensor(x0)
        out = conv1d(*(cast(p, np.float32) for p in (source, k, b)), stride=stride)
        tsum(mul(cast(out, np.float64), g)).backward()
        return [out.data, k.grad, b.grad] + ([x.grad] if input_gradient else [])

    @pytest.mark.parametrize("shape,k,c_out,stride,input_gradient,handed", [
        ((16, 128, 64), 9, 64, 1, True, 4),      # tiled: the input's transform and the
                                                 # forward's two steps
        ((8, 256, 64), 5, 64, 1, True, 2),       # im2col, stride 1
        ((8, 512, 64), 9, 64, 2, True, 2),       # im2col, stride 2
        ((16, 512, 12), 9, 256, 1, False, 2),    # base.0: tap blocks of the kernel gradient
    ], ids=["tiled", "im2col", "im2col-stride-2", "kernel-gradient-only"])
    def test_same_bits_with_and_without_the_worker(self, worker, shape, k, c_out, stride,
                                                   input_gradient, handed):
        b, t, c_in = shape
        assert 2 * b * -(-t // stride) * k * c_in * c_out >= tadkit.tensor.SPLIT_MIN_FLOPS
        rng = np.random.default_rng(list(shape))
        x0, k0 = rng.normal(size=shape), rng.normal(scale=0.1, size=(k, c_in, c_out))
        b0, g = rng.normal(size=c_out), rng.normal(size=(b, -(-t // stride), c_out))
        worker(False)
        alone = self.float32_pass(x0, k0, b0, g, stride, input_gradient)
        pool = worker(True)
        split = self.float32_pass(x0, k0, b0, g, stride, input_gradient)
        assert pool.handed == handed
        for a, s in zip(alone, split):
            assert np.array_equal(a, s)

    def test_float64_and_small_calls_run_whole(self, worker):
        pool = worker(True)
        rng = np.random.default_rng(1)
        x = Parameter(rng.normal(size=(16, 256, 64)), "x")
        kernel, bias = Parameter(rng.normal(size=(9, 64, 64)), "k"), Parameter(np.zeros(64), "b")
        tsum(conv1d(x, kernel, bias)).backward()  # float64, above the threshold
        small = [cast(Parameter(v, n), np.float32) for v, n in (
            (rng.normal(size=(4, 32, 16)), "x"), (rng.normal(size=(3, 16, 16)), "k"),
            (np.zeros(16), "b"))]
        tsum(conv1d(*small)).backward()  # float32, far below it
        assert pool.handed == 0

    def test_pieces_run_on_two_threads(self, worker):
        worker(True)
        threads = []
        tadkit.tensor._run([lambda: threads.append(threading.get_ident())] * 2)
        assert len(set(threads)) == 2 and threading.get_ident() in threads
        worker(False)
        del threads[:]
        tadkit.tensor._run([lambda: threads.append(threading.get_ident())] * 2)
        assert threads == [threading.get_ident()] * 2

    def test_an_error_is_raised_once_every_piece_has_ended(self, worker):
        worker(True)
        ended = threading.Event()

        def fails():
            raise ValueError("first")

        def slow():
            time.sleep(0.2)
            ended.set()

        def fails_too():
            raise KeyError("second")

        with pytest.raises(ValueError, match="first"):
            tadkit.tensor._run([fails, slow])
        assert ended.is_set()
        with pytest.raises(ValueError, match="first"):  # the first in piece order
            tadkit.tensor._run([fails, fails_too])
        with pytest.raises(KeyError, match="second"):
            tadkit.tensor._run([lambda: None, fails_too])

    def test_worker_keeps_the_callers_error_state(self, worker):
        worker(True)
        seen = []
        with np.errstate(over="ignore"):
            tadkit.tensor._run([lambda: None, lambda: seen.append(np.geterr()["over"])])
        assert seen == ["ignore"]

    @pytest.mark.parametrize("cpus,env,free", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"GOTO_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),  # 0: not set
        (2, {"OPENBLAS_NUM_THREADS": " 1x"}, True),  # read as C's atoi reads it
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # the first wins
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, False),
        (2, {}, False),  # BLAS runs a thread per CPU
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    ])
    def test_second_cpu_is_free(self, monkeypatch, cpus, env, free):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(tadkit.tensor.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert tadkit.tensor._second_cpu_free() is free


class TestGraphLifetime:
    def test_backward_frees_the_graph_it_consumes(self):
        p = Parameter(np.random.default_rng(0).uniform(0.1, 1.0, size=10**6), "p")
        ops = [sigmoid, exp, square, lambda t: mul(t, 0.5), lambda t: add(t, 1.0),
               relu, lambda t: clip(t, 0.0, 5.0), lambda t: mul(t, t), smooth_l1]
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


class TestCast:
    """float32 compute over float64 leaves: ops keep their inputs' dtype,
    and ``cast`` hands gradients back in the source's dtype."""

    def test_same_dtype_is_no_node(self):
        p = Parameter(np.ones(3), name="p")
        assert cast(p, np.float64) is p
        assert cast(p, "float64") is p

    def test_gradient_reaches_the_float64_view(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]), name="p")
        low = cast(p, np.float32)
        assert low.data.dtype == np.float32 and p.data.dtype == np.float64
        loss = tsum(square(low))
        assert loss.data.dtype == np.float32
        loss.backward()
        assert p.grad is p._grad_view and p.grad.dtype == np.float64
        assert_allclose(p.grad, [2.0, -4.0, 6.0])

    def test_round_trip_gradient_is_float64(self):
        p = Parameter(np.array([0.5, 1.5]), name="p")
        y = cast(mul(cast(p, np.float32), 3.0), np.float64)
        assert y.data.dtype == np.float64
        tsum(y).backward()
        assert_allclose(p.grad, [3.0, 3.0])

    def test_ops_keep_float32(self):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.normal(size=shape), name=name)
                  for name, shape in (("x", (2, 8, 3)), ("k", (3, 3, 4)), ("b", (4,)))]
        x, k, b = (cast(p, np.float32) for p in params)
        h = maxpool1d(relu(conv1d(x, k, b, stride=2)), 2, 2)
        out = tmean(concat([reshape(h, (2, -1)), reshape(sigmoid(h), (2, -1))], axis=1))
        for t in (h, out):
            assert t.data.dtype == np.float32
        out.backward()
        assert h.grad.dtype == np.float32
        for p in params:
            assert p.grad.dtype == np.float64 and np.any(p.grad != 0), p.name

    def test_gradient_is_not_held_by_the_cast(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        low = cast(p, np.float32)
        tsum(square(low)).backward()
        assert low.grad is None
        assert_allclose(p.grad, [2.0, 4.0])

    def test_float32_conv_matches_float64(self):
        rng = np.random.default_rng(1)
        xv, kv, bv = rng.normal(size=(2, 20, 5)), rng.normal(size=(3, 5, 6)), rng.normal(size=6)
        grads = {}
        for dtype in (np.float64, np.float32):
            k, b = Parameter(kv, name="k"), Parameter(bv, name="b")
            out = conv1d(cast(Tensor(xv), dtype), cast(k, dtype), cast(b, dtype))
            tsum(square(cast(out, np.float64))).backward()
            grads[dtype] = (out.data, k.grad.copy(), b.grad.copy())
        for a, b in zip(grads[np.float64], grads[np.float32]):
            assert_allclose(b, a, rtol=1e-5, atol=1e-4)


class TestTiledConv:
    """The tiled float32 path of conv1d against the float64 direct oracle. The
    gate is lowered so that small problems take the path; one test runs a
    call at the real gate."""

    @pytest.fixture
    def small_gate(self, monkeypatch):
        monkeypatch.setattr(tadkit.tensor, "TILED_MIN_CHANNELS", 1)
        monkeypatch.setattr(tadkit.tensor, "TILED_MIN_ROWS", 1)

    @pytest.fixture
    def tiled_calls(self, monkeypatch):
        calls = []
        spectra = tadkit.tensor._tile_spectra

        def spy(*args):
            calls.append(args[0].shape)
            return spectra(*args)

        monkeypatch.setattr(tadkit.tensor, "_tile_spectra", spy)
        return calls

    @staticmethod
    def float32_conv(x0, k0, b0, g, padding="same"):
        """Output and float64 gradients of sum(conv1d(x, k, b) * g), run in
        float32 over float64 parameters."""
        x, k, b = (Parameter(v.copy(), name=n) for v, n in ((x0, "x"), (k0, "k"), (b0, "b")))
        out = padded_conv(*(cast(p, np.float32) for p in (x, k, b)), padding=padding)
        assert out.data.dtype == np.float32
        tsum(mul(cast(out, np.float64), g)).backward()
        return out.data, x.grad, k.grad, b.grad

    @staticmethod
    def assert_float32_close(actual, expect):
        assert actual.shape == expect.shape
        assert_allclose(actual, expect, rtol=0, atol=2e-6 * np.abs(expect).max())

    @pytest.mark.parametrize("t,k,padding,batched", [
        (48, 9, "same", True),    # T_out a multiple of the 24 outputs of a tile
        (50, 9, "same", True),    # and not
        (24, 9, "same", True),    # exactly one tile, the shortest output taken
        (41, 9, "same", False),   # unbatched (T, C)
        (60, 8, "same", True),    # even K: 25 outputs a tile, the extra zero on the right
        (45, 7, "valid", True),
        (40, 16, "same", False),  # the widest kernel taken
    ])
    def test_matches_the_direct_oracle(self, small_gate, tiled_calls, t, k, padding, batched):
        rng = np.random.default_rng(t * k)
        x0 = rng.normal(size=(2, t, 6))
        k0 = rng.normal(size=(k, 6, 5))
        b0 = rng.normal(size=5)
        out_len = t if padding == "same" else t - k + 1
        g = rng.normal(size=(2, out_len, 5))
        if not batched:
            x0, g = x0[0], g[0]
        out, dx, dk, db = self.float32_conv(x0, k0, b0, g, padding)
        assert len(tiled_calls) == 2  # the forward pass and the kernel gradient
        windows = x0 if batched else x0[None]
        grads = g if batched else g[None]
        expect = np.stack([direct_conv1d(w, k0, b0, 1, padding) for w in windows])
        self.assert_float32_close(out, expect if batched else expect[0])
        oracle = [direct_conv1d_grads(w, k0, gw, 1, padding) for w, gw in zip(windows, grads)]
        expect_dx = np.stack([o[0] for o in oracle])
        self.assert_float32_close(dx, expect_dx if batched else expect_dx[0])
        self.assert_float32_close(dk, sum(o[1] for o in oracle))
        self.assert_float32_close(db, grads.sum(axis=(0, 1)))

    def test_a_call_at_the_gate(self, tiled_calls):
        # B * T_out and C_in are exactly at their thresholds; the float64
        # im2col path, which the oracle tests pin at rtol=1e-12, is the reference
        rng = np.random.default_rng(5)
        b, t = 8, tadkit.tensor.TILED_MIN_ROWS // 8
        x0 = rng.normal(size=(b, t, tadkit.tensor.TILED_MIN_CHANNELS))
        k0 = rng.normal(scale=0.1, size=(9, x0.shape[2], 72))
        b0 = rng.normal(size=72)
        g = rng.normal(size=(b, t, 72))
        tiled = self.float32_conv(x0, k0, b0, g)
        assert len(tiled_calls) == 2
        x, k, bias = Parameter(x0, "x"), Parameter(k0, "k"), Parameter(b0, "b")
        out = conv1d(x, k, bias)
        tsum(mul(out, g)).backward()
        for actual, expect in zip(tiled, (out.data, x.grad, k.grad, bias.grad)):
            self.assert_float32_close(actual, expect)

    @pytest.mark.parametrize("dtype,stride,shape,k,c_out", [
        (np.float64, 1, (8, 256, 64), 9, 64),  # float64
        (np.float32, 2, (8, 512, 64), 9, 64),  # strided
        (np.float32, 1, (8, 256, 63), 9, 64),  # too few input channels
        (np.float32, 1, (8, 256, 64), 9, 63),  # too few output channels
        (np.float32, 1, (7, 292, 64), 9, 64),  # too few output rows (2,044)
        (np.float32, 1, (8, 256, 64), 5, 64),  # kernel too narrow
        (np.float32, 1, (8, 256, 64), 17, 64),  # kernel too wide for a tile
        (np.float32, 1, (128, 23, 64), 9, 64),  # shorter than one tile
    ])
    def test_other_calls_stay_on_im2col(self, tiled_calls, dtype, stride, shape, k, c_out):
        rng = np.random.default_rng(6)
        x = Parameter(rng.normal(size=shape), "x")
        kernel = Parameter(rng.normal(size=(k, shape[2], c_out)), "k")
        bias = Parameter(np.zeros(c_out), "b")
        out = conv1d(*(cast(p, dtype) for p in (x, kernel, bias)), stride=stride)
        tsum(out).backward()
        assert tiled_calls == []

    def test_two_calls_give_identical_bits(self, small_gate, tiled_calls):
        rng = np.random.default_rng(7)
        x0, k0, b0 = rng.normal(size=(3, 70, 6)), rng.normal(size=(9, 6, 5)), rng.normal(size=5)
        g = rng.normal(size=(3, 70, 5))
        first = self.float32_conv(x0, k0, b0, g)
        second = self.float32_conv(x0, k0, b0, g)
        assert len(tiled_calls) == 4
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
