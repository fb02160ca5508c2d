"""Minimal dense-tensor engine with reverse-mode differentiation.

Covers exactly the operations the detection network needs: 1D convolution
and max pooling over (time, channels) arrays, the usual activations, and
the handful of elementwise/reduction ops that the losses are built from.
Convolution and pooling also take a leading batch axis, (batch, time,
channels), so a stack of windows runs as one graph; convolution GEMMs its
im2col matrix in row blocks forward and tap blocks backward, never whole.
Everything is float64 and numpy-backed; forward passes are pure functions
of their inputs; parameters and gradients are views of two flat vectors.
``backward()`` consumes the graph, freeing each activation and interior
gradient once no pending step or caller needs it: it is differentiated once.
Under ``no_grad()`` ops record no parents and keep no backward closure, so
each activation is freed as soon as the next op no longer needs it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, UsageError

DTYPE = np.float64
_mode = threading.local()  # ``grad`` is False inside no_grad(), per thread


@contextmanager
def no_grad():
    """Build no graph inside the block: every op returns a constant tensor.
    Nests, and restores the previous mode on exit, an exception included."""
    previous = getattr(_mode, "grad", True)
    _mode.grad = False
    try:
        yield
    finally:
        _mode.grad = previous


def _asarray(x) -> np.ndarray:
    return np.asarray(x, dtype=DTYPE)


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    Gradients are accumulated into ``.grad`` (lazily created) when
    ``backward()`` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = _asarray(data)
        self.grad = None
        if not getattr(_mode, "grad", True):
            parents, backward_fn = (), None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        # The first gradient is adopted as is. It may be a view of another
        # node's gradient (reshape, take, concat) or shared with a sibling
        # (add), so every later sum is out of place.
        if self.grad is None:
            self.grad = np.asarray(g, dtype=DTYPE)
        else:
            self.grad = self.grad + g

    def backward(self):
        """Backpropagate from a scalar, consuming the graph: a node's edges and
        closure are dropped once its step has run, so nodes no caller holds
        are freed on the way (a held node keeps ``.data`` and ``.grad``). A
        later backward reaching a consumed node raises UsageError first."""
        if self.data.size != 1:
            raise UsageError("backward() is only defined for scalar tensors")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in visited:
                continue
            if node._parents is None:
                raise UsageError("backward() reached a graph that was already differentiated")
            if expanded:
                visited.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node._parents, node._backward_fn = None, None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Tensor, np.ndarray, list)):
            return mul(self, reciprocal(as_tensor(other)))
        return mul(self, 1.0 / float(other))

    def __getitem__(self, index):
        return take(self, index)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


class Parameter(Tensor):
    """A named leaf tensor updated by the optimizer. ``grad`` is None or its
    gradient view: backward copies the first gradient in and adds later ones
    in place (an array assigned to ``grad`` is copied in by ``Adam.step``).
    The view is ``grad_view``, or a buffer of its own until laid out flat."""

    __slots__ = ("name", "_grad_view")

    def __init__(self, data, name, grad_view=None):
        super().__init__(data, requires_grad=True)
        self.name = str(name)
        self._grad_view = np.empty_like(self.data) if grad_view is None else grad_view

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = self._grad_view
            self.grad[...] = g
        elif self.grad is self._grad_view:
            self.grad += g
        else:  # an assigned array is summed out of place, as for any tensor
            super()._accumulate(g)


def flat_views(shapes):
    """``(data, grad, views)``: a new uninitialised flat data vector, a zero
    gradient vector as long, and per shape in order a (data, grad) view pair."""
    sizes = [math.prod(shape) for shape in shapes]
    data = np.empty(sum(sizes), dtype=DTYPE)
    grad = np.zeros(data.size, dtype=DTYPE)  # calloc: pages stay unmapped until written
    cuts = np.cumsum(sizes)[:-1]
    views = [(d.reshape(shape), g.reshape(shape))
             for shape, d, g in zip(shapes, np.split(data, cuts), np.split(grad, cuts))]
    return data, grad, views


def flat_parameters(params):
    """``(data, grad)``: flat vectors that the distinct ``params``' data and
    gradients are views of. Parameters already laid out over one such pair
    get it back; others are packed into new ones, values and gradients kept."""
    params = list(params)
    sizes = [p.data.size for p in params]
    data, grad = (params[0].data.base, params[0]._grad_view.base) if params else (None, None)
    if all(isinstance(x, np.ndarray) and x.size == sum(sizes) for x in (data, grad)) and all(
            p.data.base is data and p._grad_view.base is grad for p in params):
        return data, grad
    data, grad, views = flat_views([p.data.shape for p in params])
    for p, (view, grad_view) in zip(params, views):
        view[...] = p.data
        if p.grad is p._grad_view:
            grad_view[...] = p.grad
            p.grad = grad_view
        p.data, p._grad_view = view, grad_view
    return data, grad


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(_asarray(x))


def _binary_shapes(a, b):
    if a.data.shape == b.data.shape:
        return
    if a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise UsageError(
        f"elementwise op requires equal shapes or a scalar, got {a.data.shape} and {b.data.shape}"
    )


def _reduce_to(g, shape):
    # undo scalar broadcasting
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=DTYPE).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward_fn=backward_fn)


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(2.0 * a.data * g)

    return Tensor(a.data * a.data, parents=(a,), backward_fn=backward_fn)


def reciprocal(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(-g / (a.data * a.data))

    return Tensor(1.0 / a.data, parents=(a,), backward_fn=backward_fn)


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)

    # closures keep the output array, not the output tensor: a tensor whose
    # backward refers to itself is a reference cycle that holds the graph
    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(e * g)

    return Tensor(e, parents=(a,), backward_fn=backward_fn)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return Tensor(np.log(a.data), parents=(a,), backward_fn=backward_fn)


def clip(a, lo, hi) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through the interior."""
    a = as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(np.clip(a.data, lo, hi), parents=(a,), backward_fn=backward_fn)


def smooth_l1(a) -> Tensor:
    """Elementwise smooth L1: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    a = as_tensor(a)
    absx = np.abs(a.data)
    inner = absx < 1.0

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * np.where(inner, a.data, np.sign(a.data)))

    return Tensor(np.where(inner, 0.5 * a.data * a.data, absx - 0.5), parents=(a,),
                  backward_fn=backward_fn)


def tsum(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, float(g), dtype=DTYPE))

    return Tensor(a.data.sum(), parents=(a,), backward_fn=backward_fn)


def tmean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    if n == 0:
        raise UsageError("mean of an empty tensor")

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, float(g) / n, dtype=DTYPE))

    return Tensor(a.data.mean(), parents=(a,), backward_fn=backward_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward_fn=backward_fn)


def take(a, index) -> Tensor:
    """Differentiable indexing (slices, integer arrays, tuples thereof)."""
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            a._accumulate(full)

    return Tensor(a.data[index], parents=(a,), backward_fn=backward_fn)


def concat(tensors: Sequence, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat of an empty sequence")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tuple(tensors), backward_fn=backward_fn)


def _require_finite(name, data):
    if not np.isfinite(data).all():
        raise NumericError(f"{name} requires finite inputs")


def relu(a) -> Tensor:
    a = as_tensor(a)
    _require_finite("relu", a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return Tensor(np.maximum(a.data, 0.0), parents=(a,), backward_fn=backward_fn)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    _require_finite("sigmoid", a.data)
    # evaluate exp only on the sign that cannot overflow
    x = np.atleast_1d(a.data)
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    s[~pos] = e / (1.0 + e)
    s = s.reshape(a.data.shape)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * s * (1.0 - s))

    return Tensor(s, parents=(a,), backward_fn=backward_fn)


def softmax(a, axis=-1) -> Tensor:
    """Rowwise softmax with max subtraction for stability."""
    a = as_tensor(a)
    _require_finite("softmax", a.data)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        if a.requires_grad:
            dot = (g * s).sum(axis=axis, keepdims=True)
            a._accumulate(s * (g - dot))

    return Tensor(s, parents=(a,), backward_fn=backward_fn)


def logsumexp(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    _require_finite("logsumexp", a.data)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    sums = e.sum(axis=axis, keepdims=True)
    soft = e / sums

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.expand_dims(g, axis) * soft)

    return Tensor(np.squeeze(m + np.log(sums), axis=axis), parents=(a,),
                  backward_fn=backward_fn)


def _same_padding(length, kernel, stride):
    out_len = -(-length // stride)  # ceil division
    pad = max((out_len - 1) * stride + kernel - length, 0)
    left = pad // 2
    return out_len, left, pad - left


def _batched(x, name, what):
    """(B, T, C) data of a (T, C) or (B, T, C) input, plus whether the
    input had the batch axis."""
    if x.data.ndim == 2:
        return x.data[None], False
    if x.data.ndim == 3:
        return x.data, True
    raise ConfigError(f"{name} expects {what}, got {x.data.shape}")


def _pad_time(data, left, right, fill):
    if left == right == 0:
        return data
    b, t, c = data.shape
    padded = np.full((b, left + t + right, c), fill, dtype=DTYPE)
    padded[:, left:left + t] = data
    return padded


#: conv1d GEMMs at most this many im2col rows at a time forward, and column
#: blocks of at most as many elements (ROW_BLOCK * K * C_in) backward
ROW_BLOCK = 1024


def _blocks(n, size):
    """The fewest runs ``(lo, hi)`` tiling ``range(n)`` with at most ``size``
    items each (at least one), as equal in length as possible."""
    parts = -(-n // max(1, size))
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def _im2col(padded, kernel_size, stride, out_len, taps=None):
    """(B * out_len, k * C) rows for the taps ``lo:hi`` (default all K); row
    (b, i) holds the input rows that output i of window b sees, tap-major
    like a (K, C, C_out) kernel."""
    b, _, c = padded.shape
    lo, hi = taps or (0, kernel_size)
    view = sliding_window_view(padded, kernel_size, axis=1)  # (B, L, C, K)
    view = view[:, : stride * (out_len - 1) + 1 : stride, :, lo:hi]
    return view.transpose(0, 1, 3, 2).reshape(b * out_len, (hi - lo) * c)


def conv1d(x, kernel, bias, stride=1, padding="same") -> Tensor:
    """Temporal cross-correlation of a (T, C_in) or (B, T, C_in) input with
    a (K, C_in, C_out) kernel; the output keeps the input's batch axis.

    Same padding is symmetric zeros with the extra zero on the right;
    output length is ceil(T / stride). The forward pass GEMMs the im2col
    matrix in row blocks of whole windows, the backward pass in column
    blocks of whole taps, adding the input gradient tap by tap; no pass
    holds the whole matrix, and the graph keeps only the input. Blocks are
    as wide as ``ROW_BLOCK`` allows, not one tap: a GEMM over one narrow
    tap can take another BLAS kernel, which rounds differently.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    what = "(T, C_in) or (B, T, C_in) input"
    if kernel.data.ndim != 3:
        raise ConfigError(
            f"conv1d expects {what} and (K, C_in, C_out) kernel, "
            f"got {x.data.shape} and {kernel.data.shape}"
        )
    xb, batched = _batched(x, "conv1d", what)
    B, T, c_in = xb.shape
    K, kc_in, c_out = kernel.data.shape
    if K < 1:
        raise ConfigError("conv1d kernel size must be >= 1")
    if stride < 1:
        raise ConfigError(f"conv1d stride must be >= 1, got {stride}")
    if kc_in != c_in:
        raise ConfigError(f"kernel expects {kc_in} input channels, input has {c_in}")
    if bias.data.shape != (c_out,):
        raise ConfigError(f"bias shape {bias.data.shape} does not match {c_out} filters")

    if padding == "same":
        out_len, left, right = _same_padding(T, K, stride)
    elif padding == "valid":
        if T < K:
            raise ConfigError(f"valid conv needs input length >= kernel ({T} < {K})")
        out_len, left, right = (T - K) // stride + 1, 0, 0
    else:
        raise ConfigError(f"unknown padding mode {padding!r}")

    rows = B * out_len
    weights = kernel.data.reshape(K * c_in, c_out)
    out_data = np.empty((B, out_len, c_out), dtype=DTYPE)
    for lo, hi in _blocks(B, ROW_BLOCK // out_len):  # whole windows
        np.matmul(_im2col(_pad_time(xb[lo:hi], left, right, 0.0), K, stride, out_len),
                  weights, out=out_data[lo:hi].reshape(-1, c_out))
    out_data += bias.data
    out_shape = (B, out_len, c_out) if batched else (out_len, c_out)

    def backward_fn(g):
        g = g.reshape(rows, c_out)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        taps = _blocks(K, ROW_BLOCK * K // max(rows, 1))  # <= ROW_BLOCK * K * c_in elements
        if kernel.requires_grad:
            padded = _pad_time(xb, left, right, 0.0)
            dk = np.empty((K * c_in, c_out), dtype=DTYPE)
            for lo, hi in taps:
                np.matmul(_im2col(padded, K, stride, out_len, (lo, hi)).T, g,
                          out=dk[lo * c_in:hi * c_in])
            kernel._accumulate(dk.reshape(K, c_in, c_out))
            del padded, dk  # before the input gradient is allocated
        if x.requires_grad:
            pg = np.zeros((B, left + T + right, c_in), dtype=DTYPE)
            for lo, hi in taps:
                dcols = (g @ weights[lo * c_in:hi * c_in].T).reshape(B, out_len, hi - lo, c_in)
                for j in range(lo, hi):  # tap j of output i reads padded row j + stride * i
                    pg[:, j:j + stride * out_len:stride] += dcols[:, :, j - lo]
                del dcols  # before the next block is made
            x._accumulate(pg[:, left:left + T].reshape(x.data.shape))

    return Tensor(out_data.reshape(out_shape), parents=(x, kernel, bias),
                  backward_fn=backward_fn)


def maxpool1d(x, window, stride) -> Tensor:
    """Per-channel windowed max over a (T, C) or (B, T, C) input, with same
    padding (-inf fill); the output keeps the input's batch axis.

    Output length is ceil(T / stride); the gradient routes to the first
    maximum inside each window.
    """
    x = as_tensor(x)
    what = "a nonempty (T, C) or (B, T, C) input"
    xb, batched = _batched(x, "maxpool1d", what)
    if xb.shape[1] == 0:
        raise ConfigError(f"maxpool1d expects {what}, got {x.data.shape}")
    if window < 1:
        raise ConfigError(f"maxpool1d window must be >= 1, got {window}")
    if stride < 1:
        raise ConfigError(f"maxpool1d stride must be >= 1, got {stride}")
    B, T, C = xb.shape
    out_len, left, right = _same_padding(T, window, stride)
    padded = _pad_time(xb, left, right, -np.inf)
    taps = [padded[:, j:j + stride * out_len:stride] for j in range(window)]
    # running max over the taps; the backward masks each tap against it
    best = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(best, tap, out=best)

    def backward_fn(g):
        if x.requires_grad:
            g = g.reshape(best.shape)
            pg = np.zeros_like(padded)
            # a window routes to its first tap equal to the max, so the
            # first max wins ties
            open_ = np.ones(best.shape, dtype=bool)
            for j, tap in enumerate(taps):
                hit = open_ & (tap == best)
                pg[:, j:j + stride * out_len:stride] += g * hit
                open_ &= ~hit
            x._accumulate(pg[:, left:left + T].reshape(x.data.shape))

    return Tensor(best if batched else best[0], parents=(x,), backward_fn=backward_fn)
