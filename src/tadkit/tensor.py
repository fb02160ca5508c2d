"""Minimal dense-tensor engine with reverse-mode differentiation.

Covers exactly the operations the detection network needs: same-padded 1D
convolution and max pooling over (time, channels) arrays, ReLU, sigmoid,
logsumexp, and the elementwise/reduction ops the losses are built from (the
class softmax is read only at prediction, in NumPy: ``inference.softmax``).
Convolution and pooling also take a leading batch axis, (batch, time,
channels), so a stack of windows runs as one graph. Convolution has two
paths (see ``conv1d``): wide float32 stride-1 convs over many rows, in the
default network the 256-filter base convs at T = 256 and 128 of a training
minibatch or a full prediction stack, run as overlap-save tiles through
real DFT bases, all GEMMs, each kernel transformed once per ``cast``; every
other call (float64, strided, narrow or short) GEMMs its im2col matrix in
row blocks forward and tap blocks backward, never whole.
Leaves (``Tensor(...)``, ``as_tensor``, parameters) are float64; every op
keeps its inputs' dtype, and ``cast`` moves a value to float32 and back, its
gradient arriving in the source's dtype. So a float32 graph over float64
parameters accumulates straight into their float64 gradient views. Forward
passes are pure functions of their inputs; parameters and gradients are
views of two flat vectors.
Large float32 conv passes (``SPLIT_MIN_FLOPS``) run as two pieces fixed by
their shapes, and one goes to a worker thread (``_run``) when a second CPU
is free and BLAS runs one thread per call; the bits are the same either way.
``backward()`` consumes the graph, freeing each activation and interior
gradient once no pending step or caller needs it: it is differentiated once.
Under ``no_grad()`` ops record no parents and keep no backward closure, so
each activation is freed as soon as the next op no longer needs it.
"""

from __future__ import annotations

import contextvars
import math
import os
import re
import threading
from contextlib import contextmanager
from functools import partial
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
    ``backward()`` is called on a downstream scalar. A leaf's data is
    float64; an op's output (one made with ``parents``) keeps the dtype
    the op computed in.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data) if parents else _asarray(data)
        self.grad = None
        if not getattr(_mode, "grad", True):
            parents, backward_fn = (), None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        # The first gradient is adopted as is. It may be a view of another
        # node's gradient (reshape, take, concat) or shared with a sibling
        # (add), so every later sum is out of place. Gradients take the
        # tensor's dtype.
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = np.add(self.grad, g, dtype=self.data.dtype)

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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, index):
        return take(self, index)


class Parameter(Tensor):
    """A named leaf tensor updated by the optimizer. ``grad`` is None or its
    gradient view: backward copies the first gradient in and adds later ones
    in place (an array assigned to ``grad`` is copied in by ``Adam.step``).
    The view is ``grad_view``, or a buffer of its own; ``Adam`` takes only
    parameters laid out over one flat pair (``flat_views``)."""

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
    try:
        data = np.empty(sum(sizes), dtype=DTYPE)
    except ValueError:  # more values than one NumPy array can hold
        raise ConfigError(f"{sum(sizes)} parameters exceed NumPy's largest array") from None
    grad = np.zeros(data.size, dtype=DTYPE)  # calloc: pages stay unmapped until written
    cuts = np.cumsum(sizes)[:-1]
    views = [(d.reshape(shape), g.reshape(shape))
             for shape, d, g in zip(shapes, np.split(data, cuts), np.split(grad, cuts))]
    return data, grad, views


def flat_parameters(params):
    """``(data, grad)``: the flat vectors that the distinct ``params``' data
    and gradient views tile between them, as ``flat_views`` lays them out.
    Parameters laid out any other way, bare or a subset of a layout, raise
    UsageError."""
    params = list(params)
    sizes = [p.data.size for p in params]
    data, grad = (params[0].data.base, params[0]._grad_view.base) if params else (None, None)
    if all(isinstance(x, np.ndarray) and x.size == sum(sizes) for x in (data, grad)) and all(
            p.data.base is data and p._grad_view.base is grad for p in params):
        return data, grad
    raise UsageError("expected every parameter of one flat layout (tensor.flat_views)")


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
    return np.asarray(g.sum()).reshape(shape)


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


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)

    # closures keep the output array, not the output tensor: a tensor whose
    # backward refers to itself is a reference cycle that holds the graph
    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(e * g)

    return Tensor(e, parents=(a,), backward_fn=backward_fn)


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


def tmean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    if n == 0:
        raise UsageError("mean of an empty tensor")

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, float(g) / n, dtype=a.data.dtype))

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


class _Cast(Tensor):
    """``cast``'s output. A gradient passes straight on to the source as it
    arrives, which accumulates it in its own dtype: none is held here until
    the node's turn comes (a parameter's cast comes late), so each float32
    kernel gradient is freed as soon as its conv has made it.

    ``spectra``: this value's DFT slices as a tiled ``conv1d`` kernel, made
    by the first such call and reused until the node goes, or until that
    conv's input gradient has read them: a backward pass frees each as it
    goes. No op output is written in place, so they cannot go stale, as they
    could on a ``Parameter``, which the optimizer updates in place."""

    __slots__ = ("spectra",)

    def __init__(self, a, dtype):
        super().__init__(a.data.astype(dtype), parents=(a,))
        self.spectra = None

    def _accumulate(self, g):
        self._parents[0]._accumulate(g)


def cast(a, dtype) -> Tensor:
    """``a`` converted to ``dtype``, or ``a`` itself when it has that dtype
    already; the gradient goes back to ``a`` in ``a``'s dtype."""
    a, dtype = as_tensor(a), np.dtype(dtype)
    return a if a.data.dtype == dtype else _Cast(a, dtype)


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
    padded = np.full((b, left + t + right, c), fill, dtype=data.dtype)
    padded[:, left:left + t] = data
    return padded


#: conv1d GEMMs at most this many im2col rows at a time forward, and column
#: blocks of at most as many elements (ROW_BLOCK * K * C_in) backward
ROW_BLOCK = 1024

#: The tiled path's tile and gate. A tile is TILE padded input rows and
#: yields TILE - K + 1 outputs (24 at K = 9). The gate was set by timing both
#: paths, forward plus backward in float32 on 1 BLAS thread, at K = 3, 5, 7
#: and 9, C = 64 and 256, B = 4, 8 and 16 and T = 64, 128 and 256. With
#: K >= 7 and B * T_out >= 2048 the tiled path took 0.54-0.69 of im2col's
#: time; at K = 5 it took 0.84-1.21 and at K = 3 0.77-1.34. With fewer rows
#: the saving shrinks, and below 1,024 rows the kernel transform, then paid
#: per call (now once per cast), often made the tiled path the slower one.
#: Above K = 9 the upper bound TILE / 2 keeps at least 17 outputs a tile;
#: timed the same way at K = 10 to 16 (C = 64 and 256; B, T = 8, 256 /
#: 16, 128 / 16, 256), the tiled path took 0.37-0.73 of im2col's time.
TILE = 32
TILED_MIN_KERNEL = 7
TILED_MIN_CHANNELS = 64
TILED_MIN_ROWS = 2048

#: float32 calls of at least this many FLOPs (2 * B * T_out * K * C_in *
#: C_out) run each pass as two pieces (``_run``): the forward pass over two
#: halves of the windows (a tiled one so makes the input's transform, then
#: the products, then the outputs), the backward pass as the kernel gradient
#: and the input gradient, or as two runs of tap blocks when only the kernel
#: needs its gradient. Float64 calls never split.
SPLIT_MIN_FLOPS = 50_000_000


def _tile_bases(n):
    """``(P, R, Q)`` for tiles of ``n`` inputs, float32. Per DFT bin f the
    product X_f * conj(W_f) is taken in Gauss's three-product form, as three
    real slices: (a + b) c, a (d - c) and b (c + d), for X = a + ib and
    conj(W) = c + id. The two real bins (f = 0 and n / 2) need one slice.
    P (S, n) maps a tile to its slices a + b, a and b; R (S, n), cut to its
    first K columns, maps a kernel to its slices c, d - c and c + d; Q (n, S)
    maps the slice products to the tile's circular cross-correlation, whose
    first n - K + 1 rows are the valid outputs (overlap-save)."""
    P, R, Q = [], [], []
    for f in range(n // 2 + 1):
        theta = 2 * np.pi * f / n * np.arange(n)
        cos, sin = np.cos(theta), np.sin(theta)
        if f in (0, n / 2):  # X_f and W_f are real here
            P += [cos]
            R += [cos]
            Q += [cos / n]
        else:  # X_f = sum x (cos - i sin), and the inverse counts bin f twice
            P += [cos - sin, cos, -sin]
            R += [cos, sin - cos, cos + sin]
            Q += [2 / n * (cos - sin), -2 / n * sin, -2 / n * cos]
    return tuple(np.array(b, dtype=np.float32) for b in (P, R, np.transpose(Q)))


_TILE_P, _TILE_R, _TILE_Q = _tile_bases(TILE)


def _blocks(n, size):
    """The fewest runs ``(lo, hi)`` tiling ``range(n)`` with at most ``size``
    items each (at least one), as equal in length as possible."""
    parts = -(-n // max(1, size))
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def _second_cpu_free():
    """Whether a second thread has a CPU of its own: the process may run on
    two CPUs or more, and BLAS runs one thread per call. NumPy cannot report
    BLAS's thread count, so it is read as OpenBLAS reads it when it loads:
    the first positive OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS, parsed as C's ``atoi`` would, or else one per CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        number = re.match(r"\s*([-+]?\d+)", os.environ.get(name, ""))
        if number and int(number[1]) > 0:
            return cpus >= 2 and int(number[1]) == 1
    return False  # BLAS already runs a thread on every CPU


#: the thread class of ``_run``'s worker, or None where ``_second_cpu_free``
#: is not so
_WORKER = threading.Thread if _second_cpu_free() else None


def _run(pieces):
    """Run the pieces of one pass, callables of no arguments, and return
    once every one has ended. With ``_WORKER`` the last piece runs on a
    worker thread started for it, in a copy of the caller's context and so
    under its NumPy error state, while the caller runs the others in order;
    otherwise the caller runs them all. Which pieces a pass has depends on
    its shapes alone, so each makes the same NumPy and BLAS calls, and the
    same bits, wherever it runs. A piece calls NumPy and private helpers
    only, never a public function or ``_run``, and no two pieces write to
    the same elements. An error is raised after every piece has ended, the
    first in piece order."""
    if _WORKER is None or len(pieces) < 2:
        for piece in pieces:
            piece()
        return
    context, errors = contextvars.copy_context(), []

    def last():
        try:
            context.run(pieces[-1])
        except BaseException as error:  # raised in the caller
            errors.append(error)

    worker = _WORKER(target=last, name="tadkit")
    worker.start()
    try:
        for piece in pieces[:-1]:
            piece()
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _in_halves(fn, n, split):
    """``fn(lo, hi)`` over ``range(n)``: with ``split``, as two pieces of
    ``_run`` over two runs as equal as ``_blocks`` makes them (one when
    ``n`` is 1); without, as one call."""
    if split:
        _run([partial(fn, lo, hi) for lo, hi in _blocks(n, -(-n // 2))])
    else:
        fn(0, n)


def _im2col(padded, kernel_size, stride, out_len, taps=None):
    """(B * out_len, k * C) rows for the taps ``lo:hi`` (default all K); row
    (b, i) holds the input rows that output i of window b sees, tap-major
    like a (K, C, C_out) kernel."""
    b, _, c = padded.shape
    lo, hi = taps or (0, kernel_size)
    view = sliding_window_view(padded, kernel_size, axis=1)  # (B, L, C, K)
    view = view[:, : stride * (out_len - 1) + 1 : stride, :, lo:hi]
    return view.transpose(0, 1, 3, 2).reshape(b * out_len, (hi - lo) * c)


def _tile_spectra(padded, m, tiles, split):
    """(S, B * tiles, C) input slices of every tile: tile j of window b is
    padded rows j * m to j * m + TILE - 1. With ``split``, two pieces
    (``_in_halves``) make them for two halves of the windows."""
    b, _, c = padded.shape
    view = sliding_window_view(padded, TILE, axis=1)[:, : m * (tiles - 1) + 1 : m]
    spectra = np.empty((len(_TILE_P), b * tiles * c), dtype=padded.dtype)

    def piece(lo, hi):  # windows lo:hi
        rows = np.ascontiguousarray(view[lo:hi].transpose(3, 0, 1, 2)).reshape(TILE, -1)
        np.matmul(_TILE_P, rows, out=spectra[:, lo * tiles * c:hi * tiles * c])

    _in_halves(piece, b, split)
    return spectra.reshape(-1, b * tiles, c)


def _kernel_spectra(weights):
    """(S, C_in, C_out) slices of a (K, C_in, C_out) kernel."""
    k, c_in, c_out = weights.shape
    return (_TILE_R[:, :k] @ weights.reshape(k, -1)).reshape(-1, c_in, c_out)


def _prepared_spectra(kernel):
    """``_kernel_spectra`` of a kernel tensor, made once per cast: kept on a
    ``_Cast`` kernel (see there), made afresh for any other."""
    if not isinstance(kernel, _Cast):
        return _kernel_spectra(kernel.data)
    if kernel.spectra is None:
        kernel.spectra = _kernel_spectra(kernel.data)
    return kernel.spectra


def conv1d(x, kernel, bias, stride=1) -> Tensor:
    """Temporal cross-correlation of a (T, C_in) or (B, T, C_in) input with
    a (K, C_in, C_out) kernel; the output keeps the input's batch axis.

    Always same-padded: symmetric zeros with the extra zero on the right;
    output length is ceil(T / stride). Two paths compute it, and the graph
    keeps only the input either way:

    - im2col, for every float64 call, every strided call and every narrow
      or short one. The forward pass GEMMs the im2col matrix in row blocks
      of whole windows, the backward pass in column blocks of whole taps,
      adding the input gradient tap by tap; no pass holds the whole matrix.
      Blocks are as wide as ``ROW_BLOCK`` allows, not one tap: a GEMM over
      one narrow tap can take another BLAS kernel, which rounds differently.
    - Tiled, for float32 stride-1 calls with ``TILED_MIN_KERNEL <= K <=
      TILE / 2``, at least ``TILED_MIN_CHANNELS`` channels in and out, a
      whole tile of outputs and ``B * T_out >= TILED_MIN_ROWS``: in the
      default network, the 256-filter base convs at T = 256 and 128 of a
      16-window training minibatch or prediction stack. Overlap-save tiles
      of ``TILE`` inputs go through real DFT bases as GEMMs
      (``_tile_bases``): 47 slice products per 24 outputs in place of 9
      taps each at K = 9. The kernel's transform is made once per ``cast``
      (``_Cast``): a video's stacks and a minibatch's backward pass reuse
      it, and the input gradient frees it. The backward pass is each GEMM
      transposed plus an overlap-add, and it recomputes the input's
      transform. Its float32 error against the direct sum is ~1e-7 of the
      output's scale, like im2col's.
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

    out_len, left, right = _same_padding(T, K, stride)
    rows = B * out_len
    weights = kernel.data.reshape(K * c_in, c_out)
    dtype = np.result_type(xb, weights)  # float32 when input and kernel are
    m = TILE - K + 1  # outputs per tile, >= TILE / 2 wherever tiled holds
    tiled = (dtype == np.float32 and stride == 1 and TILED_MIN_KERNEL <= K <= TILE // 2
             and out_len >= m and min(c_in, c_out) >= TILED_MIN_CHANNELS
             and rows >= TILED_MIN_ROWS)
    split = dtype == np.float32 and 2 * rows * K * c_in * c_out >= SPLIT_MIN_FLOPS
    if tiled:  # pad to whole tiles; outputs past out_len are cut off
        tiles = -(-out_len // m)
        right = m * (tiles - 1) + TILE - left - T
        spectra = _tile_spectra(_pad_time(xb, left, right, 0.0), m, tiles, split)
        kernel_spectra = _prepared_spectra(kernel)
        products = np.empty((len(spectra), B * tiles, c_out), dtype=dtype)

        def multiply(lo, hi):  # windows lo:hi
            np.matmul(spectra[:, lo * tiles:hi * tiles], kernel_spectra,
                      out=products[:, lo * tiles:hi * tiles])

        _in_halves(multiply, B, split)
        del spectra, kernel_spectra  # before the outputs are made
        products = products.reshape(len(products), -1)
        out_data = np.empty((B, tiles, m, c_out), dtype=dtype)

        def transform(lo, hi):  # windows lo:hi
            y = _TILE_Q[:m] @ products[:, lo * tiles * c_out:hi * tiles * c_out]
            np.add(y.reshape(m, hi - lo, tiles, c_out).transpose(1, 2, 0, 3), bias.data,
                   out=out_data[lo:hi])

        _in_halves(transform, B, split)
        del products
        out_data = out_data.reshape(B, tiles * m, c_out)[:, :out_len]
    else:
        out_data = np.empty((B, out_len, c_out), dtype=dtype)

        def forward(first, last):  # windows first:last, in row blocks
            for lo, hi in _blocks(last - first, ROW_BLOCK // out_len):
                lo, hi = first + lo, first + hi
                np.matmul(_im2col(_pad_time(xb[lo:hi], left, right, 0.0), K, stride, out_len),
                          weights, out=out_data[lo:hi].reshape(-1, c_out))
            out_data[first:last] += bias.data

        _in_halves(forward, B, split)
    out_shape = (B, out_len, c_out) if batched else (out_len, c_out)

    def tiled_grads(g):
        """The tiled backward pass's two parts: the kernel gradient's and the
        input gradient's, each accumulating its gradient."""
        gt = np.zeros((B, tiles * m, c_out), dtype=dtype)
        gt[:, :out_len] = g.reshape(B, out_len, c_out)
        gt = np.ascontiguousarray(gt.reshape(B, tiles, m, c_out).transpose(2, 0, 1, 3))
        dproducts = (_TILE_Q[:m].T @ gt.reshape(m, -1)).reshape(-1, B * tiles, c_out)
        del gt

        def kernel_grad():
            spectra = _tile_spectra(_pad_time(xb, left, right, 0.0), m, tiles, False)
            dspectra = np.matmul(spectra.transpose(0, 2, 1), dproducts)
            del spectra
            kernel._accumulate((_TILE_R[:, :K].T @ dspectra.reshape(len(dspectra), -1))
                               .reshape(K, c_in, c_out))

        def input_grad():
            dspectra = np.matmul(dproducts, _prepared_spectra(kernel).transpose(0, 2, 1))
            if isinstance(kernel, _Cast):  # its last read: freed before earlier layers' steps
                kernel.spectra = None
            drows = (_TILE_P.T @ dspectra.reshape(len(dspectra), -1)).reshape(TILE, B, tiles, c_in)
            del dspectra
            pg = np.zeros((B, left + T + right, c_in), dtype=dtype)
            for i in range(TILE):  # row i of tile j is padded row j * m + i
                pg[:, i:i + m * tiles:m] += drows[i]
            x._accumulate(pg[:, left:left + T].reshape(x.data.shape))

        return kernel_grad, input_grad

    def im2col_grads(g):
        """As ``tiled_grads``, for an im2col call. When the kernel alone needs
        its gradient (``base.0``) and the call splits, two pieces fill it,
        each a run of its tap blocks."""
        g = g.reshape(rows, c_out)
        taps = _blocks(K, ROW_BLOCK * K // max(rows, 1))  # <= ROW_BLOCK * K * c_in elements

        def kernel_grad():
            padded = _pad_time(xb, left, right, 0.0)
            dk = np.empty((K * c_in, c_out), dtype=dtype)

            def fill(first, last):  # tap blocks first:last
                for lo, hi in taps[first:last]:
                    np.matmul(_im2col(padded, K, stride, out_len, (lo, hi)).T, g,
                              out=dk[lo * c_in:hi * c_in])

            # with the input gradient it is a piece of ``_run``, which splits no further
            _in_halves(fill, len(taps), split and not x.requires_grad)
            kernel._accumulate(dk.reshape(K, c_in, c_out))

        def input_grad():
            pg = np.zeros((B, left + T + right, c_in), dtype=dtype)
            for lo, hi in taps:
                dcols = (g @ weights[lo * c_in:hi * c_in].T).reshape(B, out_len, hi - lo, c_in)
                for j in range(lo, hi):  # tap j of output i reads padded row j + stride * i
                    pg[:, j:j + stride * out_len:stride] += dcols[:, :, j - lo]
                del dcols  # before the next block is made
            x._accumulate(pg[:, left:left + T].reshape(x.data.shape))

        return kernel_grad, input_grad

    def backward_fn(g):
        if bias.requires_grad:
            bias._accumulate(g.reshape(rows, c_out).sum(axis=0))
        kernel_grad, input_grad = (tiled_grads if tiled else im2col_grads)(g)
        if kernel.requires_grad and x.requires_grad and split:
            _run([kernel_grad, input_grad])
            return
        if kernel.requires_grad:  # its memory is freed before the input gradient's is made
            kernel_grad()
        if x.requires_grad:
            input_grad()

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
