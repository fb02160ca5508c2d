"""Adam over flat parameter vectors and fan-based uniform (Xavier) init."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, UsageError
from .tensor import DTYPE, flat_parameters


def _fans(shape) -> tuple[int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 3:  # (K, C_in, C_out) temporal conv kernel
        k, c_in, c_out = shape
        return k * c_in, k * c_out
    raise ConfigError(f"no fan rule for shape {shape}")


def xavier_init(shape, seed, out=None) -> np.ndarray:
    """Uniform values on [-a, a] with a = sqrt(6 / (fan_in + fan_out)),
    drawn in place into ``out`` (C-contiguous float64) when given."""
    fan_in, fan_out = _fans(shape)
    if fan_in == 0 or fan_out == 0:
        raise ConfigError(f"zero fan for shape {tuple(shape)}")
    a = math.sqrt(6.0 / (fan_in + fan_out))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = np.empty(tuple(shape), dtype=DTYPE) if out is None else out
    rng.random(out=out)  # -a + 2a u, the bits Generator.uniform(-a, a) gives
    out *= 2.0 * a
    out -= a
    return out


#: elements per block of ``Adam.step``: a block's six 256 KB rows stay in cache
BLOCK = 32768


class Adam:
    """Adam with bias correction (Kingma & Ba); deterministic given identical
    inputs. ``step`` is one in-place pass, in blocks of ``BLOCK``, over flat
    parameter, gradient and moment vectors (``tensor.flat_parameters``), in
    the per-parameter textbook update's operation order and bit-identical to it."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("parameter names must be unique")
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.learning_rate, self.step_count = learning_rate, 0
        self.data, self.grad = flat_parameters(self.params)
        self.moments = np.zeros((2, self.data.size), dtype=DTYPE)  # first, second

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise UsageError(f"adam step on unpopulated gradient for {p.name!r}")
            if p.grad is not p._grad_view:  # assigned rather than accumulated
                p._grad_view[...] = p.grad
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        scratch = np.empty((2, BLOCK), dtype=DTYPE)
        for lo in range(0, self.data.size, BLOCK):
            p, g, m, v = (x[lo:lo + BLOCK] for x in (self.data, self.grad, *self.moments))
            a, b = scratch[:, :p.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(np.divide(m, bc1, out=a), self.learning_rate, out=a)
            np.sqrt(np.divide(v, bc2, out=b), out=b)
            b += self.epsilon
            p -= np.divide(a, b, out=a)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
