"""Finite-difference validation of analytic gradients.

Central differences with a fixed step, compared against the gradients the
graph produces, with the relative error normalized by max(1, |numeric|).
Intended for small configurations computing in float64 (the default of
``Network.decode``, and what ``fixed_selection_loss`` decodes in): a
float32 loss is too coarse for a 1e-5 step. The float32 path that
``train`` runs is checked against the float64 gradient instead
(``tests/test_training.py::TestFloat32Compute``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError
from .tensor import Parameter, Tensor, no_grad


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    per_param: dict


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = 1e-5,
) -> GradCheckResult:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must recompute the loss from the current parameter values
    on every call: the first call's graph is differentiated, and the rest,
    two per parameter coordinate, run under ``no_grad()``. Parameters and
    the gradients of every parameter the loss reaches are restored
    bit-exactly, so the check never mutates them.
    """
    params = list(params)
    originals = [p.data.copy() for p in params]
    loss = loss_fn()
    touched = list({id(p): p for p in params + _reached_parameters(loss)}.values())
    # copies: the check's own backward pass rewrites the gradient views
    saved_grads = [None if p.grad is None else p.grad.copy() for p in touched]
    try:
        for p in touched:
            p.grad = None
        loss.backward()
        analytic = {}
        for p in params:
            g = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite analytic gradient for parameter {p.name!r}")
            analytic[p.name] = g

        worst = 0.0
        worst_param = ""
        per_param = {}
        for p, orig in zip(params, originals):
            flat = p.data.reshape(-1)
            numeric = np.zeros_like(flat)
            with no_grad():  # the loss's value is all a difference needs
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + step
                    hi = float(loss_fn().data)
                    flat[i] = saved - step
                    lo = float(loss_fn().data)
                    flat[i] = saved
                    numeric[i] = (hi - lo) / (2.0 * step)
            a = analytic[p.name].reshape(-1)
            rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(numeric))
            err = float(rel.max()) if rel.size else 0.0
            per_param[p.name] = err
            if err > worst:
                worst, worst_param = err, p.name
        return GradCheckResult(worst, worst_param, per_param)
    finally:
        for p, orig in zip(params, originals):
            p.data[...] = orig
        for p, g in zip(touched, saved_grads):
            p.grad = g


def _reached_parameters(loss):
    """Every Parameter in the graph behind ``loss``."""
    found, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Parameter):
                found.append(node)
            stack.extend(node._parents or ())  # a consumed node has None
    return found
