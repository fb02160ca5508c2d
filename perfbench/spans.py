"""Span recorder that wraps tadkit's public functions from outside.

``Tracer.install()`` replaces every public function and public method of
the traced modules, wherever a tadkit module holds a binding to it, with a
wrapper that appends one span (name, start, end, parent, operation id) to
an in-memory list. Forward calls of ``conv1d`` and ``maxpool1d`` also wrap
the backward closure they attach to their output, so backward time is
split by op. ``Tensor.backward`` counts the graph nodes reachable from the
loss before it runs. Nothing is written until ``write()`` is called at the
end of a run. ``uninstall()`` restores every original binding.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time

TRACED_MODULES = (
    "tensor", "model", "matching", "losses", "optim",
    "training", "inference", "evaluation", "io", "data",
)
BINDING_MODULES = TRACED_MODULES + ("cli", "gradcheck")

# ``nms`` calls ``iou_1d`` once per (candidate, kept) pair, millions of times
# on a long video; a span per call would cost more than the IoU itself and
# swamp the trace, so that one binding stays unwrapped and its time counts
# as self time of ``inference.nms``.
UNWRAPPED_BINDINGS = {("inference", "iou_1d")}

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _conv_flops(x, kernel, out):
    """Multiply-adds x 2 of the forward pass, from the call's shapes."""
    k, c_in, c_out = kernel.data.shape
    return 2 * out.data.shape[0] * k * c_in * c_out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, extra]
        self.op = "setup"
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, extra=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """``hook(rec, args, kwargs, result)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return traced

    def _wrap_backward(self, out, name, flops):
        inner = out._backward_fn

        def backward_fn(g):
            rec = self._open(name, {"flops": flops})
            try:
                inner(g)
            finally:
                self._close(rec)

        out._backward_fn = backward_fn

    # -- hooks for the ops whose backward time is split out ----------------

    def _conv_hook(self, rec, args, kwargs, out):
        x, kernel = args[0], args[1]
        flops = _conv_flops(x, kernel, out)
        rec[EXTRA] = {"flops": flops}
        bwd = flops * (int(getattr(kernel, "requires_grad", False))
                       + int(getattr(x, "requires_grad", False)))
        self._wrap_backward(out, "tensor.conv1d.backward", bwd)

    def _pool_hook(self, rec, args, kwargs, out):
        self._wrap_backward(out, "tensor.maxpool1d.backward", 0)

    def _count_hook(self, rec, args, kwargs, result):
        rec[EXTRA] = {"n": len(result)}

    def _nms_hook(self, rec, args, kwargs, result):
        rec[EXTRA] = {"n": len(args[0])}

    def _traced_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def backward(loss):
            nodes = _reachable_nodes(loss)
            rec = tracer._open("tensor.Tensor.backward", {"n": nodes})
            try:
                return fn(loss)
            finally:
                tracer._close(rec)

        return backward

    # -- installation ------------------------------------------------------

    def install(self, holders=()):
        """Wrap every public function and method of the traced modules.
        ``holders`` are further modules (the benchmark's own) whose imported
        bindings are replaced too, so their calls into tadkit are recorded."""
        mods = {name: importlib.import_module(f"tadkit.{name}") for name in BINDING_MODULES}
        mods["__init__"] = importlib.import_module("tadkit")
        mods.update((m.__name__, m) for m in holders)
        hooks = {
            "tensor.conv1d": self._conv_hook,
            "tensor.maxpool1d": self._pool_hook,
            "inference.predict_video": self._count_hook,
            "inference.nms": self._nms_hook,
        }
        for short in TRACED_MODULES:
            module = mods[short]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped = self.wrap(name, obj, hooks.get(name))
                    for holder_name, holder in mods.items():
                        for hattr, value in list(vars(holder).items()):
                            if value is obj and (holder_name, hattr) not in UNWRAPPED_BINDINGS:
                                self._set(holder, hattr, wrapped)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if (short, attr, mname) == ("tensor", "Tensor", "backward"):
                            wrapped = self._traced_backward(meth)
                        else:
                            wrapped = self.wrap(f"{short}.{attr}.{mname}", meth)
                        self._set(obj, mname, wrapped)

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def write(self, path):
        """One JSON object per span, gzip-compressed (a traced
        ``pipeline_small`` run records about a million spans)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def _reachable_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# -- per-layer metrics ------------------------------------------------------

# metric name -> span names whose inclusive time it sums
INCLUSIVE = {
    "tensor.conv1d_fwd_ms": ("tensor.conv1d",),
    "tensor.conv1d_bwd_ms": ("tensor.conv1d.backward",),
    "tensor.maxpool1d_fwd_ms": ("tensor.maxpool1d",),
    "tensor.maxpool1d_bwd_ms": ("tensor.maxpool1d.backward",),
    "model.decode_ms": ("model.Network.decode",),
    "model.load_checkpoint_ms": ("model.load_checkpoint",),
    "model.save_checkpoint_ms": ("model.save_checkpoint",),
    "matching.match_anchors_ms": ("matching.match_anchors",),
    "matching.hard_negative_mine_ms": ("matching.hard_negative_mine",),
    "training.batch_build_ms": ("training.batch_from_selection",),
    "losses.total_loss_ms": ("losses.total_loss",),
    "optim.adam_step_ms": ("optim.Adam.step",),
    "inference.mean_snippet_scores_ms": ("inference.mean_snippet_scores",),
    "inference.fuse_scores_ms": ("inference.fuse_scores",),
    "inference.nms_ms": ("inference.nms",),
    "evaluation.evaluate_ms": ("evaluation.evaluate",),
    "io.load_sas_features_ms": ("io.load_sas_features",),
    "io.save_sas_features_ms": ("io.save_sas_features",),
    "io.json_ms": ("io.save_annotations", "io.load_annotations",
                   "io.save_predictions", "io.load_predictions"),
    "data.synth_generate_ms": ("data.synth_generate",),
    "data.slide_windows_ms": ("data.slide_windows",),
}

PER_LAYER = (
    "tensor.conv1d_fwd_ms", "tensor.conv1d_bwd_ms", "tensor.conv1d_gflops",
    "tensor.maxpool1d_fwd_ms", "tensor.maxpool1d_bwd_ms",
    "tensor.backward_other_ms", "tensor.graph_nodes",
    "model.decode_ms", "model.load_checkpoint_ms", "model.save_checkpoint_ms",
    "matching.match_anchors_ms", "matching.hard_negative_mine_ms",
    "training.batch_build_ms", "losses.total_loss_ms",
    "optim.adam_step_ms", "training.step_ms", "training.other_ms",
    "inference.decode_ms", "inference.mean_snippet_scores_ms",
    "inference.fuse_scores_ms", "inference.nms_ms", "inference.other_ms",
    "inference.candidates", "inference.detections",
    "evaluation.evaluate_ms", "io.load_sas_features_ms", "io.save_sas_features_ms",
    "io.json_ms", "data.synth_generate_ms", "data.slide_windows_ms",
)

UNITS = {"tensor.conv1d_gflops": "GFLOP/s", "tensor.graph_nodes": "count",
         "inference.candidates": "count", "inference.detections": "count"}


def _op_metrics(spans, indices):
    """Every per-layer figure for the spans of one operation id."""
    children = {}
    for i in indices:
        parent = spans[i][PARENT]
        if parent is not None:
            children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_ms(i):
        return 1e3 * (dur(i) - sum(dur(c) for c in children.get(i, ())))

    by_name = {}
    for i in indices:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def names(*ns):
        return [i for n in ns for i in by_name.get(n, ())]

    out = {m: 1e3 * sum(dur(i) for i in names(*ns)) for m, ns in INCLUSIVE.items()}

    conv = names("tensor.conv1d", "tensor.conv1d.backward")
    conv_s = sum(dur(i) for i in conv)
    conv_flops = sum(spans[i][EXTRA]["flops"] for i in conv)
    out["tensor.conv1d_gflops"] = conv_flops / conv_s / 1e9 if conv_s > 0 else 0.0
    backward = names("tensor.Tensor.backward")
    out["tensor.backward_other_ms"] = sum(self_ms(i) for i in backward)
    out["tensor.graph_nodes"] = (
        statistics.median(spans[i][EXTRA]["n"] for i in backward) if backward else 0
    )

    predict = names("inference.predict_video")
    out["inference.decode_ms"] = 1e3 * sum(
        dur(c) for i in predict for c in children.get(i, ())
        if spans[c][NAME] == "model.Network.decode"
    )
    out["inference.other_ms"] = sum(self_ms(i) for i in predict)
    out["inference.candidates"] = sum(spans[i][EXTRA]["n"] for i in names("inference.nms"))
    out["inference.detections"] = sum(spans[i][EXTRA]["n"] for i in predict)

    step_ms = other_ms = 0.0
    for t in names("training.train"):
        kids = children.get(t, ())
        starts = [spans[c][START] for c in kids if spans[c][NAME] == "optim.Adam.zero_grad"]
        bounds = list(zip(starts, starts[1:] + [spans[t][END]]))
        for lo, hi in bounds:
            inside = [c for c in kids if lo <= spans[c][START] < hi]
            ckpt = sum(dur(c) for c in inside if spans[c][NAME] == "model.save_checkpoint")
            timed = sum(dur(c) for c in inside if spans[c][NAME] != "optim.Adam.zero_grad")
            step_ms += 1e3 * (hi - lo - ckpt)
            other_ms += 1e3 * (hi - lo - timed)
    out["training.step_ms"] = step_ms
    out["training.other_ms"] = other_ms
    return out


def per_layer_metrics(spans):
    """Median over timed rounds of each round's figure. A layer that never
    runs in a timed round (set-up work such as input generation) is taken
    as the median over the set-up repetitions instead."""
    groups = {}
    for i, rec in enumerate(spans):
        groups.setdefault(rec[OP], []).append(i)
    rounds = [_op_metrics(spans, ix) for op, ix in groups.items() if op.startswith("round")]
    setups = [_op_metrics(spans, ix) for op, ix in groups.items() if op.startswith("setup")]
    result = {}
    for name in PER_LAYER:
        values = [r[name] for r in rounds]
        if not any(values):
            values = [s[name] for s in setups] or [0.0]
        result[name] = {"value": float(statistics.median(values)),
                        "unit": UNITS.get(name, "ms")}
    return result
