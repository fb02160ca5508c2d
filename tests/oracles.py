"""Slow, obviously-correct reference implementations used to cross-check
the library. Everything here is nested loops and direct definitions; no
code is shared with the package paths under test. The one graph op here,
``tsum``, is the tests' reducer for hand-built losses."""

import numpy as np

from tadkit.tensor import Tensor, as_tensor


def direct_conv1d(x, kernel, bias, stride=1, padding="same"):
    """Cross-correlation by explicit summation."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    t, c_in = x.shape
    k, _, c_out = kernel.shape
    if padding == "same":
        out_len = -(-t // stride)
        total = max((out_len - 1) * stride + k - t, 0)
        left = total // 2
    else:
        out_len = (t - k) // stride + 1
        left = 0
    out = np.zeros((out_len, c_out))
    for i in range(out_len):
        for o in range(c_out):
            acc = bias[o]
            for j in range(k):
                src = i * stride - left + j
                if 0 <= src < t:
                    for c in range(c_in):
                        acc += x[src, c] * kernel[j, c, o]
            out[i, o] = acc
    return out


def direct_conv1d_grads(x, kernel, g, stride=1, padding="same"):
    """Input and kernel gradients of sum(direct_conv1d(x, kernel, b) * g),
    by explicit summation over every (output, tap) pair."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    t, c_in = x.shape
    k, _, c_out = kernel.shape
    if padding == "same":
        out_len = -(-t // stride)
        left = max((out_len - 1) * stride + k - t, 0) // 2
    else:
        out_len = (t - k) // stride + 1
        left = 0
    dx = np.zeros_like(x)
    dk = np.zeros_like(kernel)
    for i in range(out_len):
        for j in range(k):
            src = i * stride - left + j
            if 0 <= src < t:
                for c in range(c_in):
                    for o in range(c_out):
                        dx[src, c] += kernel[j, c, o] * g[i, o]
                        dk[j, c, o] += x[src, c] * g[i, o]
    return dx, dk


def direct_maxpool1d(x, window, stride):
    """Windowed max by explicit scanning; first index wins ties."""
    x = np.asarray(x, dtype=float)
    t, c = x.shape
    out_len = -(-t // stride)
    total = max((out_len - 1) * stride + window - t, 0)
    left = total // 2
    out = np.empty((out_len, c))
    argmax = np.empty((out_len, c), dtype=int)
    for i in range(out_len):
        for ch in range(c):
            best, best_src = -np.inf, -1
            for j in range(window):
                src = i * stride - left + j
                if 0 <= src < t and x[src, ch] > best:
                    best, best_src = x[src, ch], src
            out[i, ch] = best
            argmax[i, ch] = best_src
    return out, argmax


def scalar_adam_trace(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Parameter values after applying Adam to a fixed gradient sequence."""
    x, m, v = x0, 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(x)
    return trace


def interval_iou(a, b):
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def brute_match(anchors, targets, threshold=0.5):
    """(label, best_iou, target) per anchor, exact ties broken by earliest
    start then lowest category, examined one candidate at a time."""
    out = []
    for a in anchors:
        best = None
        for t in targets:
            iou = interval_iou((a.start, a.end), (t.start, t.end))
            if best is None or iou > best[0]:
                best = (iou, t)
            elif iou == best[0]:
                if (t.start, t.category) < (best[1].start, best[1].category):
                    best = (iou, t)
        iou, t = best
        label = t.category if iou > threshold else 0
        out.append((label, iou, t))
    return out


def brute_nms(detections, threshold):
    """Quadratic per-category suppression; returns kept input indices."""
    kept = []
    categories = sorted({d.category for d in detections})
    for cat in categories:
        idx = [i for i, d in enumerate(detections) if d.category == cat]
        idx.sort(key=lambda i: (-detections[i].confidence, detections[i].start, i))
        chosen = []
        for i in idx:
            suppressed = False
            for j in chosen:
                iou = interval_iou(
                    (detections[i].start, detections[i].end),
                    (detections[j].start, detections[j].end),
                )
                if iou > threshold:
                    suppressed = True
                    break
            if not suppressed:
                chosen.append(i)
        kept.extend(chosen)
    return sorted(kept)


def brute_average_precision(predictions, ground_truths, threshold):
    """All-point interpolated AP via per-true-positive recall increments."""
    order = sorted(
        range(len(predictions)),
        key=lambda i: (-predictions[i].confidence, predictions[i].start, i),
    )
    matched = set()
    hits = []
    for i in order:
        det = predictions[i]
        best_iou, best_g = 0.0, None
        for g, (vid, s, e) in enumerate(ground_truths):
            if g in matched or vid != det.video_id:
                continue
            iou = interval_iou((det.start, det.end), (s, e))
            if iou > best_iou:
                best_iou, best_g = iou, g
        if best_g is not None and best_iou >= threshold:
            matched.add(best_g)
            hits.append(True)
        else:
            hits.append(False)
    if not ground_truths or not hits:
        return 0.0
    precisions = []
    tp = 0
    for rank, hit in enumerate(hits, start=1):
        tp += hit
        precisions.append(tp / rank)
    ap = 0.0
    for rank, hit in enumerate(hits):
        if hit:
            ap += max(precisions[rank:]) / len(ground_truths)
    return ap


def direct_mean_scores(matrix, block_widths, alignments, start, end, k1):
    """Per-category mean over [start, end): floor/ceil row coverage, scores
    summed across blocks, averaged over rows then over blocks."""
    t = matrix.shape[0]
    lo = int(np.floor(max(start, 0.0)))
    hi = int(np.ceil(min(end, t)))
    rows = range(lo, hi)
    out = np.zeros(k1)
    for cols, offset in zip(alignments, np.cumsum([0] + list(block_widths))[:-1]):
        for j, det_col in enumerate(cols):
            total = 0.0
            for r in rows:
                total += matrix[r, offset + j]
            out[det_col] += total / len(rows)
    return out / len(block_widths)


def numeric_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f(x)
        flat[i] = keep - h
        lo = f(x)
        flat[i] = keep
        out[i] = (hi - lo) / (2 * h)
    return g


def tsum(a) -> Tensor:
    """The sum of every element, as a graph node: its gradient is ``g``
    broadcast to the input's shape."""
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, float(g), dtype=a.data.dtype))

    return Tensor(a.data.sum(), parents=(a,), backward_fn=backward_fn)
