"""Prediction-time fusion, non-maximum suppression, and video inference.

Prediction runs as one array pipeline per video. The parameters are cast
to float32 once per video; windows are decoded over that copy in stacks of
DECODE_STACK, one batched float32 pass per stack (one cast of its input)
under ``no_grad()``. A full stack has rows enough for the tiled conv path
(``tensor.conv1d``) in the wide base convs, and the cast copy keeps their
kernel transforms for the whole video. The anchors of all windows become
one row each of per-video arrays: class probabilities (N, K+1), a NumPy
softmax of the decoded logits, overlap (N,), and start/end in video
snippets. Each row's class probabilities are combined with the mean
snippet scores over its span (summed over blocks once per video, averaged
over rows and blocks, read from one prefix-sum table) and gated by the
predicted overlap:

    base = [class probabilities if enabled] + [mean snippet scores if enabled]
    fused = overlap * base            (when overlap gating is enabled)

Every score block holds K+1 columns in category order, background first,
so the blocks are summed by position. The winning category is the argmax
over action columns (background is excluded); its fused score is the
confidence. Per-category greedy NMS with threshold 0.1 removes overlapping
duplicates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Detection, ScoreSequence, rank_order, slide_windows
from .errors import ConfigError, DataError, NumericError, UsageError
from .matching import segment_iou_matrix
from .model import Network
from .tensor import no_grad

PREDICTION_OVERLAP = 0.25  # window overlap fraction at inference time
#: windows decoded together as one batch at inference time; a full stack
#: gives the default network's base.1 4,096 rows and base.2 2,048, both at
#: least ``tensor.TILED_MIN_ROWS``
DECODE_STACK = 16


@dataclass(frozen=True)
class FusionConfig:
    use_class: bool = True
    use_sas: bool = True     # mean snippet scores over the candidate span
    use_over: bool = True    # gate by predicted overlap
    nms_threshold: float = 0.1

    def __post_init__(self):
        if not (self.use_class or self.use_sas):
            raise ConfigError("fusion needs class scores or snippet scores (or both)")
        if not (0 < self.nms_threshold <= 1):
            raise ConfigError(f"nms_threshold must be in (0, 1], got {self.nms_threshold}")


def _check_blocks(seq: ScoreSequence, categories):
    """Every block holds its columns in category order, background first,
    so it must be K+1 wide."""
    k1 = len(categories) + 1
    for block in seq.blocks:
        if block.width != k1:
            raise DataError(f"block {block.name!r} has width {block.width}, cannot align "
                            f"to background plus {k1 - 1} categories")


def block_sums(seq: ScoreSequence, categories):
    """The (T, K+1) sum of the score blocks, read by position: column j of
    every block adds into category column j, blocks left to right."""
    _check_blocks(seq, categories)
    k1 = len(categories) + 1
    # one in-place add per block: 3x faster than a reshaped sum(axis=1), same order
    sums = seq.matrix[:, :k1].copy()
    for first in range(k1, seq.dim, k1):
        sums += seq.matrix[:, first:first + k1]
    return sums


def mean_snippet_scores(seq: ScoreSequence, starts, ends, categories):
    """Mean per-category snippet score over each span [starts[i], ends[i]).

    Returns an (N, K+1) array. Scores are summed across blocks per snippet
    (``block_sums``), then averaged over the covered snippet rows and divided
    by the number of blocks. Each span is clamped to the video; rows
    floor(start)..ceil(end) are included. Every span is read from one
    prefix-sum table over the block sums, so a span costs O(1) whatever its
    length. An empty range yields a zero row and a warning.
    """
    sums = block_sums(seq, categories)
    t = seq.num_snippets
    starts = np.maximum(np.asarray(starts, dtype=float), 0.0)
    ends = np.minimum(np.asarray(ends, dtype=float), float(t))
    lo = np.floor(starts).astype(int)
    hi = np.ceil(ends).astype(int)
    empty = hi <= lo
    for i in np.flatnonzero(empty):
        warnings.warn(f"empty snippet range [{starts[i]}, {ends[i]}) in {seq.video_id!r}")

    table = np.zeros((t + 1, sums.shape[1]))
    np.cumsum(sums, axis=0, out=table[1:])

    lo = np.where(empty, 0, lo)
    hi = np.where(empty, 0, hi)
    rows = np.maximum(hi - lo, 1)[:, None]
    return (table[hi] - table[lo]) / rows / len(seq.blocks)


def softmax(logits):
    """Row-wise softmax of an (..., K+1) array: subtract the row maximum,
    exponentiate, divide by the row sum."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def fuse_scores(class_scores, overlap, mean_scores, config: FusionConfig):
    """Fuse N candidates' scores; returns ``(category, confidence)``.

    ``class_scores`` (N, K+1) must already be softmax-normalized;
    ``overlap`` is (N,) and ``mean_scores`` (N, K+1). ``category`` (N,) is
    the argmax of the fused (N, K+1) scores over action columns only, ties
    going to the lower category index; ``confidence`` (N,) is the fused
    score of that category.
    """
    class_scores = np.asarray(class_scores, dtype=float)
    mean_scores = np.asarray(mean_scores, dtype=float)
    if mean_scores.shape != class_scores.shape:
        raise UsageError(
            f"score shapes differ: {mean_scores.shape} vs {class_scores.shape}"
        )
    base = np.zeros_like(mean_scores)
    if config.use_class:
        base = base + class_scores
    if config.use_sas:
        base = base + mean_scores
    fused = np.asarray(overlap, dtype=float)[:, None] * base if config.use_over else base
    category = 1 + np.argmax(fused[:, 1:], axis=1)
    confidence = fused[np.arange(len(fused)), category]
    return category, confidence


def nms(detections, threshold):
    """Greedy per-category suppression: visit detections by descending
    confidence (ties: earlier start, then input order) and drop any
    same-category detection whose IoU with a kept one exceeds the
    threshold. Kept detections return in input order. Every detection
    must have positive width."""
    if not (0 < threshold <= 1):
        raise ConfigError(f"nms threshold must be in (0, 1], got {threshold}")
    starts = np.array([d.start for d in detections], dtype=float)
    ends = np.array([d.end for d in detections], dtype=float)
    if np.any(ends <= starts):
        raise UsageError("nms requires detections of positive width")
    confidence = np.array([d.confidence for d in detections], dtype=float)
    categories = np.array([d.category for d in detections])
    order = rank_order(confidence, starts)
    keep = np.zeros(len(detections), dtype=bool)
    for cat in np.unique(categories):
        todo = order[categories[order] == cat]
        while todo.size:
            best, todo = todo[0], todo[1:]
            keep[best] = True
            iou = segment_iou_matrix(starts[best:best + 1], ends[best:best + 1],
                                     starts[todo], ends[todo])[0]
            todo = todo[iou <= threshold]
    return [detections[i] for i in np.flatnonzero(keep)]


def predict_video(seq: ScoreSequence, network: Network, categories, config: FusionConfig):
    """Detect actions in one video.

    The parameters are cast to float32 once for the whole video, and the
    tiled convs transform their kernels once on that copy. Windows at 25%
    overlap are decoded over it in stacks of DECODE_STACK (the last may be
    shorter, and too short to tile), each as one float32 batch with no graph
    and one cast of its input; their anchors are mapped to video coordinates,
    clipped to [0, T] and gathered into per-video arrays in
    window-then-anchor order. Zero-width rows are dropped, the rest are
    fused, suppressed per category, and returned sorted by descending
    confidence. A non-finite activation, from a parameter that overflows
    float32 too, raises NumericError naming the video and the first window
    start of its stack.
    """
    if len(categories) != network.config.num_classes:
        raise UsageError(
            f"network predicts {network.config.num_classes} categories, "
            f"annotation space has {len(categories)}"
        )
    if seq.dim != network.config.feature_dim:
        raise UsageError(
            f"sequence {seq.video_id!r} has dim {seq.dim}, network expects "
            f"{network.config.feature_dim}"
        )
    t_w = network.config.window_length
    t_v = seq.num_snippets
    _check_blocks(seq, categories)  # a malformed video fails before any decode
    windows = slide_windows(seq, None, t_w, PREDICTION_OVERLAP, keep_empty=True)

    probs, overlap, starts, ends = [], [], [], []
    # once per video, as nothing changes the parameters in between, and with
    # them the tiled kernels' transforms; a value beyond float32's range
    # casts to inf, silently, and the first stack raises
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        params = network.cast_parameters("float32")
    for first in range(0, len(windows), DECODE_STACK):
        stack = windows[first:first + DECODE_STACK]
        # no graph, and no NumPy warning: a non-finite activation raises below
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            try:
                decoded = network.decode(np.stack([w.features for w in stack]), params)
                probs.append(softmax(decoded.class_logits.data))
            except NumericError as exc:
                raise NumericError(f"video {seq.video_id!r}, windows from snippet "
                                   f"{stack[0].start}: {exc}") from exc
        overlap.append(decoded.overlap.data)
        origin = np.array([[w.start] for w in stack], dtype=float)  # (B, 1)
        centers = origin + decoded.centers.data * t_w
        widths = decoded.widths.data * t_w
        starts.append(np.clip(centers - widths / 2, 0.0, t_v))
        ends.append(np.clip(centers + widths / 2, 0.0, t_v))
    # (B, N, ...) stacks -> rows in window-then-anchor order
    starts, ends = np.concatenate(starts).ravel(), np.concatenate(ends).ravel()
    live = ends - starts > 0
    starts, ends = starts[live], ends[live]
    probs = np.concatenate(probs).reshape(len(live), -1)[live]
    overlap = np.concatenate(overlap).ravel()[live]

    mean_scores = mean_snippet_scores(seq, starts, ends, categories)
    category, confidence = fuse_scores(probs, overlap, mean_scores, config)
    candidates = [
        Detection(seq.video_id, s, e, c, f)
        for s, e, c, f in zip(starts.tolist(), ends.tolist(),
                              category.tolist(), confidence.tolist())
    ]
    kept = nms(candidates, config.nms_threshold)
    order = rank_order([d.confidence for d in kept], [d.start for d in kept])
    return [kept[i] for i in order]
