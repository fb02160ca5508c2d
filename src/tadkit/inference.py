"""Prediction-time fusion, non-maximum suppression, and video inference.

Prediction runs as one array pipeline per video. Windows are decoded in
stacks of DECODE_STACK, one batched pass per stack under ``no_grad()``,
and the anchors of all windows become one row each of per-video arrays:
softmax class probabilities (N, K+1), overlap (N,), and start/end in
video snippets. Each row's class probabilities are combined with the mean
snippet scores over its span (summed over blocks, averaged over rows and
blocks, read from one prefix-sum table) and gated by the predicted
overlap:

    base = [class probabilities if enabled] + [mean snippet scores if enabled]
    fused = overlap * base            (when overlap gating is enabled)

The winning category is the argmax over action columns (background is
excluded); its fused score is the confidence. Per-category greedy NMS
with threshold 0.1 removes overlapping duplicates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Detection, ScoreSequence, slide_windows
from .errors import ConfigError, DataError, NumericError, UsageError
from .matching import segment_iou_matrix
from .model import Network
from .tensor import no_grad, softmax

PREDICTION_OVERLAP = 0.25  # window overlap fraction at inference time
DECODE_STACK = 4  # windows decoded together as one batch at inference time


@dataclass(frozen=True)
class FusionConfig:
    use_class: bool = True
    use_sas: bool = True     # mean snippet scores over the candidate span
    use_over: bool = True    # gate by predicted overlap
    nms_threshold: float = 0.1
    suppress_background: bool = False

    def __post_init__(self):
        if not (self.use_class or self.use_sas):
            raise ConfigError("fusion needs class scores or snippet scores (or both)")
        if not (0 < self.nms_threshold <= 1):
            raise ConfigError(f"nms_threshold must be in (0, 1], got {self.nms_threshold}")


def block_alignment(seq: ScoreSequence, categories):
    """Map each block's columns onto the detection category space.

    Returns one integer array per block: entry j is the detection column
    (0 = background) fed by the block's column j. Blocks must either name
    their columns or already be ordered background-first over the same
    categories.
    """
    wanted = ["background"] + list(categories)
    out = []
    for block in seq.blocks:
        if block.class_names is not None:
            if sorted(block.class_names) != sorted(wanted):
                raise DataError(
                    f"block {block.name!r} classes {list(block.class_names)} do not "
                    f"cover categories {wanted}"
                )
            out.append(np.array([wanted.index(n) for n in block.class_names]))
        elif block.width == len(wanted):
            out.append(np.arange(len(wanted)))
        else:
            raise DataError(
                f"block {block.name!r} has width {block.width}, cannot align to "
                f"{len(wanted)} categories without class names"
            )
    return out


def mean_snippet_scores(seq: ScoreSequence, starts, ends, categories, alignment=None):
    """Mean per-category snippet score over each span [starts[i], ends[i]).

    Returns an (N, K+1) array. Scores are summed across blocks per snippet,
    then averaged over the covered snippet rows and divided by the number of
    blocks. Each span is clamped to the video; rows floor(start)..ceil(end)
    are included. Every span is read from one prefix-sum table over the
    block-summed score matrix, so a span costs O(1) whatever its length. An
    empty range yields a zero row and a warning.
    """
    if alignment is None:
        alignment = block_alignment(seq, categories)
    k1 = len(categories) + 1
    t = seq.num_snippets
    starts = np.maximum(np.asarray(starts, dtype=float), 0.0)
    ends = np.minimum(np.asarray(ends, dtype=float), float(t))
    lo = np.floor(starts).astype(int)
    hi = np.ceil(ends).astype(int)
    empty = hi <= lo
    for i in np.flatnonzero(empty):
        warnings.warn(f"empty snippet range [{starts[i]}, {ends[i]}) in {seq.video_id!r}")

    # block-summed scores in category order: (T, D) @ (D, K+1) 0/1 map
    to_category = np.zeros((seq.dim, k1))
    for offset, cols in zip(seq.block_offsets(), alignment):
        to_category[offset + np.arange(len(cols)), cols] = 1.0
    table = np.zeros((t + 1, k1))
    np.cumsum(seq.matrix @ to_category, axis=0, out=table[1:])

    lo = np.where(empty, 0, lo)
    hi = np.where(empty, 0, hi)
    rows = np.maximum(hi - lo, 1)[:, None]
    return (table[hi] - table[lo]) / rows / len(seq.blocks)


def fuse_scores(class_scores, overlap, mean_scores, config: FusionConfig):
    """Fuse N candidates' scores; returns ``(fused, category, confidence)``.

    ``class_scores`` (N, K+1) must already be softmax-normalized;
    ``overlap`` is (N,) and ``mean_scores`` (N, K+1). ``fused`` is
    (N, K+1); ``category`` (N,) is the argmax over action columns only,
    ties going to the lower category index; ``confidence`` (N,) is the
    fused score of that category.
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
    return fused, category, confidence


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
    order = np.lexsort((np.arange(len(detections)), starts, -confidence))
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

    Windows at 25% overlap are decoded in stacks of DECODE_STACK, each
    stack as one batch with no graph (the last stack may be shorter); their
    anchors are mapped to video coordinates, clipped to [0, T] and gathered
    into per-video arrays in window-then-anchor order. Zero-width rows are
    dropped, the rest are fused, suppressed per category, and returned
    sorted by descending confidence. A non-finite activation raises
    NumericError naming the video and the first window start of its stack.
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
    alignment = block_alignment(seq, categories)
    windows = slide_windows(seq, None, t_w, PREDICTION_OVERLAP, keep_empty=True)

    probs, overlap, starts, ends = [], [], [], []
    for first in range(0, len(windows), DECODE_STACK):
        stack = windows[first:first + DECODE_STACK]
        # no graph, and no NumPy warning: a non-finite activation raises below
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            try:
                decoded = network.decode(np.stack([w.features for w in stack]))
                probs.append(softmax(decoded.class_logits).data)
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

    mean_scores = mean_snippet_scores(seq, starts, ends, categories, alignment)
    fused, category, confidence = fuse_scores(probs, overlap, mean_scores, config)
    if config.suppress_background:
        live = np.argmax(fused, axis=1) != 0
        starts, ends, category, confidence = (
            starts[live], ends[live], category[live], confidence[live])
    candidates = [
        Detection(seq.video_id, s, e, c, f)
        for s, e, c, f in zip(starts.tolist(), ends.tolist(),
                              category.tolist(), confidence.tolist())
    ]
    kept = nms(candidates, config.nms_threshold)
    order = sorted(range(len(kept)), key=lambda i: (-kept[i].confidence, kept[i].start, i))
    return [kept[i] for i in order]
