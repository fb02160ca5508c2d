"""Anchor-to-ground-truth assignment and hard negative mining.

Matching always runs against the default anchor geometry, never against
decoded predictions, so assignments depend only on the window's targets.
An anchor is positive when its best IoU exceeds 0.5; everything else is
a negative that still remembers its best IoU (the overlap regression
target). Ties between equally good targets go to the one with the
earliest start, then the lowest category.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

POSITIVE_IOU = 0.5
HARD_NEGATIVE_SCORE = 0.5


def segment_iou_matrix(starts_a, ends_a, starts_b, ends_b):
    """Pairwise IoU between two segment sets, shape (len(a), len(b)).

    This is the one IoU kernel of the package: matching, NMS and
    evaluation all call it. Segments must have positive width."""
    sa = np.asarray(starts_a, dtype=float)[:, None]
    ea = np.asarray(ends_a, dtype=float)[:, None]
    sb = np.asarray(starts_b, dtype=float)[None, :]
    eb = np.asarray(ends_b, dtype=float)[None, :]
    inter = np.maximum(np.minimum(ea, eb) - np.maximum(sa, sb), 0.0)
    union = (ea - sa) + (eb - sb) - inter
    return inter / union


@dataclass(frozen=True)
class MatchedAnchor:
    """Assignment record for one anchor. Label 0 marks a negative; the
    target center/width are those of the best-overlapping ground truth."""

    anchor_index: int
    label: int
    iou: float
    target_center: float
    target_width: float


def match_anchors(anchors, targets):
    """Assign every anchor to the window's ground truth.

    Returns one MatchedAnchor per anchor, in anchor order. There is no
    fallback that forces a best anchor per target: a target all of whose
    IoUs fall below the threshold simply trains nothing that step.
    """
    targets = list(targets)
    if not targets:
        raise UsageError("match_anchors requires at least one target")
    order = sorted(range(len(targets)), key=lambda i: (targets[i].start, targets[i].category))
    targets = [targets[i] for i in order]

    iou = segment_iou_matrix(
        [a.start for a in anchors], [a.end for a in anchors],
        [t.start for t in targets], [t.end for t in targets],
    )
    best = iou.argmax(axis=1)  # first max wins; targets are tie-ordered
    out = []
    for i, a in enumerate(anchors):
        t = targets[best[i]]
        best_iou = float(iou[i, best[i]])
        label = t.category if best_iou > POSITIVE_IOU else 0
        out.append(MatchedAnchor(i, label, best_iou, (t.start + t.end) / 2, t.end - t.start))
    return out


def hard_negative_mine(matched, overlap_scores, rng):
    """Pick the anchors that contribute to the loss.

    All positives are kept. Hard negatives — negatives whose predicted
    overlap exceeds 0.5 — are all kept; if they fall short of the number
    of positives, randomly sampled easy negatives make up the difference
    so negatives and positives are balanced. Returns (positive_indices,
    negative_indices) as sorted int arrays.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    overlap_scores = np.asarray(overlap_scores, dtype=float)
    if overlap_scores.shape != (len(matched),):
        raise UsageError(
            f"need one overlap score per anchor, got {overlap_scores.shape} for {len(matched)}"
        )
    labels = np.array([m.label for m in matched])
    pos = np.flatnonzero(labels > 0)
    neg = np.flatnonzero(labels == 0)

    if pos.size == 0:
        warnings.warn("window has no positive anchors; keeping a single negative")
        if neg.size == 0:
            return pos, neg
        return pos, np.sort(rng.choice(neg, size=1, replace=False))

    hard = neg[overlap_scores[neg] > HARD_NEGATIVE_SCORE]
    if hard.size >= pos.size:
        return pos, hard
    easy = np.setdiff1d(neg, hard, assume_unique=True)
    need = min(pos.size - hard.size, easy.size)
    extra = rng.choice(easy, size=need, replace=False) if need else np.array([], dtype=int)
    return pos, np.sort(np.concatenate([hard, extra]).astype(int))
