"""Anchor-to-ground-truth assignment and hard negative mining.

Matching always runs against the default anchor geometry, never against
decoded predictions, so assignments depend only on the window's targets.
Anchors, matches and mining all work on arrays: one IoU matrix per
window, one record array of matches, and selections as flat indices.
An anchor is positive when its best IoU exceeds 0.5; everything else is
a negative that still remembers its best IoU (the overlap regression
target). Ties between equally good targets go to the one with the
earliest start, then the lowest category.
"""

from __future__ import annotations

import warnings

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


def match_anchors(anchors, targets):
    """Assign every anchor to the window's ground truth.

    ``anchors`` is an anchor grid, or any record array with ``start`` and
    ``end`` fields. Returns a record array with one entry per anchor, in
    anchor order, with fields ``label`` (0 marks a negative), ``iou`` (the
    best IoU) and ``target_center``/``target_width`` (of the best target).
    There is no fallback that forces a best anchor per target: a target
    all of whose IoUs fall below the threshold simply trains nothing that
    step.
    """
    targets = sorted(targets, key=lambda t: (t.start, t.category))
    if not targets:
        raise UsageError("match_anchors requires at least one target")
    starts, ends, categories = np.array([(t.start, t.end, t.category) for t in targets]).T
    iou = segment_iou_matrix(anchors.start, anchors.end, starts, ends)
    best = iou.argmax(axis=1)  # first max wins; targets are tie-ordered
    best_iou = iou[np.arange(len(best)), best]
    label = np.where(best_iou > POSITIVE_IOU, categories[best], 0).astype(int)
    return np.rec.fromarrays(
        [label, best_iou, (starts[best] + ends[best]) / 2, ends[best] - starts[best]],
        names="label,iou,target_center,target_width")


def hard_negative_mine(matched, overlap_scores, rng):
    """Pick the anchors that contribute to the loss.

    All positives are kept. Hard negatives — negatives whose predicted
    overlap exceeds 0.5 — are all kept; if they fall short of the number
    of positives, randomly sampled easy negatives make up the difference
    so negatives and positives are balanced. ``matched`` and
    ``overlap_scores`` are one window's (N,) arrays or a (B, N) stack,
    mined row by row in order. Returns (positive_indices,
    negative_indices) as sorted int arrays of flat indices into
    ``matched``.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    overlap_scores = np.asarray(overlap_scores, dtype=float)
    labels = matched.label
    if overlap_scores.shape != labels.shape:
        raise UsageError(
            f"need one overlap score per anchor, got {overlap_scores.shape} for {labels.shape}"
        )
    n = labels.shape[-1]
    pos, neg = [], []
    for b, (lab, scores) in enumerate(zip(labels.reshape(-1, n), overlap_scores.reshape(-1, n))):
        p, q = _mine_window(lab, scores, rng)
        pos.append(p + b * n)
        neg.append(q + b * n)
    return np.concatenate(pos), np.concatenate(neg)


def _mine_window(labels, overlap_scores, rng):
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
