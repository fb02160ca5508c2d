"""Multi-task detection loss.

Four terms over a mined batch of anchors:
  - softmax cross-entropy on class columns (label 0 = background),
  - mean squared error between predicted overlap and the anchor's true
    best IoU,
  - smooth-L1 on decoded center/width against the matched target,
    positives only,
  - an L2 penalty over every parameter.
Total = L_class + alpha * L_overlap + beta * L_location + lam * L2,
with alpha = beta = 10 and lam = 1e-4 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, UsageError
from .tensor import Tensor, logsumexp, mul, smooth_l1, square, take, tmean


@dataclass(frozen=True)
class LossWeights:
    overlap: float = 10.0
    location: float = 10.0
    l2: float = 1e-4

    def __post_init__(self):
        for name in ("overlap", "location", "l2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss weight {name!r} must be >= 0")


@dataclass
class TrainingBatch:
    """Mined anchors pooled across windows, ready for the loss terms.

    Graph tensors carry the predictions; plain arrays carry the targets.
    The positive rows appear separately for the location term.
    """

    class_logits: Tensor        # (N, K+1)
    labels: np.ndarray          # (N,) ints in [0, K]
    overlap: Tensor             # (N,)
    target_iou: np.ndarray      # (N,)
    pos_centers: Tensor         # (P,)
    pos_widths: Tensor          # (P,)
    pos_target_centers: np.ndarray
    pos_target_widths: np.ndarray

    @property
    def num_anchors(self) -> int:
        return len(self.labels)

    @property
    def num_positives(self) -> int:
        return len(self.pos_target_centers)


def classification_loss(class_logits, labels) -> Tensor:
    """Mean negative log softmax probability of each anchor's label."""
    labels = np.asarray(labels)
    n, k = class_logits.data.shape
    if labels.shape != (n,):
        raise UsageError(f"need {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise UsageError(f"labels must lie in [0, {k - 1}]")
    lse = logsumexp(class_logits, axis=-1)
    picked = take(class_logits, (np.arange(n), labels))
    return tmean(lse - picked)


def overlap_loss(overlap, target_iou) -> Tensor:
    """Mean squared error of predicted overlap against the true best IoU."""
    target_iou = np.asarray(target_iou, dtype=float)
    if overlap.data.shape != target_iou.shape:
        raise UsageError("overlap predictions and targets must align")
    return tmean(square(overlap - target_iou))


def location_loss(centers, widths, target_centers, target_widths) -> Tensor:
    """Smooth-L1 on center plus smooth-L1 on width, averaged over positives.

    With no positives the term is a constant zero.
    """
    target_centers = np.asarray(target_centers, dtype=float)
    target_widths = np.asarray(target_widths, dtype=float)
    if len(target_centers) == 0:
        return Tensor(0.0)
    if np.any(target_widths <= 0):
        raise UsageError("location targets must have positive width")
    return tmean(smooth_l1(centers - target_centers)) + tmean(
        smooth_l1(widths - target_widths)
    )


def l2_penalty(params) -> Tensor:
    """Sum of squares of every parameter as one graph node: the sum of
    dot(p, p) forward, 2·g·p into each parameter backward."""
    params = list(params)

    def backward_fn(g):
        for p in params:
            if p.requires_grad:
                p._accumulate(2.0 * float(g) * p.data)

    return Tensor(sum(float(np.vdot(p.data, p.data)) for p in params), parents=params,
                  backward_fn=backward_fn)


def total_loss(batch: TrainingBatch, weights: LossWeights, params):
    """Weighted sum of the four terms.

    Returns (loss tensor, parts) where parts maps each term name to its
    unweighted float value plus the weighted total. A non-finite total
    raises NumericError carrying the parts.
    """
    cls = classification_loss(batch.class_logits, batch.labels)
    over = overlap_loss(batch.overlap, batch.target_iou)
    loc = location_loss(
        batch.pos_centers, batch.pos_widths,
        batch.pos_target_centers, batch.pos_target_widths,
    )
    reg = l2_penalty(params)
    loss = cls + mul(over, weights.overlap) + mul(loc, weights.location) + mul(reg, weights.l2)
    parts = {
        "class": float(cls.data),
        "overlap": float(over.data),
        "location": float(loc.data),
        "l2": float(reg.data),
        "total": float(loss.data),
    }
    if not np.isfinite(parts["total"]):
        raise NumericError(f"non-finite training loss: {parts}")
    return loss, parts
