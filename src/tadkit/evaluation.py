"""Detection evaluation: per-category average precision and mAP.

Predictions are visited in descending confidence; each one matches the
unmatched same-video ground truth of highest IoU when that IoU reaches
the threshold, otherwise it counts as a false positive. AP integrates
the precision envelope over recall (all-point interpolation, the one
definition). mAP averages AP over the categories present in the ground
truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import rank_order
from .errors import ConfigError, DataError
from .matching import segment_iou_matrix


def _check_threshold(threshold):
    if not (0 < threshold <= 1):
        raise ConfigError(f"IoU threshold must be in (0, 1], got {threshold}")


def _match(predictions, ground_truths, threshold):
    """Greedy matching; returns a TP flag per prediction in rank order."""
    order = rank_order([p.confidence for p in predictions], [p.start for p in predictions])
    by_video = {}
    for video_id, start, end in ground_truths:
        by_video.setdefault(video_id, []).append((start, end))
    by_video = {v: np.array(segs, dtype=float).T for v, segs in by_video.items()}
    matched = {v: np.zeros(segs.shape[1], dtype=bool) for v, segs in by_video.items()}
    flags = np.zeros(len(predictions), dtype=bool)
    for rank, i in enumerate(order):
        det = predictions[i]
        if det.video_id not in by_video:
            continue
        starts, ends = by_video[det.video_id]
        iou = segment_iou_matrix([det.start], [det.end], starts, ends)[0]
        iou[matched[det.video_id]] = 0.0
        best = int(np.argmax(iou))  # first of equal IoUs, in ground-truth order
        if iou[best] >= threshold:
            matched[det.video_id][best] = True
            flags[rank] = True
    return flags


def average_precision(predictions, ground_truths, threshold):
    """All-point AP for one category. ``ground_truths`` are (video_id, start,
    end) triples. Returns 0.0 when either side is empty."""
    _check_threshold(threshold)
    if not ground_truths or not predictions:
        return 0.0
    flags = _match(predictions, ground_truths, threshold)
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, len(flags) + 1)
    recall = tp / len(ground_truths)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


@dataclass
class CategoryEval:
    category: int
    name: str
    ap: float
    num_predictions: int
    num_ground_truth: int


@dataclass
class ThresholdEval:
    threshold: float
    mean_ap: float
    categories: list


@dataclass
class EvalReport:
    thresholds: list
    results: list
    num_predictions: int
    num_ground_truth: int

    def to_dict(self):
        return {
            "interpolation": "allpoint",
            "thresholds": list(self.thresholds),
            "num_predictions": self.num_predictions,
            "num_ground_truth": self.num_ground_truth,
            "map": {f"{r.threshold:.2f}": r.mean_ap for r in self.results},
            "per_category": {
                f"{r.threshold:.2f}": {
                    c.name: {
                        "ap": c.ap,
                        "predictions": c.num_predictions,
                        "ground_truth": c.num_ground_truth,
                    }
                    for c in r.categories
                }
                for r in self.results
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self, label="run") -> str:
        """mAP (%) by IoU threshold, highest threshold first."""
        ordered = sorted(self.results, key=lambda r: -r.threshold)
        width = max(10, len(label) + 2)
        lines = ["mAP (%) by IoU threshold"]
        lines.append(
            f"{'config':<{width}}" + "".join(f"{r.threshold:>8.2f}" for r in ordered)
        )
        lines.append(
            f"{label:<{width}}" + "".join(f"{100 * r.mean_ap:>8.2f}" for r in ordered)
        )
        return "\n".join(lines) + "\n"


def evaluate(predictions, annotations, thresholds=(0.5,)):
    """Score a prediction list against an annotation set at each threshold."""
    if not thresholds:
        raise ConfigError("need at least one IoU threshold")
    for t in thresholds:
        _check_threshold(t)
    known_videos = {v.video_id for v in annotations.videos}
    k = annotations.num_classes
    for det in predictions:
        if not (1 <= det.category <= k):
            raise DataError(
                f"prediction on {det.video_id!r} has unknown category {det.category} "
                f"(annotation space has {k})"
            )
        if det.video_id not in known_videos:
            raise DataError(f"prediction references unknown video {det.video_id!r}")

    gts_by_cat = {}
    for v in annotations.videos:
        for inst in v.instances:
            gts_by_cat.setdefault(inst.category, []).append((v.video_id, inst.start, inst.end))
    preds_by_cat = {}
    for det in predictions:
        preds_by_cat.setdefault(det.category, []).append(det)

    present = sorted(gts_by_cat)
    results = []
    for threshold in thresholds:
        per_cat = []
        for cat in present:
            preds = preds_by_cat.get(cat, [])
            gts = gts_by_cat[cat]
            ap = average_precision(preds, gts, threshold)
            per_cat.append(
                CategoryEval(cat, annotations.categories[cat - 1], ap, len(preds), len(gts))
            )
        mean_ap = float(np.mean([c.ap for c in per_cat])) if per_cat else 0.0
        results.append(ThresholdEval(float(threshold), mean_ap, per_cat))
    return EvalReport(
        [float(t) for t in thresholds],
        results,
        len(predictions),
        sum(len(g) for g in gts_by_cat.values()),
    )
