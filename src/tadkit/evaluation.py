"""Detection evaluation: per-category average precision and mAP.

Predictions are visited in descending confidence; each one matches the
unmatched same-video ground truth of highest IoU when that IoU reaches
the threshold, otherwise it counts as a false positive. Each (video,
category) IoU matrix is computed once and matched at every threshold.
AP integrates the precision envelope over recall (all-point
interpolation, the one definition). mAP averages AP over the categories
present in the ground truth. The report is the JSON object written as
``report.json``: ``map`` and ``per_category`` are keyed by the threshold
to two decimals.
"""

from __future__ import annotations

import numpy as np

from .data import rank_order
from .errors import ConfigError, DataError
from .matching import segment_iou_matrix


def _check_threshold(threshold):
    if not (0 < threshold <= 1):
        raise ConfigError(f"IoU threshold must be in (0, 1], got {threshold}")


def _hits(predictions, ground_truths, thresholds):
    """Greedy matching; returns (thresholds x predictions) TP flags, the
    predictions in rank order."""
    order = rank_order([p.confidence for p in predictions], [p.start for p in predictions])
    by_video = {}
    for video_id, start, end in ground_truths:
        by_video.setdefault(video_id, []).append((start, end))
    ranks = {}
    for rank, i in enumerate(order):
        ranks.setdefault(predictions[i].video_id, []).append(rank)
    thresholds = np.asarray(thresholds, dtype=float)
    rows = np.arange(len(thresholds))
    hits = np.zeros((len(thresholds), len(predictions)), dtype=bool)
    for video_id, video_ranks in ranks.items():
        if video_id not in by_video:
            continue
        starts, ends = np.array(by_video[video_id], dtype=float).T
        dets = [predictions[order[rank]] for rank in video_ranks]
        iou = segment_iou_matrix([d.start for d in dets], [d.end for d in dets], starts, ends)
        matched = np.zeros((len(thresholds), len(starts)), dtype=bool)
        for rank, row in zip(video_ranks, iou):
            row = np.where(matched, 0.0, row)
            best = np.argmax(row, axis=1)  # first of equal IoUs, in ground-truth order
            hit = row[rows, best] >= thresholds
            matched[rows[hit], best[hit]] = True
            hits[:, rank] = hit
    return hits


def _integral(flags, num_ground_truth):
    """All-point AP of TP flags in rank order."""
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, len(flags) + 1)
    recall = tp / num_ground_truth
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def average_precision(predictions, ground_truths, threshold):
    """All-point AP for one category. ``ground_truths`` are (video_id, start,
    end) triples. Returns 0.0 when either side is empty."""
    _check_threshold(threshold)
    if not ground_truths or not predictions:
        return 0.0
    return _integral(_hits(predictions, ground_truths, [threshold])[0], len(ground_truths))


def to_table(report, label="run") -> str:
    """mAP (%) by IoU threshold, highest threshold first."""
    ordered = sorted(report["thresholds"], reverse=True)
    mean_aps = [report["map"][f"{t:.2f}"] for t in ordered]
    width = max(10, len(label) + 2)
    lines = ["mAP (%) by IoU threshold"]
    lines.append(f"{'config':<{width}}" + "".join(f"{t:>8.2f}" for t in ordered))
    lines.append(f"{label:<{width}}" + "".join(f"{100 * m:>8.2f}" for m in mean_aps))
    return "\n".join(lines) + "\n"


def evaluate(predictions, annotations, thresholds=(0.5,)):
    """Score a prediction list against an annotation set at each threshold;
    returns the report as a JSON-ready dict."""
    if not thresholds:
        raise ConfigError("need at least one IoU threshold")
    for t in thresholds:
        _check_threshold(t)
    keys = [f"{t:.2f}" for t in thresholds]
    clash = [t for t, key in zip(thresholds, keys) if keys.count(key) > 1]
    if clash:
        raise ConfigError(f"IoU thresholds {clash} share a report key at two decimals")
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

    aps = {key: [] for key in keys}
    per_category = {key: {} for key in keys}
    for cat in sorted(gts_by_cat):
        preds = preds_by_cat.get(cat, [])
        gts = gts_by_cat[cat]
        for key, flags in zip(keys, _hits(preds, gts, thresholds)):
            aps[key].append(_integral(flags, len(gts)))
            per_category[key][annotations.categories[cat - 1]] = {
                "ap": aps[key][-1],
                "predictions": len(preds),
                "ground_truth": len(gts),
            }
    return {
        "interpolation": "allpoint",
        "thresholds": [float(t) for t in thresholds],
        "num_predictions": len(predictions),
        "num_ground_truth": sum(len(g) for g in gts_by_cat.values()),
        "map": {key: float(np.mean(values)) if values else 0.0 for key, values in aps.items()},
        "per_category": per_category,
    }
