"""Reference computations the benchmark checks the program against.

Each function here is written from the method's definition, not from the
library's code: greedy per-category NMS by direct pairwise IoU, all-point
average precision from the ranked match list, and a central finite
difference of a scalar loss. The ``check_*`` functions return a list of
human-readable problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


def segment_iou(start, end, starts, ends):
    """IoU of one segment against arrays of segments."""
    inter = np.minimum(end, ends) - np.maximum(start, starts)
    inter = np.maximum(inter, 0.0)
    union = (end - start) + (ends - starts) - inter
    return inter / union


def greedy_nms(candidates, threshold):
    """Indices of the candidates that greedy per-category NMS keeps.

    Candidates are visited by descending confidence (ties: earlier start,
    then input position); one is kept unless its IoU with an already kept
    candidate of the same category exceeds ``threshold``. Returns the kept
    indices in input order.
    """
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-candidates[i].confidence, candidates[i].start, i),
    )
    kept_by_cat = {}
    kept = []
    for i in order:
        c = candidates[i]
        starts, ends = kept_by_cat.setdefault(c.category, ([], []))
        if starts and np.any(
            segment_iou(c.start, c.end, np.array(starts), np.array(ends)) > threshold
        ):
            continue
        starts.append(c.start)
        ends.append(c.end)
        kept.append(i)
    return sorted(kept)


def check_detections(detections, num_snippets, num_classes, threshold):
    """Properties every video's final detection list must have."""
    problems = []
    for d in detections:
        if not (0.0 <= d.start < d.end <= num_snippets):
            problems.append(f"segment [{d.start}, {d.end}) outside [0, {num_snippets}]")
        if not (1 <= d.category <= num_classes):
            problems.append(f"category {d.category} outside 1..{num_classes}")
        if not math.isfinite(d.confidence):
            problems.append(f"non-finite confidence {d.confidence}")
    conf = [d.confidence for d in detections]
    if any(a < b for a, b in zip(conf, conf[1:])):
        problems.append("detections not sorted by descending confidence")
    by_cat = {}
    for d in detections:
        by_cat.setdefault(d.category, []).append(d)
    for cat, dets in by_cat.items():
        s = np.array([d.start for d in dets])
        e = np.array([d.end for d in dets])
        for i in range(len(dets)):
            iou = segment_iou(s[i], e[i], s[i + 1:], e[i + 1:])
            if np.any(iou > threshold):
                problems.append(f"category {cat}: same-category pair with IoU above {threshold}")
                break
    return problems


def check_nms(candidates, kept, threshold):
    """The library's kept list must be exactly the reference's kept set,
    in input order, as the very same candidate objects."""
    want = greedy_nms(candidates, threshold)
    position = {id(c): i for i, c in enumerate(candidates)}
    got = [position.get(id(d)) for d in kept]
    if got != want:
        return [f"nms kept {len(got)} candidates, reference keeps {len(want)} "
                f"(first difference at {_first_difference(got, want)})"]
    return []


def _first_difference(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def average_precision(predictions, ground_truths, threshold):
    """All-point AP for one category.

    ``predictions`` are (video_id, start, end, confidence) tuples and
    ``ground_truths`` (video_id, start, end) tuples. Predictions are ranked
    by descending confidence (ties: earlier start, then input position);
    each takes the unmatched ground truth of its video with the highest
    IoU, and is a true positive when that IoU reaches ``threshold``. AP is
    the mean, over all ground truths, of the best precision reached at or
    after the rank where each one was found (zero for those never found).
    """
    if not predictions or not ground_truths:
        return 0.0
    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i][3], predictions[i][1], i))
    gts_by_video = {}
    for g, (video, start, end) in enumerate(ground_truths):
        gts_by_video.setdefault(video, []).append((g, start, end))
    used = set()
    hits = []
    for i in order:
        video, start, end, _ = predictions[i]
        best, best_g = 0.0, None
        for g, gs, ge in gts_by_video.get(video, ()):
            if g in used:
                continue
            iou = float(segment_iou(start, end, np.array([gs]), np.array([ge]))[0])
            if iou > best:
                best, best_g = iou, g
        hit = best_g is not None and best >= threshold
        if hit:
            used.add(best_g)
        hits.append(hit)
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    total = 0.0
    for rank, hit in enumerate(hits):
        if hit:
            total += float(precision[rank:].max())
    return total / len(ground_truths)


def mean_average_precision(predictions_doc, annotations_doc, threshold):
    """mAP over the categories that have ground truth, from the raw JSON
    documents the pipeline writes (predictions) and reads (annotations)."""
    gts = {}
    for video in annotations_doc["videos"]:
        for inst in video["instances"]:
            gts.setdefault(inst["category"], []).append(
                (video["video_id"], float(inst["start"]), float(inst["end"]))
            )
    preds = {}
    for p in predictions_doc["predictions"]:
        preds.setdefault(p["category"], []).append(
            (p["video_id"], float(p["start"]), float(p["end"]), float(p["confidence"]))
        )
    aps = [average_precision(preds.get(cat, []), gts[cat], threshold) for cat in sorted(gts)]
    return float(np.mean(aps)) if aps else 0.0


def check_map(reported, reference, floor, tolerance=1e-9):
    problems = []
    if not abs(reported - reference) <= tolerance:
        problems.append(f"mAP {reported!r} differs from reference {reference!r}")
    if not reported > floor:
        problems.append(f"mAP {reported!r} not above the floor {floor}")
    return problems


def central_difference(loss_fn, array, index, step=1e-7):
    """(f(x + h) - f(x - h)) / 2h for one coordinate of ``array``; the
    coordinate is restored exactly afterwards. At h = 1e-6 ReLU kinks
    inside the step broke agreement on the default network; at 1e-7 the
    largest error seen was 4e-9."""
    saved = array[index]
    try:
        array[index] = saved + step
        hi = loss_fn()
        array[index] = saved - step
        lo = loss_fn()
    finally:
        array[index] = saved
    return (hi - lo) / (2.0 * step)


def check_gradient(name, analytic, numeric, rtol=1e-4, atol=2e-8):
    """Each sampled coordinate must satisfy |a - n| <= atol + rtol * max(|a|, |n|)."""
    problems = []
    for a, n in zip(analytic, numeric):
        if not (math.isfinite(a) and abs(a - n) <= atol + rtol * max(abs(a), abs(n))):
            problems.append(f"{name}: analytic {a:.6e} vs central difference {n:.6e}")
    return problems
