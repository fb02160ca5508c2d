"""
Suppression and scoring: NMS and average precision
==================================================

Detections arriving from overlapping windows are redundant.  Per-category
non-maximum suppression keeps the strongest representative of each cluster,
and the surviving detections are scored with IoU-thresholded average
precision, the standard detection metric.
"""

from tadkit import Detection, average_precision, nms, segment_iou_matrix

# Three overlapping detections of the same category plus one of another.
detections = [
    Detection("vid", 10.0, 50.0, category=1, confidence=0.9),
    Detection("vid", 12.0, 48.0, category=1, confidence=0.8),   # duplicate
    Detection("vid", 60.0, 90.0, category=1, confidence=0.7),
    Detection("vid", 11.0, 49.0, category=2, confidence=0.6),   # other category
]
print("IoU of the two duplicates:",
      round(segment_iou_matrix([10.0], [50.0], [12.0], [48.0])[0, 0], 4))

# The duplicate is suppressed; the category-2 detection survives untouched
# because suppression never crosses category boundaries.
kept = nms(detections, threshold=0.1)
print("kept after NMS:")
for det in kept:
    print(f"  [{det.start:4.1f}, {det.end:4.1f}) cat {det.category} "
          f"conf {det.confidence:.1f}")

# Average precision walks the detections in confidence order and greedily
# matches each to the best unmatched ground truth of the same video.  A
# match below the IoU threshold is a false positive.
ground_truth = [("vid", 10.0, 50.0), ("vid", 60.0, 90.0)]
predictions = [
    Detection("vid", 10.0, 50.0, 1, 0.9),    # true positive
    Detection("vid", 10.0, 50.0, 1, 0.8),    # duplicate -> false positive
    Detection("vid", 61.0, 89.0, 1, 0.7),    # true positive
]
for threshold in (0.5, 0.9, 0.99):
    ap = average_precision(predictions, ground_truth, threshold, "allpoint")
    print(f"AP at IoU {threshold:0.2f}: {ap:.4f}")

# The 11-point variant averages the peak precision at 11 recall levels;
# it smooths the same curve, so values are close but not identical.
ap11 = average_precision(predictions, ground_truth, 0.5, "11point")
print(f"AP at IoU 0.50, 11-point interpolation: {ap11:.4f}")
