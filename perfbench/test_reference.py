"""Self-tests of the benchmark's reference computations.

Each reference must agree with the library on small seeded cases, and
each check must reject a deliberately corrupted output. ``run.py`` calls
every ``test_*`` function before it measures anything; they also run
under pytest:

    PYTHONPATH=src python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import numpy as np

from tadkit.data import ActionInstance, Detection
from tadkit.evaluation import average_precision as library_ap
from tadkit.inference import nms as library_nms
from tadkit.losses import LossWeights, total_loss
from tadkit.matching import hard_negative_mine, match_anchors
from tadkit.model import Network, NetworkConfig
from tadkit.training import batch_from_selection

import reference


def _random_detections(rng, n, video="v", length=200.0, categories=3):
    starts = rng.uniform(0.0, length - 20.0, size=n)
    widths = rng.uniform(2.0, 40.0, size=n)
    # a few exact confidence ties exercise the tie-break order
    conf = np.round(rng.uniform(0.0, 1.0, size=n), 2)
    cats = rng.integers(1, categories + 1, size=n)
    return [Detection(video, float(s), float(min(s + w, length)), int(c), float(p))
            for s, w, c, p in zip(starts, widths, cats, conf)]


def test_nms_reference_matches_library_and_rejects_overlap():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        candidates = _random_detections(rng, 150)
        for threshold in (0.1, 0.5):
            kept = library_nms(candidates, threshold)
            assert reference.check_nms(candidates, kept, threshold) == []
            ranked = sorted(kept, key=lambda d: -d.confidence)
            assert reference.check_detections(ranked, 200.0, 3, threshold) == []

    # a kept list missing one survivor, or with a suppressed one added back
    assert reference.check_nms(candidates, kept[1:], threshold)
    dropped = [c for c in candidates if c not in kept]
    assert reference.check_nms(candidates, sorted(kept + dropped[:1], key=candidates.index),
                               threshold)
    # a same-category pair overlapping above the threshold
    d = ranked[0]
    twin = Detection(d.video_id, d.start + 0.1, d.end, d.category, d.confidence)
    assert reference.check_detections([d, twin] + ranked[1:], 200.0, 3, threshold)
    # other corrupted fields
    bad = Detection(d.video_id, d.start, 201.0, d.category, d.confidence)
    assert reference.check_detections([bad], 200.0, 3, threshold)
    assert reference.check_detections([ranked[-1], ranked[0]], 200.0, 3, threshold)
    bad = Detection(d.video_id, d.start, d.end, 4, d.confidence)
    assert reference.check_detections([bad], 200.0, 3, threshold)
    bad = Detection(d.video_id, d.start, d.end, d.category, float("nan"))
    assert reference.check_detections([bad], 200.0, 3, threshold)


def test_ap_reference_matches_library_and_rejects_shift():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        gts = []
        for v in ("a", "b", "c"):
            starts = np.sort(rng.uniform(0.0, 180.0, size=6))
            gts += [(v, float(s), float(s + rng.uniform(5.0, 20.0))) for s in starts]
        preds = []
        for v, s, e in gts:
            for _ in range(2):
                jitter = rng.normal(0.0, 3.0, size=2)
                preds.append(Detection(v, s + jitter[0], e + abs(jitter[1]) + 1.0, 1,
                                       float(np.round(rng.uniform(), 2))))
        preds += _random_detections(rng, 20, "a", categories=1)
        for threshold in (0.3, 0.5, 0.7):
            want = library_ap(preds, gts, threshold)
            got = reference.average_precision(
                [(d.video_id, d.start, d.end, d.confidence) for d in preds], gts, threshold)
            assert abs(got - want) <= 1e-12, (seed, threshold, got, want)
            assert reference.check_map(want, got, floor=0.0) == []
            assert reference.check_map(want + 1e-6, got, floor=0.0)
            assert reference.check_map(want, got, floor=want)


def _small_problem(seed):
    config = NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                           base_filters=6, anchor_filters=8)
    network = Network(config, seed=seed)
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(config.window_length, config.feature_dim))
    matched = match_anchors(network.anchors,
                            [ActionInstance(0.18, 0.47, 1), ActionInstance(0.60, 0.82, 2)])
    selection = hard_negative_mine(matched, network.decode(features).overlap.data, rng)

    def loss():
        batch = batch_from_selection([network.decode(features)], [matched], [selection])
        return total_loss(batch, LossWeights(), network.parameters)[0]

    return network, loss


def test_central_difference_matches_analytic_and_rejects_perturbation():
    network, loss = _small_problem(3)
    loss().backward()
    rng = np.random.default_rng(0)
    for p in network.parameters:
        idx = [np.unravel_index(int(i), p.data.shape)
               for i in rng.choice(p.data.size, size=min(3, p.data.size), replace=False)]
        before = p.data.copy()
        analytic = [float(p.grad[i]) for i in idx]
        numeric = [reference.central_difference(lambda: float(loss().data), p.data, i)
                   for i in idx]
        assert np.array_equal(p.data, before)
        assert reference.check_gradient(p.name, analytic, numeric) == []
        perturbed = [a * (1 + 1e-3) + 1e-6 for a in analytic]
        assert reference.check_gradient(p.name, perturbed, numeric)
