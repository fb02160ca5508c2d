import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.data import ActionInstance, AnnotationSet, Detection, VideoAnnotation
from tadkit.errors import ConfigError, DataError
from tadkit.evaluation import average_precision, evaluate, to_table

from oracles import brute_average_precision


def det(vid, start, end, conf, cat=1):
    return Detection(vid, float(start), float(end), cat, float(conf))


class TestAveragePrecision:
    def ranked_example(self):
        # rank order: TP (iou 1.0), FP, TP (iou ~0.82)
        gts = [("v", 10.0, 20.0), ("v", 50.0, 60.0)]
        preds = [
            det("v", 10.0, 20.0, 0.9),
            det("v", 30.0, 40.0, 0.8),
            det("v", 49.0, 60.0, 0.7),
        ]
        return preds, gts

    def test_allpoint_pinned_value(self):
        preds, gts = self.ranked_example()
        ap = average_precision(preds, gts, 0.5)
        assert_allclose(ap, 0.5 * 1.0 + 0.5 * (2 / 3))  # = 5/6

    def test_perfect_predictions_give_one(self):
        gts = [("v", 0.0, 10.0), ("w", 5.0, 25.0)]
        preds = [det("v", 0.0, 10.0, 0.9), det("w", 5.0, 25.0, 0.8)]
        assert average_precision(preds, gts, 0.5) == 1.0

    def test_empty_sides(self):
        assert average_precision([], [("v", 0.0, 1.0)], 0.5) == 0.0
        assert average_precision([det("v", 0, 1, 0.5)], [], 0.5) == 0.0

    def test_duplicate_detections_count_as_false_positives(self):
        gts = [("v", 0.0, 10.0)]
        preds = [det("v", 0.0, 10.0, 0.9), det("v", 0.0, 10.0, 0.8)]
        # second one cannot rematch the same ground truth
        assert_allclose(average_precision(preds, gts, 0.5), 1.0)
        precision_limited = average_precision(
            [det("v", 0.0, 10.0, 0.8), det("v", 0.0, 10.0, 0.9)], gts, 0.5
        )
        assert_allclose(precision_limited, 1.0)  # rank 1 still matches first

    def test_matches_cross_video(self):
        gts = [("a", 0.0, 10.0), ("b", 0.0, 10.0)]
        preds = [det("a", 0.0, 10.0, 0.9), det("a", 0.0, 10.0, 0.8)]
        # the second prediction is in the wrong video
        assert_allclose(average_precision(preds, gts, 0.5), 0.5)

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            average_precision([], [], 0.0)
        with pytest.raises(ConfigError):
            average_precision([], [], 1.5)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(17)
        for trial in range(15):
            videos = ["a", "b", "c"]
            gts = []
            for _ in range(rng.integers(1, 8)):
                start = rng.uniform(0, 80)
                gts.append((str(rng.choice(videos)), start, start + rng.uniform(2, 20)))
            preds = []
            for _ in range(rng.integers(1, 25)):
                start = rng.uniform(0, 80)
                preds.append(det(str(rng.choice(videos)), start,
                                 start + rng.uniform(2, 20), round(rng.uniform(), 3)))
            for threshold in (0.3, 0.5, 0.7):
                got = average_precision(preds, gts, threshold)
                expect = brute_average_precision(preds, gts, threshold)
                assert_allclose(got, expect, atol=1e-12,
                                err_msg=f"trial {trial} threshold {threshold}")

    def test_lower_threshold_never_reduces_ap(self):
        rng = np.random.default_rng(23)
        gts = [("v", s, s + 10) for s in range(0, 100, 20)]
        preds = [det("v", s + rng.uniform(-4, 4), s + 10 + rng.uniform(-4, 4),
                     rng.uniform()) for s in range(0, 100, 20)]
        aps = [average_precision(preds, gts, t) for t in (0.7, 0.5, 0.3, 0.1)]
        assert all(b >= a - 1e-12 for a, b in zip(aps, aps[1:]))


class TestEvaluate:
    def annotation_set(self):
        videos = [
            VideoAnnotation("v", 200, 25.0, [ActionInstance(10.0, 50.0, 1),
                                             ActionInstance(100.0, 150.0, 2)]),
            VideoAnnotation("w", 300, 25.0, [ActionInstance(20.0, 80.0, 1)]),
        ]
        return AnnotationSet(videos, ["jump", "swim"])

    def perfect_predictions(self):
        return [
            det("v", 10.0, 50.0, 0.9, cat=1),
            det("v", 100.0, 150.0, 0.8, cat=2),
            det("w", 20.0, 80.0, 0.95, cat=1),
        ]

    def test_perfect_predictions_reach_map_one(self):
        report = evaluate(self.perfect_predictions(), self.annotation_set(),
                          thresholds=(0.5, 0.1))
        assert report["thresholds"] == [0.5, 0.1]
        assert report["map"] == {"0.50": 1.0, "0.10": 1.0}

    def test_report_counts_and_names(self):
        doc = evaluate(self.perfect_predictions(), self.annotation_set(), (0.5,))
        assert doc["num_predictions"] == 3
        assert doc["num_ground_truth"] == 3
        assert set(doc["per_category"]["0.50"]) == {"jump", "swim"}
        assert doc["per_category"]["0.50"]["jump"]["ground_truth"] == 2

    def test_map_averages_over_present_categories_only(self):
        videos = [VideoAnnotation("v", 100, 25.0, [ActionInstance(0.0, 50.0, 1)])]
        anns = AnnotationSet(videos, ["a", "b"])  # category 2 has no ground truth
        preds = [det("v", 0.0, 50.0, 0.9, cat=1), det("v", 60.0, 90.0, 0.9, cat=2)]
        report = evaluate(preds, anns, (0.5,))
        assert report["map"]["0.50"] == 1.0
        assert list(report["per_category"]["0.50"]) == ["a"]

    def test_unknown_category_named_in_error(self):
        preds = [det("v", 0.0, 10.0, 0.5, cat=9)]
        with pytest.raises(DataError, match="category 9"):
            evaluate(preds, self.annotation_set(), (0.5,))

    def test_unknown_video_rejected(self):
        preds = [det("nope", 0.0, 10.0, 0.5, cat=1)]
        with pytest.raises(DataError, match="nope"):
            evaluate(preds, self.annotation_set(), (0.5,))

    def test_json_report_is_deterministic(self):
        a, b = (json.dumps(evaluate(self.perfect_predictions(), self.annotation_set(),
                                    (0.5, 0.3)), indent=2, sort_keys=True) for _ in range(2))
        assert a == b
        json.loads(a)  # well-formed

    def test_table_orders_thresholds_descending(self):
        report = evaluate(self.perfect_predictions(), self.annotation_set(),
                          (0.1, 0.3, 0.5))
        table = to_table(report, label="mine")
        lines = table.strip().splitlines()
        assert lines[0] == "mAP (%) by IoU threshold"
        assert lines[1].split() == ["config", "0.50", "0.30", "0.10"]
        assert lines[2].split() == ["mine", "100.00", "100.00", "100.00"]

    def test_no_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            evaluate([], self.annotation_set(), ())

    def test_thresholds_equal_to_two_decimals_rejected(self):
        # both would be reported under "1.00", and one would overwrite the other
        with pytest.raises(ConfigError, match=r"\[0\.998, 0\.9985\]"):
            evaluate(self.perfect_predictions(), self.annotation_set(), (0.5, 0.998, 0.9985))

    def test_every_threshold_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(31)
        thresholds = (0.1, 0.3, 0.5, 0.7)
        for trial in range(20):
            videos = [VideoAnnotation(f"v{i}", 100, 25.0, []) for i in range(3)]
            for _ in range(rng.integers(1, 12)):
                start = float(rng.integers(0, 60))  # integer ends: exact IoU ties
                videos[rng.integers(3)].instances.append(
                    ActionInstance(start, start + float(rng.integers(2, 20)),
                                   int(rng.integers(1, 4))))
            video = videos[0]
            if video.instances:  # a duplicate ground-truth segment
                video.instances.append(video.instances[0])
            preds = []
            for _ in range(rng.integers(1, 40)):
                start = float(rng.integers(0, 60))
                preds.append(det(f"v{rng.integers(3)}", start,
                                 start + float(rng.integers(2, 20)),
                                 rng.choice([0.25, 0.5, 0.75]), cat=int(rng.integers(1, 4))))
            preds.append(preds[0])  # a duplicate prediction, equal confidence
            # IoU 1/3 with two ground truths, the first of which the next one takes
            v, cat = int(rng.integers(3)), int(rng.integers(1, 4))
            videos[v].instances += [ActionInstance(100.0, 110.0, cat),
                                    ActionInstance(110.0, 120.0, cat)]
            preds += [det(f"v{v}", 105.0, 115.0, 0.75, cat), det(f"v{v}", 100.0, 110.0, 0.5, cat)]
            report = evaluate(preds, AnnotationSet(videos, ["a", "b", "c"]), thresholds)
            for cat, name in enumerate(["a", "b", "c"], start=1):
                gts = [(v.video_id, i.start, i.end)
                       for v in videos for i in v.instances if i.category == cat]
                if not gts:
                    continue
                cat_preds = [p for p in preds if p.category == cat]
                for t in thresholds:
                    got = report["per_category"][f"{t:.2f}"][name]["ap"]
                    expect = brute_average_precision(cat_preds, gts, t)
                    assert_allclose(got, expect, atol=1e-12,
                                    err_msg=f"trial {trial} category {cat} threshold {t}")
