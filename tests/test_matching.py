import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.data import ActionInstance
from tadkit.errors import UsageError
from tadkit.matching import hard_negative_mine, match_anchors, segment_iou_matrix
from tadkit.model import anchor_grid

from oracles import brute_match, interval_iou


def make_anchors(*spans):
    """Anchors with the given (start, end) spans, as the record array
    ``match_anchors`` reads."""
    starts, ends = np.array(spans, dtype=float).T
    return np.rec.fromarrays([starts, ends], names="start,end")


def iou(a, b):
    """IoU of two (start, end) segments as a 1x1 segment_iou_matrix."""
    return segment_iou_matrix([a[0]], [a[1]], [b[0]], [b[1]])[0, 0]


class TestIou:
    def test_known_values(self):
        assert_allclose(iou((0.25, 0.75), (0.3, 0.7)), 0.8)
        assert iou((0.0, 1.0), (2.0, 3.0)) == 0.0
        assert iou((0.0, 1.0), (0.0, 1.0)) == 1.0
        assert_allclose(iou((0.0, 2.0), (1.0, 3.0)), 1 / 3)

    def test_touching_segments_have_zero_iou(self):
        assert iou((0.0, 1.0), (1.0, 2.0)) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = np.sort(rng.uniform(0, 10, 2) + [0, 0.01])
            b = np.sort(rng.uniform(0, 10, 2) + [0, 0.01])
            ab = iou(a, b)
            assert ab == iou(b, a)
            assert 0.0 <= ab <= 1.0
            assert_allclose(ab, interval_iou(a, b))

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        sa = rng.uniform(0, 5, 8)
        wa = rng.uniform(0.1, 2, 8)
        sb = rng.uniform(0, 5, 5)
        wb = rng.uniform(0.1, 2, 5)
        m = segment_iou_matrix(sa, sa + wa, sb, sb + wb)
        for i in range(8):
            for j in range(5):
                assert_allclose(m[i, j], interval_iou((sa[i], sa[i] + wa[i]),
                                                      (sb[j], sb[j] + wb[j])))


class TestMatchAnchors:
    def test_above_threshold_takes_category(self):
        anchors = make_anchors((0.25, 0.75))
        (m,) = match_anchors(anchors, [ActionInstance(0.3, 0.7, 2)])
        assert m.label == 2
        assert_allclose(m.iou, 0.8)
        assert_allclose(m.target_center, 0.5)
        assert_allclose(m.target_width, 0.4)

    def test_exactly_half_iou_is_negative(self):
        # IoU must be strictly greater than 0.5
        anchors = make_anchors((0.0, 0.5))
        (m,) = match_anchors(anchors, [ActionInstance(0.25, 0.75, 1)])
        assert_allclose(m.iou, 1 / 3)
        assert m.label == 0
        (m,) = match_anchors(make_anchors((0.0, 1.0)), [ActionInstance(0.0, 0.5, 1)])
        assert_allclose(m.iou, 0.5)
        assert m.label == 0

    def test_negative_keeps_best_iou_for_overlap_target(self):
        anchors = make_anchors((0.0, 0.2), (0.5, 0.9))
        matched = match_anchors(anchors, [ActionInstance(0.55, 0.85, 3)])
        assert matched[0].label == 0
        assert matched[0].iou == 0.0
        assert matched[1].label == 3
        assert_allclose(matched[1].iou, 0.75)

    def test_tie_prefers_earlier_start_then_lower_category(self):
        # anchor [0.4, 0.6] overlaps both targets at exactly IoU 0.75
        anchors = make_anchors((0.4, 0.6))
        targets = [ActionInstance(0.45, 0.6, 2), ActionInstance(0.4, 0.55, 1)]
        (m,) = match_anchors(anchors, targets)
        assert m.label == 1  # earlier start wins
        assert_allclose(m.target_center, (0.4 + 0.55) / 2)
        # identical spans: the lower category wins
        same_start = [ActionInstance(0.4, 0.55, 2), ActionInstance(0.4, 0.55, 1)]
        (m2,) = match_anchors(make_anchors((0.4, 0.55)), same_start)
        assert m2.label == 1

    def test_empty_targets_rejected(self):
        with pytest.raises(UsageError):
            match_anchors(make_anchors((0.0, 1.0)), [])

    def test_matches_brute_force_on_random_layouts(self):
        rng = np.random.default_rng(7)
        anchors = anchor_grid(16, (0.5, 1.0, 2.0))
        for _ in range(25):
            n = rng.integers(1, 5)
            targets = []
            for _ in range(n):
                start = rng.uniform(0, 0.8)
                targets.append(
                    ActionInstance(start, start + rng.uniform(0.02, 0.3), int(rng.integers(1, 4)))
                )
            got = match_anchors(anchors, targets)
            expect = brute_match(anchors, targets)
            for g, (label, iou, t) in zip(got, expect):
                assert g.label == label
                assert_allclose(g.iou, iou, atol=1e-12)
                assert_allclose(g.target_center, (t.start + t.end) / 2, atol=1e-12)


def matched_fixture(labels):
    labels = np.array(labels)
    return np.rec.fromarrays(
        [labels, np.where(labels > 0, 0.6, 0.1), np.full(labels.size, 0.5),
         np.full(labels.size, 0.2)], names="label,iou,target_center,target_width")


class TestHardNegativeMining:
    def test_all_hard_negatives_kept_when_more_than_positives(self):
        matched = matched_fixture([1, 2, 0, 0, 0, 0, 0])
        scores = np.array([0.9, 0.9, 0.8, 0.7, 0.6, 0.2, 0.1])  # 3 hard negatives
        pos, neg = hard_negative_mine(matched, scores, rng=0)
        assert list(pos) == [0, 1]
        assert list(neg) == [2, 3, 4]

    def test_easy_negatives_fill_to_positive_count(self):
        matched = matched_fixture([1, 2, 0, 0, 0, 0, 0])
        scores = np.array([0.9, 0.9, 0.8, 0.2, 0.2, 0.2, 0.2])  # 1 hard negative
        pos, neg = hard_negative_mine(matched, scores, rng=0)
        assert list(pos) == [0, 1]
        assert len(neg) == 2
        assert 2 in neg  # the hard one always stays
        assert set(neg) <= {2, 3, 4, 5, 6}

    def test_boundary_score_is_not_hard(self):
        matched = matched_fixture([1, 0, 0])
        scores = np.array([0.9, 0.5, 0.2])  # exactly 0.5 is easy
        pos, neg = hard_negative_mine(matched, scores, rng=1)
        assert len(neg) == 1
        assert neg[0] in (1, 2)

    def test_no_positives_keeps_one_negative_with_warning(self):
        matched = matched_fixture([0, 0, 0, 0])
        scores = np.full(4, 0.3)
        with pytest.warns(UserWarning, match="no positive anchors"):
            pos, neg = hard_negative_mine(matched, scores, rng=3)
        assert pos.size == 0
        assert neg.size == 1

    def test_sampling_is_seeded(self):
        matched = matched_fixture([1, 1, 1] + [0] * 20)
        scores = np.concatenate([[0.9, 0.9, 0.9], np.full(20, 0.1)])
        a = hard_negative_mine(matched, scores, rng=11)
        b = hard_negative_mine(matched, scores, rng=11)
        c = hard_negative_mine(matched, scores, rng=12)
        assert list(a[1]) == list(b[1])
        assert len(c[1]) == len(a[1]) == 3
        assert list(a[1]) != list(c[1])  # different seed, different sample

    def test_fewer_easy_than_needed_takes_all(self):
        matched = matched_fixture([1, 1, 1, 0])
        scores = np.array([0.9, 0.9, 0.9, 0.1])
        pos, neg = hard_negative_mine(matched, scores, rng=0)
        assert list(neg) == [3]
