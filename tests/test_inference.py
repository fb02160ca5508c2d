import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.data import (
    Detection, ScoreBlock, ScoreSequence, SynthConfig, slide_windows, synth_generate,
)
from tadkit.errors import ConfigError, DataError, UsageError
from tadkit.inference import (
    PREDICTION_OVERLAP,
    FusionConfig,
    block_alignment,
    fuse_scores,
    mean_snippet_scores,
    nms,
    predict_video,
)
from tadkit.model import Network, NetworkConfig
from tadkit.tensor import softmax

from oracles import brute_nms, direct_mean_scores


def make_seq(matrix, blocks, video_id="v"):
    return ScoreSequence(video_id, np.asarray(matrix, dtype=float), blocks)


class TestBlockAlignment:
    def test_named_columns_map_onto_categories(self):
        blocks = [ScoreBlock("b", 3, ("jump", "background", "run"))]
        seq = make_seq(np.zeros((4, 3)), blocks)
        (cols,) = block_alignment(seq, ["run", "jump"])
        # wanted order: background, run, jump
        assert list(cols) == [2, 0, 1]

    def test_unnamed_block_of_matching_width_is_identity(self):
        seq = make_seq(np.zeros((4, 3)), [ScoreBlock("b", 3)])
        (cols,) = block_alignment(seq, ["x", "y"])
        assert list(cols) == [0, 1, 2]

    def test_unnamed_block_of_wrong_width_rejected(self):
        seq = make_seq(np.zeros((4, 5)), [ScoreBlock("b", 5)])
        with pytest.raises(DataError, match="cannot align"):
            block_alignment(seq, ["x", "y"])

    def test_wrong_names_rejected(self):
        blocks = [ScoreBlock("b", 3, ("background", "walk", "swim"))]
        seq = make_seq(np.zeros((4, 3)), blocks)
        with pytest.raises(DataError, match="do not cover"):
            block_alignment(seq, ["run", "jump"])


class TestMeanSnippetScores:
    def test_hand_computed_two_block_value(self):
        # two blocks of width 2, rows 1..2 covered
        matrix = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.2, 0.8, 0.4, 0.6],
            [0.4, 0.6, 0.0, 1.0],
            [9.0, 9.0, 9.0, 9.0],
        ])
        seq = make_seq(matrix, [ScoreBlock("p", 2), ScoreBlock("q", 2)])
        out = mean_snippet_scores(seq, [1.0], [3.0], ["only"])
        # per block means over rows 1-2, summed, over 2 blocks
        assert_allclose(out, [[(0.3 + 0.2) / 2, (0.7 + 0.8) / 2]])

    def test_fractional_range_includes_partial_rows(self):
        matrix = np.array([[1.0], [2.0], [4.0], [8.0]])
        seq = make_seq(matrix, [ScoreBlock("b", 1)])
        out = mean_snippet_scores(seq, [1.2], [2.6], [])
        # floor(1.2)=1 .. ceil(2.6)=3 covers rows 1 and 2
        assert_allclose(out, [[(2.0 + 4.0) / 2]])

    def test_range_clamped_to_video(self):
        matrix = np.array([[1.0], [3.0]])
        seq = make_seq(matrix, [ScoreBlock("b", 1)])
        assert_allclose(mean_snippet_scores(seq, [-5.0], [99.0], []), [[2.0]])

    def test_empty_range_warns_and_zeroes(self):
        seq = make_seq(np.ones((4, 1)), [ScoreBlock("b", 1)])
        with pytest.warns(UserWarning, match="empty snippet range"):
            out = mean_snippet_scores(seq, [2.0], [2.0], [])
        assert_allclose(out, [[0.0]])

    def test_matches_direct_summation_on_random_ranges(self):
        rng = np.random.default_rng(8)
        k1 = 4
        widths = [k1, k1]
        matrix = rng.uniform(size=(40, sum(widths)))
        names = ("background", "a", "b", "c")
        seq = make_seq(matrix, [ScoreBlock("x", k1, names), ScoreBlock("y", k1, names)])
        alignment = block_alignment(seq, ["a", "b", "c"])
        starts = rng.uniform(0, 35, 20)
        ends = starts + rng.uniform(0.5, 5, 20)
        got = mean_snippet_scores(seq, starts, ends, ["a", "b", "c"])
        for row, start, end in zip(got, starts, ends):
            expect = direct_mean_scores(matrix, widths, alignment, start, end, k1)
            assert_allclose(row, expect, rtol=1e-12)

    def test_prefix_sums_hold_precision_on_a_long_video(self):
        # the length of a long benchmark video: prefix sums reach ~10^4
        cfg = SynthConfig(num_videos=1, min_video_length=20000, max_video_length=20000,
                          min_instances=40, max_instances=80, noise_sigma=0.2)
        (seq,), _ = synth_generate(cfg, 3)
        assert seq.num_snippets == 20000 and len(seq.blocks) == 3
        alignment = block_alignment(seq, cfg.category_names)
        rng = np.random.default_rng(9)
        starts = rng.uniform(0, 19990, 200)
        ends = np.minimum(starts + rng.uniform(0.5, 400, 200), 20000)
        got = mean_snippet_scores(seq, starts, ends, cfg.category_names)
        widths = [b.width for b in seq.blocks]
        for row, start, end in zip(got, starts, ends):
            expect = direct_mean_scores(seq.matrix, widths, alignment, start, end,
                                        cfg.head_width)
            assert_allclose(row, expect, rtol=1e-9)


class TestFuseScores:
    def fuse(self, class_scores, overlap, mean_scores, config):
        """Fuse one candidate; returns its fused row, category, confidence."""
        fused, category, confidence = fuse_scores(
            [class_scores], [overlap], [mean_scores], config)
        return fused[0], category[0], confidence[0]

    def test_full_fusion_crafted_values(self):
        fused, category, confidence = self.fuse(
            [0.1, 0.6, 0.3], 0.5, [0.2, 0.2, 0.6], FusionConfig())
        assert_allclose(fused, [0.15, 0.4, 0.45])
        assert category == 2
        assert_allclose(confidence, 0.45)

    def test_background_column_never_wins_category(self):
        _, category, _ = self.fuse([0.9, 0.05, 0.05], 1.0, np.zeros(3),
                                   FusionConfig(use_sas=False))
        assert category == 1  # argmax over action columns only

    def test_class_only_and_sas_only(self):
        sas = [0.2, 0.2, 0.6]
        no_sas, _, _ = self.fuse([0.1, 0.6, 0.3], 0.5, sas,
                                 FusionConfig(use_sas=False, use_over=False))
        assert_allclose(no_sas, [0.1, 0.6, 0.3])
        no_class, _, _ = self.fuse([0.1, 0.6, 0.3], 0.5, sas,
                                   FusionConfig(use_class=False, use_over=False))
        assert_allclose(no_class, sas)

    def test_zero_overlap_zeroes_confidence(self):
        _, _, confidence = self.fuse([0.1, 0.6, 0.3], 0.0, [0.2, 0.2, 0.6], FusionConfig())
        assert confidence == 0.0

    def test_input_arrays_unchanged(self):
        class_scores = np.array([[0.1, 0.6, 0.3]])
        overlap = np.array([0.5])
        mean_scores = np.array([[0.2, 0.2, 0.6]])
        fuse_scores(class_scores, overlap, mean_scores, FusionConfig())
        assert class_scores.tolist() == [[0.1, 0.6, 0.3]]
        assert overlap.tolist() == [0.5]
        assert mean_scores.tolist() == [[0.2, 0.2, 0.6]]

    def test_rows_fuse_independently_and_ties_go_to_lower_category(self):
        class_scores = np.array([[0.1, 0.6, 0.3], [0.2, 0.4, 0.4]])
        fused, category, confidence = fuse_scores(
            class_scores, [0.5, 1.0], np.zeros((2, 3)), FusionConfig(use_sas=False))
        assert_allclose(fused, [[0.05, 0.3, 0.15], [0.2, 0.4, 0.4]])
        assert category.tolist() == [1, 1]
        assert_allclose(confidence, [0.3, 0.4])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError, match="shapes differ"):
            fuse_scores(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 4)), FusionConfig())

    def test_at_least_one_source_required(self):
        with pytest.raises(ConfigError):
            FusionConfig(use_class=False, use_sas=False)


class TestNms:
    def det(self, start, end, conf, cat=1, vid="v"):
        return Detection(vid, float(start), float(end), cat, float(conf))

    def test_pinned_example(self):
        dets = [self.det(0, 10, 0.9), self.det(1, 11, 0.8), self.det(20, 30, 0.7)]
        kept = nms(dets, 0.1)
        assert kept == [dets[0], dets[2]]

    def test_categories_do_not_suppress_each_other(self):
        dets = [self.det(0, 10, 0.9, cat=1), self.det(0, 10, 0.8, cat=2)]
        assert len(nms(dets, 0.1)) == 2

    def test_exact_threshold_survives(self):
        # IoU exactly at the threshold is kept (suppression needs >)
        a = self.det(0.0, 10.0, 0.9)
        b = self.det(9.0, 19.0, 0.8)  # IoU = 1/19
        kept = nms([a, b], 1.0 / 19.0)
        assert len(kept) == 2

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        dets = [self.det(s, s + rng.uniform(1, 20), rng.uniform(), cat=int(rng.integers(1, 3)))
                for s in rng.uniform(0, 100, 40)]
        once = nms(dets, 0.1)
        assert nms(once, 0.1) == once

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            dets = []
            for _ in range(rng.integers(2, 30)):
                start = rng.uniform(0, 50)
                dets.append(self.det(start, start + rng.uniform(0.5, 15),
                                     round(rng.uniform(), 3), cat=int(rng.integers(1, 4))))
            for threshold in (0.1, 0.5, 0.9):
                got = nms(dets, threshold)
                expect = [dets[i] for i in brute_nms(dets, threshold)]
                assert got == expect, f"trial {trial} threshold {threshold}"

    def test_zero_width_rejected(self):
        with pytest.raises(UsageError, match="positive width"):
            nms([self.det(0.0, 1.0, 0.9), self.det(0.5, 0.5, 0.8)], 0.1)

    def test_confidence_tie_keeps_earlier_start(self):
        a = self.det(5.0, 15.0, 0.8)
        b = self.det(4.0, 14.0, 0.8)  # same confidence, earlier start
        kept = nms([a, b], 0.1)
        assert kept == [b]


class TestPredictVideo:
    def setup_method(self):
        cfg = SynthConfig(
            num_videos=1, num_classes=2, block_names=("a", "b"),
            min_video_length=200, max_video_length=260,
            min_instance_length=60, max_instance_length=90,
            noise_sigma=0.05,
        )
        (self.seq,), (self.ann,) = synth_generate(cfg, 5)
        self.categories = cfg.category_names
        self.net = Network(
            NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                          base_filters=6, anchor_filters=8),
            seed=1,
        )

    def test_detections_are_clipped_sorted_and_positive(self):
        dets = predict_video(self.seq, self.net, self.categories, FusionConfig())
        assert dets, "expected at least one detection"
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)
        for d in dets:
            assert 0.0 <= d.start < d.end <= self.seq.num_snippets
            assert d.category in (1, 2)

    def test_prediction_is_deterministic(self):
        a = predict_video(self.seq, self.net, self.categories, FusionConfig())
        b = predict_video(self.seq, self.net, self.categories, FusionConfig())
        assert a == b

    def test_nms_applied_within_category(self):
        dets = predict_video(self.seq, self.net, self.categories, FusionConfig())
        for i, a in enumerate(dets):
            for b in dets[i + 1:]:
                if a.category == b.category:
                    inter = min(a.end, b.end) - max(a.start, b.start)
                    if inter > 0:
                        iou = inter / ((a.end - a.start) + (b.end - b.start) - inter)
                        assert iou <= 0.1 + 1e-12

    def test_matches_per_candidate_recomputation(self):
        # every window's anchors decoded, clipped and fused one at a time,
        # then suppressed by the brute-force NMS
        config = FusionConfig()
        t_v = self.seq.num_snippets
        t_w = self.net.config.window_length
        alignment = block_alignment(self.seq, self.categories)
        widths = [b.width for b in self.seq.blocks]
        candidates = []
        for window in slide_windows(self.seq, None, t_w, PREDICTION_OVERLAP, keep_empty=True):
            decoded = self.net.decode(window.features)
            probs = softmax(decoded.class_logits).data
            for i in range(len(decoded)):
                center = window.start + decoded.centers.data[i] * t_w
                width = decoded.widths.data[i] * t_w
                start = min(max(center - width / 2, 0.0), t_v)
                end = min(max(center + width / 2, 0.0), t_v)
                if end <= start:
                    continue
                mean = direct_mean_scores(self.seq.matrix, widths, alignment,
                                          start, end, 3)
                fused = decoded.overlap.data[i] * (probs[i] + mean)
                category = 1 + int(np.argmax(fused[1:]))
                candidates.append(Detection(self.seq.video_id, float(start), float(end),
                                            category, float(fused[category])))
        kept = [candidates[i] for i in brute_nms(candidates, config.nms_threshold)]
        kept.sort(key=lambda d: (-d.confidence, d.start))
        got = predict_video(self.seq, self.net, self.categories, config)
        assert len(got) == len(kept)
        for g, k in zip(got, kept):
            assert (g.video_id, g.start, g.end, g.category) == (
                k.video_id, k.start, k.end, k.category)
            assert_allclose(g.confidence, k.confidence, rtol=1e-12)

    def test_category_count_mismatch_rejected(self):
        with pytest.raises(UsageError, match="categories"):
            predict_video(self.seq, self.net, ["only_one"], FusionConfig())

    def test_feature_dim_mismatch_rejected(self):
        seq = make_seq(np.zeros((200, 4)), [ScoreBlock("b", 4)], video_id="w")
        with pytest.raises(UsageError, match="dim"):
            predict_video(seq, self.net, self.categories, FusionConfig())
