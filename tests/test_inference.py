import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.data import (
    Detection, ScoreBlock, ScoreSequence, SynthConfig, slide_windows, synth_generate,
)
from tadkit.errors import ConfigError, DataError, UsageError
import tadkit.inference
import tadkit.model
import tadkit.tensor
from tadkit.inference import (
    DECODE_STACK,
    PREDICTION_OVERLAP,
    FusionConfig,
    block_sums,
    fuse_scores,
    mean_snippet_scores,
    nms,
    predict_video,
    softmax,
)
from tadkit.model import Network, NetworkConfig
from tadkit.tensor import Parameter, tmean
from tadkit.training import TrainConfig, train

from oracles import brute_nms, direct_mean_scores


def make_seq(matrix, blocks, video_id="v"):
    return ScoreSequence(video_id, np.asarray(matrix, dtype=float), blocks)


class TestBlockSums:
    def test_one_block_of_matching_width_sums_to_itself(self):
        matrix = np.random.default_rng(2).uniform(size=(4, 3))
        seq = make_seq(matrix, [ScoreBlock("b", 3)])
        assert np.array_equal(block_sums(seq, ["x", "y"]), matrix)

    def test_blocks_add_by_position_left_to_right(self):
        matrix = np.random.default_rng(3).uniform(size=(50, 12))
        seq = make_seq(matrix, [ScoreBlock(name, 4) for name in "pqr"])
        want = (matrix[:, 0:4] + matrix[:, 4:8]) + matrix[:, 8:12]
        assert np.array_equal(block_sums(seq, ["x", "y", "z"]), want)

    def test_block_of_wrong_width_rejected(self):
        seq = make_seq(np.zeros((4, 5)), [ScoreBlock("b", 5)])
        with pytest.raises(DataError, match="block 'b' has width 5, cannot align"):
            block_sums(seq, ["x", "y"])


class TestSoftmax:
    def test_uniform_on_constant_rows(self):
        assert_allclose(softmax(np.full((3, 4), 7.0)), np.full((3, 4), 0.25))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        out = softmax(rng.normal(scale=30, size=(6, 5)))
        assert_allclose(out.sum(axis=-1), np.ones(6), rtol=1e-12)

    def test_large_logits_stay_finite(self):
        out = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        assert_allclose(out[0, 0], 1.0)


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
        seq = make_seq(matrix, [ScoreBlock("x", k1), ScoreBlock("y", k1)])
        alignment = [np.arange(k1)] * len(seq.blocks)
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
        alignment = [np.arange(cfg.head_width)] * len(seq.blocks)
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
        """Fuse one candidate; returns its category and confidence."""
        category, confidence = fuse_scores(
            [class_scores], [overlap], [mean_scores], config)
        return category[0], confidence[0]

    def test_full_fusion_crafted_values(self):
        # fused row 0.5 * ([0.1, 0.6, 0.3] + [0.2, 0.2, 0.6]) = [0.15, 0.4, 0.45]
        category, confidence = self.fuse(
            [0.1, 0.6, 0.3], 0.5, [0.2, 0.2, 0.6], FusionConfig())
        assert category == 2
        assert_allclose(confidence, 0.45)

    def test_background_column_never_wins_category(self):
        category, _ = self.fuse([0.9, 0.05, 0.05], 1.0, np.zeros(3),
                                FusionConfig(use_sas=False))
        assert category == 1  # argmax over action columns only

    def test_class_only_and_sas_only(self):
        sas = [0.2, 0.2, 0.6]
        no_sas = self.fuse([0.1, 0.6, 0.3], 0.5, sas,
                           FusionConfig(use_sas=False, use_over=False))
        assert no_sas[0] == 1
        assert_allclose(no_sas[1], 0.6)
        no_class = self.fuse([0.1, 0.6, 0.3], 0.5, sas,
                             FusionConfig(use_class=False, use_over=False))
        assert no_class[0] == 2
        assert_allclose(no_class[1], 0.6)

    def test_zero_overlap_zeroes_confidence(self):
        _, confidence = self.fuse([0.1, 0.6, 0.3], 0.0, [0.2, 0.2, 0.6], FusionConfig())
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
        # fused rows [0.05, 0.3, 0.15] and [0.2, 0.4, 0.4]
        category, confidence = fuse_scores(
            class_scores, [0.5, 1.0], np.zeros((2, 3)), FusionConfig(use_sas=False))
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

    def test_matches_per_candidate_recomputation(self, monkeypatch):
        """``predict_video`` against every window's anchors decoded, clipped
        and fully fused one at a time, then the brute-force NMS."""
        seq, config = self.seq, FusionConfig()
        t_v = seq.num_snippets
        t_w = self.net.config.window_length
        alignment = [np.arange(3)] * len(seq.blocks)
        widths = [b.width for b in seq.blocks]
        candidates = []
        for window in slide_windows(seq, None, t_w, PREDICTION_OVERLAP, keep_empty=True):
            decoded = self.net.decode(window.features, self.net.cast_parameters("float32"))
            probs = softmax(decoded.class_logits.data)
            for i in range(decoded.overlap.data.shape[-1]):
                center = window.start + decoded.centers.data[i] * t_w
                width = decoded.widths.data[i] * t_w
                start = min(max(center - width / 2, 0.0), t_v)
                end = min(max(center + width / 2, 0.0), t_v)
                if end <= start:
                    continue
                mean = direct_mean_scores(seq.matrix, widths, alignment, start, end, 3)
                fused = decoded.overlap.data[i] * (probs[i] + mean)
                category = 1 + int(np.argmax(fused[1:]))
                candidates.append(Detection(seq.video_id, float(start), float(end),
                                            category, float(fused[category])))
        kept = [candidates[i] for i in brute_nms(candidates, config.nms_threshold)]
        kept.sort(key=lambda d: (-d.confidence, d.start))

        reached = []

        def spy_nms(detections, threshold):
            reached.append(detections)
            return nms(detections, threshold)

        monkeypatch.setattr(tadkit.inference, "nms", spy_nms)
        got = predict_video(seq, self.net, self.categories, config)
        # NMS sees exactly the rows kept, in order; a window decoded on its
        # own rounds apart from its stack in float32, so positions are close
        assert len(reached) == 1 and len(reached[0]) == len(candidates)
        assert [d.category for d in reached[0]] == [d.category for d in candidates]
        assert_allclose([(d.start, d.end) for d in reached[0]],
                        [(d.start, d.end) for d in candidates], rtol=0, atol=1e-4)
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

    def test_block_width_is_checked_before_any_decode(self, monkeypatch):
        # the network's 6 columns as one block, not two blocks of K+1 = 3
        seq = make_seq(self.seq.matrix, [ScoreBlock("ab", 6)])
        decodes, decode = [], self.net.decode

        def spy_decode(*args):
            decodes.append(args)
            return decode(*args)

        monkeypatch.setattr(self.net, "decode", spy_decode)
        with pytest.raises(DataError, match="block 'ab' has width 6, cannot align"):
            predict_video(seq, self.net, self.categories, FusionConfig())
        assert decodes == []


def per_window_candidates(seq, net, windows, categories, config):
    """Each window decoded on its own in float64, then the same array
    pipeline as ``predict_video``: the candidates it hands to NMS."""
    t_v, t_w = seq.num_snippets, net.config.window_length
    probs, overlap, starts, ends = [], [], [], []
    for window in windows:
        decoded = net.decode(window.features)
        probs.append(softmax(decoded.class_logits.data))
        overlap.append(decoded.overlap.data)
        centers = window.start + decoded.centers.data * t_w
        widths = decoded.widths.data * t_w
        starts.append(np.clip(centers - widths / 2, 0.0, t_v))
        ends.append(np.clip(centers + widths / 2, 0.0, t_v))
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    live = ends > starts
    starts, ends = starts[live], ends[live]
    mean = mean_snippet_scores(seq, starts, ends, categories)
    category, confidence = fuse_scores(
        np.concatenate(probs)[live], np.concatenate(overlap)[live], mean, config)
    return [Detection(seq.video_id, float(s), float(e), int(c), float(f))
            for s, e, c, f in zip(starts, ends, category, confidence)]


def assert_float32_close(low, wide):
    """float32 candidates against float64 ones: the same rows and categories,
    positions within 1e-4 snippets and confidences within 1e-5 relative
    (``TestTiledPrediction`` measured up to 2e-6 snippets and 2e-7)."""
    assert len(low) == len(wide) > 100
    assert [d.category for d in low] == [d.category for d in wide]
    assert_allclose([(d.start, d.end) for d in low], [(d.start, d.end) for d in wide],
                    rtol=0, atol=1e-4)
    assert_allclose([d.confidence for d in low], [d.confidence for d in wide],
                    rtol=1e-5, atol=1e-6)


class TestStackedDecode:
    """Forty windows of 128 decode as two full stacks and a partial one."""

    def setup_method(self):
        cfg = SynthConfig(
            num_videos=1, num_classes=2, block_names=("a", "b"),
            min_video_length=3872, max_video_length=3872, min_instances=3, max_instances=5,
            min_instance_length=60, max_instance_length=90, noise_sigma=0.05,
        )
        (self.seq,), _ = synth_generate(cfg, 5)
        self.categories = cfg.category_names
        self.net = Network(
            NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                          base_filters=6, anchor_filters=8),
            seed=1,
        )
        self.windows = slide_windows(self.seq, None, 128, PREDICTION_OVERLAP, keep_empty=True)

    def per_window_candidates(self, config):
        return per_window_candidates(self.seq, self.net, self.windows, self.categories, config)

    @staticmethod
    def assert_close(got, want):
        assert len(got) == len(want)
        assert [d.category for d in got] == [d.category for d in want]
        assert_allclose([(d.start, d.end) for d in got], [(d.start, d.end) for d in want],
                        rtol=0, atol=1e-12)
        assert_allclose([d.confidence for d in got], [d.confidence for d in want], rtol=1e-12)

    def test_matches_per_window_decode(self, monkeypatch):
        assert len(self.windows) == 40 and len(self.windows) % DECODE_STACK
        shapes, candidates = [], []
        decode = self.net.decode

        def spy_decode(features, *_):  # float64, as the oracle: this checks the stacking
            shapes.append(features.shape)
            return decode(features)

        def spy_nms(detections, threshold):
            candidates.append(detections)
            return nms(detections, threshold)

        monkeypatch.setattr(self.net, "decode", spy_decode)
        monkeypatch.setattr(tadkit.inference, "nms", spy_nms)
        config = FusionConfig()
        got = predict_video(self.seq, self.net, self.categories, config)
        assert shapes == [(min(DECODE_STACK, 40 - first), 128, 6)
                          for first in range(0, 40, DECODE_STACK)]
        assert len(shapes) > 1 and shapes[-1][0] < DECODE_STACK

        want = self.per_window_candidates(config)
        self.assert_close(candidates[0], want)
        kept = nms(want, config.nms_threshold)
        kept.sort(key=lambda d: (-d.confidence, d.start))
        self.assert_close(got, kept)
        assert predict_video(self.seq, self.net, self.categories, config) == got

    def test_parameters_are_cast_once_per_video(self, monkeypatch):
        casts = []
        cast = tadkit.model.cast

        def spy_cast(a, dtype):
            if isinstance(a, Parameter):
                casts.append(a.name)
            return cast(a, dtype)

        monkeypatch.setattr(tadkit.model, "cast", spy_cast)
        predict_video(self.seq, self.net, self.categories, FusionConfig())
        assert len(self.windows) > 2 * DECODE_STACK  # three stacks share the casts
        assert casts == [p.name for p in self.net.parameters]

    def test_float32_candidates_match_float64(self, monkeypatch):
        candidates = []

        def spy_nms(detections, threshold):
            candidates.append(detections)
            return nms(detections, threshold)

        monkeypatch.setattr(tadkit.inference, "nms", spy_nms)
        predict_video(self.seq, self.net, self.categories, FusionConfig())
        low, wide = candidates[0], self.per_window_candidates(FusionConfig())
        assert len(low) == len(wide) > 100
        assert [d.category for d in low] == [d.category for d in wide]
        # snippets of a 3872-snippet video, and fused scores of order 1;
        # measured up to 7e-7 snippets and 7e-8 relative
        assert_allclose([(d.start, d.end) for d in low], [(d.start, d.end) for d in wide],
                        rtol=0, atol=1e-4)
        assert_allclose([d.confidence for d in low], [d.confidence for d in wide],
                        rtol=1e-5, atol=1e-6)


class TestTiledPrediction:
    """A network whose base.1 takes the tiled conv path on a full stack: 16
    windows of 256 are 2,048 rows after the first pool, with 64 channels.
    Its 36 windows are two full stacks and a partial one, which base.1 runs
    on im2col; base.2 (1,024 rows a stack) never tiles."""

    def setup_method(self):
        cfg = SynthConfig(
            num_videos=1, num_classes=2, block_names=("a", "b"),
            min_video_length=6976, max_video_length=6976, min_instances=6, max_instances=8,
            min_instance_length=60, max_instance_length=90, noise_sigma=0.05,
        )
        (self.seq,), (self.ann,) = synth_generate(cfg, 5)
        self.categories = cfg.category_names
        self.config = NetworkConfig(feature_dim=6, num_classes=2, window_length=256,
                                    base_filters=64, anchor_filters=16)
        self.net = Network(self.config, seed=1)
        self.windows = slide_windows(self.seq, None, 256, PREDICTION_OVERLAP, keep_empty=True)
        assert len(self.windows) == 36

    def spy(self, monkeypatch, name):
        """Record the first argument's shape of every ``tensor.<name>`` call."""
        calls, original = [], getattr(tadkit.tensor, name)

        def spy(data, *args):
            calls.append(data.shape)
            return original(data, *args)

        monkeypatch.setattr(tadkit.tensor, name, spy)
        return calls

    @staticmethod
    def spy_nms(monkeypatch):
        """Record what every ``nms`` call is handed: the video's candidates."""
        calls = []

        def spy(detections, threshold):
            calls.append(detections)
            return nms(detections, threshold)

        monkeypatch.setattr(tadkit.inference, "nms", spy)
        return calls

    def train_one_step(self):
        """One Adam step: a single minibatch of 16 windows."""
        windows = slide_windows(self.seq, self.ann.instances, 256, 0.75)[:16]
        assert len(windows) == 16
        train(windows, self.net, TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3))

    def test_kernel_is_transformed_once_per_video_and_per_minibatch(self, monkeypatch):
        kernels = self.spy(monkeypatch, "_kernel_spectra")
        inputs = self.spy(monkeypatch, "_tile_spectra")
        predict_video(self.seq, self.net, self.categories, FusionConfig())
        assert len(inputs) == len(self.windows) // DECODE_STACK == 2  # one per full stack
        assert kernels == [(9, 64, 64)]  # base.1's, once for both stacks
        del kernels[:], inputs[:]
        self.train_one_step()
        assert len(inputs) == 2  # forward, and the kernel gradient
        assert kernels == [(9, 64, 64)]  # forward; the input gradient reuses it

    def test_backward_frees_every_kernel_transform(self):
        windows = slide_windows(self.seq, self.ann.instances, 256, 0.75)[:16]
        params = self.net.cast_parameters("float32")
        decoded = self.net.decode(np.stack([w.features for w in windows]), params)
        held = [p.name for p, c in zip(self.net.parameters, params) if c.spectra is not None]
        assert held == ["base.1.kernel"]  # the one tiled conv of the minibatch
        (tmean(decoded.overlap) + tmean(decoded.class_logits)).backward()
        assert all(c.spectra is None for c in params)
        assert self.net.parameters[2].grad.any()  # base.1's kernel got its gradient

    def test_tiled_candidates_match_float64(self, monkeypatch):
        inputs = self.spy(monkeypatch, "_tile_spectra")
        candidates = self.spy_nms(monkeypatch)
        predict_video(self.seq, self.net, self.categories, FusionConfig())
        assert inputs
        assert_float32_close(candidates[0], per_window_candidates(
            self.seq, self.net, self.windows, self.categories, FusionConfig()))

    def test_no_transform_outlives_its_cast(self, monkeypatch):
        before = predict_video(self.seq, self.net, self.categories, FusionConfig())
        self.train_one_step()
        candidates = self.spy_nms(monkeypatch)
        after = predict_video(self.seq, self.net, self.categories, FusionConfig())
        fresh = Network(self.config, seed=2)
        for p, q in zip(fresh.parameters, self.net.parameters):
            p.data[...] = q.data
        assert after != before
        assert after == predict_video(self.seq, fresh, self.categories, FusionConfig())
        # float64 never tiles, so a transform kept from before the step shows here
        assert_float32_close(candidates[0], per_window_candidates(
            self.seq, self.net, self.windows, self.categories, FusionConfig()))
