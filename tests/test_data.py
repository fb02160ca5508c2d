import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.data import (
    ActionInstance,
    ScoreBlock,
    ScoreSequence,
    SynthConfig,
    VideoAnnotation,
    retained_targets,
    shuffle_training_set,
    slide_windows,
    synth_generate,
)
from tadkit.errors import ConfigError, DataError, UsageError


def make_sequence(t, d=4, video_id="vid", seed=0):
    rng = np.random.default_rng(seed)
    return ScoreSequence(video_id, rng.uniform(size=(t, d)), [ScoreBlock("b", d)])


class TestTypes:
    def test_instance_ordering_enforced(self):
        with pytest.raises(DataError):
            ActionInstance(5.0, 5.0, 1)
        with pytest.raises(DataError):
            ActionInstance(-1.0, 5.0, 1)
        with pytest.raises(DataError):
            ActionInstance(0.0, 5.0, 0)  # 0 is reserved for background

    def test_annotation_bounds(self):
        with pytest.raises(DataError):
            VideoAnnotation("v", 100, 25.0, [ActionInstance(50.0, 120.0, 1)])
        ann = VideoAnnotation("v", 100, 25.0, [ActionInstance(50.0, 100.0, 1)])
        assert ann.instances[0].length == 50.0

    def test_block_widths_must_cover_matrix(self):
        with pytest.raises(DataError):
            ScoreSequence("v", np.zeros((5, 4)), [ScoreBlock("b", 3)])

    def test_nonfinite_scores_rejected(self):
        m = np.zeros((5, 2))
        m[3, 1] = np.nan
        with pytest.raises(DataError):
            ScoreSequence("v", m, [ScoreBlock("b", 2)])


class TestSlideWindows:
    def test_training_overlap_start_offsets(self):
        seq = make_sequence(1000)
        windows = slide_windows(seq, None, 512, 0.75, keep_empty=True)
        assert [w.start for w in windows] == [0, 128, 256, 384, 488]
        assert all(w.end - w.start == 512 for w in windows)

    def test_prediction_overlap_start_offsets(self):
        seq = make_sequence(1000)
        windows = slide_windows(seq, None, 512, 0.25, keep_empty=True)
        assert [w.start for w in windows] == [0, 384, 488]

    def test_exact_tiling_adds_no_tail(self):
        seq = make_sequence(1024)
        windows = slide_windows(seq, None, 512, 0.75, keep_empty=True)
        assert [w.start for w in windows] == [0, 128, 256, 384, 512]

    def test_short_video_pads_by_repeating_last_row(self):
        seq = make_sequence(300)
        (window,) = slide_windows(seq, None, 512, 0.75, keep_empty=True)
        assert window.features.shape == (512, 4)
        assert_allclose(window.features[:300], seq.matrix)
        assert_allclose(window.features[300:], np.tile(seq.matrix[-1], (212, 1)))

    def test_window_features_match_source_rows(self):
        seq = make_sequence(1000)
        windows = slide_windows(seq, None, 512, 0.25, keep_empty=True)
        for w in windows:
            assert_allclose(w.features, seq.matrix[w.start:w.end])

    def test_target_normalization(self):
        seq = make_sequence(1000)
        inst = [ActionInstance(600.0, 700.0, 2)]
        windows = slide_windows(seq, inst, 512, 0.75, keep_empty=False)
        tail = [w for w in windows if w.start == 488]
        assert len(tail) == 1
        (t,) = tail[0].targets
        assert_allclose((t.start, t.end), ((600 - 488) / 512, (700 - 488) / 512))
        assert t.category == 2

    def test_retention_boundary(self):
        # exactly 75% inside is kept; anything less is dropped
        inst = ActionInstance(0.0, 100.0, 1)
        assert retained_targets([inst], -25, 487) != []   # 75 of 100 inside? no: 100 inside
        kept = retained_targets([ActionInstance(437.0, 537.0, 1)], 0, 512)
        assert len(kept) == 1  # 75/100 == exactly the threshold
        dropped = retained_targets([ActionInstance(438.0, 538.0, 1)], 0, 512)
        assert dropped == []

    def test_keep_empty_false_drops_targetless_windows(self):
        seq = make_sequence(1000)
        inst = [ActionInstance(10.0, 100.0, 1)]
        windows = slide_windows(seq, inst, 512, 0.75, keep_empty=False)
        assert all(w.targets for w in windows)
        assert {w.start for w in windows} == {0}

    def test_zero_stride_rejected(self):
        with pytest.raises(ConfigError):
            slide_windows(make_sequence(10), None, 2, 0.95)


class TestShuffle:
    def test_permutation_is_seeded(self):
        items = list(range(20))
        a = shuffle_training_set(items, 5)
        b = shuffle_training_set(items, 5)
        c = shuffle_training_set(items, 6)
        assert a == b
        assert a != c
        assert sorted(a) == items

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            shuffle_training_set([], 0)


class TestSynth:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(num_videos=3)
        seqs_a, anns_a = synth_generate(cfg, 7)
        seqs_b, anns_b = synth_generate(cfg, 7)
        for a, b in zip(seqs_a, seqs_b):
            assert np.array_equal(a.matrix, b.matrix)
        assert anns_a == anns_b

    def test_annotations_are_exact_and_in_bounds(self):
        cfg = SynthConfig(num_videos=10)
        _, anns = synth_generate(cfg, 3)
        for ann in anns:
            assert cfg.min_video_length <= ann.num_snippets <= cfg.max_video_length
            assert cfg.min_instances <= len(ann.instances) <= cfg.max_instances
            prev_end = 0.0
            for inst in ann.instances:
                assert inst.start >= prev_end  # planted without overlap
                prev_end = inst.end
                assert cfg.min_instance_length <= inst.length <= cfg.max_instance_length
                assert 1 <= inst.category <= cfg.num_classes

    def test_noiseless_rows_peak_at_planted_category(self):
        cfg = SynthConfig(num_videos=4, noise_sigma=0.0)
        seqs, anns = synth_generate(cfg, 11)
        width = cfg.head_width
        for seq, ann in zip(seqs, anns):
            inside = np.zeros(seq.num_snippets, dtype=bool)
            for inst in ann.instances:
                rows = seq.matrix[int(inst.start):int(inst.end)]
                inside[int(inst.start):int(inst.end)] = True
                for b in range(len(cfg.block_names)):
                    block = rows[:, b * width:(b + 1) * width]
                    assert np.all(block.argmax(axis=1) == inst.category)
            background = seq.matrix[~inside]
            for b in range(len(cfg.block_names)):
                block = background[:, b * width:(b + 1) * width]
                assert np.all(block.argmax(axis=1) == 0)

    def test_scores_stay_in_unit_interval(self):
        seqs, _ = synth_generate(SynthConfig(num_videos=3, noise_sigma=0.5), 2)
        for seq in seqs:
            assert seq.matrix.min() >= 0.0 and seq.matrix.max() <= 1.0

    def test_impossible_placement_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(min_instances=9, max_instances=9,
                        min_instance_length=200, max_instance_length=200,
                        min_video_length=500, max_video_length=900)

    def test_overrunning_draws_fit_the_video(self):
        # four instances of up to 140 snippets can overrun a 450-snippet
        # video (seeds 3 and 8 draw one); three of at least 200 cannot fit
        # a video shorter than 600, so such videos grow
        overrun = SynthConfig(max_instances=4, max_instance_length=140, min_video_length=450)
        too_short = SynthConfig(num_videos=10, min_instances=3, max_instances=3,
                                min_instance_length=200, max_instance_length=220)
        for cfg, seed in [(overrun, s) for s in range(20)] + [(too_short, 0)]:
            seqs, anns = synth_generate(cfg, seed)
            for seq, ann in zip(seqs, anns):
                assert cfg.min_video_length <= seq.num_snippets == ann.num_snippets
                assert seq.num_snippets <= cfg.max_video_length
                assert cfg.min_instances <= len(ann.instances) <= cfg.max_instances
                ends = [0.0]
                for inst in ann.instances:
                    assert inst.start >= ends[-1]
                    assert (cfg.min_instance_length <= inst.length
                            <= cfg.max_instance_length)
                    ends.append(inst.end)
                assert ends[-1] <= seq.num_snippets

    def test_feature_dim_matches_blocks(self):
        cfg = SynthConfig(num_videos=1, num_classes=5, block_names=("a", "b"))
        seqs, _ = synth_generate(cfg, 0)
        assert seqs[0].dim == 2 * 6
        assert [b.width for b in seqs[0].blocks] == [6, 6]
