import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tadkit.training
from tadkit.data import SynthConfig, shuffle_training_set, slide_windows, synth_generate
from tadkit.errors import NumericError, UsageError
from tadkit.losses import LossWeights, total_loss
from tadkit.matching import hard_negative_mine, match_anchors
from tadkit.model import DecodedAnchors, Network, NetworkConfig, load_checkpoint
from tadkit.tensor import take
from tadkit.training import TrainConfig, _epoch_seeds, build_training_batch, train


def tiny_dataset(seed=0, videos=4):
    cfg = SynthConfig(
        num_videos=videos, num_classes=2, block_names=("a", "b"),
        min_video_length=150, max_video_length=300,
        min_instance_length=30, max_instance_length=80,
        noise_sigma=0.05,
    )
    seqs, anns = synth_generate(cfg, seed)
    windows = []
    for seq, ann in zip(seqs, anns):
        windows.extend(slide_windows(seq, ann.instances, 128, 0.75, keep_empty=False))
    return windows


def tiny_network(seed=0):
    return Network(
        NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                      base_filters=6, anchor_filters=8),
        seed=seed,
    )


class TestBatchAssembly:
    def test_pooled_batch_is_balanced_and_labeled(self):
        windows = tiny_dataset()[:3]
        net = tiny_network()
        decoded = [net.decode(w.features) for w in windows]
        matches = [match_anchors(net.anchors, w.targets) for w in windows]
        batch = build_training_batch(decoded, matches, np.random.default_rng(0))
        assert batch.num_anchors == len(batch.labels) == batch.overlap.data.shape[0]
        assert batch.num_positives == (batch.labels > 0).sum()
        assert np.all((batch.target_iou >= 0) & (batch.target_iou <= 1))
        assert np.all(batch.pos_target_widths > 0)
        # freshly initialized nets rarely predict overlap > 0.5, so mining
        # balances negatives against positives
        assert batch.num_anchors - batch.num_positives >= min(1, batch.num_positives)

    def test_gradients_reach_every_parameter(self):
        windows = tiny_dataset()[:2]
        net = tiny_network()
        decoded = [net.decode(w.features) for w in windows]
        matches = [match_anchors(net.anchors, w.targets) for w in windows]
        batch = build_training_batch(decoded, matches, np.random.default_rng(1))
        loss, _ = total_loss(batch, LossWeights(), net.parameters)
        loss.backward()
        for p in net.parameters:
            assert p.grad is not None, p.name
            assert np.any(p.grad != 0), p.name


class TestStackedMinibatch:
    def test_one_minibatch_matches_per_window_decoding(self):
        windows = tiny_dataset()[:4]
        config = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=4, seed=3)

        # the minibatch as per-window graphs, mined in the order train uses
        net = tiny_network(seed=5)
        shuffle_seed, mine_seed = _epoch_seeds(config.seed, 1)
        order = shuffle_training_set(list(range(len(windows))), shuffle_seed)
        decoded = [net.decode(windows[i].features) for i in order]
        matches = [match_anchors(net.anchors, windows[i].targets) for i in order]
        batch = build_training_batch(decoded, matches, np.random.default_rng(mine_seed))
        _, parts = total_loss(batch, config.weights, net.parameters)

        stats = train(windows, tiny_network(seed=5), config).history[0]
        got = (stats.total, stats.classification, stats.overlap, stats.location, stats.l2)
        expect = (parts["total"], parts["class"], parts["overlap"], parts["location"],
                  parts["l2"])
        assert_allclose(got, expect, rtol=1e-12, atol=1e-12)
        assert stats.num_positives == batch.num_positives


class TestStackedGather:
    """One (B, N) minibatch gathers the same rows, in the same order, as the
    windows of that minibatch taken one by one."""

    FIELDS = ("class_logits", "overlap", "centers", "widths")

    def test_stacked_batch_equals_per_window_batch(self):
        windows = tiny_dataset()[:4]
        net = tiny_network(seed=5)
        x = np.stack([w.features for w in windows])
        matches = np.stack([match_anchors(net.anchors, w.targets) for w in windows]).view(
            np.recarray)
        stacked = build_training_batch([net.decode(x)], [matches], np.random.default_rng(8))
        decoded = net.decode(x)
        views = [DecodedAnchors(*(take(getattr(decoded, f), b) for f in self.FIELDS))
                 for b in range(len(windows))]
        per_window = build_training_batch(views, list(matches), np.random.default_rng(8))
        assert stacked.num_positives > 0
        for field in ("labels", "target_iou", "pos_target_centers", "pos_target_widths"):
            assert np.array_equal(getattr(stacked, field), getattr(per_window, field)), field
        for field in ("class_logits", "overlap", "pos_centers", "pos_widths"):
            assert np.array_equal(getattr(stacked, field).data,
                                  getattr(per_window, field).data), field

        grads = []
        for batch in (stacked, per_window):
            for p in net.parameters:
                p.grad = None
            total_loss(batch, LossWeights(), net.parameters)[0].backward()
            grads.append([p.grad.copy() for p in net.parameters])
        for p, a, b in zip(net.parameters, *grads):
            assert np.array_equal(a, b), p.name

    @pytest.mark.filterwarnings("ignore:window has no positive anchors")
    def test_mining_a_stack_draws_like_one_call_per_row(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 3, size=(5, 40)) * (rng.uniform(size=(5, 40)) < 0.2)
        labels[2] = 0  # a window with no positives draws one negative
        scores = rng.uniform(0.0, 0.6, size=(5, 40))  # too few hard negatives: easy ones are drawn
        matched = np.rec.fromarrays([labels], names="label")
        stack_rng, row_rng = np.random.default_rng(9), np.random.default_rng(9)
        pos, neg = hard_negative_mine(matched, scores, stack_rng)
        rows = [hard_negative_mine(matched[b], scores[b], row_rng) for b in range(5)]
        assert np.array_equal(pos, np.concatenate([p + 40 * b for b, (p, _) in enumerate(rows)]))
        assert np.array_equal(neg, np.concatenate([n + 40 * b for b, (_, n) in enumerate(rows)]))
        assert stack_rng.random() == row_rng.random()  # the same number of draws


class TestTrainLoop:
    def test_loss_decreases_on_overfit_task(self):
        windows = tiny_dataset()
        net = tiny_network()
        config = TrainConfig(epochs=8, learning_rate=1e-3, batch_size=4, seed=3)
        result = train(windows, net, config)
        assert len(result.history) == 8
        assert result.history[-1].total < result.history[0].total

    def test_two_runs_are_bit_identical(self, tmp_path):
        windows = tiny_dataset()
        config = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=5)
        net_a = tiny_network(seed=9)
        train(windows, net_a, config, out_dir=tmp_path / "a")
        net_b = tiny_network(seed=9)
        train(windows, net_b, config, out_dir=tmp_path / "b")
        for pa, pb in zip(net_a.parameters, net_b.parameters):
            assert np.array_equal(pa.data, pb.data), pa.name
        assert (tmp_path / "a" / "model.ckpt").read_bytes() == (
            tmp_path / "b" / "model.ckpt"
        ).read_bytes()

    def test_zero_learning_rate_keeps_parameters(self):
        windows = tiny_dataset()[:3]
        net = tiny_network()
        before = [p.data.copy() for p in net.parameters]
        train(windows, net, TrainConfig(epochs=1, learning_rate=0.0, batch_size=2))
        for p, b in zip(net.parameters, before):
            assert np.array_equal(p.data, b)

    def test_divergence_aborts_with_last_good_checkpoint(self, tmp_path):
        windows = tiny_dataset()[:3]
        net = tiny_network(seed=2)
        initial = [p.data.copy() for p in net.parameters]
        config = TrainConfig(epochs=3, learning_rate=1e-3, batch_size=2,
                             divergence_limit=1e-9)
        with pytest.raises(NumericError, match="diverged"):
            train(windows, net, config, out_dir=tmp_path)
        saved = load_checkpoint(tmp_path / "model.ckpt")
        # nothing ever stepped, so the last good state is the initial one
        for p, b in zip(saved.parameters, initial):
            assert np.array_equal(p.data, b)

    def test_divergence_after_steps_checkpoints_the_last_completed_step(
            self, tmp_path, monkeypatch):
        windows = tiny_dataset()[:4]  # two minibatches of 2 per epoch
        config = dict(learning_rate=1e-2, batch_size=2, checkpoint_every=0)
        initial = [p.data.copy() for p in tiny_network(seed=4).parameters]
        two_steps = tiny_network(seed=4)
        train(windows, two_steps, TrainConfig(epochs=1, **config), out_dir=tmp_path / "ok")

        calls = []

        def diverging_loss(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("non-finite training loss")
            return total_loss(*args, **kwargs)

        monkeypatch.setattr(tadkit.training, "total_loss", diverging_loss)
        net = tiny_network(seed=4)
        with pytest.raises(NumericError, match="diverged"):
            train(windows, net, TrainConfig(epochs=2, **config), out_dir=tmp_path / "bad")
        assert len(calls) == 3
        saved = (tmp_path / "bad" / "model.ckpt").read_bytes()
        assert saved == (tmp_path / "ok" / "model.ckpt").read_bytes()
        for p, q, b in zip(load_checkpoint(tmp_path / "bad" / "model.ckpt").parameters,
                           two_steps.parameters, initial):
            assert np.array_equal(p.data, q.data), p.name
            assert not np.array_equal(p.data, b), p.name  # two steps really moved it

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_activation_aborts_with_last_good_checkpoint(self, tmp_path):
        windows = tiny_dataset()[:2]
        net = tiny_network(seed=5)
        for p in net.parameters:
            p.data[...] = 1e200  # finite weights whose activations overflow
        with pytest.raises(NumericError, match="diverged.*requires finite inputs"):
            train(windows, net, TrainConfig(epochs=1, batch_size=2), out_dir=tmp_path)
        for p in load_checkpoint(tmp_path / "model.ckpt").parameters:
            assert np.all(p.data == 1e200)

    def test_epoch_log_is_json_lines(self, tmp_path):
        windows = tiny_dataset()[:4]
        net = tiny_network()
        log = tmp_path / "log.jsonl"
        train(windows, net, TrainConfig(epochs=3, learning_rate=1e-3, batch_size=2),
              log_path=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2, 3]
        for r in records:
            assert set(r) >= {"total", "classification", "overlap", "location",
                              "num_positives", "num_negatives", "seconds"}

    def test_interval_checkpoints_written(self, tmp_path):
        windows = tiny_dataset()[:4]
        net = tiny_network()
        train(windows, net,
              TrainConfig(epochs=4, learning_rate=1e-3, batch_size=2, checkpoint_every=2),
              out_dir=tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"checkpoint_002.ckpt", "checkpoint_004.ckpt", "model.ckpt"} <= names

    def test_empty_window_list_rejected(self):
        with pytest.raises(UsageError):
            train([], tiny_network(), TrainConfig(epochs=1))

    def test_wrong_feature_shape_rejected(self):
        windows = tiny_dataset()[:1]
        net = Network(NetworkConfig(feature_dim=9, num_classes=2, window_length=128,
                                    base_filters=4, anchor_filters=4), seed=0)
        with pytest.raises(UsageError, match="expects"):
            train(windows, net, TrainConfig(epochs=1))


def test_a_minibatch_graph_is_freed_before_the_next_is_built():
    cfg = SynthConfig(num_videos=3, num_classes=2, block_names=("a", "b"),
                      min_video_length=600, max_video_length=900,
                      min_instance_length=30, max_instance_length=80, noise_sigma=0.05)
    windows = []
    for seq, ann in zip(*synth_generate(cfg, 0)):
        windows.extend(slide_windows(seq, ann.instances, 512, 0.75))

    def peak(n):
        # activations outweigh parameters: the graph sets the peak
        net = Network(NetworkConfig(feature_dim=6, num_classes=2, window_length=512,
                                    base_filters=32, anchor_filters=32), seed=0)
        tracemalloc.start()
        try:
            train(windows[:n], net, TrainConfig(epochs=1, batch_size=4, checkpoint_every=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(windows) >= 8
    assert peak(8) <= 1.1 * peak(4)
