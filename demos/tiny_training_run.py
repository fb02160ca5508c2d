"""
A miniature end-to-end run
==========================

Synthesize a small dataset, train a scaled-down detector for a few epochs,
predict on held-out videos, and score the detections.  The full-size
counterpart of every step is available through the command line
(``tadkit synth / train / predict / eval``); this demo drives the same
functions directly so each stage is visible.
"""

import numpy as np

from tadkit import (
    AnnotationSet,
    FusionConfig,
    Network,
    NetworkConfig,
    SynthConfig,
    TrainConfig,
    evaluate,
    predict_video,
    slide_windows,
    synth_generate,
    to_table,
    train,
)

# Small videos, two classes, two feature blocks, and noticeable noise.
synth = SynthConfig(
    num_videos=12,
    num_classes=2,
    block_names=("rgb", "flow"),
    min_video_length=150,
    max_video_length=300,
    max_instances=2,
    min_instance_length=30,
    max_instance_length=60,
    noise_sigma=0.05,
)
train_seqs, train_videos = synth_generate(synth, seed=11)
test_seqs, test_videos = synth_generate(
    SynthConfig(**{**synth.__dict__, "num_videos": 4, "video_id_prefix": "held"}),
    seed=12,
)
categories = synth.category_names
print(f"{len(train_seqs)} training videos, {len(test_seqs)} held-out videos")

# Cut training windows (75% overlap, empties dropped).
windows = []
for seq, video in zip(train_seqs, train_videos):
    windows.extend(
        slide_windows(seq, video.instances, window_length=128, overlap_fraction=0.75)
    )
print(f"{len(windows)} training windows of length 128")

# A reduced network: same structure, narrower layers, shorter window.
config = NetworkConfig(
    feature_dim=synth.feature_dim,
    num_classes=synth.num_classes,
    window_length=128,
    base_filters=16,
    anchor_filters=24,
)
network = Network(config, seed=0)
result = train(windows, network, TrainConfig(epochs=6, learning_rate=1e-3, seed=7))
for stats in result.history:
    print(f"epoch {stats.epoch:2d}: total {stats.total:.4f} "
          f"(class {stats.classification:.4f}, overlap {stats.overlap:.4f}, "
          f"location {stats.location:.4f})")

# Predict every held-out video and pool the detections.
fusion = FusionConfig()
detections = []
for seq in test_seqs:
    detections.extend(predict_video(seq, network, categories, fusion))
print(f"\n{len(detections)} detections on the held-out split, top 5:")
for det in detections[:5]:
    print(f"  {det.video_id} [{det.start:6.1f}, {det.end:6.1f}) "
          f"cat {det.category} conf {det.confidence:.3f}")

# Score against the ground truth at a few IoU thresholds.
annotations = AnnotationSet(test_videos, categories)
report = evaluate(detections, annotations, thresholds=(0.5, 0.3, 0.1))
print()
print(to_table(report, "tiny run"))
