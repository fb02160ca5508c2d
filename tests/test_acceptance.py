"""Acceptance suite: one test per shipped criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest with
``-s`` to see them) and then asserts, so the suite is green exactly when
every criterion holds. The expensive end-to-end criterion trains the full
default configuration once and shares the run with the ablation check.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from tadkit import (
    ActionInstance,
    Detection,
    LossWeights,
    Network,
    NetworkConfig,
    SynthConfig,
    Tensor,
    anchor_grid,
    average_precision,
    classification_loss,
    evaluate,
    load_annotations,
    load_predictions,
    location_loss,
    match_anchors,
    nms,
    overlap_loss,
    slide_windows,
    synth_generate,
    total_loss,
)
from tadkit.cli import main
from tadkit.gradcheck import check_gradients
from tadkit.losses import TrainingBatch
from tadkit.training import fixed_selection_loss

from oracles import brute_average_precision, brute_match, brute_nms

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY_SETTINGS = {
    "synth.train_videos": 4,
    "synth.test_videos": 2,
    "synth.classes": 2,
    "synth.block_names": "a,b",
    "synth.min_video_length": 150,
    "synth.max_video_length": 300,
    "synth.min_instance_length": 30,
    "synth.max_instance_length": 80,
    "net.window_length": 128,
    "net.base_filters": 6,
    "net.anchor_filters": 8,
    "train.epochs": 2,
    "train.batch_size": 4,
    "train.learning_rate": 0.001,
    "train.checkpoint_every": 0,
}


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def write_tiny_settings(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SETTINGS))
    return str(path)


def test_criterion_1_readme_documents_benchmark_limitation():
    """Benchmark-scale results need the original videos and pretrained
    feature extractors; the README must say the package cannot reproduce
    them and relies on oracle/property testing plus synthetic data."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8").lower()
    needles = ("thumos", "extractor", "not included", "synthetic")
    missing = [n for n in needles if n not in readme]
    report(
        1,
        "README documents the benchmark-reproduction limitation",
        not missing,
        f"missing mentions: {missing}" if missing else "all limitation markers present",
    )


@pytest.mark.slow
def test_criterion_2_full_loss_gradient_check():
    """Analytic gradients of the complete training loss on a random synthetic
    window agree with central finite differences to < 1e-4 relative error,
    within a 60 s budget."""
    start = time.perf_counter()
    synth = SynthConfig(
        num_videos=1,
        num_classes=2,
        block_names=("a", "b"),
        min_video_length=140,
        max_video_length=200,
        min_instances=2,
        max_instances=2,
        min_instance_length=40,
        max_instance_length=70,
        noise_sigma=0.1,
    )
    sequences, videos = synth_generate(synth, seed=5)
    windows = slide_windows(
        sequences[0], videos[0].instances, window_length=128, overlap_fraction=0.75
    )
    window = next(w for w in windows if w.targets)

    config = NetworkConfig(
        feature_dim=synth.feature_dim,
        num_classes=synth.num_classes,
        window_length=128,
        base_filters=6,
        anchor_filters=8,
    )
    network = Network(config, seed=3)
    params = network.parameters
    loss_fn, selection = fixed_selection_loss(
        network, window.features, window.targets, np.random.default_rng(0)
    )
    assert selection[0].size > 0, "gradient check window must contain positive anchors"

    result = check_gradients(loss_fn, params, step=1e-5)
    elapsed = time.perf_counter() - start
    coords = sum(p.data.size for p in params)
    report(
        2,
        "full-loss gradients match finite differences",
        result.max_rel_error < 1e-4 and elapsed < 60.0,
        f"max rel error {result.max_rel_error:.3e} over {coords} coordinates "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_anchor_arithmetic():
    """The default configuration yields maps of 16/8/4 cells and exactly 108
    anchors, re-derived here from the strides and ratio counts alone."""
    config = NetworkConfig(feature_dim=12, num_classes=3)
    strides = (32, 64, 128)
    expected_lengths = tuple(config.window_length // s for s in strides)
    expected_counts = tuple(
        length * len(ratios)
        for length, ratios in zip(expected_lengths, config.ratios)
    )
    network = Network(config, seed=0)
    per_layer = dict(enumerate(np.bincount(network.anchors.layer).tolist()))
    ok = (
        expected_lengths == (16, 8, 4)
        and config.map_lengths == expected_lengths
        and expected_counts == (48, 40, 20)
        and sum(expected_counts) == 108
        and len(network.anchors) == 108
        and per_layer == {0: 48, 1: 40, 2: 20}
    )
    report(
        3,
        "anchor maps are 16/8/4 cells with 108 anchors total",
        ok,
        f"map lengths {config.map_lengths}, per-layer anchors {dict(per_layer)}",
    )


def test_criterion_4_oracle_equivalence():
    """Matching, NMS, and average precision agree with brute-force references
    on 1,000 random instances each (bitwise for matching and NMS, 1e-9 for
    AP), inside a 30 s budget."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()

    ratio_pool = (0.5, 0.75, 1.0, 1.5, 2.0)
    for _ in range(1000):
        map_length = int(rng.integers(3, 9))
        ratios = tuple(
            sorted(rng.choice(ratio_pool, size=int(rng.integers(1, 4)), replace=False))
        )
        anchors = anchor_grid(map_length, ratios)
        targets = []
        for _ in range(int(rng.integers(1, 21))):
            s = round(float(rng.uniform(0.0, 0.9)), 3)
            e = round(s + float(rng.uniform(0.02, 0.4)), 3)
            targets.append(ActionInstance(s, e, int(rng.integers(1, 4))))
        got = match_anchors(anchors, targets)
        labels, ious, best = zip(*brute_match(anchors, targets))
        assert np.array_equal(got.label, labels)
        assert np.array_equal(got.iou, ious)
        assert np.array_equal(got.target_center, [(t.start + t.end) / 2 for t in best])
        assert np.array_equal(got.target_width, [t.end - t.start for t in best])

    nms_thresholds = (0.1, 0.3, 0.5, 0.9)
    for trial in range(1000):
        detections = []
        for _ in range(int(rng.integers(1, 21))):
            s = float(rng.integers(0, 100))
            detections.append(
                Detection(
                    "vid",
                    s,
                    s + float(rng.integers(1, 30)),
                    int(rng.integers(1, 4)),
                    round(float(rng.uniform(0.0, 1.0)), 2),
                )
            )
        threshold = nms_thresholds[trial % len(nms_thresholds)]
        kept = nms(detections, threshold)
        index_of = {id(d): i for i, d in enumerate(detections)}
        assert sorted(index_of[id(d)] for d in kept) == brute_nms(detections, threshold)

    for _ in range(1000):
        n_videos = int(rng.integers(1, 3))
        videos = [f"v{i}" for i in range(n_videos)]
        truths = []
        for _ in range(int(rng.integers(1, 21))):
            s = float(rng.integers(0, 80))
            truths.append((str(rng.choice(videos)), s, s + float(rng.integers(5, 40))))
        predictions = []
        for _ in range(int(rng.integers(1, 21))):
            s = float(rng.integers(0, 80))
            predictions.append(
                Detection(
                    str(rng.choice(videos)),
                    s,
                    s + float(rng.integers(5, 40)),
                    1,
                    round(float(rng.uniform(0.0, 1.0)), 2),
                )
            )
        threshold = round(float(rng.uniform(0.05, 0.95)), 2)
        got = average_precision(predictions, truths, threshold, "allpoint")
        expect = brute_average_precision(predictions, truths, threshold)
        assert abs(got - expect) < 1e-9

    elapsed = time.perf_counter() - start
    report(
        4,
        "matching/NMS/AP agree with brute-force oracles on 1000 instances each",
        elapsed < 30.0,
        f"completed in {elapsed:.1f}s",
    )


def test_criterion_5_hand_computed_losses():
    """The crafted loss cases reproduce to 1e-12: uniform logits give ln 3,
    an overlap miss of 0.5 gives 0.25, a center residual of 0.5 gives 0.125,
    and the 10/10-weighted total gives ln3 + 2.5 + 1.25."""
    tol = 1e-12
    ln3 = float(np.log(3.0))

    class_val = float(
        classification_loss(Tensor(np.zeros((2, 3))), np.array([0, 2])).data
    )
    overlap_val = float(
        overlap_loss(Tensor(np.array([0.5])), np.array([1.0])).data
    )
    location_val = float(
        location_loss(
            Tensor(np.array([0.7])),
            Tensor(np.array([0.3])),
            np.array([0.2]),
            np.array([0.3]),
        ).data
    )

    batch = TrainingBatch(
        class_logits=Tensor(np.zeros((1, 3))),
        labels=np.array([1]),
        overlap=Tensor(np.array([0.5])),
        target_iou=np.array([1.0]),
        pos_centers=Tensor(np.array([0.7])),
        pos_widths=Tensor(np.array([0.3])),
        pos_target_centers=np.array([0.2]),
        pos_target_widths=np.array([0.3]),
    )
    total, parts = total_loss(batch, LossWeights(), [])
    total_val = float(total.data)
    expected_total = ln3 + 2.5 + 1.25

    errors = {
        "class": abs(class_val - ln3),
        "overlap": abs(overlap_val - 0.25),
        "location": abs(location_val - 0.125),
        "total": abs(total_val - expected_total),
    }
    report(
        5,
        "hand-computed loss values reproduce to 1e-12",
        all(err < tol for err in errors.values()),
        ", ".join(f"{k} err {v:.2e}" for k, v in errors.items()),
    )


@pytest.fixture(scope="module")
def synthetic_pipeline(tmp_path_factory):
    """The frozen default pipeline, run once through the CLI: synthesize the
    default dataset, train the default network, predict the held-out split
    with full fusion and with class-only fusion, and score both."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    model = root / "model"
    pred_full = root / "pred_full.json"
    pred_class = root / "pred_class.json"

    start = time.perf_counter()
    assert main(["synth", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(model)]) == 0
    checkpoint = model / "model.ckpt"
    assert (
        main(
            [
                "predict",
                "--data", str(data),
                "--checkpoint", str(checkpoint),
                "--out", str(pred_full),
            ]
        )
        == 0
    )
    annotations = load_annotations(data / "test.json")
    map_full = evaluate(
        load_predictions(pred_full), annotations, thresholds=(0.5,)
    ).mean_ap(0.5)
    elapsed = time.perf_counter() - start

    assert (
        main(
            [
                "predict",
                "--data", str(data),
                "--checkpoint", str(checkpoint),
                "--out", str(pred_class),
                "--fusion", "class",
            ]
        )
        == 0
    )
    map_class = evaluate(
        load_predictions(pred_class), annotations, thresholds=(0.5,)
    ).mean_ap(0.5)
    return {"map_full": map_full, "map_class": map_class, "seconds": elapsed}


@pytest.mark.slow
def test_criterion_6_end_to_end_synthetic_convergence(synthetic_pipeline):
    """Default settings (seed 7, 50/20 videos, 3 classes, noise 0.1, 30
    epochs at lr 1e-4) reach mAP@0.5 >= 0.80 on the held-out split within
    10 minutes."""
    map_full = synthetic_pipeline["map_full"]
    seconds = synthetic_pipeline["seconds"]
    report(
        6,
        "end-to-end synthetic training reaches mAP@0.5 >= 0.80 in < 10 min",
        map_full >= 0.80 and seconds < 600.0,
        f"mAP@0.5 {map_full:.4f} in {seconds:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_fusion_ablation_ordering(synthetic_pipeline):
    """Full fusion (class x snippet scores x overlap) scores at least as well
    as class scores alone on the held-out split."""
    map_full = synthetic_pipeline["map_full"]
    map_class = synthetic_pipeline["map_class"]
    report(
        7,
        "full fusion mAP@0.5 >= class-only mAP@0.5",
        map_full >= map_class,
        f"full {map_full:.4f} vs class-only {map_class:.4f}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Training twice with the same config and seed produces bit-identical
    checkpoints; repeated predict and eval runs produce byte-identical
    outputs."""
    settings = write_tiny_settings(tmp_path)
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--config", settings]) == 0

    checkpoints = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        assert (
            main(["train", "--data", str(data), "--out", str(out), "--config", settings])
            == 0
        )
        checkpoints.append((out / "model.ckpt").read_bytes())
    same_ckpt = checkpoints[0] == checkpoints[1]

    outputs = []
    reports = []
    for run in ("a", "b"):
        pred = tmp_path / f"pred_{run}.json"
        rep = tmp_path / f"report_{run}.json"
        assert (
            main(
                [
                    "predict",
                    "--data", str(data),
                    "--checkpoint", str(tmp_path / "run_a" / "model.ckpt"),
                    "--out", str(pred),
                    "--config", settings,
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "eval",
                    "--predictions", str(pred),
                    "--annotations", str(data / "test.json"),
                    "--out", str(rep),
                ]
            )
            == 0
        )
        outputs.append(pred.read_bytes())
        reports.append(rep.read_bytes())
    same_pred = outputs[0] == outputs[1]
    same_report = reports[0] == reports[1]

    report(
        8,
        "repeated train/predict/eval runs are bit-identical",
        same_ckpt and same_pred and same_report,
        f"checkpoint {'==' if same_ckpt else '!='}, "
        f"predictions {'==' if same_pred else '!='}, "
        f"report {'==' if same_report else '!='}",
    )


def test_criterion_9_malformed_inputs_rejected(tmp_path):
    """A truncated feature file and an out-of-range annotation both stop the
    pipeline with exit code 2, leaving no partial outputs behind."""
    settings = write_tiny_settings(tmp_path)

    truncated = tmp_path / "truncated"
    assert main(["synth", "--out", str(truncated), "--config", settings]) == 0
    feature_file = sorted((truncated / "features").glob("train_*.sasf"))[0]
    feature_file.write_bytes(feature_file.read_bytes()[:-10])
    out_a = tmp_path / "out_a"
    code_a = main(
        ["train", "--data", str(truncated), "--out", str(out_a), "--config", settings]
    )
    ok_a = code_a == 2 and not (out_a / "model.ckpt").exists()

    out_of_range = tmp_path / "out_of_range"
    assert main(["synth", "--out", str(out_of_range), "--config", settings]) == 0
    annotation_path = out_of_range / "train.json"
    doc = json.loads(annotation_path.read_text())
    video = doc["videos"][0]
    video["instances"][0]["end"] = video["num_snippets"] + 50
    annotation_path.write_text(json.dumps(doc))
    out_b = tmp_path / "out_b"
    code_b = main(
        ["train", "--data", str(out_of_range), "--out", str(out_b), "--config", settings]
    )
    ok_b = code_b == 2 and not (out_b / "model.ckpt").exists()

    report(
        9,
        "truncated features and out-of-range annotations exit 2 with no partial outputs",
        ok_a and ok_b,
        f"truncated features exit {code_a}, out-of-range annotation exit {code_b}",
    )
