"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (run several
times; the last build is kept), runs one round of operations in
``run_round``, and checks the program's outputs against the references in
``reference.py``. A round is the unit the timed loop repeats; its size is
fixed, so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import re
import shutil
import time

import numpy as np

from tadkit import cli, inference
from tadkit.data import AnnotationSet, SynthConfig, slide_windows, synth_generate
from tadkit.errors import TadError
from tadkit.inference import FusionConfig, predict_video
from tadkit.io import load_annotations, load_sas_features, save_annotations, save_sas_features
from tadkit.losses import LossWeights, total_loss
from tadkit.matching import hard_negative_mine, match_anchors
from tadkit.model import Network, NetworkConfig, load_checkpoint, save_checkpoint
from tadkit.training import TrainConfig, batch_from_selection, train

import reference


def _write_and_reload(sequences, annotations, categories, directory):
    """Round-trip a split through the SASF and annotation JSON formats."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for seq in sequences:
        path = os.path.join(directory, f"{seq.video_id}.sasf")
        save_sas_features(seq, path)
        paths.append(path)
    ann_path = os.path.join(directory, "annotations.json")
    save_annotations(AnnotationSet(annotations, categories), ann_path)
    return [load_sas_features(p) for p in paths], load_annotations(ann_path)


class TrainDefault:
    """Minibatches of 16 windows through ``training.train`` on the default
    network and the default synthetic train split, checkpoints off."""

    unit = "windows"
    setup_repeats = 9
    windows_per_round = 48  # three minibatches of 16
    gradient_samples = 2    # coordinates per parameter group

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rounds_done = 0

    def setup(self, repeat):
        self.network = self.windows = None
        config = SynthConfig()
        sequences, annotations = synth_generate(config, np.random.SeedSequence([self.seed, 0]))
        sequences, annset = _write_and_reload(
            sequences, annotations, config.category_names,
            os.path.join(self.workdir, f"setup{repeat}"),
        )
        by_id = annset.by_id()
        windows = []
        for seq in sequences:
            windows.extend(slide_windows(seq, by_id[seq.video_id].instances, 512, 0.75))
        self.windows = windows
        self.network = Network(
            NetworkConfig(feature_dim=config.feature_dim, num_classes=config.num_classes),
            seed=self.seed,
        )
        shutil.rmtree(os.path.join(self.workdir, f"setup{repeat}"))

    def run_round(self):
        n = len(self.windows)
        lo = self.rounds_done * self.windows_per_round
        chunk = [self.windows[(lo + i) % n] for i in range(self.windows_per_round)]
        config = TrainConfig(epochs=1, batch_size=16, seed=self.seed + self.rounds_done,
                             checkpoint_every=0)
        self.rounds_done += 1
        problems = []
        tic = time.perf_counter()
        try:
            result = train(chunk, self.network, config)
        except TadError as exc:
            return {"attempted": len(chunk), "failed": len(chunk), "problems": [],
                    "error": str(exc)}
        seconds = time.perf_counter() - tic
        for stats in result.history:
            parts = (stats.total, stats.classification, stats.overlap, stats.location, stats.l2)
            if not all(math.isfinite(p) for p in parts):
                problems.append(f"non-finite loss in epoch {stats.epoch}: {parts}")
        return {"attempted": len(chunk), "failed": 0, "problems": problems, "seconds": seconds,
                "info": {"train_windows_per_s": len(chunk) / seconds}}

    checked_round = run_round

    def final_checks(self):
        """Analytic gradient against a central difference at one step, with
        the mining selection held fixed, on sampled coordinates of every
        parameter group."""
        rng = np.random.default_rng([self.seed, 1])
        window = self.windows[0]
        matched = match_anchors(self.network.anchors, window.targets)
        params = self.network.parameters
        weights = LossWeights()
        decoded = self.network.decode(window.features)
        selection = hard_negative_mine(matched, decoded.overlap.data, rng)

        def loss():
            d = self.network.decode(window.features)
            batch = batch_from_selection([d], [matched], [selection])
            return total_loss(batch, weights, params)[0]

        for p in params:
            p.grad = None
        loss().backward()
        problems = []
        for p in params:
            idx = [np.unravel_index(int(i), p.data.shape)
                   for i in rng.choice(p.data.size, size=self.gradient_samples, replace=False)]
            analytic = [float(p.grad[i]) for i in idx]
            numeric = [reference.central_difference(lambda: float(loss().data), p.data, i)
                       for i in idx]
            problems += reference.check_gradient(p.name, analytic, numeric)
        for p in params:
            p.grad = None
        return problems

    info_units = {"train_windows_per_s": "windows/s"}


class PredictLong:
    """``inference.predict_video`` with full fusion over long untrimmed
    videos, on a seed-initialised default network that went through a
    checkpoint save and load in set-up."""

    unit = "videos"
    setup_repeats = 5
    num_videos = 2
    video_length = 20000
    # Only the videos follow --seed. The random network's outputs decide how
    # many candidates NMS keeps, which sets its quadratic cost: across
    # network seeds that count ranged over 2x, across video seeds over 1.2x.
    network_seed = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.fusion = FusionConfig()
        self.rounds_done = 0

    def setup(self, repeat):
        self.network = self.sequences = None
        config = SynthConfig(
            num_videos=self.num_videos, min_video_length=self.video_length,
            max_video_length=self.video_length, min_instances=40, max_instances=80,
            noise_sigma=0.2,
        )
        directory = os.path.join(self.workdir, f"setup{repeat}")
        sequences, annotations = synth_generate(config, np.random.SeedSequence([self.seed, 2]))
        sequences, _ = _write_and_reload(sequences, annotations, config.category_names, directory)
        network = Network(
            NetworkConfig(feature_dim=config.feature_dim, num_classes=config.num_classes),
            seed=self.network_seed,
        )
        path = os.path.join(directory, "model.ckpt")
        save_checkpoint(network, path)
        self.network = load_checkpoint(path)
        self.sequences = sequences
        self.categories = config.category_names
        shutil.rmtree(directory)

    def run_round(self):
        """One video, taking the videos in turn."""
        seq = self.sequences[self.rounds_done % len(self.sequences)]
        self.rounds_done += 1
        return self._predict([seq])

    def _predict(self, sequences, capture=None):
        snippets = 0
        failed = 0
        tic = time.perf_counter()
        for seq in sequences:
            try:
                detections = predict_video(seq, self.network, self.categories, self.fusion)
            except TadError:
                failed += 1
                continue
            snippets += seq.num_snippets
            if capture is not None:
                capture.append((seq, detections))
        seconds = time.perf_counter() - tic
        return {"attempted": len(sequences), "failed": failed, "problems": [],
                "seconds": seconds, "info": {"predict_snippets_per_s": snippets / seconds}}

    def checked_round(self):
        """Every video once with ``nms`` observed, so its input can be
        replayed through the reference; every output is checked."""
        nms_calls = []
        original = inference.nms

        def observed_nms(candidates, threshold):
            kept = original(candidates, threshold)
            nms_calls.append((list(candidates), threshold, kept))
            return kept

        inference.nms = observed_nms
        outputs = []
        results = []
        try:
            for seq in self.sequences:
                # one video's garbage at a time, as in the timed rounds
                gc.collect()
                results.append(self._predict([seq], capture=outputs))
        finally:
            inference.nms = original
        result = {"attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "seconds": sum(r["seconds"] for r in results), "problems": []}
        problems = result["problems"]
        if len(nms_calls) != len(outputs):
            problems.append(f"{len(outputs)} videos predicted but nms ran {len(nms_calls)} times")
        for (seq, detections), (candidates, threshold, kept) in zip(outputs, nms_calls):
            problems += reference.check_detections(
                detections, seq.num_snippets, len(self.categories), self.fusion.nms_threshold)
            problems += reference.check_nms(candidates, kept, threshold)
            if sorted(map(id, detections)) != sorted(map(id, kept)):
                problems.append(f"{seq.video_id}: output is not the set nms kept")
        return result

    def final_checks(self):
        return []

    info_units = {"predict_snippets_per_s": "snippets/s"}


class PipelineSmall:
    """``cli.main`` in-process: train, predict and eval on a dataset that
    ``synth`` writes in set-up, with a narrow network and noisy scores."""

    unit = "stages"
    setup_repeats = 9
    map_floor = 0.5
    # Eight short instances per video put a target in every training window,
    # so the window count (136) and with it the training work is the same
    # for every seed; the noise keeps mAP@0.5 clearly below 1.
    settings = {
        "synth.train_videos": 8,
        "synth.test_videos": 40,
        "synth.classes": 5,
        "synth.noise_sigma": 0.5,
        "synth.score_level": 0.45,
        "synth.min_video_length": 640,
        "synth.max_video_length": 640,
        "synth.min_instances": 8,
        "synth.max_instances": 8,
        "synth.min_instance_length": 40,
        "synth.max_instance_length": 60,
        "net.window_length": 128,
        "net.base_filters": 16,
        "net.anchor_filters": 32,
        "train.epochs": 3,
        "train.learning_rate": 1e-3,
        "train.checkpoint_every": 0,
    }

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rounds_done = 0
        self.first_predictions = None

    def _cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def setup(self, repeat):
        self.config_path = os.path.join(self.workdir, "settings.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.settings, fh)
        self.data = os.path.join(self.workdir, "data")
        shutil.rmtree(self.data, ignore_errors=True)
        code, out = self._cli("synth", "--out", self.data, "--seed", str(self.seed),
                              "--config", self.config_path)
        if code != 0:
            raise RuntimeError(f"synth exited {code}: {out}")
        with open(os.path.join(self.data, "test.json"), encoding="utf-8") as fh:
            self.test_doc = json.load(fh)
        self.test_snippets = sum(v["num_snippets"] for v in self.test_doc["videos"])

    def run_round(self):
        run = os.path.join(self.workdir, f"run{self.rounds_done}")
        self.rounds_done += 1
        preds = os.path.join(run, "predictions.json")
        report = os.path.join(run, "report.json")
        stages = (
            ("train", "--data", self.data, "--out", run, "--config", self.config_path),
            ("predict", "--data", self.data, "--checkpoint", os.path.join(run, "model.ckpt"),
             "--out", preds, "--config", self.config_path),
            ("eval", "--predictions", preds, "--annotations",
             os.path.join(self.data, "test.json"), "--out", report, "--config", self.config_path),
        )
        seconds = []
        outputs = []
        tic = time.perf_counter()
        for argv in stages:
            t0 = time.perf_counter()
            code, out = self._cli(*argv)
            seconds.append(time.perf_counter() - t0)
            outputs.append(out)
            if code != 0:
                failed = len(stages) - len(seconds) + 1
                shutil.rmtree(run, ignore_errors=True)
                return {"attempted": len(stages), "failed": failed, "problems": [],
                        "error": f"{argv[0]} exited {code}"}
        total = time.perf_counter() - tic
        problems = []
        match = re.search(r"^(\d+) training windows", outputs[0], re.MULTILINE)
        if match is None:
            problems.append("train did not report its window count")
            windows = 0
        else:
            windows = int(match.group(1)) * self.settings["train.epochs"]
        with open(preds, "rb") as fh:
            predictions_bytes = fh.read()
        with open(report, encoding="utf-8") as fh:
            map_50 = json.load(fh)["map"]["0.50"]
        if self.first_predictions is None:
            self.first_predictions = predictions_bytes
            reference_map = reference.mean_average_precision(
                json.loads(predictions_bytes), self.test_doc, 0.5)
            problems += reference.check_map(map_50, reference_map, self.map_floor)
        elif predictions_bytes != self.first_predictions:
            problems.append("predictions differ from the first round's on identical inputs")
        shutil.rmtree(run)
        return {
            "attempted": len(stages), "failed": 0, "problems": problems, "seconds": total,
            "info": {
                "train_windows_per_s": windows / seconds[0],
                "predict_snippets_per_s": self.test_snippets / seconds[1],
                "map_50": map_50,
            },
        }

    checked_round = run_round

    def final_checks(self):
        return []

    info_units = {"train_windows_per_s": "windows/s", "predict_snippets_per_s": "snippets/s",
                  "map_50": "fraction"}


WORKLOADS = {
    "train_default": TrainDefault,
    "predict_long": PredictLong,
    "pipeline_small": PipelineSmall,
}
