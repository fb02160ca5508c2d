"""Command-line pipeline: synth -> train -> predict -> eval, plus gradcheck.

Configuration comes from built-in defaults, overridden by a JSON file of
flat dotted keys (--config), overridden again by explicit flags. Exit
codes: 1 for configuration/usage problems, 2 for malformed data files,
3 for numerical failures, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .data import ActionInstance, AnnotationSet, SynthConfig, slide_windows, synth_generate
from .errors import ConfigError, DataError, NumericError, UsageError
from .evaluation import evaluate
from .gradcheck import check_gradients
from .inference import FusionConfig, predict_video
from .io import (
    atomic_write_text,
    load_annotations,
    load_predictions,
    load_sas_features,
    save_annotations,
    save_predictions,
    save_sas_features,
)
from .losses import LossWeights
from .model import BASE_ARCHITECTURES, Network, NetworkConfig, load_checkpoint
from .training import TrainConfig, fixed_selection_loss, train

DEFAULTS = {
    "seed": 7,
    "synth.train_videos": 50,
    "synth.test_videos": 20,
    "synth.classes": 3,
    "synth.block_names": "rgb,flow,vol",
    "synth.min_video_length": 450,
    "synth.max_video_length": 900,
    "synth.min_instances": 1,
    "synth.max_instances": 3,
    "synth.min_instance_length": 40,
    "synth.max_instance_length": 140,
    "synth.noise_sigma": 0.1,
    "synth.score_level": 0.8,
    "net.window_length": 512,
    "net.base_arch": "B",
    "net.base_filters": 256,
    "net.anchor_filters": 512,
    "train.epochs": 30,
    "train.learning_rate": 1e-4,
    "train.batch_size": 16,
    "train.checkpoint_every": 10,
    "train.weight_overlap": 10.0,
    "train.weight_location": 10.0,
    "train.weight_l2": 1e-4,
    "train.divergence_limit": 1e6,
    "fusion.components": "class,sas,over",
    "fusion.nms_threshold": 0.1,
    "fusion.suppress_background": False,
    "eval.thresholds": "0.1:0.5:0.1",
    "eval.interpolation": "allpoint",
    "gradcheck.tolerance": 1e-6,
}


def _check_setting_type(key, value):
    """The defaults table doubles as the type schema. Returns ``value``,
    as a float where the default is one."""
    kind = type(DEFAULTS[key])
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise ConfigError(f"setting {key!r} must be a {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def load_settings(config_path, overrides):
    """defaults <- config file <- command-line flags, as one dict whose
    values have the types of the defaults (flags are typed by argparse)."""
    values = dict(DEFAULTS)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file {config_path!r} does not exist") from None
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise ConfigError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: expected an object of dotted keys")
        unknown = sorted(set(doc) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"{config_path}: unknown settings {unknown}")
        values.update((key, _check_setting_type(key, value)) for key, value in doc.items())
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return values


def parse_thresholds(spec):
    """Either 'start:stop:step' (inclusive) or a comma list or one value."""
    s = str(spec)
    try:
        if ":" in s:
            parts = [float(p) for p in s.split(":")]
            if len(parts) != 3:
                raise ConfigError(f"threshold range must be start:stop:step, got {spec!r}")
            start, stop, step = parts
            if step <= 0 or start > stop:
                raise ConfigError(f"bad threshold range {spec!r}")
            count = int(round((stop - start) / step)) + 1
            values = [round(start + i * step, 10) for i in range(count)]
            values = [v for v in values if v <= stop + 1e-9]
        elif "," in s:
            values = [float(p) for p in s.split(",")]
        else:
            values = [float(s)]
    except ValueError:
        raise ConfigError(f"cannot parse thresholds {spec!r}") from None
    for v in values:
        if not (0 < v <= 1):
            raise ConfigError(f"IoU thresholds must be in (0, 1], got {v}")
    return sorted(set(values))


def parse_fusion(spec, nms_threshold, suppress_background):
    tokens = [t.strip() for t in str(spec).split(",") if t.strip()]
    unknown = sorted(set(tokens) - {"class", "sas", "over"})
    if unknown:
        raise UsageError(f"unknown fusion components {unknown}; choose from class,sas,over")
    return FusionConfig(
        use_class="class" in tokens,
        use_sas="sas" in tokens,
        use_over="over" in tokens,
        nms_threshold=nms_threshold,
        suppress_background=suppress_background,
    )


def _network_config(settings, feature_dim, num_classes) -> NetworkConfig:
    return NetworkConfig(
        feature_dim=feature_dim,
        num_classes=num_classes,
        window_length=settings["net.window_length"],
        base_arch=settings["net.base_arch"],
        base_filters=settings["net.base_filters"],
        anchor_filters=settings["net.anchor_filters"],
    )


def _load_manifest(data_dir):
    path = os.path.join(data_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{path}: no dataset manifest") from None
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc.get("categories"), list) or not isinstance(doc.get("splits"), dict):
        raise DataError(f"{path}: manifest needs 'categories' and 'splits'")
    return doc


def _load_split(data_dir, split):
    manifest = _load_manifest(data_dir)
    try:
        ids = manifest["splits"][split]
    except KeyError:
        raise DataError(
            f"split {split!r} not in manifest (has {sorted(manifest['splits'])})"
        ) from None
    annotations = load_annotations(os.path.join(data_dir, f"{split}.json"))
    by_id = annotations.by_id()
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise DataError(f"split {split!r}: no annotations for {missing}")
    sequences = [
        load_sas_features(os.path.join(data_dir, "features", f"{vid}.sasf"))
        for vid in ids
    ]
    dims = {s.dim for s in sequences}
    if len(dims) > 1:
        raise DataError(f"split {split!r}: inconsistent feature dimensions {sorted(dims)}")
    return manifest, annotations, sequences


def cmd_synth(args) -> int:
    settings = load_settings(args.config, {"seed": args.seed})
    seed = settings["seed"]
    block_names = tuple(
        t.strip() for t in settings["synth.block_names"].split(",") if t.strip()
    )

    def make_config(num_videos, prefix):
        return SynthConfig(
            num_videos=num_videos,
            num_classes=settings["synth.classes"],
            block_names=block_names,
            min_video_length=settings["synth.min_video_length"],
            max_video_length=settings["synth.max_video_length"],
            min_instances=settings["synth.min_instances"],
            max_instances=settings["synth.max_instances"],
            min_instance_length=settings["synth.min_instance_length"],
            max_instance_length=settings["synth.max_instance_length"],
            noise_sigma=settings["synth.noise_sigma"],
            score_level=settings["synth.score_level"],
            video_id_prefix=prefix,
        )

    os.makedirs(os.path.join(args.out, "features"), exist_ok=True)
    splits = {}
    categories = None
    for split, count_key, seed_tag in (
        ("train", "synth.train_videos", 0),
        ("test", "synth.test_videos", 1),
    ):
        config = make_config(settings[count_key], split)
        sequences, annotations = synth_generate(
            config, np.random.SeedSequence([seed, seed_tag])
        )
        categories = config.category_names
        for seq in sequences:
            save_sas_features(seq, os.path.join(args.out, "features", f"{seq.video_id}.sasf"))
        save_annotations(
            AnnotationSet(annotations, categories), os.path.join(args.out, f"{split}.json")
        )
        splits[split] = [s.video_id for s in sequences]
        total = sum(len(a.instances) for a in annotations)
        print(f"{split}: {len(sequences)} videos, {total} instances")
    manifest = {"categories": categories, "splits": splits, "seed": seed}
    atomic_write_text(
        os.path.join(args.out, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    print(f"dataset written to {args.out}")
    return 0


def cmd_train(args) -> int:
    settings = load_settings(args.config, {
        "seed": args.seed,
        "train.epochs": args.epochs,
        "net.base_arch": args.arch,
    })
    manifest, annotations, sequences = _load_split(args.data, "train")
    window_length = settings["net.window_length"]
    by_id = annotations.by_id()
    windows = []
    for seq in sequences:
        windows.extend(
            slide_windows(seq, by_id[seq.video_id].instances, window_length,
                          overlap_fraction=0.75, keep_empty=False)
        )
    if not windows:
        raise DataError("training split produced no windows with targets")

    net_config = _network_config(settings, sequences[0].dim, len(manifest["categories"]))
    network = Network(net_config, seed=settings["seed"])
    train_config = TrainConfig(
        epochs=settings["train.epochs"],
        learning_rate=settings["train.learning_rate"],
        batch_size=settings["train.batch_size"],
        seed=settings["seed"],
        weights=LossWeights(
            overlap=settings["train.weight_overlap"],
            location=settings["train.weight_location"],
            l2=settings["train.weight_l2"],
        ),
        checkpoint_every=settings["train.checkpoint_every"],
        divergence_limit=settings["train.divergence_limit"],
    )
    print(f"{len(windows)} training windows, {network.num_parameters} parameters")
    result = train(
        windows, network, train_config,
        out_dir=args.out, log_path=os.path.join(args.out, "train_log.jsonl"),
    )
    for stats in result.history:
        print(
            f"epoch {stats.epoch:3d}  loss {stats.total:.4f}  "
            f"(class {stats.classification:.4f}, overlap {stats.overlap:.4f}, "
            f"location {stats.location:.4f})  {stats.seconds:.1f}s"
        )
    print(f"checkpoint written to {result.checkpoint_path}")
    return 0


def cmd_predict(args) -> int:
    settings = load_settings(args.config, {"fusion.components": args.fusion})
    fusion = parse_fusion(
        settings["fusion.components"],
        settings["fusion.nms_threshold"],
        settings["fusion.suppress_background"],
    )
    network = load_checkpoint(args.checkpoint)
    manifest, _, sequences = _load_split(args.data, args.split)
    detections = []
    for seq in sequences:
        found = predict_video(seq, network, manifest["categories"], fusion)
        detections.extend(found)
    save_predictions(detections, args.out)
    print(f"{len(detections)} detections over {len(sequences)} videos -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    settings = load_settings(args.config, {
        "eval.thresholds": args.thresholds,
        "eval.interpolation": args.interpolation,
    })
    thresholds = parse_thresholds(settings["eval.thresholds"])
    interpolation = settings["eval.interpolation"]
    predictions = load_predictions(args.predictions)
    annotations = load_annotations(args.annotations)
    report = evaluate(predictions, annotations, thresholds, interpolation)
    if args.out:
        atomic_write_text(args.out, report.to_json())
    print(report.to_table(label=args.label), end="")
    return 0


def cmd_gradcheck(args) -> int:
    """End-to-end gradient check on a small network and a crafted window."""
    settings = load_settings(args.config, {
        "seed": args.seed,
        "gradcheck.tolerance": args.tolerance,
    })
    seed = settings["seed"]
    tolerance = settings["gradcheck.tolerance"]

    config = NetworkConfig(
        feature_dim=6, num_classes=2, window_length=128,
        base_filters=6, anchor_filters=8,
    )
    network = Network(config, seed=seed)
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(config.window_length, config.feature_dim))
    targets = [ActionInstance(0.18, 0.47, 1), ActionInstance(0.60, 0.82, 2)]
    loss_fn, _ = fixed_selection_loss(network, features, targets, rng)
    result = check_gradients(loss_fn, network.parameters, step=1e-5)
    print(
        f"checked {network.num_parameters} coordinates: max relative error "
        f"{result.max_rel_error:.3e} ({result.worst_param})"
    )
    if result.max_rel_error >= tolerance:
        raise NumericError(
            f"gradient check failed: {result.max_rel_error:.3e} >= {tolerance:.1e} "
            f"at {result.worst_param}"
        )
    print("gradient check passed")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tadkit",
        description="Temporal action detection on snippet score sequences.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file of dotted settings")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (from synth)")
    p.add_argument("--out", required=True, help="directory for checkpoints and logs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--arch", choices=sorted(BASE_ARCHITECTURES), default=None,
                   help="base architecture preset")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a checkpoint over a split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, help="prediction JSON to write")
    p.add_argument("--fusion", default=None, help="comma set from: class,sas,over")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against annotations")
    p.add_argument("--predictions", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--thresholds", default=None, help="start:stop:step or comma list")
    p.add_argument("--interpolation", choices=("allpoint", "11point"), default=None)
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--label", default="run", help="row label for the printed table")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help; argparse errors raise UsageError
            return 0 if exc.code in (0, None) else 1
        if getattr(args, "command", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
