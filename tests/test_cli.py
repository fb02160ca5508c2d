import copy
import importlib.util
import json
import re
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from tadkit.cli import DEFAULTS, main, parse_thresholds
from tadkit.errors import ConfigError, DataError, NumericError
from tadkit.data import ScoreSequence, slide_windows
from tadkit.io import load_annotations, load_predictions, load_sas_features, save_sas_features
from tadkit.model import Network, NetworkConfig, load_checkpoint, save_checkpoint
from tadkit.training import TrainConfig, train

TINY = {
    "synth.train_videos": 3,
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


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestThresholdParsing:
    def test_colon_range_inclusive(self):
        assert parse_thresholds("0.1:0.5:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_comma_list_and_single(self):
        assert parse_thresholds("0.5,0.3") == [0.3, 0.5]
        assert parse_thresholds("0.75") == [0.75]

    def test_bad_specs_rejected(self):
        for spec in ("0.5:0.1:0.1", "0:0.5:0.1", "a,b", "0.1:0.5", "1.5", "0.1:inf:0.1",
                     "0.1:1:1e-320"):
            with pytest.raises(ConfigError):
                parse_thresholds(spec)

    def test_range_is_counted_before_it_is_built(self):
        # 1,000 valid thresholds, past MAX_THRESHOLDS
        with pytest.raises(ConfigError, match=r"gives 1000 values, more than 100$"):
            parse_thresholds("0.001:1:0.001")


class TestPipeline:
    def test_synth_train_predict_eval(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        runs = tmp_path / "runs"

        assert run("synth", "--out", str(data), "--config", tiny_config) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["categories"] == ["action_01", "action_02"]
        assert len(manifest["splits"]["train"]) == 3
        assert len(manifest["splits"]["test"]) == 2
        seq = load_sas_features(data / "features" / "train_000.sasf")
        assert seq.dim == 6

        assert run("train", "--data", str(data), "--out", str(runs),
                   "--config", tiny_config) == 0
        out = capsys.readouterr().out
        assert "parameters" in out and "epoch   2" in out
        assert (runs / "model.ckpt").exists()
        assert (runs / "train_log.jsonl").exists()

        preds_path = tmp_path / "predictions.json"
        assert run("predict", "--data", str(data), "--checkpoint", str(runs / "model.ckpt"),
                   "--out", str(preds_path), "--config", tiny_config) == 0
        detections = load_predictions(preds_path)
        assert detections
        assert {d.video_id for d in detections} <= {"test_000", "test_001"}

        report_path = tmp_path / "report.json"
        assert run("eval", "--predictions", str(preds_path),
                   "--annotations", str(data / "test.json"),
                   "--thresholds", "0.1:0.5:0.2", "--out", str(report_path)) == 0
        table = capsys.readouterr().out
        assert "mAP (%) by IoU threshold" in table
        report = json.loads(report_path.read_text())
        assert set(report["map"]) == {"0.10", "0.30", "0.50"}

    def test_synth_is_deterministic(self, tmp_path, tiny_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("synth", "--out", str(a), "--config", tiny_config) == 0
        assert run("synth", "--out", str(b), "--config", tiny_config) == 0
        for rel in ("manifest.json", "train.json", "features/train_001.sasf"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_fusion_flag_changes_predictions(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        runs = tmp_path / "runs"
        run("synth", "--out", str(data), "--config", tiny_config)
        run("train", "--data", str(data), "--out", str(runs), "--config", tiny_config)
        full = tmp_path / "full.json"
        class_only = tmp_path / "class.json"
        assert run("predict", "--data", str(data), "--checkpoint", str(runs / "model.ckpt"),
                   "--out", str(full), "--config", tiny_config) == 0
        assert run("predict", "--data", str(data), "--checkpoint", str(runs / "model.ckpt"),
                   "--out", str(class_only), "--fusion", "class",
                   "--config", tiny_config) == 0
        a = [(d.video_id, d.confidence) for d in load_predictions(full)]
        b = [(d.video_id, d.confidence) for d in load_predictions(class_only)]
        assert a != b


def valid_annotations():
    return {"categories": ["a"], "videos": [
        {"video_id": "v", "num_snippets": 100, "fps": 25.0,
         "instances": [{"start": 10.0, "end": 20.0, "category": 1}]}]}


def valid_predictions():
    return {"predictions": [
        {"video_id": "v", "start": 10.0, "end": 20.0, "category": 1, "confidence": 0.9}]}


def set_annotation(field, value):
    doc = valid_annotations()
    doc["videos"][0][field] = value
    return doc, valid_predictions()


def set_prediction(field, value):
    doc = valid_predictions()
    doc["predictions"][0][field] = value
    return valid_annotations(), doc


class TestMalformedJson:
    """Values that Python's json parses but the formats forbid exit 2 with
    an error line, never with a traceback."""

    @pytest.mark.parametrize("docs", [
        set_annotation("instances", 5),
        set_annotation("num_snippets", "ten"),
        set_annotation("num_snippets", 100.5),
        set_annotation("fps", float("nan")),
        set_prediction("start", float("nan")),
        set_prediction("start", float("-inf")),
        set_prediction("end", float("inf")),
        set_prediction("confidence", float("nan")),
        set_prediction("category", float("inf")),
    ], ids=["instances-int", "num_snippets-str", "num_snippets-fraction", "fps-nan",
            "start-nan", "start-neg-inf", "end-inf", "confidence-nan", "category-inf"])
    def test_eval_exits_2(self, tmp_path, capsys, docs):
        annotations, predictions = docs
        ann = tmp_path / "ann.json"
        preds = tmp_path / "preds.json"
        ann.write_text(json.dumps(annotations))
        preds.write_text(json.dumps(predictions))
        code = run("eval", "--predictions", str(preds), "--annotations", str(ann))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_duplicate_category_names_exit_2(self, tmp_path, capsys):
        # report.json keys its per-category APs by name: one would overwrite the other
        ann = tmp_path / "ann.json"
        preds = tmp_path / "preds.json"
        ann.write_text(json.dumps({**valid_annotations(), "categories": ["run", "run"]}))
        preds.write_text(json.dumps(valid_predictions()))
        code = run("eval", "--predictions", str(preds), "--annotations", str(ann))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "duplicate category names ['run']" in err
        assert "Traceback" not in err

    def test_valid_files_evaluate(self, tmp_path, capsys):
        ann = tmp_path / "ann.json"
        preds = tmp_path / "preds.json"
        ann.write_text(json.dumps(valid_annotations()))
        preds.write_text(json.dumps(valid_predictions()))
        assert run("eval", "--predictions", str(preds), "--annotations", str(ann)) == 0

    @pytest.mark.parametrize("edit", [
        lambda doc: [],
        lambda doc: {**doc, "splits": {"test": 5}},
        lambda doc: {**doc, "splits": {"test": [doc["splits"]["test"]]}},
        lambda doc: {**doc, "categories": []},
        lambda doc: {**doc, "categories": [1, 2]},
    ], ids=["list", "split-int", "split-of-lists", "categories-empty", "categories-int"])
    def test_malformed_manifest_exits_2(self, tiny_inputs, tmp_path, capsys, edit):
        data = tmp_path / "data"
        shutil.copytree(tiny_inputs / "data", data)
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        out = tmp_path / "predictions.json"
        code = run("predict", "--data", str(data), "--checkpoint",
                   str(tiny_inputs / "model.ckpt"), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "manifest" in err.splitlines()[0]
        assert "Traceback" not in err
        assert not out.exists()


def _json_type(value):
    """The JSON type of a parsed value (integers and floats are numbers)."""
    if isinstance(value, bool):
        return bool
    return float if isinstance(value, int) else type(value)


def _slots(node):
    """Every (container, key) pair under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


#: a value in place of another: strings for numbers, lists for objects,
#: objects for lists, booleans, null and numbers the formats may reject
SWAPS = (str, lambda v: [v], lambda v: {"value": v}, lambda v: True, lambda v: False,
         lambda v: None, lambda v: -1, lambda v: 2.5, lambda v: 10 ** 400, lambda v: "")


def json_mutants(doc, seed, count=200):
    """Seeded mutants of the JSON document ``doc`` as ``(payload, invalid)``.
    Each applies one to three edits at random slots (the root included): a
    swapped value, a deleted key or element, or an extra key; one in ten
    also gets a byte that is not UTF-8. ``invalid`` marks the mutants that
    any loader must reject: a single edit that changes a value's JSON type,
    or the bad byte."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        holder = [copy.deepcopy(doc)]
        edits = int(rng.integers(1, 4))
        invalid = False
        for _ in range(edits):
            slots = list(_slots(holder))
            container, key = slots[rng.integers(len(slots))]
            kind = int(rng.integers(len(SWAPS) + 2))
            if kind == len(SWAPS) and container is not holder:
                del container[key]
            elif kind == len(SWAPS) + 1 and isinstance(container[key], dict):
                container[key]["extra"] = 1
            else:
                old, new = container[key], SWAPS[kind % len(SWAPS)](container[key])
                container[key] = new
                invalid |= edits == 1 and _json_type(old) != _json_type(new)
        payload = bytearray(json.dumps(holder[0]).encode())
        letters = [i for i, b in enumerate(payload) if chr(b).isalpha()]
        if rng.random() < 0.1 and letters:
            payload[letters[rng.integers(len(letters))]] = 0xFF
            invalid = True
        yield bytes(payload), invalid


class TestMutatedJson:
    """Seeded type and value swaps in valid annotation and prediction files:
    each loads or raises DataError, never another exception, and ``eval``
    exits 0 with a report or 2 with no report at all."""

    annotations = {"categories": ["jump", "throw"], "videos": [
        {"video_id": "a", "num_snippets": 500, "fps": 25.0,
         "instances": [{"start": 10.0, "end": 60.0, "category": 1}]},
        {"video_id": "b", "num_snippets": 700, "fps": 30.0,
         "instances": [{"start": 1.5, "end": 99.5, "category": 2},
                       {"start": 200.0, "end": 340.0, "category": 1}]}]}
    predictions = {"predictions": [
        {"video_id": "a", "start": 12.0, "end": 58.0, "category": 1, "confidence": 0.9},
        {"video_id": "b", "start": 0.0, "end": 90.0, "category": 2, "confidence": 0.7},
        {"video_id": "b", "start": 210.0, "end": 330.0, "category": 1, "confidence": 0.4}]}

    @pytest.mark.parametrize("which, load, seed", [
        ("annotations", load_annotations, 21), ("predictions", load_predictions, 22)])
    def test_only_data_error_escapes(self, tmp_path, capsys, which, load, seed):
        paths = {"annotations": tmp_path / "ann.json", "predictions": tmp_path / "preds.json"}
        for name, path in paths.items():
            path.write_text(json.dumps(getattr(self, name)))
        out = tmp_path / "report.json"
        rejected = 0
        for payload, invalid in json_mutants(getattr(self, which), seed):
            paths[which].write_bytes(payload)
            try:
                load(paths[which])
                loaded = True
            except DataError:
                loaded = False
                rejected += 1
            assert not (invalid and loaded), payload
            code = run("eval", "--predictions", str(paths["predictions"]),
                       "--annotations", str(paths["annotations"]), "--out", str(out))
            err = capsys.readouterr().err
            assert code == 2 if not loaded else code in (0, 2), payload
            assert out.exists() == (code == 0), payload
            assert "Traceback" not in err
            if code == 0:
                out.unlink()
        assert rejected > 50


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A TINY dataset and a checkpoint of a network that fits it."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    assert main(["synth", "--out", str(root / "data"), "--config", str(config)]) == 0
    network = Network(NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                                    base_filters=6, anchor_filters=8), seed=0)
    save_checkpoint(network, root / "model.ckpt")
    return root


def edit_checkpoint_config(edit):
    def apply(data, checkpoint):
        payload = checkpoint.read_bytes()
        (size,) = struct.unpack_from("<I", payload, 12)
        doc = json.loads(payload[16:16 + size])
        edit(doc)
        config = json.dumps(doc).encode()
        checkpoint.write_bytes(
            payload[:12] + struct.pack("<I", len(config)) + config + payload[16 + size:])
    return apply


def non_utf8_parameter_name(data, checkpoint):
    payload = bytearray(checkpoint.read_bytes())
    (size,) = struct.unpack_from("<I", payload, 12)
    payload[16 + size + 2] = 0xFF  # first byte of the first parameter name
    checkpoint.write_bytes(bytes(payload))


def nan_parameter_value(data, checkpoint):
    payload = bytearray(checkpoint.read_bytes())
    payload[-8:] = struct.pack("<d", float("nan"))  # the last value of the last parameter
    checkpoint.write_bytes(bytes(payload))


def non_utf8_block_name(data, checkpoint):
    path = data / "features" / "test_000.sasf"
    payload = bytearray(path.read_bytes())
    payload[22] = 0xFF  # the one-byte name of the first block
    path.write_bytes(bytes(payload))


class TestMalformedPredictInputs:
    """Malformed checkpoints and feature files exit 2 with an error line,
    never with a traceback, and leave no prediction file."""

    @pytest.mark.parametrize("corrupt", [
        edit_checkpoint_config(lambda doc: doc.update(feature_dim="6")),
        edit_checkpoint_config(lambda doc: doc.update(
            base_arch=[{"kind": "conv", "stride": 1, "filters": None}])),
        edit_checkpoint_config(lambda doc: doc.update(anchor_filters=10**9)),
        non_utf8_parameter_name,
        non_utf8_block_name,
        nan_parameter_value,
    ], ids=["feature_dim-str", "layer-no-kernel", "anchor_filters-huge", "parameter-name-utf8",
            "block-name-utf8", "parameter-nan"])
    def test_predict_exits_2(self, tiny_inputs, tmp_path, capsys, corrupt):
        data = tmp_path / "data"
        checkpoint = tmp_path / "model.ckpt"
        shutil.copytree(tiny_inputs / "data", data)
        shutil.copy(tiny_inputs / "model.ckpt", checkpoint)
        corrupt(data, checkpoint)
        out = tmp_path / "predictions.json"
        code = run("predict", "--data", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unbroken_inputs_predict(self, tiny_inputs, tmp_path, capsys):
        out = tmp_path / "predictions.json"
        assert run("predict", "--data", str(tiny_inputs / "data"), "--checkpoint",
                   str(tiny_inputs / "model.ckpt"), "--out", str(out)) == 0
        assert out.exists()


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "synth" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run() == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("synth", "--nope") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_fusion_component(self, tmp_path, capsys):
        assert run("predict", "--data", str(tmp_path), "--checkpoint", "x",
                   "--out", "y", "--fusion", "class,magic") == 1
        assert "magic" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        assert run("train", "--data", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "runs")) == 2
        assert "manifest" in capsys.readouterr().err

    def test_corrupt_feature_file_is_data_error(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        run("synth", "--out", str(data), "--config", tiny_config)
        (data / "features" / "train_000.sasf").write_bytes(b"JUNKJUNKJUNK")
        assert run("train", "--data", str(data), "--out", str(tmp_path / "runs"),
                   "--config", tiny_config) == 2

    def test_bad_config_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train.epochs": "thirty"}))
        assert run("train", "--data", str(tmp_path), "--out", str(tmp_path),
                   "--config", str(cfg)) == 1
        assert "train.epochs" in capsys.readouterr().err

    def test_oversized_network_is_config_error(self, tiny_inputs, tmp_path, capsys):
        # ~1.4e20 parameters, past NumPy's largest array: nothing is allocated
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({**TINY, "net.base_filters": 4_000_000_000}))
        assert run("train", "--data", str(tiny_inputs / "data"), "--out",
                   str(tmp_path / "runs"), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: \d{21} parameters exceed", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        (key, value) for key, default in DEFAULTS.items() if isinstance(default, float)
        for value in (float("nan"), float("inf"), float("-inf"))
    ])
    def test_non_finite_float_setting_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}))  # Python's json writes and reads NaN
        assert run("synth", "--out", str(tmp_path / "d"), "--config", str(cfg)) == 1
        assert f"setting {key!r} must be a finite float" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_config_error(self, capsys, tolerance):
        # a NaN or infinite tolerance would pass any gradient error
        assert run("gradcheck", "--tolerance", tolerance) == 1
        assert "'gradcheck.tolerance' must be a finite float" in capsys.readouterr().err

    def test_negative_checkpoint_interval_is_config_error(self, tiny_inputs, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY, "train.checkpoint_every": -10}))
        assert run("train", "--data", str(tiny_inputs / "data"), "--out",
                   str(tmp_path / "runs"), "--config", str(cfg)) == 1
        assert "checkpoint_every must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bad_train_value_fails_before_the_data_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train.batch_size": 0}))
        assert run("train", "--data", str(tmp_path / "nowhere"), "--out",
                   str(tmp_path / "runs"), "--config", str(cfg)) == 1
        assert "batch_size must be >= 1" in capsys.readouterr().err

    def test_thresholds_equal_to_two_decimals_are_config_error(self, tmp_path, capsys):
        # both would be reported under "1.00"
        preds, ann = tmp_path / "predictions.json", tmp_path / "annotations.json"
        preds.write_text(json.dumps(valid_predictions()))
        ann.write_text(json.dumps(valid_annotations()))
        out = tmp_path / "report.json"
        assert run("eval", "--predictions", str(preds), "--annotations", str(ann),
                   "--thresholds", "0.998,0.9985", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0.998, 0.9985" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train.speed": 99}))
        assert run("synth", "--out", str(tmp_path / "d"), "--config", str(cfg)) == 1
        assert "train.speed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_weights_are_numeric_error(self, tiny_inputs, tmp_path, capsys):
        network = Network(NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                                        base_filters=6, anchor_filters=8), seed=0)
        for p in network.parameters:
            p.data[...] = 1e200  # finite, so the checkpoint loads; activations overflow
        save_checkpoint(network, tmp_path / "model.ckpt")
        out = tmp_path / "predictions.json"
        code = run("predict", "--data", str(tiny_inputs / "data"), "--checkpoint",
                   str(tmp_path / "model.ckpt"), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflow_at_predict_time_names_the_video(self, tiny_inputs, tmp_path, capsys):
        network = Network(NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                                        base_filters=6, anchor_filters=8), seed=0)
        for p in network.parameters:
            p.data[...] = 1e200
        save_checkpoint(network, tmp_path / "model.ckpt")
        out = tmp_path / "predictions.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning escapes as an exception
            code = run("predict", "--data", str(tiny_inputs / "data"), "--checkpoint",
                       str(tmp_path / "model.ckpt"), "--out", str(out))
        err = capsys.readouterr().err
        manifest = json.loads((tiny_inputs / "data" / "manifest.json").read_text())
        assert code == 3
        assert "Warning" not in err
        assert err.startswith("error:")
        assert f"video {manifest['splits']['test'][0]!r}" in err.splitlines()[0]
        assert not out.exists()

    def test_missing_checkpoint_is_data_error(self, tiny_inputs, tmp_path, capsys):
        out = tmp_path / "predictions.json"
        assert run("predict", "--data", str(tiny_inputs / "data"), "--checkpoint",
                   str(tmp_path / "nope.ckpt"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.ckpt" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["predictions", "annotations"])
    def test_missing_eval_input_is_data_error(self, tmp_path, capsys, missing):
        paths = {"predictions": tmp_path / "predictions.json",
                 "annotations": tmp_path / "annotations.json"}
        paths["predictions"].write_text(json.dumps(valid_predictions()))
        paths["annotations"].write_text(json.dumps(valid_annotations()))
        paths[missing] = tmp_path / "nope.json"
        out = tmp_path / "report.json"
        assert run("eval", "--predictions", str(paths["predictions"]), "--annotations",
                   str(paths["annotations"]), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.json" in err and "Traceback" not in err
        assert not out.exists()

    def test_manifest_that_is_a_directory_is_data_error(self, tmp_path, capsys):
        (tmp_path / "data" / "manifest.json").mkdir(parents=True)
        assert run("train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "runs")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest.json" in err and "Traceback" not in err

    def test_config_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        (tmp_path / "settings").mkdir()
        assert run("synth", "--out", str(tmp_path / "data"), "--config",
                   str(tmp_path / "settings")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "settings" in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.slow
    def test_gradcheck_failure_is_numeric_error(self, capsys):
        # an impossibly tight tolerance forces the failure path
        assert run("gradcheck", "--tolerance", "1e-18") == 3
        assert "gradient check failed" in capsys.readouterr().err


@pytest.mark.slow
def test_gradcheck_passes_at_default_tolerance(capsys):
    assert run("gradcheck") == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out


def scale_features(data, split, top=3e38):
    """Rescale every feature file of ``split`` so its largest score is
    ``top``: representable in float32 (and in the file), but a float32
    convolution over it overflows while a float64 one does not."""
    manifest = json.loads((data / "manifest.json").read_text())
    for vid in manifest["splits"][split]:
        path = data / "features" / f"{vid}.sasf"
        seq = load_sas_features(path)
        save_sas_features(
            ScoreSequence(vid, seq.matrix / np.abs(seq.matrix).max() * top, seq.blocks), path)
    return manifest


def bench_pairs_settings(name):
    """``BITS_SETTINGS[name]`` of ``tools/bench_pairs.py``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BITS_SETTINGS[name]


class TestWorker:
    """The CLI with large float32 passes split between the caller and the
    worker thread (``tensor._run``), against the caller alone."""

    def test_tiled_settings_write_the_same_bytes(self, tmp_path, worker):
        config = tmp_path / "tiled.json"
        config.write_text(json.dumps(bench_pairs_settings("tiled")))
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--config", str(config)) == 0
        written, handed = {}, []
        for on in (False, True):
            pool = worker(on)
            out = tmp_path / ("worker" if on else "alone")
            assert run("train", "--data", str(data), "--out", str(out), "--config", str(config)) == 0
            handed.append(pool.handed)
            assert run("predict", "--data", str(data), "--checkpoint", str(out / "model.ckpt"),
                       "--out", str(out / "predictions.json"), "--config", str(config)) == 0
            handed.append(pool.handed)
            written[on] = [(out / name).read_bytes() for name in ("model.ckpt", "predictions.json")]
        assert handed[:2] == [0, 0] and 0 < handed[2] < handed[3]  # train and predict split
        assert written[True] == written[False]


class TestFloat32Overflow:
    """A float32 overflow from inputs that are finite in float64 exits 3,
    with an error line and no NumPy warning."""

    def test_train_checkpoints_the_last_good_parameters(self, tmp_path, tiny_config, capsys):
        data, runs = tmp_path / "data", tmp_path / "runs"
        assert run("synth", "--out", str(data), "--config", tiny_config) == 0
        scale_features(data, "train")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning escapes as an exception
            code = run("train", "--data", str(data), "--out", str(runs), "--config", tiny_config)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "requires finite inputs" in err
        assert "Traceback" not in err and "Warning" not in err
        initial = Network(NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                                        base_filters=6, anchor_filters=8), seed=7)
        for p, q in zip(load_checkpoint(runs / "model.ckpt").parameters, initial.parameters):
            assert np.array_equal(p.data, q.data), p.name

    def test_overflow_in_the_workers_piece(self, tmp_path, capsys, worker):
        # 256 base filters over 16 windows of 128: base.0 runs as two pieces,
        # and the worker's overflows under the caller's NumPy error state
        settings = {**TINY, "synth.min_video_length": 1800, "synth.max_video_length": 1800}
        config, data = tmp_path / "settings.json", tmp_path / "data"
        config.write_text(json.dumps(settings))
        assert run("synth", "--out", str(data), "--config", str(config)) == 0
        scale_features(data, "train")
        manifest = scale_features(data, "test")
        network = Network(NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                                        base_filters=256, anchor_filters=8), seed=0)
        network.parameters[0].data[...] = 1e3  # base.0's kernel: any score overflows
        save_checkpoint(network, tmp_path / "model.ckpt")
        by_id, windows = load_annotations(data / "train.json").by_id(), []
        for vid in manifest["splits"]["train"]:
            seq = load_sas_features(data / "features" / f"{vid}.sasf")
            windows += slide_windows(seq, by_id[vid].instances, 128, 0.75)
        assert len(windows) >= 16
        pool = worker(True)
        out = tmp_path / "predictions.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning escapes as an exception
            with pytest.raises(NumericError, match="requires finite inputs"):
                train(windows[:16], network,
                      TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3))
            handed = pool.handed
            assert handed > 0
            code = run("predict", "--data", str(data), "--checkpoint",
                       str(tmp_path / "model.ckpt"), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Warning" not in err and "Traceback" not in err
        assert f"video {manifest['splits']['test'][0]!r}" in err.splitlines()[0]
        assert pool.handed > handed
        assert not out.exists()

    def test_predict_names_the_video(self, tiny_inputs, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(tiny_inputs / "data", data)
        manifest = scale_features(data, "test")
        checkpoint = tiny_inputs / "model.ckpt"
        first = load_sas_features(data / "features" / f"{manifest['splits']['test'][0]}.sasf")
        network = load_checkpoint(checkpoint)
        window = first.matrix[:network.config.window_length]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # finite in float64 ...
            wide = network.decode(window, network.cast_parameters("float64"))
            assert np.isfinite(wide.class_logits.data).all()
            # ... and an overflow in float32, which predict computes in
            out = tmp_path / "predictions.json"
            code = run("predict", "--data", str(data), "--checkpoint", str(checkpoint),
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Warning" not in err and "Traceback" not in err
        assert f"video {manifest['splits']['test'][0]!r}" in err.splitlines()[0]
        assert not out.exists()

    def test_predict_names_the_video_of_a_parameter_beyond_float32(self, tiny_inputs,
                                                                    tmp_path, capsys):
        network = load_checkpoint(tiny_inputs / "model.ckpt")
        network.parameters[0].data.flat[0] = 1e300  # finite, and inf once cast to float32
        checkpoint = tmp_path / "big.ckpt"
        save_checkpoint(network, checkpoint)
        assert load_checkpoint(checkpoint).parameters[0].data.flat[0] == 1e300
        manifest = json.loads((tiny_inputs / "data" / "manifest.json").read_text())
        out = tmp_path / "predictions.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("predict", "--data", str(tiny_inputs / "data"), "--checkpoint",
                       str(checkpoint), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Warning" not in err and "Traceback" not in err
        assert f"video {manifest['splits']['test'][0]!r}" in err.splitlines()[0]
        assert not out.exists()

    def test_predict_names_the_video_of_an_overflowing_center_offset(self, tiny_inputs,
                                                                    tmp_path, capsys):
        # no activation or sigmoid sees the offset columns, so only decode's own
        # check stops an inf center from silently dropping its candidates
        network = load_checkpoint(tiny_inputs / "model.ckpt")
        bias = next(p for p in network.parameters if p.name == "pred.0.bias")
        bias.data.reshape(-1, network.config.head_width + 3)[:, -2] = 1e300
        checkpoint = tmp_path / "offset.ckpt"
        save_checkpoint(network, checkpoint)
        manifest = json.loads((tiny_inputs / "data" / "manifest.json").read_text())
        out = tmp_path / "predictions.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("predict", "--data", str(tiny_inputs / "data"), "--checkpoint",
                       str(checkpoint), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "Warning" not in err and "Traceback" not in err
        assert f"video {manifest['splits']['test'][0]!r}" in err.splitlines()[0]
        assert "anchor decoding requires finite inputs" in err
        assert not out.exists()
