import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.data import ActionInstance, AnnotationSet, Detection, ScoreBlock, ScoreSequence, VideoAnnotation
from tadkit.errors import DataError
from tadkit.io import (
    load_annotations,
    load_predictions,
    load_sas_features,
    save_annotations,
    save_predictions,
    save_sas_features,
)
from tadkit.model import Network, NetworkConfig, load_checkpoint, save_checkpoint


def sasf_bytes(t=2, d=4, blocks=(("b", 4),), payload=None, version=1, magic=b"SASF"):
    out = [magic, struct.pack("<IIII", version, t, d, len(blocks))]
    for name, width in blocks:
        out.append(struct.pack("<H", len(name)))
        out.append(name.encode())
        out.append(struct.pack("<I", width))
    if payload is None:
        payload = np.arange(t * d, dtype="<f4").tobytes()
    out.append(payload)
    return b"".join(out)


class TestSasf:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(size=(50, 6)).astype(np.float32)
        seq = ScoreSequence("clip", matrix, [ScoreBlock("rgb", 2), ScoreBlock("flow", 4)])
        path = tmp_path / "clip.sasf"
        save_sas_features(seq, path)
        back = load_sas_features(path)
        assert back.video_id == "clip"
        assert [(b.name, b.width) for b in back.blocks] == [("rgb", 2), ("flow", 4)]
        assert_allclose(back.matrix, matrix.astype(np.float64))

    def test_save_is_byte_deterministic(self, tmp_path):
        seq = ScoreSequence("v", np.ones((3, 2)), [ScoreBlock("b", 2)])
        save_sas_features(seq, tmp_path / "a.sasf")
        save_sas_features(seq, tmp_path / "b.sasf")
        assert (tmp_path / "a.sasf").read_bytes() == (tmp_path / "b.sasf").read_bytes()

    def test_minimal_single_row_file(self, tmp_path):
        path = tmp_path / "one.sasf"
        path.write_bytes(sasf_bytes(t=1, d=12, blocks=(("sas", 12),),
                                    payload=np.zeros(12, dtype="<f4").tobytes()))
        seq = load_sas_features(path)
        assert seq.matrix.shape == (1, 12)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "x.sasf"
        path.write_bytes(sasf_bytes(magic=b"SAS0"))
        with pytest.raises(DataError, match="at byte 0"):
            load_sas_features(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.sasf"
        path.write_bytes(sasf_bytes(version=2))
        with pytest.raises(DataError, match="version 2"):
            load_sas_features(path)

    def test_width_sum_mismatch(self, tmp_path):
        path = tmp_path / "x.sasf"
        path.write_bytes(sasf_bytes(blocks=(("b", 3),)))
        with pytest.raises(DataError, match="widths sum to 3"):
            load_sas_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.sasf"
        full = sasf_bytes()
        path.write_bytes(full[:-4])
        with pytest.raises(DataError, match="truncated"):
            load_sas_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.sasf"
        path.write_bytes(sasf_bytes() + b"xx")
        with pytest.raises(DataError, match="2 trailing bytes"):
            load_sas_features(path)

    def test_nonfinite_value_reports_byte_offset(self, tmp_path):
        payload = np.arange(8, dtype="<f4")
        payload[5] = np.nan
        path = tmp_path / "x.sasf"
        path.write_bytes(sasf_bytes(payload=payload.tobytes()))
        # header 20 + block (2 + 1 + 4) = 27; value 5 sits at 27 + 5*4
        with pytest.raises(DataError, match=f"at byte {27 + 20}"):
            load_sas_features(path)

    def test_non_utf8_block_name_reports_byte_offset(self, tmp_path):
        payload = bytearray(sasf_bytes(blocks=(("ab", 4),)))
        payload[22:24] = b"\xff\xfe"  # the name follows the 20-byte header and its length
        path = tmp_path / "x.sasf"
        path.write_bytes(bytes(payload))
        with pytest.raises(DataError, match="block 0 name is not valid UTF-8 at byte 22"):
            load_sas_features(path)

    def test_empty_matrix_rejected(self, tmp_path):
        path = tmp_path / "x.sasf"
        path.write_bytes(sasf_bytes(t=0, payload=b""))
        with pytest.raises(DataError, match="empty matrix"):
            load_sas_features(path)


class TestMutatedFiles:
    """Seeded mutations of valid SASF and checkpoint files: each either
    loads or raises DataError, never another exception."""

    @staticmethod
    def mutants(payload, seed, count=300):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            if rng.random() < 0.2:
                yield payload[:rng.integers(len(payload))]
                continue
            mutant = bytearray(payload)
            # half the flips land in the first 512 bytes, where the headers,
            # the names and the checkpoint's config are
            span = 512 if rng.random() < 0.5 else len(payload)
            for i in rng.integers(min(span, len(payload)), size=rng.integers(1, 4)):
                mutant[i] = rng.integers(256)
            yield bytes(mutant)

    def assert_loads_or_data_error(self, path, load, seed):
        payload = path.read_bytes()
        rejected = 0
        for mutant in self.mutants(payload, seed):
            path.write_bytes(mutant)
            try:
                load(path)
            except DataError:
                rejected += 1
        assert rejected > 0

    def test_sasf(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = ScoreSequence("v", rng.uniform(size=(20, 6)),
                            [ScoreBlock("rgb", 2), ScoreBlock("flow", 4)])
        path = tmp_path / "v.sasf"
        save_sas_features(seq, path)
        self.assert_loads_or_data_error(path, load_sas_features, seed=1)

    def test_checkpoint(self, tmp_path):
        config = NetworkConfig(feature_dim=6, num_classes=2, window_length=128,
                               base_filters=2, anchor_filters=2, base_arch="E")
        path = tmp_path / "x.ckpt"
        save_checkpoint(Network(config, seed=0), path)
        self.assert_loads_or_data_error(path, load_checkpoint, seed=2)


class TestAnnotationsJson:
    def make_set(self):
        videos = [
            VideoAnnotation("a", 500, 25.0, [ActionInstance(10.0, 60.0, 1)]),
            VideoAnnotation("b", 700, 30.0, [ActionInstance(1.5, 99.5, 2),
                                             ActionInstance(200.0, 340.0, 1)]),
        ]
        return AnnotationSet(videos, ["jump", "throw"])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.json"
        save_annotations(self.make_set(), path)
        back = load_annotations(path)
        assert back == self.make_set()

    def test_writer_is_deterministic(self, tmp_path):
        save_annotations(self.make_set(), tmp_path / "a.json")
        save_annotations(self.make_set(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_category_out_of_range_names_record(self, tmp_path):
        doc = {"categories": ["x"], "videos": [
            {"video_id": "vid9", "num_snippets": 100, "fps": 25.0,
             "instances": [{"start": 0, "end": 10, "category": 2}]}]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="'vid9' instance 0"):
            load_annotations(path)

    def test_instance_past_video_end_rejected(self, tmp_path):
        doc = {"categories": ["x"], "videos": [
            {"video_id": "v", "num_snippets": 100, "fps": 25.0,
             "instances": [{"start": 0, "end": 150, "category": 1}]}]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="exceeds 100"):
            load_annotations(path)

    def test_duplicate_video_id_rejected(self, tmp_path):
        doc = {"categories": [], "videos": [
            {"video_id": "v", "num_snippets": 10, "instances": []},
            {"video_id": "v", "num_snippets": 10, "instances": []}]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="duplicate"):
            load_annotations(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_annotations(path)


class TestPredictionsJson:
    def test_round_trip(self, tmp_path):
        dets = [
            Detection("a", 1.0, 20.0, 1, 0.9),
            Detection("a", 15.5, 40.0, 2, 0.4),
            Detection("b", 100.0, 160.0, 1, 0.77),
        ]
        path = tmp_path / "pred.json"
        save_predictions(dets, path)
        assert load_predictions(path) == dets

    def test_start_after_end_rejected(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"predictions": [
            {"video_id": "a", "start": 9.0, "end": 3.0, "category": 1, "confidence": 0.5}]}))
        with pytest.raises(DataError, match="prediction 0"):
            load_predictions(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"predictions": [{"video_id": "a", "start": 1.0}]}))
        with pytest.raises(DataError, match="malformed"):
            load_predictions(path)
