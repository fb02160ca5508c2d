import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tadkit.model
from tadkit.errors import ConfigError, DataError, UsageError
from tadkit.model import (
    BASE_ARCHITECTURES,
    LayerSpec,
    Network,
    NetworkConfig,
    anchor_grid,
    load_checkpoint,
    save_checkpoint,
)


def small_config(**kw):
    base = dict(feature_dim=6, num_classes=2, window_length=128,
                base_filters=8, anchor_filters=8)
    base.update(kw)
    return NetworkConfig(**base)


class TestAnchorGrid:
    def test_counts_and_geometry(self):
        anchors = anchor_grid(16, (1.0, 1.5, 2.0))
        assert len(anchors) == 48
        assert_allclose(anchors[0].center, 0.5 / 16)
        assert_allclose([a.width for a in anchors[:3]],
                        [1 / 16, 1.5 / 16, 2 / 16])

    def test_cell_major_then_ratio_order(self):
        anchors = anchor_grid(4, (0.5, 1.0))
        expect = [(c, r) for c in range(4) for r in (0.5, 1.0)]
        assert [(a.cell, a.ratio) for a in anchors] == expect

    def test_centers_evenly_spaced(self):
        anchors = anchor_grid(8, (1.0,))
        assert_allclose(np.diff([a.center for a in anchors]), np.full(7, 1 / 8))

    def test_default_network_anchor_count(self):
        # maps 16/8/4 with 3, 5, 5 ratios
        net = Network(NetworkConfig(feature_dim=12, num_classes=3,
                                    base_filters=4, anchor_filters=4), seed=0)
        assert net.num_anchors == 16 * 3 + 8 * 5 + 4 * 5 == 108


def decode_raw(raw):
    """Decode a small network whose prediction heads emit ``raw`` for every
    anchor: the ``pred.*.kernel`` are zero and the ``pred.*.bias`` repeat
    the raw vector (class scores, overlap logit, center and width offsets)
    once per ratio. Returns the network and its decode of one window."""
    net = Network(small_config(), seed=0)
    for p in net.parameters:
        if p.name.startswith("pred.") and p.name.endswith(".kernel"):
            p.data[...] = 0.0
        elif p.name.startswith("pred.") and p.name.endswith(".bias"):
            p.data[...] = np.tile(raw, p.data.size // len(raw))
    return net, net.decode(np.zeros((128, 6)))


class TestDecodeAnchor:
    def test_known_offsets(self):
        net, pred = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
        assert_allclose(pred.centers.data, net.anchor_centers + 0.1 * net.anchor_widths * 1.0)
        assert_allclose(pred.widths.data, net.anchor_widths)
        assert_allclose(pred.overlap.data, 0.5)  # logit zero

    def test_width_offset_exponentiates(self):
        net, pred = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0]))
        assert_allclose(pred.widths.data, net.anchor_widths * np.exp(0.3))

    def test_width_offset_clamped(self):
        net, hi = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e4]))
        assert_allclose(hi.widths.data, net.anchor_widths * np.exp(0.1 * 50.0))
        net, lo = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1e4]))
        assert_allclose(lo.widths.data, net.anchor_widths * np.exp(-0.1 * 50.0))

    def test_overlap_logit_saturates_safely(self):
        _, pred = decode_raw(np.array([0.0, 0.0, 0.0, -900.0, 0.0, 0.0]))
        assert np.all(pred.overlap.data == 0.0)


class TestNetworkConfig:
    def test_presets_all_reduce_by_16(self):
        for name in BASE_ARCHITECTURES:
            NetworkConfig(feature_dim=4, num_classes=1, base_arch=name)._check_base()

    def test_wrong_stride_product_reports_achieved_maps(self):
        layers = tuple(LayerSpec("conv", 9, 2) for _ in range(3))  # product 8
        with pytest.raises(ConfigError, match="stride must be 16"):
            small_config(base_arch=layers)

    def test_window_must_divide_all_maps(self):
        with pytest.raises(ConfigError, match="multiple of 128"):
            small_config(window_length=200)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown base architecture"):
            small_config(base_arch="Z").base_layers()

    def test_dict_round_trip_with_explicit_layers(self):
        cfg = small_config(base_arch=BASE_ARCHITECTURES["E"])
        back = NetworkConfig.from_dict(cfg.to_dict())
        assert back.base_layers() == cfg.base_layers()
        assert back.ratios == cfg.ratios

    def test_unknown_config_keys_rejected(self):
        doc = small_config().to_dict()
        doc["mystery"] = 1
        with pytest.raises(DataError, match="mystery"):
            NetworkConfig.from_dict(doc)


class TestNetworkForward:
    def test_map_shapes(self):
        cfg = small_config()
        net = Network(cfg, seed=0)
        rng = np.random.default_rng(0)
        outputs = net.forward(rng.uniform(size=(128, 6)))
        cols = cfg.head_width + 3
        assert [o.data.shape for o in outputs] == [(4 * 3, cols), (2 * 5, cols), (1 * 5, cols)]

    def test_seeded_build_is_deterministic(self):
        a = Network(small_config(), seed=4)
        b = Network(small_config(), seed=4)
        for pa, pb in zip(a.parameters, b.parameters):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)
        c = Network(small_config(), seed=5)
        assert not np.array_equal(a.parameters[0].data, c.parameters[0].data)

    def test_wrong_input_shape_rejected(self):
        net = Network(small_config(), seed=0)
        with pytest.raises(UsageError, match="expected features"):
            net.forward(np.zeros((64, 6)))

    def test_decode_row_order_matches_anchor_order(self):
        # zero the prediction heads: every offset is 0, so decoded centers
        # and widths must reproduce the anchor geometry row for row
        net = Network(small_config(), seed=1)
        for p in net.parameters:
            if p.name.startswith("pred."):
                p.data[...] = 0.0
        decoded = net.decode(np.random.default_rng(2).uniform(size=(128, 6)))
        assert_allclose(decoded.centers.data, net.anchor_centers, atol=1e-12)
        assert_allclose(decoded.widths.data, net.anchor_widths, atol=1e-12)
        assert_allclose(decoded.overlap.data, np.full(net.num_anchors, 0.5))

    def test_decode_shapes(self):
        net = Network(small_config(), seed=0)
        decoded = net.decode(np.zeros((128, 6)))
        n = net.num_anchors
        assert decoded.class_logits.data.shape == (n, 3)
        assert decoded.overlap.data.shape == (n,)
        assert len(decoded) == n

    def test_decode_of_a_stack_matches_each_window(self):
        net = Network(small_config(), seed=3)
        x = np.random.default_rng(4).uniform(size=(3, 128, 6))
        stacked = net.decode(x)
        assert stacked.overlap.data.shape == (3, net.num_anchors)
        assert len(stacked) == net.num_anchors
        for b in range(3):
            single = net.decode(x[b])
            view = stacked.window(b)
            for field in ("class_logits", "overlap", "centers", "widths"):
                expect = getattr(single, field).data
                assert_allclose(getattr(view, field).data, expect, rtol=1e-12, atol=1e-12)

    def test_architectures_differ_in_parameter_count(self):
        counts = {
            name: Network(small_config(base_arch=name), seed=0).num_parameters
            for name in sorted(BASE_ARCHITECTURES)
        }
        assert counts["C"] > counts["B"] > counts["E"]
        assert counts["A"] == counts["B"]  # same convs, pooling has no weights


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        net = Network(small_config(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.config == net.config
        for pa, pb in zip(net.parameters, back.parameters):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        net = Network(small_config(), seed=6)
        x = np.random.default_rng(0).uniform(size=(128, 6))
        before = net.decode(x)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        after = load_checkpoint(path).decode(x)
        assert np.array_equal(before.centers.data, after.centers.data)
        assert np.array_equal(before.class_logits.data, after.class_logits.data)

    def test_load_reads_parameters_without_initialising(self, tmp_path, monkeypatch):
        net = Network(small_config(), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint initialised parameters")

        monkeypatch.setattr(tadkit.model, "xavier_init", no_init)
        back = load_checkpoint(path)
        for pa, pb in zip(net.parameters, back.parameters):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)
            assert pb.data.flags.writeable

    def test_save_is_deterministic(self, tmp_path):
        net = Network(small_config(), seed=3)
        save_checkpoint(net, tmp_path / "a.ckpt")
        save_checkpoint(net, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTCKPT!" + b"\x00" * 16)
        with pytest.raises(DataError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        net = Network(small_config(), seed=0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        net = Network(small_config(), seed=0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        ({"feature_dim": "6"}, "'feature_dim' must be an integer"),
        ({"feature_dim": 6.0}, "'feature_dim' must be an integer"),
        ({"num_classes": True}, "'num_classes' must be an integer"),
        ({"feature_dim": None}, "'feature_dim' must be an integer"),
        ({"center_scale": "0.1"}, "'center_scale' must be a finite number"),
        ({"delta_clamp": float("inf")}, "'delta_clamp' must be a finite number"),
        ({"ratios": 5}, "ratios must be a list of lists"),
        ({"ratios": [[1.0], [1.0], ["2"]]}, "ratio must be a finite number"),
        ({"base_arch": 5}, "base_arch must be a preset name or a list"),
        ({"base_arch": [5]}, r"base_arch\[0\] must be an object"),
        ({"base_arch": [{"kind": "conv", "stride": 1}]}, r"base_arch\[0\] is missing 'kernel'"),
        ({"base_arch": [{"kind": "conv", "kernel": 9, "stride": 1, "size": 2}]},
         r"base_arch\[0\] has unknown keys \['size'\]"),
        ({"base_arch": [{"kind": "conv", "kernel": "9", "stride": 1}]},
         r"base_arch\[0\] 'kernel' must be an integer"),
        ({"feature_dim": 0}, "feature_dim must be positive"),
        ({"window_length": 200}, "multiple of 128"),
    ])
    def test_malformed_config_is_data_error(self, tmp_path, edit, message):
        net = Network(small_config(), seed=0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        payload = path.read_bytes()
        (size,) = struct.unpack_from("<I", payload, 12)
        doc = json.loads(payload[16:16 + size])
        doc.update(edit)
        config = json.dumps(doc).encode()
        path.write_bytes(payload[:12] + struct.pack("<I", len(config)) + config
                         + payload[16 + size:])
        with pytest.raises(DataError, match=message) as info:
            load_checkpoint(path)
        assert "at byte 16" in str(info.value)

    def test_missing_config_key_is_data_error(self):
        doc = small_config().to_dict()
        del doc["feature_dim"]
        with pytest.raises(DataError, match="missing 'feature_dim'"):
            NetworkConfig.from_dict(doc)

    def test_non_utf8_parameter_name_reports_byte_offset(self, tmp_path):
        net = Network(small_config(), seed=0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        payload = bytearray(path.read_bytes())
        (size,) = struct.unpack_from("<I", payload, 12)
        payload[16 + size + 2] = 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(DataError, match=f"parameter name is not valid UTF-8 at byte {16 + size + 2}"):
            load_checkpoint(path)

    def test_custom_arch_round_trips(self, tmp_path):
        cfg = small_config(base_arch=BASE_ARCHITECTURES["D"])
        net = Network(cfg, seed=0)
        path = tmp_path / "d.ckpt"
        save_checkpoint(net, path)
        assert load_checkpoint(path).config.base_layers() == cfg.base_layers()
