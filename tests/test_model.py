import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tadkit.model
from tadkit.errors import ConfigError, DataError, UsageError
from tadkit.gradcheck import check_gradients
from tadkit.losses import l2_penalty
from tadkit.model import (
    BASE_ARCHITECTURES,
    MAP_STRIDES,
    RATIOS,
    Network,
    NetworkConfig,
    anchor_grid,
    load_checkpoint,
    save_checkpoint,
)
from tadkit.optim import xavier_init
from tadkit.tensor import (
    as_tensor, cast, conv1d, flat_parameters, maxpool1d, no_grad, relu, reshape, square, tmean,
)


def small_config(**kw):
    base = dict(feature_dim=6, num_classes=2, window_length=128,
                base_filters=8, anchor_filters=8)
    base.update(kw)
    return NetworkConfig(**base)


#: the config JSON that ``save_checkpoint`` writes for ``small_config()``
SMALL_CONFIG_JSON = (
    '{"anchor_filters": 8, "anchor_kernel": 9, "base_arch": "B", "base_filters": 8, '
    '"center_scale": 0.1, "delta_clamp": 50.0, "feature_dim": 6, "num_classes": 2, '
    '"pred_kernel": 3, "ratios": [[1.0, 1.5, 2.0], [0.5, 0.75, 1.0, 1.5, 2.0], '
    '[0.5, 0.75, 1.0, 1.5, 2.0]], "width_scale": 0.1, "window_length": 128}'
)
FIXED_KEYS = ("anchor_kernel", "pred_kernel", "ratios", "center_scale", "width_scale",
              "delta_clamp")


def checkpoint_config_text(path):
    """The JSON config text of the checkpoint at ``path``."""
    payload = path.read_bytes()
    (size,) = struct.unpack_from("<I", payload, 12)
    return payload[16:16 + size].decode()


def edit_checkpoint_config(path, edit, drop=()):
    """Rewrite the JSON config of the checkpoint at ``path`` with ``edit``
    applied and the keys ``drop`` removed."""
    payload = path.read_bytes()
    (size,) = struct.unpack_from("<I", payload, 12)
    doc = json.loads(payload[16:16 + size])
    doc.update(edit)
    for key in drop:
        del doc[key]
    config = json.dumps(doc).encode()
    path.write_bytes(payload[:12] + struct.pack("<I", len(config)) + config
                     + payload[16 + size:])


class TestAnchorGrid:
    def test_counts_and_geometry(self):
        anchors = anchor_grid(16, (1.0, 1.5, 2.0))
        assert len(anchors) == 48
        assert_allclose(anchors.center[0], 0.5 / 16)
        assert_allclose(anchors.width[:3], [1 / 16, 1.5 / 16, 2 / 16])
        assert np.array_equal(anchors.start, anchors.center - anchors.width / 2)
        assert np.array_equal(anchors.end, anchors.center + anchors.width / 2)
        assert np.all(anchors.layer == 0)

    def test_cell_major_then_ratio_order(self):
        anchors = anchor_grid(4, (0.5, 1.0))
        expect = [(c, r) for c in range(4) for r in (0.5, 1.0)]
        assert list(zip(anchors.cell.tolist(), anchors.ratio.tolist())) == expect

    def test_centers_evenly_spaced(self):
        anchors = anchor_grid(8, (1.0,))
        assert_allclose(np.diff(anchors.center), np.full(7, 1 / 8))

    def test_default_network_anchor_count(self):
        # maps 16/8/4 with 3, 5, 5 ratios
        net = Network(NetworkConfig(feature_dim=12, num_classes=3,
                                    base_filters=4, anchor_filters=4), seed=0)
        assert len(net.anchors) == 16 * 3 + 8 * 5 + 4 * 5 == 108
        assert np.bincount(net.anchors.layer).tolist() == [48, 40, 20]


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
        assert_allclose(pred.centers.data, net.anchors.center + 0.1 * net.anchors.width * 1.0)
        assert_allclose(pred.widths.data, net.anchors.width)
        assert_allclose(pred.overlap.data, 0.5)  # logit zero

    def test_width_offset_exponentiates(self):
        net, pred = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0]))
        assert_allclose(pred.widths.data, net.anchors.width * np.exp(0.3))

    def test_width_offset_clamped(self):
        net, hi = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e4]))
        assert_allclose(hi.widths.data, net.anchors.width * np.exp(0.1 * 50.0))
        net, lo = decode_raw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1e4]))
        assert_allclose(lo.widths.data, net.anchors.width * np.exp(-0.1 * 50.0))

    def test_overlap_logit_saturates_safely(self):
        _, pred = decode_raw(np.array([0.0, 0.0, 0.0, -900.0, 0.0, 0.0]))
        assert np.all(pred.overlap.data == 0.0)


class TestNetworkConfig:
    def test_presets_all_reduce_by_16(self):
        for name, layers in BASE_ARCHITECTURES.items():
            assert math.prod(layer.stride for layer in layers) == 16, name
            for window in (128, 512):
                length = window
                for layer in layers:  # same padding: ceil(length / stride)
                    length = -(-length // layer.stride)
                maps = [-(-length // 2 ** (i + 1)) for i in range(len(MAP_STRIDES))]
                config = NetworkConfig(feature_dim=4, num_classes=1, window_length=window,
                                       base_arch=name)
                assert maps == list(config.map_lengths), (name, window)

    def test_window_must_divide_all_maps(self):
        with pytest.raises(ConfigError, match="multiple of 128"):
            small_config(window_length=200)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset name"):
            small_config(base_arch="Z")

    def test_dict_round_trip_with_explicit_layers(self):
        cfg = small_config(base_arch="E")
        back = NetworkConfig.from_dict(cfg.to_dict())
        assert back.base_layers() == cfg.base_layers() == BASE_ARCHITECTURES["E"]
        assert back.to_dict()["ratios"] == cfg.to_dict()["ratios"] == RATIOS

    def test_unknown_config_keys_rejected(self):
        doc = small_config().to_dict()
        doc["mystery"] = 1
        with pytest.raises(DataError, match="mystery"):
            NetworkConfig.from_dict(doc)


def per_conv_cast_forward(net, features):
    """``Network.forward`` in float32 with each convolution casting its own
    kernel and bias as it runs, written out layer by layer."""
    params = iter(net.parameters)

    def conv(x, stride):
        return conv1d(x, cast(next(params), np.float32), cast(next(params), np.float32),
                      stride=stride)

    x = cast(as_tensor(features), np.float32)
    for layer in net.config.base_layers():
        if layer.kind == "conv":
            x = relu(conv(x, layer.stride))
        else:
            x = maxpool1d(x, layer.kernel, layer.stride)
    cols, outputs = net.config.head_width + 3, []
    for _ in RATIOS:
        x = relu(conv(x, 2))
        raw = conv(x, 1)
        *lead, m, width = raw.data.shape
        outputs.append(reshape(raw, (*lead, m * (width // cols), cols)))
    return outputs


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
        assert_allclose(decoded.centers.data, net.anchors.center, atol=1e-12)
        assert_allclose(decoded.widths.data, net.anchors.width, atol=1e-12)
        assert_allclose(decoded.overlap.data, np.full(len(net.anchors), 0.5))

    def test_decode_shapes(self):
        net = Network(small_config(), seed=0)
        decoded = net.decode(np.zeros((128, 6)))
        n = len(net.anchors)
        assert decoded.class_logits.data.shape == (n, 3)
        assert decoded.overlap.data.shape == (n,)
        assert decoded.overlap.data.shape[-1] == n

    def test_decode_of_a_stack_matches_each_window(self):
        net = Network(small_config(), seed=3)
        x = np.random.default_rng(4).uniform(size=(3, 128, 6))
        stacked = net.decode(x)
        assert stacked.overlap.data.shape == (3, len(net.anchors))
        assert stacked.overlap.data.shape[-1] == len(net.anchors)
        for b in range(3):
            single = net.decode(x[b])
            for field in ("class_logits", "overlap", "centers", "widths"):
                expect = getattr(single, field).data
                assert_allclose(getattr(stacked, field).data[b], expect, rtol=1e-12, atol=1e-12)

    def test_decode_without_a_graph_equals_the_graph_decode(self):
        net = Network(small_config(), seed=3)
        x = np.random.default_rng(4).uniform(size=(3, 128, 6))
        graph = net.decode(x)
        with no_grad():
            plain = net.decode(x)
        for field in ("class_logits", "overlap", "centers", "widths"):
            out = getattr(plain, field)
            assert np.array_equal(out.data, getattr(graph, field).data), field
            assert out._parents == () and out._backward_fn is None, field
            assert getattr(graph, field)._parents, field

    def test_float32_decode_casts_only_at_the_edges(self):
        net = Network(small_config(), seed=3)
        x = np.random.default_rng(4).uniform(size=(2, 128, 6))

        def graph(decoded):
            nodes, stack = {}, [decoded.class_logits, decoded.centers]
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes[id(node)] = node
                    stack.extend(node._parents)
            return list(nodes.values())

        wide, default, narrow = (graph(net.decode(x, *params)) for params in (
            (net.cast_parameters("float64"),), (), (net.cast_parameters("float32"),)))
        assert len(wide) == len(default)
        assert all(n.data.dtype == np.float64 for n in wide)
        # one cast per parameter, one for the input and one back for the heads
        assert len(narrow) == len(wide) + len(net.parameters) + 2
        low = net.decode(x, net.cast_parameters("float32"))
        for field in ("class_logits", "overlap", "centers", "widths"):
            got, want = getattr(low, field).data, getattr(net.decode(x), field).data
            assert got.dtype == np.float64, field
            assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_cast_parameters(self):
        net = Network(small_config(), seed=3)
        wide, low = net.cast_parameters("float64"), net.cast_parameters("float32")
        assert len(wide) == len(low) == len(net.parameters)
        for p, w, c in zip(net.parameters, wide, low):
            assert w is p, p.name  # no cast node in float64
            assert c.data.dtype == np.float32 and c._parents[0] is p, p.name
            assert np.array_equal(c.data, p.data.astype(np.float32)), p.name

    def test_float32_decode_over_a_cast_list_equals_casting_in_the_pass(self, monkeypatch):
        net = Network(small_config(), seed=3)
        x = np.random.default_rng(4).uniform(size=(2, 128, 6))
        shared = net.decode(x, net.cast_parameters("float32"))
        monkeypatch.setattr(net, "forward",
                            lambda features, _: per_conv_cast_forward(net, features))
        in_pass = net.decode(x)
        for field in ("class_logits", "overlap", "centers", "widths"):
            assert np.array_equal(getattr(shared, field).data, getattr(in_pass, field).data), field

    def test_a_cast_list_of_the_wrong_length_is_rejected(self):
        net = Network(small_config(), seed=3)
        with pytest.raises(UsageError, match="parameters"):
            net.decode(np.zeros((128, 6)), net.cast_parameters("float32")[:-1])

    def test_architectures_differ_in_parameter_count(self):
        counts = {
            name: Network(small_config(base_arch=name), seed=0).num_parameters
            for name in sorted(BASE_ARCHITECTURES)
        }
        assert counts["C"] > counts["B"] > counts["E"]
        assert counts["A"] == counts["B"]  # same convs, pooling has no weights


class TestFlatLayout:
    """Parameters are views of one flat vector, gradients of another."""

    @staticmethod
    def assert_tiles(vector, views):
        assert vector.ndim == 1 and vector.dtype == np.float64 and vector.flags.c_contiguous
        offset = 0
        for v in views:
            assert v.base is vector and v.flags.c_contiguous
            assert v.ctypes.data == vector.ctypes.data + 8 * offset
            offset += v.size
        assert offset == vector.size

    def loss(self, net):
        decoded = net.decode(np.random.default_rng(0).uniform(size=(2, 128, 6)))
        return tmean(square(decoded.overlap)) + tmean(decoded.class_logits) + l2_penalty(
            net.parameters)

    def test_parameters_are_views_in_declaration_order(self):
        net = Network(small_config(), seed=5)
        params = net.parameters
        self.assert_tiles(params[0].data.base, [p.data for p in params])
        # the Xavier draws follow declaration order
        rng = np.random.default_rng(5)
        for p in params:
            assert np.array_equal(p.data, xavier_init(p.data.shape, rng)), p.name

    def test_gradients_are_views_of_one_vector(self):
        net = Network(small_config(), seed=5)
        self.loss(net).backward()
        params = net.parameters
        self.assert_tiles(params[0].grad.base, [p.grad for p in params])
        data, grad = params[0].data.base, params[0].grad.base
        same_data, same_grad = flat_parameters(params)
        assert same_data is data and same_grad is grad  # handed back, not repacked
        assert params[0].data.base is data

    def test_checkpoint_round_trip_is_byte_identical(self, tmp_path):
        net = Network(small_config(base_arch="C"), seed=2)
        save_checkpoint(net, tmp_path / "a.ckpt")
        back = load_checkpoint(tmp_path / "a.ckpt")
        self.assert_tiles(back.parameters[0].data.base, [p.data for p in back.parameters])
        save_checkpoint(back, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_check_gradients_restores_the_views(self):
        net = Network(small_config(), seed=5)
        params = net.parameters
        l2_penalty(params).backward()  # a gradient unlike the checked loss's
        checked = params[-1]
        data, grad = params[0].data.base.copy(), checked.grad.copy()
        result = check_gradients(lambda: self.loss(net), [checked], step=1e-6)
        assert result.max_rel_error < 1e-5
        assert np.array_equal(params[0].data.base, data)
        self.assert_tiles(params[0].data.base, [p.data for p in params])
        # the check's own backward pass wrote into the view; the gradient
        # the parameter had before comes back
        assert np.array_equal(checked.grad, grad)

    def test_check_gradients_keeps_every_reached_gradient(self):
        net = Network(small_config(), seed=5)
        params = net.parameters
        self.loss(net).backward()
        before = [p.grad.copy() for p in params]
        check_gradients(lambda: self.loss(net), [params[-1]], step=1e-6)
        # the check's backward reaches every parameter, not only the checked one
        for p, g in zip(params, before):
            assert np.array_equal(p.grad, g), p.name


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

    def test_save_streams_parameters_without_copies(self, tmp_path):
        net = Network(small_config(base_filters=96, anchor_filters=192), seed=0)
        path = tmp_path / "model.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(net, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 8 * 2**20
        assert peak < size / 4
        assert load_checkpoint(path).config == net.config

    def test_load_streams_into_one_vector(self, tmp_path):
        # no whole-file buffer and no per-parameter arrays: the data vector
        # and the calloc'd gradient vector, each about the file's size, are
        # the only large allocations
        net = Network(small_config(base_filters=96, anchor_filters=192), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 8 * 2**20
        assert peak < 2.5 * size
        for pa, pb in zip(net.parameters, back.parameters):
            assert np.array_equal(pa.data, pb.data)

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

    @pytest.mark.parametrize("key", ["base_filters", "anchor_filters"])
    def test_oversized_config_fails_before_allocating(self, tmp_path, key):
        # a small file whose config declares ~10^10 values: each parameter's
        # count is checked against the file before that parameter exists
        path = tmp_path / "x.ckpt"
        save_checkpoint(Network(small_config(), seed=0), path)
        edit_checkpoint_config(path, {key: 10**9})
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="values, expected"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size + 2**20

    @pytest.mark.parametrize("edit, message", [
        ({"feature_dim": "6"}, "'feature_dim' must be an integer"),
        ({"feature_dim": 6.0}, "'feature_dim' must be an integer"),
        ({"num_classes": True}, "'num_classes' must be an integer"),
        ({"feature_dim": None}, "'feature_dim' must be an integer"),
        ({"center_scale": "0.1"}, "'center_scale' must be at its fixed value 0.1,"),
        ({"delta_clamp": float("inf")}, "'delta_clamp' must be at its fixed value 50.0,"),
        ({"ratios": 5}, "'ratios' must be at its fixed value"),
        ({"ratios": [[1.0], [1.0], ["2"]]}, "'ratios' must be at its fixed value"),
        ({"base_arch": 5}, "base_arch must be a preset name"),
        ({"base_arch": [5]}, "base_arch must be a preset name"),
        ({"base_arch": [{"kind": "conv", "stride": 1}]}, "base_arch must be a preset name"),
        ({"base_arch": [{"kind": "conv", "kernel": 9, "stride": 1, "size": 2}]},
         "base_arch must be a preset name"),
        ({"base_arch": [{"kind": "conv", "kernel": "9", "stride": 1}]},
         "base_arch must be a preset name"),
        ({"feature_dim": 0}, "feature_dim must be positive"),
        ({"window_length": 200}, "multiple of 128"),
        ({"pred_kernel": 1}, "'pred_kernel' must be at its fixed value 3,"),
        ({"ratios": [[True, 1.5, 2.0], *RATIOS[1:]]}, "'ratios' must be at its fixed value"),
        ({"base_arch": [{"kind": "conv", "kernel": 9, "stride": 1, "filters": None},
                        {"kind": "pool", "kernel": 2, "stride": 2, "filters": None}] * 4},
         "base_arch must be a preset name"),
    ], ids=["feature_dim-str", "feature_dim-float", "num_classes-bool", "feature_dim-null",
            "center_scale-str", "delta_clamp-inf", "ratios-int", "ratios-str-entry",
            "base_arch-int", "base_arch-int-list", "base_arch-layer-without-kernel",
            "base_arch-layer-extra-key", "base_arch-str-kernel", "feature_dim-zero",
            "window_length-200", "pred_kernel-1", "ratios-bool-entry",
            "base_arch-null-filters"])
    def test_malformed_config_is_data_error(self, tmp_path, edit, message):
        net = Network(small_config(), seed=0)
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        edit_checkpoint_config(path, edit)
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

    def test_non_finite_parameter_reports_name_and_byte_offset(self, tmp_path):
        net = Network(small_config(), seed=0)
        net.parameters[1].data[2] = np.nan
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        offset = path.read_bytes().find(struct.pack("<d", np.nan))
        message = f"'base.0.bias' has a non-finite value at byte {offset}"
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_custom_arch_round_trips(self, tmp_path):
        cfg = small_config(base_arch="D")
        net = Network(cfg, seed=0)
        path = tmp_path / "d.ckpt"
        save_checkpoint(net, path)
        assert load_checkpoint(path).config.base_layers() == cfg.base_layers()

    def test_config_json_is_pinned(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(Network(small_config(), seed=0), path)
        assert checkpoint_config_text(path) == SMALL_CONFIG_JSON
        assert json.dumps(small_config().to_dict(), sort_keys=True) == SMALL_CONFIG_JSON

    def test_config_without_the_fixed_keys_loads_the_same_network(self, tmp_path):
        net = Network(small_config(base_arch="C"), seed=4)
        path = tmp_path / "x.ckpt"
        save_checkpoint(net, path)
        edit_checkpoint_config(path, {}, drop=FIXED_KEYS)
        assert not set(FIXED_KEYS) & set(json.loads(checkpoint_config_text(path)))
        back = load_checkpoint(path)
        assert back.config == net.config
        for pa, pb in zip(net.parameters, back.parameters):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)
        x = np.random.default_rng(0).uniform(size=(128, 6))
        for field in ("class_logits", "overlap", "centers", "widths"):
            assert np.array_equal(getattr(net.decode(x), field).data,
                                  getattr(back.decode(x), field).data), field
