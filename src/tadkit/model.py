"""Anchor-based 1D detection network over snippet score sequences.

A stack of base layers reduces a (T_w, D) window (or a (B, T_w, D) stack
of windows, run as one graph) by a factor of 16, then
three stride-2 anchor convolutions produce feature maps of length T_w/32,
T_w/64 and T_w/128. Each map cell carries a set of anchor segments of
fixed aspect ratios; a linear prediction convolution emits, per anchor,
K+1 class scores, an overlap logit, and center/width offsets.

Anchors are ordered cell-major then ratio, which is exactly the row-major
reshape of the prediction map — downstream code relies on that alignment.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .io import _finite, _Reader, atomic_write_bytes
from .optim import xavier_init
from .tensor import (
    DTYPE,
    Parameter,
    Tensor,
    as_tensor,
    clip,
    concat,
    conv1d,
    exp,
    maxpool1d,
    mul,
    relu,
    reshape,
    sigmoid,
    take,
)

CHECKPOINT_MAGIC = b"SSADCKPT"
CHECKPOINT_VERSION = 1

#: reduction factors of the three anchor maps relative to the window
MAP_STRIDES = (32, 64, 128)
BASE_STRIDE = 16


@dataclass(frozen=True)
class LayerSpec:
    """One base layer: a ReLU convolution or a max-pool."""

    kind: str  # "conv" | "pool"
    kernel: int
    stride: int
    filters: int = None  # conv only; None means the network's base_filters

    def __post_init__(self):
        if self.kind not in ("conv", "pool"):
            raise ConfigError(f"layer kind must be 'conv' or 'pool', got {self.kind!r}")
        if self.kernel < 1:
            raise ConfigError(f"layer kernel must be >= 1, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ConfigError(f"layer stride must be 1 or 2, got {self.stride}")
        if self.kind == "pool" and self.filters is not None:
            raise ConfigError("pool layers take no filter count")


def _stages(conv_layers, pool=True):
    out = []
    for _ in range(4):
        out.extend(conv_layers)
        if pool:
            out.append(LayerSpec("pool", 2, 2))
    return tuple(out)


#: Preset base stacks. They differ in how temporal reduction happens
#: (strided convolution vs max-pooling), depth, and kernel size. "B" is
#: the default and the strongest performer of the five.
BASE_ARCHITECTURES = {
    "A": _stages([LayerSpec("conv", 9, 2)], pool=False),
    "B": _stages([LayerSpec("conv", 9, 1)]),
    "C": _stages([LayerSpec("conv", 9, 1), LayerSpec("conv", 9, 1)]),
    "D": _stages([LayerSpec("conv", 5, 1)]),
    "E": _stages([LayerSpec("conv", 3, 1)]),
}

DEFAULT_RATIOS = ((1.0, 1.5, 2.0), (0.5, 0.75, 1.0, 1.5, 2.0), (0.5, 0.75, 1.0, 1.5, 2.0))


@dataclass
class NetworkConfig:
    feature_dim: int
    num_classes: int
    window_length: int = 512
    base_arch: object = "B"  # preset name or explicit tuple of LayerSpec
    base_filters: int = 256
    anchor_filters: int = 512
    anchor_kernel: int = 9
    pred_kernel: int = 3
    ratios: tuple = DEFAULT_RATIOS
    center_scale: float = 0.1   # scales the center offset
    width_scale: float = 0.1    # scales the width offset inside exp()
    delta_clamp: float = 50.0   # raw width offsets are clamped to +-this

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be positive, got {self.feature_dim}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be positive, got {self.num_classes}")
        if self.window_length < 1 or self.window_length % MAP_STRIDES[-1] != 0:
            raise ConfigError(
                f"window_length must be a positive multiple of {MAP_STRIDES[-1]}, "
                f"got {self.window_length}"
            )
        if min(self.base_filters, self.anchor_filters) < 1:
            raise ConfigError("filter counts must be positive")
        if self.anchor_kernel < 1 or self.pred_kernel < 1:
            raise ConfigError("kernel sizes must be positive")
        if len(self.ratios) != len(MAP_STRIDES):
            raise ConfigError(f"need one ratio set per anchor map ({len(MAP_STRIDES)})")
        for rset in self.ratios:
            if not rset or any(r <= 0 for r in rset):
                raise ConfigError(f"ratios must be positive, got {rset}")
        if self.delta_clamp <= 0:
            raise ConfigError("delta_clamp must be positive")
        self.ratios = tuple(tuple(float(r) for r in rset) for rset in self.ratios)
        self._check_base()

    def base_layers(self):
        if isinstance(self.base_arch, str):
            try:
                return BASE_ARCHITECTURES[self.base_arch]
            except KeyError:
                raise ConfigError(
                    f"unknown base architecture {self.base_arch!r}; "
                    f"presets are {sorted(BASE_ARCHITECTURES)}"
                ) from None
        layers = tuple(self.base_arch)
        if not layers or not all(isinstance(l, LayerSpec) for l in layers):
            raise ConfigError("base_arch must be a preset name or a sequence of LayerSpec")
        return layers

    def _check_base(self):
        """The base stack must reduce by exactly BASE_STRIDE so the anchor
        maps come out at the documented lengths."""
        length = self.window_length
        for layer in self.base_layers():
            length = -(-length // layer.stride)
        achieved = [-(-length // 2 ** (i + 1)) for i in range(len(MAP_STRIDES))]
        wanted = [self.window_length // s for s in MAP_STRIDES]
        if achieved != wanted:
            raise ConfigError(
                f"base stack reduces {self.window_length} to {length} "
                f"(anchor maps {achieved}), expected maps {wanted}; "
                f"the composed base stride must be {BASE_STRIDE}"
            )

    @property
    def head_width(self) -> int:
        """Class columns per anchor: K action categories plus background."""
        return self.num_classes + 1

    @property
    def map_lengths(self):
        return tuple(self.window_length // s for s in MAP_STRIDES)

    def to_dict(self):
        arch = self.base_arch
        if not isinstance(arch, str):
            arch = [
                {"kind": l.kind, "kernel": l.kernel, "stride": l.stride, "filters": l.filters}
                for l in self.base_layers()
            ]
        return {
            "feature_dim": self.feature_dim,
            "num_classes": self.num_classes,
            "window_length": self.window_length,
            "base_arch": arch,
            "base_filters": self.base_filters,
            "anchor_filters": self.anchor_filters,
            "anchor_kernel": self.anchor_kernel,
            "pred_kernel": self.pred_kernel,
            "ratios": [list(r) for r in self.ratios],
            "center_scale": self.center_scale,
            "width_scale": self.width_scale,
            "delta_clamp": self.delta_clamp,
        }

    @classmethod
    def from_dict(cls, doc):
        doc = _json_fields(cls, doc, "network config")
        arch = doc.get("base_arch", "B")
        if not isinstance(arch, str):
            if not isinstance(arch, list):
                raise DataError("network config base_arch must be a preset name or a list")
            doc["base_arch"] = tuple(LayerSpec(**_json_fields(LayerSpec, l, f"base_arch[{i}]"))
                                     for i, l in enumerate(arch))
        if "ratios" in doc:
            if not isinstance(doc["ratios"], list) or not all(
                    isinstance(r, list) for r in doc["ratios"]):
                raise DataError("network config ratios must be a list of lists")
            doc["ratios"] = tuple(tuple(_number(x, "network config ratio", False) for x in r)
                                  for r in doc["ratios"])
        return cls(**doc)


def _json_fields(cls, doc, what):
    """A copy of the JSON object ``doc`` once its keys are fields of the
    dataclass ``cls``, every field without a default is present, and every
    int/float field holds a number of that kind; DataError otherwise."""
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be an object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise DataError(f"{what} has unknown keys {sorted(unknown)}")
    for f in fields(cls):  # f.type is the annotation's text (postponed annotations)
        if f.name not in doc and f.default is MISSING:
            raise DataError(f"{what} is missing {f.name!r}")
        if f.name in doc and f.type in ("int", "float") and not (doc[f.name] is f.default is None):
            _number(doc[f.name], f"{what} {f.name!r}", f.type == "int")
    return dict(doc)


def _number(value, what, integer):
    """``value`` if it is a finite JSON number, and an integer when
    ``integer``; DataError otherwise (booleans are not numbers)."""
    if _finite(value) is None or (integer and not isinstance(value, int)):
        raise DataError(f"{what} must be {'an integer' if integer else 'a finite number'}, "
                        f"got {value!r}")
    return value


@dataclass(frozen=True)
class Anchor:
    """A default segment: center/width normalized to the window."""

    layer: int
    cell: int
    ratio: float
    center: float
    width: float

    @property
    def start(self) -> float:
        return self.center - self.width / 2

    @property
    def end(self) -> float:
        return self.center + self.width / 2


def anchor_grid(map_length, ratios, layer=0):
    """Anchors for one map, cell-major then ratio: cell m gets center
    (m + 0.5) / M and one anchor of width r / M per ratio r."""
    if map_length < 1:
        raise ConfigError(f"map_length must be positive, got {map_length}")
    out = []
    for m in range(map_length):
        for r in ratios:
            out.append(Anchor(layer, m, float(r), (m + 0.5) / map_length, float(r) / map_length))
    return out


@dataclass
class DecodedAnchors:
    """Batch decode of every anchor in a window, as graph tensors. Decoding
    a (B, T_w, D) stack adds a leading window axis to every field."""

    class_logits: Tensor  # (N, K+1)
    overlap: Tensor       # (N,) sigmoid-normalized
    centers: Tensor       # (N,) window-normalized
    widths: Tensor        # (N,)

    def __len__(self):
        return self.overlap.data.shape[-1]

    def window(self, b) -> "DecodedAnchors":
        """Window ``b`` of a stacked decode, as differentiable views."""
        return DecodedAnchors(
            take(self.class_logits, b), take(self.overlap, b),
            take(self.centers, b), take(self.widths, b),
        )


class Network:
    """Builds parameters from a seed and runs the forward/decode pass."""

    def __init__(self, config: NetworkConfig, seed=0):
        rng = np.random.default_rng(seed)
        self._build(config, lambda name, shape: xavier_init(shape, rng))

    def _build(self, config, init):
        """Lay out the network; ``init(name, shape)`` supplies each
        parameter's values, in declaration order."""
        self.config = config
        self._params = []

        def param(name, shape):
            p = Parameter(init(name, shape), name=name)
            self._params.append(p)
            return p

        self.base_ops = []  # ("conv", kernel_p, bias_p, stride) | ("pool", size, stride)
        channels = config.feature_dim
        conv_idx = 0
        for layer in config.base_layers():
            if layer.kind == "conv":
                filters = layer.filters or config.base_filters
                k = param(f"base.{conv_idx}.kernel", (layer.kernel, channels, filters))
                b = param(f"base.{conv_idx}.bias", (filters,))
                self.base_ops.append(("conv", k, b, layer.stride))
                channels = filters
                conv_idx += 1
            else:
                self.base_ops.append(("pool", layer.kernel, layer.stride))

        self.heads = []
        for f, ratios in enumerate(config.ratios):
            ak = param(f"anchor.{f}.kernel", (config.anchor_kernel, channels, config.anchor_filters))
            ab = param(f"anchor.{f}.bias", (config.anchor_filters,))
            out_width = len(ratios) * (config.head_width + 3)
            pk = param(f"pred.{f}.kernel", (config.pred_kernel, config.anchor_filters, out_width))
            pb = param(f"pred.{f}.bias", (out_width,))
            self.heads.append((ak, ab, pk, pb))
            channels = config.anchor_filters

        self.anchors = []
        for f, (m, ratios) in enumerate(zip(config.map_lengths, config.ratios)):
            self.anchors.extend(anchor_grid(m, ratios, layer=f))
        self._anchor_centers = np.array([a.center for a in self.anchors], dtype=DTYPE)
        self._anchor_widths = np.array([a.width for a in self.anchors], dtype=DTYPE)

    @property
    def parameters(self):
        return list(self._params)

    @property
    def num_parameters(self) -> int:
        return sum(p.data.size for p in self._params)

    @property
    def num_anchors(self) -> int:
        return len(self.anchors)

    @property
    def anchor_centers(self):
        return self._anchor_centers

    @property
    def anchor_widths(self):
        return self._anchor_widths

    def forward(self, features):
        """Run one (T_w, D) window, or a (B, T_w, D) stack of windows,
        through the network.

        Returns one tensor per anchor map, reshaped to (cells * ratios,
        head_width + 3) with rows in anchor order, behind the stack's
        leading window axis when there is one.
        """
        x = as_tensor(features)
        want = (self.config.window_length, self.config.feature_dim)
        if x.data.shape[-2:] != want or x.data.ndim not in (2, 3):
            raise UsageError(f"expected features of shape {want}, got {x.data.shape}")
        for op in self.base_ops:
            if op[0] == "conv":
                _, k, b, stride = op
                x = relu(conv1d(x, k, b, stride=stride, padding="same"))
            else:
                _, size, stride = op
                x = maxpool1d(x, size, stride)
        cols = self.config.head_width + 3
        outputs = []
        for f, (ak, ab, pk, pb) in enumerate(self.heads):
            x = relu(conv1d(x, ak, ab, stride=2, padding="same"))
            raw = conv1d(x, pk, pb, stride=1, padding="same")
            *lead, m, width = raw.data.shape
            outputs.append(reshape(raw, (*lead, m * (width // cols), cols)))
        return outputs

    def decode(self, features) -> DecodedAnchors:
        """Forward plus anchor decoding, all differentiable.

        Takes one (T_w, D) window or a (B, T_w, D) stack; a stack decodes
        as one graph whose fields have a leading window axis (see
        ``DecodedAnchors.window``). Centers/widths stay in window-normalized
        coordinates and are not clipped here; clipping happens only on
        final video-level output.
        """
        cfg = self.config
        outputs = self.forward(features)
        raw = concat(outputs, axis=outputs[0].data.ndim - 2)
        kp = cfg.head_width
        logits = raw[..., :kp]
        overlap = sigmoid(raw[..., kp])
        d_center = raw[..., kp + 1]
        d_width = clip(raw[..., kp + 2], -cfg.delta_clamp, cfg.delta_clamp)
        anchor_widths = np.broadcast_to(self._anchor_widths, d_center.shape)
        anchor_centers = np.broadcast_to(self._anchor_centers, d_center.shape)
        centers = mul(d_center, cfg.center_scale * anchor_widths) + anchor_centers
        widths = mul(exp(mul(d_width, cfg.width_scale)), anchor_widths)
        return DecodedAnchors(logits, overlap, centers, widths)


def save_checkpoint(network: Network, path):
    """Binary checkpoint: magic, version, config JSON, then every parameter
    in declaration order as (name, count, float64 values)."""
    config_json = json.dumps(network.config.to_dict(), sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(config_json)), config_json]
    for p in network.parameters:
        name = p.name.encode("utf-8")
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        values = np.ascontiguousarray(p.data, dtype="<f8")
        parts.append(struct.pack("<I", values.size))
        parts.append(values.tobytes(order="C"))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> Network:
    r = _Reader(path)
    if r.take(8, "magic") != CHECKPOINT_MAGIC:
        r.fail(f"bad magic, expected {CHECKPOINT_MAGIC!r}", offset=0)
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        r.fail(f"unsupported checkpoint version {version}", offset=8)
    config_offset = r.pos + 4
    config_text = r.text(r.u32("config length"), "config")
    try:
        config = NetworkConfig.from_dict(json.loads(config_text))
    except (json.JSONDecodeError, ConfigError, DataError) as exc:
        r.fail(f"invalid network config ({exc})", offset=config_offset)

    def read_parameter(expected, shape):
        offset = r.pos
        name = r.text(r.u16("parameter name length"), "parameter name")
        if name != expected:
            r.fail(f"expected parameter {expected!r}, found {name!r}", offset=offset)
        count = r.u32("parameter count")
        size = math.prod(shape)
        if count != size:
            r.fail(f"parameter {name!r} has {count} values, expected {size}")
        raw = r.take(count * 8, f"values of {name!r}")
        return np.frombuffer(raw, dtype="<f8").astype(DTYPE).reshape(shape)

    # the parameters come straight from the file, with no initialisation
    network = Network.__new__(Network)
    network._build(config, read_parameter)
    r.finish()
    return network
