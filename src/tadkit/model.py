"""Anchor-based 1D detection network over snippet score sequences.

A stack of base layers reduces a (T_w, D) window (or a (B, T_w, D) stack
of windows, run as one graph) by a factor of 16, then
three stride-2 anchor convolutions produce feature maps of length T_w/32,
T_w/64 and T_w/128. Each map cell carries a set of anchor segments of
fixed aspect ratios; a linear prediction convolution emits, per anchor,
K+1 class scores, an overlap logit, and center/width offsets.

``Network.anchors`` is one record array of default segments (center,
width, layer, cell, ratio, start, end), ordered map by map, cell-major then
ratio, which is exactly the row-major reshape of the prediction maps —
downstream code relies on that alignment.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, dataclass, fields
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .io import _finite, _Reader, atomic_write
from .optim import xavier_init
from .tensor import (
    Parameter,
    Tensor,
    as_tensor,
    clip,
    concat,
    conv1d,
    exp,
    flat_views,
    maxpool1d,
    mul,
    relu,
    reshape,
    sigmoid,
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


def anchor_grid(map_length, ratios, layer=0):
    """Anchors for one map as a record array with fields center, width,
    layer, cell, ratio, start and end (center ∓ width / 2), cell-major then
    ratio: cell m gets center (m + 0.5) / M and one anchor of width r / M
    per ratio r."""
    if map_length < 1:
        raise ConfigError(f"map_length must be positive, got {map_length}")
    cell = np.repeat(np.arange(map_length), len(ratios))
    ratio = np.tile(np.asarray(ratios, dtype=float), map_length)
    center = (cell + 0.5) / map_length
    width = ratio / map_length
    return np.rec.fromarrays(
        [center, width, np.full(cell.size, layer), cell, ratio, center - width / 2,
         center + width / 2], names="center,width,layer,cell,ratio,start,end")


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


def _layout(config):
    """``(name, shape)`` of every parameter in declaration order: each base
    convolution's kernel and bias, then per anchor map the kernel and bias
    of its anchor convolution and of its prediction convolution."""
    layout, channels = [], config.feature_dim
    for i, layer in enumerate(l for l in config.base_layers() if l.kind == "conv"):
        filters = layer.filters or config.base_filters
        layout += [(f"base.{i}.kernel", (layer.kernel, channels, filters)),
                   (f"base.{i}.bias", (filters,))]
        channels = filters
    for f, ratios in enumerate(config.ratios):
        width = len(ratios) * (config.head_width + 3)
        layout += [(f"anchor.{f}.kernel", (config.anchor_kernel, channels, config.anchor_filters)),
                   (f"anchor.{f}.bias", (config.anchor_filters,)),
                   (f"pred.{f}.kernel", (config.pred_kernel, config.anchor_filters, width)),
                   (f"pred.{f}.bias", (width,))]
        channels = config.anchor_filters
    return layout


class Network:
    """Builds parameters from a seed and runs the forward/decode pass."""

    def __init__(self, config: NetworkConfig, seed=0):
        self._build(config)
        rng = np.random.default_rng(seed)
        for p in self._params:  # Xavier draws in declaration order
            xavier_init(p.data.shape, rng, out=p.data)

    def _build(self, config):
        """Lay the parameters out over one flat vector, allocated once and
        left uninitialised (the caller fills every view), and wire the layers."""
        self.config = config
        layout = _layout(config)
        _, _, views = flat_views([shape for _, shape in layout])
        self._params = [Parameter(d, name, g) for (name, _), (d, g) in zip(layout, views)]
        params = iter(self._params)
        self.base_ops = []  # ("conv", kernel_p, bias_p, stride) | ("pool", size, stride)
        for layer in config.base_layers():
            if layer.kind == "conv":
                self.base_ops.append(("conv", next(params), next(params), layer.stride))
            else:
                self.base_ops.append(("pool", layer.kernel, layer.stride))
        self.heads = [tuple(islice(params, 4)) for _ in config.ratios]  # (ak, ab, pk, pb)
        self.anchors = np.concatenate([
            anchor_grid(m, ratios, layer=f)
            for f, (m, ratios) in enumerate(zip(config.map_lengths, config.ratios))
        ]).view(np.recarray)

    @property
    def parameters(self):
        return list(self._params)

    @property
    def num_parameters(self) -> int:
        return sum(p.data.size for p in self._params)

    @property
    def num_anchors(self) -> int:
        return len(self.anchors)

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
        as one graph whose fields have a leading window axis. Centers and
        widths stay in window-normalized coordinates and are not clipped
        here; clipping happens only on final video-level output.
        """
        cfg = self.config
        outputs = self.forward(features)
        raw = concat(outputs, axis=outputs[0].data.ndim - 2)
        kp = cfg.head_width
        logits = raw[..., :kp]
        overlap = sigmoid(raw[..., kp])
        d_center = raw[..., kp + 1]
        d_width = clip(raw[..., kp + 2], -cfg.delta_clamp, cfg.delta_clamp)
        anchor_widths = np.broadcast_to(self.anchors.width, d_center.shape)
        anchor_centers = np.broadcast_to(self.anchors.center, d_center.shape)
        centers = mul(d_center, cfg.center_scale * anchor_widths) + anchor_centers
        widths = mul(exp(mul(d_width, cfg.width_scale)), anchor_widths)
        return DecodedAnchors(logits, overlap, centers, widths)


def save_checkpoint(network: Network, path):
    """Binary checkpoint: magic, version, config JSON, then every parameter
    in declaration order as (name, count, float64 values), streamed uncopied."""
    config_json = json.dumps(network.config.to_dict(), sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(config_json)), config_json]
    for p in network.parameters:
        name = p.name.encode("utf-8")
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        values = np.ascontiguousarray(p.data, dtype="<f8")
        parts.append(struct.pack("<I", values.size))
        parts.append(memoryview(values))
    atomic_write(path, parts)


def load_checkpoint(path) -> Network:
    """Read a ``save_checkpoint`` file, streamed: first the config and every
    parameter's name and count, each checked against the config and the
    file's size; then the flat vector, allocated once, with each parameter's
    values read in place into its view and checked to be finite. A fault is
    a DataError at its byte offset."""
    with _Reader(path) as r:
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

        offsets = []
        for name, shape in _layout(config):
            offset = r.pos
            found = r.text(r.u16("parameter name length"), "parameter name")
            if found != name:
                r.fail(f"expected parameter {name!r}, found {found!r}", offset=offset)
            count, size = r.u32("parameter count"), math.prod(shape)
            if count != size:
                r.fail(f"parameter {name!r} has {count} values, expected {size}")
            offsets.append(r.pos)
            r.skip(count * 8, f"values of {name!r}")
        r.finish()

        network = Network.__new__(Network)  # no initialisation: the file fills every view
        network._build(config)
        for p, offset in zip(network.parameters, offsets):
            r.pos = offset
            r.into(p.data, f"values of {p.name!r}")
            if not np.little_endian:  # the file is little-endian
                p.data.byteswap(inplace=True)
            finite = np.isfinite(p.data)
            if not finite.all():
                r.fail(f"parameter {p.name!r} has a non-finite value",
                       offset=offset + 8 * int(finite.argmin()))
    return network
