"""Anchor-based 1D detection network over snippet score sequences.

A stack of base layers, one of the ``BASE_ARCHITECTURES`` presets, reduces
a (T_w, D) window (or a (B, T_w, D) stack of windows, run as one graph) by
a factor of 16, then three stride-2 anchor convolutions produce feature
maps of length T_w/32, T_w/64 and T_w/128. Each map cell carries a set of
anchor segments of fixed aspect ratios (``RATIOS``); a linear prediction
convolution emits, per anchor, K+1 class scores, an overlap logit, and
center/width offsets. Kernel sizes, ratios and the offset decoding are the
paper's fixed values, module constants that no config sets; a checkpoint
records them and loads only at those values.

``Network.anchors`` is one record array of default segments (center,
width, layer, cell, ratio, start, end), ordered map by map, cell-major then
ratio, which is exactly the row-major reshape of the prediction maps —
downstream code relies on that alignment.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .io import _Reader, atomic_write
from .optim import xavier_init
from .tensor import (
    Parameter,
    Tensor,
    _require_finite,
    as_tensor,
    cast,
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

#: The paper's fixed design values: kernel sizes of the anchor and
#: prediction convolutions, one ratio set per anchor map, and the decoding
#: of the center and width offsets.
ANCHOR_KERNEL = 9
PRED_KERNEL = 3
RATIOS = ((1.0, 1.5, 2.0), (0.5, 0.75, 1.0, 1.5, 2.0), (0.5, 0.75, 1.0, 1.5, 2.0))
CENTER_SCALE = 0.1   # scales the center offset
WIDTH_SCALE = 0.1    # scales the width offset inside exp()
DELTA_CLAMP = 50.0   # raw width offsets are clamped to +-this

#: the fixed values under the keys a checkpoint's config records them by
_FIXED = {"anchor_kernel": ANCHOR_KERNEL, "pred_kernel": PRED_KERNEL, "ratios": RATIOS,
          "center_scale": CENTER_SCALE, "width_scale": WIDTH_SCALE, "delta_clamp": DELTA_CLAMP}


@dataclass(frozen=True)
class LayerSpec:
    """One base layer: a ReLU convolution of ``base_filters`` or a max-pool."""

    kind: str  # "conv" | "pool"
    kernel: int
    stride: int


def _stages(conv_layers, pool=True):
    out = []
    for _ in range(4):
        out.extend(conv_layers)
        if pool:
            out.append(LayerSpec("pool", 2, 2))
    return tuple(out)


#: Preset base stacks, each reducing the window by 16. They differ in how
#: temporal reduction happens (strided convolution vs max-pooling), depth,
#: and kernel size. "B" is the default and the strongest performer of the five.
BASE_ARCHITECTURES = {
    "A": _stages([LayerSpec("conv", 9, 2)], pool=False),
    "B": _stages([LayerSpec("conv", 9, 1)]),
    "C": _stages([LayerSpec("conv", 9, 1), LayerSpec("conv", 9, 1)]),
    "D": _stages([LayerSpec("conv", 5, 1)]),
    "E": _stages([LayerSpec("conv", 3, 1)]),
}


@dataclass
class NetworkConfig:
    """What varies between networks: the data's shape, the window, the
    base preset and the filter counts. Everything else is a module
    constant (``RATIOS`` and the rest)."""

    feature_dim: int
    num_classes: int
    window_length: int = 512
    base_arch: str = "B"  # a BASE_ARCHITECTURES name
    base_filters: int = 256
    anchor_filters: int = 512

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
        if not isinstance(self.base_arch, str) or self.base_arch not in BASE_ARCHITECTURES:
            raise ConfigError(f"base_arch must be a preset name, one of "
                              f"{sorted(BASE_ARCHITECTURES)}; got {self.base_arch!r}")

    def base_layers(self):
        return BASE_ARCHITECTURES[self.base_arch]

    @property
    def head_width(self) -> int:
        """Class columns per anchor: K action categories plus background."""
        return self.num_classes + 1

    @property
    def map_lengths(self):
        return tuple(self.window_length // s for s in MAP_STRIDES)

    def to_dict(self):
        """The fields, plus the fixed values, which every checkpoint records."""
        return {**asdict(self), **_FIXED}

    @classmethod
    def from_dict(cls, doc):
        """The config of a ``to_dict`` JSON object. A fixed value may be
        absent; if present, its JSON text must be the constant's. Every
        other key must be a field, every field without a default present
        and every integer field an integer. DataError otherwise."""
        if not isinstance(doc, dict):
            raise DataError("network config must be an object")
        names = {f.name for f in fields(cls)}
        unknown = set(doc) - names - set(_FIXED)
        if unknown:
            raise DataError(f"network config has unknown keys {sorted(unknown)}")
        for key, value in _FIXED.items():
            if key in doc and json.dumps(doc[key]) != json.dumps(value):
                raise DataError(f"network config {key!r} must be at its fixed value "
                                f"{json.dumps(value)}, got {doc[key]!r}")
        for f in fields(cls):  # f.type is the annotation's text (postponed annotations)
            if f.name not in doc and f.default is MISSING:
                raise DataError(f"network config is missing {f.name!r}")
            if f.type == "int" and f.name in doc and type(doc[f.name]) is not int:
                raise DataError(f"network config {f.name!r} must be an integer, "
                                f"got {doc[f.name]!r}")
        return cls(**{key: value for key, value in doc.items() if key in names})


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


def _layout(config):
    """``(name, shape)`` of every parameter in declaration order: each base
    convolution's kernel and bias, then per anchor map the kernel and bias
    of its anchor convolution and of its prediction convolution."""
    layout, channels = [], config.feature_dim
    for i, layer in enumerate(l for l in config.base_layers() if l.kind == "conv"):
        layout += [(f"base.{i}.kernel", (layer.kernel, channels, config.base_filters)),
                   (f"base.{i}.bias", (config.base_filters,))]
        channels = config.base_filters
    for f, ratios in enumerate(RATIOS):
        width = len(ratios) * (config.head_width + 3)
        layout += [(f"anchor.{f}.kernel", (ANCHOR_KERNEL, channels, config.anchor_filters)),
                   (f"anchor.{f}.bias", (config.anchor_filters,)),
                   (f"pred.{f}.kernel", (PRED_KERNEL, config.anchor_filters, width)),
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
        left uninitialised (the caller fills every view), and build the anchor grid."""
        self.config = config
        layout = _layout(config)
        _, _, views = flat_views([shape for _, shape in layout])
        self._params = [Parameter(d, name, g) for (name, _), (d, g) in zip(layout, views)]
        self.anchors = np.concatenate([
            anchor_grid(m, ratios, layer=f)
            for f, (m, ratios) in enumerate(zip(config.map_lengths, RATIOS))
        ]).view(np.recarray)

    @property
    def parameters(self):
        return list(self._params)

    @property
    def num_parameters(self) -> int:
        return sum(p.data.size for p in self._params)

    def cast_parameters(self, dtype):
        """Every parameter in declaration order, cast to ``dtype`` ("float32"
        or "float64"): in float32 one ``cast`` each, whose gradient reaches
        the float64 parameter; in float64 the ``Parameter`` objects
        themselves. The network keeps no copy: the parameters change under
        every optimizer step, so a caller casts once per run of unchanged
        parameters (a video in ``predict_video``, a minibatch in ``train``)
        and drops the list after it. A float32 kernel that a tiled conv
        reads also keeps that conv's kernel transform (``tensor._Cast``),
        so a list is transformed once and its transforms go with it."""
        return [cast(p, dtype) for p in self._params]

    def forward(self, features, params=None):
        """Run one (T_w, D) window, or a (B, T_w, D) stack of windows,
        through the network over ``params``, a ``cast_parameters`` list
        (default: the float64 parameters). The network computes in the
        dtype of that list.

        Returns one tensor per anchor map, reshaped to (cells * ratios,
        head_width + 3) with rows in anchor order, behind the stack's
        leading window axis when there is one. The input is cast to the
        parameters' dtype once per call; the parameters are not cast here,
        so in float64 nothing is cast at all.
        """
        params = self._params if params is None else params
        if len(params) != len(self._params):
            raise UsageError(f"expected {len(self._params)} parameters, got {len(params)}")
        x = as_tensor(features)
        want = (self.config.window_length, self.config.feature_dim)
        if x.data.shape[-2:] != want or x.data.ndim not in (2, 3):
            raise UsageError(f"expected features of shape {want}, got {x.data.shape}")
        x = cast(x, params[0].data.dtype)
        weights = iter(params)
        for layer in self.config.base_layers():
            if layer.kind == "conv":
                x = relu(conv1d(x, next(weights), next(weights), stride=layer.stride))
            else:
                x = maxpool1d(x, layer.kernel, layer.stride)
        cols = self.config.head_width + 3
        outputs = []
        for _ in RATIOS:  # one head per anchor map
            ak, ab, pk, pb = islice(weights, 4)
            x = relu(conv1d(x, ak, ab, stride=2))
            raw = conv1d(x, pk, pb, stride=1)
            *lead, m, width = raw.data.shape
            outputs.append(reshape(raw, (*lead, m * (width // cols), cols)))
        return outputs

    def decode(self, features, params=None) -> DecodedAnchors:
        """Forward plus anchor decoding, all differentiable.

        Takes one (T_w, D) window or a (B, T_w, D) stack; a stack decodes
        as one graph whose fields have a leading window axis. The forward
        pass runs over ``params`` as in ``forward``, in their dtype; the
        decoded fields are float64 either way. Centers and widths stay in
        window-normalized coordinates and are not clipped here; clipping
        happens only on final video-level output. A head output that is not
        finite raises NumericError, in any column.
        """
        outputs = self.forward(features, params)
        raw = cast(concat(outputs, axis=outputs[0].data.ndim - 2), np.float64)
        _require_finite("anchor decoding", raw.data)  # every column, offsets too
        kp = self.config.head_width
        logits = raw[..., :kp]
        overlap = sigmoid(raw[..., kp])
        d_center = raw[..., kp + 1]
        d_width = clip(raw[..., kp + 2], -DELTA_CLAMP, DELTA_CLAMP)
        anchor_widths = np.broadcast_to(self.anchors.width, d_center.shape)
        anchor_centers = np.broadcast_to(self.anchors.center, d_center.shape)
        centers = mul(d_center, CENTER_SCALE * anchor_widths) + anchor_centers
        widths = mul(exp(mul(d_width, WIDTH_SCALE)), anchor_widths)
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
