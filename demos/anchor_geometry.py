"""
Anchor geometry and offset decoding
===================================

The detector never proposes segments freely.  A fixed grid of *anchor*
segments is attached to the cells of three progressively coarser feature
maps, and the network only learns small offsets from those defaults.  This
demo builds the default network and inspects the geometry.
"""

import numpy as np

from tadkit import NetworkConfig, Network, anchor_grid
from tadkit.model import MAP_STRIDES, RATIOS, WIDTH_SCALE

config = NetworkConfig(feature_dim=12, num_classes=3)
print("window length:", config.window_length)
print("anchor map lengths:", config.map_lengths)

# Map m has window_length / stride cells; each cell carries one anchor per
# ratio of the map's fixed set, centered on the cell.
total = 0
for layer, (length, ratios) in enumerate(zip(config.map_lengths, RATIOS)):
    print(f"map {layer}: stride {MAP_STRIDES[layer]:3d}, "
          f"{length:2d} cells x {len(ratios)} ratios = {length * len(ratios)} anchors")
    total += length * len(ratios)
print("total anchors per window:", total)

# Anchors are plain geometry, before any learning.  The first few on the
# finest map (all in window-normalized [0, 1] coordinates):
for anchor in anchor_grid(config.map_lengths[0], RATIOS[0])[:4]:
    print(f"  cell {anchor.cell} ratio {anchor.ratio:4.2f} -> "
          f"center {anchor.center:.4f} width {anchor.width:.4f} "
          f"span [{anchor.start:+.4f}, {anchor.end:.4f})")

# A freshly initialized network decodes every anchor close to its default
# geometry: with small random prediction weights the decoded centers and
# widths barely move.
network = Network(config, seed=0)
features = np.random.default_rng(1).uniform(size=(config.window_length, 12))
decoded = network.decode(features)
centers = decoded.centers.data
widths = decoded.widths.data
defaults_c = network.anchors.center   # the anchor grid is one record array
defaults_w = network.anchors.width
print("\nfresh network, max |center - default|:",
      f"{np.abs(centers - defaults_c).max():.4f}")
print("fresh network, max width ratio:      ",
      f"{np.exp(np.abs(np.log(widths / defaults_w))).max():.4f}")

# Offsets move an anchor deliberately: +1 center unit shifts by 10% of the
# anchor width, and width offsets act multiplicatively through exp.  Zero
# prediction kernels make every anchor's raw output equal to the bias, so
# the bias sets the offsets the network decodes.
raw = np.zeros(config.head_width + 3)
raw[-2] = 1.0        # center offset
raw[-1] = np.log(2.0) / WIDTH_SCALE   # width offset chosen to double the width
for p in network.parameters:
    if p.name.startswith("pred."):
        p.data[...] = 0.0 if p.name.endswith(".kernel") else np.tile(raw, p.data.size // raw.size)
moved = network.decode(features)
anchor = network.anchors[0]
print(f"\nanchor   center {anchor.center:.4f} width {anchor.width:.4f}")
print(f"decoded  center {moved.centers.data[0]:.4f} width {moved.widths.data[0]:.4f} "
      f"overlap {moved.overlap.data[0]:.2f}")
