"""Data model for videos, annotations and snippet score sequences.

Times are measured in snippets (one feature row per snippet). Category 0
is reserved for background; annotated instances use categories 1..K.
Includes the sliding-window construction used for training/prediction and
a synthetic dataset generator that doubles as a desk-scale oracle: the
generator plants instances with known boundaries, so every downstream
stage can be checked against exact ground truth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .tensor import DTYPE

RETENTION = 0.75  # share of an instance's span a window must hold to keep it


@dataclass(frozen=True)
class ActionInstance:
    """One annotated action: [start, end) in snippet units, category in 1..K."""

    start: float
    end: float
    category: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"instance requires 0 <= start < end, got [{self.start}, {self.end})")
        if self.category < 1:
            raise DataError(f"instance category must be >= 1, got {self.category}")

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass
class VideoAnnotation:
    video_id: str
    num_snippets: int
    fps: float = 25.0
    instances: list = field(default_factory=list)

    def __post_init__(self):
        if self.num_snippets < 1:
            raise DataError(f"video {self.video_id!r}: num_snippets must be positive")
        if self.fps <= 0:
            raise DataError(f"video {self.video_id!r}: fps must be positive")
        for i, inst in enumerate(self.instances):
            if inst.end > self.num_snippets:
                raise DataError(
                    f"video {self.video_id!r} instance {i}: end {inst.end} exceeds "
                    f"{self.num_snippets} snippets"
                )


@dataclass(frozen=True)
class ScoreBlock:
    """One upstream classifier's slice of the score matrix: ``width``
    columns, background first, then the detection categories in order."""

    name: str
    width: int


@dataclass
class ScoreSequence:
    """Per-snippet class scores: a (T, D) matrix split into named blocks."""

    video_id: str
    matrix: np.ndarray
    blocks: list

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=DTYPE)
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise DataError(f"video {self.video_id!r}: score matrix must be (T >= 1, D)")
        if not np.isfinite(self.matrix).all():
            raise DataError(f"video {self.video_id!r}: score matrix contains non-finite values")
        if sum(b.width for b in self.blocks) != self.matrix.shape[1]:
            raise DataError(
                f"video {self.video_id!r}: block widths sum to "
                f"{sum(b.width for b in self.blocks)}, matrix has {self.matrix.shape[1]} columns"
            )

    @property
    def num_snippets(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class Window:
    """A fixed-length slice of a score sequence with window-normalized targets."""

    video_id: str
    start: int
    end: int
    features: np.ndarray
    targets: list  # ActionInstance with start/end normalized to [0, 1]

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Detection:
    """A final detection in video coordinates (snippet units)."""

    video_id: str
    start: float
    end: float
    category: int
    confidence: float


def rank_order(confidence, starts):
    """Indices that visit detections by descending confidence, then earlier
    start, then input order (the sort is stable)."""
    return np.lexsort((np.asarray(starts, dtype=float), -np.asarray(confidence, dtype=float)))


@dataclass
class AnnotationSet:
    """All annotations for a split plus the shared category name list."""

    videos: list
    categories: list

    @property
    def num_classes(self) -> int:
        return len(self.categories)

    def by_id(self):
        return {v.video_id: v for v in self.videos}


def retained_targets(instances, window_start, window_end):
    """Instances with at least RETENTION of their span inside the window,
    clipped to it and normalized to [0, 1]."""
    length = window_end - window_start
    kept = []
    for inst in instances:
        overlap = min(inst.end, window_end) - max(inst.start, window_start)
        if overlap >= RETENTION * inst.length and overlap > 0:
            s = (max(inst.start, window_start) - window_start) / length
            e = (min(inst.end, window_end) - window_start) / length
            kept.append(ActionInstance(s, e, inst.category))
    return kept


def slide_windows(
    seq: ScoreSequence,
    instances=None,
    window_length: int = 512,
    overlap_fraction: float = 0.75,
    keep_empty: bool = False,
):
    """Cut a score sequence into fixed-length windows.

    Windows start at multiples of the stride while they fit; if the stride
    does not tile the video exactly, one extra window flush with the video
    end is appended. Videos shorter than the window are right-padded by
    repeating the last feature row. With ``keep_empty=False`` windows whose
    retained ground truth is empty are dropped.
    """
    if window_length <= 0:
        raise ConfigError(f"window_length must be positive, got {window_length}")
    stride = round(window_length * (1.0 - overlap_fraction))
    if stride < 1:
        raise ConfigError(
            f"overlap {overlap_fraction} leaves no stride for window length {window_length}"
        )
    instances = list(instances) if instances else []
    t_v = seq.num_snippets

    if t_v < window_length:
        pad = np.repeat(seq.matrix[-1:], window_length - t_v, axis=0)
        features = np.concatenate([seq.matrix, pad], axis=0)
        starts = [0]
        windows = [
            Window(seq.video_id, 0, window_length, features,
                   retained_targets(instances, 0, window_length))
        ]
    else:
        starts = list(range(0, t_v - window_length + 1, stride))
        if (t_v - window_length) % stride != 0:
            starts.append(t_v - window_length)
        windows = [
            Window(seq.video_id, s, s + window_length,
                   seq.matrix[s:s + window_length],
                   retained_targets(instances, s, s + window_length))
            for s in starts
        ]
    if not keep_empty:
        windows = [w for w in windows if w.targets]
    return windows


def shuffle_training_set(windows, seed):
    """Seed-reproducible permutation of the window list."""
    if not windows:
        raise UsageError("shuffle_training_set requires a nonempty list")
    rng = np.random.default_rng(seed)
    return [windows[i] for i in rng.permutation(len(windows))]


@dataclass
class SynthConfig:
    """Frozen defaults for the synthetic dataset used by tests and demos."""

    num_videos: int = 50
    num_classes: int = 3
    block_names: tuple = ("rgb", "flow", "vol")
    min_video_length: int = 450
    max_video_length: int = 900
    min_instances: int = 1
    max_instances: int = 3
    min_instance_length: int = 40
    max_instance_length: int = 140
    noise_sigma: float = 0.1
    score_level: float = 0.8
    video_id_prefix: str = "video"
    fps: float = 25.0

    def __post_init__(self):
        if self.num_videos < 0:
            raise ConfigError("num_videos must be >= 0")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if not (0 < self.min_video_length <= self.max_video_length):
            raise ConfigError("invalid video length range")
        if not (1 <= self.min_instances <= self.max_instances):
            raise ConfigError("invalid instance count range")
        if not (1 <= self.min_instance_length <= self.max_instance_length):
            raise ConfigError("invalid instance length range")
        if not (0 <= self.noise_sigma):
            raise ConfigError("noise_sigma must be >= 0")
        if self.min_instances * self.min_instance_length > self.max_video_length:
            raise DataError(
                "impossible placement: minimum instances cannot fit the longest video"
            )

    @property
    def category_names(self):
        return [f"action_{k:02d}" for k in range(1, self.num_classes + 1)]

    @property
    def head_width(self) -> int:
        return self.num_classes + 1

    @property
    def feature_dim(self) -> int:
        return len(self.block_names) * self.head_width


def _plant_rows(rows, active_index, score_level, rng):
    """Rows peak at ``active_index``; all other entries share a low floor."""
    n, width = rows.shape
    lo = (1.0 - score_level) / width
    rows[:] = lo
    rows[:, active_index] = rng.uniform(score_level - 0.05, score_level + 0.05, size=n)


def _fit_lengths(t_v, lengths, config: SynthConfig):
    """Make drawn instance lengths that overrun the drawn video fit it,
    without a redraw: the video grows to hold the minimum instance count
    at the minimum length (the config guarantees the longest video can),
    instances that cannot fit at the minimum length are dropped, and the
    rest shrink toward the minimum length in proportion to their excess."""
    shortest = config.min_instance_length
    t_v = max(t_v, config.min_instances * shortest)
    lengths = lengths[:t_v // shortest]
    excess = lengths - shortest
    room = t_v - shortest * len(lengths)
    if excess.sum() > room:
        lengths = shortest + excess * room // excess.sum()
    return t_v, lengths


def synth_generate(config: SynthConfig, seed):
    """Generate score sequences with planted instances and exact annotations.

    Inside a planted instance of category k every block's row peaks at
    column k (near ``score_level``); background rows peak at column 0.
    Gaussian noise is added and rows are clipped to [0, 1]. The same seed
    always produces bit-identical data.
    """
    rng = np.random.default_rng(seed)
    width = config.head_width
    sequences, annotations = [], []
    for v in range(config.num_videos):
        t_v = int(rng.integers(config.min_video_length, config.max_video_length + 1))
        n_inst = int(rng.integers(config.min_instances, config.max_instances + 1))
        lengths = rng.integers(
            config.min_instance_length, config.max_instance_length + 1, size=n_inst
        )
        if lengths.sum() > t_v:
            t_v, lengths = _fit_lengths(t_v, lengths, config)
        n_inst = len(lengths)
        slack = t_v - int(lengths.sum())
        gaps = rng.multinomial(slack, [1.0 / (n_inst + 1)] * (n_inst + 1))
        categories = rng.integers(1, config.num_classes + 1, size=n_inst)

        instances = []
        pos = int(gaps[0])
        for length, cat, gap in zip(lengths, categories, gaps[1:]):
            instances.append(ActionInstance(float(pos), float(pos + length), int(cat)))
            pos += int(length) + int(gap)

        blocks = [ScoreBlock(name, width) for name in config.block_names]
        matrix = np.empty((t_v, config.feature_dim), dtype=DTYPE)
        for b in range(len(config.block_names)):
            cols = slice(b * width, (b + 1) * width)
            _plant_rows(matrix[:, cols], 0, config.score_level, rng)
            for inst in instances:
                rows = matrix[int(inst.start):int(inst.end), cols]
                _plant_rows(rows, inst.category, config.score_level, rng)
        if config.noise_sigma > 0:
            matrix += rng.normal(0.0, config.noise_sigma, size=matrix.shape)
        np.clip(matrix, 0.0, 1.0, out=matrix)

        video_id = f"{config.video_id_prefix}_{v:03d}"
        sequences.append(ScoreSequence(video_id, matrix, blocks))
        annotations.append(VideoAnnotation(video_id, t_v, config.fps, instances))
    if config.num_videos == 0:
        warnings.warn("synth_generate produced an empty dataset (num_videos=0)")
    return sequences, annotations
