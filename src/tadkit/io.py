"""File formats: SASF binary score sequences, annotation and prediction JSON.

SASF layout (little-endian throughout):
    magic "SASF" | u32 version=1 | u32 T | u32 D | u32 block_count
    per block: u16 name_length | UTF-8 name | u32 width
    T*D float32 values, row-major
Trailing bytes are an error. Readers report the byte offset of whatever
they reject. JSON writers emit sorted keys with a fixed layout so equal
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .data import ActionInstance, AnnotationSet, Detection, ScoreBlock, ScoreSequence, VideoAnnotation
from .errors import DataError

SASF_MAGIC = b"SASF"
SASF_VERSION = 1


def atomic_write(path, chunks):
    """Write bytes-like ``chunks`` in turn via a temporary file + rename (no partial output)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write(path, [text.encode("utf-8")])


class _Reader:
    """Cursor (``pos``) over an open file, checking each read against the
    file's size first and raising DataError at a byte offset. ``into`` reads
    straight into an array's memory. A ``with`` block closes the file."""

    def __init__(self, path):
        self.path, self.pos = path, 0
        self.fh = open(path, "rb")
        self.size = os.fstat(self.fh.fileno()).st_size

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def fail(self, message, offset=None):
        offset = self.pos if offset is None else offset
        raise DataError(f"{self.path}: {message} at byte {offset}")

    def skip(self, count, what):
        """Move the cursor past the next ``count`` bytes, leaving the file at their start."""
        if self.pos + count > self.size:
            self.fail(f"truncated {what} (need {count} bytes)")
        self.fh.seek(self.pos)
        self.pos += count

    def take(self, count, what):
        self.skip(count, what)
        return self.fh.read(count)

    def into(self, array, what):
        """Fill the C-contiguous ``array`` with the next ``array.nbytes`` bytes."""
        self.skip(array.nbytes, what)
        if self.fh.readinto(memoryview(array).cast("B")) != array.nbytes:
            self.fail(f"file shrank while reading {what}", offset=self.pos - array.nbytes)

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, count, what):
        """The next ``count`` bytes decoded as UTF-8."""
        offset = self.pos
        try:
            return str(self.take(count, what), "utf-8")
        except UnicodeDecodeError:
            self.fail(f"{what} is not valid UTF-8", offset=offset)

    def finish(self):
        """Reject any bytes left after the last field."""
        if self.pos != self.size:
            self.fail(f"{self.size - self.pos} trailing bytes")


def save_sas_features(seq: ScoreSequence, path):
    """Serialize a score sequence in SASF form (values stored as float32)."""
    matrix = np.ascontiguousarray(seq.matrix, dtype=np.float32)
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: refusing to write non-finite scores")
    t, d = matrix.shape
    parts = [SASF_MAGIC, struct.pack("<IIII", SASF_VERSION, t, d, len(seq.blocks))]
    for block in seq.blocks:
        name = block.name.encode("utf-8")
        if len(name) > 0xFFFF:
            raise DataError(f"{path}: block name too long ({len(name)} bytes)")
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        parts.append(struct.pack("<I", block.width))
    parts.append(memoryview(matrix))
    atomic_write(path, parts)


def load_sas_features(path, class_names=None) -> ScoreSequence:
    """Parse an SASF file. ``class_names`` optionally maps each block name to
    a column-name tuple (the binary format does not carry column names)."""
    with _Reader(path) as r:
        magic = r.take(4, "magic")
        if magic != SASF_MAGIC:
            r.fail(f"bad magic {magic!r}, expected {SASF_MAGIC!r}", offset=0)
        version = r.u32("version")
        if version != SASF_VERSION:
            r.fail(f"unsupported version {version}", offset=4)
        t = r.u32("snippet count")
        d = r.u32("feature dimension")
        block_count = r.u32("block count")
        if t < 1 or d < 1:
            r.fail(f"empty matrix (T={t}, D={d})", offset=8)
        blocks = []
        for i in range(block_count):
            name_len = r.u16(f"block {i} name length")
            name = r.text(name_len, f"block {i} name")
            width = r.u32(f"block {i} width")
            names = class_names.get(name) if class_names else None
            blocks.append(ScoreBlock(name, width, tuple(names) if names else None))
        widths = sum(b.width for b in blocks)
        if widths != d:
            r.fail(f"block widths sum to {widths}, header says D={d}")
        data_offset = r.pos
        raw = r.take(t * d * 4, "score payload")
        r.finish()
    matrix = np.frombuffer(raw, dtype="<f4").reshape(t, d)
    bad = ~np.isfinite(matrix)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise DataError(
            f"{path}: non-finite score value at byte {data_offset + idx * 4}"
        )
    video_id = os.path.splitext(os.path.basename(path))[0]
    return ScoreSequence(video_id, matrix.astype(np.float64), blocks)


def _require(cond, message):
    if not cond:
        raise DataError(message)


def _finite(value):
    """``value`` as a float if it is a finite JSON number, else None
    (Python's json also parses NaN and Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def save_annotations(annotation_set: AnnotationSet, path):
    doc = {
        "categories": list(annotation_set.categories),
        "videos": [
            {
                "video_id": v.video_id,
                "num_snippets": v.num_snippets,
                "fps": v.fps,
                "instances": [
                    {"start": inst.start, "end": inst.end, "category": inst.category}
                    for inst in v.instances
                ],
            }
            for v in annotation_set.videos
        ],
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def load_annotations(path) -> AnnotationSet:
    doc = _load_json(path)
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    categories = doc.get("categories")
    _require(isinstance(categories, list) and all(isinstance(c, str) for c in categories),
             f"{path}: 'categories' must be a list of strings")
    videos_doc = doc.get("videos")
    _require(isinstance(videos_doc, list), f"{path}: 'videos' must be a list")
    videos = []
    seen = set()
    for rec in videos_doc:
        _require(isinstance(rec, dict), f"{path}: video records must be objects")
        vid = rec.get("video_id")
        _require(isinstance(vid, str) and vid, f"{path}: video record missing 'video_id'")
        _require(vid not in seen, f"{path}: duplicate video_id {vid!r}")
        seen.add(vid)
        instances_doc = rec.get("instances", [])
        _require(isinstance(instances_doc, list),
                 f"{path}: video {vid!r}: 'instances' must be a list")
        num_snippets = _finite(rec.get("num_snippets", 0))
        _require(num_snippets is not None and num_snippets.is_integer(),
                 f"{path}: video {vid!r}: 'num_snippets' must be an integer")
        fps = _finite(rec.get("fps", 25.0))
        _require(fps is not None, f"{path}: video {vid!r}: 'fps' must be a finite number")
        instances = []
        for i, inst in enumerate(instances_doc):
            label = f"{path}: video {vid!r} instance {i}"
            _require(isinstance(inst, dict), f"{label}: must be an object")
            start, end, category = (_finite(inst.get(key)) for key in ("start", "end", "category"))
            _require(None not in (start, end, category) and category.is_integer(),
                     f"{label}: needs numeric start/end and integer category")
            category = int(category)
            _require(1 <= category <= len(categories),
                     f"{label}: category {category} outside 1..{len(categories)}")
            try:
                instances.append(ActionInstance(start, end, category))
            except DataError as exc:
                raise DataError(f"{label}: {exc}") from exc
        try:
            videos.append(
                VideoAnnotation(vid, int(num_snippets), fps, instances)
            )
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    return AnnotationSet(videos, list(categories))


def save_predictions(detections, path):
    doc = {
        "predictions": [
            {
                "video_id": det.video_id,
                "start": det.start,
                "end": det.end,
                "category": det.category,
                "confidence": det.confidence,
            }
            for det in detections
        ]
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_predictions(path):
    doc = _load_json(path)
    _require(isinstance(doc, dict) and isinstance(doc.get("predictions"), list),
             f"{path}: expected an object with a 'predictions' list")
    out = []
    for i, rec in enumerate(doc["predictions"]):
        label = f"{path}: prediction {i}"
        _require(isinstance(rec, dict), f"{label}: must be an object")
        numbers = [_finite(rec.get(key)) for key in ("start", "end", "category", "confidence")]
        _require(isinstance(rec.get("video_id"), str) and None not in numbers
                 and numbers[2].is_integer(),
                 f"{label}: malformed record (needs a string video_id, finite start, end "
                 f"and confidence, and an integer category)")
        start, end, category, confidence = numbers
        _require(start < end, f"{label}: start must precede end")
        out.append(Detection(rec["video_id"], start, end, int(category), confidence))
    return out
