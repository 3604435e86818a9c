"""Bit-exact readers and writers for frames, masks, labels, scores, manifests.

Formats (these are the package's wire contracts, see README for byte-level
examples):

* RGB frames:   binary PPM (``P6``), maxval 255.
* Masks/labels: binary PGM (``P5``), maxval 255. Masks must be 0/255 and map
  to 0/1; label files store the label index directly in the byte.
* Score maps:   ``MSF1`` - one ASCII header line
  ``"MSF1 <height> <width> <channels>\\n"`` followed by
  height*width*channels IEEE-754 float32 little-endian values, row-major,
  channel-last.
* Checkpoints:  ``MTM1`` - the same layout (:func:`read_tensor`), header
  ``"MTM1 <classes> <features>\\n"``; see :mod:`motionseg.predictor`.
* Manifests:    JSON, schema documented on :func:`read_manifest`.
* Boxes:        ``boxes.csv``, one row per frame after its header; the
  schema is documented on :func:`read_boxes`.

Writers emit canonical headers so that write(read(f)) is byte-identical to f
for canonical files.
"""

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import (BACKGROUND, BoundingBox, LabelMap, LabelSet, MotionMask,
                   RgbImage, ScoreMap, _frozen)
from .errors import (
    BadDimensions,
    BadMagic,
    EmptyShot,
    LabelOutOfRange,
    NonBinaryMask,
    SchemaError,
    SizeMismatch,
    TruncatedFile,
    UnknownLabel,
)

# ---------------------------------------------------------------------------
# PNM (PPM/PGM) plumbing


def _parse_pnm_header(data: bytes, magic: bytes, path):
    """Parse ``magic w h maxval`` allowing PNM whitespace and # comments.

    Returns (width, height, payload offset).
    """
    if not data.startswith(magic):
        raise BadMagic(f"{path}: expected {magic.decode()} file")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise TruncatedFile(f"{path}: header ends early")
        c = data[pos:pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos:pos + 1].isdigit():
                pos += 1
            try:
                fields.append(int(data[start:pos]))
            except ValueError as e:  # past int()'s digit limit
                raise BadDimensions(f"{path}: header number too long") from e
        else:
            raise BadMagic(f"{path}: unexpected byte {c!r} in header")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise BadDimensions(f"{path}: nonpositive dimensions {width}x{height}")
    if maxval != 255:
        raise BadMagic(f"{path}: only maxval 255 is supported, got {maxval}")
    # exactly one whitespace byte separates header and payload
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise TruncatedFile(f"{path}: missing header/payload separator")
    return width, height, pos + 1


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    data = Path(path).read_bytes()
    width, height, offset = _parse_pnm_header(data, magic, path)
    need = width * height * channels
    payload = data[offset:]
    if len(payload) < need:
        raise TruncatedFile(f"{path}: payload has {len(payload)} of {need} bytes")
    if len(payload) > need:
        raise SizeMismatch(f"{path}: {len(payload) - need} trailing bytes")
    raw = np.frombuffer(payload, dtype=np.uint8, count=need)
    shape = (height, width, channels) if channels > 1 else (height, width)
    return raw.reshape(shape)


def _write_pnm(path, magic: bytes, raw: np.ndarray) -> None:
    height, width = raw.shape[:2]
    header = magic + b"\n%d %d\n255\n" % (width, height)
    Path(path).write_bytes(header + raw.astype(np.uint8).tobytes())


def read_image(path) -> RgbImage:
    """Read a binary PPM (P6, maxval 255) frame."""
    return RgbImage.from_bytes(_read_pnm(path, b"P6", 3))


def write_image(img: RgbImage, path) -> None:
    raw = np.rint(img.pixels * 255.0).astype(np.uint8)
    _write_pnm(path, b"P6", raw)


def read_mask(path) -> MotionMask:
    """Read a binary PGM mask; pixels must be exactly 0 or 255."""
    raw = _read_pnm(path, b"P5", 1)
    bad = (raw != 0) & (raw != 255)
    if bad.any():
        r, c = np.unravel_index(int(np.argmax(bad)), raw.shape)
        raise NonBinaryMask(f"{path}: value {raw[r, c]} at (row={r}, col={c})")
    return MotionMask((raw == 255).astype(np.uint8))


def write_mask(mask: MotionMask, path) -> None:
    _write_pnm(path, b"P5", mask.mask * np.uint8(255))


def read_labels(path, num_labels: int) -> LabelMap:
    """Read a PGM label map; every byte must be < ``num_labels``."""
    raw = _read_pnm(path, b"P5", 1)
    if raw.size and int(raw.max()) >= num_labels:
        r, c = np.unravel_index(int(np.argmax(raw >= num_labels)), raw.shape)
        raise LabelOutOfRange(
            f"{path}: label {raw[r, c]} at (row={r}, col={c}), have {num_labels}")
    return LabelMap(raw.astype(np.int32))


def write_labels(labels: LabelMap, path) -> None:
    if labels.labels.size and int(labels.labels.max()) > 255:
        raise LabelOutOfRange("PGM label maps support at most 256 labels")
    _write_pnm(path, b"P5", labels.labels.astype(np.uint8))


# ---------------------------------------------------------------------------
# Header-line float32 tensors: MSF1 score maps, MTM1 checkpoints

_MSF_MAGIC = b"MSF1"


def read_tensor(path, magic: bytes, ndim: int) -> np.ndarray:
    """Read ``"<magic> <n1> ... <n_ndim>\\n"`` followed by n1*...*n_ndim
    float32 little-endian values, row-major; returns them as float64."""
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise TruncatedFile(f"{path}: no header line")
    fields = data[:newline].split()
    if len(fields) != ndim + 1 or fields[0] != magic:
        raise BadMagic(f"{path}: expected a {magic.decode()} header with "
                       f"{ndim} sizes")
    try:
        shape = tuple(int(x) for x in fields[1:])
    except ValueError as e:
        raise BadMagic(f"{path}: non-integer header field") from e
    if min(shape) < 1:
        raise BadDimensions(f"{path}: bad shape {'x'.join(map(str, shape))}")
    payload = data[newline + 1:]
    need = 4 * math.prod(shape)  # Python ints: huge sizes cannot overflow
    if len(payload) != need:
        raise SizeMismatch(f"{path}: payload has {len(payload)} of {need} bytes")
    with np.errstate(invalid="ignore"):  # a signaling NaN stays a NaN
        return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(float)


def write_tensor(array: np.ndarray, magic: bytes, path) -> None:
    """Write ``array`` in the layout :func:`read_tensor` reads; an empty
    array, which that reader rejects, raises before any byte is written."""
    if array.size == 0:
        raise BadDimensions(
            f"{path}: bad shape {'x'.join(map(str, array.shape))}")
    header = b" ".join([magic, *(b"%d" % n for n in array.shape)]) + b"\n"
    Path(path).write_bytes(header + array.astype("<f4").tobytes())


def read_scores(path) -> ScoreMap:
    """Read an MSF1 score tensor; the float32 payload round-trips bit-exactly."""
    return ScoreMap(_frozen(read_tensor(path, _MSF_MAGIC, 3)))


def write_scores(scores: ScoreMap, path) -> None:
    write_tensor(scores.scores, _MSF_MAGIC, path)


# ---------------------------------------------------------------------------
# Dataset manifest

# The FrameRecord fields that hold manifest-relative file paths.
FRAME_PATH_FIELDS = ("image_path", "motion_mask_path", "score_map_path",
                     "ground_truth_label_path")


@dataclass(frozen=True)
class FrameRecord:
    image_path: str
    motion_mask_path: str
    score_map_path: str | None = None
    ground_truth_label_path: str | None = None
    ground_truth_box: BoundingBox | None = None


@dataclass(frozen=True)
class ShotRecord:
    shot_id: str
    frames: tuple
    kept_range: tuple | None = None       # (start, stop), set by pruning
    sampled_indices: tuple | None = None  # set by frame sampling


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    weak_labels: tuple  # category names, never background
    shots: tuple


@dataclass(frozen=True)
class DatasetManifest:
    videos: tuple
    label_set: LabelSet
    base_dir: Path = field(default_factory=Path)

    def resolve(self, rel) -> Path:
        """Resolve a manifest-relative path against the manifest directory."""
        return self.base_dir / rel

    def shots(self) -> list:
        """Every (video, shot) pair, in manifest order."""
        return [(v, s) for v in self.videos for s in v.shots]

    def weak_indices(self, video) -> tuple:
        """The label indices of a video's weak labels."""
        return tuple(self.label_set.index(n) for n in video.weak_labels)

    def map_shots(self, fn) -> "DatasetManifest":
        """This manifest with each shot ``s`` replaced by ``fn(s)``, in
        order; a shot mapped to None is dropped, and its video kept."""
        return replace(self, videos=tuple(
            replace(v, shots=tuple(s for s in map(fn, v.shots)
                                   if s is not None))
            for v in self.videos))


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
        for v in value)


def _str_list(value) -> bool:
    return all(isinstance(v, str) for v in value)


def _parse_frame(obj, where) -> FrameRecord:
    _require(isinstance(obj, dict), f"{where}: frame must be an object")
    _require("image_path" in obj, f"{where}: missing image_path")
    _require("motion_mask_path" in obj, f"{where}: missing motion_mask_path")
    for key in FRAME_PATH_FIELDS:
        _require(isinstance(obj.get(key, ""), str),
                 f"{where}: {key} must be a string")
    box = obj.get("ground_truth_box")
    if box is not None:
        _require(_int_list(box) and len(box) == 4,
                 f"{where}: ground_truth_box must have 4 integer coordinates")
        try:
            box = BoundingBox(*map(int, box))
        except ValueError as e:
            raise SchemaError(f"{where}: ground_truth_box: {e}") from e
    return FrameRecord(**{k: obj.get(k) for k in FRAME_PATH_FIELDS},
                       ground_truth_box=box)


def parse_manifest(doc: dict, base_dir=".") -> DatasetManifest:
    """Validate a manifest dict; see :func:`read_manifest` for the schema."""
    _require(isinstance(doc, dict), "manifest must be a JSON object")
    _require("videos" in doc and isinstance(doc["videos"], list),
             "manifest needs a 'videos' list")

    weak = []
    videos = []
    video_at = {}  # id -> index of its first video
    for vi, vobj in enumerate(doc["videos"]):
        where = f"videos[{vi}]"
        _require(isinstance(vobj, dict), f"{where}: must be an object")
        _require("video_id" in vobj, f"{where}: missing video_id")
        _require(isinstance(vobj["video_id"], str),
                 f"{where}: video_id must be a string")
        first = video_at.setdefault(vobj["video_id"], vi)
        _require(first == vi, f"{where}: video_id repeats videos[{first}]")
        labels = vobj.get("weak_labels")
        _require(isinstance(labels, list) and _str_list(labels),
                 f"{where}: weak_labels must be a list of strings")
        if not labels:
            raise UnknownLabel(f"{where}: weak_labels must be nonempty")
        _require(len(set(labels)) == len(labels),
                 f"{where}: weak_labels must be unique")
        if BACKGROUND in labels:
            raise UnknownLabel(f"{where}: background cannot be a weak label")
        _require(isinstance(vobj.get("shots"), list), f"{where}: shots must be a list")
        shots = []
        shot_at = {}
        for si, sobj in enumerate(vobj["shots"]):
            swhere = f"{where}.shots[{si}]"
            _require(isinstance(sobj, dict), f"{swhere}: must be an object")
            _require("shot_id" in sobj, f"{swhere}: missing shot_id")
            _require(isinstance(sobj["shot_id"], str),
                     f"{swhere}: shot_id must be a string")
            first = shot_at.setdefault(sobj["shot_id"], si)
            _require(first == si,
                     f"{swhere}: shot_id repeats {where}.shots[{first}]")
            frames = sobj.get("frames")
            _require(isinstance(frames, list), f"{swhere}: frames must be a list")
            if not frames:
                raise EmptyShot(f"{swhere}: shot has no frames")
            kept = sobj.get("kept_range")
            if kept is not None:
                _require(_int_list(kept) and len(kept) == 2
                         and 0 <= kept[0] < kept[1] <= len(frames),
                         f"{swhere}: bad kept_range")
                kept = (int(kept[0]), int(kept[1]))
            sampled = sobj.get("sampled_indices")
            if sampled is not None:
                _require(_int_list(sampled),
                         f"{swhere}: sampled_indices must be a list of ints")
                sampled = tuple(int(i) for i in sampled)
                lo, hi = kept or (0, len(frames))
                _require(all(lo <= i < hi for i in sampled),
                         f"{swhere}: sampled index outside [{lo}, {hi})")
                _require(all(a < b for a, b in zip(sampled, sampled[1:])),
                         f"{swhere}: sampled_indices must be strictly increasing")
            shots.append(ShotRecord(
                shot_id=sobj["shot_id"],
                frames=tuple(_parse_frame(f, f"{swhere}.frames[{fi}]")
                             for fi, f in enumerate(frames)),
                kept_range=kept,
                sampled_indices=sampled,
            ))
        weak.extend(labels)
        videos.append(VideoRecord(
            video_id=vobj["video_id"],
            weak_labels=tuple(labels),
            shots=tuple(shots),
        ))

    categories = doc.get("categories")
    if categories is None:
        categories = sorted(set(weak))
    else:
        _require(isinstance(categories, list) and _str_list(categories),
                 "categories must be a list of strings")
        _require(len(set(categories)) == len(categories),
                 "categories must be unique")
        unknown = set(weak) - set(categories)
        if unknown:
            raise UnknownLabel(f"weak labels not in categories: {sorted(unknown)}")
        if BACKGROUND in categories:
            raise UnknownLabel("categories must not list the background class")
    return DatasetManifest(
        videos=tuple(videos),
        label_set=LabelSet.from_objects(categories),
        base_dir=Path(base_dir),
    )


def read_manifest(path) -> DatasetManifest:
    """Read and validate a dataset manifest.

    Schema::

        {
          "categories": ["car", ...],            # optional, fixes label order
          "videos": [
            {"video_id": str,                    # unique
             "weak_labels": [category, ...],     # nonempty, unique, no background
             "shots": [
               {"shot_id": str,                  # unique within its video
                "frames": [
                  {"image_path": str,
                   "motion_mask_path": str,
                   "score_map_path": str?,
                   "ground_truth_label_path": str?,
                   "ground_truth_box": [x_min, y_min, x_max, y_max]?},
                  ...],                          # nonempty, ordered by time
                "kept_range": [start, stop]?,    # written by `prune`
                "sampled_indices": [int, ...]?   # written by `sample`;
                                                 # increasing, in kept_range
               }, ...]}, ...]
        }

    Relative frame paths resolve against the manifest's directory.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as e:  # bad JSON or bad UTF-8
        raise SchemaError(f"{path}: invalid JSON: {e}") from e
    return parse_manifest(doc, base_dir=path.parent)


def _present_fields(items) -> dict:
    """``asdict`` factory: unset optional fields dropped, tuples and boxes
    (made dicts by ``asdict``) as lists."""
    return {k: list(v.values()) if isinstance(v, dict)
            else list(v) if isinstance(v, tuple) else v
            for k, v in items if v is not None}


def manifest_to_dict(m: DatasetManifest) -> dict:
    """Inverse of :func:`parse_manifest`, dropping unset optional fields."""
    return {"categories": list(m.label_set.categories[1:]),
            "videos": [asdict(v, dict_factory=_present_fields)
                       for v in m.videos]}


def write_manifest(m: DatasetManifest, path) -> None:
    Path(path).write_text(json.dumps(manifest_to_dict(m), indent=2) + "\n")


def rebase(m: DatasetManifest, base_dir) -> DatasetManifest:
    """``m`` with frame paths relative to ``base_dir``, naming the same files."""
    def frame(f):
        return replace(f, **{k: os.path.relpath(m.resolve(p), base_dir)
                             for k in FRAME_PATH_FIELDS
                             if (p := getattr(f, k)) is not None})
    rebased = m.map_shots(
        lambda s: replace(s, frames=tuple(map(frame, s.frames))))
    return replace(rebased, base_dir=Path(base_dir))


# ---------------------------------------------------------------------------
# boxes.csv, whose header is the frame path, then BoundingBox's fields

_BOX_COLUMNS = ["frame_path", "x_min", "y_min", "x_max", "y_max"]


def write_boxes(rows, path) -> None:
    """Write ``(frame path, BoundingBox or None)`` pairs as ``boxes.csv``;
    a None box leaves its four coordinates empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_BOX_COLUMNS)
        writer.writerows((frame, *(astuple(box) if box else ("",) * 4))
                         for frame, box in rows)


def read_boxes(path) -> dict:
    """``boxes.csv`` as frame path -> box, or None for a row whose four
    coordinates are all empty. The header must be exactly the five column
    names, every row must have five fields, coordinates are ASCII digits
    and no frame path repeats; anything else is a SchemaError naming the
    file and line."""
    boxes, lines = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != _BOX_COLUMNS:
                raise SchemaError(f"{path}: boxes CSV needs the header "
                                  f"{','.join(_BOX_COLUMNS)}")
            for row in filter(None, reader):  # blank lines are no rows
                if len(row) != len(_BOX_COLUMNS):
                    raise ValueError(f"boxes CSV rows need 5 fields, got "
                                     f"{len(row)}")
                frame, *box = row
                if frame in lines:
                    raise ValueError(f"frame_path {frame!r} repeats line "
                                     f"{lines[frame]}")
                lines[frame] = reader.line_num
                if box == [""] * 4:
                    boxes[frame] = None
                elif all(c.isascii() and c.isdigit() for c in box):
                    boxes[frame] = BoundingBox(*map(int, box))
                else:
                    raise ValueError(f"coordinates {box} must be ASCII "
                                     "digits, or all four empty")
        except (csv.Error, ValueError) as e:
            # a field over csv's size limit, bad UTF-8, a bad row or box
            raise SchemaError(f"{path}, line {reader.line_num}: {e}") from e
    return boxes
