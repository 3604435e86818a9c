"""Deterministic synthetic scenes and datasets.

Everything here is seed-driven so tests and demos are reproducible: single
frames with corrupted motion masks (to measure how much the energy
recovers over a hard mask copy), and small on-disk video datasets of
colored blobs for the training loop and the CLI.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BoundingBox, LabelMap, LabelSet, MotionMask, RgbImage, ScoreMap
from .io import (
    DatasetManifest,
    FrameRecord,
    ShotRecord,
    VideoRecord,
    write_image,
    write_labels,
    write_manifest,
    write_mask,
    write_scores,
)

# Corrupted masks are steered into this IoU band against the truth,
# mimicking the quality of real unsupervised motion segments.
MASK_IOU_RANGE = (0.35, 0.65)


@dataclass(frozen=True)
class Scene:
    """One synthetic frame with truth, a corrupted motion mask, and scores."""

    image: RgbImage
    truth: LabelMap
    mask: MotionMask
    scores: ScoreMap
    mask_iou: float  # IoU of the corrupted mask against the truth


def _ellipse(height, width, cy, cx, ry, rx):
    y, x = np.mgrid[:height, :width]
    return ((y - cy) / ry) ** 2 + ((x - cx) / rx) ** 2 <= 1.0


def _mask_iou(a, b) -> float:
    union = (a | b).sum()
    return float((a & b).sum() / union) if union else 0.0


def _shift(mask, dy, dx):
    out = np.zeros_like(mask)
    h, w = mask.shape
    ys = slice(max(0, dy), min(h, h + dy))
    xs = slice(max(0, dx), min(w, w + dx))
    ys_src = slice(max(0, -dy), min(h, h - dy))
    xs_src = slice(max(0, -dx), min(w, w - dx))
    out[ys, xs] = mask[ys_src, xs_src]
    return out


def _erode(mask):
    """One-pixel erosion by the 4-neighbor cross; pixels outside the frame
    count as 0."""
    m = np.pad(mask, 1)
    return (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
            & m[1:-1, :-2] & m[1:-1, 2:])


def _corrupt_mask(truth, rng):
    """Degrade a binary mask into the target IoU band against itself.

    Even draws shift the mask, odd draws erode it first; among the
    candidates inside the band (all of them if none is), the one closest
    to the band's center wins, the first tried on a tie.
    """
    erode_first = bool(rng.integers(2))
    direction = rng.integers(4)
    step = ((-1, 0), (1, 0), (0, -1), (0, 1))[direction]
    candidates = []
    for erode in (erode_first, not erode_first):
        base = truth
        if erode:
            base = _erode(truth)
            if not base.any():
                continue
        for d in range(0, max(truth.shape)):
            cand = _shift(base, step[0] * d, step[1] * d)
            if not cand.any():
                break
            iou = _mask_iou(cand, truth)
            candidates.append((iou, cand))
            if iou < MASK_IOU_RANGE[0]:
                break
    lo, hi = MASK_IOU_RANGE
    inside = [(iou, c) for iou, c in candidates if lo <= iou <= hi]
    pool = inside if inside else candidates
    iou, cand = min(pool, key=lambda t: abs(t[0] - (lo + hi) / 2))
    return cand, iou


def _confident_scores(labels, num_labels, confidence):
    """Scores putting ``confidence`` at each pixel's label of the integer
    map ``labels``; the other labels split the remaining mass evenly, so
    every pixel sums to 1."""
    scores = np.full(labels.shape + (num_labels,),
                     (1.0 - confidence) / (num_labels - 1))
    np.put_along_axis(scores, labels[..., None], confidence, axis=-1)
    return ScoreMap(scores)


def corrupted_mask_scene(seed, height=28, width=36) -> Scene:
    """A two-color frame whose motion mask is deliberately degraded.

    The object is an ellipse of a bright color on a dark background, the
    truth marks it with label 1, the two-label scores agree with the truth
    at 0.9 confidence, and the mask is shifted/eroded into roughly half
    overlap with the truth (see ``MASK_IOU_RANGE``).
    """
    rng = np.random.default_rng(seed)
    bg = rng.uniform(0.05, 0.40, 3)
    fg = rng.uniform(0.60, 0.95, 3)
    cy = rng.uniform(0.38, 0.62) * height
    cx = rng.uniform(0.38, 0.62) * width
    ry = rng.uniform(0.20, 0.30) * height
    rx = rng.uniform(0.20, 0.30) * width
    truth = _ellipse(height, width, cy, cx, ry, rx)

    pixels = np.where(truth[..., None], fg, bg)
    pixels = np.clip(pixels + rng.normal(0.0, 0.02, pixels.shape), 0.0, 1.0)
    mask, iou = _corrupt_mask(truth, rng)
    labels = truth.astype(np.int32)
    return Scene(
        image=RgbImage(pixels),
        truth=LabelMap(labels),
        mask=MotionMask(mask.astype(np.uint8)),
        scores=_confident_scores(labels, 2, 0.9),
        mask_iou=iou,
    )


def two_object_scene(seed, height=24, width=40, confidence=0.8,
                     noise=0.02) -> Scene:
    """A frame with two differently colored objects under labels 1 and 2.

    The motion mask covers both objects (motion cannot tell them apart);
    only the scores can split the foreground, exercising the multi-label
    expansion path.
    """
    rng = np.random.default_rng(seed)
    bg = rng.uniform(0.05, 0.30, 3)
    col1 = np.array([rng.uniform(0.7, 0.95), rng.uniform(0.0, 0.2),
                     rng.uniform(0.0, 0.2)])
    col2 = np.array([rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2),
                     rng.uniform(0.7, 0.95)])
    r = 0.32 * height
    obj1 = _ellipse(height, width, height / 2, width * 0.27, r, r)
    obj2 = _ellipse(height, width, height / 2, width * 0.73, r, r)
    obj2 &= ~obj1
    truth = np.zeros((height, width), dtype=np.int32)
    truth[obj1] = 1
    truth[obj2] = 2

    pixels = np.where(obj1[..., None], col1, bg)
    pixels = np.where(obj2[..., None], col2, pixels)
    pixels = np.clip(pixels + rng.normal(0.0, noise, pixels.shape), 0.0, 1.0)

    return Scene(
        image=RgbImage(pixels),
        truth=LabelMap(truth),
        mask=MotionMask((truth > 0).astype(np.uint8)),
        scores=_confident_scores(truth, 3, confidence),
        mask_iou=1.0,
    )


# ---------------------------------------------------------------------------
# On-disk blob video dataset

BLOB_CATEGORIES = ("red", "blue")

_CATEGORY_RANGES = {
    "red": ((0.72, 0.92), (0.05, 0.22), (0.05, 0.22)),
    "blue": ((0.05, 0.22), (0.05, 0.22), (0.72, 0.92)),
}


def _category_color(name, rng):
    return np.array([rng.uniform(*_CATEGORY_RANGES[name][c]) for c in range(3)])


def blob_video_frames(seed, category, frame_count=26, height=24, width=30):
    """Frames of one blob video: (images, truths, masks) lists.

    A colored disk crosses a static mottled background left to right; the
    first three frames have an empty motion mask (the object has not
    entered yet), which exercises shot pruning. Motion masks on odd frames
    are eroded by one pixel to look imperfect.
    """
    empty_head = 3
    rng = np.random.default_rng(seed)
    bg_base = rng.uniform(0.35, 0.55, 3)
    bg = np.clip(bg_base + rng.normal(0.0, 0.04, (height, width, 3)), 0.0, 1.0)
    color = _category_color(category, rng)
    r = 0.22 * height
    images, truths, masks = [], [], []
    for t in range(frame_count):
        if t < empty_head:
            disk = np.zeros((height, width), dtype=bool)
        else:
            u = (t - empty_head) / max(1, frame_count - empty_head - 1)
            cx = r + u * (width - 1 - 2 * r)
            disk = _ellipse(height, width, height / 2, cx, r, r)
        pixels = np.where(disk[..., None], color, bg)
        pixels = np.clip(pixels + rng.normal(0.0, 0.015, pixels.shape), 0.0, 1.0)
        mask = disk
        if disk.any() and t % 2 == 1:
            eroded = _erode(disk)
            if eroded.any():
                mask = eroded
        images.append(RgbImage(pixels))
        truths.append(disk)
        masks.append(MotionMask(mask.astype(np.uint8)))
    return images, truths, masks


def write_blob_dataset(root, seed=0, videos_per_category=1, frame_count=26,
                       height=24, width=30, with_scores=False) -> Path:
    """Write a small blob-video dataset and its manifest; returns the
    manifest path.

    Each video holds one shot of ``frame_count`` frames with images,
    motion masks, ground-truth label maps, and ground-truth boxes. With
    ``with_scores`` every frame also gets an MSF1 score map agreeing with
    the truth at 0.9 confidence.
    """
    root = Path(root)
    label_index = {name: i + 1 for i, name in enumerate(BLOB_CATEGORIES)}
    videos = []
    vid_seed = seed
    for category in BLOB_CATEGORIES:
        for v in range(videos_per_category):
            vid_seed += 1
            video_id = f"{category}_{v:02d}"
            vdir = root / video_id
            vdir.mkdir(parents=True, exist_ok=True)
            images, truths, masks = blob_video_frames(
                vid_seed, category, frame_count, height, width)
            frames = []
            for t, (img, truth, mask) in enumerate(zip(images, truths, masks)):
                stem = f"frame_{t:03d}"
                write_image(img, vdir / f"{stem}.ppm")
                write_mask(mask, vdir / f"{stem}_mask.pgm")
                label = LabelMap(truth.astype(np.int32) * label_index[category])
                write_labels(label, vdir / f"{stem}_truth.pgm")
                score_path = None
                if with_scores:
                    scores = _confident_scores(
                        label.labels, len(BLOB_CATEGORIES) + 1, 0.9)
                    write_scores(scores, vdir / f"{stem}_scores.msf")
                    score_path = f"{video_id}/{stem}_scores.msf"
                frames.append(FrameRecord(
                    image_path=f"{video_id}/{stem}.ppm",
                    motion_mask_path=f"{video_id}/{stem}_mask.pgm",
                    score_map_path=score_path,
                    ground_truth_label_path=f"{video_id}/{stem}_truth.pgm",
                    ground_truth_box=BoundingBox.around(truth),
                ))
            videos.append(VideoRecord(
                video_id=video_id,
                weak_labels=(category,),
                shots=(ShotRecord(shot_id=f"{video_id}_shot0",
                                  frames=tuple(frames)),),
            ))
    manifest = DatasetManifest(
        videos=tuple(videos),
        label_set=LabelSet.from_objects(BLOB_CATEGORIES),
        base_dir=root,
    )
    path = root / "manifest.json"
    write_manifest(manifest, path)
    return path
