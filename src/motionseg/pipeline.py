"""Dataset preparation: shot pruning, frame sampling, fine-tune selection.

Motion masks are unreliable when almost nothing or almost everything moves,
so shots are reduced to their longest run of frames with a moderate
foreground fraction, then a fixed number of frames is sampled evenly from
that run. After a first training pass, the best-overlapping shot per video
is selected for fine-tuning.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import check_same_shape
from .errors import RangeTooShort
from .io import DatasetManifest, read_mask


@dataclass(frozen=True)
class PruneParams:
    """Thresholds of the shot-pruning and sampling stages."""

    min_frames: int = 20        # shots shorter than this are rejected outright
    min_foreground: float = 0.025
    max_foreground: float = 0.50
    min_run: int = 20           # minimum usable run length
    samples_per_shot: int = 10

    def __post_init__(self):
        if self.min_frames < 1 or self.min_run < 1 or self.samples_per_shot < 1:
            raise ValueError("counts must be >= 1")
        if not 0.0 <= self.min_foreground <= self.max_foreground <= 1.0:
            raise ValueError("need 0 <= min_foreground <= max_foreground <= 1")


def prune_shot(fractions, params: PruneParams = PruneParams()):
    """Longest usable frame run of a shot, or None if the shot is rejected.

    ``fractions`` holds per-frame foreground fractions in shot order. A
    frame is usable when its fraction lies in [min_foreground,
    max_foreground], bounds included. Returns the half-open (start, stop)
    of the longest usable run, the earliest one on ties; None when the
    shot has fewer than ``min_frames`` frames or the run is shorter than
    ``min_run``.
    """
    f = np.asarray(fractions, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("fractions must be a 1-D sequence")
    if len(f) < params.min_frames:
        return None
    valid = (f >= params.min_foreground) & (f <= params.max_foreground)
    if not valid.any():
        return None
    edges = np.flatnonzero(np.diff(np.concatenate(([0], valid.view(np.int8), [0]))))
    starts, stops = edges[::2], edges[1::2]
    best = int(np.argmax(stops - starts))  # argmax takes the earliest maximum
    if stops[best] - starts[best] < params.min_run:
        return None
    return int(starts[best]), int(stops[best])


def sample_frames(length: int, count: int):
    """Evenly spaced frame offsets floor((k+0.5)*length/count), k < count.

    The offsets are the midpoints of ``count`` equal bins over the run, so
    both ends are covered without favoring either. Requires
    ``length >= count >= 1``; the result is strictly increasing.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if length < count:
        raise RangeTooShort(f"cannot sample {count} distinct frames from {length}")
    return tuple(int((2 * k + 1) * length // (2 * count)) for k in range(count))


def prune_manifest(manifest: DatasetManifest,
                   params: PruneParams = PruneParams()) -> DatasetManifest:
    """Annotate every surviving shot with its kept_range.

    Rejected shots are dropped; videos left without any shot are dropped
    with them. Reads each frame's motion mask from disk.
    """
    def prune(s):
        kept = prune_shot([
            read_mask(manifest.resolve(f.motion_mask_path))
            .foreground_fraction() for f in s.frames], params)
        return None if kept is None else replace(s, kept_range=kept)
    pruned = manifest.map_shots(prune)
    return replace(pruned, videos=tuple(v for v in pruned.videos if v.shots))


def sample_manifest(manifest: DatasetManifest,
                    params: PruneParams = PruneParams()) -> DatasetManifest:
    """Annotate every shot with evenly sampled frame indices.

    Requires a pruned manifest; sampled indices are absolute positions in
    the shot's frame list, offset into the kept range.
    """
    def sample(s):
        if s.kept_range is None:
            raise ValueError(
                f"shot {s.shot_id!r} has no kept_range; prune first")
        start, stop = s.kept_range
        offsets = sample_frames(stop - start, params.samples_per_shot)
        return replace(s, sampled_indices=tuple(start + o for o in offsets))
    return manifest.map_shots(sample)


def shot_frames(shot):
    """The frame records selected for a shot, honoring sampling/pruning.

    Falls back to the kept range when no sampling was done, and to all
    frames when the shot was never pruned.
    """
    if shot.sampled_indices is not None:
        return tuple(shot.frames[i] for i in shot.sampled_indices)
    if shot.kept_range is not None:
        start, stop = shot.kept_range
        return tuple(shot.frames[start:stop])
    return tuple(shot.frames)


def overlap_fraction(mask, labeling) -> float:
    """IoU between motion foreground and predicted object pixels.

    Both-empty frames score 0: a mask that found nothing says nothing
    about reliability.
    """
    check_same_shape(mask, labeling)
    m = mask.mask == 1
    p = labeling.labels > 0
    union = int((m | p).sum())
    if union == 0:
        return 0.0
    return int((m & p).sum()) / union


def shot_overlap(masks, labelings) -> float:
    """Mean per-frame mask/labeling overlap of a shot."""
    if len(masks) != len(labelings):
        raise ValueError("need one labeling per mask")
    if not masks:
        raise ValueError("shot_overlap needs at least one frame")
    return float(np.mean([overlap_fraction(m, x)
                          for m, x in zip(masks, labelings)]))


def select_finetune_shots(overlaps, threshold: float = 0.2) -> dict:
    """Pick the best-overlapping shot per video for fine-tuning.

    ``overlaps`` maps video id to a mapping of shot id to mean overlap.
    Returns video id -> shot id, or None for videos whose best shot falls
    below ``threshold`` (a best exactly at the threshold is selected).
    Ties take the first shot in mapping order.
    """
    if not np.isfinite(threshold):
        raise ValueError("overlap_threshold must be finite")
    picks = {}
    for video_id, per_shot in overlaps.items():
        best_shot, best = None, -np.inf
        for shot_id, value in per_shot.items():
            if value > best:
                best_shot, best = shot_id, value
        picks[video_id] = best_shot if best >= threshold else None
    return picks
