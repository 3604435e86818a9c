"""Segmentation IoU and localization CorLoc scoring.

IoU is accumulated over a dataset per class (intersection and union pixel
tallies), then averaged over classes including background; classes never
seen in prediction or truth are excluded from the mean. CorLoc is the
percentage of frames whose predicted box overlaps the ground-truth box
with IoU strictly above 0.5.
"""

from dataclasses import dataclass

import numpy as np

from .core import LabelMap, check_same_shape
from .errors import DimensionMismatch, EmptyList, LabelOutOfRange, NoClasses

# VOC-style void value conventionally used for ignored truth pixels.
VOID_LABEL = 255


@dataclass
class ConfusionAccumulator:
    """Per-class intersection and union pixel tallies."""

    intersection: np.ndarray  # (C,) int64
    union: np.ndarray         # (C,) int64

    def __post_init__(self):
        self.intersection = np.asarray(self.intersection, dtype=np.int64)
        self.union = np.asarray(self.union, dtype=np.int64)
        if self.intersection.shape != self.union.shape or self.intersection.ndim != 1:
            raise DimensionMismatch("intersection/union must be equal-length 1-D")
        if (self.intersection < 0).any() or (self.intersection > self.union).any():
            raise ValueError("need 0 <= intersection <= union per class")

    @classmethod
    def zeros(cls, num_labels: int) -> "ConfusionAccumulator":
        return cls(np.zeros(num_labels, dtype=np.int64),
                   np.zeros(num_labels, dtype=np.int64))

    @property
    def num_labels(self) -> int:
        return len(self.intersection)

    def iou_by_class(self) -> np.ndarray:
        """Per-class IoU; classes with zero union give nan."""
        with np.errstate(invalid="ignore"):
            return np.where(self.union > 0,
                            self.intersection / np.maximum(self.union, 1),
                            np.nan)


def accumulate_iou(acc: ConfusionAccumulator, predicted: LabelMap,
                   truth: LabelMap, ignore_value=None) -> ConfusionAccumulator:
    """Add one frame's per-class tallies to the accumulator, in place.

    Pixels whose truth equals ``ignore_value`` are skipped entirely; all
    other labels must be below the accumulator's class count.
    """
    check_same_shape(predicted, truth)
    p = predicted.labels.reshape(-1).astype(np.int64)
    t = truth.labels.reshape(-1).astype(np.int64)
    if ignore_value is not None:
        keep = t != ignore_value
        p, t = p[keep], t[keep]
    c = acc.num_labels
    if len(p):
        top = int(max(p.max(), t.max()))
        if top >= c:
            raise LabelOutOfRange(f"label {top} with only {c} classes")
    conf = np.bincount(p * c + t, minlength=c * c).reshape(c, c)
    inter = np.diag(conf)
    acc.intersection += inter
    acc.union += conf.sum(axis=0) + conf.sum(axis=1) - inter
    return acc


def mean_iou(acc: ConfusionAccumulator) -> float:
    """Mean of :meth:`~ConfusionAccumulator.iou_by_class` over the classes
    with nonzero union; NoClasses if there are none."""
    ious = acc.iou_by_class()[acc.union > 0]
    if not len(ious):
        raise NoClasses("no class has nonzero union")
    return float(np.mean(ious))


def box_iou(a, b) -> float:
    """IoU of two inclusive-coordinate boxes."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min) + 1
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min) + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def corloc(pairs) -> float:
    """Percentage of (predicted, truth) box pairs with IoU strictly > 0.5.

    A missing prediction (None) counts as a failure for its frame.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyList("corloc needs at least one box pair")
    hits = sum(1 for pred, truth in pairs
               if pred is not None and box_iou(pred, truth) > 0.5)
    return 100.0 * hits / len(pairs)
