"""Shared pixel-grid data types and label-space conventions.

Conventions used everywhere in this package:

* images are row-major ``(height, width, ...)`` numpy arrays,
* RGB channels are floats in ``[0, 1]`` (8-bit inputs divided by 255),
* label 0 is always the background class,
* the pixel graph is the 4-connected grid.

All types freeze their arrays after construction; instances are safe to
share between threads.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NegativeScore, NotNormalized
from .maxflow import ArcLayout

# Tolerance on per-pixel score sums (softmax output rounded to float32).
SCORE_SUM_TOL = 1e-5

# Floor on a probability before its log: float32 softmax outputs can round
# to zero, and a confident miss then costs a finite -log(PROB_FLOOR).
PROB_FLOOR = 1e-10

BACKGROUND = "background"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class PixelGrid:
    """Base of the per-pixel dataclasses. A subclass's first field is its
    grid array, shaped (H, W) or (H, W, C); ``height`` and ``width`` are
    that array's first two axes."""

    @property
    def height(self) -> int:
        return getattr(self, next(iter(self.__dataclass_fields__))).shape[0]

    @property
    def width(self) -> int:
        return getattr(self, next(iter(self.__dataclass_fields__))).shape[1]


@dataclass(frozen=True)
class RgbImage(PixelGrid):
    """An RGB frame with channels normalized to [0, 1]."""

    pixels: np.ndarray  # (H, W, 3) float64

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 3 or p.shape[2] != 3:
            raise DimensionMismatch(f"expected (H, W, 3) pixels, got {p.shape}")
        if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails
            raise ValueError("RGB channels must lie in [0, 1]")
        object.__setattr__(self, "pixels", _frozen(p))

    @classmethod
    def from_bytes(cls, raw: np.ndarray) -> "RgbImage":
        """Build from an (H, W, 3) uint8 array by dividing by 255."""
        return cls(np.asarray(raw, dtype=np.float64) / 255.0)


@dataclass(frozen=True)
class MotionMask(PixelGrid):
    """A binary foreground/background mask, 1 = moving foreground."""

    mask: np.ndarray  # (H, W) uint8 in {0, 1}

    def __post_init__(self):
        m = np.asarray(self.mask)
        if m.ndim != 2:
            raise DimensionMismatch(f"expected (H, W) mask, got {m.shape}")
        if not ((m == 0) | (m == 1)).all():
            raise ValueError("mask values must be exactly 0 or 1")
        object.__setattr__(self, "mask", _frozen(m.astype(np.uint8)))

    def foreground_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0


@dataclass(frozen=True)
class LabelSet:
    """Ordered category identifiers; index 0 is always background."""

    categories: tuple

    def __post_init__(self):
        cats = tuple(self.categories)
        if not cats:
            raise ValueError("label set needs at least the background class")
        if len(set(cats)) != len(cats):
            raise ValueError("category identifiers must be unique")
        object.__setattr__(self, "categories", cats)

    @classmethod
    def from_objects(cls, names) -> "LabelSet":
        """Build from object category names only; background is prepended."""
        return cls((BACKGROUND,) + tuple(names))

    def __len__(self) -> int:
        return len(self.categories)

    def index(self, name) -> int:
        return self.categories.index(name)

    @property
    def object_labels(self) -> tuple:
        """Label indices 1..L, excluding background."""
        return tuple(range(1, len(self.categories)))


@dataclass(frozen=True)
class LabelMap(PixelGrid):
    """Per-pixel label indices into an associated LabelSet."""

    labels: np.ndarray  # (H, W) int32

    def __post_init__(self):
        x = np.asarray(self.labels)
        if x.ndim != 2:
            raise DimensionMismatch(f"expected (H, W) labels, got {x.shape}")
        with np.errstate(invalid="ignore"):
            y = x.astype(np.int32)
        if not np.array_equal(y, x):  # NaN, fractions, out of int32 range
            raise ValueError("label indices must be int32 integers")
        if y.size and y.min() < 0:
            raise ValueError("label indices must be nonnegative")
        object.__setattr__(self, "labels", _frozen(y))


@dataclass(frozen=True)
class ScoreMap(PixelGrid):
    """Per-pixel per-class prediction scores, channel-last.

    Construction checks only the shape; value invariants (nonnegative,
    normalized) are checked by :func:`validate_score_map` so that raw
    score tensors can round-trip through files unmodified.
    """

    scores: np.ndarray  # (H, W, C) float64

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 3 or s.shape[2] < 1:
            raise DimensionMismatch(f"expected (H, W, C) scores, got {s.shape}")
        object.__setattr__(self, "scores", _frozen(s))

    @property
    def channels(self) -> int:
        return self.scores.shape[2]


@dataclass(frozen=True)
class BoundingBox:
    """Inclusive pixel-coordinate box; coordinates are >= 0."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if not (0 <= self.x_min <= self.x_max
                and 0 <= self.y_min <= self.y_max):
            raise ValueError(f"negative or flipped box {self}")

    @property
    def area(self) -> int:
        return (self.x_max - self.x_min + 1) * (self.y_max - self.y_min + 1)

    @classmethod
    def around(cls, mask) -> "BoundingBox | None":
        """The tight box around an (H, W) mask's true pixels, or None."""
        rows, cols = np.nonzero(mask)
        return cls(int(cols.min()), int(rows.min()), int(cols.max()),
                   int(rows.max())) if len(rows) else None


@dataclass(frozen=True)
class GridAdjacency:
    """4-neighborhood adjacency of a width x height pixel grid.

    Pixels are indexed row-major; edges pair each pixel with its right and
    down neighbor, so each unordered pair appears exactly once.
    """

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DimensionMismatch("grid needs width, height >= 1")

    @property
    def node_count(self) -> int:
        return self.width * self.height

    @property
    def edge_count(self) -> int:
        return self.width * (self.height - 1) + self.height * (self.width - 1)

    def edges(self) -> np.ndarray:
        """All neighbor pairs as an (E, 2) int array, right edges then down."""
        return _grid_edges(self.width, self.height)

    def arc_layout(self) -> ArcLayout:
        """The ``ArcLayout`` of ``edges()``, one per grid size (4 kept)."""
        return _grid_layout(self.width, self.height)


@lru_cache(maxsize=64)
def _grid_edges(w: int, h: int) -> np.ndarray:
    idx = np.arange(w * h).reshape(h, w)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return _frozen(np.concatenate([right, down], axis=0).astype(np.int64))


@lru_cache(maxsize=4)
def _grid_layout(w: int, h: int) -> ArcLayout:
    return ArcLayout(w * h, *_grid_edges(w, h).T)


def check_same_shape(*items) -> None:
    """Raise DimensionMismatch unless all items share (height, width)."""
    shapes = {(it.height, it.width) for it in items}
    if len(shapes) > 1:
        raise DimensionMismatch(f"mismatched frame shapes: {sorted(shapes)}")


def validate_score_map(s: ScoreMap, num_labels: int | None = None) -> None:
    """Check score-map invariants, reporting the first offending pixel.

    Raises NegativeScore or NotNormalized on the first pixel (row-major)
    violating the softmax-output contract, and DimensionMismatch when
    ``num_labels`` is given and does not match the channel count.
    """
    if num_labels is not None and s.channels != num_labels:
        raise DimensionMismatch(
            f"score map has {s.channels} channels, label set has {num_labels}")
    neg = s.scores < 0.0
    if neg.any():
        i = np.unravel_index(int(np.argmax(neg.any(axis=2))), (s.height, s.width))
        raise NegativeScore(f"negative score at pixel (row={i[0]}, col={i[1]})")
    sums = s.scores.sum(axis=2)
    bad = ~(np.abs(sums - 1.0) <= SCORE_SUM_TOL)  # NaN sums are bad too
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), (s.height, s.width))
        raise NotNormalized(
            f"scores sum to {sums[i]:.6f} at pixel (row={i[0]}, col={i[1]})")


def argmax_labels(s: ScoreMap) -> LabelMap:
    """Per-pixel argmax of the scores; ties break to the smallest index."""
    return LabelMap(np.argmax(s.scores, axis=2).astype(np.int32))
