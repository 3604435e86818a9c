"""Video co-localization: prediction-seeded GMMs, superpixel cuts, boxes.

Frames are segmented object-vs-background at the superpixel level to keep
the cut problem small: unaries are pixel-count-weighted GMM costs of each
superpixel's mean color, the pairwise term mirrors the pixel-level
contrast-sensitive Potts scaled by shared boundary length, and the final
box encloses the largest 4-connected foreground component.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (BoundingBox, GridAdjacency, LabelMap, PixelGrid, RgbImage,
                   _frozen, check_same_shape)
from .energy import PairwiseParams, _solve_binary_columns
from .errors import DimensionMismatch
from .gmm import DEFAULT_COMPONENTS, FgBgGmm, fit_fgbg, nll
from .gmm import fit_gmm  # noqa: F401 -- perfbench's tracer test reads it

# SLIC settings: at most the standard 10 iterations, fewer once the residual
# falls below the tolerance; the color scale maps [0,1] RGB onto the
# ~100-unit range the compactness values of the original algorithm assume.
_SLIC_ITERS = 10
_SLIC_TOL = 0.03
_SLIC_COLOR_SCALE = 100.0
DEFAULT_COMPACTNESS = 10.0
# coloc_segment's floor on the centroid distance, in pixels: a superpixel
# can enclose another, and their centroids can then coincide.
_MIN_CENTROID_DIST = 0.1


@dataclass(frozen=True)
class SuperpixelMap(PixelGrid):
    """A partition of the pixel grid into 4-connected superpixels."""

    ids: np.ndarray          # (H, W) int32, values 0..S-1
    mean_colors: np.ndarray  # (S, 3)
    centroids: np.ndarray    # (S, 2) mean (row, col) per superpixel
    counts: np.ndarray       # (S,) pixel counts, all >= 1

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int32)
        if ids.ndim != 2:
            raise DimensionMismatch(f"expected (H, W) ids, got {ids.shape}")
        s = len(self.counts)
        if ids.min() != 0 or ids.max() != s - 1 or np.any(self.counts < 1):
            raise ValueError("superpixel ids must cover 0..S-1, each nonempty")
        object.__setattr__(self, "ids", _frozen(ids))
        for name in ("mean_colors", "centroids", "counts"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n_superpixels(self) -> int:
        return len(self.counts)


def _grid_shape(height, width, target):
    """Rows x cols of initial centers, rows*cols in [S/2, 2S] for S <= H*W."""
    rows = int(np.clip(round(np.sqrt(target * height / width)), 1, height))
    cols = int(np.clip(round(target / rows), 1, width))
    # Rounding gives rows*cols >= (S+1)//2: cols >= S/rows - 1/2 unless
    # clipped, and a clipped cols = W < S gives rows*W >= S - W/2.
    while rows * cols > 2 * target:
        if rows >= cols and rows > 1:
            rows -= 1
        else:
            cols -= 1
    return rows, cols


def _seed_centers(img, rows, cols):
    """Stratum-midpoint centers as a (rows*cols, 2) array, each moved to
    the lowest-gradient pixel of its 3x3 neighborhood only when that
    strictly improves, so flat areas keep the exact (fractional) grid
    midpoints and stay symmetric. Among equal minima the first in (dy, dx)
    scan order wins."""
    h, w = img.height, img.width
    px = img.pixels
    grad = np.zeros((h, w))
    if w > 2:
        grad[:, 1:-1] += ((px[:, 2:] - px[:, :-2]) ** 2).sum(axis=2)
    if h > 2:
        grad[1:-1, :] += ((px[2:, :] - px[:-2, :]) ** 2).sum(axis=2)
    grad = np.pad(grad, 1, constant_values=np.inf)  # off-frame never wins
    fy = np.repeat((np.arange(rows) + 0.5) * h / rows - 0.5, cols)
    fx = np.tile((np.arange(cols) + 0.5) * w / cols - 0.5, rows)
    iy, ix = np.rint([fy, fx]).astype(np.int64)  # in frame: rows <= h
    dy, dx = np.divmod(np.arange(9), 3)
    cand = grad[iy[:, None] + dy, ix[:, None] + dx]  # scan order, 4 = center
    best = np.argmin(cand, axis=1)
    moved = cand[np.arange(len(best)), best] < cand[:, 4]
    return np.where(moved[:, None],
                    np.column_stack([iy + dy[best] - 1, ix + dx[best] - 1]),
                    np.column_stack([fy, fx]))


def _roots(parent):
    """Each node's root in the pointer forest ``parent``, by pointer jumping."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _touching(ids, count):
    """The label pairs ``(i, j)``, ``i < j``, that meet across a 4-neighbour
    pixel pair of ``ids`` (labels in ``0..count-1``), in ascending order,
    with the number of such pixel pairs."""
    grid = GridAdjacency(ids.shape[1], ids.shape[0]).edges()
    a, b = ids.astype(np.int64).ravel()[grid.T]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    cross = lo != hi
    key, length = np.unique(lo[cross] * count + hi[cross], return_counts=True)
    return np.column_stack(np.divmod(key, count)), length


def _flood_label(ids):
    """Number the 4-connected equal-value components of ``ids`` by their
    first pixel in raster order; returns (label map, component count).

    Works on row runs of equal value, numbered in raster order. A run is
    linked to each run below it that carries its value, and every tree
    root hooks onto the smallest root it shares a link with, until no link
    joins two trees. A root is then its component's first run."""
    h, w = ids.shape
    start = np.ones((h, w), dtype=bool)
    start[:, 1:] = ids[:, 1:] != ids[:, :-1]
    run = np.cumsum(start).reshape(h, w) - 1
    down = ids[1:] == ids[:-1]
    a, b = run[:-1][down], run[1:][down]
    parent = np.arange(run[-1, -1] + 1)
    while len(a):
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        parent = _roots(parent)
        a, b = parent[a], parent[b]
        apart = a != b
        a, b = a[apart], b[apart]
    number = np.cumsum(parent == np.arange(len(parent))) - 1
    return number[parent][run].astype(np.int32), int(number[-1]) + 1


def _split_largest(out, count):
    """Give the first half, in raster order, of the largest component the
    new label ``count`` and renumber with :func:`_flood_label`.

    ``out`` is a :func:`_flood_label` map with ``count < (n+1)//2`` for
    its ``n`` pixels, so the largest component has two or more pixels and
    both halves are non-empty: at least ``count + 1`` components come
    back. A half need not be connected; the renumbering makes each of its
    4-connected pieces a label of its own."""
    target = np.argmax(np.bincount(out.ravel(), minlength=count))
    pixels = np.flatnonzero(out == target)
    out.flat[pixels[:len(pixels) // 2]] = count
    return _flood_label(out)


def _merge_bounded(out, count, min_size, lower, upper):
    """Merge components into their largest neighbor, smallest first.

    Components below ``min_size`` are merged while more than ``lower``
    remain; any component may be merged while more than ``upper`` remain,
    so the final count lands inside [lower, upper]. ``out`` is a
    :func:`_flood_label` map (no empty label) on a connected grid, so a
    live component always has a neighbour. The adjacency comes once from
    :func:`_touching`; a merged component points at its live target, and
    :func:`_roots` resolves the pointers once at the end. The victim is the
    lowest ``(size, id)`` of a heap with lazy deletion: a merge pushes the
    target's new size, and an entry whose size went stale (the component
    grew or merged away) is dropped when it reaches the top."""
    sizes = np.bincount(out.ravel(), minlength=count).tolist()
    heap = [(size, i) for i, size in enumerate(sizes)]
    heapq.heapify(heap)
    adj = [set() for _ in range(count)]
    for i, j in _touching(out, count)[0].tolist():
        adj[i].add(j)
        adj[j].add(i)
    owner = np.arange(count)
    live = count
    while live > 1:
        size, victim = heap[0]
        if size != sizes[victim]:
            heapq.heappop(heap)
            continue
        if live <= upper and (live <= lower or size >= min_size):
            break
        heapq.heappop(heap)
        # the first maximum of the sorted ids: ties go to the lowest id
        target = max(sorted(adj[victim]), key=sizes.__getitem__)
        for n in adj[victim]:
            adj[n].discard(victim)
            if n != target:
                adj[n].add(target)
                adj[target].add(n)
        owner[victim] = target
        sizes[target] += size
        sizes[victim] = None
        heapq.heappush(heap, (sizes[target], target))
        live -= 1
    vals, inv = np.unique(_roots(owner)[out], return_inverse=True)
    return inv.reshape(out.shape).astype(np.int32), len(vals)


def _cluster_means(ids, count, px, pos_y, pos_x):
    """Pixel count, mean (row, col) and mean color of each label."""
    flat = ids.ravel()
    counts = np.bincount(flat, minlength=count)
    sums = np.stack([np.bincount(flat, weights=v.ravel(), minlength=count)
                     for v in (pos_y, pos_x, *np.moveaxis(px, 2, 0))], axis=1)
    means = sums / np.maximum(counts, 1)[:, None]
    return counts, means[:, :2], means[:, 2:]


def _slic_distance(dc, ds, step, compactness):
    """SLIC's joint distance from squared color and position distances."""
    return _SLIC_COLOR_SCALE ** 2 * dc + compactness ** 2 * ds / step ** 2


def _assign(px, c_pos, c_col, step, compactness):
    """Each pixel's nearest center among those whose ``(2*step+1)``-square
    window holds it, the lowest center index on a tie; -1 where no window
    does. The windows are one ``(k, (2*step+1)**2)`` block of flat pixel
    indices clipped to the frame: a clipped duplicate repeats its (pixel,
    center, distance) entry, which moves no minimum and no tie."""
    h, w = px.shape[:2]
    k = len(c_pos)
    off = np.arange(-step, step + 1)
    at = c_pos.astype(np.int64)  # truncates, as centers are in the frame
    rows = np.clip(at[:, :1] + off, 0, h - 1)
    cols = np.clip(at[:, 1:] + off, 0, w - 1)
    flat = (rows[:, :, None] * w + cols[:, None, :]).reshape(k, -1)
    planes = np.moveaxis(px, 2, 0).reshape(3, -1)
    c0, c1, c2 = ((planes[c][flat] - c_col[:, c, None]) ** 2
                  for c in range(3))
    ds = (((rows - c_pos[:, :1]) ** 2)[:, :, None]
          + ((cols - c_pos[:, 1:]) ** 2)[:, None, :]).reshape(k, -1)
    # (c0 + c1) + c2 is the elementwise order of ``.sum(axis=2)``
    d = _slic_distance((c0 + c1) + c2, ds, step, compactness).ravel()
    flat = flat.ravel()  # 1-d operands take ``ufunc.at``'s fast path
    best = np.full(h * w, np.inf)
    np.minimum.at(best, flat, d)
    win = d == best[flat]
    ids = np.full(h * w, k)
    np.minimum.at(ids, flat[win],
                  np.repeat(np.arange(k), win.reshape(k, -1).sum(axis=1)))
    # an infinite distance never wins (compactness near its finite limit)
    return np.where(best < np.inf, ids, -1).reshape(h, w).astype(np.int32)


def check_slic_options(target_count, compactness) -> float:
    """``compactness`` as a float, once both SLIC options are checked."""
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    compactness = float(compactness)
    if not (compactness >= 0 and math.isfinite(compactness * compactness)):
        raise ValueError(f"compactness must be >= 0 and its square finite, "
                         f"got {compactness}")
    return compactness


def slic_superpixels(img: RgbImage, target_count: int,
                     compactness: float = DEFAULT_COMPACTNESS) -> SuperpixelMap:
    """SLIC-style clustering of a frame into roughly ``target_count``
    superpixels.

    Iterates assignment in joint (color, position) space from grid-seeded
    centers, at most ``_SLIC_ITERS`` times and until the residual (the mean
    L1 distance the non-empty centers moved, over the grid step) falls
    below ``_SLIC_TOL``. Then enforces 4-connectivity by merging small
    fragments into an adjacent superpixel. The returned count lies within
    [target_count/2, 2*target_count] (capped at the pixel count). The
    algorithm is fully deterministic.

    A pixel joins the nearest center whose ``(2*step+1)``-square window
    (``step`` the grid spacing) holds it; the lowest center index wins a
    tie. A pass holds transient blocks of ``k*(2*step+1)**2`` floats for
    ``k`` centers: 72,828, about 4.5n, at 112x144 with 250 superpixels,
    and at most 18n for ``n`` pixels, as ``k <= 2n``.
    """
    compactness = check_slic_options(target_count, compactness)
    h, w = img.height, img.width
    n = h * w
    target = min(target_count, n)
    rows, cols = _grid_shape(h, w, target)
    c_pos = _seed_centers(img, rows, cols)
    k = len(c_pos)
    step = int(round(np.sqrt(n / k)))  # >= 1: k <= 2n

    px = img.pixels
    pos_y, pos_x = np.mgrid[:h, :w]
    # centers stay in the frame (grid midpoints, pixels, pixel means)
    c_col = px[tuple(np.rint(c_pos).astype(np.int64).T)]
    for _ in range(_SLIC_ITERS):
        ids = _assign(px, c_pos, c_col, step, compactness)
        orphan = ids < 0
        if orphan.any():
            # pixels outside every search window: assign to nearest center
            oy, ox = np.nonzero(orphan)
            d = _slic_distance(
                ((px[oy, ox][:, None] - c_col[None]) ** 2).sum(axis=2),
                (oy[:, None] - c_pos[None, :, 0]) ** 2
                + (ox[:, None] - c_pos[None, :, 1]) ** 2, step, compactness)
            ids[oy, ox] = np.argmin(d, axis=1)
        size, pos, col = _cluster_means(ids, k, px, pos_y, pos_x)
        live = size > 0
        residual = np.abs(pos[live] - c_pos[live]).sum(axis=1).mean() / step
        c_pos[live] = pos[live]
        c_col[live] = col[live]
        if residual < _SLIC_TOL:
            break

    lower = (target + 1) // 2
    upper = 2 * target
    final, count = _flood_label(ids)
    while count < lower:
        final, count = _split_largest(final, count)
    # a min_size of 0 merges as 1 does: no label is empty
    final, count = _merge_bounded(final, count, n // (2 * k), lower, upper)

    counts, centroids, mean_colors = _cluster_means(final, count, px,
                                                    pos_y, pos_x)
    return SuperpixelMap(final, mean_colors, centroids, counts)


def seed_gmms_from_scores(frames, score_maps, category: int,
                          n_components: int = DEFAULT_COMPONENTS,
                          seed: int = 0) -> FgBgGmm:
    """Fit object/background GMMs from confidently predicted pixels.

    Foreground samples are pixels with the category's score strictly above
    0.5, background samples those with the background score strictly above
    0.5; ambiguous pixels (no score above 0.5) enter neither side. The fit
    is unweighted over all given frames; :func:`fit_fgbg` refuses a side
    without samples.
    """
    if not frames:
        raise ValueError("need at least one frame")
    fg, bg = [], []
    for img, scores in zip(frames, score_maps):
        check_same_shape(img, scores)
        flat = img.pixels.reshape(-1, 3)
        p = scores.scores.reshape(-1, scores.channels)
        fg.append(flat[p[:, category] > 0.5])
        bg.append(flat[p[:, 0] > 0.5])
    return fit_fgbg(np.concatenate(fg), None, np.concatenate(bg), None,
                    n_components, seed)


def coloc_segment(frame: RgbImage, sp: SuperpixelMap, gmms: FgBgGmm,
                  params: PairwiseParams = PairwiseParams()) -> LabelMap:
    """Binary object/background segmentation at the superpixel level.

    Node costs are the GMM negative log-likelihoods of each superpixel's
    mean color times its pixel count; edge costs follow the pixel-level
    contrast form on mean colors and centroid distance (floored at
    ``_MIN_CENTROID_DIST``), scaled by the shared boundary length. The cut
    is exact; labels are projected back to pixels.
    """
    check_same_shape(frame, sp)
    theta0 = sp.counts * nll(gmms.background, sp.mean_colors)
    theta1 = sp.counts * nll(gmms.foreground, sp.mean_colors)
    edges, boundary = _touching(sp.ids, sp.n_superpixels)
    gap = sp.centroids[edges[:, 0]] - sp.centroids[edges[:, 1]]
    dist = np.maximum(np.sqrt((gap ** 2).sum(axis=1)), _MIN_CENTROID_DIST)
    weights = params.contrast_weights(sp.mean_colors, edges) / dist * boundary
    y = _solve_binary_columns(theta0, theta1, edges, weights, weights)
    return LabelMap(y[sp.ids].astype(np.int32))


def largest_component_box(x: LabelMap):
    """Tight box around the largest 4-connected foreground component.

    Foreground is any nonzero label. Ties go to the component whose first
    pixel comes earliest in raster order; all-background maps give None.
    """
    fg = x.labels > 0
    if not fg.any():
        return None
    comp, count = _flood_label(fg)
    best = int(np.argmax(np.bincount(comp[fg], minlength=count)))
    return BoundingBox.around(comp == best)
