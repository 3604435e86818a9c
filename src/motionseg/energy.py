"""Pixel-grid energy assembly and minimization.

The energy over a labeling x is

    E(x) = sum_i [ nll_gmm(i, x_i) + a * (-log p_i(x_i)) ]
         + sum_{(i,j)} w_ij * [x_i != x_j]

where the GMM term uses the background mixture for label 0 and the shared
foreground mixture for every object label, p_i are prediction scores, ``a``
balances the two unaries, and w_ij is a contrast-sensitive Potts weight
that is switched off inside a band around motion-segment boundaries (so
the minimizer may cheaply relabel across imprecise motion edges). They
depend only on the frame: ``potts_weights`` builds them once, and
``build_energy`` adds each round's unaries.

Binary problems are solved exactly with one graph cut. Multi-label
problems are first reduced (Kovtun, DAGM 2003; the "Reduce" step of
Alahari, Kohli & Torr, CVPR 2008): one exact binary cut per label fixes
pixels to that label, such that setting the fixed pixels of any labeling
never raises its energy (an improving map), so some global minimizer
agrees with every fixed pixel. Expansion moves (each one exact binary cut)
then run on the free pixels alone.
"""

from dataclasses import dataclass

import numpy as np

from .core import (PROB_FLOOR, GridAdjacency, LabelMap, MotionMask,
                   RgbImage, ScoreMap, _frozen, _read_only,
                   check_same_shape)
from .errors import DimensionMismatch, LabelNotAllowed, WrongLabelCount
from .gmm import FgBgGmm, nll
from .maxflow import SOURCE, ArcLayout, FlowNetwork, min_cut

DEFAULT_EXPANSION_SWEEPS = 5


@dataclass(frozen=True)
class PairwiseParams:
    """Contrast-sensitive Potts parameters.

    ``smoothness`` scales the pairwise term against the unaries and
    ``contrast_scale`` is the exponential color-contrast coefficient
    (0.5 with colors in [0, 1]).
    """

    smoothness: float = 10.0
    contrast_scale: float = 0.5

    def __post_init__(self):
        if not all(np.isfinite(x) and x > 0
                   for x in (self.smoothness, self.contrast_scale)):
            raise ValueError(
                "smoothness and contrast_scale must be finite and positive")

    def contrast_weights(self, colors, edges) -> np.ndarray:
        """``smoothness * exp(-contrast_scale * |z_i - z_j|^2)`` per edge."""
        d2 = ((colors[edges[:, 0]] - colors[edges[:, 1]]) ** 2).sum(axis=1)
        return self.smoothness * np.exp(-self.contrast_scale * d2)


def _window_any(a, r):
    """OR of ``a`` over the windows of half-width ``r`` along its rows."""
    w = a.shape[1]
    c = np.zeros((a.shape[0], w + 1), dtype=np.int64)
    np.cumsum(a, axis=1, out=c[:, 1:])
    x = np.arange(w)
    return c[:, np.minimum(x + r + 1, w)] > c[:, np.maximum(x - r, 0)]


def boundary_band_from_mask(mask: MotionMask, half_width: int) -> np.ndarray:
    """Read-only (H, W) bool band: the pixels within Chebyshev distance
    ``half_width`` of a pixel with a 4-neighbor of opposite mask value."""
    m = mask.mask.astype(bool).ravel()
    pairs = GridAdjacency(mask.width, mask.height).edges()
    edge = np.zeros_like(m)
    edge[pairs[m[pairs[:, 0]] != m[pairs[:, 1]]]] = True
    edge = edge.reshape(mask.height, mask.width)
    if half_width > 0 and edge.any():
        # a wider band than the frame covers no more of it
        r = min(half_width, max(edge.shape))
        edge = _window_any(_window_any(edge, r).T, r).T
    return _frozen(edge)


def potts_weights(img: RgbImage, band: np.ndarray,
                  params: PairwiseParams) -> np.ndarray:
    """The frame's read-only Potts weight per grid edge, in
    ``GridAdjacency.edges()`` order: ``params.contrast_weights``, or 0 on
    an edge whose two ends lie in the (H, W) bool ``band``."""
    if np.shape(band) != (img.height, img.width):
        raise DimensionMismatch(f"band {np.shape(band)} does not fit the frame")
    edges = GridAdjacency(img.width, img.height).edges()
    weights = params.contrast_weights(img.pixels.reshape(-1, 3), edges)
    weights[np.reshape(band, -1)[edges].all(axis=1)] = 0.0
    return _frozen(weights)


@dataclass(frozen=True)
class EnergyModel:
    """Assembled unary/pairwise costs over the allowed labels.

    ``unary[n, c]`` is the cost of assigning pixel n (row-major) the label
    ``allowed_labels[c]``; ``pairwise[e]`` is the Potts weight of grid edge
    e in ``adjacency.edges()`` order.
    """

    allowed_labels: tuple
    unary: np.ndarray     # (N, A)
    pairwise: np.ndarray  # (E,)
    adjacency: GridAdjacency

    def __post_init__(self):
        u = _read_only(self.unary, np.float64)
        w = _read_only(self.pairwise, np.float64)
        if u.shape != (self.adjacency.node_count, len(self.allowed_labels)):
            raise DimensionMismatch("unary shape disagrees with grid/labels")
        if w.shape != (self.adjacency.edge_count,):
            raise DimensionMismatch("pairwise shape disagrees with grid edges")
        if not np.isfinite(u).all():
            raise ValueError("unary costs must be finite")
        if w.size and not (w.min() >= 0):  # NaN fails
            raise ValueError("pairwise weights must be >= 0")
        object.__setattr__(self, "unary", u)
        object.__setattr__(self, "pairwise", w)
        object.__setattr__(self, "allowed_labels", tuple(self.allowed_labels))


def build_energy(img: RgbImage, gmms: FgBgGmm, scores: ScoreMap, allowed,
                 prediction_weight: float, pairwise) -> EnergyModel:
    """Assemble the energy for one frame.

    ``allowed`` lists the usable label indices and must contain background
    (0); ``prediction_weight`` balances the prediction term against the
    GMM term (0 switches predictions off entirely). ``pairwise`` holds the
    frame's Potts weights, as ``potts_weights`` gives them.
    """
    allowed = tuple(sorted(set(int(l) for l in allowed)))
    if not allowed or allowed[0] != 0:
        raise LabelNotAllowed("allowed label set must contain background (0)")
    if len(allowed) < 2:
        raise WrongLabelCount("need at least one object label besides background")
    check_same_shape(img, scores)
    if allowed[-1] >= scores.channels:
        raise DimensionMismatch(
            f"label {allowed[-1]} needs {allowed[-1] + 1} score channels, "
            f"have {scores.channels}")

    colors = img.pixels.reshape(-1, 3)
    nll_bg = nll(gmms.background, colors)
    nll_fg = nll(gmms.foreground, colors)
    neglogp = -np.log(np.maximum(scores.scores.reshape(-1, scores.channels),
                                 PROB_FLOOR))

    unary = np.empty((len(colors), len(allowed)))
    for c, label in enumerate(allowed):
        motion_term = nll_bg if label == 0 else nll_fg
        unary[:, c] = motion_term + prediction_weight * neglogp[:, label]

    return EnergyModel(allowed, _frozen(unary), pairwise,
                       GridAdjacency(img.width, img.height))


def _labels_to_columns(m: EnergyModel, x: LabelMap) -> np.ndarray:
    flat = x.labels.reshape(-1)
    if (flat.shape[0] != m.adjacency.node_count
            or x.width != m.adjacency.width):
        raise DimensionMismatch("labeling does not match the model grid")
    lookup = np.full(max(m.allowed_labels) + 2, -1)
    for c, label in enumerate(m.allowed_labels):
        lookup[label] = c
    clipped = np.minimum(flat, len(lookup) - 1)
    cols = lookup[clipped]
    if (cols < 0).any():  # labels above the largest clip onto -1
        bad = flat[cols < 0][0]
        raise LabelNotAllowed(f"label {bad} not in {m.allowed_labels}")
    return cols


def _energy_of_columns(unary, edges, weights, cols) -> float:
    """Potts energy of column labeling ``cols`` of ``unary`` (N, L) with
    weight ``weights[e]`` on edge ``edges[e]``."""
    pair = (weights * (cols[edges[:, 0]] != cols[edges[:, 1]])).sum()
    return float(unary[np.arange(len(cols)), cols].sum() + pair)


def total_energy(m: EnergyModel, x: LabelMap) -> float:
    """Energy of a labeling: unaries plus Potts costs on disagreeing edges."""
    return _energy_of_columns(m.unary, m.adjacency.edges(), m.pairwise,
                              _labels_to_columns(m, x))


def _columns_to_labelmap(m: EnergyModel, cols: np.ndarray) -> LabelMap:
    labels = np.asarray(m.allowed_labels, dtype=np.int32)[cols]
    return LabelMap(labels.reshape(m.adjacency.height, m.adjacency.width))


def _solve_binary_columns(theta0, theta1, edges, cap, rev_cap,
                          layout=None) -> np.ndarray:
    """Exact cut for a two-column energy; returns y with 1 = second column.

    Edge e = (i, j) costs ``cap[e]`` when y_i = 1 and y_j = 0, and
    ``rev_cap[e]`` when y_i = 0 and y_j = 1 (scalars broadcast). Edges
    with both costs 0 are dropped unless ``layout``, the ``ArcLayout`` of
    ``edges``, is given: full-grid cuts keep them to share the grid's.
    """
    base = np.minimum(theta0, theta1)
    cap, rev_cap = np.broadcast_arrays(cap, rev_cap)
    if layout is None:
        keep = (cap > 0.0) | (rev_cap > 0.0)
        edges, cap, rev_cap = edges[keep], cap[keep], rev_cap[keep]
        layout = ArcLayout(len(base), edges[:, 0], edges[:, 1])
    # source side is y = 1, so the source arc is cut (paid) when y_i = 0
    net = FlowNetwork(theta0 - base, theta1 - base, layout, cap, rev_cap)
    return (min_cut(net).side == SOURCE).astype(np.int64)


def minimize_binary(m: EnergyModel) -> LabelMap:
    """Exact global minimizer for a two-label model (submodular Potts)."""
    if len(m.allowed_labels) != 2:
        raise WrongLabelCount(
            f"binary solver needs exactly 2 allowed labels, got "
            f"{len(m.allowed_labels)}")
    y = _solve_binary_columns(m.unary[:, 0], m.unary[:, 1],
                              m.adjacency.edges(), m.pairwise, m.pairwise,
                              m.adjacency.arc_layout())
    return _columns_to_labelmap(m, y)


def _fix_optimal_pixels(unary, edges, weights, layout=None):
    """Kovtun's partial optimality reduction, one label at a time.

    For each label a, one binary cut over the free pixels prices y_i = 1 at
    the unary of a and y_i = 0 at the least unary of any other label, and
    each free edge at its weight when its ends differ. Every pixel on the
    cut's minimal source side (y_i = 1; on a tie a pixel stays free) is
    fixed to a, and folded into its free neighbours' unaries: w_ij on every
    column but a. Then the subgraph shrinks to the pixels left free.

    Returns ``fixed`` (the column, or -1 for a free pixel) and that
    subgraph: the free pixels, their folded unaries (which price the fixed
    pixels in), the edges joining two free pixels, in grid order and
    renumbered in the free pixels' order, and those edges' weights.
    ``layout``, if given, serves the cuts made while no pixel is fixed.
    """
    labels = unary.shape[1]
    fixed = np.full(len(unary), -1)
    free, folded = np.arange(len(unary)), unary.copy()
    for a in range(labels):
        if not len(free):
            break
        others = np.arange(labels) != a
        y = _solve_binary_columns(folded[:, others].min(axis=1), folded[:, a],
                                  edges, weights, weights,
                                  layout if len(free) == len(unary) else None)
        fixed[free[y == 1]] = a
        # fold each new fixed pixel into its neighbours that stay free
        left = y == 0
        e0, e1 = edges[:, 0], edges[:, 1]
        out0, out1 = ~left[e0] & left[e1], ~left[e1] & left[e0]
        fold = np.bincount(np.concatenate([e1[out0], e0[out1]]),
                           np.concatenate([weights[out0], weights[out1]]),
                           minlength=len(free))
        inner = left[e0] & left[e1]
        free, folded = free[left], folded[left]
        folded[:, others] += fold[left, None]
        edges, weights = (np.cumsum(left) - 1)[edges[inner]], weights[inner]
    return fixed, free, folded, edges, weights


def _expansion_moves(unary, edges, weights, cols, sweeps, trace):
    """Expansion moves on the Potts energy of ``unary`` (N, L) with weight
    ``weights[e]`` on edge ``edges[e]``, from column labeling ``cols``;
    returns the final columns and appends the energy after every move run
    to the list ``trace``.

    One move offers every node the choice "keep its column or switch to
    column a" and solves it exactly as a binary cut; columns are swept in
    ascending order. A move is accepted only when it strictly lowers the
    energy. Stops once every column's move has run since the last
    acceptance, that move included: a rejected move changes nothing, and
    each a-expansion of an accepted a-move's result is one of the labeling
    before it. That gives the labeling of whole sweeps with fewer moves.
    ``sweeps`` caps the moves at ``sweeps`` times the column count.
    """
    labels = unary.shape[1]
    rows = np.arange(len(cols))
    e0, e1 = edges[:, 0], edges[:, 1]
    energy = _energy_of_columns(unary, edges, weights, cols)
    unchanged = 0  # moves run since the last accepted one, counting it
    for move in range(sweeps * labels):
        a = move % labels
        ci, cj = cols[e0], cols[e1]
        theta0 = unary[rows, cols]   # keep
        theta1 = unary[:, a].copy()  # switch to a
        # pairwise reparameterization:
        #   E(0,0)=w[ci!=cj]  E(0,1)=w[ci!=a]  E(1,0)=w[cj!=a]  E(1,1)=0
        w_keep = weights * (ci != cj)   # A
        w_i = weights * (ci != a)       # B
        w_j = weights * (cj != a)       # C
        np.add.at(theta1, e0, w_j - w_keep)
        np.add.at(theta1, e1, -w_j)
        cap = w_i + w_j - w_keep           # >= 0 for Potts
        # cut when y[e1]=1 and y[e0]=0: directed arc e1 -> e0
        y = _solve_binary_columns(theta0, theta1, edges[:, ::-1], cap, 0.0)
        candidate = np.where(y, a, cols)
        cand_energy = _energy_of_columns(unary, edges, weights, candidate)
        if cand_energy < energy:
            cols = candidate
            energy = cand_energy
            unchanged = 0
        unchanged += 1
        trace.append(energy)
        if unchanged == labels:
            break
    return cols


def minimize_expansion(m: EnergyModel, init: LabelMap | None = None,
                       energy_trace: list | None = None) -> LabelMap:
    """Multi-label minimization: reduce, then expansion moves.

    First, one binary cut per label fixes the pixels that some global
    minimizer labels alike (``_fix_optimal_pixels``). Then expansion moves
    (``_expansion_moves``) run on the free pixels alone, with the fixed
    ones folded into their neighbours' unaries, starting from ``init`` (or
    each pixel's least unary) on the free pixels. Setting the fixed pixels
    never raises the energy of a labeling, and a move is accepted only when
    it lowers the energy, so the result is never above ``init``.

    ``energy_trace`` gets the energy after every move run: the fixed
    pixels' part plus the free pixels' part, so equal to ``total_energy``
    up to rounding, non-increasing, and ending at the returned labeling.
    Its first entry may already lie below the energy of ``init`` by what
    setting the fixed pixels saved. When no pixel is left free no move
    runs, and it gets one entry, the energy of the fixed labeling. The
    moves stop after ``DEFAULT_EXPANSION_SWEEPS`` times the label count.
    """
    labels = len(m.allowed_labels)
    if labels < 2:
        raise WrongLabelCount("expansion needs at least 2 allowed labels")
    if init is None:
        cols = np.argmin(m.unary, axis=1)
    else:
        cols = _labels_to_columns(m, init)
    edges = m.adjacency.edges()
    fixed, free, folded, free_edges, free_weights = _fix_optimal_pixels(
        m.unary, edges, m.pairwise, m.adjacency.arc_layout())
    is_fixed = fixed >= 0
    cols = np.where(is_fixed, fixed, cols)
    moves = []
    if len(free):
        cols[free] = _expansion_moves(folded, free_edges, free_weights,
                                      cols[free], DEFAULT_EXPANSION_SWEEPS,
                                      moves)
    if energy_trace is not None:
        both = is_fixed[edges[:, 0]] & is_fixed[edges[:, 1]]
        fixed_part = (m.unary[is_fixed, fixed[is_fixed]].sum()
                      + (m.pairwise[both] * (fixed[edges[both, 0]]
                                             != fixed[edges[both, 1]])).sum())
        energy_trace.extend(float(fixed_part + e) for e in moves or [0.0])
    return _columns_to_labelmap(m, cols)
