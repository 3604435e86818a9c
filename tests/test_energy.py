import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import motionseg.inference
from motionseg.core import (
    GridAdjacency,
    LabelMap,
    MotionMask,
    RgbImage,
    ScoreMap,
)
from motionseg.energy import (
    DEFAULT_EXPANSION_SWEEPS,
    BoundaryBand,
    EnergyModel,
    PairwiseParams,
    _expansion_moves,
    _fix_optimal_pixels,
    boundary_band_from_mask,
    build_energy,
    minimize_binary,
    minimize_expansion,
    total_energy,
)
from motionseg.errors import (
    DimensionMismatch,
    LabelNotAllowed,
    WrongLabelCount,
)
from motionseg.gmm import FgBgGmm, Gmm, fit_gmm, nll
from motionseg.inference import InferenceParams, infer_labels
from motionseg.io import (read_image, read_manifest, read_mask, read_scores,
                          write_image, write_mask, write_scores)
from motionseg.maxflow import SOURCE, FlowNetwork, min_cut
from motionseg.synthetic import two_object_scene, write_blob_dataset

from helpers import (binary_masks, cut_capacity_of, fit_fgbg_from_motion,
                     random_model, random_scores, recorded_cuts,
                     unaries_decide)
from oracles import (all_labelings, enumerate_minimum, expansion_full_sweeps,
                     model_columns, potts_energies, potts_weight)


def _no_band(h, w):
    return BoundaryBand(np.zeros((h, w), dtype=np.uint8))


def _gmm_at(color, floor=0.01):
    c = np.asarray(color, dtype=np.float64)
    return Gmm(np.array([1.0]), c[None, :], (floor * np.eye(3))[None, :, :])


# ---------------------------------------------------------------------------
# potts_weight

def test_potts_zero_inside_band():
    band = BoundaryBand(np.ones((1, 2), dtype=np.uint8))
    p = PairwiseParams(smoothness=1.0)
    assert potts_weight([0, 0, 0], [1, 1, 1], (0, 0), (0, 1), band, p) == 0.0


def test_potts_equal_colors():
    p = PairwiseParams(smoothness=1.0)
    w = potts_weight([0.3] * 3, [0.3] * 3, (0, 0), (0, 1), _no_band(1, 2), p)
    assert abs(w - 1.0) < 1e-12


def test_potts_max_contrast():
    # squared distance between pure red and pure green is 2
    p = PairwiseParams(smoothness=1.0, contrast_scale=0.5)
    w = potts_weight([1, 0, 0], [0, 1, 0], (0, 0), (0, 1), _no_band(1, 2), p)
    assert abs(w - np.exp(-1.0)) < 1e-12


def test_potts_symmetry():
    rng = np.random.default_rng(14)
    p = PairwiseParams()
    band = _no_band(2, 2)
    for _ in range(10):
        zi, zj = rng.random(3), rng.random(3)
        a = potts_weight(zi, zj, (0, 0), (0, 1), band, p)
        b = potts_weight(zj, zi, (0, 1), (0, 0), band, p)
        assert abs(a - b) < 1e-12


def test_potts_band_needs_both_pixels_inside():
    band = BoundaryBand(np.array([[1, 0]], dtype=np.uint8))
    p = PairwiseParams(smoothness=1.0)
    w = potts_weight([0.5] * 3, [0.5] * 3, (0, 0), (0, 1), band, p)
    assert w == 1.0


@pytest.mark.parametrize("smoothness, contrast_scale", [
    (10.0, 0.5), (0.25, 3.0), (7.5, 1e-3),
])
def test_contrast_weights_match_the_potts_oracle(smoothness, contrast_scale):
    h, w = 3, 4
    colors = np.random.default_rng(21).random((h * w, 3))
    p = PairwiseParams(smoothness=smoothness, contrast_scale=contrast_scale)
    edges = GridAdjacency(w, h).edges()
    got = p.contrast_weights(colors, edges)
    want = [potts_weight(colors[i], colors[j], divmod(i, w), divmod(j, w),
                         _no_band(h, w), p) for i, j in edges]
    assert got.shape == (len(edges),)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_pairwise_params_validation():
    with pytest.raises(ValueError):
        PairwiseParams(smoothness=0.0)
    with pytest.raises(ValueError):
        PairwiseParams(contrast_scale=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PairwiseParams(smoothness=bad)
        with pytest.raises(ValueError, match="finite"):
            PairwiseParams(contrast_scale=bad)


# ---------------------------------------------------------------------------
# boundary band

def test_boundary_band_matches_direct_dilation():
    rng = np.random.default_rng(15)
    for _ in range(10):
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        mask = rng.integers(0, 2, size=(h, w)).astype(np.uint8)
        half = int(rng.integers(0, 4))
        band = boundary_band_from_mask(MotionMask(mask), half).band
        # oracle: mark 4-neighbor sign changes, then Chebyshev-dilate
        boundary = np.zeros((h, w), dtype=bool)
        for y in range(h):
            for x in range(w):
                for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and mask[yy, xx] != mask[y, x]:
                        boundary[y, x] = True
        ys, xs = np.nonzero(boundary)
        want = np.zeros((h, w), dtype=bool)
        for y in range(h):
            for x in range(w):
                if len(ys):
                    cheb = np.maximum(np.abs(ys - y), np.abs(xs - x)).min()
                    want[y, x] = cheb <= half
        assert np.array_equal(band.astype(bool), want)


@settings(max_examples=300, deadline=None)
@given(binary_masks(), st.integers(0, 15))
def test_boundary_band_matches_scipy_dilation(m, half):
    p = np.pad(m, 1, mode="edge")  # off-frame neighbors never differ
    edge = ((p[:-2, 1:-1] != m) | (p[2:, 1:-1] != m)
            | (p[1:-1, :-2] != m) | (p[1:-1, 2:] != m))
    square = np.ones((2 * half + 1, 2 * half + 1), dtype=bool)
    want = ndimage.binary_dilation(edge, structure=square) if half else edge
    got = boundary_band_from_mask(MotionMask(m.astype(np.uint8)), half).band
    assert got.dtype == bool and np.array_equal(got, want)
    if half >= max(m.shape):
        event("half-width at least the frame side")


def test_band_wider_than_the_frame_is_the_whole_frame():
    rng = np.random.default_rng(16)
    mask = MotionMask(rng.integers(0, 2, size=(5, 8)).astype(np.uint8))
    wide = boundary_band_from_mask(mask, 10**6).band
    assert np.array_equal(wide, boundary_band_from_mask(mask, 8).band)
    assert wide.all()


def test_boundary_band_constant_mask_is_empty():
    band = boundary_band_from_mask(MotionMask(np.ones((4, 4), dtype=np.uint8)), 2)
    assert not band.band.any()


# ---------------------------------------------------------------------------
# build_energy / total_energy

def _build_inputs(rng, h, w, labels=3):
    img = RgbImage(rng.random((h, w, 3)))
    scores = random_scores(rng, h, w, labels)
    fg = fit_gmm(rng.random((20, 3)), n_components=2, seed=1)
    bg = fit_gmm(rng.random((20, 3)), n_components=2, seed=2)
    return img, FgBgGmm(foreground=fg, background=bg), scores


def test_build_energy_zero_weight_uses_only_gmms():
    rng = np.random.default_rng(16)
    img, gmms, scores = _build_inputs(rng, 3, 4)
    m = build_energy(img, gmms, scores, (0, 1, 2), 0.0, PairwiseParams(),
                     _no_band(3, 4))
    colors = img.pixels.reshape(-1, 3)
    assert np.allclose(m.unary[:, 0], nll(gmms.background, colors))
    assert np.allclose(m.unary[:, 1], nll(gmms.foreground, colors))
    assert np.allclose(m.unary[:, 1], m.unary[:, 2])


def test_build_energy_symmetric_inputs_give_equal_unaries():
    rng = np.random.default_rng(17)
    img = RgbImage(rng.random((2, 3, 3)))
    g = fit_gmm(rng.random((15, 3)), n_components=1, seed=0)
    same = FgBgGmm(foreground=g, background=g)
    uniform = ScoreMap(np.full((2, 3, 2), 0.5))
    m = build_energy(img, same, uniform, (0, 1), 1.0, PairwiseParams(),
                     _no_band(2, 3))
    assert np.allclose(m.unary[:, 0], m.unary[:, 1])


def test_build_energy_object_label_gap_is_score_ratio():
    rng = np.random.default_rng(18)
    img, gmms, scores = _build_inputs(rng, 3, 3, labels=3)
    pred_weight = 1.7
    m = build_energy(img, gmms, scores, (0, 1, 2), pred_weight, PairwiseParams(),
                     _no_band(3, 3))
    p = scores.scores.reshape(-1, 3)
    want = pred_weight * (np.log(p[:, 2]) - np.log(p[:, 1]))
    assert np.allclose(m.unary[:, 1] - m.unary[:, 2], want)


def test_build_energy_clamps_zero_scores():
    rng = np.random.default_rng(19)
    img, gmms, _ = _build_inputs(rng, 2, 2)
    zero = ScoreMap(np.dstack([np.zeros((2, 2)), np.ones((2, 2))]))
    m = build_energy(img, gmms, zero, (0, 1), 1.0, PairwiseParams(),
                     _no_band(2, 2))
    assert np.isfinite(m.unary).all()


def test_build_energy_weight_widens_unary_gaps():
    rng = np.random.default_rng(20)
    img, gmms, scores = _build_inputs(rng, 2, 3, labels=2)
    band = _no_band(2, 3)
    gaps = []
    for pred_weight in (0.5, 1.5):
        m = build_energy(img, gmms, scores, (0, 1), pred_weight, PairwiseParams(),
                         band)
        gaps.append(m.unary[:, 1] - m.unary[:, 0])
    p = scores.scores.reshape(-1, 2)
    direction = np.log(p[:, 0]) - np.log(p[:, 1])
    unequal = np.abs(direction) > 1e-12
    # raising the weight moves every gap further along the score direction
    assert ((gaps[1] - gaps[0])[unequal] * direction[unequal] > 0).all()


def test_build_energy_dimension_mismatch():
    rng = np.random.default_rng(21)
    img, gmms, _ = _build_inputs(rng, 2, 2)
    wrong = ScoreMap(np.full((3, 2, 2), 0.5))
    with pytest.raises(DimensionMismatch):
        build_energy(img, gmms, wrong, (0, 1), 1.0, PairwiseParams(),
                     _no_band(2, 2))


def test_energy_model_validation():
    adj = GridAdjacency(2, 1)
    with pytest.raises(ValueError):
        EnergyModel((0, 1), np.array([[np.inf, 0.0], [0.0, 0.0]]),
                    np.zeros(1), adj)
    with pytest.raises(ValueError):
        EnergyModel((0, 1), np.zeros((2, 2)), np.array([-1.0]), adj)
    with pytest.raises(DimensionMismatch):
        EnergyModel((0, 1), np.zeros((3, 2)), np.zeros(1), adj)


def test_energy_model_refuses_a_nan_pairwise_weight():
    # the cut would drop a NaN edge without a word
    adj = GridAdjacency(3, 1)
    with pytest.raises(ValueError):
        EnergyModel((0, 1), np.zeros((3, 2)), np.array([np.nan, 1.0]), adj)
    with pytest.raises(ValueError):
        EnergyModel((0, 1), np.zeros((3, 2)), np.array([1.0, np.nan]), adj)


def test_total_energy_constant_labeling_has_no_pairwise_cost():
    rng = np.random.default_rng(22)
    m = random_model(rng, 3, 3, (0, 1, 2))
    x = LabelMap(np.full((3, 3), 2, dtype=np.int32))
    assert abs(total_energy(m, x) - m.unary[:, 2].sum()) < 1e-9


def test_total_energy_two_pixel_example():
    m = EnergyModel((0, 1), np.array([[0.0, 10.0], [10.0, 0.0]]),
                    np.array([0.5]), GridAdjacency(2, 1))
    assert total_energy(m, LabelMap(np.array([[0, 1]]))) == 0.5
    assert total_energy(m, LabelMap(np.array([[0, 0]]))) == 10.0


def test_total_energy_rejects_disallowed_labels():
    m = EnergyModel((0, 2), np.zeros((2, 2)), np.zeros(1), GridAdjacency(2, 1))
    with pytest.raises(LabelNotAllowed):
        total_energy(m, LabelMap(np.array([[0, 1]])))


# ---------------------------------------------------------------------------
# minimize_binary

def test_binary_background_dominance():
    rng = np.random.default_rng(23)
    adj = GridAdjacency(4, 3)
    unary = np.column_stack([np.zeros(12), np.full(12, 5.0)])
    m = EnergyModel((0, 1), unary, 0.3 * rng.random(adj.edge_count), adj)
    assert not minimize_binary(m).labels.any()


def test_binary_two_pixel_example_splits():
    m = EnergyModel((0, 1), np.array([[0.0, 10.0], [10.0, 0.0]]),
                    np.array([0.5]), GridAdjacency(2, 1))
    assert minimize_binary(m).labels.ravel().tolist() == [0, 1]


def test_binary_strong_smoothing_forces_constant():
    rng = np.random.default_rng(24)
    adj = GridAdjacency(3, 3)
    unary = rng.random((9, 2))
    m = EnergyModel((0, 1), unary, np.full(adj.edge_count, 1e4), adj)
    x = minimize_binary(m).labels
    assert (x == x.ravel()[0]).all()
    assert x.ravel()[0] == int(np.argmin(unary.sum(axis=0)))


def test_binary_matches_enumeration():
    rng = np.random.default_rng(25)
    for _ in range(25):
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        m = random_model(rng, h, w, (0, 1), unary_scale=1.5)
        got = minimize_binary(m)
        _, best = enumerate_minimum(m.unary, m.adjacency.edges(),
                                    m.pairwise, 2)
        assert abs(total_energy(m, got) - best) <= 1e-9


def test_binary_requires_two_labels():
    rng = np.random.default_rng(26)
    m = random_model(rng, 2, 2, (0, 1, 2))
    with pytest.raises(WrongLabelCount):
        minimize_binary(m)


def test_binary_nonzero_label_pair():
    # allowed labels need not be 0/1; the result uses the given indices
    rng = np.random.default_rng(27)
    m = random_model(rng, 2, 3, (0, 4))
    got = minimize_binary(m)
    assert set(np.unique(got.labels)) <= {0, 4}
    _, best = enumerate_minimum(m.unary, m.adjacency.edges(), m.pairwise, 2)
    assert abs(total_energy(m, got) - best) <= 1e-9


# ---------------------------------------------------------------------------
# minimize_expansion

def test_expansion_keeps_global_optimum():
    rng = np.random.default_rng(28)
    m = random_model(rng, 2, 2, (0, 1, 2))
    cols, _ = enumerate_minimum(m.unary, m.adjacency.edges(), m.pairwise, 3)
    best = LabelMap(np.array(m.allowed_labels)[cols].reshape(2, 2))
    out = minimize_expansion(m, init=best)
    assert np.array_equal(out.labels, best.labels)


def test_expansion_energy_trace_is_monotone():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_model(rng, 3, 3, (0, 1, 2), unary_scale=1.2)
        trace = []
        out = minimize_expansion(m, energy_trace=trace)
        assert len(trace) >= 1
        assert (np.diff(trace) <= 1e-9).all()
        assert abs(trace[-1] - total_energy(m, out)) <= 1e-9


def _moves_on_grid(m, init=None, sweeps=DEFAULT_EXPANSION_SWEEPS, trace=None):
    """Plain expansion: the move routine on the whole grid of ``m``, from
    ``init`` or each pixel's least unary; returns columns."""
    cols = (np.argmin(m.unary, axis=1) if init is None
            else model_columns(m, init))
    return _expansion_moves(m.unary, m.adjacency.edges(), m.pairwise, cols,
                            sweeps, [] if trace is None else trace)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 4), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 5), st.booleans())
def test_expansion_stops_with_the_full_sweep_labels(seed, labels, h, w,
                                                    sweeps, with_init):
    rng = np.random.default_rng(seed)
    m = random_model(rng, h, w, tuple(range(labels)),
                     pairwise_scale=float(rng.uniform(0.1, 1.5)))
    init = (LabelMap(rng.choice(m.allowed_labels, size=(h, w)))
            if with_init else None)
    trace, want_trace = [], []
    out = _moves_on_grid(m, init, sweeps, trace)
    want = expansion_full_sweeps(m, init, sweeps, want_trace)
    assert np.array_equal(out, want)
    assert 1 <= len(trace) <= len(want_trace)
    assert (np.diff(trace) <= 0).all()
    # the labels are 0..labels-1, so columns and labels agree
    assert trace[-1] == total_energy(m, LabelMap(out.reshape(h, w)))


def _two_object_model():
    """The energy of a 96x160 two-object scene at the multi-label
    benchmark's settings."""
    scene = two_object_scene(5, height=96, width=160, confidence=0.45,
                             noise=0.15)
    gmms = fit_fgbg_from_motion([(scene.image, scene.mask)], 0, n_components=1)
    band = boundary_band_from_mask(scene.mask, InferenceParams.boundary_band)
    return build_energy(scene.image, gmms, scene.scores, (0, 1, 2), 1.0,
                        PairwiseParams(), band)


def test_expansion_skips_moves_that_cannot_change_the_labels(monkeypatch):
    m = _two_object_model()
    cuts = recorded_cuts(monkeypatch)
    out = _moves_on_grid(m)
    ran = len(cuts)
    want = expansion_full_sweeps(m)
    assert ran < len(cuts) - ran
    assert np.array_equal(out, want)


def test_expansion_never_above_init():
    rng = np.random.default_rng(30)
    for _ in range(10):
        m = random_model(rng, 3, 3, (0, 1, 2))
        init = LabelMap(rng.choice(m.allowed_labels, size=(3, 3)))
        out = minimize_expansion(m, init=init)
        assert total_energy(m, out) <= total_energy(m, init) + 1e-9


def test_expansion_near_optimal_on_small_instances():
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(30):
        m = random_model(rng, 3, 3, (0, 1, 2), unary_scale=1.0,
                         pairwise_scale=0.25, nonnegative=True)
        out = minimize_expansion(m)
        _, best = enumerate_minimum(m.unary, m.adjacency.edges(),
                                    m.pairwise, 3)
        got = total_energy(m, out)
        assert got <= 2.0 * best + 1e-9
        if abs(got - best) <= 1e-9:
            hits += 1
    assert hits >= 27


def test_expansion_label_permutation_symmetry():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(20):
        m = random_model(rng, 3, 3, (0, 1, 2), pairwise_scale=0.2)
        out = minimize_expansion(m)
        _, best = enumerate_minimum(m.unary, m.adjacency.edges(),
                                    m.pairwise, 3)
        if abs(total_energy(m, out) - best) > 1e-9:
            continue  # only compare instances solved to optimality
        # swap object labels 1 and 2 along with their unary columns
        swapped = EnergyModel(m.allowed_labels, m.unary[:, [0, 2, 1]],
                              m.pairwise, m.adjacency)
        out2 = minimize_expansion(swapped)
        if abs(total_energy(swapped, out2) - best) > 1e-9:
            continue
        perm = {0: 0, 1: 2, 2: 1}
        want = np.vectorize(perm.get)(out.labels)
        assert np.array_equal(out2.labels, want)
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# the reduction: one auxiliary cut per label fixes pixels before the moves

@st.composite
def potts_models(draw, labels=(3, 4), max_side=5, max_sites=25):
    """A random Potts EnergyModel over labels 0..L-1 on a grid of at most
    ``max_sites`` pixels; the unaries, the weights or both may be rounded
    to one decimal, so that ties occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, min(max_side, max_sites // h)))
    count = draw(st.sampled_from(labels))
    adjacency = GridAdjacency(w, h)
    unary = rng.standard_normal((h * w, count))
    weights = draw(st.floats(0.1, 1.5)) * rng.random(adjacency.edge_count)
    if draw(st.booleans()):
        unary = np.round(unary, 1)
    if draw(st.booleans()):
        weights = np.round(weights, 1)
    return EnergyModel(tuple(range(count)), unary, weights, adjacency)


def _fixed_of(m):
    """``fixed`` and the folded unaries: the free rows as the reduction
    returns them, the fixed rows as ``m.unary`` has them."""
    fixed, free, folded, _, _ = _fix_optimal_pixels(
        m.unary, m.adjacency.edges(), m.pairwise)
    unary = m.unary.copy()
    unary[free] = folded
    return fixed, unary


def _label_fixed_share(fixed):
    if not (fixed >= 0).any():
        event("no pixel fixed")
    elif not (fixed < 0).any():
        event("no pixel free")
    else:
        event("some pixels fixed, some free")


@settings(max_examples=200, deadline=None)
@given(potts_models(), st.integers(0, 2**32 - 1))
def test_fixed_pixels_never_raise_the_energy_of_a_labeling(m, seed):
    fixed, _ = _fixed_of(m)
    _label_fixed_share(fixed)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, len(m.allowed_labels), size=(20, len(m.unary)))
    x = np.vstack([x, np.argmin(m.unary, axis=1)])
    moved = np.where(fixed >= 0, fixed, x)
    edges = m.adjacency.edges()
    before = potts_energies(m.unary, edges, m.pairwise, x)
    after = potts_energies(m.unary, edges, m.pairwise, moved)
    assert (after <= before + 1e-9).all()


@settings(max_examples=150, deadline=None)
@given(potts_models(labels=(3,), max_sites=8)
       | potts_models(labels=(4,), max_sites=6))
def test_some_global_minimizer_agrees_with_every_fixed_pixel(m):
    fixed, folded = _fixed_of(m)
    _label_fixed_share(fixed)
    edges = m.adjacency.edges()
    labelings = all_labelings(*m.unary.shape)
    energies = potts_energies(m.unary, edges, m.pairwise, labelings)
    best = labelings[energies <= energies.min() + 1e-9]
    on = fixed >= 0
    assert (best[:, on] == fixed[on]).all(axis=1).any()
    # the folded unaries price the fixed pixels in: with them set, the
    # energy is the free pixels' energy plus one constant
    settled = np.unique(np.where(on, fixed, labelings), axis=0)
    inner = ~on[edges[:, 0]] & ~on[edges[:, 1]]
    index = np.cumsum(~on) - 1  # a free pixel's place among the free
    free_part = potts_energies(folded[~on], index[edges[inner]],
                               m.pairwise[inner], settled[:, ~on])
    whole = potts_energies(m.unary, edges, m.pairwise, settled)
    assert np.ptp(whole - free_part) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(potts_models(), st.integers(0, 2**32 - 1))
def test_reduced_expansion_is_never_above_init(m, seed):
    h, w = m.adjacency.height, m.adjacency.width
    init = LabelMap(np.random.default_rng(seed).integers(
        0, len(m.allowed_labels), size=(h, w)))
    trace = []
    out = minimize_expansion(m, init=init, energy_trace=trace)
    got, start = total_energy(m, out), total_energy(m, init)
    assert got <= start + 1e-9
    assert trace and trace[0] <= start + 1e-9
    assert (np.diff(trace) <= 0).all()
    assert trace[-1] == pytest.approx(got, rel=1e-12, abs=1e-9)
    fixed, _ = _fixed_of(m)
    _label_fixed_share(fixed)
    assert np.array_equal(out.labels.ravel()[fixed >= 0], fixed[fixed >= 0])
    if not (fixed < 0).any():
        assert len(trace) == 1


def test_no_free_pixel_runs_no_move(monkeypatch):
    # distinct unaries and weak edges: each pixel's least unary wins alone
    unary = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 3.0], [3.0, 2.0, 0.0],
                      [0.0, 3.0, 2.0]])
    m = EnergyModel((0, 1, 2), unary, np.full(4, 0.1), GridAdjacency(2, 2))
    cuts = recorded_cuts(monkeypatch)
    trace = []
    out = minimize_expansion(m, energy_trace=trace)
    assert out.labels.ravel().tolist() == [0, 1, 2, 0]
    assert len(cuts) == 3  # the auxiliary cuts alone
    assert trace == [pytest.approx(total_energy(m, out), abs=1e-12)]


def test_a_tied_pixel_stays_free():
    # labels 0 and 1 cost the same: neither auxiliary cut must fix it
    m = EnergyModel((0, 1, 2), np.array([[0.0, 0.0, 1.0]]), np.zeros(0),
                    GridAdjacency(1, 1))
    fixed, folded = _fixed_of(m)
    assert fixed.tolist() == [-1]
    assert np.array_equal(folded, m.unary)


@settings(max_examples=200, deadline=None)
@given(potts_models())
def test_the_returned_subgraph_is_the_one_fixed_leaves(m):
    # the subgraph the reduction shrinks cut by cut equals the one built
    # from its final ``fixed`` alone
    edges = m.adjacency.edges()
    fixed, free, folded, free_edges, free_weights = _fix_optimal_pixels(
        m.unary, edges, m.pairwise)
    _label_fixed_share(fixed)
    on = fixed >= 0
    assert np.array_equal(free, np.flatnonzero(~on))
    inner = ~on[edges[:, 0]] & ~on[edges[:, 1]]
    index = np.cumsum(~on) - 1  # a free pixel's place among the free
    assert np.array_equal(free_edges, index[edges[inner]])
    assert np.array_equal(free_weights, m.pairwise[inner])
    # a fixed neighbour j costs w_ij on every column but its own label
    want = m.unary.copy()
    columns = np.arange(m.unary.shape[1])
    for (i, j), w in zip(edges, m.pairwise):
        for p, q in ((i, j), (j, i)):
            if not on[p] and on[q]:
                want[p] += w * (columns != fixed[q])
    assert folded.shape == (len(free), m.unary.shape[1])
    assert folded == pytest.approx(want[~on], rel=1e-12, abs=1e-12)


def _recorded_expansions(monkeypatch):
    """Record, for every minimize_expansion call inference makes, its
    result's energy and that of plain expansion from the same start."""
    calls = []
    solve = motionseg.inference.minimize_expansion

    def record(m, init=None):
        out = solve(m, init=init)
        plain = _moves_on_grid(m, init)
        calls.append((total_energy(m, out), total_energy(
            m, LabelMap(np.asarray(m.allowed_labels)[plain].reshape(
                m.adjacency.height, m.adjacency.width)))))
        return out

    monkeypatch.setattr(motionseg.inference, "minimize_expansion", record)
    return calls


def _multilabel_labels(tmp_path, seed, part):
    """The labels infer gives the multi-label benchmark's frame of ``seed``
    and ``part``: one 96x160 two-object frame, read back from disk, at the
    benchmark's infer settings."""
    scene = two_object_scene((seed * 1000 + part) * 100, height=96,
                             width=160, confidence=0.45, noise=0.15)
    stem = tmp_path / f"{seed}_{part}"
    write_image(scene.image, stem.with_suffix(".ppm"))
    write_mask(scene.mask, stem.with_suffix(".pgm"))
    write_scores(scene.scores, stem.with_suffix(".msf"))
    frame = (read_image(stem.with_suffix(".ppm")),
             read_mask(stem.with_suffix(".pgm")),
             read_scores(stem.with_suffix(".msf")))
    return infer_labels([frame], (1, 2),
                        InferenceParams(gmm_components=1, iterations=2))[0]


def test_reduction_never_above_plain_expansion_on_multilabel_frames(
        tmp_path, monkeypatch):
    # the multi-label benchmark's frames at seeds 1-2, parts 0-7
    calls = _recorded_expansions(monkeypatch)
    for seed in (1, 2):
        for part in range(8):
            _multilabel_labels(tmp_path, seed, part)
    assert len(calls) >= 16
    for got, plain in calls:
        assert got <= plain + 1e-9 * max(1.0, abs(plain))


def test_multilabel_label_maps_are_pinned(tmp_path):
    # the bytes of the multi-label benchmark's first four label maps (seed
    # 1, parts 0-3): a change to the cuts, the reduction or the moves that
    # is meant to leave every output alone must leave these alone
    digests = [hashlib.sha256(_multilabel_labels(
        tmp_path, 1, part).labels.tobytes()).hexdigest() for part in range(4)]
    assert digests == [
        "4412f104910f6ccb3ce15f151d19aea8655a2602e566f8065d5b953cd4ce33aa",
        "7861653dc8b73e862ed74b5ab8daaac42aa9537b69eb5a1bd4e754a291be7428",
        "bfa39182f5cd980a2c1b71f554f881c480b615b64b509d0c36bae83dcecd3565",
        "36dd3c00dba7db65f2fc4bf6716c60e68d58fb677d761ea8f0fa0bd3369690fe"]


def test_reduction_never_above_plain_expansion_on_harsh_scenes(monkeypatch):
    # low confidence and strong noise leave many pixels free
    calls = _recorded_expansions(monkeypatch)
    for seed in range(40):
        scene = two_object_scene(seed, height=24, width=40, confidence=0.4,
                                 noise=0.3)
        infer_labels([(scene.image, scene.mask, scene.scores)], (1, 2),
                     InferenceParams(gmm_components=2, iterations=3))
    assert len(calls) >= 80
    for got, plain in calls:
        assert got <= plain + 1e-9 * max(1.0, abs(plain))


# ---------------------------------------------------------------------------
# cut certificates on full-size grids, far beyond brute force: the flow the
# solver pushed equals the capacity of the cut it returns, so both are optimal.
# min_cut returns before any search when the unaries decide the cut, so each
# test below also says whether its networks are decided: both paths stay
# certified.

def _mirrored(net):
    """``net`` with its terminals swapped and every arc reversed."""
    return FlowNetwork(net.sink_cap, net.source_cap, net.arc_head[1::2],
                       net.arc_head[::2], net.arc_cap[1::2], net.arc_cap[::2])


def _certified_with_mirror(net, res):
    """Assert that ``res`` is certified by its cut, and that the mirrored
    network gives the same flow and the minimal sink side, which the
    minimal source side must not overlap; returns both source sides."""
    assert res.flow_value == pytest.approx(cut_capacity_of(net, res.side),
                                           rel=1e-9)
    mirror = _mirrored(net)
    back = min_cut(mirror)
    assert back.flow_value == pytest.approx(res.flow_value, rel=1e-9)
    assert back.flow_value == pytest.approx(
        cut_capacity_of(mirror, back.side), rel=1e-9)
    source, mirror_source = res.side == SOURCE, back.side == SOURCE
    assert not (source & mirror_source).any()
    return source, mirror_source


def _assert_certified_and_mirrored(net, res):
    """``_certified_with_mirror``, where the mirrored network's source side
    holds the large excess set."""
    source, mirror_source = _certified_with_mirror(net, res)
    assert mirror_source.sum() > source.sum()


def test_binary_cut_certificate_on_full_size_grid(monkeypatch):
    m = random_model(np.random.default_rng(71), 112, 144, (0, 1))
    cuts = recorded_cuts(monkeypatch)
    x = minimize_binary(m)
    (net, res), = cuts
    assert not unaries_decide(net)
    assert res.flow_value == pytest.approx(cut_capacity_of(net, res.side),
                                           rel=1e-9)
    base = np.minimum(m.unary[:, 0], m.unary[:, 1]).sum()
    assert total_energy(m, x) == pytest.approx(res.flow_value + base, rel=1e-9)


def test_expansion_move_cut_certificates_on_two_object_scene(monkeypatch):
    m = _two_object_model()
    cuts = recorded_cuts(monkeypatch)
    _moves_on_grid(m, sweeps=1)
    assert len(cuts) == 3  # one move per label
    for net, res in cuts:
        assert net.node_count == 96 * 160
        assert not unaries_decide(net)
        _assert_certified_and_mirrored(net, res)


def test_reduction_cut_certificates_on_two_object_scene(monkeypatch):
    m = _two_object_model()
    cuts = recorded_cuts(monkeypatch)
    fixed, _ = _fixed_of(m)
    assert len(cuts) == 3  # one auxiliary cut per label
    free = 96 * 160
    for a, (net, res) in enumerate(cuts):
        assert net.node_count == free  # the pixels earlier cuts left free
        assert not unaries_decide(net)
        source, mirror_source = _certified_with_mirror(net, res)
        assert (fixed == a).sum() == source.sum()
        free -= source.sum()
        if a == 0:  # most of the frame is background
            assert source.sum() > mirror_source.sum()
    assert free == (fixed < 0).sum() and 0 < free < 0.01 * 96 * 160


def test_infer_cut_certificate_and_mirror_on_blob_frame(tmp_path,
                                                        monkeypatch):
    # a 112x144 blob frame read back from disk, as the large-frame
    # workload writes it and infer reads it
    manifest = read_manifest(write_blob_dataset(
        tmp_path, seed=100000, height=112, width=144, with_scores=True))
    video, shot = manifest.shots()[0]
    frame = shot.frames[13]
    batch = [(read_image(manifest.resolve(frame.image_path)),
              read_mask(manifest.resolve(frame.motion_mask_path)),
              read_scores(manifest.resolve(frame.score_map_path)))]
    cuts = recorded_cuts(monkeypatch)
    infer_labels(batch, manifest.weak_indices(video),
                 InferenceParams(iterations=1))
    (net, res), = cuts
    assert net.node_count == 112 * 144
    # the boundary band zeroes the pairwise weights where the unaries
    # change sign, so this network and its mirror are decided
    assert unaries_decide(net) and unaries_decide(_mirrored(net))
    _assert_certified_and_mirrored(net, res)
