import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from motionseg.core import (
    GridAdjacency,
    LabelMap,
    MotionMask,
    RgbImage,
    ScoreMap,
)
from motionseg.energy import (
    BoundaryBand,
    EnergyModel,
    PairwiseParams,
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
from motionseg.io import read_image, read_manifest, read_mask, read_scores
from motionseg.maxflow import SOURCE, FlowNetwork, min_cut
from motionseg.synthetic import two_object_scene, write_blob_dataset

from helpers import (binary_masks, cut_capacity_of, fit_fgbg_from_motion,
                     random_model, random_scores, recorded_cuts,
                     unaries_decide)
from oracles import enumerate_minimum, expansion_full_sweeps, potts_weight


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
    out = minimize_expansion(m, init=init, sweeps=sweeps, energy_trace=trace)
    want = expansion_full_sweeps(m, init, sweeps, want_trace)
    assert np.array_equal(out.labels.ravel(), want)
    assert 1 <= len(trace) <= len(want_trace)
    assert (np.diff(trace) <= 0).all()
    assert trace[-1] == total_energy(m, out)


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
    out = minimize_expansion(m)
    ran = len(cuts)
    want = expansion_full_sweeps(m)
    assert ran < len(cuts) - ran
    assert np.array_equal(out.labels.ravel(), want)


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
# cut certificates on full-size grids, far beyond brute force: the flow the
# solver pushed equals the capacity of the cut it returns, so both are optimal.
# min_cut returns before any search when the unaries decide the cut, so each
# test below also says whether its networks are decided: both paths stay
# certified.

def _mirrored(net):
    """``net`` with its terminals swapped and every arc reversed."""
    return FlowNetwork(net.sink_cap, net.source_cap, net.arc_head[1::2],
                       net.arc_head[::2], net.arc_cap[1::2], net.arc_cap[::2])


def _assert_certified_and_mirrored(net, res):
    """``res`` is certified by its cut, and the mirrored network, whose
    source side holds the large excess set, gives the same flow and the
    minimal sink side, which the minimal source side must not overlap."""
    assert res.flow_value == pytest.approx(cut_capacity_of(net, res.side),
                                           rel=1e-9)
    mirror = _mirrored(net)
    back = min_cut(mirror)
    assert back.flow_value == pytest.approx(res.flow_value, rel=1e-9)
    assert back.flow_value == pytest.approx(
        cut_capacity_of(mirror, back.side), rel=1e-9)
    source, mirror_source = res.side == SOURCE, back.side == SOURCE
    assert mirror_source.sum() > source.sum()
    assert not (source & mirror_source).any()


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
    minimize_expansion(m, sweeps=1)
    assert len(cuts) == 3  # one move per label
    for net, res in cuts:
        assert net.node_count == 96 * 160
        assert not unaries_decide(net)
        _assert_certified_and_mirrored(net, res)


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
