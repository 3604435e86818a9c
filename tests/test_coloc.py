import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import motionseg.coloc
from motionseg.coloc import (
    _MIN_CENTROID_DIST,
    _SLIC_ITERS,
    SuperpixelMap,
    _assign,
    _cluster_means,
    _flood_label,
    _grid_shape,
    _merge_bounded,
    _seed_centers,
    _split_largest,
    _touching,
    coloc_segment,
    largest_component_box,
    seed_gmms_from_scores,
    slic_superpixels,
)
from motionseg.core import (BoundingBox, GridAdjacency, LabelMap, RgbImage,
                            ScoreMap)
from motionseg.energy import (
    EnergyModel,
    PairwiseParams,
    minimize_binary,
)
from motionseg.errors import EmptyBackground, EmptyForeground
from motionseg.gmm import FgBgGmm, Gmm, nll
from motionseg.io import read_image, read_manifest
from motionseg.synthetic import two_object_scene, write_blob_dataset

from helpers import cut_capacity_of, random_image, recorded_cuts
from oracles import (all_labelings, cluster_means, flood_label, merge_bounded,
                     potts_energies, potts_weight, seed_centers, slic_assign)

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def _gmm_at(color, spread=0.01):
    c = np.asarray(color, dtype=np.float64)
    return Gmm(np.array([1.0]), c[None, :], (spread * np.eye(3))[None, :, :])


def _singleton_map(img):
    h, w = img.height, img.width
    ids = np.arange(h * w, dtype=np.int32).reshape(h, w)
    ys, xs = np.mgrid[:h, :w]
    return SuperpixelMap(
        ids=ids,
        mean_colors=img.pixels.reshape(-1, 3),
        centroids=np.column_stack([ys.ravel(), xs.ravel()]).astype(np.float64),
        counts=np.ones(h * w, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# SLIC superpixels

def test_single_superpixel():
    img = RgbImage(np.random.default_rng(52).random((6, 7, 3)))
    sp = slic_superpixels(img, 1)
    assert sp.ids.max() == 0
    assert sp.counts.tolist() == [42]
    assert np.allclose(sp.mean_colors[0], img.pixels.reshape(-1, 3).mean(axis=0))


def test_uniform_image_balanced_quarters():
    img = RgbImage(np.full((16, 16, 3), 0.4))
    sp = slic_superpixels(img, 4)
    areas = np.bincount(sp.ids.ravel())
    assert len(areas) == 4
    assert (np.abs(areas - 64) <= 0.2 * 64).all()


def test_id_map_consistency():
    rng = np.random.default_rng(53)
    img = random_image(rng, 14, 17)
    sp = slic_superpixels(img, 12)
    count = sp.ids.max() + 1
    assert np.array_equal(np.bincount(sp.ids.ravel(), minlength=count),
                          sp.counts)
    for j in (0, count // 2, count - 1):
        member = sp.ids == j
        assert np.allclose(sp.mean_colors[j],
                           img.pixels[member].mean(axis=0))
        ys, xs = np.nonzero(member)
        assert np.allclose(sp.centroids[j], [ys.mean(), xs.mean()])


def test_count_stays_within_contract():
    rng = np.random.default_rng(54)
    for target in (1, 3, 10, 40):
        img = random_image(rng, 12, 15)
        sp = slic_superpixels(img, target)
        count = sp.ids.max() + 1
        assert target / 2 <= count <= 2 * target


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 400), st.integers(1, 400), st.data())
def test_grid_shape_lands_within_half_and_twice_the_target(h, w, data):
    # the lower bound holds by rounding alone
    s = data.draw(st.integers(1, h * w))
    rows, cols = _grid_shape(h, w, s)
    assert 1 <= rows <= h and 1 <= cols <= w
    assert (s + 1) // 2 <= rows * cols <= 2 * s


def test_every_superpixel_is_four_connected():
    rng = np.random.default_rng(55)
    img = random_image(rng, 13, 11)
    sp = slic_superpixels(img, 9)
    for j in range(sp.ids.max() + 1):
        _, pieces = ndimage.label(sp.ids == j, structure=FOUR)
        assert pieces == 1


def test_slic_is_deterministic():
    rng = np.random.default_rng(56)
    img = random_image(rng, 10, 10)
    a = slic_superpixels(img, 8)
    b = slic_superpixels(img, 8)
    assert np.array_equal(a.ids, b.ids)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _pinned_blob_frame(root):
    manifest = read_manifest(write_blob_dataset(
        root, seed=100100, videos_per_category=1, height=112, width=144))
    frame = manifest.videos[0].shots[0].frames[0]
    return read_image(manifest.resolve(frame.image_path))


def test_slic_bytes_are_pinned(tmp_path):
    cases = [
        (_pinned_blob_frame(tmp_path), 250,
         "cb3bdcfa30d6b080bfd9c4d454a1f5e102e93ba076c478e6a466f5f793faa7f2",
         "8e84fbc4f5b753c0955cf376a67a0356638bd2978bd64e9cfc290c8ec1a1d469",
         "5d10775ca2e45b348b3050c5bf61dc3c4f65dfdc874474b73f6fa33314ae1c7a"),
        (two_object_scene(0, height=96, width=160).image, 120,
         "87f6e853590cab041701e507f90097b3cd498cf0f450c415556f5cc4903bfefa",
         "d9886b7b647ff2f8107462c0336d60d6cf6a2be90bcace8fa1e606bcc41e8cd2",
         "80539ec3e898b734f932b2bd2d47bc99bfcf4e60c89c685786214a66528686a8"),
        # some centers end an iteration with no pixels and must stay put
        (random_image(np.random.default_rng(60), 8, 9), 12,
         "5b92004921614a1de23b5d4086db6fcf023a09e079f757d60aab93eabd159848",
         "5ac2256bc7e7dda3bf2cb92a9c663048124f8cfde912a4e3055d341005269735",
         "e865ae9ee28291b0fe0669295bad4a140c19ad097580f4feb1b8e256dd1f141a"),
    ]
    for img, target, ids, mean_colors, centroids in cases:
        sp = slic_superpixels(img, target)
        assert _sha256(sp.ids) == ids
        assert _sha256(sp.mean_colors) == mean_colors
        assert _sha256(sp.centroids) == centroids


def test_slic_stops_on_its_residual_before_the_cap(tmp_path, monkeypatch):
    calls = []
    means = motionseg.coloc._cluster_means

    def counted(*args):
        calls.append(args)
        return means(*args)

    monkeypatch.setattr(motionseg.coloc, "_cluster_means", counted)
    slic_superpixels(_pinned_blob_frame(tmp_path), 250)
    iterations = len(calls) - 1  # the last call measures the final map
    assert 1 <= iterations < _SLIC_ITERS


def _frame(h, w, kind, rng):
    if kind == "random":
        return RgbImage(rng.random((h, w, 3)))
    if kind == "flat":  # every gradient and color distance ties
        return RgbImage(np.full((h, w, 3), rng.random()))
    if kind == "tenths":  # color sums that round differently in each order
        return RgbImage(rng.integers(0, 4, size=(h, w, 3)) / 10.0)
    # few distinct values: many ties, some strict minima
    return RgbImage(rng.integers(0, 3, size=(h, w, 3)) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.sampled_from(
    ["random", "flat", "levels"]), st.integers(0, 2**32 - 1), st.data())
def test_seed_centers_match_loop_oracle(h, w, kind, seed, data):
    img = _frame(h, w, kind, np.random.default_rng(seed))
    rows, cols = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
    got = _seed_centers(img, rows, cols)
    want = np.array(seed_centers(img, rows, cols), dtype=np.float64)
    assert got.shape == (rows * cols, 2)
    assert np.array_equal(got, want)
    if min(h, w) <= 2:
        event("a side of at most 2 pixels")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20),
       st.sampled_from(["random", "flat", "levels", "tenths"]),
       st.sampled_from([0.0, 10.0, 40.0, 1e154]),
       st.sampled_from(["seeded", "uniform", "half-pixel"]),
       st.integers(0, 2**32 - 1), st.data())
def test_assign_matches_loop_oracle(h, w, kind, compactness, centers, seed,
                                    data):
    rng = np.random.default_rng(seed)
    img = _frame(h, w, kind, rng)
    n = h * w
    if centers == "seeded":
        target = min(data.draw(st.integers(1, 2 * n)), n)
        c_pos = _seed_centers(img, *_grid_shape(h, w, target))
    else:  # anywhere in the frame, so that windows clip at every border
        k = data.draw(st.integers(1, 2 * n))
        c_pos = rng.random((k, 2)) * [h - 1, w - 1]
        if centers == "half-pixel":  # equal pixel distances tie
            c_pos = np.round(c_pos * 2) / 2
    c_col = img.pixels[tuple(np.rint(c_pos).astype(np.int64).T)]
    step = int(round(np.sqrt(n / len(c_pos))))
    # at 1e154 the square is finite, but some distances overflow to inf
    with np.errstate(over="ignore"):
        want = slic_assign(img.pixels, c_pos, c_col, step, compactness)
        got = _assign(img.pixels, c_pos, c_col, step, compactness)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if (want < 0).any():
        event("a pixel outside every window")


@st.composite
def _id_maps(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, values - 1),
                          min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=np.int32).reshape(h, w)


@settings(max_examples=200, deadline=None)
@given(_id_maps())
def test_flood_label_matches_bfs_oracle(ids):
    got, count = _flood_label(ids)
    want, want_count = flood_label(ids)
    assert count == want_count
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(_id_maps())
def test_touching_matches_pixel_pair_count(ids):
    want = {}
    h, w = ids.shape
    for y in range(h):
        for x in range(w):
            for ny, nx in ((y, x + 1), (y + 1, x)):
                if ny < h and nx < w and ids[y, x] != ids[ny, nx]:
                    key = tuple(sorted((int(ids[y, x]), int(ids[ny, nx]))))
                    want[key] = want.get(key, 0) + 1
    pairs, counts = _touching(ids, int(ids.max()) + 1)
    assert [tuple(p) for p in pairs.tolist()] == sorted(want)
    assert counts.tolist() == [want[k] for k in sorted(want)]


@settings(max_examples=200, deadline=None)
@given(_id_maps(), st.data())
def test_merge_bounded_matches_dilation_oracle(ids, data):
    comp, count = flood_label(ids)
    # upper below the count makes the upper rule merge; min_size up to the
    # pixel count lets the min_size rule merge between upper and lower
    upper = data.draw(st.integers(1, max(1, count - 1)))
    lower = data.draw(st.integers(1, upper))
    min_size = data.draw(st.integers(1, ids.size))
    want, want_count = merge_bounded(comp, count, min_size, lower, upper)
    got, got_count = _merge_bounded(comp.copy(), count, min_size, lower, upper)
    assert got_count == want_count
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if count > upper:
        event("upper rule merged")
    if want_count < merge_bounded(comp, count, 1, lower, upper)[1]:
        event("min_size rule merged")


@settings(max_examples=100, deadline=None)
@given(_id_maps(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_cluster_means_match_per_label_masks(ids, extra, seed):
    # ``extra`` labels beyond the map's values have no pixels
    count = int(ids.max()) + 1 + extra
    px = np.random.default_rng(seed).random(ids.shape + (3,))
    pos_y, pos_x = np.mgrid[:ids.shape[0], :ids.shape[1]]
    counts, pos, col = _cluster_means(ids, count, px, pos_y, pos_x)
    want_counts, want_pos, want_col = cluster_means(ids, count, px)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(pos, want_pos) and np.array_equal(col, want_col)


def _assert_split(before):
    count = int(before.max()) + 1
    out, grown = _split_largest(before.copy(), count)
    assert grown > count
    assert out.shape == before.shape
    sizes = np.bincount(out.ravel(), minlength=grown)
    assert sizes.sum() == before.size and (sizes > 0).all()
    for j in range(grown):
        _, pieces = ndimage.label(out == j, structure=FOUR)
        assert pieces == 1


def test_split_largest_of_single_component():
    _assert_split(np.zeros((5, 6), dtype=np.int32))


def test_split_largest_of_u_shaped_component():
    # label 0 is a U around label 1; its first 5 of 11 pixels in raster
    # order are the tops of both arms, which the renumbering makes two
    # labels, and the rest of the U stays one: 3 components become 5
    u = np.array([[0, 1, 1, 1, 0],
                  [0, 1, 1, 1, 0],
                  [0, 1, 1, 1, 0],
                  [0, 0, 0, 0, 0],
                  [2, 2, 2, 2, 2]], dtype=np.int32)
    _assert_split(u)
    assert _split_largest(u.copy(), 3)[1] == 5


def test_flat_frame_at_zero_compactness_splits_once(monkeypatch):
    # every pixel ties at distance 0, so the first center takes them all;
    # one component is below the lower bound of 2, and one split ends it
    calls = []
    split = motionseg.coloc._split_largest

    def spy(out, count):
        calls.append(count)
        return split(out, count)

    monkeypatch.setattr(motionseg.coloc, "_split_largest", spy)
    sp = slic_superpixels(RgbImage(np.full((4, 6, 3), 0.5)), 3, compactness=0)
    assert sp.n_superpixels == 2
    assert calls == [1]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 32), st.booleans(),
       st.integers(0, 2**32 - 1),
       st.one_of(st.just(0.0), st.floats(0, 10)), st.data())
def test_degenerate_frames_keep_the_count_and_connectivity(
        h, w, two_level, seed, compactness, data):
    # flat and two-level frames, a few rows high, are where the split runs,
    # mostly at compactness 0, where color ties hand whole runs of pixels
    # to one center
    rng = np.random.default_rng(seed)
    levels = rng.random((2, 3))
    img = RgbImage(levels[rng.integers(0, 1 + two_level, size=(h, w))])
    target = data.draw(st.integers(1, 2 * h * w + 1))
    with mock.patch.object(motionseg.coloc, "_split_largest",
                           wraps=motionseg.coloc._split_largest) as spy:
        sp = slic_superpixels(img, target, compactness)
    capped = min(target, h * w)
    assert (capped + 1) // 2 <= sp.n_superpixels <= 2 * capped
    for j in range(sp.n_superpixels):
        _, pieces = ndimage.label(sp.ids == j, structure=FOUR)
        assert pieces == 1
    if spy.called:
        event("_split_largest ran")


# ---------------------------------------------------------------------------
# prediction-seeded GMMs

def _half_image():
    px = np.zeros((4, 6, 3))
    px[:, :3] = [0.9, 0.1, 0.1]
    px[:, 3:] = [0.1, 0.1, 0.9]
    return RgbImage(px)


def test_seed_gmms_split_by_threshold():
    img = _half_image()
    s = np.zeros((4, 6, 2))
    s[:, :3] = [0.1, 0.9]   # left: category
    s[:, 3:] = [0.9, 0.1]   # right: background
    pair = seed_gmms_from_scores([img], [ScoreMap(s)], 1, n_components=1)
    assert np.allclose(pair.foreground.means[0], [0.9, 0.1, 0.1])
    assert np.allclose(pair.background.means[0], [0.1, 0.1, 0.9])


def test_seed_gmms_empty_sides():
    img = _half_image()
    flat = ScoreMap(np.full((4, 6, 2), 0.5))  # exactly 0.5 is excluded
    with pytest.raises(EmptyForeground):
        seed_gmms_from_scores([img], [flat], 1)
    fg_only = np.zeros((4, 6, 2))
    fg_only[:, :, 1] = 1.0
    with pytest.raises(EmptyBackground):
        seed_gmms_from_scores([img], [ScoreMap(fg_only)], 1)


def test_seed_gmms_pool_frames():
    imgs = [_half_image(), _half_image()]
    s = np.zeros((4, 6, 2))
    s[:, :3] = [0.1, 0.9]
    s[:, 3:] = [0.9, 0.1]
    maps = [ScoreMap(s), ScoreMap(s)]
    pair = seed_gmms_from_scores(imgs, maps, 1, n_components=1)
    assert np.allclose(pair.foreground.means[0], [0.9, 0.1, 0.1])


# ---------------------------------------------------------------------------
# superpixel graph cut

def test_unary_dominance_all_foreground():
    img = _half_image()
    sp = slic_superpixels(img, 4)
    # a background mixture far from every image color loses everywhere
    gmms = FgBgGmm(foreground=_gmm_at([0.5, 0.1, 0.5], spread=1.0),
                   background=_gmm_at([0.99, 0.99, 0.01], spread=1e-4))
    out = coloc_segment(img, sp, gmms)
    assert out.labels.all()


@pytest.mark.parametrize("fg_wins", [True, False])
def test_one_superpixel_has_no_edges_and_a_constant_labeling(fg_wins):
    img = _half_image()
    sp = slic_superpixels(img, 1)
    assert len(_touching(sp.ids, sp.n_superpixels)[0]) == 0
    near, far = _gmm_at(sp.mean_colors[0]), _gmm_at([0.0, 1.0, 0.0])
    gmms = (FgBgGmm(foreground=near, background=far) if fg_wins
            else FgBgGmm(foreground=far, background=near))
    out = coloc_segment(img, sp, gmms)
    assert (out.labels == int(fg_wins)).all()


def test_opposing_unaries_split_without_smoothing():
    px = np.zeros((1, 2, 3))
    px[0, 0] = [0.9, 0.1, 0.1]
    px[0, 1] = [0.1, 0.1, 0.9]
    img = RgbImage(px)
    sp = _singleton_map(img)
    gmms = FgBgGmm(foreground=_gmm_at([0.9, 0.1, 0.1]),
                   background=_gmm_at([0.1, 0.1, 0.9]))
    out = coloc_segment(img, sp, gmms, PairwiseParams(smoothness=1e-9))
    assert out.labels.ravel().tolist() == [1, 0]


def test_singleton_superpixels_equal_pixel_cut():
    rng = np.random.default_rng(57)
    for trial in range(5):
        img = random_image(rng, 3, 3)
        sp = _singleton_map(img)
        gmms = FgBgGmm(foreground=_gmm_at(rng.random(3), spread=0.05),
                       background=_gmm_at(rng.random(3), spread=0.05))
        params = PairwiseParams(smoothness=2.0)
        got = coloc_segment(img, sp, gmms, params)

        # pixel-level model with identical costs: NLL unaries, no band
        adj = GridAdjacency(3, 3)
        colors = img.pixels.reshape(-1, 3)
        unary = np.column_stack([nll(gmms.background, colors),
                                 nll(gmms.foreground, colors)])
        band = np.zeros((3, 3), dtype=bool)
        weights = np.array([
            potts_weight(colors[i], colors[j], divmod(i, 3), divmod(j, 3),
                         band, params)
            for i, j in adj.edges()])
        pixel_model = EnergyModel((0, 1), unary, weights, adj)
        pixel_cut = minimize_binary(pixel_model)
        assert np.array_equal(got.labels, pixel_cut.labels)

        # and both agree with exhaustive enumeration
        labelings = all_labelings(9, 2)
        energies = potts_energies(unary, adj.edges(), weights, labelings)
        best = labelings[int(np.argmin(energies))].reshape(3, 3)
        assert np.array_equal(got.labels, best)


def test_coloc_output_beats_constant_labelings():
    rng = np.random.default_rng(58)
    img = random_image(rng, 8, 9)
    sp = slic_superpixels(img, 6)
    gmms = FgBgGmm(foreground=_gmm_at(rng.random(3), spread=0.1),
                   background=_gmm_at(rng.random(3), spread=0.1))
    params = PairwiseParams()
    out = coloc_segment(img, sp, gmms, params)

    count = sp.ids.max() + 1
    unary = np.column_stack([
        sp.counts * nll(gmms.background, sp.mean_colors),
        sp.counts * nll(gmms.foreground, sp.mean_colors)])

    # recompute the superpixel pairwise costs from scratch
    edges = {}
    h, w = sp.ids.shape
    for y in range(h):
        for x in range(w):
            for dy, dx in ((0, 1), (1, 0)):
                yy, xx = y + dy, x + dx
                if yy < h and xx < w and sp.ids[y, x] != sp.ids[yy, xx]:
                    key = tuple(sorted((int(sp.ids[y, x]),
                                        int(sp.ids[yy, xx]))))
                    edges[key] = edges.get(key, 0) + 1

    def energy(labels_per_sp):
        total = sum(unary[j, labels_per_sp[j]] for j in range(count))
        for (a, b), length in edges.items():
            if labels_per_sp[a] != labels_per_sp[b]:
                d2 = ((sp.mean_colors[a] - sp.mean_colors[b]) ** 2).sum()
                dist = max(np.hypot(*(sp.centroids[a] - sp.centroids[b])),
                           _MIN_CENTROID_DIST)
                total += (params.smoothness * length
                          * np.exp(-params.contrast_scale * d2) / dist)
        return total

    out_sp = np.array([out.labels[sp.ids == j][0] for j in range(count)])
    assert energy(out_sp) <= energy(np.zeros(count, dtype=int)) + 1e-9
    assert energy(out_sp) <= energy(np.ones(count, dtype=int)) + 1e-9


def test_coloc_cut_certificate_on_superpixel_graph(monkeypatch):
    scene = two_object_scene(6, height=48, width=64)
    sp = slic_superpixels(scene.image, 120)
    gmms = seed_gmms_from_scores([scene.image], [scene.scores], 1)
    cuts = recorded_cuts(monkeypatch)
    coloc_segment(scene.image, sp, gmms)
    (net, res), = cuts
    assert net.node_count == sp.n_superpixels and len(net.arc_head) > 0
    assert res.flow_value == pytest.approx(cut_capacity_of(net, res.side),
                                           rel=1e-9)


def test_superpixel_enclosing_another_gets_a_finite_edge_weight(tmp_path):
    # at 1000 superpixels this frame has a one-pixel superpixel inside an
    # 8-pixel ring, and the two centroids are the same point
    write_blob_dataset(tmp_path, seed=7, videos_per_category=1, height=48,
                       width=64, with_scores=True)
    img = read_image(tmp_path / "blue_00" / "frame_008.ppm")
    sp = slic_superpixels(img, 1000)
    edges, _ = _touching(sp.ids, sp.n_superpixels)
    gap = sp.centroids[edges[:, 0]] - sp.centroids[edges[:, 1]]
    assert not np.abs(gap).sum(axis=1).all()
    gmms = FgBgGmm(foreground=_gmm_at([0.2, 0.2, 0.8], spread=0.1),
                   background=_gmm_at([0.5, 0.5, 0.5], spread=0.1))
    assert coloc_segment(img, sp, gmms).labels.shape == (48, 64)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_coloc_segment_returns_on_any_slic_map(h, w, flat, seed, data):
    # the flow network refuses a non-finite capacity, so returning shows
    # that every edge weight is finite
    rng = np.random.default_rng(seed)
    img = _frame(h, w, "flat" if flat else "random", rng)
    sp = slic_superpixels(img, data.draw(st.integers(1, h * w)))
    gmms = FgBgGmm(foreground=_gmm_at(rng.random(3), spread=0.1),
                   background=_gmm_at(rng.random(3), spread=0.1))
    assert coloc_segment(img, sp, gmms).labels.shape == (h, w)


# ---------------------------------------------------------------------------
# bounding boxes

def test_box_of_empty_map_is_none():
    assert largest_component_box(LabelMap(np.zeros((4, 4), dtype=np.int32))) is None


def test_box_of_largest_component():
    x = np.zeros((6, 10), dtype=np.int32)
    x[0, 0:5] = 1          # size 5
    x[3:6, 5:8] = 1        # size 9
    box = largest_component_box(LabelMap(x))
    assert box == BoundingBox(x_min=5, y_min=3, x_max=7, y_max=5)


def test_box_single_pixel():
    x = np.zeros((6, 6), dtype=np.int32)
    x[4, 3] = 1
    assert largest_component_box(LabelMap(x)) == BoundingBox(3, 4, 3, 4)


def test_box_tie_takes_first_in_scan_order():
    x = np.zeros((3, 9), dtype=np.int32)
    x[1, 0:3] = 1
    x[1, 6:9] = 1
    box = largest_component_box(LabelMap(x))
    assert (box.x_min, box.x_max) == (0, 2)


def test_box_components_are_four_connected():
    # two blocks touching only diagonally are separate components
    x = np.zeros((4, 4), dtype=np.int32)
    x[0:2, 0:2] = 1
    x[2:4, 2:4] = 1
    x[3, 3] = 0  # second block smaller
    box = largest_component_box(LabelMap(x))
    assert box == BoundingBox(0, 0, 1, 1)


def test_box_tightness():
    rng = np.random.default_rng(59)
    for _ in range(10):
        x = (rng.random((7, 8)) < 0.4).astype(np.int32)
        box = largest_component_box(LabelMap(x))
        if box is None:
            assert not x.any()
            continue
        fg = x > 0
        assert fg[box.y_min:box.y_max + 1, box.x_min].any()
        assert fg[box.y_min:box.y_max + 1, box.x_max].any()
        assert fg[box.y_min, box.x_min:box.x_max + 1].any()
        assert fg[box.y_max, box.x_min:box.x_max + 1].any()


@settings(max_examples=300, deadline=None)
@given(_id_maps())
def test_box_matches_scipy_label_reference(ids):
    comp, count = ndimage.label(ids > 0, structure=FOUR)
    got = largest_component_box(LabelMap(ids))
    if count == 0:
        assert got is None
        return
    sizes = np.bincount(comp.ravel())[1:]
    best = int(np.argmax(sizes)) + 1  # scipy numbers by first pixel
    rows, cols = np.nonzero(comp == best)
    assert got == BoundingBox(int(cols.min()), int(rows.min()),
                              int(cols.max()), int(rows.max()))
    if (sizes == sizes.max()).sum() > 1:
        event("equal-size tie")


def test_flood_label_matches_bfs_oracle_on_large_maps():
    # components spanning many row runs take several hooking rounds
    rng = np.random.default_rng(61)
    for p in (0.45, 0.55, 0.6):
        ids = (rng.random((48, 64)) < p).astype(np.int32)
        got, count = _flood_label(ids)
        want, want_count = flood_label(ids)
        assert count == want_count and np.array_equal(got, want)


def test_bounding_box_validation():
    for coords in ((5, 0, 4, 0), (0, 5, 0, 4), (-5, 2, 3, 3), (1, -1, 3, 3)):
        with pytest.raises(ValueError):
            BoundingBox(*coords)
    assert BoundingBox(1, 2, 3, 5).area == 3 * 4
