import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from motionseg.core import MotionMask, RgbImage
from motionseg.errors import EmptyBackground, EmptyForeground, TooFewSamples
from motionseg.gmm import (
    EM_MAX_ITER,
    EM_TOL,
    VARIANCE_FLOOR,
    FgBgGmm,
    Gmm,
    _features,
    _log_terms,
    _logsumexp,
    _m_step,
    _moment_e_step,
    _moment_gmm,
    _moment_m_step,
    fit_fgbg,
    fit_gmm,
    frame_distance_weight,
    motion_color_samples,
    nll,
)
from motionseg.synthetic import blob_video_frames

from helpers import fit_fgbg_from_motion
from oracles import (gaussian_mixture_nll, motion_samples, reference_fit_gmm,
                     weighted_gaussians)


def _random_gmm(rng, k=3):
    a = rng.standard_normal((k, 3, 3)) * 0.2
    covs = np.einsum("kij,klj->kil", a, a) + 0.05 * np.eye(3)
    w = rng.random(k) + 0.1
    return Gmm(w / w.sum(), rng.random((k, 3)), covs)


def test_identical_samples_hit_the_variance_floor():
    color = np.array([0.3, 0.6, 0.9])
    g = fit_gmm(np.tile(color, (40, 1)), n_components=1)
    assert np.allclose(g.means[0], color)
    assert np.allclose(g.covariances[0], VARIANCE_FLOOR * np.eye(3), atol=1e-12)
    assert g.weights[0] == 1.0


def test_dead_components_keep_zero_weight_and_the_floor():
    # one distinct color: k-means++ stacks every center on it, so the
    # nearest-center bootstrap gives all mass to component 0
    color = np.array([0.3, 0.6, 0.9])
    g = fit_gmm(np.tile(color, (40, 1)), n_components=3)
    assert g.weights.tolist() == [1.0, 0.0, 0.0]
    for k in (1, 2):
        assert np.array_equal(g.means[k], np.zeros(3))
        assert np.array_equal(g.covariances[k], VARIANCE_FLOOR * np.eye(3))
    assert np.isfinite(nll(g, np.zeros(3)))
    # near the mean, where the dense oracle's density does not underflow
    for probe in (color, color + 1e-3, color - [2e-3, 0.0, 1e-3]):
        got = nll(g, probe)
        direct = gaussian_mixture_nll(g.weights, g.means, g.covariances, probe)
        assert np.isfinite(got) and np.isfinite(direct)
        assert abs(got - direct) <= 1e-12 * abs(direct)


@pytest.mark.parametrize("color", [[0.3, 0.6, 0.9], [-0.0, 0.0, -0.0],
                                   [-0.5, 0.2, -3.0]])
@pytest.mark.parametrize("weighted", [False, True])
def test_dead_components_are_positive_zero_and_the_floor_by_bytes(
        color, weighted):
    # a dead component's moments come from an all-zero row of weighted
    # responsibilities, so they must be +0.0 even where the colors carry
    # a sign bit; np.array_equal cannot tell -0.0 from +0.0, bytes can
    weights = np.linspace(0.1, 2.0, 40) if weighted else None
    g = fit_gmm(np.tile(color, (40, 1)), weights, n_components=3)
    assert g.weights[0] == 1.0
    assert g.weights[1:].tobytes() == np.zeros(2).tobytes()
    assert g.means[1:].tobytes() == np.zeros((2, 3)).tobytes()
    floor = np.tile(VARIANCE_FLOOR * np.eye(3), (2, 1, 1))
    assert g.covariances[1:].tobytes() == floor.tobytes()


def _soft_assignments(rng, trial):
    """Colors (a flat channel on odd trials, so the floor is active),
    weights and (N, K) responsibilities with some components dead."""
    k = int(rng.integers(1, 6))
    n = int(rng.integers(k, 200))
    colors = rng.random((n, 3))
    if trial % 2:
        colors[:, 2] = 0.5
    weights = rng.random(n) + 0.1
    resp = rng.random((n, k))
    dead = rng.random(k) < 0.3
    dead[0] = False
    resp[:, dead] = 0.0
    resp /= resp.sum(axis=1, keepdims=True)
    return colors, weights, resp


def test_m_step_matches_the_per_component_oracle():
    # EM loop's feature step on K components, some dead, and the
    # one-component fit's direct step on the same colors and weights
    rng = np.random.default_rng(11)
    for trial in range(20):
        colors, weights, resp = _soft_assignments(rng, trial)
        loop = _moment_m_step(_features(colors), weights,
                              np.ascontiguousarray(resp.T))
        one = _m_step(colors, weights)
        for params, r in ((loop, resp), (one, np.ones((len(colors), 1)))):
            g = _moment_gmm(*params)
            mix, means, covs = weighted_gaussians(colors, weights, r,
                                                  VARIANCE_FLOOR)
            for got, want in ((g.weights, mix), (g.means, means),
                              (g.covariances, covs)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_loop_e_step_matches_the_cholesky_nll():
    # mixtures of the feature M-step, floor-active and dead components
    # included, probed on fresh colors of the same kind; the largest
    # relative difference on these trials is 3.3e-12 (5.2e-12 on 2,000)
    rng = np.random.default_rng(14)
    for trial in range(40):
        colors, weights, resp = _soft_assignments(rng, trial)
        params = _moment_m_step(_features(colors), weights,
                                np.ascontiguousarray(resp.T))
        probe, probe_w, _ = _soft_assignments(rng, trial)
        got = _moment_e_step(_features(probe), probe_w, *params)[1]
        want = float((probe_w * nll(_moment_gmm(*params), probe)).sum())
        assert abs(got - want) <= 1e-9 * abs(want)


def test_loop_e_step_responsibilities_match_scipy_softmax():
    # the E-step normalizes each column by its own maximum; on mixtures of
    # the feature M-step, floor-active and dead components included, its
    # responsibilities are scipy's softmax of the Cholesky log terms, and
    # each column sums to 1 within one rounding per component
    rng = np.random.default_rng(15)
    for trial in range(40):
        colors, weights, resp = _soft_assignments(rng, trial)
        feats = _features(colors)
        params = _moment_m_step(feats, weights, np.ascontiguousarray(resp.T))
        got = _moment_e_step(feats, weights, *params)[0]
        want = softmax(_log_terms(_moment_gmm(*params), colors), axis=0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        assert np.abs(got.sum(axis=0) - 1.0).max() <= len(got) * 2.0**-52


def test_two_blobs_recover_their_centroids():
    rng = np.random.default_rng(5)
    c0, c1 = np.array([0.2, 0.2, 0.2]), np.array([0.8, 0.8, 0.8])
    blob0 = np.clip(c0 + 0.005 * rng.standard_normal((120, 3)), 0, 1)
    blob1 = np.clip(c1 + 0.005 * rng.standard_normal((120, 3)), 0, 1)
    samples = np.concatenate([blob0, blob1])
    g = fit_gmm(samples, n_components=2, seed=0)
    # independent oracle: the per-blob sample centroids
    centroids = sorted([blob0.mean(axis=0), blob1.mean(axis=0)],
                       key=lambda m: m[0])
    fitted = sorted(g.means, key=lambda m: m[0])
    for got, want in zip(fitted, centroids):
        assert np.abs(got - want).max() < 0.01


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        fit_gmm(np.zeros((3, 3)), n_components=5)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bad", ["nan weight", "inf weight",
                                 "overflowing weights", "nan color",
                                 "inf color"])
def test_non_finite_input_is_refused_by_name(k, bad):
    rng = np.random.default_rng(3)
    colors, weights = rng.random((12, 3)), np.ones(12)
    if bad == "nan weight":
        weights[4] = np.nan
    elif bad == "inf weight":
        weights[4] = np.inf
    elif bad == "overflowing weights":
        weights[:] = 1e308  # each finite, the sum is not
    elif bad == "nan color":
        colors[4, 1] = np.nan
    else:
        colors[4, 1] = -np.inf
    match = ("colors must be finite" if bad.endswith("color") else
             "sample weights must be positive, with a finite sum")
    with pytest.raises(ValueError, match=match):
        fit_gmm(colors, weights, n_components=k)


def test_component_count_must_be_positive():
    for k in (0, -1):
        with pytest.raises(ValueError, match="n_components must be >= 1"):
            fit_gmm(np.zeros((3, 3)), n_components=k)


def test_nll_analytic_single_gaussian():
    mu = np.array([0.4, 0.5, 0.6])
    g = Gmm(np.array([1.0]), mu[None, :], np.eye(3)[None, :, :])
    base = 1.5 * np.log(2 * np.pi)
    assert abs(nll(g, mu) - base) < 1e-12
    # distance d from the mean adds d^2 / 2
    d = 0.3
    off = mu + np.array([d, 0.0, 0.0])
    assert abs(nll(g, off) - (base + d * d / 2)) < 1e-12


def test_mixture_likelihood_dominates_weighted_components():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = _random_gmm(rng)
        color = rng.random(3)
        mix_like = np.exp(-nll(g, color))
        for k in range(g.n_components):
            single = Gmm(np.array([1.0]), g.means[k:k + 1],
                         g.covariances[k:k + 1])
            part = g.weights[k] * np.exp(-nll(single, color))
            assert mix_like >= part - 1e-12


def test_nll_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = _random_gmm(rng, k=int(rng.integers(1, 5)))
        color = rng.random(3)
        direct = gaussian_mixture_nll(g.weights, g.means, g.covariances, color)
        assert abs(nll(g, color) - direct) <= 1e-9 * max(1.0, abs(direct))


def test_nll_finite_even_far_away():
    g = Gmm(np.array([1.0]), np.zeros((1, 3)),
            (VARIANCE_FLOOR * np.eye(3))[None, :, :])
    assert np.isfinite(nll(g, np.ones(3)))


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(12)
    cases = [rng.normal(0.0, 30.0, (k, n))
             for k, n in ((1, 1), (1, 50), (5, 1), (3, 200))]
    cases.append(np.round(rng.normal(0.0, 2.0, (4, 300))))  # ties
    cases.append(np.zeros((3, 20)))                          # all tied
    dead = rng.normal(0.0, 5.0, (4, 100))
    dead[[1, 3]] = -np.inf                                   # dead rows
    cases.append(dead)
    # a fitted mixture with dead components, probed on quantized colors
    g = fit_gmm(np.tile([0.3, 0.6, 0.9], (40, 1)), n_components=3)
    cases.append(_log_terms(g, np.round(rng.random((64, 3)) * 4) / 4))
    for terms in cases:
        np.testing.assert_array_max_ulp(_logsumexp(terms),
                                        logsumexp(terms, axis=0), maxulp=2)


def test_em_history_is_non_increasing():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(12, 60))
        colors = rng.random((n, 3))
        weights = rng.random(n) + 0.1
        _, history = fit_gmm(colors, weights, n_components=3,
                             seed=int(rng.integers(1000)),
                             return_history=True)
        diffs = np.diff(history)
        assert (diffs <= 1e-9).all(), f"NLL increased: {history}"


def _weighted_colors(rng, n, kind):
    """(n, 3) colors of one of three shapes, and positive weights."""
    if kind == "uniform":
        colors = rng.random((n, 3))
    elif kind == "quantized":
        colors = np.round(rng.random((n, 3)) * 3) / 3
    else:  # clustered around a few centers
        centers = rng.random((4, 3))
        colors = np.clip(centers[rng.integers(0, 4, n)]
                         + 0.02 * rng.standard_normal((n, 3)), 0.0, 1.0)
    return colors, rng.uniform(0.05, 2.0, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 200),
       st.sampled_from(["uniform", "quantized", "clustered"]),
       st.integers(0, 2**32 - 1))
def test_em_stops_at_the_first_step_below_the_per_sample_tolerance(
        k, extra, kind, seed):
    rng = np.random.default_rng(seed)
    colors, weights = _weighted_colors(rng, k + extra, kind)
    _, history = fit_gmm(colors, weights, n_components=k, seed=seed,
                         return_history=True)
    steps = np.abs(np.diff(history))
    tol = EM_TOL * weights.sum()
    assert 2 <= len(history) <= EM_MAX_ITER
    assert steps[-1] < tol or len(history) == EM_MAX_ITER
    assert (steps[:-1] >= tol).all()


def test_em_stopping_reads_the_mean_nll_not_the_total_weight():
    rng = np.random.default_rng(13)
    for trial in range(12):
        k = trial % 5 + 1
        colors, weights = _weighted_colors(
            rng, int(rng.integers(k, 300)),
            ("uniform", "quantized", "clustered")[trial % 3])
        g1, h1 = fit_gmm(colors, weights, k, seed=trial, return_history=True)
        # scaling by 4 is exact in floating point, so every EM quantity
        # scales exactly and only the stopping rule could tell them apart
        g4, h4 = fit_gmm(colors, 4.0 * weights, k, seed=trial,
                         return_history=True)
        assert len(h1) == len(h4)
        for name in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(g1, name), getattr(g4, name))


def test_blob_video_fits_stop_well_before_the_cap():
    images, _, masks = blob_video_frames(0, "red")
    fg_c, fg_w, bg_c, bg_w = motion_color_samples(list(zip(images, masks)), 15)
    for colors, weights in ((fg_c, fg_w), (bg_c, bg_w)):
        _, history = fit_gmm(colors, weights, n_components=5, seed=0,
                             return_history=True)
        # a total-NLL relative tolerance of 1e-6 ran both to the cap of 100
        assert len(history) < 30


def _lattice_or_not(rng, n, kind):
    """(n, 3) colors from a small 8-bit palette, so equal colors repeat,
    with 0 as -0.0 at random; off the lattice by one ulp or above 1."""
    palette = rng.integers(0, 256, (int(rng.integers(1, 8)), 3))
    palette[rng.random(palette.shape) < 0.2] = 0
    palette[rng.random(palette.shape) < 0.2] = 255
    colors = palette[rng.integers(0, len(palette), n)] / 255.0
    colors[(colors == 0.0) & (rng.random(colors.shape) < 0.5)] = -0.0
    i, c = int(rng.integers(n)), int(rng.integers(3))
    if kind == "one ulp off":
        colors[i, c] = np.nextafter(colors[i, c], 2.0)
    elif kind == "above 1":
        colors[i, c] += 1.0
    return colors


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 5]), st.integers(0, 60),
       st.sampled_from(["lattice", "one ulp off", "above 1"]),
       st.integers(0, 2**32 - 1))
def test_fit_matches_full_em_byte_for_byte(k, extra, kind, seed):
    rng = np.random.default_rng(seed)
    colors = _lattice_or_not(rng, k + extra, kind)
    weights = rng.uniform(0.05, 2.0, len(colors))
    perm = rng.permutation(len(colors))
    for c, w in ((colors, weights), (colors[perm], weights[perm])):
        g, history = fit_gmm(c, w, k, seed, return_history=True)
        ref, ref_history = reference_fit_gmm(c, w, k, seed,
                                             return_history=True)
        assert history == ref_history
        for name in ("weights", "means", "covariances"):
            assert getattr(g, name).tobytes() == getattr(ref, name).tobytes()
        # the one-component fit returns early without a history
        assert fit_gmm(c, w, k, seed).means.tobytes() == g.means.tobytes()


def test_one_component_history_runs_to_the_cap_when_tol_underflows():
    # EM_TOL times a subnormal weight sum is 0, so no step can stop EM
    rng = np.random.default_rng(0)
    colors = rng.integers(0, 256, (12, 3)) / 255.0
    weights = np.full(12, 5e-324)
    g, history = fit_gmm(colors, weights, 1, return_history=True)
    ref, ref_history = reference_fit_gmm(colors, weights, 1, 0,
                                         return_history=True)
    assert len(history) == EM_MAX_ITER and history == ref_history
    assert g.means.tobytes() == ref.means.tobytes()


def _pinned_fit_case(name):
    """Colors and weights of a pinned fit: 8-bit colors or floats with a
    flat channel, unweighted or weighted, and weights at the ends of the
    float range."""
    rng = np.random.default_rng(36)
    lattice = rng.integers(0, 256, (400, 3)) / 255.0
    flat = rng.random((300, 3))
    flat[:, 1] = 0.25
    weights = rng.uniform(0.05, 2.0, 400)
    return {
        "8-bit": (lattice, None),
        "8-bit, weighted": (lattice, weights),
        "flat channel": (flat, None),
        "flat channel, weighted": (flat, weights[:300]),
        "subnormal weights": (lattice[:40],
                              rng.integers(1, 1000, 40) * 5e-324),
        "1e300 weights": (flat[:40], weights[:40] * 1e300),
    }[name]


@pytest.mark.parametrize("name, digest", [
    ("8-bit",
     "de5abc2f2950ea28d398c2c29b256123dc7bff11c50202c6ff32eb6eab689e19"),
    ("8-bit, weighted",
     "bed99cabc4b4b8562a3a80f4856addc4b328b110e9b3da5693c106c56295ab54"),
    ("flat channel",
     "f3c910c3e58e56a5493d4a5ba506baee8bbd06f112a8c3c2d849a20d974caadf"),
    ("flat channel, weighted",
     "483dbf5853420f7462b15ae1d9ac86b9b48581ee13949addb56d5f9a4f69d587"),
    ("subnormal weights",
     "1c21fbe25e8fae11b3e48830cc5a133af8c014dab3cebdd93607e990583cecba"),
    ("1e300 weights",
     "6c69ae8464412f0d48564aa32b695bb24c42573d8f4822b7bd91cc173f321ed7"),
])
def test_one_component_fit_bytes_are_pinned(name, digest):
    # sha256 of the weights, means, covariances and history of the
    # one-component fit, whose direct M-step no other test pins
    colors, weights = _pinned_fit_case(name)
    g, history = fit_gmm(colors, weights, 1, return_history=True)
    got = hashlib.sha256(b"".join(
        a.tobytes() for a in (g.weights, g.means, g.covariances,
                              np.array(history)))).hexdigest()
    assert got == digest


@pytest.mark.parametrize("name, k, digest", [
    ("8-bit", 2,
     "fcce7c86e4fba30d45c82fa5185ec6f8a069c1e284b174a3f1fd8eaa466a68f1"),
    ("8-bit", 5,
     "f5fec78a63affc59b4af46b4089a1af300c160f741746bd5aa2e5c35a20d0628"),
    ("8-bit, weighted", 2,
     "25dd0f1a7d2cad4f53a1c454f9164b715e08a1bec7a12cdb0a198d1907d569bd"),
    ("8-bit, weighted", 5,
     "f39beded7c3638efbcad164b1f8b9a011303065179fdf00fc7abf896fab9d1d9"),
    ("flat channel", 2,
     "e51c5808461a13537214bb803eb129813335276e46cdd43ec1ba1926c3e65984"),
    ("flat channel", 5,
     "4142711e7aaa5b2d5bad86adec89db90d2a4451ae104c3c7bbd24b3dab6551ef"),
    ("flat channel, weighted", 2,
     "4d0a4b2e3526989ff9e9f5417737ee5dac06751a2490b43a4ca05d1b798fc544"),
    ("flat channel, weighted", 5,
     "cc508187258d45ba75515945d28810dfb68dafa6b7f49ad78837c73cb925f68c"),
])
def test_multi_component_fit_bytes_are_pinned(name, k, digest):
    # sha256 of the weights, means, covariances and history of EM's loop,
    # recorded when the E-step first normalized by the column maximum
    colors, weights = _pinned_fit_case(name)
    g, history = fit_gmm(colors, weights, k, return_history=True)
    got = hashlib.sha256(b"".join(
        a.tobytes() for a in (g.weights, g.means, g.covariances,
                              np.array(history)))).hexdigest()
    assert got == digest


def test_fit_is_sample_order_independent():
    rng = np.random.default_rng(9)
    colors = rng.random((80, 3))
    weights = rng.random(80) + 0.1
    g1 = fit_gmm(colors, weights, n_components=3, seed=4)
    perm = rng.permutation(80)
    g2 = fit_gmm(colors[perm], weights[perm], n_components=3, seed=4)
    probe = rng.random((50, 3))
    assert np.abs(nll(g1, probe) - nll(g2, probe)).max() < 1e-6


def test_fitted_gmm_invariants():
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = fit_gmm(rng.random((50, 3)), n_components=4,
                    seed=int(rng.integers(100)))
        assert abs(g.weights.sum() - 1.0) < 1e-9
        assert (g.weights >= 0).all()
        for cov in g.covariances:
            assert np.linalg.eigvalsh(cov).min() >= VARIANCE_FLOOR - 1e-12


def test_frame_distance_weight():
    assert [frame_distance_weight(0, t) for t in range(3)] == [1.0, 0.5, 1 / 3]
    assert frame_distance_weight(5, 3) == frame_distance_weight(3, 5)


def _frame(colors, mask):
    return RgbImage(np.asarray(colors, dtype=np.float64)), \
        MotionMask(np.asarray(mask, dtype=np.uint8))


def test_single_frame_batch_weights_are_one():
    frame = _frame([[[0.1] * 3, [0.9] * 3]], [[1, 0]])
    fg_c, fg_w, bg_c, bg_w = motion_color_samples([frame], 0)
    assert np.array_equal(fg_w, [1.0]) and np.array_equal(bg_w, [1.0])
    assert np.allclose(fg_c, [[0.1] * 3]) and np.allclose(bg_c, [[0.9] * 3])


def test_batch_weights_follow_frame_distance():
    frames = [_frame([[[0.1 * (t + 1)] * 3, [0.9] * 3]], [[1, 0]])
              for t in range(3)]
    fg_c, fg_w, _, _ = motion_color_samples(frames, 0)
    assert np.allclose(sorted(fg_w, reverse=True), [1.0, 0.5, 1 / 3])
    # the weight-1 sample is the target frame's own foreground pixel
    assert np.allclose(fg_c[np.argmax(fg_w)], [0.1] * 3)


def test_foreground_restricted_to_masked_frames():
    lone = _frame([[[0.25] * 3, [0.75] * 3]], [[1, 0]])
    empty = _frame([[[0.5] * 3, [0.75] * 3]], [[0, 0]])
    fg_c, _, _, _ = motion_color_samples([lone, empty], 0)
    assert np.allclose(fg_c, [[0.25] * 3])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                          st.integers(0, 2 ** 9 - 1)), min_size=1, max_size=3),
       st.data())
def test_samples_follow_the_per_frame_loop(shapes, data):
    # frames of several sizes, some with an empty side, all of one side
    rng = np.random.default_rng(len(shapes))
    frames = [_frame(rng.random((h, w, 3)),
                     (bits >> np.arange(h * w) & 1).reshape(h, w))
              for h, w, bits in shapes]
    target = data.draw(st.integers(0, len(frames) - 1))
    got = motion_color_samples(frames, target)
    want = motion_samples(frames, target)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and np.array_equal(g, w)


def test_empty_sides_raise():
    all_bg = _frame([[[0.5] * 3]], [[0]])
    with pytest.raises(EmptyForeground):
        fit_fgbg_from_motion([all_bg], 0)
    all_fg = _frame([[[0.5] * 3]], [[1]])
    with pytest.raises(EmptyBackground):
        fit_fgbg_from_motion([all_fg], 0)


@pytest.mark.parametrize("n_fg, n_bg, err", [
    (0, 4, EmptyForeground), (4, 0, EmptyBackground), (0, 0, EmptyForeground),
])
def test_fit_fgbg_refuses_an_empty_side(n_fg, n_bg, err):
    rng = np.random.default_rng(6)
    with pytest.raises(err):
        fit_fgbg(rng.random((n_fg, 3)), None, rng.random((n_bg, 3)), None,
                 n_components=2)


def test_fit_fgbg_from_motion_single_frame_reduces_to_fit_gmm():
    rng = np.random.default_rng(11)
    colors = rng.random((4, 6, 3))
    mask = np.zeros((4, 6), dtype=np.uint8)
    mask[1:3, 1:4] = 1
    frame = (RgbImage(colors), MotionMask(mask))
    pair = fit_fgbg_from_motion([frame], 0, n_components=2, seed=3)
    direct_fg = fit_gmm(colors[mask == 1], n_components=2, seed=3)
    direct_bg = fit_gmm(colors[mask == 0], n_components=2, seed=3)
    probe = rng.random((20, 3))
    assert np.allclose(nll(pair.foreground, probe), nll(direct_fg, probe))
    assert np.allclose(nll(pair.background, probe), nll(direct_bg, probe))
    assert isinstance(pair, FgBgGmm)


def test_fit_fgbg_caps_components_at_the_smaller_side():
    rng = np.random.default_rng(5)
    fg, bg = rng.random((2, 3)), rng.random((40, 3))
    pair = fit_fgbg(fg, None, bg, np.full(40, 0.5), n_components=5, seed=1)
    assert pair.foreground.n_components == pair.background.n_components == 2
    direct = fit_gmm(bg, np.full(40, 0.5), n_components=2, seed=1)
    assert np.array_equal(pair.background.means, direct.means)
    assert np.array_equal(pair.foreground.means,
                          fit_gmm(fg, n_components=2, seed=1).means)


def test_fit_fgbg_from_motion_caps_components():
    colors = np.random.default_rng(12).random((3, 4, 3))
    mask = np.zeros((3, 4), dtype=np.uint8)
    mask[1, 1:3] = 1
    pair = fit_fgbg_from_motion([_frame(colors, mask)], 0, n_components=5)
    assert pair.foreground.n_components == pair.background.n_components == 2
