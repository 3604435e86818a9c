import numpy as np
import pytest

from motionseg.core import PROB_FLOOR, LabelMap, RgbImage, ScoreMap
from motionseg.energy import PairwiseParams, build_energy, potts_weights
from motionseg.errors import DimensionMismatch, LabelOutOfRange, ZeroCount
from motionseg.gmm import FgBgGmm, fit_gmm, nll
from motionseg.loss import ClassWeights, class_weights, weighted_nll_loss

from oracles import fd_loss_gradient, weighted_ce_loss


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def test_class_weights_formula():
    cw = class_weights({1: 100, 2: 50}, 3)
    assert cw.weights.tolist() == [1.0, 0.5, 1.0]


def test_class_weights_single_class():
    assert class_weights({1: 17}, 2).weights.tolist() == [1.0, 1.0]


def test_class_weights_equal_counts():
    assert class_weights({1: 5, 2: 5, 3: 5}, 4).weights.tolist() == [1.0] * 4


def test_class_weights_scale_invariance():
    a = class_weights({1: 3, 2: 9, 3: 6}, 4)
    b = class_weights({1: 300, 2: 900, 3: 600}, 4)
    assert np.allclose(a.weights, b.weights)


def test_class_weights_errors():
    with pytest.raises(ZeroCount):
        class_weights({1: 10, 2: 0}, 3)
    with pytest.raises(ZeroCount):
        class_weights({1: 10}, 3)  # label 2 has no count
    with pytest.raises(LabelOutOfRange):
        class_weights({0: 5, 1: 5}, 2)  # background is not counted


def test_class_weights_type_invariants():
    with pytest.raises(ValueError):
        ClassWeights(np.array([0.5, 1.0]))  # background weight must be 1
    with pytest.raises(ValueError):
        ClassWeights(np.array([1.0, 1.5]))  # above 1


def test_class_weights_refuse_nan():
    with pytest.raises(ValueError):
        ClassWeights(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ClassWeights(np.array([1.0, 0.5, np.nan]))


def test_loss_zero_on_perfect_prediction():
    scores = ScoreMap(np.dstack([np.ones((2, 2)), np.zeros((2, 2))]))
    labels = LabelMap(np.zeros((2, 2), dtype=np.int32))
    cw = ClassWeights(np.array([1.0, 1.0]))
    loss, grad = weighted_nll_loss(scores, labels, cw)
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_zero_score_costs_minus_log_prob_floor():
    # one floor for both users of a probability's log: the training loss
    # and the prediction unary of the inference energy
    zero_bg = ScoreMap(np.array([[[0.0, 1.0]]]))
    loss, _ = weighted_nll_loss(zero_bg, LabelMap(np.array([[0]])),
                                ClassWeights(np.array([1.0, 1.0])))
    assert loss == -np.log(PROB_FLOOR)
    rng = np.random.default_rng(38)
    gmms = FgBgGmm(foreground=fit_gmm(rng.random((10, 3)), n_components=1),
                   background=fit_gmm(rng.random((10, 3)), n_components=1))
    img = RgbImage(rng.random((1, 1, 3)))
    m = build_energy(img, gmms, zero_bg, (0, 1), 1.0, potts_weights(
        img, np.zeros((1, 1), dtype=bool), PairwiseParams()))
    gmm_cost = nll(gmms.background, img.pixels.reshape(-1, 3))[0]
    assert m.unary[0, 0] == gmm_cost - np.log(PROB_FLOOR)


def test_loss_single_pixel_analytic():
    scores = ScoreMap(np.array([[[0.5, 0.5]]]))
    labels = LabelMap(np.array([[0]]))
    cw = ClassWeights(np.array([1.0, 1.0]))
    loss, _ = weighted_nll_loss(scores, labels, cw)
    assert abs(loss - np.log(2.0)) < 1e-12


def test_gradient_closed_form():
    rng = np.random.default_rng(34)
    logits = rng.standard_normal((3, 4, 3))
    p = _softmax(logits)
    labels = rng.integers(0, 3, size=(3, 4))
    cw = ClassWeights(np.array([1.0, 0.25, 0.8]))
    _, grad = weighted_nll_loss(ScoreMap(p), LabelMap(labels), cw)
    onehot = np.eye(3)[labels]
    want = cw.weights.take(labels)[:, :, None] * (p - onehot)
    assert np.allclose(grad, want)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(35)
    for _ in range(10):
        h, w, c = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
        logits = rng.standard_normal((h, w, c))
        labels = rng.integers(0, c, size=(h, w))
        raw = rng.random(c - 1)
        weights = np.concatenate([[1.0], raw / max(raw.max(), 1e-6)])
        cw = ClassWeights(weights)
        _, grad = weighted_nll_loss(ScoreMap(_softmax(logits)),
                                    LabelMap(labels), cw)
        fd = fd_loss_gradient(logits, labels, weights)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad - fd).max() / scale < 1e-5


def test_loss_equals_direct_cross_entropy():
    rng = np.random.default_rng(36)
    logits = rng.standard_normal((4, 5, 4))
    labels = rng.integers(0, 4, size=(4, 5))
    weights = np.array([1.0, 0.5, 0.25, 1.0])
    loss, _ = weighted_nll_loss(ScoreMap(_softmax(logits)), LabelMap(labels),
                                ClassWeights(weights))
    assert abs(loss - weighted_ce_loss(logits, labels, weights)) < 1e-9


def test_loss_invariant_under_pixel_permutation():
    rng = np.random.default_rng(37)
    p = _softmax(rng.standard_normal((1, 12, 3)))
    labels = rng.integers(0, 3, size=(1, 12))
    cw = ClassWeights(np.array([1.0, 0.5, 0.7]))
    base, _ = weighted_nll_loss(ScoreMap(p), LabelMap(labels), cw)
    perm = rng.permutation(12)
    shuffled, _ = weighted_nll_loss(ScoreMap(p[:, perm]),
                                    LabelMap(labels[:, perm]), cw)
    assert abs(base - shuffled) < 1e-12


def test_loss_dimension_checks():
    cw = ClassWeights(np.array([1.0, 1.0]))
    scores = ScoreMap(np.full((2, 2, 2), 0.5))
    with pytest.raises(DimensionMismatch):
        weighted_nll_loss(scores, LabelMap(np.zeros((3, 2), dtype=np.int32)), cw)
    with pytest.raises(LabelOutOfRange):
        weighted_nll_loss(scores, LabelMap(np.full((2, 2), 5, dtype=np.int32)),
                          cw)
