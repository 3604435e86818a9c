from dataclasses import replace

import numpy as np
import pytest

from motionseg.core import LabelMap, LabelSet, RgbImage, validate_score_map
from motionseg.errors import (
    BadDimensions,
    BadMagic,
    NonFiniteValue,
    SizeMismatch,
    TruncatedFile,
    ZeroCount,
)
from motionseg.inference import InferenceParams, infer_labels
from motionseg.io import DatasetManifest, read_manifest
from motionseg.loss import ClassWeights
from motionseg.pipeline import prune_manifest, sample_manifest
from motionseg.predictor import (
    FEATURE_COUNT,
    ToyModel,
    ToyTrainConfig,
    color_features,
    load_model,
    predict,
    save_model,
    sgd_step,
    train_loop,
)

from helpers import batch_loss, random_image


def _weights(cw=(1.0, 1.0)):
    return ClassWeights(np.asarray(cw))


def test_color_features_values():
    feats = color_features(np.array([[0.5, 0.25, 1.0]]))
    r, g, b = 0.5, 0.25, 1.0
    want = [r, g, b, r * r, g * g, b * b, r * g, r * b, g * b, 1.0]
    assert feats.shape == (1, FEATURE_COUNT)
    assert np.allclose(feats[0], want)


def test_zero_model_predicts_uniform():
    model = ToyModel.zeros(3)
    img = RgbImage(np.random.default_rng(41).random((4, 5, 3)))
    scores = predict(model, img)
    validate_score_map(scores, num_labels=3)
    assert np.allclose(scores.scores, 1 / 3)


def test_predict_is_shift_invariant():
    rng = np.random.default_rng(42)
    w = rng.standard_normal((3, FEATURE_COUNT))
    img = random_image(rng, 3, 4)
    base = predict(ToyModel(w, np.zeros_like(w)), img)
    shifted = predict(ToyModel(w + rng.standard_normal(FEATURE_COUNT),
                               np.zeros_like(w)), img)
    assert np.allclose(base.scores, shifted.scores)


def test_raising_bias_raises_scores_everywhere():
    rng = np.random.default_rng(43)
    w = rng.standard_normal((3, FEATURE_COUNT))
    img = random_image(rng, 3, 4)
    before = predict(ToyModel(w, np.zeros_like(w)), img)
    boosted = w.copy()
    boosted[1, -1] += 2.0  # last feature is the constant 1
    after = predict(ToyModel(boosted, np.zeros_like(w)), img)
    assert (after.scores[:, :, 1] > before.scores[:, :, 1]).all()


def test_predict_always_normalized():
    rng = np.random.default_rng(44)
    for _ in range(10):
        w = 5.0 * rng.standard_normal((4, FEATURE_COUNT))
        scores = predict(ToyModel(w, np.zeros_like(w)), random_image(rng, 3, 3))
        validate_score_map(scores, num_labels=4)


def test_vanilla_step_is_exactly_minus_rate_times_gradient():
    rng = np.random.default_rng(45)
    w = 0.3 * rng.standard_normal((2, FEATURE_COUNT))
    model = ToyModel(w, np.zeros_like(w))
    img = random_image(rng, 3, 4)
    labels = LabelMap(rng.integers(0, 2, size=(3, 4)))
    cfg = ToyTrainConfig(momentum=0.0, weight_decay=0.0)

    stepped = sgd_step(model, [(img, labels)], _weights(), cfg, 0.01)

    # independent gradient: chain rule through the feature map by hand
    p = predict(model, img).scores
    onehot = np.eye(2)[labels.labels]
    pix_w = _weights().weights[labels.labels]
    glogits = (pix_w[:, :, None] * (p - onehot)).reshape(-1, 2)
    feats = color_features(img.pixels).reshape(-1, FEATURE_COUNT)
    grad = glogits.T @ feats / (3 * 4)
    assert np.allclose(stepped.weights, w - 0.01 * grad, atol=1e-12)


def test_confident_correct_model_changes_only_by_weight_decay():
    # a huge margin drives the data gradient to numerical zero
    w = np.zeros((2, FEATURE_COUNT))
    w[1, -1] = -100.0
    model = ToyModel(w, np.zeros_like(w))
    img = random_image(np.random.default_rng(46), 2, 3)
    labels = LabelMap(np.zeros((2, 3), dtype=np.int32))
    cfg = ToyTrainConfig(momentum=0.9, weight_decay=0.01)
    stepped = sgd_step(model, [(img, labels)], _weights(), cfg, 0.1)
    assert np.allclose(stepped.weights, w - 0.1 * 0.01 * w, atol=1e-12)


def test_one_step_raises_true_class_score():
    img = RgbImage(np.full((1, 1, 3), 0.8))
    labels = LabelMap(np.array([[1]], dtype=np.int32))
    model = ToyModel.zeros(2)
    cfg = ToyTrainConfig(momentum=0.0, weight_decay=0.0)
    before = predict(model, img).scores[0, 0, 1]
    after = predict(sgd_step(model, [(img, labels)], _weights(), cfg, 0.05),
                    img).scores[0, 0, 1]
    assert after > before


def test_loss_decreases_monotonically_without_momentum():
    rng = np.random.default_rng(48)
    w = 0.5 * rng.standard_normal((3, FEATURE_COUNT))
    model = ToyModel(w, np.zeros_like(w))
    batch = [(random_image(rng, 4, 4),
              LabelMap(rng.integers(0, 3, size=(4, 4)))) for _ in range(3)]
    cw = _weights((1.0, 0.5, 1.0))
    cfg = ToyTrainConfig(momentum=0.0, weight_decay=0.0)
    losses = [batch_loss(model, batch, cw)]
    for _ in range(20):
        model = sgd_step(model, batch, cw, cfg, 0.001)
        losses.append(batch_loss(model, batch, cw))
    assert (np.diff(losses) <= 1e-12).all(), losses


def test_fifty_default_steps_reduce_loss():
    rng = np.random.default_rng(49)
    model = ToyModel.zeros(2)
    batch = [(random_image(rng, 5, 5),
              LabelMap(rng.integers(0, 2, size=(5, 5)))) for _ in range(2)]
    cw = _weights()
    cfg = ToyTrainConfig()  # rate 1e-3, momentum 0.9, decay 5e-4
    initial = batch_loss(model, batch, cw)
    for _ in range(50):
        model = sgd_step(model, batch, cw, cfg, cfg.learning_rate)
    assert batch_loss(model, batch, cw) < initial


def test_explicit_rate_overrides_config():
    rng = np.random.default_rng(50)
    model = ToyModel.zeros(2)
    img = random_image(rng, 2, 2)
    labels = LabelMap(rng.integers(0, 2, size=(2, 2)))
    # the step scales with the rate it is given; the config's own rate,
    # which train_loop schedules from, plays no part in it
    cfg = ToyTrainConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0)
    a = sgd_step(model, [(img, labels)], _weights(), cfg, 0.5)
    b = sgd_step(model, [(img, labels)], _weights(), cfg, learning_rate=0.25)
    assert np.abs(b.weights).max() > 0
    assert np.allclose(a.weights, model.weights + 2 * (b.weights - model.weights))
    other = replace(cfg, learning_rate=0.125)
    c = sgd_step(model, [(img, labels)], _weights(), other, 0.25)
    assert c.weights.tobytes() == b.weights.tobytes()


def test_model_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(51)
    w = rng.standard_normal((3, FEATURE_COUNT)).astype(np.float32)
    model = ToyModel(w.astype(np.float64), rng.random((3, FEATURE_COUNT)))
    p = tmp_path / "model.mtm"
    save_model(model, p)
    assert p.read_bytes().startswith(b"MTM1 3 10\n")
    back = load_model(p)
    assert np.array_equal(back.weights.astype(np.float32), w)
    # velocity is scratch state and does not survive a save
    assert not back.velocity.any()


def test_save_model_refuses_weights_beyond_float32(tmp_path):
    p = tmp_path / "model.mtm"

    def model(w):
        weights = np.zeros((2, FEATURE_COUNT))
        weights[1, 3] = w
        return ToyModel(weights, np.zeros_like(weights))

    with pytest.raises(NonFiniteValue):
        save_model(model(1e39), p)  # finite in float64, inf in float32
    assert not p.exists()
    top = float(np.finfo(np.float32).max)
    save_model(model(top), p)
    assert load_model(p).weights[1, 3] == top


def test_model_checkpoint_errors(tmp_path):
    p = tmp_path / "bad.mtm"
    p.write_bytes(b"XXXX 2 10\n" + bytes(80))
    with pytest.raises(BadMagic):
        load_model(p)
    p.write_bytes(b"MTM1 2 10")  # header line never ends
    with pytest.raises(TruncatedFile):
        load_model(p)
    p.write_bytes(b"MTM1 2 10\n" + bytes(10))
    with pytest.raises(SizeMismatch):
        load_model(p)
    p.write_bytes(b"MTM1 2 3\n" + bytes(24))
    with pytest.raises(BadDimensions):
        load_model(p)


def test_config_validation():
    with pytest.raises(ValueError):
        ToyTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ToyTrainConfig(epochs=0)
    with pytest.raises(ValueError):
        ToyTrainConfig(momentum=1.5)
    with pytest.raises(ValueError):
        ToyTrainConfig(decay_every=-1)
    with pytest.raises(ValueError):
        ToyTrainConfig(decay_factor=-0.1)
    with pytest.raises(ValueError, match="finetune_prediction_weight"):
        ToyTrainConfig(finetune_prediction_weight=-1.0)


def test_train_loop_empty_manifest_returns_model_unchanged():
    manifest = DatasetManifest(videos=(),
                               label_set=LabelSet.from_objects(("car",)))
    model = ToyModel.zeros(2)
    out = train_loop(manifest, InferenceParams(), ToyTrainConfig(), model)
    assert out is model


def test_train_loop_label_count_mismatch():
    manifest = DatasetManifest(videos=(),
                               label_set=LabelSet.from_objects(("car",)))
    with pytest.raises(BadDimensions):
        train_loop(manifest, InferenceParams(), ToyTrainConfig(),
                   ToyModel.zeros(5))


@pytest.fixture(scope="module")
def prepared_manifest(blob_manifest_path):
    return sample_manifest(prune_manifest(read_manifest(blob_manifest_path)))


def _quick_cfg(**kw):
    kw.setdefault("learning_rate", 0.05)
    kw.setdefault("epochs", 1)
    return ToyTrainConfig(**kw)


def _quick_params():
    return InferenceParams(iterations=1, gmm_components=2, seed=0)


def test_train_loop_is_deterministic(prepared_manifest):
    runs = [train_loop(prepared_manifest, _quick_params(), _quick_cfg())
            for _ in range(2)]
    assert runs[0].weights.tobytes() == runs[1].weights.tobytes()


def test_train_loop_finetune_noop_when_nothing_selected(prepared_manifest):
    # a near-zero model predicts background everywhere, so no shot reaches
    # the overlap threshold and the fine-tune stage must change nothing
    cfg_plain = _quick_cfg(learning_rate=1e-12)
    cfg_fine = _quick_cfg(learning_rate=1e-12, finetune_epochs=3)
    a = train_loop(prepared_manifest, _quick_params(), cfg_plain)
    b = train_loop(prepared_manifest, _quick_params(), cfg_fine)
    assert a.weights.tobytes() == b.weights.tobytes()


def test_train_loop_runs_and_changes_weights(prepared_manifest):
    out = train_loop(prepared_manifest, _quick_params(), _quick_cfg())
    assert out.num_labels == 3
    assert np.abs(out.weights).max() > 0


def test_train_loop_finetunes_every_chosen_shot(prepared_manifest,
                                               monkeypatch):
    # at threshold 0 every video's best shot is chosen; each fine-tune
    # epoch infers labels once per chosen shot at the raised weight
    weights = []

    def recording(batch, weak, params):
        weights.append(params.prediction_weight)
        return infer_labels(batch, weak, params)

    monkeypatch.setattr("motionseg.predictor.infer_labels", recording)
    cfg = _quick_cfg(finetune_epochs=2, overlap_threshold=0.0,
                     finetune_prediction_weight=3.0)
    tuned = train_loop(prepared_manifest, _quick_params(), cfg)
    videos = len(prepared_manifest.videos)
    shots = len(prepared_manifest.shots())
    assert videos == 2
    assert weights == [1.0] * shots + [3.0] * (cfg.finetune_epochs * videos)
    plain = train_loop(prepared_manifest, _quick_params(),
                       replace(cfg, finetune_epochs=0))
    assert plain.weights.tobytes() != tuned.weights.tobytes()


def test_train_loop_shuffles_shots_from_the_inference_seed(prepared_manifest,
                                                          monkeypatch):
    seen = []

    def recording(batch, weak, params):
        seen.append(weak)
        return infer_labels(batch, weak, params)

    monkeypatch.setattr("motionseg.predictor.infer_labels", recording)
    params = replace(_quick_params(), seed=3)
    train_loop(prepared_manifest, params, _quick_cfg(epochs=4))
    weak = [prepared_manifest.weak_indices(v)
            for v, _ in prepared_manifest.shots()]
    rng = np.random.default_rng(3)
    assert seen == [weak[i] for _ in range(4) for i in rng.permutation(2)]


def test_train_loop_names_categories_without_frames(prepared_manifest):
    manifest = replace(prepared_manifest, label_set=LabelSet.from_objects(
        prepared_manifest.label_set.categories[1:] + ("green",)))
    with pytest.raises(ZeroCount, match=r"^categories without any frame: "
                                        r"\['green'\]$"):
        train_loop(manifest, _quick_params(), _quick_cfg())


def test_train_loop_refuses_a_manifest_without_object_category():
    manifest = DatasetManifest(videos=(), label_set=LabelSet.from_objects(()))
    with pytest.raises(ZeroCount, match="no object category"):
        train_loop(manifest, InferenceParams(), ToyTrainConfig())


def test_lr_step_schedule(prepared_manifest):
    # decay_every=1 with factor 0 gives epochs 1.. a zero rate; without
    # momentum or weight decay those epochs must leave the weights alone
    def weights(epochs, **kw):
        cfg = _quick_cfg(epochs=epochs, momentum=0.0, weight_decay=0.0, **kw)
        return train_loop(prepared_manifest, _quick_params(), cfg).weights

    once = weights(1)
    assert weights(3, decay_every=1, decay_factor=0.0).tobytes() == once.tobytes()
    assert weights(3).tobytes() != once.tobytes()
