"""A tiny per-pixel softmax classifier and the alternating training loop.

The classifier scores each pixel from quadratic color features only. It
exists to exercise the full loop (predict, infer latent labels, SGD update)
at desk scale, not to segment well; any real predictor can replace it by
writing score maps to disk.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import RgbImage, ScoreMap, _frozen, argmax_labels
from .errors import BadDimensions, NonFiniteValue, ZeroCount
from .inference import InferenceParams, infer_labels
from .io import DatasetManifest, read_image, read_mask, read_tensor, write_tensor
from .loss import ClassWeights, class_weights, weighted_nll_loss
from .pipeline import select_finetune_shots, shot_frames, shot_overlap

FEATURE_COUNT = 10

_MODEL_MAGIC = b"MTM1"


def color_features(pixels: np.ndarray) -> np.ndarray:
    """Quadratic color features (R,G,B,R2,G2,B2,RG,RB,GB,1) per pixel.

    Accepts any (..., 3) array and returns (..., 10).
    """
    p = np.asarray(pixels, dtype=np.float64)
    r, g, b = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([r, g, b, r * r, g * g, b * b,
                     r * g, r * b, g * b, np.ones_like(r)], axis=-1)


@dataclass(frozen=True)
class ToyModel:
    """Per-class weight vectors over the color features, with the momentum
    state carried alongside so updates are pure functions."""

    weights: np.ndarray   # (C, FEATURE_COUNT)
    velocity: np.ndarray  # (C, FEATURE_COUNT)

    def __post_init__(self):
        for name in ("weights", "velocity"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != FEATURE_COUNT or a.shape[0] < 2:
                raise BadDimensions(f"{name} must be (num_labels, {FEATURE_COUNT})")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, _frozen(a))
        if self.weights.shape != self.velocity.shape:
            raise BadDimensions("weights and velocity disagree in shape")

    @classmethod
    def zeros(cls, num_labels: int) -> "ToyModel":
        return cls(np.zeros((num_labels, FEATURE_COUNT)),
                   np.zeros((num_labels, FEATURE_COUNT)))

    @property
    def num_labels(self) -> int:
        return self.weights.shape[0]


def predict(model: ToyModel, img: RgbImage) -> ScoreMap:
    """Per-pixel softmax over class scores w_l . phi(z_i)."""
    logits = color_features(img.pixels) @ model.weights.T
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    return ScoreMap(e / e.sum(axis=2, keepdims=True))


@dataclass(frozen=True)
class ToyTrainConfig:
    """Optimizer settings; the batch is always the frames of one shot.

    ``decay_every``/``decay_factor`` expose an optional step schedule
    (0 disables it); ``finetune_epochs`` > 0 appends a fine-tune pass on
    the best-overlapping shot per video with a raised prediction weight.
    """

    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 5
    decay_every: int = 0
    decay_factor: float = 0.1
    finetune_epochs: int = 0
    finetune_prediction_weight: float = 2.0
    overlap_threshold: float = 0.2

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "decay_factor",
                     "finetune_prediction_weight", "overlap_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if (self.weight_decay < 0 or self.finetune_epochs < 0
                or self.decay_every < 0 or self.decay_factor < 0
                or self.finetune_prediction_weight < 0):
            raise ValueError("weight_decay, finetune_epochs, decay_every, "
                             "decay_factor and finetune_prediction_weight "
                             "must be >= 0")


def sgd_step(model: ToyModel, batch, cw: ClassWeights, cfg: ToyTrainConfig,
             learning_rate: float) -> ToyModel:
    """One momentum-SGD update of the model on a batch of labeled frames.

    ``batch`` is a list of (RgbImage, LabelMap) pairs. The gradient is the
    mean over all pixels of the batch of the weighted loss pulled back
    through the feature map, plus L2 weight decay. The update follows the
    classic momentum form v <- mu v - lr (grad + wd w); w <- w + v, with lr
    the given ``learning_rate``; at zero momentum and decay it is w - lr grad.
    """
    grad = np.zeros_like(model.weights)
    pixels = 0
    for img, labeling in batch:
        _, g = weighted_nll_loss(predict(model, img), labeling, cw)
        phi = color_features(img.pixels).reshape(-1, FEATURE_COUNT)
        grad += g.reshape(-1, model.num_labels).T @ phi
        pixels += labeling.labels.size
    if pixels == 0:
        return model
    grad /= pixels
    velocity = cfg.momentum * model.velocity - learning_rate * (
        grad + cfg.weight_decay * model.weights)
    return ToyModel(model.weights + velocity, velocity)


def save_model(model: ToyModel, path) -> None:
    """Write an MTM1 checkpoint: "MTM1 <classes> <features>\\n" then the
    float32 weights, little-endian, row-major; velocity is not saved. A
    weight that overflows float32 raises NonFiniteValue before any byte."""
    with np.errstate(over="ignore"):
        weights = model.weights.astype(np.float32)
    if not np.isfinite(weights).all():
        raise NonFiniteValue("weights overflow float32 in a checkpoint")
    write_tensor(weights, _MODEL_MAGIC, path)


def load_model(path) -> ToyModel:
    """Read an MTM1 checkpoint; the momentum state starts at zero."""
    weights = read_tensor(path, _MODEL_MAGIC, 2)
    classes, features = weights.shape
    if classes < 2 or features != FEATURE_COUNT:
        raise BadDimensions(f"{path}: bad shape {classes}x{features}")
    if not np.isfinite(weights).all():
        raise NonFiniteValue(f"{path}: weights must be finite")
    return ToyModel(weights, np.zeros_like(weights))


def check_classes(model: ToyModel, manifest: DatasetManifest) -> ToyModel:
    """``model`` if it has one class per manifest label, else BadDimensions."""
    if model.num_labels != len(manifest.label_set):
        raise BadDimensions(f"model has {model.num_labels} classes, "
                            f"manifest {len(manifest.label_set)}")
    return model


# ---------------------------------------------------------------------------
# Alternating training loop


def _load_shot(manifest, shot):
    frames = shot_frames(shot)
    imgs = [read_image(manifest.resolve(f.image_path)) for f in frames]
    masks = [read_mask(manifest.resolve(f.motion_mask_path)) for f in frames]
    return imgs, masks


def _label_counts(manifest: DatasetManifest) -> dict:
    """Frames per object label over the frames each shot actually uses."""
    counts = {l: 0 for l in manifest.label_set.object_labels}
    for v in manifest.videos:
        used = sum(len(shot_frames(s)) for s in v.shots)
        for l in manifest.weak_indices(v):
            counts[l] += used
    return counts


def train_loop(manifest: DatasetManifest, params: InferenceParams,
               cfg: ToyTrainConfig, model: ToyModel | None = None) -> ToyModel:
    """Alternate label inference and SGD updates over a prepared manifest.

    Per epoch, per shot: predict score maps with the current model, infer
    latent labels from motion and predictions, then take one SGD step on
    the shot. Shot order is reshuffled each epoch from ``params.seed``. Loss
    weights come from per-label frame counts over the sampled frames, so
    every category of the manifest must appear in at least one video.

    With ``cfg.finetune_epochs`` > 0, the best-overlapping shot of each
    video (mean motion/prediction overlap at least the threshold) is
    selected and training continues on those shots only, with the
    prediction weight raised to ``cfg.finetune_prediction_weight``.

    A manifest without shots returns the model unchanged.
    """
    if len(manifest.label_set) < 2:
        raise ZeroCount("the manifest lists no object category")
    if model is None:
        model = ToyModel.zeros(len(manifest.label_set))
    check_classes(model, manifest)
    shots = manifest.shots()
    if not shots:
        return model
    counts = _label_counts(manifest)
    dead = sorted(l for l, c in counts.items() if c == 0)
    if dead:
        names = [manifest.label_set.categories[l] for l in dead]
        raise ZeroCount(f"categories without any frame: {names}")
    cw = class_weights(counts, num_labels=len(manifest.label_set))

    loaded = [(v, s, *_load_shot(manifest, s)) for v, s in shots]
    rng = np.random.default_rng(params.seed)

    def run_epochs(epochs, shot_list, infer_params):
        nonlocal model
        for epoch in range(epochs):
            lr = cfg.learning_rate
            if cfg.decay_every > 0:
                lr *= cfg.decay_factor ** (epoch // cfg.decay_every)
            order = rng.permutation(len(shot_list))
            for i in order:
                video, _, imgs, masks = shot_list[i]
                scores = [predict(model, img) for img in imgs]
                labels = infer_labels(list(zip(imgs, masks, scores)),
                                      manifest.weak_indices(video),
                                      infer_params)
                model = sgd_step(model, list(zip(imgs, labels)), cw, cfg, lr)

    run_epochs(cfg.epochs, loaded, params)

    if cfg.finetune_epochs > 0:
        overlaps = {}
        for video, shot, imgs, masks in loaded:
            predicted = [argmax_labels(predict(model, img)) for img in imgs]
            overlaps.setdefault(video.video_id, {})[shot.shot_id] = (
                shot_overlap(masks, predicted))
        picks = select_finetune_shots(overlaps, cfg.overlap_threshold)
        chosen = [entry for entry in loaded
                  if picks.get(entry[0].video_id) == entry[1].shot_id]
        if chosen:
            run_epochs(cfg.finetune_epochs, chosen, replace(
                params, prediction_weight=cfg.finetune_prediction_weight))
    return model
