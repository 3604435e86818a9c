"""Class-balanced cross-entropy on estimated labels.

Latent labels are dominated by background and by frequent categories, so
the per-pixel log-loss is reweighted: each label's weight is the rarest
label's pixel-count share of its own count, and background is pinned at 1.
"""

from dataclasses import dataclass

import numpy as np

from .core import PROB_FLOOR, LabelMap, ScoreMap, _frozen, check_same_shape
from .errors import DimensionMismatch, LabelOutOfRange, ZeroCount


@dataclass(frozen=True)
class ClassWeights:
    """Per-label loss weights; index 0 is background, fixed at 1."""

    weights: np.ndarray  # (C,), each in (0, 1]

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) < 2:
            raise DimensionMismatch("need weights for background and >= 1 object label")
        if w[0] != 1.0:
            raise ValueError("background weight must be 1")
        if not ((w > 0.0) & (w <= 1.0)).all():  # NaN fails
            raise ValueError("weights must lie in (0, 1]")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def num_labels(self) -> int:
        return len(self.weights)


def class_weights(object_counts, num_labels) -> ClassWeights:
    """Weights from per-label sample counts, w_l = min_j(num_j) / num_l.

    ``object_counts`` maps each object label index (>= 1) to its positive
    sample count; every object label in 1..num_labels-1 must be present.
    The rarest label gets weight 1, frequent labels get proportionally
    less, background always 1.
    """
    counts = {int(l): c for l, c in dict(object_counts).items()}
    for l in counts:
        if not 1 <= l < num_labels:
            raise LabelOutOfRange(f"label {l} outside 1..{num_labels - 1}")
    w = np.ones(num_labels)
    for l in range(1, num_labels):
        c = counts.get(l, 0)
        if c <= 0:
            raise ZeroCount(f"label {l} has count {c}")
    rarest = min(counts[l] for l in range(1, num_labels))
    for l in range(1, num_labels):
        w[l] = rarest / counts[l]
    return ClassWeights(w)


def weighted_nll_loss(scores: ScoreMap, labeling: LabelMap,
                      cw: ClassWeights) -> tuple[float, np.ndarray]:
    """Loss and its gradient with respect to the pre-softmax logits.

    The loss is -sum_i w(x_i) log p_i(x_i) over all pixels, probabilities
    floored at ``PROB_FLOOR``. As the scores are a softmax of logits, the
    logit gradient has the closed form w(x_i) * (p_i(l) - [l == x_i]);
    that array, shaped like the scores, is returned alongside the loss.

    Perfectly confident correct predictions give loss 0 and zero gradient.
    """
    check_same_shape(scores, labeling)
    if scores.channels != cw.num_labels:
        raise DimensionMismatch(
            f"{scores.channels} score channels vs {cw.num_labels} weights")
    labels = labeling.labels
    if labels.max() >= cw.num_labels:
        raise LabelOutOfRange(f"label {labels.max()} has no weight")
    p = scores.scores
    h, w = labels.shape
    rows, cols = np.ogrid[:h, :w]
    p_true = p[rows, cols, labels]
    pix_w = cw.weights[labels]
    loss = float(-(pix_w * np.log(np.maximum(p_true, PROB_FLOOR))).sum())
    grad = p.copy()
    grad[rows, cols, labels] -= 1.0
    grad *= pix_w[:, :, None]
    return loss, grad
