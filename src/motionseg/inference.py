"""Iterative latent-label estimation from motion masks and predictions.

The estimator alternates, GrabCut-style, between minimizing the
motion-plus-prediction energy and re-estimating the color GMMs from the
current labeling. Motion masks enter only through the GMMs and the
boundary band, never directly as labels; the direct copy is available
separately as :func:`hard_assign` for comparison.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import LabelMap, check_same_shape
from .energy import (
    PairwiseParams,
    boundary_band_from_mask,
    build_energy,
    minimize_binary,
    minimize_expansion,
)
from .errors import MultiLabelVideo
from .gmm import (DEFAULT_COMPONENTS, FgBgGmm, check_components, check_seed,
                  fit_fgbg, motion_color_samples)
from .gmm import fit_gmm  # noqa: F401 -- perfbench's tracer test reads it

# Weight at which the original motion-derived samples are retained when the
# GMMs are refit from a labeling; keeps the appearance models anchored to
# the motion evidence and prevents label-collapse feedback.
RETAINED_MOTION_WEIGHT = 0.5


@dataclass(frozen=True)
class InferenceParams:
    """Knobs of the iterative estimator.

    ``prediction_weight`` balances the prediction unary against the GMM
    unary: 1.0 during normal training, ``finetune_prediction_weight`` of
    ``ToyTrainConfig`` in fine-tune epochs, where predictions are better.
    """

    prediction_weight: float = 1.0
    iterations: int = 4
    pairwise: PairwiseParams = field(default_factory=PairwiseParams)
    gmm_components: int = DEFAULT_COMPONENTS
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.prediction_weight)
                and self.prediction_weight >= 0):
            raise ValueError("prediction_weight must be finite and >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        # checked here too: a run without a shot never reaches a GMM fit
        check_components(self.gmm_components)
        check_seed(self.seed)


def _refit_from_labeling(img, labeling, motion, n_components, seed) -> FgBgGmm:
    """GMMs from the current labeling of the target frame, with the original
    motion samples retained at reduced weight."""
    fg_c, fg_w, bg_c, bg_w = motion
    flat = img.pixels.reshape(-1, 3)
    fg = labeling.labels.reshape(-1) > 0
    fg_colors = np.concatenate([flat[fg], fg_c])
    fg_weights = np.concatenate([np.ones(int(fg.sum())),
                                 RETAINED_MOTION_WEIGHT * fg_w])
    bg_colors = np.concatenate([flat[~fg], bg_c])
    bg_weights = np.concatenate([np.ones(int((~fg).sum())),
                                 RETAINED_MOTION_WEIGHT * bg_w])
    return fit_fgbg(fg_colors, fg_weights, bg_colors, bg_weights,
                    n_components, seed)


def infer_labels(batch, weak_labels, params: InferenceParams) -> list:
    """Estimate per-pixel labels for every frame of a batch.

    ``batch`` is a list of (RgbImage, MotionMask, ScoreMap) triples sharing
    one frame size; ``weak_labels`` are the video's object label indices
    (nonempty, background excluded). Each frame gets its own GMM pair,
    fit from the whole batch with inverse-distance frame weights, then at
    most ``params.iterations`` rounds of minimize-and-refit. The loop stops
    early when a round repeats the previous labeling: the refit is then the
    same call as the one before it, so every later round would repeat it
    bit for bit. A single object label is solved exactly by binary cut;
    more labels use expansion moves. The mixture component count is capped
    at the available sample count per side so tiny frames remain fittable.

    If a round produces an all-background labeling the previous labeling
    is kept (refitting a foreground GMM from nothing is meaningless).
    """
    if not batch:
        return []
    weak = tuple(sorted(set(int(l) for l in weak_labels)))
    if not weak or weak[0] < 1:
        raise ValueError("weak_labels must be nonempty and exclude background")
    for img, mask, scores in batch:
        check_same_shape(img, mask, scores)
        check_same_shape(img, batch[0][0])
    allowed = (0,) + weak

    frames = [(f_img, f_mask) for f_img, f_mask, _ in batch]
    results = []
    for t, (img, mask, scores) in enumerate(batch):
        motion = motion_color_samples(frames, t)
        gmms = fit_fgbg(*motion, params.gmm_components, params.seed)
        band = boundary_band_from_mask(mask, params.pairwise.boundary_band)

        labeling = None
        for it in range(params.iterations):
            model = build_energy(img, gmms, scores, allowed,
                                 params.prediction_weight, params.pairwise,
                                 band)
            if len(allowed) == 2:
                new_labeling = minimize_binary(model)
            else:
                new_labeling = minimize_expansion(model, init=labeling)
            if labeling is not None:
                if not (new_labeling.labels > 0).any():
                    break  # keep the previous labeling
                if np.array_equal(new_labeling.labels, labeling.labels):
                    break  # fixed point: every later round repeats this one
            labeling = new_labeling
            if not (labeling.labels > 0).any():
                break  # nothing to refit from; all-background is the answer
            if it + 1 < params.iterations:
                gmms = _refit_from_labeling(img, labeling, motion,
                                            params.gmm_components, params.seed)
        results.append(labeling)
    return results


def hard_assign(masks, weak_labels) -> list:
    """Copy motion masks directly into labels, x_i = s_i.

    Only defined for videos carrying a single object label; the mask gives
    no way to split foreground between categories.
    """
    weak = tuple(sorted(set(int(l) for l in weak_labels)))
    if len(weak) != 1:
        raise MultiLabelVideo(
            f"hard assignment needs exactly one weak label, got {len(weak)}")
    if weak[0] < 1:
        raise ValueError("weak label must be an object label")
    label = weak[0]
    return [LabelMap(mask.mask.astype(np.int32) * label) for mask in masks]
