"""Weakly-supervised video segmentation toolkit.

Estimates per-pixel category labels for video frames from two weak cues:
unsupervised motion masks (used softly, through color models and a
boundary band inside an energy) and per-pixel category predictions. Ships
the exact binary graph-cut solver, expansion moves for multiple labels,
the dataset pipeline around them, a toy predictor demonstrating the
alternating training loop, co-localization, and IoU/CorLoc scoring.
"""

__version__ = "0.1.0"

from .coloc import (
    SuperpixelMap,
    coloc_segment,
    largest_component_box,
    seed_gmms_from_scores,
    slic_superpixels,
)
from .core import (
    BACKGROUND,
    BoundingBox,
    GridAdjacency,
    LabelMap,
    LabelSet,
    MotionMask,
    RgbImage,
    ScoreMap,
    argmax_labels,
    check_same_shape,
    validate_score_map,
)
from .energy import (
    BoundaryBand,
    EnergyModel,
    PairwiseParams,
    boundary_band_from_mask,
    build_energy,
    minimize_binary,
    minimize_expansion,
    total_energy,
)
from .errors import MotionSegError
from .gmm import (
    FgBgGmm,
    Gmm,
    fit_gmm,
    frame_distance_weight,
    nll,
)
from .inference import InferenceParams, hard_assign, infer_labels
from .io import (
    DatasetManifest,
    FrameRecord,
    ShotRecord,
    VideoRecord,
    read_image,
    read_labels,
    read_manifest,
    read_mask,
    read_scores,
    write_image,
    write_labels,
    write_manifest,
    write_mask,
    write_scores,
)
from .loss import ClassWeights, class_weights, weighted_nll_loss
from .maxflow import SINK, SOURCE, FlowNetwork, MinCutResult, min_cut
from .metrics import (
    ConfusionAccumulator,
    accumulate_iou,
    box_iou,
    corloc,
    mean_iou,
)
from .pipeline import (
    PruneParams,
    prune_manifest,
    prune_shot,
    sample_frames,
    sample_manifest,
    select_finetune_shots,
    shot_overlap,
)
from .predictor import (
    ToyModel,
    ToyTrainConfig,
    load_model,
    predict,
    save_model,
    sgd_step,
    train_loop,
)

__all__ = [
    "BACKGROUND",
    "BoundaryBand",
    "BoundingBox",
    "ClassWeights",
    "ConfusionAccumulator",
    "DatasetManifest",
    "EnergyModel",
    "FgBgGmm",
    "FlowNetwork",
    "FrameRecord",
    "Gmm",
    "GridAdjacency",
    "InferenceParams",
    "LabelMap",
    "LabelSet",
    "MinCutResult",
    "MotionMask",
    "MotionSegError",
    "PairwiseParams",
    "PruneParams",
    "RgbImage",
    "SINK",
    "SOURCE",
    "ScoreMap",
    "ShotRecord",
    "SuperpixelMap",
    "ToyModel",
    "ToyTrainConfig",
    "VideoRecord",
    "accumulate_iou",
    "argmax_labels",
    "boundary_band_from_mask",
    "box_iou",
    "build_energy",
    "check_same_shape",
    "class_weights",
    "coloc_segment",
    "corloc",
    "fit_gmm",
    "frame_distance_weight",
    "hard_assign",
    "infer_labels",
    "largest_component_box",
    "load_model",
    "mean_iou",
    "min_cut",
    "minimize_binary",
    "minimize_expansion",
    "nll",
    "predict",
    "prune_manifest",
    "prune_shot",
    "read_image",
    "read_labels",
    "read_manifest",
    "read_mask",
    "read_scores",
    "sample_frames",
    "sample_manifest",
    "save_model",
    "seed_gmms_from_scores",
    "select_finetune_shots",
    "sgd_step",
    "shot_overlap",
    "slic_superpixels",
    "total_energy",
    "train_loop",
    "validate_score_map",
    "weighted_nll_loss",
    "write_image",
    "write_labels",
    "write_manifest",
    "write_mask",
    "write_scores",
]
