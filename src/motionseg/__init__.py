"""Weakly-supervised video segmentation toolkit.

Estimates per-pixel category labels for video frames from two weak cues:
unsupervised motion masks (used softly, through color models and a
boundary band inside an energy) and per-pixel category predictions. Ships
the exact binary graph-cut solver, expansion moves for multiple labels,
the dataset pipeline around them, a toy predictor demonstrating the
alternating training loop, co-localization, and IoU/CorLoc scoring.

Each name is imported from its module, e.g. ``from motionseg.inference
import infer_labels``; the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
