"""
Latent-label inference from a corrupted motion mask
===================================================

A synthetic frame contains a bright ellipse on a dark background. The
motion mask is deliberately degraded to roughly half overlap with the
truth, mimicking the quality of real unsupervised motion segmentation.
Copying the mask into labels (hard assignment) inherits every mask
error; using the mask only to fit color models inside an energy (the
soft constraint) recovers most of the object.
"""

import tempfile
from pathlib import Path

import numpy as np

from motionseg.inference import InferenceParams, hard_assign, infer_labels
from motionseg.io import write_image, write_labels
from motionseg.metrics import ConfusionAccumulator, accumulate_iou, mean_iou
from motionseg.synthetic import corrupted_mask_scene

out_dir = Path(tempfile.mkdtemp(prefix="motionseg_demo1_"))


def scene_iou(labeling, truth):
    acc = ConfusionAccumulator.zeros(2)
    accumulate_iou(acc, labeling, truth)
    return 100.0 * mean_iou(acc)


# one scene, seeded: same numbers every run
scene = corrupted_mask_scene(seed=3)
print(f"mask overlaps truth at IoU {scene.mask_iou:.2f}")

# hard assignment: the mask *is* the labeling
hard = hard_assign([scene.mask], (1,))[0]
print(f"hard assignment  mean IoU {scene_iou(hard, scene.truth):6.2f}")

# soft constraint: motion only seeds the color models of the energy
for iterations in (1, 2, 4):
    params = InferenceParams(iterations=iterations, seed=0)
    soft = infer_labels([(scene.image, scene.mask, scene.scores)],
                        (1,), params)[0]
    print(f"inference x{iterations}     mean IoU "
          f"{scene_iou(soft, scene.truth):6.2f}")

# the same engine handles several frames of a shot in one batch; each
# frame fits its own color model pair from the batch's motion samples
batch = [corrupted_mask_scene(seed) for seed in (3, 4)]
labels = infer_labels([(s.image, s.mask, s.scores) for s in batch],
                      (1,), InferenceParams(seed=0))
for i, (s, lab) in enumerate(zip(batch, labels)):
    print(f"batch frame {i}    mean IoU {scene_iou(lab, s.truth):6.2f}")

# keep the pieces on disk for inspection
write_image(scene.image, out_dir / "frame.ppm")
write_labels(hard, out_dir / "hard.pgm")
write_labels(soft, out_dir / "soft.pgm")
print(f"frame and label maps written to {out_dir}")
