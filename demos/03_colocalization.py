"""
Co-localization: superpixels, seeded color models, bounding boxes
=================================================================

Given per-pixel category scores, frames are segmented object-versus-
background at the superpixel level (a much smaller cut problem than the
pixel grid), and each frame gets the tight bounding box of its largest
connected foreground component. Box quality is scored with CorLoc: the
fraction of frames whose box overlaps the truth above 0.5 IoU.
"""

import numpy as np

from motionseg.coloc import (
    largest_component_box,
    coloc_segment,
    seed_gmms_from_scores,
    slic_superpixels,
)
from motionseg.core import BoundingBox
from motionseg.metrics import box_iou, corloc
from motionseg.synthetic import corrupted_mask_scene

scenes = [corrupted_mask_scene(seed, height=32, width=44) for seed in range(6)]

# superpixels on the first frame: ~80 compact clusters
sp = slic_superpixels(scenes[0].image, 80)
print(f"frame 0: {sp.n_superpixels} superpixels, "
      f"mean area {sp.counts.mean():.1f} px")

# color models seeded from confident predictions (score > 0.5), pooled
# over all frames of the shot
gmms = seed_gmms_from_scores([s.image for s in scenes],
                             [s.scores for s in scenes],
                             category=1, n_components=2)
print(f"foreground model means:\n{np.round(gmms.foreground.means, 3)}")

# per frame: superpixel cut, then the largest-component box
pairs = []
for i, scene in enumerate(scenes):
    sp = slic_superpixels(scene.image, 80)
    seg = coloc_segment(scene.image, sp, gmms)
    box = largest_component_box(seg)
    truth_box = BoundingBox.around(scene.truth.labels > 0)
    pairs.append((box, truth_box))
    iou = box_iou(box, truth_box) if box else 0.0
    print(f"frame {i}: predicted {box}, IoU {iou:.3f}")

print(f"CorLoc over {len(pairs)} frames: {corloc(pairs):.1f}")
