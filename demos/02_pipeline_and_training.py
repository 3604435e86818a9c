"""
Dataset pipeline and the alternating training loop
==================================================

Builds a tiny two-category video dataset on disk (colored blobs crossing
a static background), prunes and samples it exactly like a real motion
corpus, then alternates label inference with SGD updates of a toy
per-pixel classifier. Held-out frames (kept by pruning but not sampled
for training) measure the improvement.
"""

import tempfile
import time
from pathlib import Path

from motionseg.core import argmax_labels
from motionseg.inference import InferenceParams
from motionseg.io import read_image, read_labels, read_manifest
from motionseg.metrics import ConfusionAccumulator, accumulate_iou, mean_iou
from motionseg.pipeline import prune_manifest, sample_manifest, shot_frames
from motionseg.predictor import ToyModel, ToyTrainConfig, predict, train_loop
from motionseg.synthetic import write_blob_dataset

root = Path(tempfile.mkdtemp(prefix="motionseg_demo2_"))
manifest_path = write_blob_dataset(root, seed=0, with_scores=False)
manifest = read_manifest(manifest_path)
print(f"dataset at {root}: {len(manifest.videos)} videos, "
      f"{sum(len(s.frames) for v in manifest.videos for s in v.shots)} frames")

# prune: drop shots whose motion is absent, tiny, or too large; keep the
# longest contiguous run of usable frames
manifest = prune_manifest(manifest)
for video in manifest.videos:
    for shot in video.shots:
        print(f"  {shot.shot_id}: kept frame range {shot.kept_range}")

# sample 10 frames uniformly from each kept range
manifest = sample_manifest(manifest)
shot = manifest.videos[0].shots[0]
print(f"  sampled indices {shot.sampled_indices}")


def held_out_iou(model):
    """Mean IoU of the model's argmax predictions on unsampled frames."""
    acc = ConfusionAccumulator.zeros(3)
    for video in manifest.videos:
        for s in video.shots:
            start, stop = s.kept_range
            for idx in range(start, stop):
                if idx in s.sampled_indices:
                    continue
                frame = s.frames[idx]
                img = read_image(manifest.resolve(frame.image_path))
                truth = read_labels(
                    manifest.resolve(frame.ground_truth_label_path), 3)
                accumulate_iou(acc, argmax_labels(predict(model, img)), truth)
    return mean_iou(acc)


params = InferenceParams(iterations=1, gmm_components=2, seed=0)
cfg = ToyTrainConfig(learning_rate=0.2, epochs=24)

before = held_out_iou(ToyModel.zeros(3))
start = time.time()
model = train_loop(manifest, params, cfg)
print(f"trained {cfg.epochs} epochs in {time.time() - start:.1f} s")
print(f"held-out mean IoU: {before:.4f} untrained -> "
      f"{held_out_iou(model):.4f} trained")

# sanity: the sampled frames the model actually saw
frames = shot_frames(manifest.videos[0].shots[0])
print(f"each epoch saw {len(frames)} frames per shot")
