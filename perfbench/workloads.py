"""Workload definitions: how each workload writes its inputs and which CLI
stages it runs over them.

Inputs come only from the workload seed and a part number; the program
sees the files they are written to, never the seed. A run measures as
many distinct parts as fit its time, so one run covers more input variety
than one chain can. Sizes are chosen so that one chain of stages takes
about two seconds on one core (see README.md); ``tiny`` shrinks every
input so the benchmark's own tests finish quickly.
"""

from dataclasses import dataclass
from pathlib import Path

# Per workload: sizes at full scale and in tiny mode.
SIZES = {
    "blob_chain": {
        "full": {"height": 24, "width": 30, "videos": 1, "samples": 1,
                 "epochs": 2},
        "tiny": {"height": 24, "width": 30, "videos": 1, "samples": 1,
                 "epochs": 1},
    },
    "large_frames": {
        "full": {"height": 112, "width": 144, "videos": 1, "samples": 1,
                 "superpixels": 250},
        "tiny": {"height": 40, "width": 48, "videos": 1, "samples": 1,
                 "superpixels": 30},
    },
    "multilabel": {
        "full": {"height": 96, "width": 160, "videos": 1, "frames": 1},
        "tiny": {"height": 24, "width": 40, "videos": 1, "frames": 2},
    },
}


@dataclass(frozen=True)
class Stage:
    """One CLI subcommand run of a chain."""

    name: str           # subcommand, also the stage's metric name
    argv: tuple         # full argument list for ``motionseg.cli.main``
    out: Path           # its ``--out`` directory


def write_inputs(workload: str, root: Path, seed: int, part: int,
                 tiny: bool) -> Path:
    """Write part ``part`` of the workload's dataset for ``seed`` under
    ``root``; returns its manifest."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    # every (seed, part, video) gets generator seeds no other one uses
    base = (seed * 1000 + part) * 100
    if workload == "multilabel":
        return _write_two_object_dataset(root, base, size)
    from motionseg.synthetic import write_blob_dataset
    return write_blob_dataset(root, seed=base,
                              videos_per_category=size["videos"],
                              height=size["height"], width=size["width"],
                              with_scores=True)


def _write_two_object_dataset(root: Path, seed: int, size: dict) -> Path:
    """Videos of one shot each, every frame a fresh two-object scene carrying
    both categories as weak labels; written with the package's writers."""
    from motionseg.core import LabelSet
    from motionseg.io import (DatasetManifest, FrameRecord, ShotRecord,
                              VideoRecord, write_image, write_labels,
                              write_manifest, write_mask, write_scores)
    from motionseg.synthetic import two_object_scene

    categories = ("obj1", "obj2")  # label ids 1 and 2 of two_object_scene
    videos = []
    for v in range(size["videos"]):
        video_id = f"pair_{v:02d}"
        (root / video_id).mkdir(parents=True, exist_ok=True)
        frames = []
        for t in range(size["frames"]):
            scene = two_object_scene(seed + v * 10 + t,
                                     height=size["height"], width=size["width"],
                                     confidence=0.45, noise=0.15)
            stem = f"{video_id}/frame_{t:03d}"
            write_image(scene.image, root / f"{stem}.ppm")
            write_mask(scene.mask, root / f"{stem}_mask.pgm")
            write_labels(scene.truth, root / f"{stem}_truth.pgm")
            write_scores(scene.scores, root / f"{stem}_scores.msf")
            frames.append(FrameRecord(
                image_path=f"{stem}.ppm",
                motion_mask_path=f"{stem}_mask.pgm",
                score_map_path=f"{stem}_scores.msf",
                ground_truth_label_path=f"{stem}_truth.pgm"))
        videos.append(VideoRecord(
            video_id=video_id, weak_labels=categories,
            shots=(ShotRecord(shot_id=f"{video_id}_shot0",
                              frames=tuple(frames)),)))
    manifest = DatasetManifest(videos=tuple(videos),
                               label_set=LabelSet.from_objects(categories),
                               base_dir=root)
    path = root / "manifest.json"
    write_manifest(manifest, path)
    return path


def stages(workload: str, manifest: Path, out: Path, tiny: bool) -> list:
    """The chain of CLI stages a workload runs, in order."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    chain = []

    def add(name, *args):
        d = out / name
        chain.append(Stage(name, (name, *map(str, args), "--out", str(d)), d))
        return d

    if workload == "multilabel":
        labels = add("infer", "--manifest", manifest,
                     "--components", 1, "--iterations", 2)
        add("eval-iou", "--manifest", manifest, "--pred", labels)
        return chain

    pruned = add("prune", "--manifest", manifest) / "manifest.json"
    sampled = add("sample", "--manifest", pruned,
                  "--samples", size["samples"]) / "manifest.json"
    if workload == "blob_chain":
        labels = add("infer", "--manifest", sampled)
        add("eval-iou", "--manifest", sampled, "--pred", labels,
            "--sampled-only")
        add("train-toy", "--manifest", sampled, "--epochs", size["epochs"],
            "--learning-rate", 0.2, "--iterations", 1, "--components", 2)
        boxes = add("coloc", "--manifest", sampled, "--superpixels", 60,
                    "--components", 2)
    else:
        labels = add("infer", "--manifest", sampled,
                     "--components", 1, "--iterations", 2)
        add("eval-iou", "--manifest", sampled, "--pred", labels,
            "--sampled-only")
        boxes = add("coloc", "--manifest", sampled,
                    "--superpixels", size["superpixels"], "--components", 1)
    add("eval-corloc", "--manifest", sampled, "--boxes", boxes / "boxes.csv",
        "--sampled-only")
    return chain
