"""Batch command-line frontend.

Every subcommand reads a dataset manifest, writes its outputs under
``--out``, and drops a ``run.json`` echoing the fully resolved
configuration (tool version, subcommand, every flag including the seed).
Outputs are deterministic: two runs with identical run.json files are
byte-identical. Errors exit nonzero with a one-line JSON object on
stderr.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coloc import (
    BoundingBox,
    coloc_segment,
    largest_component_box,
    seed_gmms_from_scores,
    slic_superpixels,
)
from .core import RgbImage, ScoreMap, argmax_labels
from .energy import PairwiseParams
from .errors import MotionSegError, SchemaError
from .inference import InferenceParams, hard_assign, infer_labels
from .io import (
    read_image,
    read_labels,
    read_manifest,
    read_mask,
    read_scores,
    write_image,
    write_labels,
    write_manifest,
)
from .metrics import (
    ConfusionAccumulator,
    VOID_LABEL,
    accumulate_iou,
    corloc,
    mean_iou,
)
from .pipeline import (
    PruneParams,
    prune_manifest,
    sample_manifest,
    select_finetune_shots,
    shot_frames,
    shot_overlap,
)
from .predictor import ToyTrainConfig, load_model, predict, save_model, train_loop

# Overlay colors for labels 1.. (background keeps the image); cycled.
_PALETTE = np.array([
    (0.89, 0.10, 0.11), (0.22, 0.49, 0.72), (0.30, 0.69, 0.29),
    (0.60, 0.31, 0.64), (1.00, 0.50, 0.00), (1.00, 1.00, 0.20),
    (0.65, 0.34, 0.16), (0.97, 0.51, 0.75),
])


def _write_run(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in sorted(vars(args).items()) if k != "func"}
    doc = {"tool": "motionseg", "version": __version__,
           "subcommand": args.subcommand, "config": config}
    (out / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _pairwise_params(args) -> PairwiseParams:
    return PairwiseParams(smoothness=args.smoothness,
                          contrast_scale=args.contrast_scale,
                          boundary_band=args.band)


def _inference_params(args) -> InferenceParams:
    return InferenceParams(prediction_weight=args.prediction_weight,
                           iterations=args.iterations,
                           pairwise=_pairwise_params(args),
                           gmm_components=args.components,
                           seed=args.seed)


def _frame_scores(manifest, frame, model, num_labels, shape) -> ScoreMap:
    """Scores for one frame: model prediction, stored map, or uniform."""
    if model is not None:
        return predict(model, read_image(manifest.resolve(frame.image_path)))
    if frame.score_map_path is not None:
        return read_scores(manifest.resolve(frame.score_map_path))
    return ScoreMap(np.full(shape + (num_labels,), 1.0 / num_labels))


def _layout_path(image_path) -> Path:
    """Frame-relative location for per-frame artifacts under an output or
    input directory: the frame path with any ``.``/``..`` components
    dropped, so rebased manifests never address files outside the tree."""
    parts = [p for p in Path(image_path).parts if p not in ("..", ".", "/")]
    return Path(*parts)


def _label_out_path(out: Path, image_path: str) -> Path:
    dest = out / _layout_path(image_path).with_suffix(".pgm")
    dest.parent.mkdir(parents=True, exist_ok=True)
    return dest


def _rebase_manifest(manifest, out: Path):
    """Rewrite frame paths relative to ``out`` so a manifest written there
    keeps resolving to the original dataset files."""

    def reb(rel):
        if rel is None:
            return None
        return os.path.relpath(manifest.resolve(rel), out)

    videos = []
    for v in manifest.videos:
        shots = []
        for s in v.shots:
            frames = tuple(
                replace(f,
                        image_path=reb(f.image_path),
                        motion_mask_path=reb(f.motion_mask_path),
                        score_map_path=reb(f.score_map_path),
                        ground_truth_label_path=reb(f.ground_truth_label_path))
                for f in s.frames)
            shots.append(replace(s, frames=frames))
        videos.append(replace(v, shots=tuple(shots)))
    return replace(manifest, videos=tuple(videos), base_dir=out)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_prune(args):
    manifest = read_manifest(args.manifest)
    params = PruneParams(min_frames=args.min_frames,
                         min_foreground=args.min_foreground,
                         max_foreground=args.max_foreground,
                         min_run=args.min_run)
    before = len(manifest.shots())
    pruned = prune_manifest(manifest, params)
    out = _write_run(args)
    write_manifest(_rebase_manifest(pruned, out), out / "manifest.json")
    _emit({"shots_in": before, "shots_kept": len(pruned.shots())})


def _cmd_sample(args):
    manifest = read_manifest(args.manifest)
    params = PruneParams(samples_per_shot=args.samples)
    sampled = sample_manifest(manifest, params)
    out = _write_run(args)
    write_manifest(_rebase_manifest(sampled, out), out / "manifest.json")
    _emit({"shots": len(sampled.shots()), "samples_per_shot": args.samples})


def _infer_like(args, solver):
    manifest = read_manifest(args.manifest)
    model = load_model(args.model) if args.model else None
    out = _write_run(args)
    num_labels = len(manifest.label_set)
    shots = manifest.shots()
    done = 0
    for video, shot in shots:
        frames = shot_frames(shot)
        masks = [read_mask(manifest.resolve(f.motion_mask_path)) for f in frames]
        labels = solver(manifest, video, frames, masks, model, num_labels)
        for frame, lab in zip(frames, labels):
            write_labels(lab, _label_out_path(out, frame.image_path))
        done += len(frames)
    _emit({"shots": len(shots), "frames": done})


def _cmd_infer(args):
    params = _inference_params(args)

    def solver(manifest, video, frames, masks, model, num_labels):
        imgs = [read_image(manifest.resolve(f.image_path)) for f in frames]
        scores = [_frame_scores(manifest, f, model, num_labels,
                                (m.height, m.width))
                  for f, m in zip(frames, masks)]
        return infer_labels(list(zip(imgs, masks, scores)),
                            manifest.weak_indices(video), params)

    _infer_like(args, solver)


def _cmd_hard_assign(args):
    def solver(manifest, video, frames, masks, model, num_labels):
        return hard_assign(masks, manifest.weak_indices(video))

    _infer_like(args, solver)


def _cmd_train_toy(args):
    manifest = read_manifest(args.manifest)
    cfg = ToyTrainConfig(learning_rate=args.learning_rate,
                         momentum=args.momentum,
                         weight_decay=args.weight_decay,
                         epochs=args.epochs,
                         seed=args.seed,
                         decay_every=args.decay_every,
                         decay_factor=args.decay_factor,
                         finetune_epochs=args.finetune_epochs,
                         finetune_prediction_weight=args.finetune_prediction_weight,
                         overlap_threshold=args.overlap_threshold)
    model = train_loop(manifest, _inference_params(args), cfg)
    out = _write_run(args)
    save_model(model, out / "model.mtm")
    _emit({"classes": model.num_labels, "model": str(out / "model.mtm")})


def _cmd_select_finetune(args):
    manifest = read_manifest(args.manifest)
    if (args.model is None) == (args.labels is None):
        raise SchemaError("give exactly one of --model or --labels")
    model = load_model(args.model) if args.model else None
    overlaps = {}
    for video, shot in manifest.shots():
        frames = shot_frames(shot)
        masks = [read_mask(manifest.resolve(f.motion_mask_path)) for f in frames]
        if model is not None:
            predicted = [argmax_labels(predict(
                model, read_image(manifest.resolve(f.image_path))))
                for f in frames]
        else:
            predicted = [read_labels(
                Path(args.labels) / _layout_path(f.image_path).with_suffix(".pgm"),
                len(manifest.label_set)) for f in frames]
        overlaps.setdefault(video.video_id, {})[shot.shot_id] = (
            shot_overlap(masks, predicted))
    picks = select_finetune_shots(overlaps, args.overlap_threshold)
    out = _write_run(args)
    doc = {"selection": picks, "overlaps": overlaps}
    (out / "selection.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _emit({"selected": sum(1 for v in picks.values() if v is not None),
           "videos": len(picks)})


def _cmd_coloc(args):
    manifest = read_manifest(args.manifest)
    model = load_model(args.model) if args.model else None
    out = _write_run(args)
    num_labels = len(manifest.label_set)
    pairwise = _pairwise_params(args)
    rows = []
    for video, shot in manifest.shots():
        category = manifest.weak_indices(video)[0]
        frames = shot_frames(shot)
        imgs = [read_image(manifest.resolve(f.image_path)) for f in frames]
        scores = [_frame_scores(manifest, f, model, num_labels,
                                (im.height, im.width))
                  for f, im in zip(frames, imgs)]
        gmms = seed_gmms_from_scores(imgs, scores, category,
                                     n_components=args.components,
                                     seed=args.seed)
        for frame, img in zip(frames, imgs):
            sp = slic_superpixels(img, args.superpixels, args.compactness)
            seg = coloc_segment(img, sp, gmms, pairwise)
            box = largest_component_box(seg)
            if box is None:
                rows.append((frame.image_path, "", "", "", ""))
            else:
                rows.append((frame.image_path, box.x_min, box.y_min,
                             box.x_max, box.y_max))
    with open(out / "boxes.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame_path", "x_min", "y_min", "x_max", "y_max"])
        writer.writerows(rows)
    _emit({"frames": len(rows), "boxes": str(out / "boxes.csv")})


def _frames_for_eval(manifest, sampled_only):
    for video, shot in manifest.shots():
        frames = shot_frames(shot) if sampled_only else shot.frames
        for frame in frames:
            yield video, frame


def _cmd_eval_iou(args):
    manifest = read_manifest(args.manifest)
    acc = ConfusionAccumulator.zeros(len(manifest.label_set))
    frames = 0
    for video, frame in _frames_for_eval(manifest, args.sampled_only):
        if frame.ground_truth_label_path is None:
            continue
        truth = read_labels(manifest.resolve(frame.ground_truth_label_path),
                            max(len(manifest.label_set), VOID_LABEL + 1))
        pred = read_labels(
            Path(args.pred) / _layout_path(frame.image_path).with_suffix(".pgm"),
            len(manifest.label_set))
        accumulate_iou(acc, pred, truth, ignore_value=args.ignore_value)
        frames += 1
    per_class = {name: (None if not np.isfinite(v) else float(v))
                 for name, v in zip(manifest.label_set.categories,
                                    acc.iou_by_class())}
    report = {"frames": frames, "per_class_iou": per_class,
              "mean_iou": mean_iou(acc)}
    out = _write_run(args)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit({"frames": frames, "mean_iou": report["mean_iou"]})


def _read_boxes_csv(path):
    boxes = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"frame_path", "x_min", "y_min", "x_max", "y_max"}
        if reader.fieldnames is None or need - set(reader.fieldnames):
            raise SchemaError(f"{path}: boxes CSV needs columns {sorted(need)}")
        for row in reader:
            if row["x_min"] == "":
                boxes[row["frame_path"]] = None
            else:
                boxes[row["frame_path"]] = BoundingBox(
                    int(row["x_min"]), int(row["y_min"]),
                    int(row["x_max"]), int(row["y_max"]))
    return boxes


def _cmd_eval_corloc(args):
    manifest = read_manifest(args.manifest)
    predicted = _read_boxes_csv(args.boxes)
    pairs = []
    by_class = {}
    for video, frame in _frames_for_eval(manifest, args.sampled_only):
        if frame.ground_truth_box is None:
            continue
        truth = BoundingBox(*frame.ground_truth_box)
        pred = predicted.get(frame.image_path)
        pairs.append((pred, truth))
        for name in video.weak_labels:
            by_class.setdefault(name, []).append((pred, truth))
    report = {
        "frames": len(pairs),
        "corloc": corloc(pairs),
        "per_class_corloc": {name: corloc(p) for name, p in
                             sorted(by_class.items())},
    }
    out = _write_run(args)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit({"frames": len(pairs), "corloc": report["corloc"]})


def _cmd_overlay(args):
    manifest = read_manifest(args.manifest)
    out = _write_run(args)
    done = 0
    for video, frame in _frames_for_eval(manifest, args.sampled_only):
        label_path = (Path(args.labels)
                      / _layout_path(frame.image_path).with_suffix(".pgm"))
        if not label_path.exists():
            continue
        img = read_image(manifest.resolve(frame.image_path))
        labels = read_labels(label_path, 256).labels
        colors = _PALETTE[(labels - 1) % len(_PALETTE)]
        blend = np.where((labels > 0)[..., None],
                         (1 - args.opacity) * img.pixels + args.opacity * colors,
                         img.pixels)
        dest = out / _layout_path(frame.image_path).with_suffix(".ppm")
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_image(RgbImage(blend), dest)
        done += 1
    _emit({"frames": done})


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p, manifest=True):
    if manifest:
        p.add_argument("--manifest", required=True, type=Path,
                       help="dataset manifest JSON")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomness in this run")


def _add_pairwise(p):
    p.add_argument("--smoothness", type=float, default=10.0,
                   help="pairwise strength")
    p.add_argument("--contrast-scale", type=float, default=0.5,
                   help="color-contrast exponent coefficient")
    p.add_argument("--band", type=int, default=2,
                   help="motion-boundary band half-width")


def _add_inference(p):
    _add_pairwise(p)
    p.add_argument("--prediction-weight", type=float, default=1.0,
                   help="weight of the prediction unary")
    p.add_argument("--iterations", type=int, default=4,
                   help="minimize/refit rounds")
    p.add_argument("--components", type=int, default=5,
                   help="GMM components per side")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionseg",
        description="Latent-label inference from motion masks and predictions")
    parser.add_argument("--version", action="version",
                        version=f"motionseg {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prune", help="drop shots with unusable motion")
    _add_common(p)
    p.add_argument("--min-frames", type=int, default=20)
    p.add_argument("--min-foreground", type=float, default=0.025)
    p.add_argument("--max-foreground", type=float, default=0.50)
    p.add_argument("--min-run", type=int, default=20)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("sample", help="sample frames evenly from kept ranges")
    _add_common(p)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("infer", help="estimate per-pixel labels per shot")
    _add_common(p)
    _add_inference(p)
    p.add_argument("--model", type=Path, default=None,
                   help="toy model checkpoint supplying scores")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("hard-assign", help="copy motion masks into labels")
    _add_common(p)
    p.add_argument("--model", type=Path, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_hard_assign)

    p = sub.add_parser("train-toy", help="run the alternating training loop")
    _add_common(p)
    _add_inference(p)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0005)
    p.add_argument("--decay-every", type=int, default=0)
    p.add_argument("--decay-factor", type=float, default=0.1)
    p.add_argument("--finetune-epochs", type=int, default=0)
    p.add_argument("--finetune-prediction-weight", type=float, default=2.0)
    p.add_argument("--overlap-threshold", type=float, default=0.2)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("select-finetune",
                       help="pick the best-overlapping shot per video")
    _add_common(p)
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--labels", type=Path, default=None,
                   help="directory of label maps from infer/hard-assign")
    p.add_argument("--overlap-threshold", type=float, default=0.2)
    p.set_defaults(func=_cmd_select_finetune)

    p = sub.add_parser("coloc", help="co-localization boxes per frame")
    _add_common(p)
    _add_pairwise(p)
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--superpixels", type=int, default=1000)
    p.add_argument("--compactness", type=float, default=10.0)
    p.add_argument("--components", type=int, default=5)
    p.set_defaults(func=_cmd_coloc)

    p = sub.add_parser("eval-iou", help="mean IoU against ground truth labels")
    _add_common(p)
    p.add_argument("--pred", required=True, type=Path,
                   help="directory of predicted label maps")
    p.add_argument("--ignore-value", type=int, default=VOID_LABEL)
    p.add_argument("--sampled-only", action="store_true",
                   help="restrict to the frames selected per shot")
    p.set_defaults(func=_cmd_eval_iou)

    p = sub.add_parser("eval-corloc", help="CorLoc against ground truth boxes")
    _add_common(p)
    p.add_argument("--boxes", required=True, type=Path, help="boxes CSV")
    p.add_argument("--sampled-only", action="store_true")
    p.set_defaults(func=_cmd_eval_corloc)

    p = sub.add_parser("overlay", help="render label maps over frames")
    _add_common(p)
    p.add_argument("--labels", required=True, type=Path)
    p.add_argument("--opacity", type=float, default=0.5)
    p.add_argument("--sampled-only", action="store_true")
    p.set_defaults(func=_cmd_overlay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (MotionSegError, OSError, ValueError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
