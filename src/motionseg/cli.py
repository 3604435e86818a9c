"""Batch command-line frontend.

Every subcommand reads a dataset manifest and writes its outputs under
``--out``, in this order: its artifacts; then, once they are all written,
a ``run.json`` echoing the fully resolved configuration (tool version,
subcommand, every flag); then one JSON summary line on stdout. Each
handler only computes its artifacts, writes them into the staging
directory ``<out>.<random>`` and returns the summary; :func:`main` does
the rest. Only ``infer``, ``train-toy`` and ``coloc`` draw random numbers,
so only they take ``--seed``. Outputs are deterministic: two runs with
identical run.json files are byte-identical. Errors exit 1 with a
one-line JSON object on stderr and write no run.json.
"""

import argparse
import functools
import json
import os
import secrets
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .coloc import (
    DEFAULT_COMPACTNESS,
    check_slic_options,
    coloc_segment,
    largest_component_box,
    seed_gmms_from_scores,
    slic_superpixels,
)
from .core import (
    RgbImage,
    ScoreMap,
    argmax_labels,
    check_same_shape,
    validate_score_map,
)
from .energy import PairwiseParams
from .errors import (EmptyBackground, EmptyForeground, MotionSegError,
                     MultiLabelVideo, SchemaError)
from .gmm import DEFAULT_COMPONENTS, check_components, check_seed
from .inference import InferenceParams, hard_assign, infer_labels
from .io import (
    read_boxes,
    read_image,
    read_labels,
    read_manifest,
    read_mask,
    read_scores,
    rebase,
    write_boxes,
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
from .predictor import (
    ToyTrainConfig,
    check_classes,
    load_model,
    predict,
    save_model,
    train_loop,
)

# Overlay colors for labels 1.. (background keeps the image); cycled.
_PALETTE = np.array([
    (0.89, 0.10, 0.11), (0.22, 0.49, 0.72), (0.30, 0.69, 0.29),
    (0.60, 0.31, 0.64), (1.00, 0.50, 0.00), (1.00, 1.00, 0.20),
    (0.65, 0.34, 0.16), (0.97, 0.51, 0.75),
])


def _write_json(path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_run(args) -> None:
    config = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in sorted(vars(args).items()) if k != "func"}
    _write_json(args.out / "run.json",
                {"tool": "motionseg", "version": __version__,
                 "subcommand": args.subcommand, "config": config})


def _move_into(src, dest) -> None:
    """Rename ``src`` to ``dest``, or merge it into an existing directory."""
    if src.is_dir() and dest.is_dir():
        for child in src.iterdir():
            _move_into(child, dest / child.name)
    else:
        os.replace(src, dest)


def _inference_params(args) -> InferenceParams:
    pairwise = PairwiseParams(smoothness=args.smoothness,
                              contrast_scale=args.contrast_scale)
    return InferenceParams(prediction_weight=args.prediction_weight,
                           iterations=args.iterations,
                           pairwise=pairwise,
                           boundary_band=args.band,
                           gmm_components=args.components,
                           seed=args.seed)


def _manifest_model(args, manifest):
    """The ``--model`` checkpoint, if given, checked against the manifest."""
    return check_classes(load_model(args.model), manifest) if args.model else None


def _frame_scores(manifest, frame, model, img) -> ScoreMap:
    """Scores for one frame, whose image is ``img``: model prediction,
    stored map, or uniform."""
    num_labels = len(manifest.label_set)
    if model is not None:
        return predict(model, img)
    if frame.score_map_path is not None:
        scores = read_scores(manifest.resolve(frame.score_map_path))
        validate_score_map(scores, num_labels)
        return scores
    return ScoreMap(np.full((img.height, img.width, num_labels),
                            1.0 / num_labels))


def _frame_file(root, image_path, suffix=".pgm") -> Path:
    """A frame's file under ``root``: the frame path with ``suffix`` and
    without ``.``/``..`` components, so rebased manifests never address
    files outside the tree."""
    parts = [p for p in Path(image_path).parts if p not in ("..", ".", "/")]
    return Path(root) / Path(*parts).with_suffix(suffix)


def _selected_shots(manifest, sampled_only=True) -> list:
    """Every shot's (video, shot, frames) in manifest order, ``frames``
    being its sampled frames, or all of them when ``sampled_only`` is
    false. Refuses two frames that map to one ``_frame_file``: their
    outputs, or the label maps or boxes read for them, would be one."""
    shots = [(video, shot, shot_frames(shot) if sampled_only else shot.frames)
             for video, shot in manifest.shots()]
    seen = {}
    for video, _, frames in shots:
        for frame in frames:
            name = f"{video.video_id}: {frame.image_path}"
            path = _frame_file("", frame.image_path)
            if path in seen:
                raise SchemaError(
                    f"frames {seen[path]} and {name} map to one file, {path}")
            seen[path] = name
    return shots


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_prune(args, manifest, stage):
    params = PruneParams(min_frames=args.min_frames,
                         min_foreground=args.min_foreground,
                         max_foreground=args.max_foreground,
                         min_run=args.min_run)
    before = len(manifest.shots())
    pruned = prune_manifest(manifest, params)
    write_manifest(rebase(pruned, args.out), stage / "manifest.json")
    return {"shots_in": before, "shots_kept": len(pruned.shots())}


def _cmd_sample(args, manifest, stage):
    params = PruneParams(samples_per_shot=args.samples)
    sampled = sample_manifest(manifest, params)
    write_manifest(rebase(sampled, args.out), stage / "manifest.json")
    return {"shots": len(sampled.shots()), "samples_per_shot": args.samples}


def _write_label_maps(stage, manifest, label_shot):
    """Write ``label_shot(video, frames, masks)`` of every shot's sampled
    frames under ``stage``, one label map per frame."""
    shots = _selected_shots(manifest)
    for video, _, frames in shots:
        masks = [read_mask(manifest.resolve(f.motion_mask_path)) for f in frames]
        for frame, lab in zip(frames, label_shot(video, frames, masks)):
            dest = _frame_file(stage, frame.image_path)
            dest.parent.mkdir(parents=True, exist_ok=True)
            write_labels(lab, dest)
    return {"shots": len(shots), "frames": sum(len(fs) for _, _, fs in shots)}


def _cmd_infer(args, manifest, stage):
    params = _inference_params(args)
    model = _manifest_model(args, manifest)

    def label_shot(video, frames, masks):
        imgs = [read_image(manifest.resolve(f.image_path)) for f in frames]
        scores = [_frame_scores(manifest, f, model, im)
                  for f, im in zip(frames, imgs)]
        return infer_labels(list(zip(imgs, masks, scores)),
                            manifest.weak_indices(video), params)

    return _write_label_maps(stage, manifest, label_shot)


def _cmd_hard_assign(args, manifest, stage):
    return _write_label_maps(stage, manifest, lambda video, frames, masks:
                             hard_assign(masks, manifest.weak_indices(video)))


def _cmd_train_toy(args, manifest, stage):
    # every ToyTrainConfig field is a train-toy option of the same name
    cfg = ToyTrainConfig(**{f.name: getattr(args, f.name)
                            for f in fields(ToyTrainConfig)})
    model = train_loop(manifest, _inference_params(args), cfg)
    save_model(model, stage / "model.mtm")
    return {"classes": model.num_labels, "model": str(args.out / "model.mtm")}


def _cmd_select_finetune(args, manifest, stage):
    if (args.model is None) == (args.labels is None):
        raise SchemaError("give exactly one of --model or --labels")
    model = _manifest_model(args, manifest)
    overlaps = {}
    for video, shot, frames in _selected_shots(manifest):
        masks = [read_mask(manifest.resolve(f.motion_mask_path)) for f in frames]
        if model is not None:
            predicted = [argmax_labels(predict(
                model, read_image(manifest.resolve(f.image_path))))
                for f in frames]
        else:
            predicted = [read_labels(_frame_file(args.labels, f.image_path),
                                     len(manifest.label_set)) for f in frames]
        overlaps.setdefault(video.video_id, {})[shot.shot_id] = (
            shot_overlap(masks, predicted))
    picks = select_finetune_shots(overlaps, args.overlap_threshold)
    _write_json(stage / "selection.json",
                {"selection": picks, "overlaps": overlaps})
    return {"selected": sum(1 for v in picks.values() if v is not None),
            "videos": len(picks)}


def _cmd_coloc(args, manifest, stage):
    # checked here too: a shot without confident pixels never reaches them
    check_slic_options(args.superpixels, args.compactness)
    check_components(args.components)
    check_seed(args.seed)
    shots = _selected_shots(manifest)
    if multi := [v.video_id for v, _, _ in shots if len(v.weak_labels) > 1]:
        raise MultiLabelVideo(f"{multi[0]}: coloc takes one weak label only")
    model = _manifest_model(args, manifest)
    pairwise = PairwiseParams(smoothness=args.smoothness,
                              contrast_scale=args.contrast_scale)
    rows = []
    for video, _, frames in shots:
        (category,) = manifest.weak_indices(video)
        imgs = [read_image(manifest.resolve(f.image_path)) for f in frames]
        scores = [_frame_scores(manifest, f, model, im)
                  for f, im in zip(frames, imgs)]
        try:
            gmms = seed_gmms_from_scores(imgs, scores, category,
                                         n_components=args.components,
                                         seed=args.seed)
        except (EmptyForeground, EmptyBackground):
            gmms = None  # no confident pixel on one side: no box in the shot
        for frame, img in zip(frames, imgs):
            box = None
            if gmms is not None:
                sp = slic_superpixels(img, args.superpixels, args.compactness)
                box = largest_component_box(
                    coloc_segment(img, sp, gmms, pairwise))
            rows.append((frame.image_path, box))
    write_boxes(rows, stage / "boxes.csv")
    return {"frames": len(rows), "boxes": str(args.out / "boxes.csv")}


def _cmd_eval_iou(args, manifest, stage):
    acc = ConfusionAccumulator.zeros(len(manifest.label_set))
    shots = _selected_shots(manifest, args.sampled_only)
    frames = 0
    for frame in (f for _, _, fs in shots for f in fs):
        if frame.ground_truth_label_path is None:
            continue
        truth = read_labels(manifest.resolve(frame.ground_truth_label_path),
                            max(len(manifest.label_set), VOID_LABEL + 1))
        pred = read_labels(_frame_file(args.pred, frame.image_path),
                           len(manifest.label_set))
        accumulate_iou(acc, pred, truth, ignore_value=args.ignore_value)
        frames += 1
    per_class = {name: (None if not np.isfinite(v) else float(v))
                 for name, v in zip(manifest.label_set.categories,
                                    acc.iou_by_class())}
    report = {"frames": frames, "per_class_iou": per_class,
              "mean_iou": mean_iou(acc)}
    _write_json(stage / "report.json", report)
    return {"frames": frames, "mean_iou": report["mean_iou"]}


def _cmd_eval_corloc(args, manifest, stage):
    shots = _selected_shots(manifest, args.sampled_only)  # before --boxes
    predicted = read_boxes(args.boxes)
    pairs = []
    by_class = {}
    for video, frame in ((v, f) for v, _, fs in shots for f in fs):
        if frame.ground_truth_box is None:
            continue
        if frame.image_path not in predicted:
            raise SchemaError(f"{args.boxes}: no row for {frame.image_path}")
        pair = (predicted[frame.image_path], frame.ground_truth_box)
        pairs.append(pair)
        for name in video.weak_labels:
            by_class.setdefault(name, []).append(pair)
    report = {
        "frames": len(pairs),
        "corloc": corloc(pairs),
        "per_class_corloc": {name: corloc(p) for name, p in
                             sorted(by_class.items())},
    }
    _write_json(stage / "report.json", report)
    return {"frames": len(pairs), "corloc": report["corloc"]}


def _cmd_overlay(args, manifest, stage):
    if not 0.0 <= args.opacity <= 1.0:
        raise ValueError(f"--opacity must lie in [0, 1], got {args.opacity}")
    shots = _selected_shots(manifest, args.sampled_only)
    done = 0
    for frame in (f for _, _, fs in shots for f in fs):
        label_path = _frame_file(args.labels, frame.image_path)
        if not label_path.exists():
            continue
        img = read_image(manifest.resolve(frame.image_path))
        labels = read_labels(label_path, 256)
        check_same_shape(img, labels)
        colors = _PALETTE[(labels.labels - 1) % len(_PALETTE)]
        blend = np.where((labels.labels > 0)[..., None],
                         (1 - args.opacity) * img.pixels + args.opacity * colors,
                         img.pixels)
        dest = _frame_file(stage, frame.image_path, ".ppm")
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_image(RgbImage(blend), dest)
        done += 1
    selected = sum(len(fs) for _, _, fs in shots)
    if selected and not done:
        raise FileNotFoundError(f"--labels {args.labels}: no label map for "
                                f"any of the {selected} selected frames")
    return {"frames": done}


# ---------------------------------------------------------------------------
# argument plumbing


def _add_energy(p):
    p.add_argument("--seed", type=int, default=InferenceParams.seed,
                   help="seed for all randomness in this run")
    p.add_argument("--smoothness", type=float,
                   default=PairwiseParams.smoothness, help="pairwise strength")
    p.add_argument("--contrast-scale", type=float,
                   default=PairwiseParams.contrast_scale,
                   help="color-contrast exponent coefficient")
    p.add_argument("--components", type=int, default=DEFAULT_COMPONENTS,
                   help="GMM components per side")


def _add_inference(p):
    _add_energy(p)
    p.add_argument("--band", type=int, default=InferenceParams.boundary_band,
                   help="motion-boundary band half-width")
    p.add_argument("--prediction-weight", type=float,
                   default=InferenceParams.prediction_weight,
                   help="weight of the prediction unary")
    p.add_argument("--iterations", type=int, default=InferenceParams.iterations,
                   help="at most N minimize/refit rounds; stops early when a "
                        "round repeats the previous labeling")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="motionseg",
        description="Latent-label inference from motion masks and predictions")
    parser.add_argument("--version", action="version",
                        version=f"motionseg {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--manifest", required=True, type=Path,
                       help="dataset manifest JSON")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.set_defaults(func=func)
        return p

    p = add("prune", _cmd_prune, "drop shots with unusable motion")
    p.add_argument("--min-frames", type=int, default=PruneParams.min_frames)
    p.add_argument("--min-foreground", type=float,
                   default=PruneParams.min_foreground)
    p.add_argument("--max-foreground", type=float,
                   default=PruneParams.max_foreground)
    p.add_argument("--min-run", type=int, default=PruneParams.min_run)

    p = add("sample", _cmd_sample, "sample frames evenly from kept ranges")
    p.add_argument("--samples", type=int, default=PruneParams.samples_per_shot)

    p = add("infer", _cmd_infer, "estimate per-pixel labels per shot")
    _add_inference(p)
    p.add_argument("--model", type=Path, default=None,
                   help="toy model checkpoint supplying scores")

    add("hard-assign", _cmd_hard_assign, "copy motion masks into labels")

    p = add("train-toy", _cmd_train_toy, "run the alternating training loop")
    _add_inference(p)
    for f in fields(ToyTrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                       default=f.default)

    p = add("select-finetune", _cmd_select_finetune,
            "pick the best-overlapping shot per video")
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--labels", type=Path, default=None,
                   help="directory of label maps from infer/hard-assign")
    p.add_argument("--overlap-threshold", type=float,
                   default=ToyTrainConfig.overlap_threshold)

    p = add("coloc", _cmd_coloc, "co-localization boxes per frame")
    _add_energy(p)
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--superpixels", type=int, default=1000)
    p.add_argument("--compactness", type=float, default=DEFAULT_COMPACTNESS)

    p = add("eval-iou", _cmd_eval_iou, "mean IoU against ground truth labels")
    p.add_argument("--pred", required=True, type=Path,
                   help="directory of predicted label maps")
    p.add_argument("--ignore-value", type=int, default=VOID_LABEL)
    p.add_argument("--sampled-only", action="store_true",
                   help="restrict to the frames selected per shot")

    p = add("eval-corloc", _cmd_eval_corloc,
            "CorLoc against ground truth boxes")
    p.add_argument("--boxes", required=True, type=Path, help="boxes CSV")
    p.add_argument("--sampled-only", action="store_true")

    p = add("overlay", _cmd_overlay, "render label maps over frames")
    p.add_argument("--labels", required=True, type=Path)
    p.add_argument("--opacity", type=float, default=0.5)
    p.add_argument("--sampled-only", action="store_true")

    return parser


def main(argv=None) -> int:
    """Run one stage: the handler writes its artifacts into the stage
    ``<out>.<random>`` and returns its summary; only then is the stage moved
    into ``--out`` and are ``run.json`` and the summary line written."""
    args = build_parser().parse_args(argv)
    try:
        manifest = read_manifest(args.manifest)
        stage = args.out.parent / f"{args.out.name}.{secrets.token_hex(8)}"
        stage.mkdir(parents=True)  # a taken name is refused, never removed
        try:
            summary = args.func(args, manifest, stage)
            (args.out / "run.json").unlink(missing_ok=True)
            _move_into(stage, args.out)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        _write_run(args)
    except (MotionSegError, OSError, ValueError, OverflowError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
