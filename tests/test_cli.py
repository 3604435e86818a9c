"""End-to-end checks of the batch command line frontend.

A fresh synthetic blob dataset is built once per module and the chain
prune -> sample -> infer / hard-assign runs on it; individual tests then
assert on each stage's files, the stdout JSON summaries, the run.json
contract, and determinism.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motionseg.cli
from motionseg import __version__
from motionseg.cli import main
from motionseg.core import LabelMap, MotionMask, ScoreMap
from motionseg.inference import InferenceParams, hard_assign, infer_labels
from motionseg.io import read_image, read_labels, read_manifest, read_mask, \
    write_boxes, write_labels, write_mask, write_scores
from motionseg.pipeline import shot_frames
from motionseg.predictor import ToyModel, load_model, save_model
from motionseg.synthetic import write_blob_dataset

SAMPLED = (4, 6, 8, 11, 13, 15, 17, 20, 22, 24)


def _layout(image_path):
    """Mirror of the CLI's output layout: frame path minus any . or .."""
    parts = [p for p in Path(image_path).parts if p not in ("..", ".", "/")]
    return Path(*parts)


def _stdout_doc(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Dataset plus the pruned/sampled/inferred artifacts, built once."""
    root = tmp_path_factory.mktemp("cli_ws")
    w = SimpleNamespace(root=root)
    w.manifest = write_blob_dataset(root / "data", seed=0, with_scores=True)
    w.prune_out = root / "pruned"
    w.sample_out = root / "sampled"
    w.infer_out = root / "labels"
    w.hard_out = root / "hard"
    assert main(["prune", "--manifest", str(w.manifest),
                 "--out", str(w.prune_out)]) == 0
    w.pruned_manifest = w.prune_out / "manifest.json"
    assert main(["sample", "--manifest", str(w.pruned_manifest),
                 "--out", str(w.sample_out)]) == 0
    w.sampled_manifest = w.sample_out / "manifest.json"
    w.infer_args = ["--manifest", str(w.sampled_manifest),
                    "--iterations", "1", "--components", "2"]
    assert main(["infer", *w.infer_args, "--out", str(w.infer_out)]) == 0
    assert main(["hard-assign", "--manifest", str(w.sampled_manifest),
                 "--out", str(w.hard_out)]) == 0
    return w


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "motionseg" in out and __version__ in out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_main_reuses_one_parser_with_independent_namespaces(tmp_path,
                                                            monkeypatch):
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        seen.append((self, ns))
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    missing = str(tmp_path / "missing.json")
    assert main(["prune", "--manifest", missing, "--out", str(tmp_path / "a"),
                 "--min-frames", "3"]) == 1
    assert main(["sample", "--manifest", missing,
                 "--out", str(tmp_path / "b")]) == 1
    (p1, ns1), (p2, ns2) = seen
    assert p1 is p2 is motionseg.cli.build_parser()
    assert ns1 is not ns2
    assert (ns1.subcommand, ns1.min_frames, ns1.out) == ("prune", 3,
                                                         tmp_path / "a")
    assert ns2.subcommand == "sample" and ns2.out == tmp_path / "b"
    assert not hasattr(ns2, "min_frames")


def test_error_is_one_line_json(tmp_path, capsys):
    rc = main(["prune", "--manifest", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert "error" in doc and "message" in doc


def test_malformed_kept_range_is_one_line_json(tmp_path, capsys):
    frame = {"image_path": "f.ppm", "motion_mask_path": "f.pgm"}
    doc = {"videos": [{"video_id": "v", "weak_labels": ["car"],
                       "shots": [{"shot_id": "s", "frames": [frame],
                                  "kept_range": "ab"}]}]}
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    rc = main(["sample", "--manifest", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "SchemaError"


def test_mixed_type_weak_labels_are_one_line_json(tmp_path, capsys):
    frame = {"image_path": "f.ppm", "motion_mask_path": "f.pgm"}
    doc = {"videos": [
        {"video_id": v, "weak_labels": labels,
         "shots": [{"shot_id": "s", "frames": [frame]}]}
        for v, labels in (("a", ["cat"]), ("b", [3]))]}
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    rc = main(["sample", "--manifest", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "SchemaError"


def test_repeated_weak_label_is_one_line_json(ws, tmp_path, capsys):
    doc = json.loads(ws.sampled_manifest.read_text())
    doc["videos"][0]["weak_labels"] *= 2
    # next to the sampled manifest, so that its frame paths resolve
    bad = ws.sampled_manifest.with_name("repeated-label.json")
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for sub in ("hard-assign", "train-toy"):
        assert main([sub, "--manifest", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1 and captured.out == ""
        doc = json.loads(err_lines[0])
        assert doc == {"error": "SchemaError",
                       "message": "videos[0]: weak_labels must be unique"}
        assert not out.exists()


def test_manifest_without_categories_goes_through_prune_and_sample(
        tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"videos": []}\n')
    pruned, sampled = tmp_path / "pruned", tmp_path / "sampled"
    assert main(["prune", "--manifest", str(empty),
                 "--out", str(pruned)]) == 0
    assert main(["sample", "--manifest", str(pruned / "manifest.json"),
                 "--out", str(sampled)]) == 0
    m = read_manifest(sampled / "manifest.json")
    assert m.videos == () and m.label_set.categories == ("background",)
    assert capsys.readouterr().err == ""


def _one_json_line(capsys):
    """The error document of a failed stage, which printed nothing else."""
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1 and captured.out == ""
    return json.loads(err_lines[0])


@pytest.mark.parametrize("sampled, kept, message", [
    ([0, 0, 9], [2, 6], "sampled index outside [2, 6)"),
    ([2, 2, 5], [2, 6], "sampled_indices must be strictly increasing"),
])
def test_hand_written_sampled_indices_are_one_line_json(
        ws, tmp_path, capsys, sampled, kept, message):
    # both shots used to run with exit 0 and write fewer label maps than
    # the frames they reported
    doc = json.loads(ws.sampled_manifest.read_text())
    for video in doc["videos"]:
        for shot in video["shots"]:
            shot.update(kept_range=kept, sampled_indices=sampled)
    bad = ws.sampled_manifest.with_name("hand-sampled.json")
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for sub in ("infer", "hard-assign"):
        assert main([sub, "--manifest", str(bad), "--out", str(out)]) == 1
        assert _one_json_line(capsys) == {
            "error": "SchemaError",
            "message": f"videos[0].shots[0]: {message}"}
        assert not out.exists()


def test_train_toy_without_object_category_is_one_line_json(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"videos": []}\n')
    out = tmp_path / "toy"
    assert main(["train-toy", "--manifest", str(empty),
                 "--out", str(out)]) == 1
    assert _one_json_line(capsys) == {
        "error": "ZeroCount",
        "message": "the manifest lists no object category"}
    assert not out.exists()


def test_negative_finetune_weight_is_refused_before_training(
        ws, tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(motionseg.cli, "train_loop",
                        lambda *a, **k: trained.append(a))
    out = tmp_path / "toy"
    assert main(["train-toy", "--manifest", str(ws.sampled_manifest),
                 "--epochs", "1", "--finetune-epochs", "1",
                 "--overlap-threshold", "0", "--iterations", "1",
                 "--components", "2", "--finetune-prediction-weight", "-1",
                 "--out", str(out)]) == 1
    doc = _one_json_line(capsys)
    assert doc["error"] == "ValueError"
    assert "finetune_prediction_weight" in doc["message"]
    assert trained == [] and not out.exists()


@pytest.fixture(scope="module")
def colliding(tmp_path_factory):
    """Two manifests whose frames collide on ``_frame_file``: one in
    ``root/m`` lists the seed-7 blob tree at ``../data/`` and the seed-8
    tree at ``data/``; in the other, a second video lists the first
    video's images."""
    root = tmp_path_factory.mktemp("collide")
    videos = []
    for seed, tree, prefix in ((7, root / "data", "../data/"),
                               (8, root / "m" / "data", "data/")):
        doc = json.loads(write_blob_dataset(tree, seed=seed,
                                            with_scores=True).read_text())
        for video in doc["videos"]:
            video["video_id"] += f"_{seed}"
            for frame in (f for shot in video["shots"]
                          for f in shot["frames"]):
                for key in [k for k in frame if k.endswith("_path")]:
                    frame[key] = prefix + frame[key]
        videos += doc["videos"]
    rebased = root / "m" / "manifest.json"
    rebased.write_text(json.dumps({"categories": ["red", "blue"],
                                   "videos": videos}))
    doc = json.loads((root / "data" / "manifest.json").read_text())
    doc["videos"].append(dict(doc["videos"][0], video_id="copy"))
    shared = root / "data" / "shared.json"
    shared.write_text(json.dumps(doc))
    return SimpleNamespace(root=root, rebased=rebased, shared=shared)


@pytest.mark.parametrize("sub, extra", [
    ("infer", []),
    ("hard-assign", []),
    ("eval-iou", ["--pred"]),
    ("overlay", ["--labels"]),
    ("select-finetune", ["--labels"]),
    ("coloc", []),
    ("eval-corloc", ["--boxes"]),
])
def test_frames_that_map_to_one_file_are_one_line_json(colliding, tmp_path,
                                                       capsys, sub, extra):
    out = tmp_path / "out"
    extra = [*extra, str(tmp_path / "labels")] if extra else []
    assert main([sub, "--manifest", str(colliding.rebased), *extra,
                 "--out", str(out)]) == 1
    assert _one_json_line(capsys) == {
        "error": "SchemaError",
        "message": "frames red_00_7: ../data/red_00/frame_000.ppm and "
                   "red_00_8: data/red_00/frame_000.ppm map to one file, "
                   "data/red_00/frame_000.pgm"}
    assert not out.exists()
    assert main([sub, "--manifest", str(colliding.shared), *extra,
                 "--out", str(out)]) == 1
    assert _one_json_line(capsys)["message"].startswith(
        "frames red_00: red_00/frame_000.ppm and copy: red_00/frame_000.ppm ")
    assert not out.exists()


def test_a_shot_that_fails_leaves_no_label_maps(tmp_path, capsys):
    # blue_00's fit fails after red_00's 26 maps are computed
    manifest = write_blob_dataset(tmp_path / "data", seed=7, with_scores=True)
    m = read_manifest(manifest)
    for frame in m.videos[1].shots[0].frames:
        write_mask(MotionMask(np.zeros((24, 30))),
                   m.resolve(frame.motion_mask_path))
    out = tmp_path / "labels"
    assert main(["infer", "--manifest", str(manifest), "--iterations", "1",
                 "--components", "1", "--out", str(out)]) == 1
    assert _one_json_line(capsys)["error"] == "EmptyForeground"
    assert not out.exists()


def test_infer_without_model_or_score_maps_uses_uniform_scores(
        tmp_path, capsys):
    root = tmp_path / "bare"
    manifest = write_blob_dataset(root / "data", seed=7, frame_count=8)
    assert main(["infer", "--manifest", str(manifest), "--iterations", "1",
                 "--components", "2", "--out", str(root / "labels")]) == 0
    assert _stdout_doc(capsys) == {"frames": 16, "shots": 2}
    m = read_manifest(manifest)
    params = InferenceParams(iterations=1, gmm_components=2)
    for video, shot in m.shots():
        assert all(f.score_map_path is None for f in shot.frames)
        imgs = [read_image(m.resolve(f.image_path)) for f in shot.frames]
        masks = [read_mask(m.resolve(f.motion_mask_path)) for f in shot.frames]
        uniform = [ScoreMap(np.full((img.height, img.width, 3), 1 / 3))
                   for img in imgs]
        want = infer_labels(list(zip(imgs, masks, uniform)),
                            m.weak_indices(video), params)
        for frame, lab in zip(shot.frames, want):
            got = read_labels(root / "labels" / _layout(frame.image_path)
                              .with_suffix(".pgm"), 3)
            assert np.array_equal(got.labels, lab.labels), frame.image_path


@pytest.fixture(scope="module")
def repeated_ids(tmp_path_factory):
    """The seed-7 blob tree with both videos renamed ``v`` and both shots
    ``s``, at each stage: stage -> manifest, plus hard-assign labels of the
    sampled frames."""
    root = tmp_path_factory.mktemp("repeated_ids")
    manifests = {"data": write_blob_dataset(root / "data", seed=7),
                 "pruned": root / "pruned" / "manifest.json",
                 "sampled": root / "sampled" / "manifest.json"}
    for sub, src, out in (("prune", "data", "pruned"),
                          ("sample", "pruned", "sampled"),
                          ("hard-assign", "sampled", "labels")):
        assert main([sub, "--manifest", str(manifests[src]),
                     "--out", str(root / out)]) == 0
    for stage in manifests:
        doc = json.loads(manifests[stage].read_text())
        for video in doc["videos"]:
            video["video_id"] = "v"
            for shot in video["shots"]:
                shot["shot_id"] = "s"
        manifests[stage] = manifests[stage].with_name("repeated.json")
        manifests[stage].write_text(json.dumps(doc))
    return SimpleNamespace(labels=root / "labels", **manifests)


@pytest.mark.parametrize("sub, stage, extra", [
    ("prune", "data", ()),
    ("sample", "pruned", ()),
    ("hard-assign", "sampled", ()),
    ("select-finetune", "sampled", ("--labels",)),
])
def test_repeated_video_id_is_one_line_json(repeated_ids, tmp_path, capsys,
                                            sub, stage, extra):
    extra = [*extra, str(repeated_ids.labels)] if extra else []
    out = tmp_path / "out"
    rc = main([sub, "--manifest", str(getattr(repeated_ids, stage)),
               *extra, "--out", str(out)])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "SchemaError"
    assert doc["message"] == "videos[1]: video_id repeats videos[0]"
    assert not out.exists()


def test_prune_run_json_contract(ws):
    doc = json.loads((ws.prune_out / "run.json").read_text())
    assert doc["tool"] == "motionseg"
    assert doc["version"] == __version__
    assert doc["subcommand"] == "prune"
    cfg = doc["config"]
    assert "seed" not in cfg and cfg["min_frames"] == 20
    assert cfg["min_foreground"] == 0.025 and cfg["max_foreground"] == 0.50
    assert "func" not in cfg


def test_prune_output_manifest(ws):
    man = read_manifest(ws.pruned_manifest)
    shots = [s for v in man.videos for s in v.shots]
    assert len(shots) == 2
    assert all(s.kept_range == (3, 26) for s in shots)


def test_prune_stdout(ws, tmp_path, capsys):
    assert main(["prune", "--manifest", str(ws.manifest),
                 "--out", str(tmp_path / "again")]) == 0
    assert _stdout_doc(capsys) == {"shots_in": 2, "shots_kept": 2}


def test_sample_output_manifest(ws):
    man = read_manifest(ws.sampled_manifest)
    for video in man.videos:
        for shot in video.shots:
            assert shot.sampled_indices == SAMPLED
            frames = shot_frames(shot)
            assert len(frames) == 10
            assert [int(Path(f.image_path).stem.split("_")[-1])
                    for f in frames] == list(SAMPLED)


def test_rebased_manifest_paths_resolve(ws):
    man = read_manifest(ws.sampled_manifest)
    frame = man.videos[0].shots[0].frames[0]
    assert ".." in frame.image_path
    assert man.resolve(frame.image_path).exists()
    assert man.resolve(frame.motion_mask_path).exists()


def test_infer_writes_expected_pgms(ws):
    man = read_manifest(ws.sampled_manifest)
    expected = {str(_layout(f.image_path).with_suffix(".pgm"))
                for v in man.videos for s in v.shots for f in shot_frames(s)}
    written = {str(p.relative_to(ws.infer_out))
               for p in ws.infer_out.rglob("*.pgm")}
    assert written == expected
    for rel in sorted(written):
        lab = read_labels(ws.infer_out / rel, 3)
        assert lab.labels.shape == (24, 30)


def test_infer_labels_match_truth_closely(ws):
    man = read_manifest(ws.sampled_manifest)
    frame = next(f for f in shot_frames(man.videos[0].shots[0])
                 if f.image_path.endswith("frame_004.ppm"))
    pred = read_labels(
        ws.infer_out / _layout(frame.image_path).with_suffix(".pgm"), 3)
    truth = read_labels(man.resolve(frame.ground_truth_label_path), 3)
    agree = np.mean(pred.labels == truth.labels)
    assert agree > 0.97


def test_hard_assign_matches_library(ws):
    man = read_manifest(ws.sampled_manifest)
    for vi, video in enumerate(man.videos):
        frame = shot_frames(video.shots[0])[0]
        mask = read_mask(man.resolve(frame.motion_mask_path))
        weak = man.label_set.index(video.weak_labels[0])
        direct = hard_assign([mask], (weak,))[0]
        written = read_labels(
            ws.hard_out / _layout(frame.image_path).with_suffix(".pgm"), 3)
        assert np.array_equal(direct.labels, written.labels)


def test_hard_assign_refuses_a_multi_label_video_before_any_write(
        tmp_path, capsys):
    # the refused video comes second: the first one's label maps used to
    # be written before the refusal
    manifest = write_blob_dataset(tmp_path / "data", seed=7)
    doc = json.loads(manifest.read_text())
    doc["videos"][1]["weak_labels"] = ["red", "blue"]
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["hard-assign", "--manifest", str(manifest),
                 "--out", str(out)]) == 1
    assert _one_json_line(capsys) == {
        "error": "MultiLabelVideo",
        "message": "hard assignment needs exactly one weak label, got 2"}
    assert not out.exists()


def test_coloc_refuses_a_multi_label_video(tmp_path, capsys):
    # it used to box the first weak label alone, so the boxes depended on
    # the order of weak_labels
    manifest = write_blob_dataset(tmp_path / "data", seed=7, with_scores=True)
    doc = json.loads(manifest.read_text())
    doc["videos"][1]["weak_labels"] = ["red", "blue"]
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["coloc", "--manifest", str(manifest), "--superpixels", "20",
                 "--out", str(out)]) == 1
    video = doc["videos"][1]["video_id"]
    assert _one_json_line(capsys) == {
        "error": "MultiLabelVideo",
        "message": f"{video}: coloc takes one weak label only"}
    assert not out.exists()


def test_eval_iou_chain(ws, tmp_path, capsys):
    out = tmp_path / "iou"
    rc = main(["eval-iou", "--manifest", str(ws.sampled_manifest),
               "--pred", str(ws.infer_out), "--out", str(out),
               "--sampled-only"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frames"] == 20
    assert report["mean_iou"] > 0.95
    assert set(report["per_class_iou"]) == {"background", "red", "blue"}
    assert _stdout_doc(capsys)["mean_iou"] == report["mean_iou"]


def test_eval_iou_identity(ws, tmp_path):
    # predictions equal to the truth must score a perfect mean IoU
    man = read_manifest(ws.sampled_manifest)
    ident = tmp_path / "ident"
    for video in man.videos:
        for shot in video.shots:
            for frame in shot.frames:
                lab = read_labels(man.resolve(frame.ground_truth_label_path), 3)
                dest = ident / _layout(frame.image_path).with_suffix(".pgm")
                dest.parent.mkdir(parents=True, exist_ok=True)
                write_labels(lab, dest)
    out = tmp_path / "iou"
    assert main(["eval-iou", "--manifest", str(ws.sampled_manifest),
                 "--pred", str(ident), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frames"] == 52
    assert report["mean_iou"] == 1.0
    assert all(v == 1.0 for v in report["per_class_iou"].values())


def test_select_finetune_with_labels(ws, tmp_path, capsys):
    out = tmp_path / "sel"
    rc = main(["select-finetune", "--manifest", str(ws.sampled_manifest),
               "--out", str(out), "--labels", str(ws.hard_out)])
    assert rc == 0
    doc = json.loads((out / "selection.json").read_text())
    assert doc["selection"] == {"red_00": "red_00_shot0",
                                "blue_00": "blue_00_shot0"}
    assert doc["overlaps"]["red_00"]["red_00_shot0"] == 1.0
    assert _stdout_doc(capsys) == {"selected": 2, "videos": 2}


def test_select_finetune_zero_model_selects_nothing(ws, tmp_path, capsys):
    # an untrained model predicts background everywhere: overlap 0 < 0.2
    model_path = tmp_path / "zero.mtm"
    save_model(ToyModel(np.zeros((3, 10)), np.zeros((3, 10))), model_path)
    out = tmp_path / "sel"
    rc = main(["select-finetune", "--manifest", str(ws.sampled_manifest),
               "--out", str(out), "--model", str(model_path)])
    assert rc == 0
    doc = json.loads((out / "selection.json").read_text())
    assert doc["selection"] == {"red_00": None, "blue_00": None}
    assert _stdout_doc(capsys)["selected"] == 0


def test_select_finetune_needs_exactly_one_source(ws, tmp_path, capsys):
    model_path = tmp_path / "zero.mtm"
    save_model(ToyModel(np.zeros((3, 10)), np.zeros((3, 10))), model_path)
    rc = main(["select-finetune", "--manifest", str(ws.sampled_manifest),
               "--out", str(tmp_path / "a"), "--model", str(model_path),
               "--labels", str(ws.hard_out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
    rc = main(["select-finetune", "--manifest", str(ws.sampled_manifest),
               "--out", str(tmp_path / "b")])
    assert rc == 1


def test_model_with_wrong_class_count_is_one_line_json(ws, tmp_path, capsys):
    # the blob manifest has 3 labels (background, red, blue)
    model_path = tmp_path / "seven.mtm"
    save_model(ToyModel.zeros(7), model_path)
    for sub in ("infer", "select-finetune", "coloc"):
        out = tmp_path / sub
        rc = main([sub, "--manifest", str(ws.sampled_manifest),
                   "--model", str(model_path), "--out", str(out)])
        assert rc == 1, sub
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1, sub
        assert json.loads(err_lines[0]) == {
            "error": "BadDimensions",
            "message": "model has 7 classes, manifest 3"}, sub
        assert not out.exists(), sub


def test_model_runs_read_each_frame_image_once(ws, tmp_path, monkeypatch):
    # red wins on red pixels, blue on blue ones, background elsewhere
    weights = np.zeros((3, 10))
    weights[1, 0] = weights[2, 2] = 20.0
    weights[1, 9] = weights[2, 9] = -10.0
    model_path = tmp_path / "color.mtm"
    save_model(ToyModel(weights, np.zeros((3, 10))), model_path)
    reads = []

    def counting_read_image(path):
        reads.append(str(path))
        return read_image(path)

    monkeypatch.setattr(motionseg.cli, "read_image", counting_read_image)
    for sub, extra in (("infer", ["--iterations", "1"]),
                       ("coloc", ["--superpixels", "60"])):
        reads.clear()
        rc = main([sub, "--manifest", str(ws.sampled_manifest), *extra,
                   "--components", "2", "--model", str(model_path),
                   "--out", str(tmp_path / sub)])
        assert rc == 0, sub
        assert len(reads) == len(set(reads)) == 20, sub


def test_wrong_size_label_map_is_one_line_json(ws, tmp_path, capsys):
    # the last selected frame's map: overlay used to write the others first
    labels = tmp_path / "labels"
    shutil.copytree(ws.hard_out, labels)
    frame = shot_frames(read_manifest(ws.sampled_manifest)
                        .videos[-1].shots[-1])[-1]
    write_labels(LabelMap(np.zeros((1, 30), dtype=np.int32)),
                 labels / _layout(frame.image_path).with_suffix(".pgm"))
    for sub in ("select-finetune", "overlay"):
        rc = main([sub, "--manifest", str(ws.sampled_manifest),
                   "--labels", str(labels), "--out", str(tmp_path / sub)])
        assert rc == 1, sub
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1, sub
        assert json.loads(err_lines[0])["error"] == "DimensionMismatch", sub
        assert not (tmp_path / sub).exists(), sub


def test_coloc_then_eval_corloc(ws, tmp_path, capsys):
    boxes_out = tmp_path / "boxes"
    rc = main(["coloc", "--manifest", str(ws.sampled_manifest),
               "--out", str(boxes_out), "--superpixels", "60",
               "--components", "2"])
    assert rc == 0
    assert _stdout_doc(capsys)["boxes"] == str(boxes_out / "boxes.csv")
    lines = (boxes_out / "boxes.csv").read_text().splitlines()
    assert lines[0] == "frame_path,x_min,y_min,x_max,y_max"
    assert len(lines) == 21
    for line in lines[1:]:
        path, x0, y0, x1, y1 = line.split(",")
        assert path.endswith(".ppm")
        assert 0 <= int(x0) <= int(x1) <= 29
        assert 0 <= int(y0) <= int(y1) <= 23

    out = tmp_path / "corloc"
    rc = main(["eval-corloc", "--manifest", str(ws.sampled_manifest),
               "--boxes", str(boxes_out / "boxes.csv"), "--out", str(out),
               "--sampled-only"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["frames"] == 20
    assert report["corloc"] == 100.0
    assert report["per_class_corloc"] == {"red": 100.0, "blue": 100.0}
    assert _stdout_doc(capsys)["corloc"] == 100.0


def test_coloc_shot_without_confident_pixels_gets_empty_rows(tmp_path, capsys):
    # flat scores put no pixel of one video above 0.5: its frames get the
    # empty row, and the other video keeps the boxes it had before
    manifest = write_blob_dataset(tmp_path / "data", seed=5, frame_count=4,
                                  height=12, width=16, with_scores=True)
    argv = ["coloc", "--manifest", str(manifest), "--superpixels", "20",
            "--components", "1"]

    def rows(out):
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
        assert _stdout_doc(capsys)["frames"] == 8
        lines = (tmp_path / out / "boxes.csv").read_text().splitlines()[1:]
        return dict(line.split(",", 1) for line in lines)

    before = rows("before")
    m = read_manifest(manifest)
    flat = m.videos[0]
    for f in flat.shots[0].frames:
        write_scores(ScoreMap(np.full((12, 16, 3), 1 / 3)),
                     m.resolve(f.score_map_path))
    after = rows("after")
    kept = {p: b for p, b in before.items()
            if not p.startswith(flat.video_id + "/")}
    assert len(kept) == 4 and set(kept.values()) != {",,,"}
    assert after == {**dict.fromkeys(before, ",,,"), **kept} != before


@pytest.fixture(scope="module")
def bare_manifest(tmp_path_factory):
    # no score maps: every pixel scores 1/3, so no shot is ever segmented
    return write_blob_dataset(tmp_path_factory.mktemp("bare") / "data",
                              seed=7, videos_per_category=1)


@pytest.mark.parametrize("option, value, message", [
    ("--superpixels", "0", "target_count must be >= 1"),
    ("--compactness", "-5", "compactness must be >= 0"),
    ("--components", "0", "n_components must be >= 1"),
    ("--seed", "-1", "seed must be >= 0"),
])
def test_coloc_checks_options_without_confident_pixels(
        bare_manifest, tmp_path, capsys, option, value, message):
    out = tmp_path / "out"
    rc = main(["coloc", "--manifest", str(bare_manifest), option, value,
               "--out", str(out)])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "ValueError" and doc["message"].startswith(message)
    assert not out.exists()


@pytest.fixture(scope="module")
def shotless_manifest(bare_manifest, tmp_path_factory):
    # no shot keeps 90% foreground, so no GMM is ever fitted
    out = tmp_path_factory.mktemp("shotless") / "pruned"
    assert main(["prune", "--manifest", str(bare_manifest), "--out", str(out),
                 "--min-foreground", "0.9", "--max-foreground", "1.0"]) == 0
    assert read_manifest(out / "manifest.json").shots() == []
    return out / "manifest.json"


@pytest.mark.parametrize("sub, option, value, message", [
    ("infer", "--components", "0", "n_components must be >= 1"),
    ("infer", "--seed", "-1", "seed must be >= 0"),
    ("train-toy", "--components", "0", "n_components must be >= 1"),
    ("train-toy", "--seed", "-1", "seed must be >= 0"),
    ("coloc", "--seed", "-1", "seed must be >= 0"),
])
def test_bad_gmm_option_is_refused_without_a_shot(
        shotless_manifest, tmp_path, capsys, sub, option, value, message):
    out = tmp_path / "out"
    rc = main([sub, "--manifest", str(shotless_manifest), option, value,
               "--out", str(out)])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0]) == {"error": "ValueError",
                                        "message": message}
    assert not out.exists()


def test_overlay_skips_missing_label_maps(ws, tmp_path, capsys):
    # without --sampled-only all 52 frames are visited, but label maps
    # exist only for the 20 sampled ones; the rest are skipped
    out = tmp_path / "viz"
    rc = main(["overlay", "--manifest", str(ws.sampled_manifest),
               "--labels", str(ws.infer_out), "--out", str(out)])
    assert rc == 0
    assert _stdout_doc(capsys) == {"frames": 20}
    ppms = sorted(out.rglob("*.ppm"))
    assert len(ppms) == 20
    img = read_image(ppms[0])
    assert (img.height, img.width) == (24, 30)


def test_overlay_without_any_label_map_is_one_line_json(ws, tmp_path,
                                                        capsys):
    # a mistyped --labels used to print {"frames": 0} and exit 0; without
    # --sampled-only all 52 frames are selected
    out = tmp_path / "viz"
    rc = main(["overlay", "--manifest", str(ws.sampled_manifest),
               "--labels", str(tmp_path / "nope"), "--out", str(out)])
    assert rc == 1
    assert _one_json_line(capsys) == {
        "error": "FileNotFoundError",
        "message": f"--labels {tmp_path / 'nope'}: no label map for any of "
                   f"the 52 selected frames"}
    assert not out.exists()
    # a manifest that selects no frame has nothing to render either way
    empty = tmp_path / "empty.json"
    empty.write_text('{"videos": []}')
    rc = main(["overlay", "--manifest", str(empty), "--labels",
               str(tmp_path / "nope"), "--out", str(out)])
    assert rc == 0
    assert _stdout_doc(capsys) == {"frames": 0}


def test_train_toy_cli(ws, tmp_path, capsys):
    out = tmp_path / "toy"
    rc = main(["train-toy", "--manifest", str(ws.sampled_manifest),
               "--out", str(out), "--epochs", "1", "--learning-rate", "0.05",
               "--iterations", "1", "--components", "2"])
    assert rc == 0
    assert _stdout_doc(capsys) == {"classes": 3,
                                   "model": str(out / "model.mtm")}
    model = load_model(out / "model.mtm")
    assert model.num_labels == 3
    assert np.all(np.isfinite(model.weights))


def test_multi_component_checkpoint_and_boxes_bytes_are_pinned(tmp_path):
    # sha256 of what the EM loop's fits (two components) reach on a seed-7
    # tree: a change to those fits that moves one weight or box fails here
    manifest = write_blob_dataset(tmp_path / "data", seed=7, with_scores=True)
    for sub, src in (("prune", manifest),
                     ("sample", tmp_path / "prune/manifest.json")):
        assert main([sub, "--manifest", str(src), "--out",
                     str(tmp_path / sub)]) == 0
    sampled = str(tmp_path / "sample/manifest.json")
    assert main(["train-toy", "--manifest", sampled, "--out",
                 str(tmp_path / "toy"), "--epochs", "2", "--learning-rate",
                 "0.2", "--iterations", "1", "--components", "2"]) == 0
    assert main(["coloc", "--manifest", sampled, "--out",
                 str(tmp_path / "boxes"), "--superpixels", "60",
                 "--components", "2"]) == 0
    digests = [hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
               for p in ("toy/model.mtm", "boxes/boxes.csv")]
    assert digests == [
        "c0f3f89aecb6f438982ea8c6e78b8b0cc19292855d9fd8224275537f3715bc07",
        "800955b6a24df84bc36dc04f079a3da1ed92435c9138d4e1b19619f3ea99a369",
    ]


def test_train_toy_refuses_weights_beyond_float32(ws, tmp_path, capsys):
    # the weights stay finite in float64 but overflow the checkpoint's float32
    out = tmp_path / "toy"
    rc = main(["train-toy", "--manifest", str(ws.sampled_manifest),
               "--out", str(out), "--epochs", "3", "--learning-rate", "1e30",
               "--iterations", "1", "--components", "2"])
    assert rc == 1
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "NonFiniteValue"
    assert captured.out == ""
    assert not out.exists()


def test_train_toy_overflowing_decay_is_one_line_json(ws, tmp_path, capsys):
    # the third epoch's rate multiplies by 1e200 ** 2, a float power that
    # raises OverflowError
    out = tmp_path / "toy"
    rc = main(["train-toy", "--manifest", str(ws.sampled_manifest),
               "--out", str(out), "--epochs", "3", "--decay-every", "1",
               "--decay-factor", "1e200", "--learning-rate", "1e-300",
               "--iterations", "1", "--components", "2"])
    assert rc == 1
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "OverflowError"
    assert captured.out == ""
    assert not out.exists()
    assert not list(tmp_path.iterdir())  # nor its staging directory


def test_identical_args_give_identical_bytes(ws, tmp_path):
    # the three subcommands that walk shots and write per-shot outputs
    runs = {
        "infer": ["infer", *ws.infer_args],
        "hard-assign": ["hard-assign", "--manifest", str(ws.sampled_manifest)],
        "coloc": ["coloc", "--manifest", str(ws.sampled_manifest),
                  "--superpixels", "60", "--components", "2"],
    }
    # the fixture wrote the same label maps under another --out
    built = {"infer": ws.infer_out, "hard-assign": ws.hard_out}
    for name, args in runs.items():
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        first = _snapshot(out)
        assert main([*args, "--out", str(out)]) == 0
        assert _snapshot(out) == first, name
        if name in built:
            maps = {k: v for k, v in first.items() if k.endswith(".pgm")}
            assert maps and maps == {
                k: v for k, v in _snapshot(built[name]).items()
                if k.endswith(".pgm")}, name
    assert (tmp_path / "coloc" / "boxes.csv").is_file()


def test_zero_components_is_one_line_json(ws, tmp_path, capsys):
    rc = main(["infer", "--manifest", str(ws.sampled_manifest),
               "--components", "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0]) == {
        "error": "ValueError", "message": "n_components must be >= 1"}
    assert not (tmp_path / "out" / "run.json").exists()


def test_options_that_did_nothing_are_gone(ws, tmp_path):
    # --seed only where a GMM is fitted; hard-assign reads no checkpoint;
    # coloc's superpixel graph has no motion-boundary band
    for argv in (["prune", "--seed", "1"], ["eval-iou", "--seed", "1"],
                 ["hard-assign", "--model", "x"], ["coloc", "--band", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--manifest", str(ws.sampled_manifest),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2, argv
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, name", [
    (["infer", "--smoothness", "nan"], "smoothness"),
    (["infer", "--contrast-scale", "nan"], "contrast_scale"),
    (["infer", "--contrast-scale", "inf"], "contrast_scale"),
    (["coloc", "--compactness", "nan"], "compactness"),
    (["coloc", "--compactness", "inf"], "compactness"),
    (["coloc", "--compactness", "-5"], "compactness"),
    (["coloc", "--compactness", "1e308"], "compactness"),
    (["overlay", "--opacity", "nan"], "--opacity"),
    (["overlay", "--opacity", "2"], "--opacity"),
    (["overlay", "--opacity", "-0.5"], "--opacity"),
    (["coloc", "--smoothness", "nan"], "smoothness"),
    (["train-toy", "--learning-rate", "nan"], "learning_rate"),
    (["train-toy", "--learning-rate", "inf"], "learning_rate"),
    (["train-toy", "--weight-decay", "nan"], "weight_decay"),
    (["train-toy", "--weight-decay", "inf"], "weight_decay"),
    (["train-toy", "--decay-factor", "nan"], "decay_factor"),
    (["train-toy", "--finetune-prediction-weight", "nan"],
     "finetune_prediction_weight"),
    (["train-toy", "--finetune-prediction-weight", "inf"],
     "finetune_prediction_weight"),
    (["train-toy", "--overlap-threshold", "nan"], "overlap_threshold"),
    (["train-toy", "--prediction-weight", "nan"], "prediction_weight"),
    (["infer", "--prediction-weight", "nan"], "prediction_weight"),
    (["infer", "--prediction-weight", "inf"], "prediction_weight"),
    (["select-finetune", "--overlap-threshold", "nan"], "overlap_threshold"),
])
def test_bad_numeric_option_is_one_line_json(ws, tmp_path, capsys, argv, name):
    extra = (["--labels", str(ws.infer_out)]
             if argv[0] in ("overlay", "select-finetune") else [])
    rc = main([*argv, *extra, "--manifest", str(ws.sampled_manifest),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "ValueError" and name in doc["message"]
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize("sub, artifact, extra", [
    ("prune", "manifest.json", []),
    ("sample", "manifest.json", []),
    ("train-toy", "model.mtm", ["--epochs", "1", "--iterations", "1",
                                "--components", "2"]),
    ("select-finetune", "selection.json", ["--labels", "hard"]),
    ("coloc", "boxes.csv", ["--superpixels", "60", "--components", "2"]),
    ("eval-iou", "report.json", ["--pred", "hard", "--sampled-only"]),
    ("eval-corloc", "report.json", ["--boxes", "boxes"]),
])
def test_failed_artifact_write_leaves_no_run_json(ws, tmp_path, capsys, sub,
                                                  artifact, extra):
    # the artifact's path is taken by a directory, so its write fails;
    # run.json is written only after every artifact, so there is none
    manifest = ws.manifest if sub == "prune" else ws.sampled_manifest
    # eval-corloc needs a row for each frame it scores: an empty one
    boxes = tmp_path / "boxes.csv"
    write_boxes([(f.image_path, None) for _, shot
                 in read_manifest(manifest).shots() for f in shot.frames],
                boxes)
    inputs = {"hard": str(ws.hard_out), "boxes": str(boxes)}
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    rc = main([sub, "--manifest", str(manifest), "--out", str(out),
               *(inputs.get(a, a) for a in extra)])
    assert rc == 1
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "IsADirectoryError"
    assert captured.out == ""
    assert not (out / "run.json").exists()


def test_failed_rerun_into_an_existing_out_leaves_no_run_json(ws, tmp_path,
                                                              capsys):
    # infer's maps cannot replace one of hard-assign's, now a directory:
    # the merge stops part way, and no run.json may describe what it moved
    out = tmp_path / "out"
    assert main(["hard-assign", "--manifest", str(ws.sampled_manifest),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    taken = sorted(out.rglob("*.pgm"))[-1]
    taken.unlink()
    taken.mkdir()
    assert main(["infer", *ws.infer_args, "--out", str(out)]) == 1
    assert _one_json_line(capsys)["error"] == "IsADirectoryError"
    assert not (out / "run.json").exists()
    assert not list(tmp_path.glob("out.*"))


def test_rerun_into_an_existing_out_replaces_artifacts_and_keeps_the_rest(
        ws, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ws.hard_out, out)
    notes = [out / "notes.txt", next(out.rglob("*.pgm")).parent / "notes.txt"]
    for note in notes:
        note.write_text("kept")
    assert main(["infer", *ws.infer_args, "--out", str(out)]) == 0
    assert [note.read_text() for note in notes] == ["kept", "kept"]

    def maps(root):
        return {k: v for k, v in _snapshot(root).items() if k.endswith(".pgm")}

    assert maps(out) == maps(ws.infer_out) != maps(ws.hard_out)
    assert json.loads((out / "run.json").read_text())["subcommand"] == "infer"


def test_out_gets_the_mode_of_a_plain_mkdir(ws, tmp_path):
    # the stage is renamed to --out, so it must not carry a 0700 mode
    out = tmp_path / "deeper" / "out"
    old = os.umask(0o027)
    try:
        (tmp_path / "plain").mkdir()
        assert main(["hard-assign", "--manifest", str(ws.sampled_manifest),
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    mode = (tmp_path / "plain").stat().st_mode
    dirs = [out.parent, out, *(p for p in out.rglob("*") if p.is_dir())]
    assert len(dirs) > 3
    assert {d.stat().st_mode for d in dirs} == {mode}


def test_taken_stage_name_is_refused_and_left_alone(ws, tmp_path, capsys,
                                                    monkeypatch):
    # the stage's one mkdir has no exist_ok and runs before the cleanup is
    # armed: a directory that already has its name is not used or removed
    monkeypatch.setattr(motionseg.cli.secrets, "token_hex",
                        lambda nbytes: "taken")
    out = tmp_path / "out"
    taken = tmp_path / "out.taken"
    taken.mkdir()
    (taken / "notes.txt").write_text("kept")
    assert main(["hard-assign", "--manifest", str(ws.sampled_manifest),
                 "--out", str(out)]) == 1
    assert _one_json_line(capsys)["error"] == "FileExistsError"
    assert list(taken.iterdir()) == [taken / "notes.txt"]
    assert (taken / "notes.txt").read_text() == "kept"
    assert not out.exists()


def test_out_may_be_dot_or_end_in_dotdot(ws, tmp_path, monkeypatch):
    # the stage is named from --out's parent and name, which "." and "x/.."
    # have too ("./.<random>", "x/...<random>"), though "." has no with_name
    def eval_iou(out):
        assert main(["eval-iou", "--manifest", str(ws.sampled_manifest),
                     "--pred", str(ws.infer_out), "--sampled-only",
                     "--out", out]) == 0

    eval_iou(str(tmp_path / "plain"))
    report = (tmp_path / "plain" / "report.json").read_bytes()
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    monkeypatch.chdir(here)
    eval_iou(".")
    eval_iou(str(there / "x" / ".."))
    for where in (here, there):
        assert (where / "report.json").read_bytes() == report
        assert (where / "run.json").is_file()
    assert sorted(p.name for p in here.iterdir()) == [
        "report.json", "run.json"]
    assert sorted(p.name for p in there.iterdir()) == [
        "report.json", "run.json", "x"]
    assert not list((there / "x").iterdir())


def _traced(call):
    """Traced (held, peak) bytes over ``call()``, its result still held."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 -- held while the bytes are read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_selected_frames(ws, tmp_path):
    # one video's 10 sampled 24x30 frames against both videos' 20, less
    # what each manifest holds; keeping every output until the last frame
    # would add 4 (hard-assign) or 24 (overlay) bytes per extra pixel
    doc = json.loads(ws.sampled_manifest.read_text())
    doc["videos"] = doc["videos"][:1]
    one = ws.sample_out / "one_video.json"
    one.write_text(json.dumps(doc))
    extra_pixels = 10 * 24 * 30
    for sub, extra in (("hard-assign", []),
                       ("overlay", ["--labels", str(ws.hard_out)])):
        def cost(manifest, out):
            held, _ = _traced(lambda: read_manifest(manifest))
            _, peak = _traced(lambda: main([sub, "--manifest", str(manifest),
                                            *extra, "--out", str(out)]))
            assert (out / "run.json").is_file()
            return peak - held

        cost(ws.sampled_manifest, tmp_path / sub / "warm")
        growth = (cost(ws.sampled_manifest, tmp_path / sub / "both")
                  - cost(one, tmp_path / sub / "one"))
        assert growth < extra_pixels, (sub, growth / extra_pixels)


def test_band_wider_than_the_frame_runs(ws, tmp_path):
    # frames are 24x30: any band of 30 or more covers the whole frame
    for band in ("100000", "30"):
        assert main(["infer", *ws.infer_args, "--band", band,
                     "--out", str(tmp_path / band)]) == 0
    maps = [{k: v for k, v in _snapshot(tmp_path / band).items()
             if k.endswith(".pgm")} for band in ("100000", "30")]
    assert maps[0] and maps[0] == maps[1]


@pytest.mark.parametrize("stage, sampled_only", [
    ("manifest", True),           # the rows name sampled/'s frame paths
    ("sampled_manifest", False),  # frames outside the sample have no row
])
def test_scored_frame_without_a_boxes_row_is_one_line_json(
        ws, tmp_path, capsys, stage, sampled_only):
    sampled = read_manifest(ws.sampled_manifest)
    rows = [(f.image_path, f.ground_truth_box) for _, shot
            in sampled.shots() for f in shot_frames(shot)]
    rows[0] = (rows[0][0], None)  # an empty row is a miss, not an error
    boxes = tmp_path / "boxes.csv"
    write_boxes(rows, boxes)
    out = tmp_path / "out"
    argv = ["eval-corloc", "--boxes", str(boxes), "--out", str(out)]
    assert main([*argv, "--manifest", str(ws.sampled_manifest),
                 "--sampled-only"]) == 0
    assert _stdout_doc(capsys) == {"frames": 20, "corloc": 95.0}
    shutil.rmtree(out)
    rc = main([*argv, "--manifest", str(getattr(ws, stage)),
               *(["--sampled-only"] if sampled_only else [])])
    assert rc == 1
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1 and captured.out == ""
    doc = json.loads(err_lines[0])
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith(f"{boxes}: no row for ")
    assert not out.exists()


def test_short_boxes_row_is_one_line_json(ws, tmp_path, capsys):
    boxes = tmp_path / "boxes.csv"
    boxes.write_text("frame_path,x_min,y_min,x_max,y_max\na.ppm,1,2\n")
    rc = main(["eval-corloc", "--manifest", str(ws.sampled_manifest),
               "--boxes", str(boxes), "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "SchemaError"
    assert str(boxes) in doc["message"] and "line 2" in doc["message"]


def test_negative_box_row_is_located_one_line_json(ws, tmp_path, capsys):
    boxes = tmp_path / "boxes.csv"
    boxes.write_text("frame_path,x_min,y_min,x_max,y_max\na.ppm,-5,2,3,3\n")
    rc = main(["eval-corloc", "--manifest", str(ws.sampled_manifest),
               "--boxes", str(boxes), "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "SchemaError"
    assert str(boxes) in doc["message"] and "line 2" in doc["message"]
    assert not (tmp_path / "out").exists()


def test_overlong_boxes_field_is_one_line_json(ws, tmp_path, capsys):
    # longer than the csv module's default field size limit of 131,072
    boxes = tmp_path / "boxes.csv"
    boxes.write_text("frame_path,x_min,y_min,x_max,y_max\n"
                     + "a" * 200_000 + ",1,2,3,4\n")
    rc = main(["eval-corloc", "--manifest", str(ws.sampled_manifest),
               "--boxes", str(boxes), "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "SchemaError" and str(boxes) in doc["message"]
    assert not (tmp_path / "out").exists()


def test_flipped_manifest_box_is_one_line_json_naming_the_frame(
        ws, tmp_path, capsys):
    doc = json.loads(ws.sampled_manifest.read_text())
    doc["videos"][0]["shots"][0]["frames"][5]["ground_truth_box"] = [9, 2, 3, 4]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["eval-corloc", "--manifest", str(manifest),
               "--boxes", str(tmp_path / "boxes.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["error"] == "SchemaError"
    assert "videos[0].shots[0].frames[5]: ground_truth_box" in doc["message"]
    assert not (tmp_path / "out").exists()


def test_negative_stored_scores_are_one_line_json(ws, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(ws.manifest.parent, data)
    man = read_manifest(data / "manifest.json")
    frame = man.videos[0].shots[0].frames[0]
    scores = np.zeros((24, 30, 3))
    scores[..., 0], scores[..., 1] = -0.5, 1.5
    write_scores(ScoreMap(scores), man.resolve(frame.score_map_path))
    rc = main(["infer", "--manifest", str(data / "manifest.json"),
               "--iterations", "1", "--components", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "NegativeScore"


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    """A 12x16 blob dataset with every stage's artifacts: the inputs the
    fuzz test damages, the label map among them, and the runs that read
    them (without ``--out``)."""
    root = tmp_path_factory.mktemp("tiny")
    data = write_blob_dataset(root / "data", seed=3, height=12, width=16,
                              with_scores=True)
    pruned, sampled = root / "pruned", root / "sampled"
    m = str(sampled / "manifest.json")
    model, labels = str(root / "color.mtm"), str(root / "labels")
    # red wins on red pixels, blue on blue ones, background elsewhere
    weights = np.zeros((3, 10))
    weights[1, 0] = weights[2, 2] = 20.0
    weights[1, 9] = weights[2, 9] = -10.0
    save_model(ToyModel(weights, np.zeros((3, 10))), model)
    energy = ["--iterations", "1", "--components", "1"]
    coloc = ["coloc", "--manifest", m, "--superpixels", "20",
             "--components", "1"]
    runs = {
        "prune": ["prune", "--manifest", str(data)],
        "sample": ["sample", "--manifest", str(pruned / "manifest.json"),
                   "--samples", "2"],
        "infer": ["infer", "--manifest", m, *energy],
        "infer-model": ["infer", "--manifest", m, *energy, "--model", model],
        "hard-assign": ["hard-assign", "--manifest", m],
        "train-toy": ["train-toy", "--manifest", m, "--epochs", "1", *energy],
        "select-labels": ["select-finetune", "--manifest", m,
                          "--labels", labels],
        "select-model": ["select-finetune", "--manifest", m, "--model", model],
        "coloc": coloc,
        "coloc-model": [*coloc, "--model", model],
        "eval-iou": ["eval-iou", "--manifest", m, "--pred", labels,
                     "--sampled-only"],
        "eval-corloc": ["eval-corloc", "--manifest", m, "--sampled-only",
                        "--boxes", str(root / "boxes" / "boxes.csv")],
        "overlay": ["overlay", "--manifest", m, "--labels", labels],
    }
    # build the tree stage by stage; each run's artifacts feed the next
    for name, out in (("prune", pruned), ("sample", sampled),
                      ("infer", labels), ("coloc", root / "boxes")):
        assert main([*runs[name], "--out", str(out)]) == 0, name
    frame = data.parent / "red_00" / "frame_008"  # a sampled frame
    label_map, = Path(labels).rglob("red_00/frame_008.pgm")
    inputs = {"manifest": Path(m), "frame": frame.with_suffix(".ppm"),
              "mask": Path(f"{frame}_mask.pgm"),
              "scores": Path(f"{frame}_scores.msf"), "model": Path(model),
              "boxes": root / "boxes" / "boxes.csv", "labels": label_map}
    return SimpleNamespace(root=root, runs=runs, inputs=inputs)


@st.composite
def _damaged(draw, good, others):
    """``good`` truncated, with 1-4 bytes garbled, or replaced by another
    input's bytes; None stands for a directory in the file's place."""
    kind = draw(st.sampled_from(["truncate", "garble", "replace"]))
    if kind == "truncate":
        return good[:draw(st.integers(0, len(good) - 1))]
    if kind == "replace":
        return draw(st.sampled_from([*others, None]))
    out = bytearray(good)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["prune", "sample", "infer", "infer-model",
                        "hard-assign", "train-toy", "select-labels",
                        "select-model", "coloc", "coloc-model", "eval-iou",
                        "eval-corloc", "overlay"]),
       st.sampled_from(["manifest", "frame", "mask", "scores", "model",
                        "boxes", "labels"]), st.data())
def test_damaged_input_is_success_or_one_line_json(tiny_tree, run, name, data):
    """ROADMAP item 6: no input makes a run end in a traceback, a warning
    or any ``--out`` beside a failure."""
    argv = tiny_tree.runs[run]
    target = (Path(argv[argv.index("--manifest") + 1]) if name == "manifest"
              else tiny_tree.inputs[name])
    good = target.read_bytes()
    others = [p.read_bytes() for k, p in tiny_tree.inputs.items() if k != name]
    damaged = data.draw(_damaged(good, others))
    out = tiny_tree.root / "fuzz_out"
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        if damaged is None:
            target.unlink()
            target.mkdir()
        else:
            target.write_bytes(damaged)
        with warnings.catch_warnings(), redirect_stdout(stdout), \
                redirect_stderr(stderr):
            warnings.simplefilter("error")
            rc = main([*argv, "--out", str(out)])
    finally:
        if target.is_dir():
            target.rmdir()
        target.write_bytes(good)
    assert not list(out.parent.glob(out.name + ".*"))
    if rc == 0:
        assert (out / "run.json").is_file()
        assert len(stdout.getvalue().splitlines()) == 1
        assert isinstance(json.loads(stdout.getvalue()), dict)
    else:
        assert rc == 1 and stdout.getvalue() == ""
        err_lines = stderr.getvalue().splitlines()
        assert len(err_lines) == 1
        assert set(json.loads(err_lines[0])) == {"error", "message"}
        assert not out.exists()


@pytest.fixture(scope="module")
def frame_pool(tmp_path_factory):
    """Nine 12x16 frame records, as manifest JSON, under ``root/pool``:
    frames 3-5 each of the seed-3 blob tree's red_00 and blue_00 (the
    first ones show no motion), and ``still`` copies of red_00's, whose
    motion masks are empty."""
    root = tmp_path_factory.mktemp("pool")
    pool = root / "pool"
    path = write_blob_dataset(pool, seed=3, frame_count=6, height=12,
                              width=16, with_scores=True)
    frames = [f for v in json.loads(path.read_text())["videos"]
              for f in v["shots"][0]["frames"][3:]]
    (pool / "still").mkdir()
    for f in frames[:3]:
        stem = "still/" + Path(f["image_path"]).stem
        shutil.copy(pool / f["image_path"], pool / f"{stem}.ppm")
        write_mask(MotionMask(np.zeros((12, 16))), pool / f"{stem}_mask.pgm")
        frames.append(dict(f, image_path=f"{stem}.ppm",
                           motion_mask_path=f"{stem}_mask.pgm"))
    return SimpleNamespace(root=root, frames=frames)


@st.composite
def _valid_manifests(draw, frames):
    """A manifest over ``frames`` and whether it sits one directory down,
    its paths climbing out with ``..``: 0-3 videos of one plain, pruned or
    sampled shot each, whose frames may be other videos' too."""
    deep = draw(st.booleans())
    prefix = "../pool/" if deep else "pool/"
    videos = []
    for v in range(draw(st.integers(0, 3))):
        picked = draw(st.lists(st.sampled_from(frames), min_size=1,
                               max_size=3, unique_by=lambda f: f["image_path"]))
        shot = {"shot_id": "s", "frames": [
            {k: prefix + x if k.endswith("_path") else x for k, x in f.items()}
            for f in picked]}
        kind = draw(st.sampled_from(["plain", "pruned", "sampled"]))
        if kind != "plain":
            start = draw(st.integers(0, len(shot["frames"]) - 1))
            stop = draw(st.integers(start + 1, len(shot["frames"])))
            shot["kept_range"] = [start, stop]
        if kind == "sampled":
            shot["sampled_indices"] = sorted(draw(st.sets(
                st.integers(start, stop - 1), min_size=1)))
        videos.append({"video_id": f"v{v}", "shots": [shot],
                       "weak_labels": draw(st.sampled_from(
                           [["red"], ["blue"], ["red", "blue"]]))})
    categories = ["red", "blue"] if videos else draw(
        st.sampled_from([["red", "blue"], []]))
    return {"categories": categories, "videos": videos}, deep


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_selected_frame_gets_one_output_or_the_run_says_why(
        frame_pool, data):
    """ROADMAP item 5 over valid manifests: every per-frame subcommand
    exits 0 with one output per selected frame, or exits 1 with one JSON
    line and no ``--out``."""
    doc, deep = data.draw(_valid_manifests(frame_pool.frames))
    path = frame_pool.root / ("m" if deep else "") / "manifest.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    m = read_manifest(path)
    selected = [f for _, shot in m.shots() for f in shot_frames(shot)]
    files = [_layout(f.image_path) for f in selected]
    runs = frame_pool.root / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    energy = ["--iterations", "1", "--components", "1"]
    for sub, extra in (
            ("infer", energy), ("hard-assign", []),
            ("select-finetune", ["--labels", runs / "infer"]),
            ("coloc", ["--superpixels", "20", "--components", "1"]),
            ("eval-iou", ["--pred", runs / "infer", "--sampled-only"]),
            ("eval-corloc", ["--boxes", runs / "coloc" / "boxes.csv",
                             "--sampled-only"]),
            ("overlay", ["--labels", runs / "infer", "--sampled-only"])):
        out = runs / sub
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = main([sub, "--manifest", str(path), *map(str, extra),
                       "--out", str(out)])
        assert not list(out.parent.glob(out.name + ".*")), sub
        if rc == 1:
            assert stdout.getvalue() == "" and not out.exists()
            err, = stderr.getvalue().splitlines()
            assert set(json.loads(err)) == {"error", "message"}
            continue
        assert rc == 0 and (out / "run.json").is_file(), sub
        assert len(set(files)) == len(files), sub
        written = sorted(p.relative_to(out) for p in out.rglob("*.p?m"))
        if sub in ("infer", "hard-assign"):
            assert written == sorted(f.with_suffix(".pgm") for f in files)
        elif sub == "overlay":
            assert written == sorted(
                f.with_suffix(".ppm") for f in files
                if (runs / "infer" / f.with_suffix(".pgm")).exists())
        elif sub == "coloc":
            with open(out / "boxes.csv", newline="") as fh:
                rows = [row[0] for row in csv.reader(fh)][1:]
            assert rows == [f.image_path for f in selected]
        elif sub == "select-finetune":
            picks = json.loads((out / "selection.json").read_text())
            assert set(picks["selection"]) == {v.video_id for v in m.videos}
        else:
            report = json.loads((out / "report.json").read_text())
            assert report["frames"] == len(selected)


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "motionseg.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "motionseg" in proc.stdout


def test_fresh_processes_with_other_hash_seeds_write_the_same_bytes(
        ws, tmp_path):
    """``infer`` and ``coloc`` run in two new processes whose string hashes
    differ write byte-identical outputs; only run.json, which holds the
    timings, may differ."""
    src = str(Path(motionseg.cli.__file__).parents[1])
    stages = {"infer": ws.infer_args,
              "coloc": ["--manifest", str(ws.sampled_manifest),
                        "--superpixels", "60", "--components", "2"]}
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / hash_seed
        for stage, args in stages.items():
            proc = subprocess.run(
                [sys.executable, "-m", "motionseg.cli", stage, *args,
                 "--out", str(out / stage)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        outputs.append({k: v for k, v in _snapshot(out).items()
                        if Path(k).name != "run.json"})
    assert "coloc/boxes.csv" in outputs[0]
    assert sum(k.startswith("infer/") for k in outputs[0]) == len(SAMPLED) * 2
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_out_heavy_scipy_modules():
    """The package, its CLI and the synthetic data it writes need numpy
    only. ``scipy.ndimage`` alone, which loads ``scipy.special``, took
    ``import motionseg.cli`` from 30.1 to 56.8 MB of peak RSS and from
    about 0.25 to 0.6 s (Python 3.11, scipy 1.17.1, x86-64 Linux); a
    ``scipy.sparse.csgraph`` import on top of the numpy-only package reads
    60.9 MB. Every CLI run pays such an import, against the benchmark's 5%
    memory bound, so bringing scipy back must be a decision."""
    code = ("import sys, motionseg, motionseg.cli, motionseg.synthetic; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
