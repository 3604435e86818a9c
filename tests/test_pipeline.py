import os
from dataclasses import replace

import numpy as np
import pytest

from motionseg.core import LabelMap, MotionMask
from motionseg.errors import RangeTooShort
from motionseg.io import (FrameRecord, ShotRecord, manifest_to_dict,
                          parse_manifest, read_manifest, rebase)
from motionseg.pipeline import (
    PruneParams,
    overlap_fraction,
    prune_manifest,
    prune_shot,
    sample_frames,
    sample_manifest,
    select_finetune_shots,
    shot_frames,
    shot_overlap,
)

from oracles import prune_oracle, sample_oracle, select_oracle


def test_prune_rejects_short_shots():
    assert prune_shot([0.1] * 19) is None
    assert prune_shot([0.1] * 20) == (0, 20)


def test_prune_rejects_oversized_foreground():
    assert prune_shot([0.60] * 50) is None


def test_prune_bounds_are_inclusive():
    assert prune_shot([0.025] * 25) == (0, 25)
    assert prune_shot([0.50] * 25) == (0, 25)
    assert prune_shot([0.024] * 25) is None
    assert prune_shot([0.51] * 25) is None


def test_prune_keeps_longest_run():
    fractions = [0.1] * 25 + [0.9] + [0.1] * 40
    assert prune_shot(fractions) == (26, 66)


def test_prune_tie_takes_earliest_run():
    fractions = [0.1] * 25 + [0.9] + [0.1] * 25
    assert prune_shot(fractions) == (0, 25)


def test_prune_rejects_short_runs():
    # 50 frames but never 20 contiguous valid ones
    fractions = ([0.1] * 15 + [0.9]) * 3 + [0.1] * 2
    assert prune_shot(fractions) is None


def test_prune_custom_params():
    p = PruneParams(min_frames=5, min_run=3, min_foreground=0.2,
                    max_foreground=0.8)
    assert prune_shot([0.5, 0.5, 0.5, 0.9, 0.9], p) == (0, 3)


def test_prune_params_validation():
    with pytest.raises(ValueError):
        PruneParams(min_foreground=0.7, max_foreground=0.2)
    with pytest.raises(ValueError):
        PruneParams(samples_per_shot=0)


def test_prune_matches_oracle_on_random_fractions():
    rng = np.random.default_rng(38)
    for _ in range(200):
        n = int(rng.integers(1, 90))
        fractions = rng.choice([0.0, 0.01, 0.024, 0.025, 0.1, 0.5, 0.51, 0.9],
                               size=n)
        got = prune_shot(fractions)
        assert got == prune_oracle(fractions)
        if got is not None:
            start, stop = got
            assert stop - start >= 20
            assert all(0.025 <= f <= 0.50 for f in fractions[start:stop])


def test_sample_frames_formula():
    assert sample_frames(20, 10) == (1, 3, 5, 7, 9, 11, 13, 15, 17, 19)
    assert sample_frames(10, 10) == tuple(range(10))


def test_sample_frames_too_short():
    with pytest.raises(RangeTooShort):
        sample_frames(9, 10)


def test_sample_frames_matches_oracle_and_is_increasing():
    rng = np.random.default_rng(39)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        t = int(rng.integers(n, 120))
        got = sample_frames(t, n)
        assert list(got) == sample_oracle(t, n)
        assert all(0 <= i < t for i in got)
        assert all(b > a for a, b in zip(got, got[1:]))


def test_select_finetune_shots_argmax():
    overlaps = {"v": {"s0": 0.15, "s1": 0.35, "s2": 0.30}}
    assert select_finetune_shots(overlaps) == {"v": "s1"}


def test_select_finetune_shots_below_threshold():
    overlaps = {"v": {"s0": 0.1, "s1": 0.19}}
    assert select_finetune_shots(overlaps) == {"v": None}


def test_select_finetune_shots_threshold_inclusive():
    assert select_finetune_shots({"v": {"s0": 0.2}}) == {"v": "s0"}


def test_select_finetune_shots_tie_takes_first():
    overlaps = {"v": {"s0": 0.4, "s1": 0.4}}
    assert select_finetune_shots(overlaps) == {"v": "s0"}


def test_select_finetune_shots_matches_oracle():
    rng = np.random.default_rng(40)
    for _ in range(50):
        overlaps = {
            f"v{v}": {f"s{s}": float(rng.choice([0.0, 0.1, 0.2, 0.21, 0.5]))
                      for s in range(int(rng.integers(1, 5)))}
            for v in range(3)
        }
        assert select_finetune_shots(overlaps) == select_oracle(overlaps)


def test_overlap_fraction():
    mask = MotionMask(np.array([[1, 1, 0], [0, 0, 0]], dtype=np.uint8))
    same = LabelMap(np.array([[2, 2, 0], [0, 0, 0]]))
    half = LabelMap(np.array([[2, 0, 0], [0, 0, 0]]))
    empty = LabelMap(np.zeros((2, 3), dtype=np.int32))
    assert overlap_fraction(mask, same) == 1.0
    assert overlap_fraction(mask, half) == 0.5
    assert overlap_fraction(mask, empty) == 0.0
    # both sides empty count as zero overlap, not a perfect match
    none = MotionMask(np.zeros((2, 3), dtype=np.uint8))
    assert overlap_fraction(none, empty) == 0.0


def test_shot_overlap_averages_frames():
    masks = [MotionMask(np.array([[1, 0]], dtype=np.uint8))] * 2
    labelings = [LabelMap(np.array([[1, 0]])),
                 LabelMap(np.array([[0, 0]]))]
    assert shot_overlap(masks, labelings) == 0.5


def test_prune_and_sample_manifest(blob_manifest_path):
    manifest = read_manifest(blob_manifest_path)
    pruned = prune_manifest(manifest)
    assert len(pruned.videos) == len(manifest.videos)
    for video in pruned.videos:
        for shot in video.shots:
            # first frames of every synthetic shot have an empty mask
            assert shot.kept_range == (3, 26)
    sampled = sample_manifest(pruned)
    for video in sampled.videos:
        for shot in video.shots:
            assert shot.sampled_indices == (4, 6, 8, 11, 13, 15, 17, 20, 22, 24)
            frames = shot_frames(shot)
            assert len(frames) == 10
            assert frames == tuple(shot.frames[i] for i in shot.sampled_indices)


def test_shot_frames_of_a_pruned_unsampled_shot_is_its_kept_range():
    frames = tuple(FrameRecord(f"f{i}.ppm", f"f{i}.pgm") for i in range(6))
    assert shot_frames(ShotRecord("s", frames)) == frames
    pruned = ShotRecord("s", frames, kept_range=(1, 4))
    assert shot_frames(pruned) == frames[1:4]
    sampled = replace(pruned, sampled_indices=(1, 3))
    assert shot_frames(sampled) == (frames[1], frames[3])


def test_sample_manifest_requires_pruning(blob_manifest_path):
    manifest = read_manifest(blob_manifest_path)
    with pytest.raises(ValueError):
        sample_manifest(manifest)


def test_prune_manifest_drops_failing_shots(blob_manifest_path):
    manifest = read_manifest(blob_manifest_path)

    # truncate every shot below the frame minimum: all shots fail, and
    # videos left without shots disappear with them
    short = replace(
        manifest,
        videos=tuple(
            replace(v, shots=tuple(replace(s, frames=s.frames[:10])
                                   for s in v.shots))
            for v in manifest.videos
        ),
    )
    assert prune_manifest(short).videos == ()


def test_manifest_rewrites_keep_order_and_shotless_videos(
        blob_manifest_path, tmp_path):
    manifest = read_manifest(blob_manifest_path)
    doc = manifest_to_dict(manifest)
    weak = doc["videos"][0]["weak_labels"]
    doc["videos"].insert(1, {"video_id": "bare", "weak_labels": weak,
                             "shots": []})
    m = parse_manifest(doc, manifest.base_dir)
    bare = m.videos[1]
    # prune drops a video listed without shots; sample and rebase keep it
    assert prune_manifest(m).videos == prune_manifest(manifest).videos
    pruned = prune_manifest(manifest)
    pruned = replace(pruned, videos=pruned.videos[:1] + (bare,)
                     + pruned.videos[1:])
    for rewritten in (sample_manifest(pruned), rebase(pruned, tmp_path)):
        assert [v.video_id for v in rewritten.videos] == \
            [v.video_id for v in pruned.videos]
        assert rewritten.videos[1] == bare

    # map_shots keeps shot order and drops only the shots mapped to None
    six = {"video_id": "six", "weak_labels": weak, "shots": [
        {"shot_id": f"s{i}", "frames": [{"image_path": f"f{i}.ppm",
                                         "motion_mask_path": f"f{i}.pgm"}]}
        for i in range(6)]}
    m = parse_manifest({"videos": [six, dict(six, video_id="other")]})
    mapped = m.map_shots(lambda s: None if s.shot_id in ("s1", "s4")
                         else replace(s, kept_range=(0, 1)))
    assert [v.video_id for v in mapped.videos] == ["six", "other"]
    for v in mapped.videos:
        assert [s.shot_id for s in v.shots] == ["s0", "s2", "s3", "s5"]
        assert {s.kept_range for s in v.shots} == {(0, 1)}
    assert [v.shots for v in m.map_shots(lambda s: None).videos] == [(), ()]
    assert m.map_shots(lambda s: s) == m

    # a rebase changes only path strings, none of which parse_manifest
    # refuses: re-parsing its written form gives the same manifest
    frames = [{"image_path": "f.ppm", "motion_mask_path": "./m/../f.pgm",
               "score_map_path": ""},
              {"image_path": "/abs/./g.ppm", "motion_mask_path": "../g.pgm",
               "score_map_path": "a/../../s.msf",
               "ground_truth_label_path": "/abs/../t.pgm",
               "ground_truth_box": [0, 1, 2, 3]}]
    doc = {"categories": ["car", "dog"], "videos": [
        {"video_id": "v", "weak_labels": ["dog"], "shots": [
            {"shot_id": "a", "frames": frames},
            {"shot_id": "b", "frames": frames, "kept_range": [0, 2],
             "sampled_indices": [1]}]},
        {"video_id": "w", "weak_labels": ["car"], "shots": []}]}
    for base in ("/data/x", "rel/./dir", "../up", "."):
        m = parse_manifest(doc, base)
        for new_base in ("/data/x", "/data/y/../z", "rel", "..", ".", "a/b"):
            rebased = rebase(m, new_base)
            assert rebased == parse_manifest(manifest_to_dict(rebased),
                                             new_base)
            # an empty path names the manifest's directory, and still does
            empty = rebased.videos[0].shots[0].frames[0].score_map_path
            assert os.path.abspath(rebased.resolve(empty)) == \
                os.path.abspath(base)
