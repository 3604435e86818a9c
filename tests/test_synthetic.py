import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from scipy import ndimage

from motionseg.synthetic import (_erode, corrupted_mask_scene,
                                 two_object_scene, write_blob_dataset)

from helpers import binary_masks


@settings(max_examples=300, deadline=None)
@given(binary_masks())
def test_erosion_matches_scipy_binary_erosion(mask):
    got = _erode(mask)
    assert got.dtype == bool
    assert np.array_equal(got, ndimage.binary_erosion(mask))
    if min(mask.shape) == 1:
        event("a frame one pixel wide")


def test_erosion_clears_frames_one_pixel_wide():
    # every pixel of such a frame has a neighbor outside it
    for shape in ((1, 1), (1, 7), (7, 1)):
        assert not _erode(np.ones(shape, dtype=bool)).any()


def _tree_sha256(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _scene_sha256(scene):
    h = hashlib.sha256()
    for a in (scene.image.pixels, scene.truth.labels, scene.mask.mask,
              scene.scores.scores, np.float64(scene.mask_iou)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("height, width, digest", [
    (24, 30, "076dee1d713af6bcf3ed89a6049c35430a7c0ba27a12c7e0f481f33ecb88f9c8"),
    (112, 144, "0f9fba45a3931295bb226a1ad7e2c6729b69d91de276cd71f58ed36394effdd5"),
], ids=["24x30", "112x144"])
def test_blob_dataset_bytes_are_pinned(tmp_path, height, width, digest):
    # the blob_chain and large_frames benchmark inputs of seed 1, part 0
    write_blob_dataset(tmp_path, seed=100100, height=height, width=width,
                       with_scores=True)
    assert _tree_sha256(tmp_path) == digest


def test_scene_bytes_are_pinned():
    # the multilabel benchmark scenes of seed 1, parts 0 and 1, then the
    # corrupted-mask scenes
    scenes = [two_object_scene(seed, height=96, width=160, confidence=0.45,
                               noise=0.15) for seed in (100100, 100200)]
    scenes += [corrupted_mask_scene(seed) for seed in range(3)]
    assert [_scene_sha256(s) for s in scenes] == [
        "fcf4c991a36617a5c892f7839a9681c917014931c436ae3bf61262cde480c95b",
        "e2122d22ed1db6f79403d2437117465b483ca1876865afb6b6201d970a158bba",
        "b26c485bb9bd6debafde01d461b504e61324af8d329148c821e437253e046bea",
        "e22bc6765c7e393bf16162873156c61d9b22df6f3b370d2b89148ed3409d604a",
        "ce0a68dd1f2626a47676c85d6c3b37132c99ff2425324d5c9d85a55af28e40b5",
    ]
