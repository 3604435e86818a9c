import subprocess
import sys

import numpy as np
import pytest

import motionseg.coloc
from motionseg.core import (
    BACKGROUND,
    BoundingBox,
    GridAdjacency,
    LabelMap,
    LabelSet,
    MotionMask,
    RgbImage,
    ScoreMap,
    argmax_labels,
    check_same_shape,
    validate_score_map,
)
from motionseg.coloc import SuperpixelMap
from motionseg.energy import BoundaryBand
from motionseg.errors import DimensionMismatch, NegativeScore, NotNormalized

from helpers import random_scores


def test_rgb_image_shape_and_range():
    img = RgbImage(np.zeros((2, 3, 3)))
    assert (img.height, img.width) == (2, 3)
    with pytest.raises(DimensionMismatch):
        RgbImage(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        RgbImage(np.full((1, 1, 3), 1.5))
    with pytest.raises(ValueError):
        RgbImage(np.full((1, 1, 3), -0.1))


def test_rgb_image_refuses_nan_beside_an_out_of_range_channel():
    # a NaN minimum must not switch the range check off
    with pytest.raises(ValueError):
        RgbImage(np.array([[[np.nan, 2.0, -1.0]]]))
    with pytest.raises(ValueError):
        RgbImage(np.array([[[np.nan, 0.5, 0.5]]]))


def test_rgb_image_from_bytes_normalizes():
    img = RgbImage.from_bytes(np.array([[[255, 0, 128]]], dtype=np.uint8))
    assert np.allclose(img.pixels[0, 0], [1.0, 0.0, 128 / 255])


def test_arrays_are_frozen():
    img = RgbImage(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 1.0
    mask = MotionMask(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        mask.mask[0, 0] = 1


def test_motion_mask_binary_only():
    MotionMask(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        MotionMask(np.array([[0, 2]]))
    with pytest.raises(DimensionMismatch):
        MotionMask(np.zeros((2, 2, 1)))


def test_motion_mask_foreground_fraction():
    mask = MotionMask(np.array([[1, 0], [0, 0]]))
    assert mask.foreground_fraction() == 0.25


def test_label_set_conventions():
    ls = LabelSet.from_objects(("cat", "dog"))
    assert ls.categories[0] == BACKGROUND
    assert len(ls) == 3
    assert ls.object_labels == (1, 2)
    assert ls.index("dog") == 2
    with pytest.raises(ValueError):
        LabelSet(("bg", "cat", "cat"))
    with pytest.raises(ValueError):
        LabelSet(())


def test_label_map_validation():
    lm = LabelMap(np.array([[0, 1], [2, 0]]))
    assert (lm.height, lm.width) == (2, 2)
    with pytest.raises(ValueError):
        LabelMap(np.array([[-1, 0]]))
    with pytest.raises(DimensionMismatch):
        LabelMap(np.zeros((2,)))


@pytest.mark.parametrize("labels", [
    np.array([[np.nan]]), np.array([[np.inf]]), np.array([[1.5]]),
    np.array([[2**32 + 3]])])
def test_label_map_refuses_values_its_int32_cast_changes(labels):
    with pytest.raises(ValueError):
        LabelMap(labels)


def test_label_map_keeps_integral_floats_and_bools():
    assert LabelMap(np.array([[2.0, 0.0]])).labels.tolist() == [[2, 0]]
    assert LabelMap(np.array([[True, False]])).labels.tolist() == [[1, 0]]


def test_score_map_shape_only():
    sm = ScoreMap(np.full((1, 2, 3), 9.0))  # values unchecked at build time
    assert sm.channels == 3
    with pytest.raises(DimensionMismatch):
        ScoreMap(np.zeros((2, 2)))


def test_validate_score_map_uniform_ok():
    validate_score_map(ScoreMap(np.full((3, 4, 2), 0.5)))


def test_validate_score_map_not_normalized():
    with pytest.raises(NotNormalized):
        validate_score_map(ScoreMap(np.array([[[0.7, 0.4]]])))


def test_validate_score_map_negative():
    with pytest.raises(NegativeScore):
        validate_score_map(ScoreMap(np.array([[[-0.1, 1.1]]])))


def test_validate_score_map_nan():
    with pytest.raises(NotNormalized, match=r"row=0, col=1"):
        validate_score_map(ScoreMap(np.array([[[0.5, 0.5], [np.nan, 1.0]]])))


def test_validate_score_map_reports_first_offender():
    s = np.full((2, 2, 2), 0.5)
    s[1, 0] = [0.9, 0.9]
    with pytest.raises(NotNormalized, match=r"row=1, col=0"):
        validate_score_map(ScoreMap(s))


def test_validate_score_map_channel_count():
    with pytest.raises(DimensionMismatch):
        validate_score_map(ScoreMap(np.full((1, 1, 2), 0.5)), num_labels=3)


def test_argmax_labels_examples():
    assert argmax_labels(ScoreMap(np.array([[[0.2, 0.8]]]))).labels[0, 0] == 1
    # tie breaks to the smallest index
    assert argmax_labels(ScoreMap(np.array([[[0.5, 0.5]]]))).labels[0, 0] == 0
    two = ScoreMap(np.array([[[0.9, 0.1]], [[0.1, 0.9]]]))
    assert argmax_labels(two).labels.ravel().tolist() == [0, 1]


def test_argmax_invariant_under_monotone_rescale():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_scores(rng, 5, 6, int(rng.integers(2, 5)))
        rescaled = ScoreMap(s.scores ** 3 + 0.2 * s.scores)  # strictly increasing
        assert np.array_equal(argmax_labels(s).labels,
                              argmax_labels(rescaled).labels)


def test_grid_adjacency_edge_count_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = int(rng.integers(1, 7))
        h = int(rng.integers(1, 7))
        adj = GridAdjacency(w, h)
        edges = adj.edges()
        explicit = set()
        for y in range(h):
            for x in range(w):
                if x + 1 < w:
                    explicit.add((y * w + x, y * w + x + 1))
                if y + 1 < h:
                    explicit.add((y * w + x, (y + 1) * w + x))
        assert adj.edge_count == w * (h - 1) + h * (w - 1) == len(explicit)
        assert len(edges) == len(explicit)
        assert {tuple(e) for e in edges.tolist()} == explicit
        assert all(i != j for i, j in edges)


def test_grid_adjacency_rejects_degenerate():
    with pytest.raises(DimensionMismatch):
        GridAdjacency(0, 3)


@pytest.mark.parametrize("item, grid", [
    (RgbImage(np.zeros((2, 3, 3))), "pixels"),
    (MotionMask(np.zeros((2, 3), dtype=np.uint8)), "mask"),
    (LabelMap(np.zeros((2, 3))), "labels"),
    (ScoreMap(np.zeros((2, 3, 4))), "scores"),
    (BoundaryBand(np.zeros((2, 3))), "band"),
    (SuperpixelMap(np.arange(6).reshape(2, 3), np.zeros((6, 3)),
                   np.zeros((6, 2)), np.ones(6)), "ids"),
], ids=["RgbImage", "MotionMask", "LabelMap", "ScoreMap", "BoundaryBand",
        "SuperpixelMap"])
def test_frame_size_is_the_grid_arrays_first_two_axes(item, grid):
    # the grid array is each type's first field; no other field of these
    # instances starts with (2, 3)
    assert (item.height, item.width) == getattr(item, grid).shape[:2] == (2, 3)


def test_check_same_shape():
    a = RgbImage(np.zeros((2, 3, 3)))
    b = MotionMask(np.zeros((2, 3), dtype=np.uint8))
    check_same_shape(a, b)
    c = MotionMask(np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        check_same_shape(a, c)


def test_bounding_box_is_one_type_under_every_import_path():
    # test_coloc checks its validation
    assert motionseg.coloc.BoundingBox is BoundingBox


def test_package_holds_only_its_version():
    # every other name is imported from its module; the package loads none
    code = ("import sys, motionseg; "
            "print([m for m in sys.modules if m.startswith('motionseg.')], "
            "[k for k in vars(motionseg) if not k.startswith('__')], "
            "motionseg.__version__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "0.1.0"]
