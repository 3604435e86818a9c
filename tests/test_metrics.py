import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionseg.core import BoundingBox, LabelMap
from motionseg.errors import (
    DimensionMismatch,
    EmptyList,
    LabelOutOfRange,
    NoClasses,
)
from motionseg.metrics import (
    VOID_LABEL,
    ConfusionAccumulator,
    accumulate_iou,
    box_iou,
    corloc,
    mean_iou,
)

from oracles import mean_iou_loop


def _lm(rows):
    return LabelMap(np.asarray(rows, dtype=np.int32))


def test_identity_gives_unit_iou():
    acc = ConfusionAccumulator.zeros(3)
    x = _lm([[0, 1, 2], [2, 1, 0]])
    accumulate_iou(acc, x, x)
    ious = acc.iou_by_class()
    assert np.allclose(ious, [1.0, 1.0, 1.0])
    assert mean_iou(acc) == 1.0


def test_disjoint_masks_score_zero():
    acc = ConfusionAccumulator.zeros(2)
    accumulate_iou(acc, _lm([[1, 0]]), _lm([[0, 1]]))
    assert acc.iou_by_class()[1] == 0.0


def test_half_shifted_square_is_one_third():
    truth = np.zeros((20, 20), dtype=np.int32)
    pred = np.zeros((20, 20), dtype=np.int32)
    truth[5:15, 0:10] = 1
    pred[5:15, 5:15] = 1
    acc = accumulate_iou(ConfusionAccumulator.zeros(2), _lm(pred), _lm(truth))
    assert abs(acc.iou_by_class()[1] - 1 / 3) < 1e-12


def test_accumulation_is_order_invariant():
    rng = np.random.default_rng(60)
    frames = [(rng.integers(0, 3, (5, 5)), rng.integers(0, 3, (5, 5)))
              for _ in range(4)]
    a = ConfusionAccumulator.zeros(3)
    b = ConfusionAccumulator.zeros(3)
    for p, t in frames:
        accumulate_iou(a, _lm(p), _lm(t))
    for p, t in reversed(frames):
        accumulate_iou(b, _lm(p), _lm(t))
    assert np.allclose(a.iou_by_class(), b.iou_by_class(), equal_nan=True)


def test_ignore_value_skips_pixels():
    truth = np.array([[1, VOID_LABEL], [0, VOID_LABEL]], dtype=np.int32)
    pred = np.array([[1, 0], [0, 1]], dtype=np.int32)
    acc = ConfusionAccumulator.zeros(2)
    accumulate_iou(acc, _lm(pred), _lm(truth), ignore_value=VOID_LABEL)
    # only the first column is scored, and it matches exactly
    assert np.allclose(acc.iou_by_class(), [1.0, 1.0])


def test_label_bounds_checked():
    acc = ConfusionAccumulator.zeros(2)
    with pytest.raises(LabelOutOfRange):
        accumulate_iou(acc, _lm([[5]]), _lm([[0]]))
    with pytest.raises(DimensionMismatch):
        accumulate_iou(acc, _lm([[0, 1]]), _lm([[0]]))


def test_mean_iou_arithmetic():
    # class 1: intersection 1 of union 5; class 2: 3 of 5; background 0 of 6
    acc = ConfusionAccumulator.zeros(3)
    truth = [1, 1, 1, 0, 0, 2, 2, 2, 2, 0]
    pred = [1, 0, 0, 1, 1, 2, 2, 2, 0, 2]
    accumulate_iou(acc, _lm([pred]), _lm([truth]))
    by_class = acc.iou_by_class()
    assert abs(by_class[1] - 0.2) < 1e-12 and abs(by_class[2] - 0.6) < 1e-12
    assert abs(mean_iou(acc) - (0.0 + 0.2 + 0.6) / 3) < 1e-12


def test_mean_iou_eleven_way_report_shape():
    acc = ConfusionAccumulator.zeros(11)
    x = _lm([list(range(11))])
    accumulate_iou(acc, x, x)
    assert len(acc.iou_by_class()) == 11
    assert mean_iou(acc) == 1.0


def test_mean_iou_no_classes():
    with pytest.raises(NoClasses):
        mean_iou(ConfusionAccumulator.zeros(3))


@st.composite
def _tallies(draw):
    """Per-class tallies, some classes with zero union, some past 2**53."""
    unions = draw(st.lists(st.one_of(st.just(0), st.integers(1, 1000),
                                     st.integers(1, 2**62)),
                           min_size=1, max_size=12))
    inters = [draw(st.integers(0, u)) for u in unions]
    return ConfusionAccumulator(np.array(inters, dtype=np.int64),
                                np.array(unions, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(_tallies())
@example(ConfusionAccumulator.zeros(1))
@example(ConfusionAccumulator.zeros(11))
def test_mean_iou_matches_the_loop_bit_for_bit(acc):
    if not acc.union.any():
        with pytest.raises(NoClasses):
            mean_iou(acc)
        with pytest.raises(NoClasses):
            mean_iou_loop(acc)
    else:
        assert mean_iou(acc).hex() == mean_iou_loop(acc).hex()


def test_box_iou_examples():
    a = BoundingBox(0, 0, 9, 9)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, BoundingBox(20, 20, 25, 25)) == 0.0
    b = BoundingBox(5, 0, 14, 9)
    assert abs(box_iou(a, b) - 1 / 3) < 1e-12
    assert box_iou(a, b) == box_iou(b, a)


def test_box_iou_inclusive_coordinates():
    # single-pixel boxes overlap fully with themselves
    p = BoundingBox(3, 3, 3, 3)
    assert box_iou(p, p) == 1.0
    assert box_iou(p, BoundingBox(4, 3, 4, 3)) == 0.0


def test_box_iou_monotone_under_sliding():
    a = BoundingBox(0, 0, 9, 9)
    last = 1.0
    for d in range(1, 16):
        cur = box_iou(a, BoundingBox(d, 0, 9 + d, 9))
        assert cur <= last
        last = cur
    assert last == 0.0


def test_corloc_rules():
    t = BoundingBox(0, 0, 9, 9)
    assert corloc([(t, t), (t, t)]) == 100.0
    # IoU exactly 0.5 does not count
    half = BoundingBox(0, 0, 9, 4)
    assert box_iou(half, t) == 0.5
    assert corloc([(half, t)]) == 0.0
    # a missing prediction is a failure, not a skip
    assert corloc([(None, t), (t, t)]) == 50.0
    with pytest.raises(EmptyList):
        corloc([])


def test_corloc_range():
    rng = np.random.default_rng(62)
    t = BoundingBox(2, 2, 8, 8)
    pairs = []
    for _ in range(20):
        if rng.random() < 0.2:
            pairs.append((None, t))
        else:
            dx = int(rng.integers(0, 6))
            pairs.append((BoundingBox(2 + dx, 2, 8 + dx, 8), t))
    val = corloc(pairs)
    assert 0.0 <= val <= 100.0
