import numpy as np
from hypothesis import event, given, settings
from scipy import ndimage

from motionseg.synthetic import _erode

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
