import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import motionseg.inference
from motionseg.core import LabelMap, MotionMask, RgbImage, ScoreMap
from motionseg.energy import (
    PairwiseParams,
    boundary_band_from_mask,
    build_energy,
    minimize_binary,
    potts_weights,
    total_energy,
)
from motionseg.errors import DimensionMismatch, EmptyForeground, MultiLabelVideo
from motionseg.gmm import FgBgGmm, fit_gmm, motion_color_samples
from motionseg.inference import InferenceParams, hard_assign, infer_labels
from motionseg.synthetic import corrupted_mask_scene, two_object_scene

from helpers import random_scores
from oracles import all_labelings, label_iou, potts_energies


def _two_color_frame():
    """4x3 frame: bright object block on a dark background, perfect mask."""
    img = np.full((4, 3, 3), 0.1)
    mask = np.zeros((4, 3), dtype=np.uint8)
    img[1:3, 1:3] = 0.9
    mask[1:3, 1:3] = 1
    scores = np.full((4, 3, 2), 0.5)
    return RgbImage(img), MotionMask(mask), ScoreMap(scores)


def test_params_validation():
    with pytest.raises(ValueError):
        InferenceParams(prediction_weight=-0.5)
    with pytest.raises(ValueError):
        InferenceParams(iterations=0)
    with pytest.raises(ValueError, match="n_components"):
        InferenceParams(gmm_components=0)
    with pytest.raises(ValueError, match="seed"):
        InferenceParams(seed=-1)
    with pytest.raises(ValueError, match="boundary_band"):
        InferenceParams(boundary_band=-1)


def test_readme_quick_start_runs():
    # the README's only python block, with its import paths
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("Quick start:", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["agreement"] > 0.95


def test_perfect_mask_recovers_itself_and_matches_enumeration():
    img, mask, scores = _two_color_frame()
    params = InferenceParams(iterations=1, gmm_components=1, seed=0)
    out = infer_labels([(img, mask, scores)], (1,), params)[0]
    assert np.array_equal(out.labels, mask.mask.astype(np.int32))

    # independent oracle: rebuild the first-iteration energy and enumerate
    fg_c, fg_w, bg_c, bg_w = motion_color_samples([(img, mask)], 0)
    gmms = FgBgGmm(foreground=fit_gmm(fg_c, fg_w, 1, 0),
                   background=fit_gmm(bg_c, bg_w, 1, 0))
    band = boundary_band_from_mask(mask, params.boundary_band)
    model = build_energy(img, gmms, scores, (0, 1), params.prediction_weight,
                         potts_weights(img, band, params.pairwise))
    labelings = all_labelings(12, 2)
    energies = potts_energies(model.unary, model.adjacency.edges(),
                              model.pairwise, labelings)
    best = labelings[int(np.argmin(energies))].reshape(4, 3)
    assert np.array_equal(out.labels, best)
    assert abs(total_energy(model, out) - energies.min()) <= 1e-9


def test_scores_do_not_matter_at_zero_prediction_weight():
    img, mask, _ = _two_color_frame()
    rng = np.random.default_rng(33)
    params = InferenceParams(prediction_weight=0.0, iterations=1,
                             gmm_components=1, seed=0)
    outs = []
    for _ in range(2):
        scores = random_scores(rng, 4, 3, 2)
        outs.append(infer_labels([(img, mask, scores)], (1,), params)[0])
    assert np.array_equal(outs[0].labels, outs[1].labels)


def test_inference_is_deterministic():
    scene = corrupted_mask_scene(4)
    batch = [(scene.image, scene.mask, scene.scores)]
    params = InferenceParams(seed=9)
    a = infer_labels(batch, (1,), params)[0]
    b = infer_labels(batch, (1,), params)[0]
    assert a.labels.tobytes() == b.labels.tobytes()


def test_corrupted_mask_is_repaired():
    for seed in range(3):
        scene = corrupted_mask_scene(seed)
        out = infer_labels([(scene.image, scene.mask, scene.scores)], (1,),
                           InferenceParams())[0]
        got = label_iou(out.labels, scene.truth.labels, 1)
        assert got > scene.mask_iou, (seed, got, scene.mask_iou)


def test_multi_label_video_uses_expansion():
    scene = two_object_scene(0)
    out = infer_labels([(scene.image, scene.mask, scene.scores)], (1, 2),
                       InferenceParams())[0]
    assert set(np.unique(out.labels)) <= {0, 1, 2}
    for label in (1, 2):
        assert label_iou(out.labels, scene.truth.labels, label) > 0.95


def test_infer_labels_bytes_are_pinned():
    # sha256 of the label arrays: a change to the mixture fits, the energy
    # or the cut that moves one pixel fails here
    def digests(batch, weak):
        return [hashlib.sha256(np.ascontiguousarray(out.labels).tobytes())
                .hexdigest()
                for out in infer_labels(batch, weak, InferenceParams())]

    scenes = [corrupted_mask_scene(seed) for seed in range(3)]
    assert digests([(s.image, s.mask, s.scores) for s in scenes], (1,)) == [
        "8470ef53e7892127b8ec4e770d0212c467696cd2050f83ef5d6e0318a49d7a9b",
        "4b334e937f997360401c088f57a14dc6deb5db4ee7df705d2f256d74e975b333",
        "5ca94fe45dacef33cdf4a857ce77eb26975201c7f1c39c3ac45b1150c42fe5a2",
    ]
    scene = two_object_scene(0, height=96, width=160)
    assert digests([(scene.image, scene.mask, scene.scores)], (1, 2)) == [
        "a4ab614e844bade89662320424756c5a7048522be00f51b7df5dbf574f7f2acd",
    ]


def test_infer_labels_bytes_are_pinned_on_8bit_colors_with_one_component():
    # the same scenes read back from 8-bit pixels with one component, as
    # the CLI fits them: fit_gmm's byte-keyed sort and its one-step fit
    def as_read(img):
        return RgbImage.from_bytes(np.rint(img.pixels * 255).astype(np.uint8))

    def digests(batch, weak):
        params = InferenceParams(gmm_components=1)
        return [hashlib.sha256(np.ascontiguousarray(out.labels).tobytes())
                .hexdigest() for out in infer_labels(batch, weak, params)]

    scenes = [corrupted_mask_scene(seed) for seed in range(3)]
    batch = [(as_read(s.image), s.mask, s.scores) for s in scenes]
    assert digests(batch, (1,)) == [
        "a80d0372ec59c2867719870340a33d0e3772115fbdb170c43475f4a6ffe181c2",
        "8fc222faba4f328a01c898726b3d35a99c619f52f0e154fe4bdeb034445a20e5",
        "5af62d9a364c53ade1dc4c3d0f9c79f0c8deb082c158bfec9073216f00d10e4e",
    ]
    scene = two_object_scene(0, height=96, width=160)
    batch = [(as_read(scene.image), scene.mask, scene.scores)]
    assert digests(batch, (1, 2)) == [
        "a4ab614e844bade89662320424756c5a7048522be00f51b7df5dbf574f7f2acd",
    ]


def test_batch_frames_share_a_mixture_fit():
    # two frames, same object in both; output masks should both be sane
    scenes = [corrupted_mask_scene(s) for s in (5, 6)]
    batch = [(s.image, s.mask, s.scores) for s in scenes]
    outs = infer_labels(batch, (1,), InferenceParams(iterations=2))
    assert len(outs) == 2
    for out, scene in zip(outs, scenes):
        assert label_iou(out.labels, scene.truth.labels, 1) > 0.5


def test_no_foreground_anywhere_raises():
    img = RgbImage(np.full((3, 3, 3), 0.5))
    mask = MotionMask(np.zeros((3, 3), dtype=np.uint8))
    scores = ScoreMap(np.full((3, 3, 2), 0.5))
    with pytest.raises(EmptyForeground):
        infer_labels([(img, mask, scores)], (1,), InferenceParams())


def test_weak_labels_validated():
    img, mask, scores = _two_color_frame()
    with pytest.raises(ValueError):
        infer_labels([(img, mask, scores)], (), InferenceParams())
    with pytest.raises(ValueError):
        infer_labels([(img, mask, scores)], (0,), InferenceParams())


def test_mixed_frame_sizes_rejected():
    img, mask, scores = _two_color_frame()
    small = RgbImage(np.full((2, 2, 3), 0.2))
    small_mask = MotionMask(np.ones((2, 2), dtype=np.uint8))
    small_scores = ScoreMap(np.full((2, 2, 2), 0.5))
    with pytest.raises(DimensionMismatch):
        infer_labels([(img, mask, scores),
                      (small, small_mask, small_scores)], (1,),
                     InferenceParams())


def test_all_background_round_keeps_the_previous_labeling(monkeypatch):
    # round 1 finds the object; round 2, after the refit, is made to come
    # out all background, which must neither replace round 1's labeling
    # nor start a round 3
    scene = corrupted_mask_scene(3)
    batch = [(scene.image, scene.mask, scene.scores)]
    first = infer_labels(batch, (1,), InferenceParams(iterations=1))[0]
    assert (first.labels > 0).any()
    rounds = []

    def cut(model):
        rounds.append(model)
        if len(rounds) == 1:
            return minimize_binary(model)
        return LabelMap(np.zeros_like(first.labels))

    monkeypatch.setattr("motionseg.inference.minimize_binary", cut)
    out = infer_labels(batch, (1,), InferenceParams(iterations=4))[0]
    assert len(rounds) == 2
    assert np.array_equal(out.labels, first.labels)


def test_band_half_width_comes_from_the_params(monkeypatch):
    widths = []

    def recording(mask, half_width):
        widths.append(half_width)
        return boundary_band_from_mask(mask, half_width)

    monkeypatch.setattr("motionseg.inference.boundary_band_from_mask",
                        recording)
    scene = corrupted_mask_scene(3)
    batch = [(scene.image, scene.mask, scene.scores)] * 2
    infer_labels(batch, (1,), InferenceParams(iterations=1, boundary_band=5))
    assert widths == [5, 5]


def test_potts_weights_are_built_once_per_frame(monkeypatch):
    # only the GMM unaries change from one round to the next
    weights, rounds = [], []
    contrast_weights = PairwiseParams.contrast_weights
    build = motionseg.inference.build_energy

    def counting_weights(self, colors, edges):
        weights.append(len(edges))
        return contrast_weights(self, colors, edges)

    def counting_build(*args):
        rounds.append(args[0])
        return build(*args)

    monkeypatch.setattr(PairwiseParams, "contrast_weights", counting_weights)
    monkeypatch.setattr("motionseg.inference.build_energy", counting_build)
    scenes = [corrupted_mask_scene(seed) for seed in (3, 4, 5)]
    batch = [(s.image, s.mask, s.scores) for s in scenes]
    infer_labels(batch, (1,), InferenceParams(iterations=4))
    assert len(weights) == len(batch)
    assert len(rounds) >= len(batch) + 1


def test_empty_batch_returns_empty():
    assert infer_labels([], (1,), InferenceParams()) == []


def test_hard_assign_identity_on_mask():
    zeros = MotionMask(np.zeros((2, 3), dtype=np.uint8))
    ones = MotionMask(np.ones((2, 3), dtype=np.uint8))
    outs = hard_assign([zeros, ones], (7,))
    assert not outs[0].labels.any()
    assert (outs[1].labels == 7).all()


def test_hard_assign_single_label_only():
    mask = MotionMask(np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(MultiLabelVideo):
        hard_assign([mask], (1, 2))


def test_hard_assign_returns_label_maps():
    mask = MotionMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    out = hard_assign([mask], (3,))[0]
    assert isinstance(out, LabelMap)
    assert out.labels.tolist() == [[3, 0], [0, 3]]


@pytest.mark.parametrize("scene, weak", [
    (corrupted_mask_scene(3), (1,)),
    (two_object_scene(0, height=96, width=160), (1, 2)),
], ids=["binary", "expansion"])
def test_rounds_stop_at_the_fixed_point(monkeypatch, scene, weak):
    # both scenes repeat their first labeling in round 2; every later round
    # would rebuild the same energy from the same start
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit_gmm(*args, **kwargs)

    monkeypatch.setattr("motionseg.gmm.fit_gmm", counting_fit)
    batch = [(scene.image, scene.mask, scene.scores)]
    params = InferenceParams()
    out = infer_labels(batch, weak, params)[0]
    # the motion fit plus one refit, a fg/bg pair each
    assert len(calls) == 4 < 2 * params.iterations
    stopped = infer_labels(batch, weak, replace(params, iterations=2))[0]
    assert np.array_equal(out.labels, stopped.labels)
