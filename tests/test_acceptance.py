"""The release gate: one check per shipped guarantee, two for training.

Each test exercises one headline property of the library at its stated
tolerance and prints a single PASS line with the measured numbers (run
with ``pytest tests/test_acceptance.py -v -s`` to see them). Solvers are
compared against exhaustive enumeration, EM against its own monotonicity
contract, gradients against finite differences, and the end-to-end loop
against held-out ground truth on the synthetic blob videos.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from motionseg.coloc import SuperpixelMap, coloc_segment
from motionseg.core import BoundingBox, GridAdjacency, LabelMap, MotionMask, \
    RgbImage, ScoreMap, argmax_labels
from motionseg.energy import EnergyModel, PairwiseParams, \
    minimize_binary, minimize_expansion, total_energy
from motionseg.gmm import FgBgGmm, Gmm, fit_gmm, nll
from motionseg.inference import InferenceParams, hard_assign, infer_labels
from motionseg.io import manifest_to_dict, parse_manifest, read_image, \
    read_labels, read_manifest, read_mask, read_scores, write_image, \
    write_labels, write_mask, write_scores
from motionseg.loss import ClassWeights, weighted_nll_loss
from motionseg.maxflow import min_cut
from motionseg.metrics import ConfusionAccumulator, accumulate_iou, \
    box_iou, corloc, mean_iou
from motionseg.pipeline import prune_manifest, prune_shot, sample_frames, \
    sample_manifest, select_finetune_shots
from motionseg.predictor import ToyModel, ToyTrainConfig, load_model, \
    predict, save_model, train_loop
from motionseg.synthetic import corrupted_mask_scene

from helpers import flow_network, random_flow_network, random_model, \
    random_scores
from oracles import all_labelings, brute_force_min_cut, enumerate_minimum, \
    fd_loss_gradient, potts_energies, potts_weight, prune_oracle, \
    sample_oracle, select_oracle


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def _scene_mean_iou(labeling, truth):
    acc = ConfusionAccumulator.zeros(2)
    accumulate_iou(acc, labeling, truth)
    return mean_iou(acc)


# ---------------------------------------------------------------------------
# 1. binary cut equals exhaustive enumeration


def test_01_binary_cut_is_exact():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 4))
        m = random_model(rng, h, w, (0, 1))
        got = total_energy(m, minimize_binary(m))
        _, best = enumerate_minimum(m.unary, m.adjacency.edges(),
                                    m.pairwise, 2)
        worst = max(worst, got - best)
        assert got <= best + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS [1/11] binary cut exact on 200 instances "
          f"(worst gap {worst:.2e}, {elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 2. expansion near-optimality on 3-label problems


def test_02_expansion_quality():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    exact = 0
    for _ in range(100):
        m = random_model(rng, 3, 3, (0, 1, 2), nonnegative=True)
        trace = []
        got = minimize_expansion(m, energy_trace=trace)
        energy = total_energy(m, got)
        _, best = enumerate_minimum(m.unary, m.adjacency.edges(),
                                    m.pairwise, 3)
        assert energy <= 2.0 * best + 1e-9
        assert (np.diff(trace) <= 1e-9).all()
        assert abs(trace[-1] - energy) < 1e-9
        if energy <= best + 1e-9:
            exact += 1
    elapsed = time.monotonic() - start
    assert exact >= 90
    assert elapsed < 30.0
    print(f"PASS [2/11] expansion within 2x always, exact on {exact}/100 "
          f"({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 3. max-flow equals brute-force min cut


def test_03_min_cut_matches_brute_force():
    rng = np.random.default_rng(102)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        n, terminals, edges = random_flow_network(rng)
        got = min_cut(flow_network(n, terminals, edges)).flow_value
        want, _ = brute_force_min_cut(n, terminals, edges)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS [3/11] min cut exact on 500 graphs "
          f"(worst gap {worst:.2e}, {elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 4. EM monotonicity


def test_04_em_is_monotone():
    rng = np.random.default_rng(103)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(10, 80))
        colors = rng.random((n, 3))
        weights = rng.random(n) + 0.05
        k = int(rng.integers(1, 5))
        _, history = fit_gmm(colors, weights, n_components=min(k, n),
                             seed=int(rng.integers(10_000)),
                             return_history=True)
        if len(history) > 1:
            worst = max(worst, float(np.max(np.diff(history))))
        assert (np.diff(history) <= 1e-9).all()
    print(f"PASS [4/11] EM NLL non-increasing on 50 sample sets "
          f"(worst step {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. loss gradient vs finite differences


def test_05_gradient_check():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        c = int(rng.integers(2, 5))
        logits = rng.standard_normal((h, w, c))
        labeling = LabelMap(rng.integers(0, c, (h, w)).astype(np.int32))
        raw = np.concatenate([[1.0], rng.random(c - 1) * 0.9 + 0.1])
        cw = ClassWeights(raw)
        _, grad = weighted_nll_loss(ScoreMap(_softmax(logits)), labeling, cw)
        fd = fd_loss_gradient(logits, labeling.labels, raw)
        err = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(grad)))
        worst = max(worst, err)
        assert err < 1e-5
    print(f"PASS [5/11] gradient matches finite differences on 100 "
          f"instances (worst relative error {worst:.2e})")


# ---------------------------------------------------------------------------
# 6 + 7. corrupted-mask suite: soft vs hard, iteration stability


@pytest.fixture(scope="module")
def corrupted_suite():
    """Mean IoU (in points, 0-100) of hard assignment and of inference at
    every iteration count 1-5, over 20 corrupted-mask scenes."""
    start = time.monotonic()
    scenes = [corrupted_mask_scene(seed) for seed in range(20)]
    hard_vals = [_scene_mean_iou(hard_assign([sc.mask], (1,))[0], sc.truth)
                 for sc in scenes]
    by_iters = {}
    for iters in range(1, 6):
        params = InferenceParams(iterations=iters, seed=0)
        vals = [_scene_mean_iou(
            infer_labels([(sc.image, sc.mask, sc.scores)], (1,), params)[0],
            sc.truth) for sc in scenes]
        by_iters[iters] = 100.0 * float(np.mean(vals))
    return SimpleNamespace(hard=100.0 * float(np.mean(hard_vals)),
                           by_iters=by_iters,
                           elapsed=time.monotonic() - start)


def test_06_soft_beats_hard(corrupted_suite):
    soft = corrupted_suite.by_iters[InferenceParams().iterations]
    margin = soft - corrupted_suite.hard
    assert margin >= 5.0
    assert corrupted_suite.elapsed < 120.0
    print(f"PASS [6/11] soft {soft:.2f} vs hard {corrupted_suite.hard:.2f} "
          f"mean IoU points (margin {margin:.2f} >= 5, "
          f"{corrupted_suite.elapsed:.1f} s for all iteration counts)")


def test_07_iteration_insensitivity(corrupted_suite):
    means = [corrupted_suite.by_iters[k] for k in range(1, 6)]
    spread = max(means) - min(means)
    assert spread < 3.0
    print(f"PASS [7/11] iterations 1-5 mean IoU "
          f"{['%.2f' % v for v in means]} (spread {spread:.2f} < 3)")


# ---------------------------------------------------------------------------
# 8. end-to-end training improves held-out IoU


def _held_out_frames(manifest):
    """(image, ground truth) of every kept frame that was not sampled."""
    for video in manifest.videos:
        for shot in video.shots:
            start, stop = shot.kept_range
            sampled = set(shot.sampled_indices)
            for idx in range(start, stop):
                if idx in sampled:
                    continue
                frame = shot.frames[idx]
                yield (read_image(manifest.resolve(frame.image_path)),
                       read_labels(
                           manifest.resolve(frame.ground_truth_label_path), 3))


def _held_out_mean_iou(manifest, model):
    acc = ConfusionAccumulator.zeros(3)
    count = 0
    for img, truth in _held_out_frames(manifest):
        accumulate_iou(acc, argmax_labels(predict(model, img)), truth)
        count += 1
    return mean_iou(acc), count


def test_08_training_improves_held_out_iou(blob_manifest_path):
    start = time.monotonic()
    manifest = sample_manifest(prune_manifest(read_manifest(
        blob_manifest_path)))
    params = InferenceParams(iterations=1, gmm_components=2, seed=0)
    cfg = ToyTrainConfig(learning_rate=0.2, epochs=24)
    baseline, held_out = _held_out_mean_iou(manifest, ToyModel.zeros(3))
    trained_model = train_loop(manifest, params, cfg)
    trained, _ = _held_out_mean_iou(manifest, trained_model)
    elapsed = time.monotonic() - start
    assert held_out == 26
    assert trained > baseline
    assert elapsed < 300.0
    print(f"PASS [8/11] training lifts held-out mean IoU "
          f"{baseline:.4f} -> {trained:.4f} on {held_out} frames "
          f"({elapsed:.1f} s)")


def test_08_training_lowers_held_out_nll(blob_manifest_path):
    # the held-out IoU above is a step function of training progress; the
    # per-pixel NLL of the ground truth moves with every epoch block
    manifest = sample_manifest(prune_manifest(read_manifest(
        blob_manifest_path)))
    frames = list(_held_out_frames(manifest))
    uniform = ClassWeights(np.ones(3))

    def mean_nll(model):
        return sum(weighted_nll_loss(predict(model, img), truth, uniform)[0]
                   for img, truth in frames) / sum(
                       truth.labels.size for _, truth in frames)

    params = InferenceParams(iterations=1, gmm_components=2, seed=0)
    cfg = ToyTrainConfig(learning_rate=0.2, epochs=8)
    model = ToyModel.zeros(3)
    nlls = [mean_nll(model)]
    for _ in range(3):
        model = train_loop(manifest, params, cfg, model)
        nlls.append(mean_nll(model))
    assert all(b < a for a, b in zip(nlls, nlls[1:])), nlls
    print(f"PASS [8/11] held-out mean NLL after 0/8/16/24 epochs "
          f"{['%.4f' % v for v in nlls]}")


# ---------------------------------------------------------------------------
# 9. pipeline rules equal their oracles on every boundary case


def test_09_pipeline_boundary_fixtures():
    fixtures = [
        [0.1] * 19,                    # one frame short of the minimum
        [0.024] * 40,                  # just below the lower bound
        [0.025] * 40,                  # exactly the lower bound
        [0.50] * 40,                   # exactly the upper bound
        [0.51] * 40,                   # just above the upper bound
        [0.3] * 19 + [0.9] + [0.3] * 20,      # longest run after a break
        [0.3] * 25 + [0.6] + [0.3] * 25,      # tie: earliest run wins
        [0.0] * 10 + [0.1] * 30,              # run shorter than the shot
        [0.024, 0.025, 0.5, 0.51] * 10,       # alternating boundary values
    ]
    for fractions in fixtures:
        got = prune_shot(fractions)
        want = prune_oracle(fractions)
        assert got == want, (fractions[:6], got, want)

    for length in (20, 21, 23, 40, 97, 200):
        assert list(sample_frames(length, 10)) == sample_oracle(length, 10)

    selections = [
        {"v": {"a": 0.15, "b": 0.35, "c": 0.30}},
        {"v": {"a": 0.19999}},
        {"v": {"a": 0.2}},                       # threshold is inclusive
        {"v": {"a": 0.4, "b": 0.4}},             # tie: first shot wins
        {"u": {"a": 0.1}, "v": {"a": 0.9}},
    ]
    for overlaps in selections:
        assert select_finetune_shots(overlaps) == select_oracle(overlaps)
    print("PASS [9/11] prune/sample/select match rule oracles on all "
          "boundary fixtures")


# ---------------------------------------------------------------------------
# 10. metric examples and superpixel equivalence


def test_10_metric_examples_and_singleton_equivalence():
    a = BoundingBox(0, 0, 9, 9)
    assert abs(box_iou(a, BoundingBox(5, 0, 14, 9)) - 1 / 3) < 1e-12

    half = BoundingBox(0, 0, 9, 4)        # IoU exactly 0.5: not localized
    over = BoundingBox(0, 0, 9, 5)        # IoU 0.6: localized
    assert corloc([(half, a)]) == 0.0
    assert corloc([(over, a)]) == 100.0
    assert corloc([(None, a), (a, a)]) == 50.0

    rng = np.random.default_rng(105)
    for _ in range(3):
        img = RgbImage(rng.random((3, 3, 3)))
        ids = np.arange(9, dtype=np.int32).reshape(3, 3)
        ys, xs = np.mgrid[:3, :3]
        sp = SuperpixelMap(ids=ids, mean_colors=img.pixels.reshape(-1, 3),
                           centroids=np.column_stack(
                               [ys.ravel(), xs.ravel()]).astype(np.float64),
                           counts=np.ones(9, dtype=np.int64))
        fg = rng.random(3)
        bg = rng.random(3)
        gmms = FgBgGmm(
            foreground=Gmm(np.array([1.0]), fg[None, :],
                           (0.05 * np.eye(3))[None, :, :]),
            background=Gmm(np.array([1.0]), bg[None, :],
                           (0.05 * np.eye(3))[None, :, :]))
        params = PairwiseParams(smoothness=2.0)
        got = coloc_segment(img, sp, gmms, params)

        adj = GridAdjacency(3, 3)
        colors = img.pixels.reshape(-1, 3)
        unary = np.column_stack([nll(gmms.background, colors),
                                 nll(gmms.foreground, colors)])
        band = np.zeros((3, 3), dtype=bool)
        weights = np.array([
            potts_weight(colors[i], colors[j], divmod(i, 3), divmod(j, 3),
                         band, params)
            for i, j in adj.edges()])
        pixel_cut = minimize_binary(EnergyModel((0, 1), unary, weights, adj))
        assert np.array_equal(got.labels, pixel_cut.labels)

        labelings = all_labelings(9, 2)
        energies = potts_energies(unary, adj.edges(), weights, labelings)
        best = labelings[int(np.argmin(energies))].reshape(3, 3)
        assert np.array_equal(got.labels, best)
    print("PASS [10/11] box IoU / CorLoc analytic cases and singleton "
          "superpixel cut equivalence")


# ---------------------------------------------------------------------------
# 11. determinism and lossless formats


def test_11_determinism_and_round_trips(tmp_path):
    # identical seeds give byte-identical label files
    scene = corrupted_mask_scene(0)
    params = InferenceParams(iterations=2, gmm_components=2, seed=0)
    for attempt in ("a", "b"):
        out = infer_labels([(scene.image, scene.mask, scene.scores)],
                           (1,), params)[0]
        write_labels(out, tmp_path / f"{attempt}.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    rng = np.random.default_rng(106)
    for trial in range(10):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))

        img_path = tmp_path / "img.ppm"
        write_image(RgbImage(rng.random((h, w, 3))), img_path)
        first = img_path.read_bytes()
        write_image(read_image(img_path), img_path)
        assert img_path.read_bytes() == first

        mask_path = tmp_path / "mask.pgm"
        mask = MotionMask(rng.integers(0, 2, (h, w)).astype(np.uint8))
        write_mask(mask, mask_path)
        assert np.array_equal(read_mask(mask_path).mask, mask.mask)

        lab_path = tmp_path / "lab.pgm"
        lab = LabelMap(rng.integers(0, 7, (h, w)).astype(np.int32))
        write_labels(lab, lab_path)
        assert np.array_equal(read_labels(lab_path, 7).labels, lab.labels)

        score_path = tmp_path / "s.msf"
        write_scores(random_scores(rng, h, w, int(rng.integers(2, 5))),
                     score_path)
        first = score_path.read_bytes()
        write_scores(read_scores(score_path), score_path)
        assert score_path.read_bytes() == first

        model_path = tmp_path / "m.mtm"
        weights = rng.standard_normal((3, 10)).astype("<f4").astype(np.float64)
        save_model(ToyModel(weights, np.zeros((3, 10))), model_path)
        loaded = load_model(model_path)
        assert np.array_equal(loaded.weights, weights)

    doc = {"categories": ["cat", "dog"],
           "videos": [{"video_id": "v", "weak_labels": ["dog"],
                       "shots": [{"shot_id": "s",
                                  "frames": [{"image_path": "a.ppm",
                                              "motion_mask_path": "a_m.pgm",
                                              "ground_truth_box": [1, 2, 3, 4]}],
                                  "kept_range": [0, 1],
                                  "sampled_indices": [0]}]}]}
    assert manifest_to_dict(parse_manifest(doc)) == doc
    print("PASS [11/11] seeded runs byte-identical; PPM/PGM/MSF1/MTM1/"
          "manifest round-trips lossless")
