import hashlib
import json
import os
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.core import (BoundingBox, LabelMap, MotionMask, RgbImage,
                            ScoreMap)
from motionseg.errors import (
    BadDimensions,
    BadMagic,
    EmptyShot,
    LabelOutOfRange,
    MotionSegError,
    NonBinaryMask,
    NonFiniteValue,
    SchemaError,
    SizeMismatch,
    TruncatedFile,
    UnknownLabel,
)
from motionseg.io import (
    manifest_to_dict,
    parse_manifest,
    read_boxes,
    read_image,
    read_labels,
    read_manifest,
    read_mask,
    read_scores,
    read_tensor,
    rebase,
    write_boxes,
    write_image,
    write_labels,
    write_manifest,
    write_mask,
    write_scores,
)
from motionseg.predictor import FEATURE_COUNT, ToyModel, load_model, save_model


# ---------------------------------------------------------------------------
# PPM frames

def test_read_one_white_pixel(tmp_path):
    p = tmp_path / "w.ppm"
    p.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
    img = read_image(p)
    assert img.pixels.shape == (1, 1, 3)
    assert np.array_equal(img.pixels[0, 0], [1.0, 1.0, 1.0])


def test_read_black_image(tmp_path):
    p = tmp_path / "b.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    assert not read_image(p).pixels.any()


def test_image_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(10):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        raw = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        p = tmp_path / f"img{trial}.ppm"
        write_image(RgbImage.from_bytes(raw), p)
        first = p.read_bytes()
        write_image(read_image(p), p)
        assert p.read_bytes() == first
        assert np.array_equal(
            np.rint(read_image(p).pixels * 255).astype(np.uint8), raw)


def test_header_allows_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6 # a comment\n# another\n 2\t1 \n255\n" + bytes(6))
    assert read_image(p).pixels.shape == (1, 2, 3)


def test_image_errors(tmp_path):
    cases = [
        (b"P5\n1 1\n255\n\x00\x00\x00", BadMagic),          # wrong magic
        (b"P6\n1 1\n254\n\x00\x00\x00", BadMagic),          # unsupported maxval
        (b"P6\n0 1\n255\n", BadDimensions),                 # zero width
        (b"P6\n2 1\n255\n\x00\x00\x00", TruncatedFile),     # short payload
        (b"P6\n1 1\n255\n\x00\x00\x00\x00", SizeMismatch),  # trailing bytes
        (b"P6\n1 1", TruncatedFile),                        # header ends early
    ]
    for raw, err in cases:
        p = tmp_path / "bad.ppm"
        p.write_bytes(raw)
        with pytest.raises(err):
            read_image(p)


def test_truncation_fuzz_always_raises_typed_errors(tmp_path):
    # every proper prefix of a valid file, for every reader
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    scores = rng.random((4, 5, 3))
    model = ToyModel(rng.standard_normal((3, FEATURE_COUNT)),
                     np.zeros((3, FEATURE_COUNT)))
    cases = [
        (write_image, RgbImage.from_bytes(raw), read_image),
        (write_mask, MotionMask(raw[..., 0] % 2), read_mask),
        (write_labels, LabelMap(raw[..., 0] % 3), lambda p: read_labels(p, 3)),
        (write_scores, ScoreMap(scores / scores.sum(axis=2, keepdims=True)),
         read_scores),
        (save_model, model, load_model),
    ]
    for write, value, read in cases:
        good = tmp_path / "good"
        write(value, good)
        data = good.read_bytes()
        read(good)
        for cut in range(len(data)):
            p = tmp_path / "cut"
            p.write_bytes(data[:cut])
            with pytest.raises(MotionSegError):
                read(p)


# ---------------------------------------------------------------------------
# PGM masks and label maps

def test_mask_all_foreground(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + b"\xff" * 4)
    assert read_mask(p).mask.all()


def test_mask_rejects_gray(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n3 1\n255\n\x00\x80\x01")
    # the first bad pixel in raster order is named
    with pytest.raises(NonBinaryMask, match=r"value 128 at \(row=0, col=1\)"):
        read_mask(p)


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    mask = MotionMask(rng.integers(0, 2, size=(5, 4)).astype(np.uint8))
    p = tmp_path / "m.pgm"
    write_mask(mask, p)
    assert np.array_equal(read_mask(p).mask, mask.mask)
    first = p.read_bytes()
    write_mask(read_mask(p), p)
    assert p.read_bytes() == first


def test_labels_bounds_check(tmp_path):
    p = tmp_path / "l.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\x03")
    assert read_labels(p, 4).labels[0, 0] == 3
    with pytest.raises(LabelOutOfRange):
        read_labels(p, 3)


def test_labels_round_trip(tmp_path):
    lm = LabelMap(np.array([[0, 1, 2], [2, 1, 0]]))
    p = tmp_path / "l.pgm"
    write_labels(lm, p)
    assert np.array_equal(read_labels(p, 3).labels, lm.labels)


def test_write_labels_rejects_wide_labels(tmp_path):
    with pytest.raises(LabelOutOfRange):
        write_labels(LabelMap(np.array([[300]])), tmp_path / "l.pgm")


# ---------------------------------------------------------------------------
# MSF1 score tensors

def test_read_minimal_score_file(tmp_path):
    p = tmp_path / "s.msf"
    p.write_bytes(b"MSF1 1 1 2\n" + np.array([0.5, 0.5], "<f4").tobytes())
    sm = read_scores(p)
    assert sm.scores.shape == (1, 1, 2)
    assert np.array_equal(sm.scores, np.full((1, 1, 2), 0.5))


def test_scores_round_trip_preserves_bit_patterns(tmp_path):
    # includes denormals and signed zeros
    vals = np.array([1e-42, -1e-42, 0.0, -0.0, 1.0, np.pi, 3.4e38],
                    dtype="<f4")
    sm = ScoreMap(vals.astype(np.float64).reshape(1, 7, 1))
    p = tmp_path / "s.msf"
    write_scores(sm, p)
    back = read_scores(p)
    assert back.scores.astype("<f4").tobytes() == vals.tobytes()
    first = p.read_bytes()
    write_scores(back, p)
    assert p.read_bytes() == first


def test_scores_random_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(10):
        h, w, c = (int(rng.integers(1, 7)) for _ in range(3))
        raw = rng.standard_normal((h, w, c)).astype("<f4")
        p = tmp_path / f"s{trial}.msf"
        write_scores(ScoreMap(raw.astype(np.float64)), p)
        assert read_scores(p).scores.astype("<f4").tobytes() == raw.tobytes()


def test_scores_errors(tmp_path):
    cases = [
        (b"XYZ1 1 1 1\n" + bytes(4), BadMagic),
        (b"MSF1 1 1\n" + bytes(4), BadMagic),              # missing field
        (b"MSF1 1 one 1\n" + bytes(4), BadMagic),          # non-integer
        (b"MSF1 0 1 1\n", BadDimensions),
        (b"MSF1 1 1 2\n" + bytes(4), SizeMismatch),        # short payload
        (b"MSF1 1 1 1\n" + bytes(8), SizeMismatch),        # long payload
        # 2**64 payload bytes: a size that wraps to 0 in int64
        (b"MSF1 4611686018427387904 1 1\n", SizeMismatch),
        (b"MSF1 1 1 1", TruncatedFile),                    # no newline
    ]
    for raw, err in cases:
        p = tmp_path / "bad.msf"
        p.write_bytes(raw)
        with pytest.raises(err):
            read_scores(p)


def test_tensor_writers_refuse_what_their_reader_rejects(tmp_path):
    # ToyModel itself refuses empty weights; save_model reads only .weights
    cases = [(write_scores, ScoreMap(np.zeros(shape)))
             for shape in ((0, 2, 2), (2, 0, 2), (0, 0, 1))]
    cases += [(save_model, SimpleNamespace(weights=np.zeros(shape)))
              for shape in ((0, FEATURE_COUNT), (2, 0))]
    for i, (write, value) in enumerate(cases):
        p = tmp_path / f"empty{i}"
        with pytest.raises(BadDimensions):
            write(value, p)
        assert not p.exists()


# ---------------------------------------------------------------------------
# Manifests

def _minimal_doc(frame_count=20):
    return {
        "videos": [{
            "video_id": "v0",
            "weak_labels": ["car"],
            "shots": [{
                "shot_id": "s0",
                "frames": [{"image_path": f"f{i}.ppm",
                            "motion_mask_path": f"f{i}.pgm"}
                           for i in range(frame_count)],
            }],
        }],
    }


def test_minimal_manifest_parses():
    m = parse_manifest(_minimal_doc(), base_dir="/data")
    assert len(m.videos) == 1
    assert m.label_set.categories == ("background", "car")
    assert len(m.videos[0].shots[0].frames) == 20
    assert str(m.resolve("f0.ppm")) == "/data/f0.ppm"


def test_readme_manifest_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("**Dataset manifest: JSON.**", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    m = parse_manifest(json.loads(block))
    assert m.label_set.categories == ("background", "blue", "red")


def test_manifest_categories_field_fixes_order():
    doc = _minimal_doc()
    doc["categories"] = ["zebra", "car"]
    m = parse_manifest(doc)
    assert m.label_set.categories == ("background", "zebra", "car")


def test_manifest_rejects_empty_weak_labels():
    doc = _minimal_doc()
    doc["videos"][0]["weak_labels"] = []
    with pytest.raises((UnknownLabel, SchemaError)):
        parse_manifest(doc)


def test_manifest_refuses_a_repeated_weak_label():
    # a repeated label would count its video's frames twice in training
    doc = _minimal_doc()
    doc["videos"][0]["weak_labels"] = ["car", "car"]
    with pytest.raises(SchemaError,
                       match=r"^videos\[0\]: weak_labels must be unique$"):
        parse_manifest(doc)


def test_background_only_manifest_round_trips():
    # no video names a category: what write_manifest writes reads back
    m = parse_manifest({"videos": []})
    assert m.label_set.categories == ("background",)
    doc = manifest_to_dict(m)
    assert doc == {"categories": [], "videos": []}
    assert parse_manifest(doc).label_set == m.label_set


def test_manifest_rejects_background_weak_label():
    doc = _minimal_doc()
    doc["videos"][0]["weak_labels"] = ["background"]
    with pytest.raises(UnknownLabel):
        parse_manifest(doc)


def test_manifest_rejects_empty_shot():
    doc = _minimal_doc()
    doc["videos"][0]["shots"][0]["frames"] = []
    with pytest.raises(EmptyShot):
        parse_manifest(doc)


def test_manifest_rejects_unlisted_weak_label():
    doc = _minimal_doc()
    doc["categories"] = ["zebra"]
    with pytest.raises(UnknownLabel):
        parse_manifest(doc)


def test_manifest_schema_errors():
    with pytest.raises(SchemaError):
        parse_manifest({"videos": "nope"})
    doc = _minimal_doc()
    del doc["videos"][0]["shots"][0]["frames"][0]["image_path"]
    with pytest.raises(SchemaError):
        parse_manifest(doc)
    bad_shots = [{"kept_range": "ab"}, {"kept_range": [0.0, 2.0]},
                 {"kept_range": [True, 2]}, {"sampled_indices": [None]},
                 {"sampled_indices": "ab"}, {"sampled_indices": [1.5]}]
    bad_frames = [{"image_path": 5}, {"motion_mask_path": None},
                  {"score_map_path": ["a"]}, {"ground_truth_label_path": 7},
                  {"ground_truth_box": [1, 2, 3, "x"]},
                  {"ground_truth_box": [1, 2, 3, 4.5]}]
    for shot_fields in bad_shots:
        doc = _minimal_doc()
        doc["videos"][0]["shots"][0].update(shot_fields)
        with pytest.raises(SchemaError):
            parse_manifest(doc)
    for frame_fields in bad_frames:
        doc = _minimal_doc()
        doc["videos"][0]["shots"][0]["frames"][1].update(frame_fields)
        with pytest.raises(SchemaError):
            parse_manifest(doc)
    # a negative or flipped box is named with its location
    for box in ([-5, 2, 3, 3], [1, -1, 3, 3], [5, 5, 1, 1], [1, 4, 3, 3]):
        doc = _minimal_doc()
        doc["videos"][0]["shots"][0]["frames"][1]["ground_truth_box"] = box
        with pytest.raises(SchemaError, match=r"videos\[0\]\.shots\[0\]"
                                              r"\.frames\[1\]: ground_truth_box"):
            parse_manifest(doc)
    bad_videos = [{"video_id": {"x": 1}}, {"video_id": 3},
                  {"weak_labels": [3]}, {"weak_labels": ["car", None]}]
    for video_fields in bad_videos:
        doc = _minimal_doc()
        doc["videos"][0].update(video_fields)
        with pytest.raises(SchemaError):
            parse_manifest(doc)
    for shot_id in (["y"], 0, None):
        doc = _minimal_doc()
        doc["videos"][0]["shots"][0]["shot_id"] = shot_id
        with pytest.raises(SchemaError):
            parse_manifest(doc)
    for categories in (["car", 3], [["car"]]):
        doc = _minimal_doc()
        doc["categories"] = categories
        with pytest.raises(SchemaError):
            parse_manifest(doc)
    # weak labels of mixed types across videos used to reach sorted(set())
    doc = _minimal_doc()
    doc["videos"].append(dict(doc["videos"][0], video_id="v1",
                              weak_labels=[3]))
    doc["videos"][0]["weak_labels"] = ["cat"]
    with pytest.raises(SchemaError):
        parse_manifest(doc)


def test_manifest_refuses_repeated_or_stray_sampled_indices():
    # `sample` writes strictly increasing indices inside the kept range; a
    # repeat would enter one frame twice into the GMM batch and write its
    # label map twice
    def parse(sampled, kept=None):
        doc = _minimal_doc(frame_count=10)
        shot = doc["videos"][0]["shots"][0]
        shot["sampled_indices"] = sampled
        if kept is not None:
            shot["kept_range"] = kept
        return parse_manifest(doc).videos[0].shots[0]

    where = r"^videos\[0\]\.shots\[0\]: "
    for sampled, kept, why in (
            ([0, 0, 9], [2, 6], r"sampled index outside \[2, 6\)$"),
            ([2, 6], [2, 6], r"sampled index outside \[2, 6\)$"),
            ([1, 10], None, r"sampled index outside \[0, 10\)$"),
            ([-1], None, r"sampled index outside \[0, 10\)$"),
            ([3, 3], [2, 6], "sampled_indices must be strictly increasing$"),
            ([5, 4], None, "sampled_indices must be strictly increasing$")):
        with pytest.raises(SchemaError, match=where + why):
            parse(sampled, kept)
    assert parse([2, 5], [2, 6]).sampled_indices == (2, 5)
    assert parse([0, 9]).sampled_indices == (0, 9)
    assert parse([], [2, 6]).sampled_indices == ()


def test_manifest_round_trip(tmp_path):
    doc = _minimal_doc()
    doc["videos"][0]["shots"][0]["kept_range"] = [0, 20]
    doc["videos"][0]["shots"][0]["sampled_indices"] = [1, 3, 5]
    doc["videos"][0]["shots"][0]["frames"][0]["ground_truth_box"] = [1, 2, 3, 4]
    m = parse_manifest(doc)
    p = tmp_path / "manifest.json"
    write_manifest(m, p)
    again = read_manifest(p)
    assert manifest_to_dict(again) == manifest_to_dict(m)
    assert again.base_dir == tmp_path
    assert again.videos[0].shots[0].kept_range == (0, 20)
    assert again.videos[0].shots[0].sampled_indices == (1, 3, 5)
    assert again.videos[0].shots[0].frames[0].ground_truth_box == \
        BoundingBox(1, 2, 3, 4)


def test_manifest_refuses_repeated_ids_naming_both_positions():
    doc = _minimal_doc(frame_count=1)
    video = doc["videos"][0]
    doc["videos"].append(dict(video, video_id="v1"))
    doc["videos"].append(dict(video, video_id="v0"))
    with pytest.raises(SchemaError,
                       match=r"^videos\[2\]: video_id repeats videos\[0\]$"):
        parse_manifest(doc)
    doc["videos"].pop()
    doc["videos"][1]["shots"] = [video["shots"][0], dict(video["shots"][0])]
    with pytest.raises(SchemaError, match=r"^videos\[1\]\.shots\[1\]: shot_id "
                                          r"repeats videos\[1\]\.shots\[0\]$"):
        parse_manifest(doc)
    # a shot id is only unique within its video
    doc["videos"][1]["shots"].pop()
    assert [v.shots[0].shot_id for v in parse_manifest(doc).videos] == \
        ["s0", "s0"]


_PATH_PARTS = st.lists(st.sampled_from(["a", "b", ".", ".."]), max_size=4)


@settings(max_examples=150, deadline=None)
@given(base=_PATH_PARTS, new_base=_PATH_PARTS, frame=_PATH_PARTS,
       absolute=st.booleans())
def test_rebase_keeps_every_frame_path_on_its_file(
        tmp_path_factory, base, new_base, frame, absolute):
    # deep enough that no ".." leaves the temporary tree
    root = tmp_path_factory.getbasetemp().joinpath("rebase", *"cdefghijkl")
    root.mkdir(parents=True, exist_ok=True)
    old_dir = os.path.join(root, *base)
    new_dir = os.path.join(root, *new_base)
    path = os.path.join(*frame, "f.ppm")
    if absolute:
        path = os.path.join(root, path)
    doc = _minimal_doc(frame_count=2)
    doc["videos"][0]["shots"][0]["frames"][1].update(
        image_path=path, motion_mask_path=os.path.join(path, "..", "m.pgm"),
        score_map_path="s.msf", ground_truth_label_path=f"../{path}")
    m = parse_manifest(doc, base_dir=old_dir)
    rebased = rebase(m, new_dir)
    assert rebased.base_dir == Path(new_dir)
    assert rebased.label_set == m.label_set
    for before, after in zip(m.videos[0].shots[0].frames,
                             rebased.videos[0].shots[0].frames):
        for key in ("image_path", "motion_mask_path", "score_map_path",
                    "ground_truth_label_path"):
            old, new = getattr(before, key), getattr(after, key)
            assert (old is None) == (new is None)
            if old is not None:
                assert os.path.realpath(rebased.resolve(new)) == \
                    os.path.realpath(m.resolve(old))
        assert after.ground_truth_box == before.ground_truth_box


def test_manifest_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    # the second is nested past the JSON decoder's recursion limit
    for text in ("{not json", "[" * 100_000 + "]" * 100_000):
        p.write_text(text)
        with pytest.raises(SchemaError):
            read_manifest(p)


# ---------------------------------------------------------------------------
# Reader fuzz

@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per reader: name -> (bytes, reader, strict).

    A strict file's every proper prefix is invalid; a boxes CSV cut at a row
    or digit boundary can still be a valid CSV."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    scores = rng.random((3, 4, 3))
    model = ToyModel(rng.standard_normal((3, FEATURE_COUNT)),
                     np.zeros((3, FEATURE_COUNT)))
    doc = _minimal_doc(frame_count=3)
    doc["videos"][0]["shots"][0].update(kept_range=[0, 3], sampled_indices=[1])
    doc["videos"][0]["shots"][0]["frames"][1]["ground_truth_box"] = [0, 1, 2, 3]
    boxes = root / "boxes.csv"
    write_boxes(_BOX_ROWS, boxes)
    cases = {
        "image": (write_image, RgbImage.from_bytes(raw), read_image),
        "mask": (write_mask, MotionMask(raw[..., 0] % 2), read_mask),
        "labels": (write_labels, LabelMap(raw[..., 1] % 3),
                   lambda p: read_labels(p, 3)),
        "scores": (write_scores, ScoreMap(scores / scores.sum(axis=2,
                                                              keepdims=True)),
                   read_scores),
        "tensor": (write_scores, ScoreMap(scores),
                   lambda p: read_tensor(p, b"MSF1", 3)),
        "model": (save_model, model, load_model),
        "manifest": (write_manifest, parse_manifest(doc), read_manifest),
    }
    files = {"boxes": (boxes, read_boxes, False)}
    for name, (write, value, read) in cases.items():
        write(value, root / name)
        files[name] = (root / name, read, True)
    for path, read, _ in files.values():
        read(path)  # each file starts valid
    return {name: (path.read_bytes(), read, strict)
            for name, (path, read, strict) in files.items()}


@st.composite
def _damage(draw, data):
    """``data`` truncated, or with a few bytes overwritten, inserted or
    deleted; returns (damaged bytes, whether it is a proper prefix)."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "delete"]))
    if kind == "truncate":
        # keep the cut before the last non-blank byte, so that a manifest
        # loses at least its closing brace
        return data[:draw(st.integers(0, len(data.rstrip()) - 1))], True
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out) - 1))
        if kind == "overwrite":
            out[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            out[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif len(out) > 1:
            del out[at]
    return bytes(out), False


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["image", "mask", "labels", "scores", "tensor",
                        "model", "manifest", "boxes"]), st.data())
def test_damaged_files_raise_only_package_errors(valid_files, tmp_path_factory,
                                                 name, data):
    good, read, strict = valid_files[name]
    damaged, prefix = data.draw(_damage(good))
    p = tmp_path_factory.getbasetemp() / f"damaged_{name}"
    p.write_bytes(damaged)
    if prefix and strict:
        with pytest.raises(MotionSegError):
            read(p)
        return
    try:
        read(p)
    except MotionSegError:
        pass


_HEADER = b"frame_path,x_min,y_min,x_max,y_max\n"
# a box, a missing box, and a one-pixel box on a path the writer must quote
_BOX_ROWS = [("v/f0.ppm", BoundingBox(1, 2, 13, 20)), ("v/f1.ppm", None),
             ('v/a,"b".ppm', BoundingBox(0, 0, 0, 0))]


@pytest.mark.parametrize("name, data, read, err", [
    ("nan.mtm", b"MTM1 2 %d\n" % FEATURE_COUNT
     + np.full(2 * FEATURE_COUNT, np.nan, dtype="<f4").tobytes(),
     load_model, NonFiniteValue),
    ("wide.ppm", b"P6\n" + b"1" * 5000 + b" 1\n255\n\0\0\0", read_image,
     BadDimensions),
    ("dup.json", b'{"categories": ["a", "a"], "videos": []}', read_manifest,
     SchemaError),
    ("utf8.json", b'{"videos": [], "x": "\xff"}', read_manifest, SchemaError),
    ("utf8.csv", _HEADER + b"\xff,1,2,3,4\n", read_boxes, SchemaError),
    ("word.csv", _HEADER + b"a,1,2,x,4\n", read_boxes, SchemaError),
    ("flipped.csv", _HEADER + b"a,3,2,1,4\n", read_boxes, SchemaError),
    ("negative.csv", _HEADER + b"a,-5,2,3,3\n", read_boxes, SchemaError),
    ("plus.csv", _HEADER + b"a,+1,2,3,4\n", read_boxes, SchemaError),
    ("underscore.csv", _HEADER + b"a,1,2,1_0,4\n", read_boxes, SchemaError),
    ("space.csv", _HEADER + b"a,1,2,3, 4\n", read_boxes, SchemaError),
    ("arabic.csv", _HEADER + "a,1,2,3,\u0664\n".encode(), read_boxes,
     SchemaError),
    ("six.csv", _HEADER + b"a,1,2,3,4,5\n", read_boxes, SchemaError),
    ("partial.csv", _HEADER + b"c,,5,6,7\n", read_boxes, SchemaError),
    ("reordered.csv", b"frame_path,y_min,x_min,x_max,y_max\na,1,2,3,4\n",
     read_boxes, SchemaError),
    ("repeated.csv", _HEADER + b"a,1,2,3,4\nb,,,,\na,,,,\n", read_boxes,
     SchemaError),
])
def test_readers_reject_what_the_fuzz_found(tmp_path, name, data, read, err):
    p = tmp_path / name
    p.write_bytes(data)
    with pytest.raises(err):
        read(p)


def test_signaling_nans_read_without_a_warning(tmp_path):
    # a float32 signaling NaN cast to float64 raises numpy's invalid flag;
    # the reader keeps it a NaN for the value checks downstream to reject
    snan = np.array([0x7F800001, 0xFF800001], "<u4").tobytes()
    scores, model = tmp_path / "snan.msf", tmp_path / "snan.mtm"
    scores.write_bytes(b"MSF1 1 2 2\n" + 2 * snan)
    model.write_bytes(b"MTM1 2 %d\n" % FEATURE_COUNT + FEATURE_COUNT * snan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(read_scores(scores).scores).all()
        with pytest.raises(NonFiniteValue):
            load_model(model)


def test_boxes_csv_reads_boxes_and_all_empty_rows(tmp_path):
    p = tmp_path / "boxes.csv"
    p.write_bytes(_HEADER + b"a,1,2,3,4\nb,,,,\n\nc,0,0,0,0\n")
    assert read_boxes(p) == {"a": BoundingBox(1, 2, 3, 4), "b": None,
                             "c": BoundingBox(0, 0, 0, 0)}


def test_boxes_csv_round_trip(tmp_path):
    p = tmp_path / "boxes.csv"
    write_boxes(_BOX_ROWS, p)
    assert read_boxes(p) == dict(_BOX_ROWS)
    again = tmp_path / "again.csv"
    write_boxes(read_boxes(p).items(), again)
    assert again.read_bytes() == p.read_bytes()


# ---------------------------------------------------------------------------
# Writer bytes

def test_writer_bytes_are_pinned(tmp_path):
    # sha256 of every writer's bytes: a codec or manifest-writer change
    # that moves one byte fails here
    rng = np.random.default_rng(90)
    raw = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    scores = rng.random((5, 7, 3))
    doc = _minimal_doc(frame_count=4)
    shot = doc["videos"][0]["shots"][0]
    shot.update(kept_range=[1, 4], sampled_indices=[1, 3])
    # frame 1 sets every optional field; the other frames leave them out
    shot["frames"][1].update(score_map_path="f1.msf",
                             ground_truth_label_path="f1_gt.pgm",
                             ground_truth_box=[1, 2, 5, 4])
    cases = [
        (write_image, RgbImage.from_bytes(raw), "image.ppm"),
        (write_mask, MotionMask(raw[..., 0] % 2), "mask.pgm"),
        (write_labels, LabelMap(raw[..., 1] % 3), "labels.pgm"),
        (write_scores, ScoreMap(scores / scores.sum(axis=2, keepdims=True)),
         "scores.msf"),
        (save_model, ToyModel(rng.standard_normal((3, FEATURE_COUNT)),
                              np.zeros((3, FEATURE_COUNT))), "model.mtm"),
        (write_manifest, parse_manifest(doc), "manifest.json"),
        (write_boxes, _BOX_ROWS, "boxes.csv"),
    ]
    digests = {}
    for write, value, name in cases:
        write(value, tmp_path / name)
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == {
        "image.ppm":
            "9ac72f8eceeeac16ee9fd5d09a293afe8aeb99aabf88edf97eac8811f36d0ec5",
        "mask.pgm":
            "430b626f8817e44f0d9794aad4b677342331fa7c66c660610c652ed8eee9ebf2",
        "labels.pgm":
            "6c574709c58d283eb4056c50e659999de5da30b8c8b510b0a64f68fe9cb795c4",
        "scores.msf":
            "b554643f2d7a9bfa006ee7e7ff1e8ce6b1b9aa085c6e9f0427e05d4fbd117a58",
        "model.mtm":
            "1ca0c3432f823da5fde4581f13969b9ee80cbaa1d0144337b9f8ec98043958a0",
        "manifest.json":
            "4d1a25ca5de037ea2f31301c825e27fd41c608b3d004a037666015707869db5d",
        "boxes.csv":
            "0ecdb8a877227e444b78aa02ddeab1f027facd08bbf8ee6d02b4eea6502c8e1c",
    }
