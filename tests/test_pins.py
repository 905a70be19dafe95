"""Pinned outputs: the seeded scene datasets, evaluation reports with their
detections, and the stdout of demos 01-06.

The dataset pins were captured from the code as it stood before scene
generation was rewritten for speed; the rewrite must draw the same numbers in
the same order, so every array it builds is bit-identical. The evaluation pins
were captured from the per-detection matcher, before AP matching became array
operations, and the two P=600 ones from the per-class NMS loop, before NMS ran
all classes in lockstep; every report and detection must keep its bytes.

To capture the pins again after a deliberate change of the scene streams, of
an evaluation output or of a demo's output, run
``PYTHONPATH=src python tests/test_pins.py``.
"""

import contextlib
import hashlib
import io
import json
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from opis import SceneConfig, ToyModel, generate_dataset
from opis.evaluation import dump_detections, evaluate_scenes
from opis.harness import class_prototypes

ROOT = Path(__file__).parents[1]
DATASET_PINS = Path(__file__).parent / "data" / "dataset_pins.json"
EVAL_PINS = Path(__file__).parent / "data" / "eval_pins.json"
TRAIN_GOLDENS = Path(__file__).parent / "data" / "train_golden"
DEMO_PINS = Path(__file__).parent / "data" / "demos"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))

PIN_SEED, PIN_SCENES = 11, 40

# Each world reaches a different corner of generate_scene.
WORLDS = {
    "default": {},
    "one_proposal_one_object": dict(num_proposals=1, min_objects=1, max_objects=1),
    "eight_proposals_half_clutter": dict(num_proposals=8, clutter_rate=0.5, max_objects=2),
    "one_class_one_dim": dict(num_classes=1, feature_dim=1),
    "noise_free": dict(feature_noise=0.0),
    "no_clutter": dict(clutter_rate=0.0),
    "redraws": dict(jitter=2.0, coverage_iou=0.3),
    "three_objects": dict(min_objects=3, max_objects=3),
    "small_world": dict(num_proposals=40, num_classes=3, feature_dim=8),
    "wide": dict(num_proposals=600),
}


def dataset_digest(world: dict) -> str:
    """sha256 over every array of every scene, with its dtype and shape."""
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scenes = generate_dataset(SceneConfig(**world), PIN_SEED, PIN_SCENES)
    for s in scenes:
        h.update(str(s.scene_id).encode())
        for a in (s.proposals, s.features, s.image_label, s.gt_boxes, s.gt_classes):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


# The test suite's small config world; its eval set is 60 scenes of seed 77.
SMALL = dict(num_classes=3, feature_dim=8, num_proposals=40, clutter_rate=0.3)


def _golden(method: str) -> ToyModel:
    return ToyModel.from_json((TRAIN_GOLDENS / method / "model.json").read_text())


# The benchmark's stored model's world (4 classes, 16 dims, 3 branches) at the
# proposal count of the wide training workload.
WIDE = dict(num_proposals=600)


def _prototype_model(world: dict = SMALL, branches: int = 2) -> ToyModel:
    """Refinement heads aligned with the world's class prototypes: sharp
    scores with many true positives, and scores below the default floor."""
    config = SceneConfig(**world)
    model = ToyModel.initialize(config.num_classes, config.feature_dim, branches, seed=0, init_scale=0.0)
    for w in model.w_ref:
        w[: config.num_classes] = 8.0 * class_prototypes(config)
    return model


# name -> (model, world, scene count, evaluate_scenes keywords). The golden
# models' class maxima over the small set are 0.2400, 0.2472 and 0.2366, so a
# floor of 0.238 leaves class 3 without a detection and 0.25 leaves none.
EVAL_CASES = {
    "golden_opis": (lambda: _golden("opis"), SMALL, 60, {}),
    "golden_baseline": (lambda: _golden("baseline"), SMALL, 60, {}),
    # Every score is 1/(C+1): NMS and matching both fall back to their tie rules.
    "all_ties": (lambda: ToyModel.initialize(3, 8, 2, seed=0, init_scale=0.0), SMALL, 60, {}),
    "random_four_class_p150": (lambda: ToyModel.initialize(4, 16, 3, seed=5, init_scale=1.0), {}, 30, {}),
    "prototype": (_prototype_model, SMALL, 60, {}),
    "floor_zero": (_prototype_model, SMALL, 60, dict(score_floor=0.0)),
    "nms_0.01": (_prototype_model, SMALL, 60, dict(nms_iou=0.01)),
    "nms_0.99": (_prototype_model, SMALL, 60, dict(nms_iou=0.99)),
    "floor_empties_class_3": (lambda: _golden("opis"), SMALL, 60, dict(score_floor=0.238)),
    "floor_empties_all": (lambda: _golden("opis"), SMALL, 60, dict(nms_iou=0.9, score_floor=0.25)),
    "one_class_one_dim": (lambda: ToyModel.initialize(1, 1, 2, seed=0, init_scale=1.0),
                          dict(num_classes=1, feature_dim=1), 60, {}),
    "prototype_p600": (lambda: _prototype_model(WIDE, 3), WIDE, 20, {}),
    "prototype_p600_floor_zero": (lambda: _prototype_model(WIDE, 3), WIDE, 20, dict(score_floor=0.0)),
}


def eval_outputs(name: str):
    make_model, world, count, kwargs = EVAL_CASES[name]
    scenes = generate_dataset(SceneConfig(**world), 77, count)
    return evaluate_scenes(make_model(), scenes, **kwargs)


def eval_digest(name: str) -> str:
    """sha256 of the report's JSON followed by the detections' JSON lines."""
    report, records = eval_outputs(name)
    return hashlib.sha256((report.to_json() + dump_detections(records)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_dataset_matches_pin(name):
    assert dataset_digest(WORLDS[name]) == json.loads(DATASET_PINS.read_text())[name]


def test_every_world_is_pinned():
    assert sorted(json.loads(DATASET_PINS.read_text())) == sorted(WORLDS)


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_evaluation_matches_pin(name):
    assert eval_digest(name) == json.loads(EVAL_PINS.read_text())[name]


def test_every_eval_case_is_pinned():
    assert sorted(json.loads(EVAL_PINS.read_text())) == sorted(EVAL_CASES)


def test_floor_cases_reach_their_corners():
    (report, records), (empty, none) = eval_outputs("floor_empties_class_3"), eval_outputs("floor_empties_all")
    assert {d.class_id for _, d in records} == {1, 2} and report.per_class_ap[3] == 0.0
    assert none == [] and empty.mean_ap == 0.0
    floored, zero = eval_outputs("prototype")[0], eval_outputs("floor_zero")[0]
    assert floored.num_detections < zero.num_detections


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_pin(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert out.getvalue() == (DEMO_PINS / demo.replace(".py", ".txt")).read_text()


def test_demos_01_to_06_are_pinned():
    assert len(DEMOS) == 6
    assert sorted(p.name for p in DEMO_PINS.glob("*.txt")) == [d.replace(".py", ".txt") for d in DEMOS]


if __name__ == "__main__":
    DATASET_PINS.write_text(json.dumps({name: dataset_digest(w) for name, w in WORLDS.items()}, indent=2) + "\n")
    EVAL_PINS.write_text(json.dumps({name: eval_digest(name) for name in EVAL_CASES}, indent=2) + "\n")
    DEMO_PINS.mkdir(exist_ok=True)
    for demo in DEMOS:
        run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, check=True)
        (DEMO_PINS / demo.replace(".py", ".txt")).write_text(run.stdout)
