"""Pinned outputs: the seeded scene datasets and the stdout of demos 01-06.

The pins were captured from the code as it stood before scene generation was
rewritten for speed; the rewrite must draw the same numbers in the same order,
so every array it builds is bit-identical.

To capture the pins again after a deliberate change of the scene streams or a
demo's output, run ``PYTHONPATH=src python tests/test_pins.py``.
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

from opis import SceneConfig, generate_dataset

ROOT = Path(__file__).parents[1]
DATASET_PINS = Path(__file__).parent / "data" / "dataset_pins.json"
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


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_dataset_matches_pin(name):
    assert dataset_digest(WORLDS[name]) == json.loads(DATASET_PINS.read_text())[name]


def test_every_world_is_pinned():
    assert sorted(json.loads(DATASET_PINS.read_text())) == sorted(WORLDS)


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
    DEMO_PINS.mkdir(exist_ok=True)
    for demo in DEMOS:
        run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, check=True)
        (DEMO_PINS / demo.replace(".py", ".txt")).write_text(run.stdout)
