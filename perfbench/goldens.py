"""Golden outputs of the reference suite: summaries, comparison, capture.

Integers and strings must match exactly; floats must agree within 1e-12,
relative to max(1, |a|, |b|).  Goldens were captured from the commit that
added the benchmark; recapture only when a change alters outputs on purpose:

    python3 perfbench/goldens.py            # rewrite perfbench/data/goldens.json
    python3 perfbench/goldens.py --model    # also retrain the stored model (about 10 s)
"""

from __future__ import annotations

import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = DATA / "goldens.json"
MODEL = DATA / "model_opis_default.json"
FLOAT_TOL = 1e-12

_INT_COLUMNS = {"iteration", "pos_count", "neg_count_before", "neg_count_after"}


def train_summary(model, log) -> dict:
    """Every trainlog column, typed, plus the final parameters."""
    header = log.header()
    columns: dict[str, list] = {name: [] for name in header}
    for row in log.rows():
        for name, cell in zip(header, row):
            columns[name].append(int(cell) if name in _INT_COLUMNS else cell if name == "phase" else float(cell))
    return {"trainlog": columns, "params": {name: arr.tolist() for name, arr in model.param_items()}}


def eval_summary(report, records, scenes) -> dict:
    """Report fields plus detection counts and score sums per (scene, class)."""
    row = {scene.scene_id: i for i, scene in enumerate(scenes)}
    num_classes = scenes[0].image_label.shape[0]
    counts = [[0] * num_classes for _ in scenes]
    score_sums = [[0.0] * num_classes for _ in scenes]
    for scene_id, det in records:
        counts[row[scene_id]][det.class_id - 1] += 1
        score_sums[row[scene_id]][det.class_id - 1] += det.score
    return {
        "per_class_ap": {str(c): ap for c, ap in sorted(report.per_class_ap.items())},
        "mean_ap": report.mean_ap,
        "corloc": report.corloc,
        "num_scenes": report.num_scenes,
        "num_detections": report.num_detections,
        "detections_per_scene_class": counts,
        "score_sum_per_scene_class": score_sums,
    }


def compare_summary(csv_text: str) -> list:
    """compare.csv rows as [method, seed, map, corloc] with typed fields."""
    rows = []
    for line in csv_text.splitlines()[1:]:
        method, seed, ap, cl = line.split(",")
        rows.append([method, seed, float(ap), float(cl)])
    return rows


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Paths at which ``actual`` departs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= FLOAT_TOL * max(1.0, abs(expected), abs(actual)):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def load() -> dict:
    return json.loads(GOLDENS.read_text())


def _capture(retrain_model: bool) -> None:
    import workloads
    from opis import harness

    if retrain_model:
        config = harness.TrainConfig()
        dataset = harness.generate_dataset(config.scene, config.seed, config.scenes_per_epoch)
        model, _ = harness.train(config, dataset)
        MODEL.write_text(model.to_json())
    ref = workloads.reference_setup({})
    GOLDENS.write_text(json.dumps(workloads.reference_summaries(ref), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")


if __name__ == "__main__":
    import sys

    import run

    run.import_program()
    _capture("--model" in sys.argv[1:])
