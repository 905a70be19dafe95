"""VOC-criterion metrics over synthetic scenes: per-class AP, mAP, CorLoc.

In score order, a detection claims the ground truth of its class and scene that
it overlaps most, when that IoU strictly exceeds the threshold (0.5 by default)
and no earlier detection claimed it. AP integrates the full precision-recall
curve (all-points area, not the 11-point approximation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import BBox, ScoredBox, nms_indices, pairwise_iou
from .harness import Scene, ToyModel, forward

__all__ = [
    "UndefinedAPError",
    "MetricsReport",
    "branch_mean_scores",
    "detect",
    "voc_ap",
    "mean_ap",
    "corloc",
    "evaluate_scenes",
    "dump_detections",
]


class UndefinedAPError(ValueError):
    """AP requested for a class with no ground-truth boxes."""


def branch_mean_scores(model: ToyModel, scene: Scene) -> np.ndarray:
    """(C+1, P) class scores: mean of the refinement branches' softmax outputs."""
    scores = forward(model, scene)
    return np.mean(scores.phi, axis=0)


def detect(
    model: ToyModel,
    scene: Scene,
    nms_iou: float = 0.3,
    score_floor: float = 1e-3,
    scores: np.ndarray | None = None,
) -> list[ScoredBox]:
    """Per-class NMS-filtered detections from branch-averaged scores; pass the
    scene's ``branch_mean_scores`` as ``scores`` to reuse them."""
    mean_scores = branch_mean_scores(model, scene) if scores is None else scores
    num_classes = mean_scores.shape[0] - 1
    out: list[ScoredBox] = []
    for c in range(1, num_classes + 1):
        s = mean_scores[c - 1]
        cand = np.flatnonzero(s >= score_floor)
        if cand.size == 0:
            continue
        keep = nms_indices(scene.proposals[cand], s[cand], nms_iou)
        for i in cand[keep]:
            x1, y1, x2, y2 = scene.proposals[i]
            out.append(ScoredBox(BBox(x1, y1, x2, y2), float(s[i]), c))
    return out


def _class_ap(
    dets: Sequence[ScoredBox],
    det_scene: np.ndarray,
    gts: Sequence[tuple[BBox, int]],
    gt_scene: np.ndarray,
    class_id: int,
    iou_thresh: float,
) -> float:
    gt_mask = np.array([g[1] == class_id for g in gts], dtype=bool)
    n_gt = int(gt_mask.sum())
    if n_gt == 0:
        raise UndefinedAPError(f"no ground truth of class {class_id}")
    det_idx = np.array([i for i, d in enumerate(dets) if d.class_id == class_id], dtype=np.int64)
    if det_idx.size == 0:
        return 0.0
    # Score order, ties in input order.
    det_idx = det_idx[np.argsort([-dets[i].score for i in det_idx], kind="stable")]
    det_boxes = np.array([dets[i].box.as_array() for i in det_idx])
    det_scene = det_scene[det_idx]
    gt_boxes = np.array([g[0].as_array() for g, m in zip(gts, gt_mask) if m])
    gt_scene = gt_scene[gt_mask]
    # Each detection's most-overlapped ground truth of its scene (the first of
    # equals) and whether that overlap clears the threshold.
    best = np.zeros(det_idx.size, dtype=np.int64)
    hit = np.zeros(det_idx.size, dtype=bool)
    for scene_id in dict.fromkeys(gt_scene.tolist()):
        d = np.flatnonzero(det_scene == scene_id)
        g = np.flatnonzero(gt_scene == scene_id)
        overlaps = pairwise_iou(det_boxes[d], gt_boxes[g])
        j = overlaps.argmax(axis=1)
        best[d] = g[j]
        hit[d] = overlaps[np.arange(d.size), j] > iou_thresh
    # No claim changes which ground truth a detection overlaps most, so each
    # ground truth goes to its first hit in score order.
    rank = np.arange(det_idx.size)
    first = np.full(n_gt, det_idx.size)
    np.minimum.at(first, best[hit], rank[hit])
    tp = hit & (first[best] == rank)

    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (rank + 1)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]  # the precision envelope
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def voc_ap(
    dets: Sequence[ScoredBox],
    gts: Sequence[tuple[BBox, int]],
    class_id: int,
    iou_thresh: float = 0.5,
) -> float:
    """Average precision of one class over a single detection namespace."""
    n = len(dets)
    return _class_ap(dets, np.zeros(n, dtype=np.int64), gts, np.zeros(len(gts), dtype=np.int64), class_id, iou_thresh)


def mean_ap(
    dets: Sequence[ScoredBox],
    gts: Sequence[tuple[BBox, int]],
    classes: Sequence[int],
    iou_thresh: float = 0.5,
) -> float:
    """Mean of voc_ap over the classes that actually have ground truth."""
    present = [c for c in classes if any(g[1] == c for g in gts)]
    if not present:
        raise UndefinedAPError("no class has ground truth")
    return float(np.mean([voc_ap(dets, gts, c, iou_thresh) for c in present]))


def corloc(
    model: ToyModel | None,
    scenes: Sequence[Scene],
    iou_thresh: float = 0.5,
    score_fn: Callable[[Scene], np.ndarray] | None = None,
) -> float:
    """Fraction of (scene, present class) pairs whose top-scoring proposal
    overlaps a ground truth of that class beyond the threshold.

    Only the per-class argmax proposal is consulted, so the result does not
    depend on any NMS setting. ``score_fn`` may replace the model's
    branch-averaged scores (the model may then be None).
    """
    if score_fn is None:
        if model is None:
            raise ValueError("either a model or a score_fn is required")
        score_fn = lambda s: branch_mean_scores(model, s)
    hits = 0
    total = 0
    for scene in scenes:
        class_scores = np.asarray(score_fn(scene), dtype=np.float64)
        for c in np.flatnonzero(scene.image_label > 0) + 1:
            total += 1
            top = int(np.argmax(class_scores[c - 1]))
            gt = scene.gt_boxes[scene.gt_classes == c]
            overlap = pairwise_iou(scene.proposals[top : top + 1], gt)[0]
            if np.any(overlap > iou_thresh):
                hits += 1
    if total == 0:
        raise ValueError("no (scene, present class) pairs to evaluate")
    return hits / total


@dataclass
class MetricsReport:
    per_class_ap: dict[int, float]
    mean_ap: float
    corloc: float
    num_scenes: int
    num_detections: int

    def to_json(self) -> str:
        payload = {
            "per_class_ap": {str(c): ap for c, ap in sorted(self.per_class_ap.items())},
            "mean_ap": self.mean_ap,
            "corloc": self.corloc,
            "num_scenes": self.num_scenes,
            "num_detections": self.num_detections,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def evaluate_scenes(
    model: ToyModel,
    scenes: Sequence[Scene],
    nms_iou: float = 0.3,
    score_floor: float = 1e-3,
    iou_thresh: float = 0.5,
) -> tuple[MetricsReport, list[tuple[int, ScoredBox]]]:
    """Detect on every scene and compute mAP plus CorLoc over the whole set.
    Each scene is scored once; detection and CorLoc share its scores.

    Returns the report and the flat (scene_id, detection) list that produced
    it, in deterministic order.
    """
    all_dets: list[ScoredBox] = []
    det_scene: list[int] = []
    scores: dict[int, np.ndarray] = {}
    for scene in scenes:
        scores[id(scene)] = branch_mean_scores(model, scene)
        for d in detect(model, scene, nms_iou=nms_iou, score_floor=score_floor, scores=scores[id(scene)]):
            all_dets.append(d)
            det_scene.append(scene.scene_id)
    gts = [(BBox(*box), int(c)) for scene in scenes for box, c in zip(scene.gt_boxes, scene.gt_classes)]
    gt_scene = np.array([scene.scene_id for scene in scenes for _ in scene.gt_classes], dtype=np.int64)

    det_scene_arr = np.asarray(det_scene, dtype=np.int64)
    per_class = {
        c: _class_ap(all_dets, det_scene_arr, gts, gt_scene, c, iou_thresh)
        for c in sorted({c for _, c in gts})
    }
    report = MetricsReport(
        per_class_ap=per_class,
        mean_ap=float(np.mean(list(per_class.values()))),
        corloc=corloc(model, scenes, iou_thresh, score_fn=lambda scene: scores[id(scene)]),
        num_scenes=len(scenes),
        num_detections=len(all_dets),
    )
    return report, list(zip(det_scene, all_dets))


def dump_detections(records: Sequence[tuple[int, ScoredBox]]) -> str:
    """Line-delimited JSON, one detection per line, deterministic field order."""
    lines = []
    for scene_id, d in records:
        lines.append(
            json.dumps(
                {
                    "scene_id": scene_id,
                    "class_id": d.class_id,
                    "score": d.score,
                    "x1": d.box.x1,
                    "y1": d.box.y1,
                    "x2": d.box.x2,
                    "y2": d.box.y2,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
