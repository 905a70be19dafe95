"""VOC-criterion metrics over synthetic scenes: per-class AP, mAP, CorLoc.

A detection matches a ground truth of its class when IoU strictly exceeds the
threshold (0.5 by default); each ground truth can be claimed once, by the
highest-scoring detection that reaches it first. AP integrates the full
precision-recall curve (all-points area, not the 11-point approximation).
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
) -> list[ScoredBox]:
    """Per-class NMS-filtered detections from branch-averaged scores."""
    mean_scores = branch_mean_scores(model, scene)
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


def _match_detections(
    det_scores: np.ndarray,
    det_boxes: np.ndarray,
    det_scene: np.ndarray,
    gt_boxes: np.ndarray,
    gt_scene: np.ndarray,
    iou_thresh: float,
) -> np.ndarray:
    """Greedy TP/FP flags in descending score order (ties keep input order)."""
    order = np.argsort(-det_scores, kind="stable")
    used = np.zeros(gt_boxes.shape[0], dtype=bool)
    tp = np.zeros(det_scores.size, dtype=bool)
    for rank, i in enumerate(order):
        same_scene = np.flatnonzero(gt_scene == det_scene[i])
        if same_scene.size == 0:
            continue
        overlaps = pairwise_iou(det_boxes[i : i + 1], gt_boxes[same_scene])[0]
        j = int(overlaps.argmax())
        if overlaps[j] > iou_thresh and not used[same_scene[j]]:
            used[same_scene[j]] = True
            tp[rank] = True
    return tp


def _ap_from_flags(tp: np.ndarray, n_gt: int) -> float:
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(~tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


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
    det_idx = [i for i, d in enumerate(dets) if d.class_id == class_id]
    if not det_idx:
        return 0.0
    det_boxes = np.array([dets[i].box.as_array() for i in det_idx])
    det_scores = np.array([dets[i].score for i in det_idx])
    gt_boxes = np.array([g[0].as_array() for g, m in zip(gts, gt_mask) if m])
    tp = _match_detections(
        det_scores,
        det_boxes,
        det_scene[det_idx],
        gt_boxes,
        gt_scene[gt_mask],
        iou_thresh,
    )
    return _ap_from_flags(tp, n_gt)


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

    Returns the report and the flat (scene_id, detection) list that produced
    it, in deterministic order.
    """
    all_dets: list[ScoredBox] = []
    det_scene: list[int] = []
    gts: list[tuple[BBox, int]] = []
    gt_scene: list[int] = []
    classes: set[int] = set()
    for scene in scenes:
        for d in detect(model, scene, nms_iou=nms_iou, score_floor=score_floor):
            all_dets.append(d)
            det_scene.append(scene.scene_id)
        for box, c in zip(scene.gt_boxes, scene.gt_classes):
            gts.append((BBox(*box), int(c)))
            gt_scene.append(scene.scene_id)
            classes.add(int(c))

    det_scene_arr = np.asarray(det_scene, dtype=np.int64)
    gt_scene_arr = np.asarray(gt_scene, dtype=np.int64)
    per_class = {
        c: _class_ap(all_dets, det_scene_arr, gts, gt_scene_arr, c, iou_thresh)
        for c in sorted(classes)
    }
    report = MetricsReport(
        per_class_ap=per_class,
        mean_ap=float(np.mean(list(per_class.values()))),
        corloc=corloc(model, scenes, iou_thresh),
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
