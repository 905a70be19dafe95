"""VOC-criterion metrics over synthetic scenes: per-class AP, mAP, CorLoc.

``evaluate_scenes`` scores each scene once, then makes one NMS call per stack
of scenes that share a proposal count, every class of every stacked scene in
lockstep (see ``nms_indices``); ``detect`` is its one-scene case. Detections
stay columns (scene, class, score, box) from NMS through AP matching; a
``ScoredBox`` is built only when an element is read.

In score order, a detection claims the ground truth of its class and scene that
it overlaps most, when that IoU strictly exceeds the threshold (0.5 by default)
and no earlier detection claimed it. A scene is its position in the evaluated
sequence, so two scenes that share a ``scene_id`` never share ground truths.
AP integrates the full precision-recall curve (all-points area, not the
11-point approximation).
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
    "Detections",
    "DetectionRecords",
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


class Detections(Sequence):
    """Detections kept as columns: each one's scene (a position into
    ``scene_ids``), class id, score and (N, 4) box row. An element is a
    ``ScoredBox``, built when read; the sequence equals the list of them."""

    def __init__(self, scene_ids: Sequence[int], scene: np.ndarray, class_id: np.ndarray, score: np.ndarray,
                 box: np.ndarray) -> None:
        self.scene_ids, self.scene, self.class_id, self.score, self.box = scene_ids, scene, class_id, score, box

    def _element(self, i: int):
        return ScoredBox(BBox(*self.box[i]), float(self.score[i]), int(self.class_id[i]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._element(j) for j in range(len(self))[i]]
        return self._element(i)

    def __len__(self) -> int:
        return self.score.size

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class DetectionRecords(Detections):
    """``Detections`` whose elements are (scene_id, ScoredBox) records."""

    def _element(self, i: int):
        return self.scene_ids[self.scene[i]], super()._element(i)


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
) -> Detections:
    """Per-class NMS-filtered detections from branch-averaged scores, class by
    class: the one-scene case of ``evaluate_scenes``' detection. Pass the
    scene's ``branch_mean_scores`` as ``scores`` to reuse them."""
    mean_scores = branch_mean_scores(model, scene) if scores is None else scores
    return Detections([scene.scene_id], *_detect([scene], [mean_scores], nms_iou, score_floor))


# Bytes of the (S, P+1, P+1) suppression buffer per nms_indices call. On 50
# scenes at P = 150, stacks of 11 scenes already got most of the lockstep gain
# and larger budgets gained nothing more; at P = 2000 one scene exceeds it, so
# such scenes go one per call.
_NMS_BYTES = 2**20


def _detect(scenes: Sequence[Scene], scores: Sequence[np.ndarray], nms_iou: float,
            score_floor: float) -> tuple[np.ndarray, ...]:
    """(scene position, class id, score, box) columns of the scenes' detections,
    scene by scene in input order, class by class, from one ``nms_indices``
    call per stack of scenes that share a proposal count."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for position, mean_scores in enumerate(scores):
        groups.setdefault(mean_scores.shape, []).append(position)
    found = []
    for (_, n), positions in groups.items():
        stacks = -(-len(positions) // max(1, _NMS_BYTES // (n + 1) ** 2))
        for stack in np.array_split(np.array(positions), stacks):
            class_scores = np.stack([scores[p][:-1] for p in stack])
            boxes = np.stack([scenes[p].proposals for p in stack])
            scene, rows, keep = nms_indices(boxes, class_scores, nms_iou, class_scores >= score_floor)
            found.append((stack[scene], rows + 1, class_scores[scene, rows, keep], boxes[scene, keep]))
    position, class_id, score, box = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(position, kind="stable")
    return position[order], class_id[order], score[order], box[order]


def _class_ap(dets: Detections, gts: tuple[np.ndarray, np.ndarray, np.ndarray], iou_thresh: float) -> dict[int, float]:
    """AP of every class that has ground truth, in class order, from the
    detections' columns and (scene, class, box) ground-truth columns."""
    det_scene, det_class, det_score, det_box = dets.scene, dets.class_id, dets.score, dets.box
    gt_scene, gt_class, gt_box = gts
    # Each detection's most-overlapped ground truth of its class and scene (the
    # first of equals) and whether that overlap clears the threshold.
    best = np.zeros(det_score.size, dtype=np.int64)
    hit = np.zeros(det_score.size, dtype=bool)
    for scene in dict.fromkeys(gt_scene.tolist()):
        d = np.flatnonzero(det_scene == scene)
        g = np.flatnonzero(gt_scene == scene)
        overlaps = pairwise_iou(det_box[d], gt_box[g])
        overlaps[det_class[d, None] != gt_class[g]] = -np.inf
        j = overlaps.argmax(axis=1)
        best[d] = g[j]
        hit[d] = overlaps[np.arange(d.size), j] > iou_thresh
    aps = {}
    for c in sorted(set(gt_class.tolist())):
        # Score order, ties in input order.
        idx = np.flatnonzero(det_class == c)
        idx = idx[np.argsort(-det_score[idx], kind="stable")]
        # No claim changes which ground truth a detection overlaps most, so each
        # ground truth goes to its first hit in score order.
        b, h, rank = best[idx], hit[idx], np.arange(idx.size)
        first = np.full(gt_class.size, idx.size)
        np.minimum.at(first, b[h], rank[h])
        tp = h & (first[b] == rank)

        cum_tp = np.cumsum(tp)
        recall = cum_tp / np.count_nonzero(gt_class == c)
        precision = cum_tp / (rank + 1)
        mrec = np.concatenate(([0.0], recall, [1.0]))
        mpre = np.concatenate(([0.0], precision, [0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]  # the precision envelope
        steps = np.flatnonzero(mrec[1:] != mrec[:-1])
        aps[c] = float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))
    return aps


def voc_ap(
    dets: Sequence[ScoredBox],
    gts: Sequence[tuple[BBox, int]],
    class_id: int,
    iou_thresh: float = 0.5,
) -> float:
    """Average precision of one class over a single detection namespace."""
    columns = Detections([0], np.zeros(len(dets), dtype=np.int64), np.array([d.class_id for d in dets], dtype=np.int64),
                         np.array([d.score for d in dets]), np.array([d.box.as_array() for d in dets]).reshape(-1, 4))
    aps = _class_ap(columns, (np.zeros(len(gts), dtype=np.int64), np.array([c for _, c in gts], dtype=np.int64),
                              np.array([b.as_array() for b, _ in gts]).reshape(-1, 4)), iou_thresh)
    if class_id not in aps:
        raise UndefinedAPError(f"no ground truth of class {class_id}")
    return aps[class_id]


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
) -> tuple[MetricsReport, DetectionRecords]:
    """Detect on every scene and compute mAP plus CorLoc over the whole set.
    Each scene is scored once; detection and CorLoc share its scores.

    Returns the report and the (scene_id, detection) records that produced
    it, scene by scene in input order.
    """
    scores = [branch_mean_scores(model, scene) for scene in scenes]
    by_scene = {id(scene): mean_scores for scene, mean_scores in zip(scenes, scores)}
    # CorLoc first: it names an empty scene set before any stacking would.
    corloc_value = corloc(model, scenes, iou_thresh, score_fn=lambda scene: by_scene[id(scene)])
    records = DetectionRecords([scene.scene_id for scene in scenes], *_detect(scenes, scores, nms_iou, score_floor))
    position = np.arange(len(scenes))
    gts = (
        np.repeat(position, [scene.gt_classes.size for scene in scenes]),
        np.concatenate([scene.gt_classes for scene in scenes]),
        np.concatenate([scene.gt_boxes for scene in scenes]).reshape(-1, 4),
    )
    per_class = _class_ap(records, gts, iou_thresh)
    report = MetricsReport(
        per_class_ap=per_class,
        mean_ap=float(np.mean(list(per_class.values()))),
        corloc=corloc_value,
        num_scenes=len(scenes),
        num_detections=len(records),
    )
    return report, records


def dump_detections(records: DetectionRecords) -> str:
    """Line-delimited JSON, one detection per line, deterministic field order."""
    lines = [
        json.dumps(
            {"scene_id": records.scene_ids[p], "class_id": c, "score": s, "x1": x1, "y1": y1, "x2": x2, "y2": y2},
            sort_keys=True,
        )
        for p, c, s, (x1, y1, x2, y2) in zip(
            records.scene.tolist(), records.class_id.tolist(), records.score.tolist(), records.box.tolist()
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")
