"""VOC-criterion metrics over synthetic scenes: per-class AP, mAP, CorLoc.

``evaluate_scenes`` cuts the scenes into one set of stacks of scenes that
share a proposal count. Each stack is scored once, with one matmul of every
head (``_stack_logits``) and the softmax of the refinement branches only; its
scores feed both one argmax for CorLoc's top boxes and one NMS call that runs
every class of every stacked scene in lockstep (see ``nms_indices``).
``detect`` is the one-scene case. Detections stay columns (scene, class,
score, box) from NMS through AP matching; a ``ScoredBox`` is built only when
an element is read. CorLoc's top boxes and every detection are matched
against their own scene's ground truths in one pass over the whole scene set.

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
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import BBox, ScoredBox, nms_indices, pairwise_iou
from .harness import Scene, ToyModel, _stack_logits, forward
from .midn import softmax

__all__ = [
    "UndefinedAPError",
    "MetricsReport",
    "Detections",
    "DetectionRecords",
    "branch_mean_scores",
    "detect",
    "voc_ap",
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
    return Detections([scene.scene_id], *_detections([scene], np.zeros(1, dtype=np.int64),
                                                     np.asarray(mean_scores)[None, :-1], nms_iou, score_floor))


# Bytes of a stack's larger buffer: its (S, R, P) float64 logits or its
# (S, P+1, P+1) suppression bools. On 50 default scenes this gives 2 stacks of
# 25, no slower than 2**19's 3 stacks of about 17; at P = 2000 one scene
# exceeds it, so such scenes go one per stack.
_STACK_BYTES = 2**20


def _scored_stacks(model: ToyModel, scenes: Sequence[Scene]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, (S, C, P) class rows of ``branch_mean_scores``) of each
    stack of scenes that share a feature shape, in order of first appearance,
    from one matmul per stack. A stack's larger buffer fits ``_STACK_BYTES``
    (at least one scene). A non-finite stack names its first non-finite
    scene."""
    c, rows = model.num_classes, model.weights.shape[0]
    groups: dict[tuple[int, ...], list[int]] = {}
    for position, scene in enumerate(scenes):
        groups.setdefault(scene.features.shape, []).append(position)
    for (p, d), positions in groups.items():
        per_stack = max(1, _STACK_BYTES // max(8 * rows * p, (p + 1) ** 2))
        stacks = np.array_split(np.array(positions), -(-len(positions) // per_stack))
        # Zeroed, so that a matmul that fails on shapes leaves no non-finite entry.
        features, logits = np.empty((stacks[0].size, p, d)), np.zeros((stacks[0].size, rows, p))
        for stack in stacks:
            n = stack.size
            np.stack([scenes[i].features for i in stack], out=features[:n])
            try:
                branch_logits = _stack_logits(model, features[:n], logits[:n])
            except ValueError as exc:
                finite = np.isfinite(logits[:n]).all(axis=(1, 2))
                if finite.all():
                    raise
                raise ValueError(f"scene {scenes[stack[finite.argmin()]].scene_id}: {exc}") from exc
            yield stack, np.mean(softmax(branch_logits, axis=2)[:, :, :c], axis=1)


def _detections(scenes: Sequence[Scene], stack: np.ndarray, class_scores: np.ndarray, nms_iou: float,
                score_floor: float) -> tuple[np.ndarray, ...]:
    """(scene position, class id, score, box) columns of a stack's detections,
    scene by scene, class by class, from its (S, C, P) class scores and one
    ``nms_indices`` call."""
    boxes = np.stack([scenes[i].proposals for i in stack])
    scene, rows, keep = nms_indices(boxes, class_scores, nms_iou, class_scores >= score_floor)
    return stack[scene], rows + 1, class_scores[scene, rows, keep], boxes[scene, keep]


def _tops(scenes: Sequence[Scene], stack: np.ndarray, class_scores: np.ndarray) -> tuple[np.ndarray, ...]:
    """(scene position, class id, box) columns of the top-scoring proposal of
    every present class of a stack's scenes, from its (S, C or more, P)
    class scores."""
    present = np.stack([scenes[i].image_label for i in stack]) > 0
    s, c = np.nonzero(present)
    top = class_scores[:, : present.shape[1]].argmax(axis=2)
    return stack[s], c + 1, np.stack([scenes[i].proposals for i in stack])[s, top[s, c]]


def _gt_columns(scenes: Sequence[Scene]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scene position, class, box) columns of the scenes' ground truths."""
    return (np.repeat(np.arange(len(scenes)), [scene.gt_classes.size for scene in scenes]),
            np.concatenate([scene.gt_classes for scene in scenes]),
            np.concatenate([scene.gt_boxes for scene in scenes]).reshape(-1, 4))


def _best_match(scene: np.ndarray, class_id: np.ndarray, box: np.ndarray,
                gts: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """For each (scene, class, box) query, the ground truth of its scene and
    class that it overlaps most (the first of equals), as a position in
    ``gts``, and that overlap; -inf (and position 0) where there is none."""
    gt_scene, gt_class, gt_box = gts
    # Keys number the (scene position, class) pairs densely. The ground truths
    # of one pair are one run of the stably sorted keys, walked slot by slot.
    class0 = min(class_id.min(initial=0), gt_class.min(initial=0))
    span = max(class_id.max(initial=0), gt_class.max(initial=0)) - class0 + 1
    gt_key = gt_scene * span + (gt_class - class0)
    key = scene * span + (class_id - class0)
    runs = np.bincount(gt_key, minlength=key.max(initial=0) + 1)
    start, size = (np.cumsum(runs) - runs)[key], runs[key]
    order = np.argsort(gt_key, kind="stable")
    best, overlap = np.zeros(key.size, dtype=np.int64), np.full(key.size, -np.inf)
    for slot in range(int(size.max(initial=0))):
        q = np.flatnonzero(size > slot)
        g = order[start[q] + slot]
        iou = pairwise_iou(box[q][:, None], gt_box[g][:, None])[:, 0, 0]
        better = iou > overlap[q]
        best[q[better]], overlap[q[better]] = g[better], iou[better]
    return best, overlap


def _class_ap(dets: Detections, gts: tuple[np.ndarray, np.ndarray, np.ndarray], iou_thresh: float) -> dict[int, float]:
    """AP of every class that has ground truth, in class order, from the
    detections' columns and (scene, class, box) ground-truth columns."""
    det_class, det_score, gt_class = dets.class_id, dets.score, gts[1]
    # Each detection's most-overlapped ground truth of its class and scene and
    # whether that overlap clears the threshold.
    best, overlap = _best_match(dets.scene, det_class, dets.box, gts)
    hit = overlap > iou_thresh
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
        stacks = _scored_stacks(model, scenes)
    else:
        stacks = ((np.array([i]), np.asarray(score_fn(scene), dtype=np.float64)[None])
                  for i, scene in enumerate(scenes))
    return _corloc(scenes, [_tops(scenes, stack, scores) for stack, scores in stacks], iou_thresh)


def _corloc(scenes: Sequence[Scene], tops: Sequence[tuple[np.ndarray, ...]], iou_thresh: float) -> float:
    """CorLoc of the scenes from ``_tops`` columns that cover them, in one
    matching pass over the whole set."""
    columns = [np.concatenate(column) for column in zip(*tops)]
    if not columns or columns[0].size == 0:
        raise ValueError("no (scene, present class) pairs to evaluate")
    scene, class_id, box = columns
    _, overlap = _best_match(scene, class_id, box, _gt_columns(scenes))
    return int(np.count_nonzero(overlap > iou_thresh)) / scene.size


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
    Each scene is scored once, in a stack of scenes; that stack's scores feed
    both its CorLoc top boxes and its NMS call.

    Returns the report and the (scene_id, detection) records that produced
    it, scene by scene in input order.
    """
    stacks = list(_scored_stacks(model, scenes))
    # CorLoc first: it names an empty scene set before any NMS runs.
    corloc_value = _corloc(scenes, [_tops(scenes, stack, scores) for stack, scores in stacks], iou_thresh)
    position, class_id, score, box = (np.concatenate(column) for column in zip(
        *(_detections(scenes, stack, scores, nms_iou, score_floor) for stack, scores in stacks)))
    order = np.argsort(position, kind="stable")
    records = DetectionRecords([scene.scene_id for scene in scenes], position[order], class_id[order], score[order],
                               box[order])
    per_class = _class_ap(records, _gt_columns(scenes), iou_thresh)
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
