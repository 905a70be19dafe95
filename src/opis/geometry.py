"""Axis-aligned box arithmetic shared by supervision, sampling, and evaluation.

Boxes are (x1, y1, x2, y2) corner tuples in continuous scene units; areas are
computed as (x2 - x1) * (y2 - y1) with no pixel offset. Everything here is a
pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

__all__ = ["BBox", "ScoredBox", "iou", "pairwise_iou", "nms", "nms_indices"]


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned rectangle with strictly positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not isfinite(v):
                raise ValueError(f"box coordinates must be finite, got {self!r}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"box must have positive width and height, got {self!r}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class ScoredBox:
    """A detection: box, confidence in [0, 1], and 1-based class id."""

    box: BBox
    score: float
    class_id: int

    def __post_init__(self) -> None:
        if not (isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be finite and in [0, 1], got {self.score}")
        if self.class_id < 1:
            raise ValueError(f"class_id must be a positive integer, got {self.class_id}")


def _check_box(b: BBox) -> None:
    if not (b.x2 > b.x1 and b.y2 > b.y1):
        raise ValueError(f"degenerate box {b!r}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    _check_box(a)
    _check_box(b)
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def pairwise_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """IoU matrix between two (N, 4) / (M, 4) box arrays, shape (N, M).

    Rows must already satisfy x2 > x1 and y2 > y1. Entry (i, j) is bitwise
    the same as entry (j, i) of the swapped call; the loops run along M, so
    put the longer set second.
    """
    # Coordinate-major: a is (4, N, 1), b is (4, 1, M) with M contiguous.
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    b = np.ascontiguousarray(np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4).T)[:, None, :]
    extent = np.minimum(a[2:], b[2:]) - np.maximum(a[:2], b[:2])  # (2, N, M) overlap width, height
    # x - x is +0.0, so clamping with maximum keeps the sign of every zero.
    np.maximum(extent, 0.0, out=extent)
    inter = np.multiply(extent[0], extent[1])
    size_a = a[2:] - a[:2]
    size_b = b[2:] - b[:2]
    union = size_a[0] * size_a[1] + size_b[0] * size_b[1] - inter
    return np.divide(inter, union, out=inter)


def nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy NMS over one class; returns kept indices in descending-score order.

    Ties in score keep the lower input index first. A candidate is suppressed
    only when its IoU with a kept box strictly exceeds the threshold.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(-scores, kind="stable")
    kept: list[int] = []
    while order.size:
        i = int(order[0])
        kept.append(i)
        if order.size == 1:
            break
        rest = order[1:]
        overlap = pairwise_iou(boxes[i : i + 1], boxes[rest])[0]
        order = rest[overlap <= iou_threshold]
    return np.asarray(kept, dtype=np.int64)


def nms(dets: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Per-class greedy non-maximum suppression.

    Keeps the highest-scoring box of every overlap group; two kept boxes of the
    same class never exceed the IoU threshold. Output is sorted by descending
    score (ties by input position); the input sequence is not mutated.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[int] = []
    for i in order:
        d = dets[i]
        if all(
            iou(d.box, dets[j].box) <= iou_threshold
            for j in kept
            if dets[j].class_id == d.class_id
        ):
            kept.append(i)
    return [dets[i] for i in kept]
