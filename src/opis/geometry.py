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


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    return float(pairwise_iou(a.as_array(), b.as_array())[0, 0])


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


# IoUs per pairwise_iou call while nms_indices fills its suppression matrix.
# Blocks this size keep the float temporaries in cache, which measured faster
# than one P x P call at P = 150 to 2000, and memory near the P² bytes kept.
_IOU_BLOCK = 2**14


def nms_indices(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float,
    candidates: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Greedy NMS; returns kept indices in descending-score order.

    ``scores`` is (P,) for one class, or (C, P) for C classes over the same P
    boxes, each row its own greedy pass. ``candidates``, shaped like
    ``scores``, marks the boxes a row may keep or suppress with (default: all).
    Ties in score keep the lower index first. A candidate is suppressed only
    when its IoU with a box its row kept strictly exceeds the threshold. A
    (C, P) call returns the (rows, indices) of the kept boxes, row by row.

    The rows advance in lockstep over one (P, P) suppression matrix of P²
    bytes, filled in row blocks of about 16k IoUs; the greedy steps are as
    many as the most boxes one row keeps.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    stacked = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    num_rows, n = stacked.shape
    rows = np.arange(num_rows)
    # key[r, i] is box i's place in row r's greedy order, or n once it is out.
    key = np.empty((num_rows, n), dtype=np.int64)
    key[rows[:, None], np.argsort(-stacked, axis=1, kind="stable")] = np.arange(n)
    if candidates is not None:
        key[~np.asarray(candidates, dtype=bool).reshape(key.shape)] = n
    suppress = np.empty((n, n), dtype=bool)
    block = max(1, _IOU_BLOCK // max(n, 1))
    for lo in range(0, n, block):
        # IoU is symmetric bit for bit, so each row block also fills its mirror.
        hi = lo + block
        np.greater(pairwise_iou(boxes[lo:hi], boxes[lo:]), iou_threshold, out=suppress[lo:hi, lo:])
        suppress[hi:, lo:hi] = suppress[lo:hi, hi:].T
    np.fill_diagonal(suppress, True)  # a kept box leaves its row's candidates
    picks: list[np.ndarray] = []
    ranks: list[np.ndarray] = []
    for _ in range(n):
        best = key.argmin(axis=1)
        rank = key[rows, best]
        if rank.min(initial=n) == n:
            break
        picks.append(best)
        ranks.append(rank)
        np.putmask(key, suppress[best], n)  # rows already done stay at n
    shape = (len(picks), num_rows)
    live = np.array(ranks, dtype=np.int64).reshape(shape) < n
    taken = np.where(live, np.array(picks, dtype=np.int64).reshape(shape), -1).T
    kept = taken[taken >= 0]
    return kept if np.ndim(scores) == 1 else (np.nonzero(taken >= 0)[0], kept)


def nms(dets: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Per-class greedy non-maximum suppression.

    Keeps the highest-scoring box of every overlap group; two kept boxes of the
    same class never exceed the IoU threshold. Output is sorted by descending
    score (ties by input position); the input sequence is not mutated.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    classes = np.array(sorted({d.class_id for d in dets}), dtype=np.int64)
    det_class = np.array([d.class_id for d in dets], dtype=np.int64)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    boxes = np.array([d.box.as_array() for d in dets]).reshape(-1, 4)
    _, kept = nms_indices(boxes, np.broadcast_to(scores, (classes.size, scores.size)), iou_threshold,
                          det_class == classes[:, None])
    return [dets[i] for i in sorted(kept.tolist(), key=lambda i: (-dets[i].score, i))]
