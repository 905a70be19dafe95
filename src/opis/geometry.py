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
    """IoU matrix between two (N, 4) / (M, 4) box arrays, shape (N, M), or
    between stacks of them, (..., N, 4) / (..., M, 4) to (..., N, M).

    Rows must already satisfy x2 > x1 and y2 > y1. Entry (i, j) is bitwise
    the same as entry (j, i) of the swapped call; the loops run along M, so
    put the longer set second.
    """
    a = np.asarray(boxes_a, dtype=np.float64)
    b = np.asarray(boxes_b, dtype=np.float64)
    # Coordinate columns of a, (..., N, 1), against contiguous rows of b, (..., 1, M).
    a = a.reshape(a.shape[:-2] + (-1, 4))[..., None]
    b = np.ascontiguousarray(b.reshape(b.shape[:-2] + (-1, 4)).swapaxes(-1, -2))
    ax1, ay1, ax2, ay2 = a[..., 0, :], a[..., 1, :], a[..., 2, :], a[..., 3, :]
    bx1, by1, bx2, by2 = b[..., 0:1, :], b[..., 1:2, :], b[..., 2:3, :], b[..., 3:4, :]
    # Per-coordinate (N, M) buffers updated in place stay in cache where the
    # (2, N, M) temporaries of one broadcast did not; the IEEE operations and
    # their order are the same, so every entry is too.
    w = np.minimum(ax2, bx2)
    w -= np.maximum(ax1, bx1)
    # x - x is +0.0, so clamping with maximum keeps the sign of every zero.
    np.maximum(w, 0.0, out=w)
    h = np.minimum(ay2, by2)
    h -= np.maximum(ay1, by1)
    np.maximum(h, 0.0, out=h)
    w *= h  # the intersection
    np.add((ax2 - ax1) * (ay2 - ay1), (bx2 - bx1) * (by2 - by1), out=h)
    h -= w  # the union
    return np.divide(w, h, out=w)


# IoUs per pairwise_iou call while nms_indices fills its suppression buffer.
# Strips this size keep the float temporaries in cache: they measured as fast
# as or faster than 2**14 and 2**16 at P = 150 (25 scenes), 600 and 2000, and
# keep memory near the S·P² bytes kept.
_IOU_BLOCK = 2**15


def nms_indices(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float,
    candidates: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Greedy NMS; returns kept indices in descending-score order.

    ``scores`` is (P,) for one class of (P, 4) ``boxes``, (C, P) for C classes
    over the same boxes, or (S, C, P) for S scenes of (S, P, 4) boxes; each
    row is its own greedy pass. ``candidates``, shaped like ``scores``, marks
    the boxes a row may keep or suppress with (default: all). Ties in score
    keep the lower index first. A candidate is suppressed only when its IoU
    with a box its row kept strictly exceeds the threshold. A (C, P) call
    returns the (rows, indices) of the kept boxes, row by row; an (S, C, P)
    call returns (scenes, rows, indices), scene by scene, each scene's as its
    own (C, P) call would.

    All S·C rows advance in lockstep over one (S, P, P) suppression buffer of
    S·P² bytes, filled in strips of rows across the scenes of about 32k IoUs
    each; the greedy steps are as many as the most boxes one row keeps.
    """
    stacked = np.asarray(scores, dtype=np.float64)
    stacked = stacked.reshape((1,) * (3 - stacked.ndim) + stacked.shape)
    num_scenes, num_classes, n = stacked.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(num_scenes, n, 4)
    num_rows = num_scenes * num_classes
    # key[r, i] is box i's place in row r's greedy order, or n + 1 once it is
    # out. Column n is each row's last resort: argmin reaches it, at key n,
    # only when the row has no candidate left.
    key = np.empty((num_rows, n + 1), dtype=np.int64)
    rows = np.arange(num_rows)[:, None]
    key[rows, np.argsort(-stacked.reshape(num_rows, n), axis=1, kind="stable")] = np.arange(n)
    key[:, n] = n
    if candidates is not None:
        key[:, :n][~np.asarray(candidates, dtype=bool).reshape(num_rows, n)] = n + 1
    # suppress[s, i] marks the boxes of scene s that kept box i takes out of
    # its row, itself included; row and column n stay clear.
    suppress = np.zeros((num_scenes, n + 1, n + 1), dtype=bool)
    # Strips of rows of every scene at once, each against its columns from the
    # strip's first row on: IoU is symmetric bit for bit, so each strip also
    # fills its mirror, and below the strips' diagonal blocks nothing is computed.
    block = max(1, _IOU_BLOCK // max(num_scenes * n, 1))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        np.greater(pairwise_iou(boxes[:, lo:hi], boxes[:, lo:]), iou_threshold, out=suppress[:, lo:hi, lo:n])
        suppress[:, hi:n, lo:hi] = suppress[:, lo:hi, hi:n].transpose(0, 2, 1)
    suppress[:, np.arange(n), np.arange(n)] = True
    # Row r reads its suppressions from row offset[r] + best of the flat buffer.
    flat = suppress.reshape(-1, n + 1)
    offset = np.repeat(np.arange(num_scenes) * (n + 1), num_classes)
    picks: list[np.ndarray] = []
    for _ in range(n):
        best = key.argmin(axis=1)
        if n == best.min(initial=n):  # every row is done
            break
        picks.append(best)
        np.putmask(key, flat.take(offset + best, axis=0), n + 1)  # rows already done stay put
    taken = np.array(picks, dtype=np.int64).reshape(len(picks), num_rows).T
    row, step = np.nonzero(taken < n)
    kept = taken[row, step]
    if np.ndim(scores) == 1:
        return kept
    if np.ndim(scores) == 2:
        return row, kept
    return row // num_classes, row % num_classes, kept


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
