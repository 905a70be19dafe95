"""Per-branch supervision: cluster centers, IoU label assignment, base weights.

Class ids are 1-based throughout (background is C+1); proposal indices are
0-based positions into the scene's proposal array. Row c-1 of a score matrix
holds class c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geometry import BBox, iou, pairwise_iou

__all__ = [
    "SupervisionTargets",
    "ClusterAssignment",
    "select_cluster_centers",
    "max_iou_source",
    "assign_labels",
]


@dataclass
class SupervisionTargets:
    """Per-proposal supervision for one refinement branch.

    ``assigned_class`` is 1..C for positives, C+1 for negatives, and 0 for
    ignored proposals. ``max_iou`` is the highest IoU to any cluster center and
    ``source_class`` the class of the center attaining it. ``weight`` carries
    the loss weight (0 for ignored or deselected proposals) and ``selected``
    the sampling mask.
    """

    assigned_class: np.ndarray
    max_iou: np.ndarray
    source_class: np.ndarray
    weight: np.ndarray
    selected: np.ndarray
    num_classes: int

    @property
    def num_proposals(self) -> int:
        return self.assigned_class.shape[0]

    def one_hot_labels(self) -> np.ndarray:
        """(C+1, P) one-hot label matrix; ignored proposals get all-zero columns."""
        p = self.num_proposals
        y = np.zeros((self.num_classes + 1, p))
        labeled = np.flatnonzero(self.assigned_class > 0)
        y[self.assigned_class[labeled] - 1, labeled] = 1.0
        return y


@dataclass
class ClusterAssignment:
    """Per-class partition induced by the cluster centers.

    ``centers`` maps class id to the center's proposal index; ``positives`` and
    ``negatives`` hold the index sets sourced from that class's center.
    """

    centers: dict[int, int]
    positives: dict[int, np.ndarray]
    negatives: dict[int, np.ndarray]


def select_cluster_centers(phi_prev: np.ndarray, image_label: np.ndarray) -> dict[int, int]:
    """Top-scoring proposal per present class; score ties pick the lowest index."""
    phi = np.asarray(phi_prev, dtype=np.float64)
    label = np.asarray(image_label)
    if phi.ndim != 2 or phi.shape[1] < 1:
        raise ValueError("phi_prev must be a matrix with at least one proposal column")
    present = np.flatnonzero(label > 0)
    if present.size == 0:
        raise ValueError("image label has no positive class")
    return {int(c) + 1: int(np.argmax(phi[c])) for c in present}


def max_iou_source(proposal: BBox, center_boxes: Mapping[int, BBox]) -> tuple[float, int]:
    """Highest IoU of a proposal to any center, with the attaining class.

    Equal IoUs resolve to the lower class id.
    """
    if not center_boxes:
        raise ValueError("at least one cluster center is required")
    best_iou = -1.0
    best_class = 0
    for c in sorted(center_boxes):
        v = iou(proposal, center_boxes[c])
        if v > best_iou:
            best_iou = v
            best_class = c
    return best_iou, best_class


def _proposal_array(proposals: Sequence[BBox] | np.ndarray) -> np.ndarray:
    if isinstance(proposals, np.ndarray):
        return proposals.reshape(-1, 4).astype(np.float64, copy=False)
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in proposals], dtype=np.float64)


def assign_labels(
    centers: Mapping[int, int],
    proposals: Sequence[BBox] | np.ndarray,
    phi_prev: np.ndarray,
    lambda_ig: float,
    lambda_ng: float,
) -> tuple[SupervisionTargets, ClusterAssignment]:
    """Three-way label assignment against the cluster centers.

    A proposal is positive for the source class when its highest center IoU is
    >= lambda_ng, ignored when <= lambda_ig, and background otherwise. Labeled
    proposals inherit the source center's previous-branch score as weight.
    """
    if not (0.0 <= lambda_ig < lambda_ng <= 1.0):
        raise ValueError(f"thresholds must satisfy 0 <= lambda_ig < lambda_ng <= 1, got ({lambda_ig}, {lambda_ng})")
    if not centers:
        raise ValueError("at least one cluster center is required")
    boxes = _proposal_array(proposals)
    if boxes.shape[0] == 0:
        raise ValueError("empty proposal set")
    phi = np.asarray(phi_prev, dtype=np.float64)
    num_classes = phi.shape[0] - 1

    classes = np.array(sorted(centers), dtype=np.int64)
    center_idx = np.array([centers[int(c)] for c in classes], dtype=np.int64)
    overlaps = pairwise_iou(boxes, boxes[center_idx])
    # First occurrence of the row maximum: equal IoUs resolve to the lower class.
    best = overlaps.argmax(axis=1)
    max_iou_vals = overlaps[np.arange(boxes.shape[0]), best]
    source = classes[best]

    positive = max_iou_vals >= lambda_ng
    ignored = max_iou_vals <= lambda_ig
    negative = ~(positive | ignored)

    center_scores = phi[classes - 1, center_idx]
    weight = np.where(ignored, 0.0, center_scores[best])
    assigned = np.zeros(boxes.shape[0], dtype=np.int64)
    assigned[positive] = source[positive]
    assigned[negative] = num_classes + 1

    targets = SupervisionTargets(
        assigned_class=assigned,
        max_iou=max_iou_vals,
        source_class=source,
        weight=weight,
        selected=positive | negative,
        num_classes=num_classes,
    )
    assignment = ClusterAssignment(
        centers={int(c): int(i) for c, i in zip(classes, center_idx)},
        positives={int(c): np.flatnonzero(positive & (source == c)) for c in classes},
        negatives={int(c): np.flatnonzero(negative & (source == c)) for c in classes},
    )
    return targets, assignment
