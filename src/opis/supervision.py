"""Per-branch supervision: cluster centers, IoU label assignment, base weights.

Class ids are 1-based throughout (background is C+1); proposal indices are
0-based positions into the scene's proposal array. Row c-1 of a score matrix
holds class c. The array-native core works on a stack of K branches at once:
score matrices are (K, C+1, P) and per-proposal arrays (K, P); the
single-branch functions are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geometry import pairwise_iou

__all__ = [
    "SupervisionTargets",
    "ClusterAssignment",
    "cluster_center_indices",
    "select_cluster_centers",
    "assign_branches",
    "assign_labels",
]


@dataclass
class SupervisionTargets:
    """Per-proposal supervision for one refinement branch, or a stack of them.

    Every array is (P,) for one branch or (K, P) for a scene's K branches.
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
        return self.assigned_class.shape[-1]

    def branch(self, k: int | slice) -> "SupervisionTargets":
        """Row ``k`` of a stack, or the stack of rows in a slice, as views."""
        return SupervisionTargets(self.assigned_class[k], self.max_iou[k], self.source_class[k],
                                  self.weight[k], self.selected[k], self.num_classes)

    def as_stack(self) -> "SupervisionTargets":
        """One branch as a stack of one, as views."""
        return SupervisionTargets(self.assigned_class[None], self.max_iou[None], self.source_class[None],
                                  self.weight[None], self.selected[None], self.num_classes)

    @classmethod
    def concat(cls, stacks: Sequence["SupervisionTargets"]) -> "SupervisionTargets":
        """Stacks joined along the branch axis; one stack comes back as is."""
        if len(stacks) == 1:
            return stacks[0]
        names = ("assigned_class", "max_iou", "source_class", "weight", "selected")
        return cls(*[np.concatenate([getattr(t, name) for t in stacks]) for name in names],
                   num_classes=stacks[0].num_classes)

    def with_weight(self, weight: np.ndarray, selected: np.ndarray | None = None) -> "SupervisionTargets":
        """The same labels with a new weight (and selection mask)."""
        return SupervisionTargets(self.assigned_class, self.max_iou, self.source_class, weight,
                                  self.selected if selected is None else selected, self.num_classes)

    def positive_mask(self) -> np.ndarray:
        return (self.assigned_class >= 1) & (self.assigned_class <= self.num_classes)


@dataclass
class ClusterAssignment:
    """Per-class partition induced by the cluster centers.

    ``centers`` maps class id to the center's proposal index; ``positives`` and
    ``negatives`` hold the index sets sourced from that class's center.
    """

    centers: dict[int, int]
    positives: dict[int, np.ndarray]
    negatives: dict[int, np.ndarray]


def cluster_center_indices(phi_prev: np.ndarray, image_label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Present classes (ascending) and the top-scoring proposal of each.

    ``phi_prev`` is (C+1, P) or a (K, C+1, P) stack; the centers are (n,) or
    (K, n) for n present classes. Score ties pick the lowest index.
    """
    phi = np.asarray(phi_prev, dtype=np.float64)
    if phi.ndim not in (2, 3) or phi.shape[-1] < 1:
        raise ValueError("phi_prev must be a matrix (or a stack of them) with at least one proposal column")
    present = (np.asarray(image_label) > 0).nonzero()[0]
    if present.size == 0:
        raise ValueError("image label has no positive class")
    return present + 1, phi[..., present, :].argmax(axis=-1)


def select_cluster_centers(phi_prev: np.ndarray, image_label: np.ndarray) -> dict[int, int]:
    """Top-scoring proposal per present class; score ties pick the lowest index."""
    if np.ndim(phi_prev) != 2:
        raise ValueError("phi_prev must be a matrix with at least one proposal column")
    classes, centers = cluster_center_indices(phi_prev, image_label)
    return dict(zip(classes.tolist(), centers.tolist()))


def assign_branches(
    classes: np.ndarray,
    centers: np.ndarray,
    boxes: np.ndarray,
    phi_prev: np.ndarray,
    lambda_ig: float,
    lambda_ng: float,
) -> SupervisionTargets:
    """Three-way label assignment of K branches against their cluster centers.

    ``classes`` (n,) ascending, ``centers`` (K, n) proposal indices, ``boxes``
    (P, 4), ``phi_prev`` (K, C+1, P); returns (K, P) targets. One IoU matrix
    against the distinct center proposals of all branches serves every branch.
    A proposal is positive for the source class when its highest center IoU is
    >= lambda_ng, ignored when <= lambda_ig, and background otherwise; equal
    IoUs resolve to the lower class. Labeled proposals inherit the source
    center's previous-branch score as weight.
    """
    num_branches, num_classes = phi_prev.shape[0], phi_prev.shape[1] - 1
    # A mask, not np.unique: the first np.unique call in a process raises its
    # peak RSS by about 1 MB.
    is_center = np.zeros(boxes.shape[0], dtype=bool)
    is_center[centers] = True
    distinct = is_center.nonzero()[0]
    overlaps = pairwise_iou(boxes[distinct], boxes)  # (m, P)
    per_class = overlaps[np.searchsorted(distinct, centers)]  # (K, n, P)
    # First occurrence of the maximum: equal IoUs resolve to the lower class.
    best = per_class.argmax(axis=1)
    max_iou = per_class.max(axis=1)
    source = classes[best]

    positive = max_iou >= lambda_ng
    ignored = max_iou <= lambda_ig
    negative = ~(positive | ignored)

    rows = np.arange(num_branches)[:, None]
    center_scores = phi_prev[rows, classes - 1, centers]  # (K, n)
    weight = np.where(ignored, 0.0, center_scores[rows, best])
    assigned = np.where(positive, source, np.where(negative, num_classes + 1, 0))
    return SupervisionTargets(
        assigned_class=assigned,
        max_iou=max_iou,
        source_class=source,
        weight=weight,
        selected=positive | negative,
        num_classes=num_classes,
    )


def assign_labels(
    centers: Mapping[int, int],
    proposals: np.ndarray,
    phi_prev: np.ndarray,
    lambda_ig: float,
    lambda_ng: float,
) -> tuple[SupervisionTargets, ClusterAssignment]:
    """Three-way label assignment of one branch's (P, 4) proposal array, plus
    the per-class partition it induces; see ``assign_branches``."""
    if not (0.0 <= lambda_ig < lambda_ng <= 1.0):
        raise ValueError(f"thresholds must satisfy 0 <= lambda_ig < lambda_ng <= 1, got ({lambda_ig}, {lambda_ng})")
    if not centers:
        raise ValueError("at least one cluster center is required")
    boxes = proposals.reshape(-1, 4).astype(np.float64, copy=False)
    if boxes.shape[0] == 0:
        raise ValueError("empty proposal set")
    phi = np.asarray(phi_prev, dtype=np.float64)

    classes = np.array(sorted(centers), dtype=np.int64)
    center_idx = np.array([centers[int(c)] for c in classes], dtype=np.int64)
    targets = assign_branches(classes, center_idx[None], boxes, phi[None], lambda_ig, lambda_ng).branch(0)
    negative = targets.assigned_class == targets.num_classes + 1
    assignment = ClusterAssignment(
        centers={int(c): int(i) for c, i in zip(classes, center_idx)},
        positives={int(c): np.flatnonzero(targets.assigned_class == c) for c in classes},
        negatives={int(c): np.flatnonzero(negative & (targets.source_class == c)) for c in classes},
    )
    return targets, assignment
