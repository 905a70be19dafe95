"""Label assignment against a brute-force reference that loops over every
(proposal, center) pair and applies the three-way rule directly."""

import numpy as np
import pytest

from opis.geometry import BBox, iou
from opis.midn import softmax_over_classes
from opis.supervision import assign_labels, select_cluster_centers


def random_boxes(rng, n, span=100.0):
    x1 = rng.uniform(0, span * 0.8, size=n)
    y1 = rng.uniform(0, span * 0.8, size=n)
    w = rng.uniform(2.0, span * 0.4, size=n)
    h = rng.uniform(2.0, span * 0.4, size=n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def brute_force_assign(centers, boxes, phi_prev, lam_ig, lam_ng):
    """Independent reference: per-proposal scan over all centers."""
    num_classes = phi_prev.shape[0] - 1
    out = []
    for r in range(boxes.shape[0]):
        best_iou, best_class = -1.0, 0
        for c in sorted(centers):
            cb = boxes[centers[c]]
            v = iou(BBox(*boxes[r]), BBox(*cb))
            if v > best_iou:
                best_iou, best_class = v, c
        if best_iou >= lam_ng:
            status, weight = best_class, phi_prev[best_class - 1, centers[best_class]]
        elif best_iou <= lam_ig:
            status, weight = 0, 0.0
        else:
            status, weight = num_classes + 1, phi_prev[best_class - 1, centers[best_class]]
        out.append((status, best_iou, best_class, weight))
    return out


class TestSelectClusterCenters:
    def test_argmax(self):
        phi = np.zeros((3, 3))
        phi[0] = [0.1, 0.9, 0.3]
        centers = select_cluster_centers(phi, np.array([1, 0]))
        assert centers == {1: 1}

    def test_tie_takes_lowest_index(self):
        phi = np.zeros((2, 2))
        phi[0] = [0.5, 0.5]
        assert select_cluster_centers(phi, np.array([1]))[1] == 0

    def test_two_classes_independent(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(size=(4, 10))
        centers = select_cluster_centers(phi, np.array([1, 0, 1]))
        assert set(centers) == {1, 3}
        for c, idx in centers.items():
            assert idx == max(range(10), key=lambda r: (phi[c - 1, r], -r))

    def test_requires_positive_class(self):
        with pytest.raises(ValueError):
            select_cluster_centers(np.zeros((2, 3)), np.array([0]))

    def test_requires_proposals(self):
        with pytest.raises(ValueError):
            select_cluster_centers(np.zeros((2, 0)), np.array([1]))


class TestAssignLabels:
    def _setup(self, rng, n_proposals=20, classes=(1, 3), num_classes=4):
        boxes = random_boxes(rng, n_proposals)
        phi_prev = softmax_over_classes(rng.normal(size=(num_classes + 1, n_proposals)))
        label = np.zeros(num_classes, dtype=np.int8)
        for c in classes:
            label[c - 1] = 1
        centers = select_cluster_centers(phi_prev, label)
        return boxes, phi_prev, centers

    def test_center_is_positive_with_unit_iou(self):
        rng = np.random.default_rng(2)
        boxes, phi_prev, centers = self._setup(rng)
        targets, assignment = assign_labels(centers, boxes, phi_prev, 0.1, 0.5)
        for c, idx in centers.items():
            assert targets.max_iou[idx] == 1.0
            assert targets.assigned_class[idx] in centers  # positive for some present class

    def test_far_proposal_is_ignored(self):
        centers = {1: 0}
        boxes = np.array([[0.0, 0.0, 2.0, 2.0], [50.0, 50.0, 52.0, 52.0]])
        phi_prev = np.array([[0.7, 0.1], [0.0, 0.0]])
        targets, _ = assign_labels(centers, boxes, phi_prev, 0.1, 0.5)
        assert targets.assigned_class[1] == 0
        assert targets.weight[1] == 0.0
        assert not targets.selected[1]

    def test_identical_proposal_is_positive_with_center_score(self):
        centers = {1: 0}
        boxes = np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 2.0, 2.0]])
        phi_prev = np.array([[0.7, 0.1], [0.0, 0.0]])
        targets, _ = assign_labels(centers, boxes, phi_prev, 0.1, 0.5)
        assert targets.assigned_class[1] == 1
        assert targets.max_iou[1] == 1.0
        assert targets.weight[1] == 0.7

    def test_threshold_order_validation(self):
        with pytest.raises(ValueError):
            assign_labels({1: 0}, np.array([[0, 0, 1, 1]]), np.zeros((2, 1)), 0.5, 0.1)

    def test_empty_proposals_rejected(self):
        with pytest.raises(ValueError):
            assign_labels({1: 0}, np.zeros((0, 4)), np.zeros((2, 0)), 0.1, 0.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lam_ig = float(rng.uniform(0.0, 0.3))
            lam_ng = float(rng.uniform(lam_ig + 0.05, 0.9))
            boxes, phi_prev, centers = self._setup(rng, n_proposals=int(rng.integers(3, 30)))
            targets, assignment = assign_labels(centers, boxes, phi_prev, lam_ig, lam_ng)
            expected = brute_force_assign(centers, boxes, phi_prev, lam_ig, lam_ng)
            for r, (status, best_iou, best_class, weight) in enumerate(expected):
                assert targets.assigned_class[r] == status
                assert targets.max_iou[r] == pytest.approx(best_iou, abs=1e-12)
                assert targets.source_class[r] == best_class
                assert targets.weight[r] == weight  # bitwise

    def test_partition_covers_all_proposals(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            boxes, phi_prev, centers = self._setup(rng, n_proposals=40)
            targets, assignment = assign_labels(centers, boxes, phi_prev, 0.1, 0.5)
            n_pos = int(np.count_nonzero((targets.assigned_class >= 1) & (targets.assigned_class <= 4)))
            n_neg = int(np.count_nonzero(targets.assigned_class == 5))
            n_ign = int(np.count_nonzero(targets.assigned_class == 0))
            assert n_pos + n_neg + n_ign == 40
            # per-class sets partition the labeled proposals
            all_pos = np.concatenate([assignment.positives[c] for c in centers])
            all_neg = np.concatenate([assignment.negatives[c] for c in centers])
            assert len(set(all_pos)) == len(all_pos) == n_pos
            assert len(set(all_neg)) == len(all_neg) == n_neg
            assert not set(all_pos) & set(all_neg)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            boxes, phi_prev, centers = self._setup(rng, n_proposals=30)
            t_low, _ = assign_labels(centers, boxes, phi_prev, 0.1, 0.4)
            t_high, _ = assign_labels(centers, boxes, phi_prev, 0.1, 0.6)
            n_pos_low = np.count_nonzero((t_low.assigned_class >= 1) & (t_low.assigned_class <= 4))
            n_pos_high = np.count_nonzero((t_high.assigned_class >= 1) & (t_high.assigned_class <= 4))
            assert n_pos_high <= n_pos_low
            t_ig_low, _ = assign_labels(centers, boxes, phi_prev, 0.05, 0.5)
            t_ig_high, _ = assign_labels(centers, boxes, phi_prev, 0.2, 0.5)
            assert np.count_nonzero(t_ig_low.assigned_class == 0) <= np.count_nonzero(t_ig_high.assigned_class == 0)

