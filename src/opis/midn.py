"""Dual-softmax instance scoring and the image-level classification loss.

Score matrices are laid out class-by-proposal: row c-1 holds class c, and the
background class C+1 is the last row of any (C+1, P) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCORE_EPS",
    "ScoreSet",
    "softmax",
    "softmax_over_classes",
    "softmax_over_instances",
    "compose_instance_scores",
    "image_scores",
    "midn_loss",
    "midn_loss_grad",
]

# Clamp applied to image-level scores before taking logs.
SCORE_EPS = 1e-7


def _as_finite_matrix(x: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def softmax(logits: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along ``axis`` of an array already known to be finite."""
    e = logits - logits.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e if out is None else out)


def softmax_over_classes(logits: np.ndarray) -> np.ndarray:
    """Column-wise softmax: each proposal's scores sum to 1 across classes."""
    return softmax(_as_finite_matrix(logits, "logits"), axis=0)


def softmax_over_instances(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax: each class's scores sum to 1 across proposals."""
    return softmax(_as_finite_matrix(logits, "logits"), axis=1)


def compose_instance_scores(class_probs: np.ndarray, det_probs: np.ndarray) -> np.ndarray:
    """Element-wise product of the two softmax streams."""
    sc = np.asarray(class_probs, dtype=np.float64)
    sd = np.asarray(det_probs, dtype=np.float64)
    if sc.shape != sd.shape:
        raise ValueError(f"stream shapes differ: {sc.shape} vs {sd.shape}")
    return sc * sd


def image_scores(instance_scores: np.ndarray) -> np.ndarray:
    """Per-class image-level score: sum of composed scores over proposals
    (the last axis, so a (B, C, P) stack gives (B, C))."""
    return np.asarray(instance_scores, dtype=np.float64).sum(axis=-1)


def midn_loss(y_pred: np.ndarray, y_true: np.ndarray, eps: float = SCORE_EPS) -> float:
    """Multi-label binary cross-entropy over image-level class scores.

    Predictions are clamped into [eps, 1 - eps] before the logs, so the loss is
    finite for any input in [0, 1]. A (B, C) stack gives the (B,) losses.
    """
    p = np.asarray(y_pred, dtype=np.float64)
    y = np.asarray(y_true, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction/label shapes differ: {p.shape} vs {y.shape}")
    pc = np.minimum(np.maximum(p, eps), 1.0 - eps)
    loss = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def midn_loss_grad(y_pred: np.ndarray, y_true: np.ndarray, eps: float = SCORE_EPS) -> np.ndarray:
    """d(midn_loss)/d(y_pred), zero where the clamp is active."""
    p = np.asarray(y_pred, dtype=np.float64)
    y = np.asarray(y_true, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction/label shapes differ: {p.shape} vs {y.shape}")
    pc = np.minimum(np.maximum(p, eps), 1.0 - eps)
    g = (pc - y) / (pc * (1.0 - pc))
    return np.where((p < eps) | (p > 1.0 - eps), 0.0, g)


@dataclass
class ScoreSet:
    """All per-scene score matrices produced by one forward pass.

    ``class_probs`` / ``det_probs`` are the two MIDN streams' softmaxes and
    ``x_r`` their composed instance scores. ``phis`` stacks the (C+1, P)
    class-score matrices of the refinement chain: ``phis[0]`` is ``phi0``, the
    supervision source for branch 1, and ``phis[k]`` the column softmax of
    refinement branch k. Branch k is supervised by ``phis[k-1]``.
    """

    class_probs: np.ndarray
    det_probs: np.ndarray
    x_r: np.ndarray
    phis: np.ndarray  # (K+1, C+1, P)

    @property
    def num_branches(self) -> int:
        return self.phis.shape[0] - 1

    @property
    def phi0(self) -> np.ndarray:
        return self.phis[0]

    @property
    def phi(self) -> np.ndarray:
        """(K, C+1, P): ``phi[k-1]`` is refinement branch k's class softmax."""
        return self.phis[1:]

    @property
    def supervisors(self) -> np.ndarray:
        """(K, C+1, P): ``supervisors[k-1]`` is the score matrix supervising branch k."""
        return self.phis[:-1]

    def phi_prev(self, branch: int) -> np.ndarray:
        """Score matrix supervising the given 1-based branch."""
        if not 1 <= branch <= self.num_branches:
            raise ValueError(f"branch must be in [1, {self.num_branches}], got {branch}")
        return self.phis[branch - 1]
