"""Weighted refinement losses, the rescale factor, and the total objective.

Supervision weights are constants with respect to differentiation: gradients
flow only through the current branch's softmax scores, never into the
previous branch that produced the weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .midn import softmax_over_classes
from .supervision import SupervisionTargets

__all__ = [
    "zeta",
    "refinement_losses",
    "refinement_loss",
    "refinement_grads",
    "refinement_loss_grad",
    "total_loss",
    "LOG_CLAMP",
]

# Softmax outputs can underflow; logs are clamped here.
LOG_CLAMP = 1e-12


def zeta(phase: str, n_total: int, n_selected: int | np.ndarray) -> float | np.ndarray:
    """Loss rescale factor: 1 normally, total/selected during fine-tuning.

    ``n_selected`` may be an array of per-branch counts.
    """
    if phase == "normal":
        return 1.0
    if phase != "finetune":
        raise ValueError(f"unknown phase {phase!r}")
    if np.min(n_selected) < 1:
        raise ValueError("fine-tuning requires at least one selected instance")
    return n_total / n_selected


def _check_shape(name: str, scores: np.ndarray, targets: SupervisionTargets) -> None:
    if scores.shape != (targets.num_classes + 1, targets.num_proposals):
        raise ValueError(f"{name} shape {scores.shape} does not match targets "
                         f"({targets.num_classes + 1}, {targets.num_proposals})")


def refinement_losses(targets: SupervisionTargets, phi: np.ndarray, zetas: np.ndarray) -> list[float]:
    """Weighted cross-entropy of K branches against their assigned labels.

    ``targets`` are (K, P), ``phi`` the (K, C+1, P) branch softmaxes and
    ``zetas`` (K,). Each loss is averaged over all proposals; ignored and
    deselected proposals contribute nothing because their weight is zero.
    """
    branch, col = ((targets.assigned_class > 0) & (targets.weight > 0.0)).nonzero()
    picked = phi[branch, targets.assigned_class[branch, col] - 1, col]
    terms = targets.weight[branch, col] * np.log(np.maximum(picked, LOG_CLAMP))
    # Each branch's terms are one contiguous run of ``terms``; summing each
    # run on its own keeps numpy's summation order of a one-branch loss.
    bounds = np.searchsorted(branch, np.arange(zetas.shape[0] + 1)).tolist()
    p = targets.num_proposals
    return [float(-z * terms[a:b].sum() / p) if b > a else 0.0
            for z, a, b in zip(zetas.tolist(), bounds[:-1], bounds[1:])]


def refinement_loss(targets: SupervisionTargets, phi_k: np.ndarray, zeta_k: float) -> float:
    """Weighted cross-entropy of one branch; see ``refinement_losses``."""
    phi = np.asarray(phi_k, dtype=np.float64)
    _check_shape("phi", phi, targets)
    return refinement_losses(targets.as_stack(), phi[None], np.array([zeta_k]))[0]


def refinement_grads(
    targets: SupervisionTargets, phi: np.ndarray, zetas: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of ``refinement_losses`` with respect to the pre-softmax logits.

    ``phi`` is the (K, C+1, P) softmax of those logits; its leading axis may
    be split, as (B, K', C+1, P) for a B*K' stack, and the gradient takes its
    shape. Column r of branch k is (zeta_k * w_r / P) * (phi_k[:, r] - onehot);
    weight-zero proposals give zero columns. Written into ``out`` when given.
    """
    lead, p = phi.shape[:-2], targets.num_proposals
    coef = np.where(targets.assigned_class > 0, targets.weight, 0.0) * (zetas[:, None] / p)
    grad = np.multiply(phi, coef.reshape(*lead, 1, p), out=out)
    branch, col = (coef > 0.0).nonzero()
    grad[(*np.unravel_index(branch, lead), targets.assigned_class[branch, col] - 1, col)] -= coef[branch, col]
    return grad


def refinement_loss_grad(targets: SupervisionTargets, phi_logits: np.ndarray, zeta_k: float) -> np.ndarray:
    """Gradient of refinement_loss with respect to the pre-softmax logits.

    Column r of the result is (zeta * w_r / P) * (softmax(logits_r) - onehot);
    weight-zero proposals give zero columns.
    """
    logits = np.asarray(phi_logits, dtype=np.float64)
    _check_shape("logit", logits, targets)
    return refinement_grads(targets.as_stack(), softmax_over_classes(logits)[None], np.array([zeta_k]))[0]


def total_loss(midn: float, refinement: Sequence[float]) -> float:
    """Total objective: image-classification loss plus all branch losses."""
    if len(refinement) < 1:
        raise ValueError("at least one refinement branch is required")
    return float(midn + sum(refinement))
