"""Progressive reweighting of positive instances.

Positive weights get an exponential boost from the current branch's own score
and the center IoU; during fine-tuning the boost decays by e^(-gamma * T) so
the shrinking negative set is not drowned out. Negatives and ignored proposals
are never touched.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .sampling import ScheduleState
from .supervision import SupervisionTargets

__all__ = ["reweight_normal", "reweight_attenuated", "reweight_branch"]


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def reweight_normal(phi_k_cr: float, i_r: float, beta: float, center_score: float) -> float:
    """Normal-phase positive weight: (beta*e^phi + (1-beta)*e^IoU) * center score."""
    _check_unit("phi_k_cr", phi_k_cr)
    _check_unit("i_r", i_r)
    _check_unit("beta", beta)
    _check_unit("center_score", center_score)
    return (beta * math.exp(phi_k_cr) + (1.0 - beta) * math.exp(i_r)) * center_score


def reweight_attenuated(
    phi_k_cr: float,
    i_r: float,
    beta: float,
    center_score: float,
    gamma: float,
    t: float,
) -> float:
    """Fine-tuning variant of reweight_normal, attenuated by e^(-gamma * t)."""
    _check_unit("t", t)
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return math.exp(-gamma * t) * reweight_normal(phi_k_cr, i_r, beta, center_score)


def reweight_branch(
    targets: SupervisionTargets,
    phi_k: np.ndarray,
    schedule: ScheduleState,
    attenuated: bool,
) -> SupervisionTargets:
    """Reweight every selected positive of one branch; all else is untouched.

    The stored weight of a selected positive is exactly the source center's
    previous-branch score, so the boost factor multiplies it. Only ``weight``
    is copied; the input is not mutated.
    """
    phi = np.asarray(phi_k, dtype=np.float64)
    pos = np.flatnonzero(targets.selected & (targets.assigned_class >= 1) & (targets.assigned_class <= targets.num_classes))
    if pos.size == 0:
        return targets
    own_scores = phi[targets.assigned_class[pos] - 1, pos]
    factor = schedule.beta * np.exp(own_scores) + (1.0 - schedule.beta) * np.exp(targets.max_iou[pos])
    if attenuated:
        factor = factor * math.exp(-schedule.gamma * schedule.t_progress)
    weight = targets.weight.copy()
    weight[pos] = factor * targets.weight[pos]
    return replace(targets, weight=weight)
