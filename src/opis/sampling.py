"""Progressive instance balance: schedule, binned negative reselection, neglect.

The negative-to-positive ratio shrinks linearly from its initial value to 4
over the fine-tuning phase; negatives are drawn from four equal-width IoU bins
first and topped up uniformly at random, all without replacement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .supervision import SupervisionTargets

__all__ = [
    "N_BINS",
    "bounded",
    "check_bounds",
    "SamplerParams",
    "ScheduleState",
    "SamplerRng",
    "NegativeSampleDetail",
    "progressive_t",
    "ratio_mu",
    "neglect_threshold",
    "iou_bin_edges",
    "sample_negatives",
    "sample_negatives_detail",
    "reselect_positives",
    "keep_selected",
    "apply_selection_mask",
]

# Stream tag separating sampler draws from all other seeded randomness.
_SAMPLER_TAG = 4

# Equal-width IoU bins of the negative interval (lambda_ig, lambda_ng).
N_BINS = 4


def bounded(default, interval: str):
    """A dataclass field that ``check_bounds`` keeps in ``interval``, e.g. "[0, 1)"."""
    return field(default=default, metadata={"interval": interval})


def _membership(spec: str) -> Callable[[float], bool]:
    """Membership test of an interval written like "(0, 1]"."""
    low, high = map(float, spec[1:-1].split(","))
    return {"[]": lambda v: low <= v <= high, "[)": lambda v: low <= v < high,
            "(]": lambda v: low < v <= high, "()": lambda v: low < v < high}[spec[0] + spec[-1]]


@functools.cache
def _intervals(cls: type) -> tuple[tuple[str, str, Callable[[float], bool]], ...]:
    """(name, interval, membership test) of each bounded field of a dataclass."""
    specs = [(f.name, f.metadata["interval"]) for f in fields(cls) if "interval" in f.metadata]
    return tuple((name, spec, _membership(spec)) for name, spec in specs)


def check_bounds(obj) -> None:
    """Reject any bounded field of the dataclass ``obj`` outside its interval.

    ``None`` is exempt. NaN fails every comparison, so it lies in no interval.
    """
    for name, spec, contains in _intervals(type(obj)):
        v = getattr(obj, name)
        if v is not None and not contains(v):
            raise ValueError(f"{name} must lie in {spec}, got {v}")


def progressive_t(t_n: int, t_0: int, t_1: int) -> float:
    """Fine-tuning progress in [0, 1]: 0 at the phase start, 1 at the end."""
    if t_0 >= t_1:
        raise ValueError(f"need t_0 < t_1, got ({t_0}, {t_1})")
    if not t_0 <= t_n <= t_1:
        raise ValueError(f"iteration {t_n} outside fine-tuning range [{t_0}, {t_1}]")
    return (t_n - t_0) / (t_1 - t_0)


def ratio_mu(mu_s: float, t: float) -> float:
    """Negative-to-positive target ratio, decaying linearly from mu_s to 4."""
    if mu_s < 4:
        raise ValueError(f"mu_s must be >= 4, got {mu_s}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return mu_s - (mu_s - 4.0) * t

def neglect_threshold(i_0: float, alpha: float, t_n: int, t_1: int) -> float:
    """Score-sum threshold below which a no-negative class keeps only its center."""
    if t_n > t_1:
        raise ValueError(f"iteration {t_n} exceeds final iteration {t_1}")
    return i_0 + alpha * t_n / t_1


def iou_bin_edges(lambda_ig: float, lambda_ng: float) -> np.ndarray:
    """Equal-width bin edges over the negative IoU interval (lambda_ig, lambda_ng)."""
    if lambda_ig >= lambda_ng:
        raise ValueError(f"need lambda_ig < lambda_ng, got ({lambda_ig}, {lambda_ng})")
    return np.linspace(lambda_ig, lambda_ng, N_BINS + 1)


@dataclass(frozen=True, kw_only=True)
class SamplerParams:
    """The sampling and reweighting hyperparameters PIB and PIR add."""

    mu_s: float = bounded(20.0, "[4, inf)")
    alpha: float = bounded(0.85, "[0, inf)")
    i_0: float = bounded(0.05, "[0, inf)")
    lambda_ig: float = bounded(0.1, "[0, 1]")
    lambda_ng: float = bounded(0.5, "[0, 1]")
    beta: float = bounded(0.5, "[0, 1]")
    gamma: float = bounded(0.9, "[0, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.lambda_ig >= self.lambda_ng:
            raise ValueError(f"need lambda_ig < lambda_ng, got lambda_ig={self.lambda_ig}, lambda_ng={self.lambda_ng}")


@dataclass(frozen=True)
class ScheduleState(SamplerParams):
    """Iteration counters plus every sampling/reweighting hyperparameter.

    ``t_n`` is the current 0-based iteration; fine-tuning covers iterations in
    [t_0, t_1), so the first fine-tune iteration sees progress 0.
    """

    t_n: int
    t_0: int
    t_1: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.t_0 < self.t_1:
            raise ValueError(f"need 0 <= t_0 < t_1, got ({self.t_0}, {self.t_1})")
        if not 0 <= self.t_n <= self.t_1:
            raise ValueError(f"iteration {self.t_n} outside [0, {self.t_1}]")

    @property
    def phase(self) -> str:
        return "finetune" if self.t_n >= self.t_0 else "normal"

    @property
    def t_progress(self) -> float:
        return progressive_t(self.t_n, self.t_0, self.t_1) if self.phase == "finetune" else 0.0

    @property
    def mu(self) -> float:
        return ratio_mu(self.mu_s, self.t_progress)

    @property
    def neglect(self) -> float:
        return neglect_threshold(self.i_0, self.alpha, self.t_n, self.t_1)


@dataclass(frozen=True)
class SamplerRng:
    """Seeded random stream keyed by (scene, iteration, branch, class).

    Identical coordinates always reproduce identical draws, independently of
    the order classes or branches are processed in.
    """

    seed: int
    scene_id: int
    iteration: int
    branch: int
    class_id: int

    def generator(self) -> np.random.Generator:
        key = (_SAMPLER_TAG, self.scene_id, self.iteration, self.branch, self.class_id)
        # The same stream as default_rng(SeedSequence(...)), built directly.
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key)))


@dataclass
class NegativeSampleDetail:
    """Bookkeeping trace of one two-stage negative reselection; ``target`` is
    floor(mu * n_pos), or ``inf`` when that product overflows."""

    target: int | float
    bin_members: list[np.ndarray]
    stage1: list[np.ndarray]
    stage2: np.ndarray
    selected: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def sample_negatives_detail(
    neg_indices: np.ndarray,
    neg_ious: np.ndarray,
    n_pos: int,
    mu: float,
    lambda_ig: float,
    lambda_ng: float,
    rng: np.random.Generator,
) -> NegativeSampleDetail:
    """Two-stage negative reselection with a per-stage trace.

    Stage 1 draws min(n_pos, bin size) negatives uniformly without replacement
    from each IoU bin; stage 2 tops up to floor(mu * n_pos) from the unselected
    remainder. When the target exceeds the supply, every negative is kept.
    """
    if n_pos < 1:
        raise ValueError(f"n_pos must be >= 1, got {n_pos}")
    neg_indices = np.asarray(neg_indices, dtype=np.int64)
    neg_ious = np.asarray(neg_ious, dtype=np.float64)
    if neg_indices.size == 0:
        raise ValueError("sample_negatives requires a non-empty negative set")

    if lambda_ig >= lambda_ng:
        raise ValueError(f"need lambda_ig < lambda_ng, got ({lambda_ig}, {lambda_ng})")
    return _binned_draw(neg_indices, neg_ious, n_pos, mu, lambda_ig, lambda_ng, rng)


def _binned_draw(neg_indices: np.ndarray, neg_ious: np.ndarray, n_pos: int, mu: float, lambda_ig: float,
                 lambda_ng: float, rng: np.random.Generator | None) -> NegativeSampleDetail:
    """``sample_negatives_detail`` on checked int64 indices and float64 IoUs.
    ``rng`` is read only when the target is below the supply."""
    product = mu * n_pos
    # An overflowing product is a target above every supply, not an error.
    target = product if product == math.inf else math.floor(product)
    width = (lambda_ng - lambda_ig) / N_BINS
    bin_of = np.minimum(np.maximum(((neg_ious - lambda_ig) / width).astype(np.int64), 0), N_BINS - 1)
    bin_pos = [(bin_of == j).nonzero()[0] for j in range(N_BINS)]
    bins = [neg_indices[pos] for pos in bin_pos]
    detail = NegativeSampleDetail(target=target, bin_members=bins, stage1=[], stage2=np.empty(0, dtype=np.int64))

    if target >= neg_indices.size:
        detail.stage1 = [b.copy() for b in bins]
        detail.selected = np.sort(neg_indices)
        return detail

    taken = np.zeros(neg_indices.size, dtype=bool)
    stage1_size = 0
    for pos in bin_pos:
        take = min(n_pos, pos.size)
        # Drawing positions consumes the stream exactly as drawing the members.
        picked = pos[rng.choice(pos.size, size=take, replace=False)] if take else pos
        taken[picked] = True
        members = neg_indices[picked]
        members.sort()
        detail.stage1.append(members)
        stage1_size += take
    need = target - stage1_size
    if need > 0:
        remaining = neg_indices[~taken]
        if need >= remaining.size:
            detail.stage2 = remaining
        else:
            detail.stage2 = remaining[rng.choice(remaining.size, size=need, replace=False)]
            detail.stage2.sort()
    detail.selected = np.concatenate([*detail.stage1, detail.stage2])
    detail.selected.sort()
    return detail


def sample_negatives(
    neg_indices: np.ndarray,
    neg_ious: np.ndarray,
    n_pos: int,
    mu: float,
    lambda_ig: float,
    lambda_ng: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Reselected negative indices; size is exactly min(floor(mu*n_pos), supply)."""
    return sample_negatives_detail(neg_indices, neg_ious, n_pos, mu, lambda_ig, lambda_ng, rng).selected


def reselect_positives(
    pos_indices: np.ndarray,
    phi_prev: np.ndarray,
    class_id: int,
    center: int,
    neglect_thresh: float,
) -> np.ndarray:
    """Neglect low-evidence positives of a class that has no negatives.

    When the class's positive score mass (center included) falls below the
    threshold, only the cluster center survives; otherwise the set is returned
    as is (the same object for an int64 array). The center is never removed.
    """
    pos_indices = np.asarray(pos_indices, dtype=np.int64)
    if center not in pos_indices:
        raise RuntimeError(f"cluster center {center} missing from the positive set of class {class_id}")
    score_sum = float(np.asarray(phi_prev, dtype=np.float64)[class_id - 1, pos_indices].sum())
    if score_sum < neglect_thresh:
        return np.array([center], dtype=np.int64)
    return pos_indices


def keep_selected(targets: SupervisionTargets, keep: np.ndarray) -> SupervisionTargets:
    """Zero the weight of every proposal outside the boolean mask ``keep``.

    Works on one branch or a stack. Labels, IoUs, and source classes are
    shared with the input, which is not mutated; kept proposals keep their
    weight bit-for-bit.
    """
    return targets.with_weight(np.where(keep, targets.weight, 0.0), selected=keep)


def apply_selection_mask(
    targets: SupervisionTargets,
    selected_pos: np.ndarray,
    selected_neg: np.ndarray,
) -> SupervisionTargets:
    """Zero the weight of every labeled proposal outside the selected sets."""
    keep = np.zeros(targets.num_proposals, dtype=bool)
    keep[np.asarray(selected_pos, dtype=np.int64)] = True
    keep[np.asarray(selected_neg, dtype=np.int64)] = True
    return keep_selected(targets, keep)
