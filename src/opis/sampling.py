"""Progressive instance balance: schedule, binned negative reselection, neglect.

The negative-to-positive ratio shrinks linearly from its initial value to 4
over the fine-tuning phase; negatives are drawn from four equal-width IoU bins
first and topped up uniformly at random, all without replacement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .supervision import SupervisionTargets

__all__ = [
    "N_BINS",
    "bounded",
    "check_bounds",
    "SamplerParams",
    "ScheduleState",
    "SamplerRng",
    "sampler_states",
    "NegativeSampleDetail",
    "progressive_t",
    "ratio_mu",
    "neglect_threshold",
    "iou_bin_edges",
    "iou_bins",
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
    the order classes or branches are processed in. ``train`` derives the same
    streams from ``sampler_states`` rows, a chunk of (scene, iteration, branch,
    class) keys at a time, and opens them with ``_stored_generator``.
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(words: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words, and the hash constant after it."""
    words = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    words *= np.uint32(hash_const)
    return words ^ words >> 16, hash_const


def sampler_states(seed: int, keys) -> np.ndarray:
    """(n, 4) uint64 PCG64 seeds of n (scene, iteration, branch, class) keys.

    Row i equals ``SeedSequence(seed, spawn_key=(_SAMPLER_TAG, *keys[i]))
    .generate_state(4, np.uint64)``, computed for all rows at once: the key
    words are mixed into numpy's own pool of the tagged seed, whose entropy
    is max(4, seed words) + 1 words, and the pool is hashed out. Key words
    must lie in [0, 2**32), where numpy spends one entropy word on each.
    """
    keys = np.asarray(keys)
    if keys.size and not 0 <= keys.min() <= keys.max() <= _MASK32:
        raise ValueError(f"sampler key words must lie in [0, {_MASK32}], got {keys.min()}..{keys.max()}")
    pool = np.repeat(np.random.SeedSequence(seed, spawn_key=(_SAMPLER_TAG,)).pool[:, None], len(keys), axis=1)
    hash_const = _INIT_A * pow(_MULT_A, 4 * (max(4, -(-int(seed).bit_length() // 32)) + 1), 1 << 32) & _MASK32
    for word in keys.T.astype(np.uint32):
        for dst in range(4):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            mixed = pool[dst] * np.uint32(_MIX_MULT_L) - value * np.uint32(_MIX_MULT_R)
            pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired little-endian.
    words, hash_const = [], _INIT_B
    for i in range(8):
        value, hash_const = _hashmix(pool[i % 4], hash_const, _MULT_B)
        words.append(value)
    return np.stack(words, axis=1).view("<u8").astype(np.uint64, copy=False)


class _StoredState(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 one stored ``sampler_states`` row."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def _stored_generator(state: np.ndarray) -> np.random.Generator:
    """The ``SamplerRng`` stream whose PCG64 seed is the ``sampler_states`` row ``state``."""
    return np.random.Generator(np.random.PCG64(_StoredState(state)))


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
    bin_of = iou_bins(neg_ious, lambda_ig, lambda_ng)
    product = mu * n_pos
    # An overflowing product is a target above every supply, not an error.
    target = product if product == math.inf else math.floor(product)
    # Positions into neg_indices, bin by bin, each bin in input order.
    by_bin = np.argsort(bin_of, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(bin_of, minlength=N_BINS)).tolist()]
    bins = [neg_indices[by_bin[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    if target >= neg_indices.size:
        return NegativeSampleDetail(target=target, bin_members=bins, stage1=[b.copy() for b in bins],
                                    stage2=np.empty(0, dtype=np.int64), selected=np.sort(neg_indices))
    picks = [np.sort(neg_indices[at]) for at in _two_stage_draw(by_bin, bounds, n_pos, target, rng)]
    stage2 = picks[N_BINS] if len(picks) > N_BINS else np.empty(0, dtype=np.int64)
    return NegativeSampleDetail(target=target, bin_members=bins, stage1=picks[:N_BINS], stage2=stage2,
                                selected=np.sort(np.concatenate(picks)))


def iou_bins(ious: np.ndarray, lambda_ig: float, lambda_ng: float) -> np.ndarray:
    """The equal-width bin, 0 to N_BINS - 1, of each negative IoU in (lambda_ig, lambda_ng)."""
    width = (lambda_ng - lambda_ig) / N_BINS
    return np.minimum(np.maximum(((ious - lambda_ig) / width).astype(np.int64), 0), N_BINS - 1)


def _two_stage_draw(members: np.ndarray, bounds: Sequence[int], n_pos: int, target: int,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """The two-stage law on one group of negatives whose target is below its supply.

    The group is ``members[bounds[0]:bounds[-1]]``, with IoU bin j at
    ``members[bounds[j]:bounds[j + 1]]``; each bin lists its members in the
    group's order, which is ascending member order. Returns the stage-1 picks
    of each bin, in draw order, and then the stage-2 top-up when there is one.
    """
    start = bounds[0]
    group = members[start : bounds[-1]]
    taken = np.zeros(group.size, dtype=bool)
    picks, need = [], target
    for lo, hi in zip(bounds, bounds[1:]):
        take = min(n_pos, hi - lo)
        if take:
            # Drawing positions consumes the stream exactly as drawing the members.
            at = rng.choice(hi - lo, size=take, replace=False)
            at += lo - start
            taken[at] = True
            picks.append(group[at])
            need -= take
        else:
            picks.append(group[:0])
    # A target below the supply leaves need < remaining.size.
    if need > 0:
        remaining = np.sort(group[~taken])
        picks.append(remaining[rng.choice(remaining.size, size=need, replace=False)])
    return picks


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
