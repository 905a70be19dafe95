"""Deterministic synthetic detection world plus a tiny trainable model.

A Scene stands in for one weakly labeled image: proposal boxes, per-proposal
features correlated with ground-truth overlap, an image-level label vector,
and hidden ground-truth boxes used only by evaluation. The ToyModel is one
linear map per head, which is the smallest thing that makes every branch
trainable and gradient-checkable. All randomness derives from explicit seeds
via tagged SeedSequence streams.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .geometry import pairwise_iou
from .losses import refinement_grads, refinement_losses, total_loss, zeta
from .midn import ScoreSet, image_scores, midn_loss, midn_loss_grad, softmax
from .reweighting import reweight_branch
from .sampling import (
    N_BINS,
    SamplerParams,
    SamplerRng,
    ScheduleState,
    _binned_draw,
    bounded,
    check_bounds,
    iou_bins,
    keep_selected,
    reselect_positives,
)
from .supervision import SupervisionTargets, assign_branches, cluster_center_indices

__all__ = [
    "METHODS",
    "SceneConfig",
    "Scene",
    "ToyModel",
    "TrainConfig",
    "TrainLog",
    "IterationRecord",
    "SceneSupervision",
    "BalanceCounts",
    "TrainingDivergence",
    "class_prototypes",
    "generate_scene",
    "generate_dataset",
    "forward",
    "supervise_scene",
    "build_branch_supervision",
    "scene_pass",
    "train",
    "finite_diff_check",
]

METHODS = ("baseline", "pib_only", "pir_only", "opis")

# Stream tags keeping the seeded sub-streams disjoint (sampling.py owns tag 4).
_TAG_SCENE = 1
_TAG_MODEL = 2
_TAG_SHUFFLE = 3
_TAG_PROTOTYPES = 5


class TrainingDivergence(RuntimeError):
    """Raised when the loss or parameters stop being finite."""

    def __init__(self, message: str, iteration: int, snapshot: dict | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.snapshot = snapshot or {}

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not ``args``, so the error
        # survives the trip back from a worker process.
        return type(self), (str(self), self.iteration, self.snapshot)


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic world parameters; defaults give a heavy negative surplus."""

    num_classes: int = bounded(4, "[1, inf)")
    feature_dim: int = bounded(16, "[1, inf)")
    num_proposals: int = bounded(150, "[1, inf)")
    clutter_rate: float = bounded(0.3, "[0, 1)")
    jitter: float = bounded(0.45, "[0, inf)")
    feature_noise: float = bounded(0.35, "[0, inf)")
    min_objects: int = bounded(1, "[1, inf)")
    max_objects: int = bounded(3, "[1, inf)")
    world_size: float = bounded(100.0, "(0, inf)")
    object_size_min: float = bounded(14.0, "(0, inf)")
    object_size_max: float = bounded(34.0, "(0, inf)")
    clutter_size_min: float = bounded(5.0, "(0, inf)")
    clutter_size_max: float = bounded(40.0, "(0, inf)")
    coverage_iou: float = bounded(0.5, "(0, 1]")
    max_regen_attempts: int = bounded(100, "[1, inf)")
    prototype_seed: int = bounded(20202, "[0, inf)")

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.feature_dim < self.num_classes:
            raise ValueError(f"need num_classes <= feature_dim, got ({self.num_classes}, {self.feature_dim})")
        if self.min_objects > self.max_objects:
            raise ValueError(f"need min_objects <= max_objects, got ({self.min_objects}, {self.max_objects})")
        for low, high in (("object_size_min", "object_size_max"), ("clutter_size_min", "clutter_size_max")):
            if not getattr(self, low) <= getattr(self, high) <= self.world_size:
                raise ValueError(f"need {low} <= {high} <= world_size, got {getattr(self, low)}, {getattr(self, high)}")


@dataclass
class Scene:
    """One synthetic image: proposals, features, weak label, hidden truth."""

    scene_id: int
    proposals: np.ndarray  # (P, 4)
    features: np.ndarray  # (P, D), rows unit-norm or zero
    image_label: np.ndarray  # (C,) 0/1
    gt_boxes: np.ndarray  # (G, 4), evaluation only
    gt_classes: np.ndarray  # (G,), 1-based, evaluation only

    @property
    def num_proposals(self) -> int:
        return self.proposals.shape[0]


@functools.cache
def _prototypes(prototype_seed: int, feature_dim: int, num_classes: int) -> np.ndarray:
    """One world's prototypes, computed once per process and read-only."""
    rng = np.random.default_rng(np.random.SeedSequence(prototype_seed, spawn_key=(_TAG_PROTOTYPES,)))
    protos = np.linalg.qr(rng.normal(size=(feature_dim, num_classes)))[0][:, :num_classes].T.copy()
    protos.flags.writeable = False
    return protos


def class_prototypes(config: SceneConfig) -> np.ndarray:
    """Fixed orthonormal feature direction per class, shared by all scenes."""
    return _prototypes(config.prototype_seed, config.feature_dim, config.num_classes).copy()


def _random_boxes(config: SceneConfig, rng: np.random.Generator, count: int, kind: str) -> np.ndarray:
    """``count`` boxes of ``kind`` ("object" or "clutter") sizes; a box below
    the coordinate resolution, with no positive width and height, is an error."""
    low, high = getattr(config, f"{kind}_size_min"), getattr(config, f"{kind}_size_max")
    # A (2, n) draw reads the stream row by row, as one call per row would.
    half = rng.uniform(low, high, size=(2, count)) / 2
    center = rng.uniform(half, config.world_size - half)
    boxes = np.empty((count, 4))
    np.subtract(center, half, out=boxes[:, :2].T)
    np.add(center, half, out=boxes[:, 2:].T)
    if not (boxes[:, 2:] > boxes[:, :2]).all():
        raise RuntimeError(f"{kind}_size_min = {low} and {kind}_size_max = {high} give boxes of zero width or "
                           f"height at world_size = {config.world_size}")
    return boxes


def _jittered_proposals(config: SceneConfig, rng: np.random.Generator, gt: np.ndarray, count: int) -> np.ndarray:
    owners = rng.integers(0, gt.shape[0], size=count)
    base = gt[owners]
    scale = np.concatenate([base[:, 2:] - base[:, :2]] * 2, axis=1)  # (w, h, w, h) per box
    boxes = base + rng.normal(size=(count, 4)) * (config.jitter * scale)
    bad = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    while bad.any():
        idx = np.flatnonzero(bad)
        boxes[idx] = base[idx] + rng.normal(size=(idx.size, 4)) * (config.jitter * scale[idx])
        bad = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    return boxes


def generate_scene(config: SceneConfig, rng: np.random.Generator, scene_id: int = 0) -> Scene:
    """Sample one scene; proposal sets are redrawn until every ground-truth
    object is covered by at least one proposal at the configured IoU."""
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    gt_classes = rng.integers(1, config.num_classes + 1, size=n_obj).astype(np.int64)
    gt_boxes = _random_boxes(config, rng, n_obj, "object")

    n_clutter = int(round(config.num_proposals * config.clutter_rate))
    n_jitter = config.num_proposals - n_clutter
    for _ in range(config.max_regen_attempts):
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            parts = []
            if n_jitter:
                parts.append(_jittered_proposals(config, rng, gt_boxes, n_jitter))
            if n_clutter:
                parts.append(_random_boxes(config, rng, n_clutter, "clutter"))
            proposals = np.concatenate(parts, axis=0)
            overlap = pairwise_iou(gt_boxes, proposals).T
            area = (proposals[:, 2] - proposals[:, 0]) * (proposals[:, 3] - proposals[:, 1])
        # Two proposals' areas must also add up to a float in their IoU's union.
        if not (np.isfinite(proposals).all() and np.isfinite(overlap).all()
                and area.max() <= np.finfo(float).max / 2):
            raise RuntimeError(f"box coordinates or IoUs are not finite at world_size = {config.world_size}, "
                               f"jitter = {config.jitter}")
        if np.all(overlap.max(axis=0) >= config.coverage_iou):
            break
    else:
        raise RuntimeError(f"could not cover all objects at coverage_iou = {config.coverage_iou}, jitter = "
                           f"{config.jitter} in max_regen_attempts = {config.max_regen_attempts} proposal redraws")

    protos = _prototypes(config.prototype_seed, config.feature_dim, config.num_classes)
    features = protos[gt_classes[overlap.argmax(axis=1)] - 1]
    features *= overlap.max(axis=1)[:, None]
    noise = rng.normal(size=features.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        noise *= config.feature_noise / math.sqrt(config.feature_dim)
        features += noise
        # Row norms as np.linalg.norm computes them; a zero row (noise-free, overlapping no object) stays zero.
        norm = np.sqrt(np.add.reduce(features * features, axis=1, keepdims=True))
    if not np.isfinite(norm).all():
        raise RuntimeError(f"features overflow at feature_noise = {config.feature_noise}")
    np.divide(features, norm, out=features, where=norm > 0)

    label = np.zeros(config.num_classes, dtype=np.int8)
    label[gt_classes - 1] = 1
    return Scene(
        scene_id=scene_id,
        proposals=proposals,
        features=features,
        image_label=label,
        gt_boxes=gt_boxes,
        gt_classes=gt_classes,
    )


def generate_dataset(config: SceneConfig, seed: int, count: int) -> list[Scene]:
    """Scenes 0..count-1, each from its own (seed, scene index) stream."""
    scenes = []
    for i in range(count):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_TAG_SCENE, i))))
        scenes.append(generate_scene(config, rng, scene_id=i))
    return scenes


class ToyModel:
    """Linear scoring heads: two MIDN streams plus K refinement classifiers.

    Every parameter lives in one flat buffer, ``flat``: the weight rows of all
    heads (classification C, detection C, then C+1 per refinement branch) as
    one (R, D) matrix ``weights``, then their biases as one (R,) vector
    ``biases``. The named heads (``w_cls``, ``b_ref``, ...) are views into it,
    so a forward pass is one matmul and an optimizer step a few whole-buffer
    operations. The same layout carries gradients.
    """

    def __init__(
        self,
        w_cls: np.ndarray,
        b_cls: np.ndarray,
        w_det: np.ndarray,
        b_det: np.ndarray,
        w_ref: Sequence[np.ndarray],
        b_ref: Sequence[np.ndarray],
    ) -> None:
        num_classes, feature_dim = np.shape(w_cls)
        self._bind(np.empty(self.flat_size(num_classes, feature_dim, len(w_ref))),
                   num_classes, feature_dim, len(w_ref))
        sources = [w_cls, b_cls, w_det, b_det] + [a for pair in zip(w_ref, b_ref) for a in pair]
        for (name, view), src in zip(self.param_items(), sources):
            if np.shape(src) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(src)}, expected {view.shape}")
            view[...] = src

    @staticmethod
    def flat_size(num_classes: int, feature_dim: int, num_branches: int) -> int:
        rows = 2 * num_classes + num_branches * (num_classes + 1)
        return rows * (feature_dim + 1)

    @classmethod
    def from_flat(cls, flat: np.ndarray, num_classes: int, feature_dim: int, num_branches: int) -> "ToyModel":
        """Named views into ``flat`` (not copied)."""
        model = cls.__new__(cls)
        model._bind(flat, num_classes, feature_dim, num_branches)
        return model

    def _bind(self, flat: np.ndarray, num_classes: int, feature_dim: int, num_branches: int) -> None:
        rows = flat.size // (feature_dim + 1)
        self.num_classes, self.feature_dim, self.num_branches = num_classes, feature_dim, num_branches
        self.flat = flat
        self.weights = flat[: rows * feature_dim].reshape(rows, feature_dim)
        self.biases = flat[rows * feature_dim :]

    def _ref_rows(self, k: int) -> slice:
        c = self.num_classes
        return slice(2 * c + k * (c + 1), 2 * c + (k + 1) * (c + 1))

    @property
    def w_cls(self) -> np.ndarray:
        return self.weights[: self.num_classes]

    @property
    def b_cls(self) -> np.ndarray:
        return self.biases[: self.num_classes]

    @property
    def w_det(self) -> np.ndarray:
        return self.weights[self.num_classes : 2 * self.num_classes]

    @property
    def b_det(self) -> np.ndarray:
        return self.biases[self.num_classes : 2 * self.num_classes]

    @property
    def w_ref(self) -> list[np.ndarray]:
        return [self.weights[self._ref_rows(k)] for k in range(self.num_branches)]

    @property
    def b_ref(self) -> list[np.ndarray]:
        return [self.biases[self._ref_rows(k)] for k in range(self.num_branches)]

    @classmethod
    def initialize(
        cls,
        num_classes: int,
        feature_dim: int,
        num_branches: int,
        seed: int,
        init_scale: float = 0.01,
    ) -> "ToyModel":
        if num_branches < 1:
            raise ValueError("need at least one refinement branch")
        model = cls.from_flat(np.zeros(cls.flat_size(num_classes, feature_dim, num_branches)),
                              num_classes, feature_dim, num_branches)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_TAG_MODEL,)))
        # A huge init_scale overflows to inf, which train and forward report.
        with np.errstate(over="ignore", invalid="ignore"):
            for w in [model.w_cls, model.w_det, *model.w_ref]:
                w[...] = rng.normal(size=w.shape) * init_scale
        return model

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = [("w_cls", self.w_cls), ("b_cls", self.b_cls), ("w_det", self.w_det), ("b_det", self.b_det)]
        for k in range(self.num_branches):
            items.append((f"w_ref_{k + 1}", self.w_ref[k]))
            items.append((f"b_ref_{k + 1}", self.b_ref[k]))
        return items

    def copy(self) -> "ToyModel":
        return ToyModel.from_flat(self.flat.copy(), self.num_classes, self.feature_dim, self.num_branches)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def to_json(self) -> str:
        payload = {
            "num_classes": self.num_classes,
            "feature_dim": self.feature_dim,
            "num_branches": self.num_branches,
            "params": {name: arr.tolist() for name, arr in self.param_items()},
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ToyModel":
        payload = json.loads(text)
        params = payload["params"]
        k = payload["num_branches"]
        return cls(
            w_cls=np.asarray(params["w_cls"], dtype=np.float64),
            b_cls=np.asarray(params["b_cls"], dtype=np.float64),
            w_det=np.asarray(params["w_det"], dtype=np.float64),
            b_det=np.asarray(params["b_det"], dtype=np.float64),
            w_ref=[np.asarray(params[f"w_ref_{i + 1}"], dtype=np.float64) for i in range(k)],
            b_ref=[np.asarray(params[f"b_ref_{i + 1}"], dtype=np.float64) for i in range(k)],
        )


def _workspace(model: ToyModel, batch: int, num_proposals: int) -> SimpleNamespace:
    """Buffers of stacked passes over B scenes of P proposals, made once per
    ``train`` run: at P=600 several pass 128 KiB, which glibc maps afresh."""
    c, k, p, rows = model.num_classes, model.num_branches, num_proposals, model.weights.shape[0]
    return SimpleNamespace(features=np.empty((batch, p, model.feature_dim)), logits=np.empty((batch, rows, p)),
                           supervisors=np.empty((batch, k, c + 1, p)), phi=np.empty((batch, k, c + 1, p)),
                           dz=np.empty((batch, rows, p)), grads=np.empty((batch, model.flat.size)))


def _stack_logits(model: ToyModel, features: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Every head's ``logits`` (B, R, P) of B scenes' (B, P, D) features, in
    one matmul; raises if an entry is non-finite. Returns the refinement
    branches' rows as a (B, K, C+1, P) view."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        np.matmul(model.weights, features.transpose(0, 2, 1), out=logits)
        logits += model.biases[:, None]
    if not np.isfinite(logits).all():
        raise ValueError("logits contains non-finite entries")
    c, k = model.num_classes, model.num_branches
    return logits[:, 2 * c :].reshape(logits.shape[0], k, c + 1, -1)


def _score_stack(model: ToyModel, features: np.ndarray, logits: np.ndarray, phi0: np.ndarray,
                 phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass of B scenes' (B, P, D) features in one matmul: ``logits``
    (B, R, P), the composed MIDN scores plus a zero background row in ``phi0``
    (B, C+1, P), the branch softmaxes in ``phi`` (B, K, C+1, P). Returns the
    (B, C, P) MIDN stream softmaxes."""
    c = model.num_classes
    branch_logits = _stack_logits(model, features, logits)
    sc = softmax(logits[:, :c], axis=1)
    sd = softmax(logits[:, c : 2 * c], axis=2)
    np.multiply(sc, sd, out=phi0[:, :c])
    phi0[:, c] = 0.0
    softmax(branch_logits, axis=2, out=phi)
    return sc, sd


def forward(model: ToyModel, scene: Scene) -> ScoreSet:
    """Score every proposal with every head and compose the MIDN streams."""
    c, k, p = model.num_classes, model.num_branches, scene.num_proposals
    logits, phis = np.empty((1, model.weights.shape[0], p)), np.empty((k + 1, c + 1, p))
    sc, sd = _score_stack(model, scene.features[None], logits, phis[None, 0], phis[None, 1:])
    return ScoreSet(class_probs=sc[0], det_probs=sd[0], x_r=phis[0, :c], phis=phis)


@dataclass
class BalanceCounts:
    """What progressive instance balance did with each group of a supervision
    stack: entry [row, c] is class c of that row, whose positives and
    negatives are those of the class's center box. Filled during the pass."""

    n_pos: np.ndarray  # (rows, C+1) int64 positives; 0 for a present class another class's center absorbed
    n_neg: np.ndarray  # (rows, C+1) int64 negatives, the supply
    supply: np.ndarray  # (rows, C+1, N_BINS) int64 negatives per IoU bin
    target: np.ndarray  # (rows, C+1) float64 floor(mu * n_pos), inf where the product overflows
    drew: np.ndarray  # (rows, C+1) bool: the target was below the supply, so the group drew on its stream
    fired: np.ndarray  # (rows, C+1) bool: no negatives, and the neglect rule kept only the center


@dataclass
class SceneSupervision:
    """Supervision for all K branches of one scene, as (K, ...) arrays; a
    stacked pass over B scenes gives B*K rows, scene-major. ``balance`` is
    ``None`` when instance balance is inactive."""

    targets: SupervisionTargets  # (K, P)
    zeta: np.ndarray  # (K,)
    pos_selected: np.ndarray  # (K,)
    neg_before: np.ndarray  # (K,)
    neg_after: np.ndarray  # (K,)
    balance: BalanceCounts | None


def supervise_scene(
    scene: Scene,
    scores: ScoreSet,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
) -> SceneSupervision:
    """Full supervision pipeline for all branches of one scene: assignment,
    progressive instance balance when active, then positive reweighting when
    active. Branch k is supervised by ``scores.phis[k-1]``. It is the one-scene
    case of the stacked supervision that ``train`` runs per minibatch."""
    return _supervise([scene], scores.supervisors[None], scores.phi, schedule, method, seed, iteration)


def _supervise(scenes: Sequence[Scene], supervisors: np.ndarray, phi: np.ndarray, schedule: ScheduleState,
               method: str, seed: int, iteration: int) -> SceneSupervision:
    """Supervision of B scenes' K branches as one (B*K, P) stack. Row b*K + k-1
    is branch k of scene b, supervised by ``supervisors[b, k-1]``, with branch
    softmax ``phi[b*K + k-1]``. Centers and assignment run per scene.

    Instance balance treats group row * (C+1) + c, class c of a row, as a
    whole: a group with positives keeps all of them, unless it has no
    negatives and the neglect rule fires, and keeps all its negatives unless
    its target floor(mu * n_pos) is below their supply. Only then does it
    draw, on its own (scene, iteration, branch, class) ``SamplerRng`` stream,
    so the draws are those of the per-class sampler. The group counts of
    the pass are its ``balance`` record.
    """
    num_branches, num_proposals = supervisors.shape[1], phi.shape[-1]
    lambda_ig, lambda_ng, finetune = schedule.lambda_ig, schedule.lambda_ng, schedule.phase == "finetune"
    centered = [cluster_center_indices(sup, scene.image_label) for scene, sup in zip(scenes, supervisors)]
    targets = SupervisionTargets.concat([assign_branches(classes, centers, scene.proposals, sup, lambda_ig, lambda_ng)
                                         for (classes, centers), scene, sup in zip(centered, scenes, supervisors)])
    negative = targets.assigned_class == targets.num_classes + 1
    rows = negative.shape[0]
    neg_before = np.count_nonzero(negative, axis=1)
    neg_after = neg_before
    zetas = np.ones(rows)

    balance = None
    if finetune and method in ("pib_only", "opis"):
        mu, neglect, stride = schedule.mu, schedule.neglect, targets.num_classes + 1
        labeled, source = targets.assigned_class > 0, targets.source_class
        group = source + stride * np.arange(rows)[:, None]
        neg_group, neg_col = group[negative], negative.nonzero()[1]
        neg_bin = iou_bins(targets.max_iou[negative], lambda_ig, lambda_ng)
        supply = np.bincount(neg_group * N_BINS + neg_bin, minlength=rows * stride * N_BINS).reshape(-1, N_BINS)
        n_neg = supply.sum(axis=1)
        n_pos = np.bincount(group[labeled], minlength=rows * stride) - n_neg
        has_pos = n_pos > 0
        with np.errstate(over="ignore"):  # an overflowing product is a target above every supply
            target = np.floor(mu * n_pos)
        drew = has_pos & (target < n_neg)
        keep = labeled & (~negative | (has_pos & ~drew)[group])
        for g in drew.nonzero()[0].tolist():
            (b, k), c = divmod(g // stride, num_branches), g % stride
            at = neg_group == g
            rng = SamplerRng(seed, scenes[b].scene_id, iteration, k + 1, c).generator()
            keep[g // stride, _binned_draw(neg_col[at], neg_bin[at], int(n_pos[g]), mu, rng).selected] = True

        fired = np.zeros(rows * stride, dtype=bool)
        for g in (has_pos & (n_neg == 0)).nonzero()[0].tolist():
            (b, k), c = divmod(g // stride, num_branches), g % stride
            pos_c = (targets.assigned_class[g // stride] == c).nonzero()[0]
            center = int(centered[b][1][k, np.searchsorted(centered[b][0], c)])
            kept = reselect_positives(pos_c, supervisors[b, k], c, center, neglect)
            # The rule returns pos_c itself unless it fires.
            fired[g] = kept is not pos_c
            keep[g // stride, pos_c] = False
            keep[g // stride, kept] = True

        grid = (rows, stride)
        balance = BalanceCounts(n_pos.reshape(grid), n_neg.reshape(grid), supply.reshape(*grid, N_BINS),
                                target.reshape(grid), drew.reshape(grid), fired.reshape(grid))
        neg_after = (keep & negative).sum(axis=1)
        targets = keep_selected(targets, keep)
        zetas = zeta("finetune", num_proposals, keep.sum(axis=1))

    if method in ("pir_only", "opis"):
        attenuated = method == "opis" and finetune
        targets = reweight_branch(targets, phi, schedule, attenuated=attenuated)

    return SceneSupervision(
        targets=targets,
        zeta=zetas,
        pos_selected=np.count_nonzero(targets.selected & targets.positive_mask(), axis=1),
        neg_before=neg_before,
        neg_after=neg_after,
        balance=balance,
    )


def build_branch_supervision(
    scene: Scene,
    scores: ScoreSet,
    branch: int,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
) -> SceneSupervision:
    """Supervision of one 1-based branch: row ``branch - 1`` of
    ``supervise_scene``, as a one-row ``SceneSupervision``."""
    if not 1 <= branch <= scores.num_branches:
        raise ValueError(f"branch must be in [1, {scores.num_branches}], got {branch}")
    sup = supervise_scene(scene, scores, schedule, method, seed, iteration)
    row = slice(branch - 1, branch)
    balance = None if sup.balance is None else BalanceCounts(*(getattr(sup.balance, f.name)[row]
                                                               for f in fields(BalanceCounts)))
    return SceneSupervision(sup.targets.branch(row), sup.zeta[row], sup.pos_selected[row], sup.neg_before[row],
                            sup.neg_after[row], balance)


def scene_pass(
    model: ToyModel,
    scene: Scene,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
    frozen: SceneSupervision | None = None,
    want_grads: bool = True,
) -> tuple[float, list[float], SceneSupervision, ToyModel | None]:
    """Forward pass, supervision of all branches, losses, and analytic gradients.

    Supervision weights and selections are treated as constants: gradients flow
    through the live softmax scores only. Passing ``frozen`` supervision reuses
    targets from a previous pass (used by the finite-difference checker). The
    gradient comes back in the model's layout: ``grads.flat`` matches
    ``model.flat``. This is the one-scene case of the stacked step ``train``
    runs per minibatch.
    """
    ws = _workspace(model, 1, scene.num_proposals)
    midn, ref_losses, sup = _batch_pass(model, [scene], schedule, method, seed, iteration, ws, frozen, want_grads)
    grads = ToyModel.from_flat(ws.grads[0], model.num_classes, model.feature_dim, model.num_branches)
    return float(midn[0]), ref_losses, sup, grads if want_grads else None


def _batch_pass(model: ToyModel, scenes: Sequence[Scene], schedule: ScheduleState, method: str, seed: int,
                iteration: int, ws: SimpleNamespace, frozen: SceneSupervision | None = None,
                want_grads: bool = True) -> tuple[np.ndarray, list[float], SceneSupervision]:
    """``scene_pass`` of B scenes of one proposal count, in the buffers ``ws``:
    the (B,) MIDN losses, the B*K refinement losses and (B*K, P) supervision,
    scene-major; row b of ``ws.grads`` is scene b's gradient."""
    c, k, b = model.num_classes, model.num_branches, len(scenes)
    np.concatenate([scene.features for scene in scenes], out=ws.features.reshape(-1, model.feature_dim))
    labels = np.array([scene.image_label for scene in scenes])
    sc, sd = _score_stack(model, ws.features, ws.logits, ws.supervisors[:, 0], ws.phi)
    ws.supervisors[:, 1:] = ws.phi[:, :-1]
    phi = ws.phi.reshape(b * k, c + 1, -1)
    y_raw = image_scores(ws.supervisors[:, 0, :c])
    sup = _supervise(scenes, ws.supervisors, phi, schedule, method, seed, iteration) if frozen is None else frozen
    results = midn_loss(y_raw, labels), refinement_losses(sup.targets, phi, sup.zeta), sup
    if not want_grads:
        return results

    # d(loss)/d(logits) for every head, in the row order of model.weights.
    dz, rows = ws.dz, model.weights.shape[0]
    g_y = midn_loss_grad(y_raw, labels)[..., None]
    d_sc, d_sd = g_y * sd, g_y * sc
    np.multiply(sc, d_sc - (d_sc * sc).sum(axis=1, keepdims=True), out=dz[:, :c])
    np.multiply(sd, d_sd - (d_sd * sd).sum(axis=2, keepdims=True), out=dz[:, c : 2 * c])
    refinement_grads(sup.targets, ws.phi, sup.zeta, out=dz[:, 2 * c :].reshape(ws.phi.shape))
    np.matmul(dz, ws.features, out=ws.grads[:, : rows * model.feature_dim].reshape(b, rows, -1))
    np.sum(dz, axis=2, out=ws.grads[:, rows * model.feature_dim :])
    return results


@dataclass(frozen=True)
class TrainConfig(SamplerParams):
    """One experiment: world, model, optimizer, schedule, method flag, and the
    inherited sampling and reweighting hyperparameters."""

    seed: int = bounded(0, "[0, inf)")
    method: str = "opis"
    scenes_per_epoch: int = bounded(200, "[1, inf)")
    epochs: int = bounded(40, "[1, inf)")
    batch_size: int = bounded(2, "[1, inf)")
    learning_rate: float = bounded(0.5, "(0, inf)")
    lr_decay: float = bounded(0.1, "(0, 1]")
    momentum: float = bounded(0.9, "[0, 1)")
    weight_decay: float = bounded(0.0005, "[0, inf)")
    t0_fraction: float = bounded(0.78, "(0, 1)")
    refinements: int = bounded(3, "[1, inf)")
    init_scale: float = bounded(0.01, "[0, inf)")
    eval_scenes: int = bounded(100, "[1, inf)")
    eval_seed: int = bounded(1234, "[0, inf)")
    nms_iou: float = bounded(0.3, "(0, 1)")
    score_floor: float = bounded(1e-3, "[0, 1)")
    iterations_override: int | None = bounded(None, "[2, inf)")
    scene: SceneConfig = field(default_factory=SceneConfig)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.total_iterations < 2:
            raise ValueError(f"need scenes_per_epoch * epochs // batch_size >= 2, got {self.total_iterations}")

    @property
    def total_iterations(self) -> int:
        if self.iterations_override is not None:
            return self.iterations_override
        return self.scenes_per_epoch * self.epochs // self.batch_size

    @property
    def t_0(self) -> int:
        t0 = int(self.t0_fraction * self.total_iterations)
        return min(max(t0, 1), self.total_iterations - 1)

    def schedule(self, iteration: int) -> ScheduleState:
        params = {f.name: getattr(self, f.name) for f in fields(SamplerParams)}
        return ScheduleState(t_n=iteration, t_0=self.t_0, t_1=self.total_iterations, **params)


@dataclass
class IterationRecord:
    iteration: int
    phase: str
    t_progress: float
    mu: float
    zeta_mean: float
    loss_midn: float
    loss_refs: tuple[float, ...]
    pos_count: int
    neg_before: int
    neg_after: int
    wallclock_ms: float


@dataclass
class TrainLog:
    """Per-iteration training trace; CSV serialization is byte-deterministic.

    Wallclock timings are kept out of the main CSV and written to a separate
    sidecar so identical runs produce identical primary outputs.
    """

    num_branches: int
    records: list[IterationRecord] = field(default_factory=list)

    def header(self) -> list[str]:
        cols = ["iteration", "phase", "T", "mu", "zeta_mean", "loss_midn"]
        cols += [f"loss_ref_{k + 1}" for k in range(self.num_branches)]
        cols += ["pos_count", "neg_count_before", "neg_count_after"]
        return cols

    def rows(self) -> list[list[str]]:
        out = []
        for r in self.records:
            row = [str(r.iteration), r.phase, repr(r.t_progress), repr(r.mu), repr(r.zeta_mean), repr(r.loss_midn)]
            row += [repr(v) for v in r.loss_refs]
            row += [str(r.pos_count), str(r.neg_before), str(r.neg_after)]
            out.append(row)
        return out

    def write_csv(self, path) -> None:
        lines = [",".join(self.header())]
        lines += [",".join(row) for row in self.rows()]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_timing_csv(self, path) -> None:
        lines = ["iteration,wallclock_ms"]
        lines += [f"{r.iteration},{r.wallclock_ms:.3f}" for r in self.records]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _batch_indices(config: TrainConfig, n_scenes: int) -> np.ndarray:
    """Seeded epoch shuffles flattened into one consumption order."""
    need = config.total_iterations * config.batch_size
    chunks = []
    for epoch in range(-(-need // n_scenes)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_TAG_SHUFFLE, epoch)))
        chunks.append(rng.permutation(n_scenes))
    return np.concatenate(chunks)[:need]


def train(config: TrainConfig, dataset: Sequence[Scene]) -> tuple[ToyModel, TrainLog]:
    """Two-phase SGD training of the toy model on a scene dataset.

    Phase 1 trains normally (with positive reweighting when the method uses
    it); from iteration t_0 on, instance balance and the attenuated reweighting
    kick in per the method flag, and the learning rate steps down once.
    Parameters, velocity and the gradient sum are each one flat buffer.

    The batch order and every iteration's schedule are planned before the
    loop. Each iteration is one stacked step over its B scenes, in buffers
    made once per run, so every scene must have the same proposal count. Each
    scene's losses and gradient equal its ``scene_pass``'s, summed in order.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    counts = sorted({scene.num_proposals for scene in dataset})
    if len(counts) > 1:
        raise ValueError(f"every scene of a dataset needs the same proposal count, got counts {counts}")
    model = ToyModel.initialize(dataset[0].image_label.shape[0], dataset[0].features.shape[1], config.refinements,
                                config.seed, config.init_scale)
    params = model.flat
    velocity = np.zeros_like(params)
    grad_sum = np.empty_like(params)
    batches = _batch_indices(config, len(dataset)).reshape(-1, config.batch_size).tolist()
    ws = _workspace(model, config.batch_size, counts[0])
    log = TrainLog(num_branches=config.refinements)
    inv_b, k = 1.0 / config.batch_size, config.refinements
    schedules = [config.schedule(it) for it in range(config.total_iterations)]

    for it, (schedule, batch) in enumerate(zip(schedules, batches)):
        start = time.perf_counter()
        if not model.all_finite():
            raise TrainingDivergence("model parameters became non-finite", it)
        try:
            losses_midn, ref_losses, sup = _batch_pass(model, [dataset[i] for i in batch], schedule, config.method,
                                                           config.seed, it, ws)
        except ValueError as exc:
            # Finite parameters can still overflow inside the forward pass.
            raise TrainingDivergence(f"non-finite values while scoring: {exc}", it) from exc

        loss_midn_sum = 0.0
        ref_sums = np.zeros(k)
        grad_sum.fill(0.0)
        for i, lm in enumerate(losses_midn.tolist()):
            loss_midn_sum += lm
            ref_sums += ref_losses[i * k : (i + 1) * k]
            grad_sum += ws.grads[i]

        loss_midn_mean = loss_midn_sum * inv_b
        ref_means = ref_sums * inv_b
        loss = total_loss(loss_midn_mean, ref_means.tolist())
        if not math.isfinite(loss):
            raise TrainingDivergence(f"non-finite loss at iteration {it}", it,
                                     snapshot={"loss_midn": loss_midn_mean, "loss_refs": ref_means.tolist()})

        phase = schedule.phase
        with np.errstate(over="ignore", invalid="ignore"):  # all_finite is checked after every update
            velocity *= config.momentum
            velocity += grad_sum * inv_b + config.weight_decay * params
            params -= config.learning_rate * (config.lr_decay if phase == "finetune" else 1.0) * velocity

        log.records.append(IterationRecord(
            iteration=it, phase=phase, t_progress=schedule.t_progress, mu=schedule.mu,
            zeta_mean=float(sup.zeta.sum() / sup.zeta.size),  # np.mean's bits, without its overhead
            loss_midn=loss_midn_mean, loss_refs=tuple(ref_means.tolist()), pos_count=int(sup.pos_selected.sum()),
            neg_before=int(sup.neg_before.sum()), neg_after=int(sup.neg_after.sum()),
            wallclock_ms=(time.perf_counter() - start) * 1e3,
        ))
    if not model.all_finite():  # the last update, which no iteration checks
        raise TrainingDivergence("model parameters became non-finite", config.total_iterations)
    return model, log


def finite_diff_check(
    model: ToyModel,
    scene: Scene,
    schedule: ScheduleState,
    method: str = "opis",
    seed: int = 0,
    h: float = 1e-6,
) -> float:
    """Central-difference check of every parameter's analytic gradient.

    Supervision (weights, labels, selections, zeta) is built once and frozen
    across perturbations, matching the convention that it is a detached
    pseudo-label. Returns the maximum error relative to max(1, |analytic|, |numeric|).
    """
    iteration = schedule.t_n
    _, _, sup, grads = scene_pass(model, scene, schedule, method, seed, iteration, want_grads=True)

    def loss_of(m: ToyModel) -> float:
        lm2, lrefs2, _, _ = scene_pass(m, scene, schedule, method, seed, iteration, frozen=sup, want_grads=False)
        return total_loss(lm2, lrefs2)

    work = model.copy()
    flat = work.flat
    max_err = 0.0
    for i, analytic in enumerate(grads.flat.tolist()):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_of(work)
        flat[i] = orig - h
        down = loss_of(work)
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
        if err > max_err:
            max_err = err
    return max_err
