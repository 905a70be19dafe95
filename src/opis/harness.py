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
from typing import Callable, Sequence

import numpy as np

from .geometry import pairwise_iou
from .losses import refinement_grads, refinement_losses, total_loss, zeta
from .midn import ScoreSet, image_scores, midn_loss, midn_loss_grad, softmax
from .reweighting import reweight_branch
from .sampling import (
    NegativeSampleDetail,
    SamplerParams,
    SamplerRng,
    ScheduleState,
    _binned_draw,
    bounded,
    check_bounds,
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
    "BranchSupervision",
    "SceneSupervision",
    "ClassBalance",
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
    features: np.ndarray  # (P, D), rows unit-norm
    image_label: np.ndarray  # (C,) 0/1
    gt_boxes: np.ndarray  # (G, 4), evaluation only
    gt_classes: np.ndarray  # (G,), 1-based, evaluation only

    @property
    def num_proposals(self) -> int:
        return self.proposals.shape[0]


def class_prototypes(config: SceneConfig) -> np.ndarray:
    """Fixed orthonormal feature direction per class, shared by all scenes."""
    ss = np.random.SeedSequence(config.prototype_seed, spawn_key=(_TAG_PROTOTYPES,))
    rng = np.random.default_rng(ss)
    g = rng.normal(size=(config.feature_dim, config.num_classes))
    q, _ = np.linalg.qr(g)
    return q[:, : config.num_classes].T.copy()


def _random_gt_boxes(config: SceneConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    w = rng.uniform(config.object_size_min, config.object_size_max, size=count)
    h = rng.uniform(config.object_size_min, config.object_size_max, size=count)
    cx = rng.uniform(w / 2, config.world_size - w / 2)
    cy = rng.uniform(h / 2, config.world_size - h / 2)
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def _jittered_proposals(config: SceneConfig, rng: np.random.Generator, gt: np.ndarray, count: int) -> np.ndarray:
    owners = rng.integers(0, gt.shape[0], size=count)
    base = gt[owners]
    scale = np.stack(
        [base[:, 2] - base[:, 0], base[:, 3] - base[:, 1], base[:, 2] - base[:, 0], base[:, 3] - base[:, 1]],
        axis=1,
    )
    boxes = base + rng.normal(size=(count, 4)) * (config.jitter * scale)
    bad = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    while np.any(bad):
        idx = np.flatnonzero(bad)
        boxes[idx] = base[idx] + rng.normal(size=(idx.size, 4)) * (config.jitter * scale[idx])
        bad = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    return boxes


def _clutter_proposals(config: SceneConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    w = rng.uniform(config.clutter_size_min, config.clutter_size_max, size=count)
    h = rng.uniform(config.clutter_size_min, config.clutter_size_max, size=count)
    cx = rng.uniform(w / 2, config.world_size - w / 2)
    cy = rng.uniform(h / 2, config.world_size - h / 2)
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def generate_scene(config: SceneConfig, rng: np.random.Generator, scene_id: int = 0) -> Scene:
    """Sample one scene; proposal sets are redrawn until every ground-truth
    object is covered by at least one proposal at the configured IoU."""
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    gt_classes = rng.integers(1, config.num_classes + 1, size=n_obj).astype(np.int64)
    gt_boxes = _random_gt_boxes(config, rng, n_obj)

    n_clutter = int(round(config.num_proposals * config.clutter_rate))
    n_jitter = config.num_proposals - n_clutter
    for _ in range(config.max_regen_attempts):
        parts = []
        if n_jitter:
            parts.append(_jittered_proposals(config, rng, gt_boxes, n_jitter))
        if n_clutter:
            parts.append(_clutter_proposals(config, rng, n_clutter))
        proposals = np.concatenate(parts, axis=0)
        overlap = pairwise_iou(gt_boxes, proposals).T
        if np.all(overlap.max(axis=0) >= config.coverage_iou):
            break
    else:
        raise RuntimeError(f"could not cover all objects at coverage_iou = {config.coverage_iou}, jitter = "
                           f"{config.jitter} in max_regen_attempts = {config.max_regen_attempts} proposal redraws")

    best_gt = overlap.argmax(axis=1)
    best_iou = overlap[np.arange(proposals.shape[0]), best_gt]
    protos = class_prototypes(config)
    features = best_iou[:, None] * protos[gt_classes[best_gt] - 1]
    features = features + rng.normal(size=features.shape) * (config.feature_noise / math.sqrt(config.feature_dim))
    features /= np.linalg.norm(features, axis=1, keepdims=True)

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
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_TAG_SCENE, i)))
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
        for w in [model.w_cls, model.w_det, *model.w_ref]:
            w[...] = rng.normal(size=w.shape) * init_scale
        return model

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = [("w_cls", self.w_cls), ("b_cls", self.b_cls), ("w_det", self.w_det), ("b_det", self.b_det)]
        for k in range(self.num_branches):
            items.append((f"w_ref_{k + 1}", self.w_ref[k]))
            items.append((f"b_ref_{k + 1}", self.b_ref[k]))
        return items

    def __getitem__(self, name: str) -> np.ndarray:
        """The parameter array named as in ``param_items``."""
        return dict(self.param_items())[name]

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


def forward(model: ToyModel, scene: Scene) -> ScoreSet:
    """Score every proposal with every head and compose the MIDN streams."""
    c, k, p = model.num_classes, model.num_branches, scene.num_proposals
    logits = model.weights @ scene.features.T + model.biases[:, None]
    if not np.isfinite(logits).all():
        raise ValueError("logits contains non-finite entries")
    x_cls, x_det = logits[:c], logits[c : 2 * c]
    ref_logits = logits[2 * c :].reshape(k, c + 1, p)
    sc = softmax(x_cls, axis=0)
    sd = softmax(x_det, axis=1)
    phis = np.empty((k + 1, c + 1, p))
    x_r = np.multiply(sc, sd, out=phis[0, :c])
    phis[0, c] = 0.0
    softmax(ref_logits, axis=1, out=phis[1:])
    return ScoreSet(x_cls=x_cls, x_det=x_det, class_probs=sc, det_probs=sd, x_r=x_r, phis=phis, ref_logits=ref_logits)


@dataclass
class ClassBalance:
    """What progressive instance balance did with one present class.

    ``outcome`` is "absorbed" (a lower class's identical center took all of
    this class's proposals), "center only" or "all positives" (the class had
    no negatives, so the neglect rule decided), or "sampled", in which case
    ``detail`` traces the negative sampler.
    """

    n_pos: int
    n_neg: int
    outcome: str
    detail: NegativeSampleDetail | None = None


@dataclass
class BranchSupervision:
    """Supervision for one branch of one scene, plus sampling bookkeeping.

    ``balance`` maps each present class id, in ascending order, to what
    instance balance did with it; it is empty when balance is inactive.
    """

    targets: SupervisionTargets
    zeta: float
    pos_selected: int
    neg_before: int
    neg_after: int
    balance: dict[int, ClassBalance] = field(default_factory=dict)


@dataclass
class SceneSupervision(Sequence[BranchSupervision]):
    """Supervision for all K branches of one scene, as (K, ...) arrays.

    Item k-1 is branch k's ``BranchSupervision``, whose targets are views of
    row k-1 of the stack. ``balance[k-1]`` is branch k's ``balance``; training
    never reads it, so ``balance_records`` builds it on first access.
    """

    targets: SupervisionTargets  # (K, P)
    zeta: np.ndarray  # (K,)
    pos_selected: np.ndarray  # (K,)
    neg_before: np.ndarray  # (K,)
    neg_after: np.ndarray  # (K,)
    balance_records: Callable[[], list[dict[int, ClassBalance]]] = field(repr=False, compare=False)

    @functools.cached_property
    def balance(self) -> list[dict[int, ClassBalance]]:
        return self.balance_records()

    def __len__(self) -> int:
        return self.zeta.shape[0]

    def __getitem__(self, k: int) -> BranchSupervision:
        return BranchSupervision(
            targets=self.targets.branch(k),
            zeta=float(self.zeta[k]),
            pos_selected=int(self.pos_selected[k]),
            neg_before=int(self.neg_before[k]),
            neg_after=int(self.neg_after[k]),
            balance=self.balance[k],
        )

    @classmethod
    def stack(cls, branches: Sequence[BranchSupervision]) -> "SceneSupervision":
        if isinstance(branches, SceneSupervision):
            return branches
        t = [b.targets for b in branches]
        targets = SupervisionTargets(
            *[np.stack([getattr(x, name) for x in t])
              for name in ("assigned_class", "max_iou", "source_class", "weight", "selected")],
            num_classes=t[0].num_classes,
        )
        return cls(
            targets=targets,
            zeta=np.array([b.zeta for b in branches]),
            pos_selected=np.array([b.pos_selected for b in branches]),
            neg_before=np.array([b.neg_before for b in branches]),
            neg_after=np.array([b.neg_after for b in branches]),
            balance_records=functools.partial(list, [b.balance for b in branches]),
        )


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
    active.

    Branch k is supervised by ``scores.phis[k-1]``. Every stage works on the
    scene's (K, P) arrays. Instance balance treats group k * (C+1) + c, class
    c of branch k+1, as a whole: a group with positives keeps all of them,
    unless it has no negatives and the neglect rule fires, and keeps all its
    negatives unless its target floor(mu * n_pos) is below their supply. Only
    then does it draw, on its own (scene, iteration, branch, class)
    ``SamplerRng`` stream, so the draws are those of the per-class sampler.
    """
    supervisors = scores.supervisors
    num_branches, num_proposals = supervisors.shape[0], scene.num_proposals
    classes, centers = cluster_center_indices(supervisors, scene.image_label)
    targets = assign_branches(classes, centers, scene.proposals, supervisors, schedule.lambda_ig, schedule.lambda_ng)
    negative = targets.assigned_class == targets.num_classes + 1
    neg_before = np.count_nonzero(negative, axis=1)
    neg_after = neg_before
    zetas = np.ones(num_branches)

    balance = lambda: [{} for _ in range(num_branches)]
    if schedule.phase == "finetune" and method in ("pib_only", "opis"):
        mu, lambda_ig, lambda_ng, stride = schedule.mu, schedule.lambda_ig, schedule.lambda_ng, targets.num_classes + 1
        labeled, source, max_iou = targets.assigned_class > 0, targets.source_class, targets.max_iou
        group = source + stride * np.arange(num_branches)[:, None]
        n_neg = np.bincount(group[negative], minlength=num_branches * stride)
        n_pos = np.bincount(group[labeled], minlength=num_branches * stride) - n_neg
        has_pos = n_pos > 0
        # Once mu > P >= n_neg, floor(mu * n_pos) >= n_neg for every n_pos >= 1,
        # so capping mu at P decides every group alike and cannot overflow.
        draws = has_pos & (np.floor(min(mu, num_proposals) * n_pos) < n_neg)
        keep = labeled & (~negative | (has_pos & ~draws)[group])

        def draw(g: int, rng: np.random.Generator | None) -> NegativeSampleDetail:
            k, c = divmod(g, stride)
            neg_c = (negative[k] & (source[k] == c)).nonzero()[0]
            return _binned_draw(neg_c, max_iou[k, neg_c], int(n_pos[g]), mu, lambda_ig, lambda_ng, rng)

        details: dict[int, NegativeSampleDetail] = {}
        for g in draws.nonzero()[0].tolist():
            k, c = divmod(g, stride)
            details[g] = draw(g, SamplerRng(seed, scene.scene_id, iteration, k + 1, c).generator())
            keep[k, details[g].selected] = True

        class_list = classes.tolist()
        neglected: dict[int, str] = {}
        for g in (has_pos & (n_neg == 0)).nonzero()[0].tolist():
            k, c = divmod(g, stride)
            pos_c = (targets.assigned_class[k] == c).nonzero()[0]
            kept = reselect_positives(pos_c, supervisors[k], c, int(centers[k, class_list.index(c)]), schedule.neglect)
            # The rule returns pos_c itself unless it fires.
            neglected[g] = "all positives" if kept is pos_c else "center only"
            keep[k, pos_c] = False
            keep[k, kept] = True

        def balance() -> list[dict[int, ClassBalance]]:
            records: list[dict[int, ClassBalance]] = [{} for _ in range(num_branches)]
            for k in range(num_branches):
                for c in class_list:
                    g = k * stride + c
                    n_p, n_q = int(n_pos[g]), int(n_neg[g])
                    if n_p == 0:
                        # Another class's identical center box absorbed this
                        # class's proposals; there is nothing to balance.
                        records[k][c] = ClassBalance(0, n_q, "absorbed")
                    elif n_q == 0:
                        records[k][c] = ClassBalance(n_p, 0, neglected[g])
                    else:
                        detail = details[g] if g in details else draw(g, None)
                        records[k][c] = ClassBalance(n_p, n_q, "sampled", detail)
            return records

        neg_after = (keep & negative).sum(axis=1)
        targets = keep_selected(targets, keep)
        zetas = zeta("finetune", num_proposals, keep.sum(axis=1))

    if method in ("pir_only", "opis"):
        attenuated = method == "opis" and schedule.phase == "finetune"
        targets = reweight_branch(targets, scores.phi, schedule, attenuated=attenuated)

    return SceneSupervision(
        targets=targets,
        zeta=zetas,
        pos_selected=np.count_nonzero(targets.selected & targets.positive_mask(), axis=1),
        neg_before=neg_before,
        neg_after=neg_after,
        balance_records=balance,
    )


def build_branch_supervision(
    scene: Scene,
    scores: ScoreSet,
    branch: int,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
) -> BranchSupervision:
    """Supervision of one 1-based branch: a view of ``supervise_scene``."""
    scores.phi_prev(branch)  # validates the branch number
    return supervise_scene(scene, scores, schedule, method, seed, iteration)[branch - 1]


def scene_pass(
    model: ToyModel,
    scene: Scene,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
    frozen: Sequence[BranchSupervision] | None = None,
    want_grads: bool = True,
) -> tuple[float, list[float], SceneSupervision, ToyModel | None]:
    """Forward pass, supervision of all branches, losses, and analytic gradients.

    Supervision weights and selections are treated as constants: gradients flow
    through the live softmax scores only. Passing ``frozen`` supervision reuses
    targets from a previous pass (used by the finite-difference checker). The
    gradient comes back in the model's layout: ``grads.flat`` matches
    ``model.flat`` and ``grads["w_cls"]`` names one parameter.
    """
    scores = forward(model, scene)
    y_raw = image_scores(scores.x_r)
    loss_midn = midn_loss(y_raw, scene.image_label)
    if frozen is None:
        sup = supervise_scene(scene, scores, schedule, method, seed, iteration)
    else:
        sup = SceneSupervision.stack(frozen)
    ref_losses = refinement_losses(sup.targets, scores.phi, sup.zeta)
    if not want_grads:
        return loss_midn, ref_losses, sup, None

    # d(loss)/d(logits) for every head, in the row order of model.weights.
    c, k, p = model.num_classes, model.num_branches, scene.num_proposals
    dz = np.empty((model.weights.shape[0], p))
    g_y = midn_loss_grad(y_raw, scene.image_label)[:, None]
    sc, sd = scores.class_probs, scores.det_probs
    d_sc = g_y * sd
    d_sd = g_y * sc
    np.multiply(sc, d_sc - (d_sc * sc).sum(axis=0, keepdims=True), out=dz[:c])
    np.multiply(sd, d_sd - (d_sd * sd).sum(axis=1, keepdims=True), out=dz[c : 2 * c])
    refinement_grads(sup.targets, scores.phi, sup.zeta, out=dz[2 * c :].reshape(k, c + 1, p))
    grads = ToyModel.from_flat(np.empty_like(model.flat), c, model.feature_dim, k)
    np.matmul(dz, scene.features, out=grads.weights)
    np.sum(dz, axis=1, out=grads.biases)
    return loss_midn, ref_losses, sup, grads


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
    """
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    scene0 = dataset[0]
    model = ToyModel.initialize(
        num_classes=scene0.image_label.shape[0],
        feature_dim=scene0.features.shape[1],
        num_branches=config.refinements,
        seed=config.seed,
        init_scale=config.init_scale,
    )
    params = model.flat
    velocity = np.zeros_like(params)
    grad_sum = np.empty_like(params)
    order = _batch_indices(config, len(dataset))
    log = TrainLog(num_branches=config.refinements)
    inv_b = 1.0 / config.batch_size

    for it in range(config.total_iterations):
        start = time.perf_counter()
        if not model.all_finite():
            raise TrainingDivergence("model parameters became non-finite", it)
        schedule = config.schedule(it)
        batch = order[it * config.batch_size : (it + 1) * config.batch_size]

        loss_midn_sum = 0.0
        ref_sums = np.zeros(config.refinements)
        grad_sum.fill(0.0)
        zetas: list[np.ndarray] = []
        pos_count = neg_before = neg_after = 0
        for scene_idx in batch:
            scene = dataset[int(scene_idx)]
            try:
                lm, lrefs, sup, grads = scene_pass(model, scene, schedule, config.method, config.seed, it)
            except ValueError as exc:
                # Finite parameters can still overflow inside the forward pass.
                raise TrainingDivergence(f"non-finite values while scoring: {exc}", it) from exc
            loss_midn_sum += lm
            ref_sums += lrefs
            grad_sum += grads.flat
            zetas.append(sup.zeta)
            pos_count += int(sup.pos_selected.sum())
            neg_before += int(sup.neg_before.sum())
            neg_after += int(sup.neg_after.sum())

        loss_midn_mean = loss_midn_sum * inv_b
        ref_means = ref_sums * inv_b
        loss = total_loss(loss_midn_mean, ref_means.tolist())
        if not math.isfinite(loss):
            raise TrainingDivergence(
                f"non-finite loss at iteration {it}",
                it,
                snapshot={"loss_midn": loss_midn_mean, "loss_refs": ref_means.tolist()},
            )

        lr = config.learning_rate * (config.lr_decay if schedule.phase == "finetune" else 1.0)
        velocity *= config.momentum
        velocity += grad_sum * inv_b + config.weight_decay * params
        params -= lr * velocity

        log.records.append(
            IterationRecord(
                iteration=it,
                phase=schedule.phase,
                t_progress=schedule.t_progress,
                mu=schedule.mu,
                zeta_mean=float(np.mean(np.concatenate(zetas))),
                loss_midn=loss_midn_mean,
                loss_refs=tuple(ref_means.tolist()),
                pos_count=pos_count,
                neg_before=neg_before,
                neg_after=neg_after,
                wallclock_ms=(time.perf_counter() - start) * 1e3,
            )
        )
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
