"""Deterministic synthetic detection world plus a tiny trainable model.

A Scene stands in for one weakly labeled image: proposal boxes, per-proposal
features correlated with ground-truth overlap, an image-level label vector,
and hidden ground-truth boxes used only by evaluation. The ToyModel is one
linear map per head, which is the smallest thing that makes every branch
trainable and gradient-checkable. All randomness derives from explicit seeds
via tagged SeedSequence streams.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import pairwise_iou
from .losses import refinement_loss, refinement_loss_grad, total_loss, zeta
from .midn import (
    ScoreSet,
    compose_instance_scores,
    image_scores,
    midn_loss,
    midn_loss_grad,
    phi0_from_instance_scores,
    softmax_over_classes,
    softmax_over_instances,
)
from .reweighting import reweight_branch
from .sampling import (
    NegativeSampleDetail,
    SamplerRng,
    ScheduleState,
    apply_selection_mask,
    reselect_positives,
    sample_negatives_detail,
)
from .supervision import SupervisionTargets, assign_labels, select_cluster_centers

__all__ = [
    "METHODS",
    "SceneConfig",
    "Scene",
    "ToyModel",
    "TrainConfig",
    "TrainLog",
    "IterationRecord",
    "BranchSupervision",
    "ClassBalance",
    "TrainingDivergence",
    "class_prototypes",
    "generate_scene",
    "generate_dataset",
    "forward",
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

    num_classes: int = 4
    feature_dim: int = 16
    num_proposals: int = 150
    clutter_rate: float = 0.3
    jitter: float = 0.45
    feature_noise: float = 0.35
    min_objects: int = 1
    max_objects: int = 3
    world_size: float = 100.0
    object_size_min: float = 14.0
    object_size_max: float = 34.0
    clutter_size_min: float = 5.0
    clutter_size_max: float = 40.0
    coverage_iou: float = 0.5
    max_regen_attempts: int = 100
    prototype_seed: int = 20202

    def __post_init__(self) -> None:
        if self.num_classes < 1 or self.feature_dim < self.num_classes:
            raise ValueError("need num_classes >= 1 and feature_dim >= num_classes")
        if self.num_proposals < 1:
            raise ValueError("need at least one proposal")
        if not 0.0 <= self.clutter_rate < 1.0:
            raise ValueError(f"clutter_rate must lie in [0, 1), got {self.clutter_rate}")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("need 1 <= min_objects <= max_objects")


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
        overlap = pairwise_iou(proposals, gt_boxes)
        if np.all(overlap.max(axis=0) >= config.coverage_iou):
            break
    else:
        raise RuntimeError(f"could not cover all objects after {config.max_regen_attempts} proposal redraws")

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


@dataclass
class ToyModel:
    """Linear scoring heads: two MIDN streams plus K refinement classifiers."""

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_det: np.ndarray
    b_det: np.ndarray
    w_ref: list[np.ndarray]
    b_ref: list[np.ndarray]

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w_cls.shape[1]

    @property
    def num_branches(self) -> int:
        return len(self.w_ref)

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
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_TAG_MODEL,)))
        def mat(rows: int) -> np.ndarray:
            return rng.normal(size=(rows, feature_dim)) * init_scale
        return cls(
            w_cls=mat(num_classes),
            b_cls=np.zeros(num_classes),
            w_det=mat(num_classes),
            b_det=np.zeros(num_classes),
            w_ref=[mat(num_classes + 1) for _ in range(num_branches)],
            b_ref=[np.zeros(num_classes + 1) for _ in range(num_branches)],
        )

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = [("w_cls", self.w_cls), ("b_cls", self.b_cls), ("w_det", self.w_det), ("b_det", self.b_det)]
        for k in range(self.num_branches):
            items.append((f"w_ref_{k + 1}", self.w_ref[k]))
            items.append((f"b_ref_{k + 1}", self.b_ref[k]))
        return items

    def copy(self) -> "ToyModel":
        return ToyModel(
            w_cls=self.w_cls.copy(),
            b_cls=self.b_cls.copy(),
            w_det=self.w_det.copy(),
            b_det=self.b_det.copy(),
            w_ref=[w.copy() for w in self.w_ref],
            b_ref=[b.copy() for b in self.b_ref],
        )

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for _, a in self.param_items())

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
    ft = scene.features.T
    x_cls = model.w_cls @ ft + model.b_cls[:, None]
    x_det = model.w_det @ ft + model.b_det[:, None]
    sc = softmax_over_classes(x_cls)
    sd = softmax_over_instances(x_det)
    x_r = compose_instance_scores(sc, sd)
    ref_logits = [w @ ft + b[:, None] for w, b in zip(model.w_ref, model.b_ref)]
    phi = [softmax_over_classes(z) for z in ref_logits]
    return ScoreSet(
        x_cls=x_cls,
        x_det=x_det,
        class_probs=sc,
        det_probs=sd,
        x_r=x_r,
        phi0=phi0_from_instance_scores(x_r),
        phi=phi,
        ref_logits=ref_logits,
    )


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


def _pir_mode(method: str, phase: str) -> str | None:
    if method == "pir_only":
        return "normal"
    if method == "opis":
        return "attenuated" if phase == "finetune" else "normal"
    return None


def build_branch_supervision(
    scene: Scene,
    scores: ScoreSet,
    branch: int,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
) -> BranchSupervision:
    """Full supervision pipeline for one branch: assignment, progressive
    instance balance when active, then positive reweighting when active."""
    phi_prev = scores.phi_prev(branch)
    phi_k = scores.phi[branch - 1]
    centers = select_cluster_centers(phi_prev, scene.image_label)
    targets, assignment = assign_labels(centers, scene.proposals, phi_prev, schedule.lambda_ig, schedule.lambda_ng)
    neg_before = int(np.count_nonzero(targets.assigned_class == targets.num_classes + 1))
    neg_after = neg_before
    zeta_k = 1.0

    balance: dict[int, ClassBalance] = {}
    pib_active = schedule.phase == "finetune" and method in ("pib_only", "opis")
    if pib_active:
        kept_pos: list[np.ndarray] = []
        kept_neg: list[np.ndarray] = []
        for c in sorted(centers):
            pos_c = assignment.positives[c]
            neg_c = assignment.negatives[c]
            if pos_c.size == 0:
                # Another class's identical center box absorbed this class's
                # proposals; there is nothing to balance.
                balance[c] = ClassBalance(0, int(neg_c.size), "absorbed")
                continue
            if neg_c.size > 0:
                rng = SamplerRng(seed, scene.scene_id, iteration, branch, c).generator()
                detail = sample_negatives_detail(
                    neg_c,
                    targets.max_iou[neg_c],
                    pos_c.size,
                    schedule.mu,
                    schedule.lambda_ig,
                    schedule.lambda_ng,
                    rng,
                    schedule.n_bins,
                )
                balance[c] = ClassBalance(int(pos_c.size), int(neg_c.size), "sampled", detail)
                kept_neg.append(detail.selected)
                kept_pos.append(pos_c)
            else:
                kept = reselect_positives(pos_c, phi_prev, c, centers[c], schedule.neglect)
                # The rule returns pos_c itself unless it fires.
                balance[c] = ClassBalance(int(pos_c.size), 0, "all positives" if kept is pos_c else "center only")
                kept_pos.append(kept)
        sel_pos = np.concatenate(kept_pos) if kept_pos else np.empty(0, dtype=np.int64)
        sel_neg = np.concatenate(kept_neg) if kept_neg else np.empty(0, dtype=np.int64)
        targets = apply_selection_mask(targets, sel_pos, sel_neg)
        neg_after = int(sel_neg.size)
        zeta_k = zeta("finetune", targets.num_proposals, int(sel_pos.size + sel_neg.size))

    mode = _pir_mode(method, schedule.phase)
    if mode is not None:
        targets = reweight_branch(targets, phi_k, schedule, attenuated=(mode == "attenuated"))

    pos_selected = int(
        np.count_nonzero(targets.selected & (targets.assigned_class >= 1) & (targets.assigned_class <= targets.num_classes))
    )
    return BranchSupervision(
        targets=targets,
        zeta=zeta_k,
        pos_selected=pos_selected,
        neg_before=neg_before,
        neg_after=neg_after,
        balance=balance,
    )


def scene_pass(
    model: ToyModel,
    scene: Scene,
    schedule: ScheduleState,
    method: str,
    seed: int,
    iteration: int,
    frozen: Sequence[BranchSupervision] | None = None,
    want_grads: bool = True,
) -> tuple[float, list[float], list[BranchSupervision], dict[str, np.ndarray] | None]:
    """Forward pass, per-branch supervision, losses, and analytic gradients.

    Supervision weights and selections are treated as constants: gradients flow
    through the live softmax scores only. Passing ``frozen`` supervision reuses
    targets from a previous pass (used by the finite-difference checker).
    """
    scores = forward(model, scene)
    y_raw = image_scores(scores.x_r)
    loss_midn = midn_loss(y_raw, scene.image_label)
    if frozen is None:
        sup = [
            build_branch_supervision(scene, scores, k, schedule, method, seed, iteration)
            for k in range(1, model.num_branches + 1)
        ]
    else:
        sup = list(frozen)
    ref_losses = [refinement_loss(s.targets, scores.phi[k], s.zeta) for k, s in enumerate(sup)]
    if not want_grads:
        return loss_midn, ref_losses, sup, None

    grads: dict[str, np.ndarray] = {}
    g_y = midn_loss_grad(y_raw, scene.image_label)
    d_xr = np.broadcast_to(g_y[:, None], scores.x_r.shape)
    d_sc = d_xr * scores.det_probs
    d_sd = d_xr * scores.class_probs
    sc, sd = scores.class_probs, scores.det_probs
    dz_cls = sc * (d_sc - (d_sc * sc).sum(axis=0, keepdims=True))
    dz_det = sd * (d_sd - (d_sd * sd).sum(axis=1, keepdims=True))
    grads["w_cls"] = dz_cls @ scene.features
    grads["b_cls"] = dz_cls.sum(axis=1)
    grads["w_det"] = dz_det @ scene.features
    grads["b_det"] = dz_det.sum(axis=1)
    for k, s in enumerate(sup):
        g_k = refinement_loss_grad(s.targets, scores.ref_logits[k], s.zeta)
        grads[f"w_ref_{k + 1}"] = g_k @ scene.features
        grads[f"b_ref_{k + 1}"] = g_k.sum(axis=1)
    return loss_midn, ref_losses, sup, grads


@dataclass(frozen=True)
class TrainConfig:
    """One experiment: world, model, optimizer, schedule, and method flag."""

    seed: int = 0
    method: str = "opis"
    scenes_per_epoch: int = 200
    epochs: int = 40
    batch_size: int = 2
    learning_rate: float = 0.5
    lr_decay: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    t0_fraction: float = 0.78
    refinements: int = 3
    init_scale: float = 0.01
    mu_s: float = 20.0
    alpha: float = 0.85
    i_0: float = 0.05
    lambda_ig: float = 0.1
    lambda_ng: float = 0.5
    beta: float = 0.5
    gamma: float = 0.9
    eval_scenes: int = 100
    eval_seed: int = 1234
    nms_iou: float = 0.3
    score_floor: float = 1e-3
    iterations_override: int | None = None
    scene: SceneConfig = field(default_factory=SceneConfig)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.seed < 0 or self.eval_seed < 0:
            raise ValueError("seeds must be non-negative")
        if self.batch_size < 1 or self.scenes_per_epoch < 1 or self.epochs < 1:
            raise ValueError("batch_size, scenes_per_epoch, and epochs must be >= 1")
        if not 0.0 < self.t0_fraction < 1.0:
            raise ValueError(f"t0_fraction must lie in (0, 1), got {self.t0_fraction}")
        if self.refinements < 1:
            raise ValueError("need at least one refinement branch")
        if self.iterations_override is not None and self.iterations_override < 2:
            raise ValueError("iterations_override must be >= 2")
        # ScheduleState declares the sampler and reweighting bounds; build one
        # so a bad value fails here rather than mid-training.
        self.schedule(0)

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
        return ScheduleState(
            t_n=iteration,
            t_0=self.t_0,
            t_1=self.total_iterations,
            mu_s=self.mu_s,
            alpha=self.alpha,
            i_0=self.i_0,
            lambda_ig=self.lambda_ig,
            lambda_ng=self.lambda_ng,
            beta=self.beta,
            gamma=self.gamma,
        )


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
    epoch = 0
    while sum(c.size for c in chunks) < need:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_TAG_SHUFFLE, epoch)))
        chunks.append(rng.permutation(n_scenes))
        epoch += 1
    return np.concatenate(chunks)[:need]


def train(config: TrainConfig, dataset: Sequence[Scene]) -> tuple[ToyModel, TrainLog]:
    """Two-phase SGD training of the toy model on a scene dataset.

    Phase 1 trains normally (with positive reweighting when the method uses
    it); from iteration t_0 on, instance balance and the attenuated reweighting
    kick in per the method flag, and the learning rate steps down once.
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
    velocity = {name: np.zeros_like(arr) for name, arr in model.param_items()}
    order = _batch_indices(config, len(dataset))
    log = TrainLog(num_branches=config.refinements)

    for it in range(config.total_iterations):
        start = time.perf_counter()
        if not model.all_finite():
            raise TrainingDivergence("model parameters became non-finite", it)
        schedule = config.schedule(it)
        batch = order[it * config.batch_size : (it + 1) * config.batch_size]

        loss_midn_sum = 0.0
        ref_sums = np.zeros(config.refinements)
        grad_sums: dict[str, np.ndarray] = {name: np.zeros_like(arr) for name, arr in model.param_items()}
        zeta_vals: list[float] = []
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
            for name in grad_sums:
                grad_sums[name] += grads[name]
            for s in sup:
                zeta_vals.append(s.zeta)
                pos_count += s.pos_selected
                neg_before += s.neg_before
                neg_after += s.neg_after

        inv_b = 1.0 / config.batch_size
        loss_midn_mean = loss_midn_sum * inv_b
        ref_means = ref_sums * inv_b
        loss = total_loss(loss_midn_mean, ref_means.tolist())
        if not math.isfinite(loss):
            raise TrainingDivergence(
                f"non-finite loss at iteration {it}",
                it,
                snapshot={"loss_midn": loss_midn_mean, "loss_refs": ref_means.tolist()},
            )

        lr = config.learning_rate * (config.lr_decay if it >= config.t_0 else 1.0)
        for name, arr in model.param_items():
            g = grad_sums[name] * inv_b + config.weight_decay * arr
            v = velocity[name]
            v *= config.momentum
            v += g
            arr -= lr * v

        log.records.append(
            IterationRecord(
                iteration=it,
                phase=schedule.phase,
                t_progress=schedule.t_progress,
                mu=schedule.mu,
                zeta_mean=float(np.mean(zeta_vals)),
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
    lm, lrefs, sup, grads = scene_pass(model, scene, schedule, method, seed, iteration, want_grads=True)

    def loss_of(m: ToyModel) -> float:
        lm2, lrefs2, _, _ = scene_pass(m, scene, schedule, method, seed, iteration, frozen=sup, want_grads=False)
        return total_loss(lm2, lrefs2)

    work = model.copy()
    arrays = dict(work.param_items())
    max_err = 0.0
    for name, g in grads.items():
        arr = arrays[name]
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_of(work)
            flat[i] = orig - h
            down = loss_of(work)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(numeric - gflat[i]) / max(1.0, abs(numeric), abs(gflat[i]))
            if err > max_err:
                max_err = err
    return max_err
