"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line. Tolerances are pinned here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines stream.
"""

import functools
import math
import multiprocessing
import os
import statistics
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from opis.cli import main as cli_main
from opis.evaluation import corloc, evaluate_scenes, voc_ap
from opis.geometry import BBox, ScoredBox, iou
from opis.harness import (
    SceneConfig,
    ToyModel,
    TrainConfig,
    finite_diff_check,
    generate_dataset,
    generate_scene,
    train,
)
from opis.midn import (
    compose_instance_scores,
    image_scores,
    softmax_over_classes,
    softmax_over_instances,
)
from opis.sampling import (
    SamplerRng,
    ScheduleState,
    ratio_mu,
    reselect_positives,
    sample_negatives,
)
from opis.supervision import assign_labels, select_cluster_centers
from opis.reweighting import reweight_attenuated, reweight_normal


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:02d} {name}: FAIL")
                raise
            print(f"[acceptance] criterion {num:02d} {name}: PASS")
            return result

        return wrapper

    return deco


def seeded(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@criterion(1, "schedule exactness")
def test_criterion_01_schedule_exactness():
    assert ratio_mu(20.0, 0.0) == 20.0
    assert ratio_mu(20.0, 1.0) == 4.0
    for i in range(11):
        t = i / 10.0
        assert abs(ratio_mu(20.0, t) - (20.0 - 16.0 * t)) <= 1e-12


@criterion(2, "phase-boundary reweighting continuity")
def test_criterion_02_phase_boundary_continuity():
    rng = seeded(202)
    for _ in range(10_000):
        phi, i_r, beta, center = rng.uniform(size=4)
        gamma = float(rng.uniform(0.0, 3.0))
        assert reweight_attenuated(phi, i_r, beta, center, gamma, 0.0) == reweight_normal(
            phi, i_r, beta, center
        )


def _negative_pool(rng, per_bin, lam_ig=0.1, lam_ng=0.5):
    width = (lam_ng - lam_ig) / 4
    ious = np.concatenate(
        [
            rng.uniform(lam_ig + j * width + 1e-9, lam_ig + (j + 1) * width - 1e-9, size=n)
            for j, n in enumerate(per_bin)
        ]
    )
    return np.arange(ious.size, dtype=np.int64), ious


@criterion(3, "sampler count law")
def test_criterion_03_sampler_count_law():
    rng = seeded(303)
    for trial in range(1000):
        per_bin = rng.integers(0, 50, size=4)
        if per_bin.sum() == 0:
            per_bin[0] = 1
        indices, ious = _negative_pool(rng, per_bin.tolist())
        n_pos = int(rng.integers(1, 15))
        mu = float(rng.uniform(4.0, 25.0))
        srng = SamplerRng(303, 0, trial, 1, 1).generator()
        out = sample_negatives(indices, ious, n_pos, mu, 0.1, 0.5, srng)

        # independent two-stage bookkeeping oracle
        supply = int(per_bin.sum())
        target = math.floor(mu * n_pos)
        if target >= supply:
            expected = supply
        else:
            stage1 = sum(min(n_pos, int(b)) for b in per_bin)
            expected = stage1 + (target - stage1)
        assert out.size == expected == min(target, supply)
        assert np.unique(out).size == out.size


@criterion(4, "bin uniformity")
def test_criterion_04_bin_uniformity():
    rng = seeded(404)
    indices, ious = _negative_pool(rng, [100, 100, 100, 100])
    n_pos, mu = 10, 4.0  # floor(mu * n_pos) = 40 = 4 bins x n_pos: stage 1 only
    counts = np.zeros(400)
    trials = 10_000
    for t in range(trials):
        srng = SamplerRng(404, 0, t, 1, 1).generator()
        out = sample_negatives(indices, ious, n_pos, mu, 0.1, 0.5, srng)
        counts[out] += 1
    freq = counts / trials
    for j in range(4):
        bin_freq = freq[j * 100 : (j + 1) * 100]
        assert np.all(np.abs(bin_freq - 0.10) <= 0.01), f"bin {j}: {bin_freq.min()}..{bin_freq.max()}"


@criterion(5, "label-assignment oracle equivalence")
def test_criterion_05_label_assignment_oracle():
    rng = seeded(505)
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        num_classes = int(rng.integers(1, 5))
        x1 = rng.uniform(0, 80, size=n)
        y1 = rng.uniform(0, 80, size=n)
        w = rng.uniform(2, 40, size=n)
        h = rng.uniform(2, 40, size=n)
        boxes = np.stack([x1, y1, x1 + w, y1 + h], axis=1)
        phi_prev = softmax_over_classes(rng.normal(size=(num_classes + 1, n)))
        label = np.zeros(num_classes, dtype=np.int8)
        label[rng.integers(0, num_classes)] = 1
        label[(rng.uniform(size=num_classes) < 0.4)] = 1
        lam_ig = float(rng.uniform(0.0, 0.3))
        lam_ng = float(rng.uniform(lam_ig + 0.05, 0.95))
        centers = select_cluster_centers(phi_prev, label)
        targets, _ = assign_labels(centers, boxes, phi_prev, lam_ig, lam_ng)

        for r in range(n):
            best_iou, best_class = -1.0, 0
            for c in sorted(centers):
                v = iou(BBox(*boxes[r]), BBox(*boxes[centers[c]]))
                if v > best_iou:
                    best_iou, best_class = v, c
            if best_iou >= lam_ng:
                status = best_class
                weight = phi_prev[best_class - 1, centers[best_class]]
            elif best_iou <= lam_ig:
                status, weight = 0, 0.0
            else:
                status = num_classes + 1
                weight = phi_prev[best_class - 1, centers[best_class]]
            assert targets.assigned_class[r] == status
            assert targets.source_class[r] == best_class
            assert targets.max_iou[r] == best_iou
            assert targets.weight[r] == weight


@criterion(6, "gradient fidelity")
def test_criterion_06_gradient_fidelity():
    rng = seeded(606)
    worst = 0.0
    cases = [("baseline", 50), ("opis", 50), ("opis", 150), ("pib_only", 150), ("pir_only", 150)]
    for i in range(100):
        method, t_n = cases[i % len(cases)]
        num_classes = int(rng.integers(2, 5))
        dim = int(rng.integers(num_classes, 9))
        scene_cfg = SceneConfig(
            num_classes=num_classes,
            feature_dim=dim,
            num_proposals=int(rng.integers(14, 25)),
            clutter_rate=float(rng.uniform(0.1, 0.4)),
            jitter=0.35,
            max_objects=2,
        )
        scene = generate_scene(scene_cfg, seeded(606, 1, i), scene_id=i)
        model = ToyModel.initialize(
            num_classes, dim, num_branches=int(rng.integers(1, 3)), seed=i, init_scale=float(rng.uniform(0.2, 1.0))
        )
        schedule = ScheduleState(t_n=t_n, t_0=100, t_1=200)
        err = finite_diff_check(model, scene, schedule, method=method, seed=i, h=1e-6)
        worst = max(worst, err)
    assert worst <= 1e-5, f"max relative error {worst:.3e}"


@criterion(7, "softmax and score invariants")
def test_criterion_07_score_invariants():
    rng = seeded(707)
    for _ in range(1000):
        c = int(rng.integers(1, 6))
        p = int(rng.integers(1, 40))
        sc = softmax_over_classes(rng.uniform(-50, 50, size=(c, p)))
        sd = softmax_over_instances(rng.uniform(-50, 50, size=(c, p)))
        phi = softmax_over_classes(rng.uniform(-50, 50, size=(c + 1, p)))
        assert np.all(np.abs(sc.sum(axis=0) - 1.0) <= 1e-9)
        assert np.all(np.abs(sd.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(np.abs(phi.sum(axis=0) - 1.0) <= 1e-9)
        y = image_scores(compose_instance_scores(sc, sd))
        assert np.all(y > 0.0)
        assert np.all(y < 1.0 + 1e-9)


@criterion(8, "metric fixtures")
def test_criterion_08_metric_fixtures():
    gt = [(BBox(0, 0, 10, 10), 1)]
    hit = ScoredBox(BBox(0, 0, 10, 10), 0.9, 1)
    fp = ScoredBox(BBox(50, 50, 60, 60), 0.8, 1)
    fp_high = ScoredBox(BBox(50, 50, 60, 60), 0.95, 1)
    assert voc_ap([hit], gt, 1) == 1.0
    assert voc_ap([hit, fp], gt, 1) == 1.0
    assert voc_ap([fp_high, hit], gt, 1) == 0.5

    from opis.harness import Scene

    def fixture_scene(sid):
        return Scene(
            scene_id=sid,
            proposals=np.array([[0.0, 0.0, 10.0, 10.0], [50.0, 50.0, 60.0, 60.0]]),
            features=np.zeros((2, 2)),
            image_label=np.array([1], dtype=np.int8),
            gt_boxes=np.array([[0.0, 0.0, 10.0, 10.0]]),
            gt_classes=np.array([1]),
        )

    scenes = [fixture_scene(i) for i in range(4)]
    hit_scores = np.array([[0.9, 0.1]])
    miss_scores = np.array([[0.1, 0.9]])
    table = {0: hit_scores, 1: hit_scores, 2: hit_scores, 3: miss_scores}
    assert corloc(None, scenes, score_fn=lambda s: table[s.scene_id]) == 0.75


def _directional_cell(method: str, seed: int) -> tuple[float, float]:
    cfg = TrainConfig(seed=seed, method=method)
    dataset = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
    model, _ = train(cfg, dataset)
    eval_scenes = generate_dataset(cfg.scene, cfg.eval_seed, cfg.eval_scenes)
    report, _ = evaluate_scenes(model, eval_scenes, nms_iou=cfg.nms_iou, score_floor=cfg.score_floor)
    return report.mean_ap, report.corloc


@criterion(9, "directional end-to-end ordering")
def test_criterion_09_directional_end_to_end():
    cfg = TrainConfig()
    # the default experiment shape this criterion is defined over
    assert cfg.scene.num_classes == 4
    assert cfg.scene.feature_dim == 16
    assert cfg.scenes_per_epoch == 200
    assert cfg.eval_scenes == 100
    assert cfg.total_iterations == 4000

    methods, seeds = ("baseline", "pib_only", "opis"), range(5)
    cells = [(method, seed) for method in methods for seed in seeds]
    # The cells are independent, so they run in worker processes.
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(cells)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        by_cell = dict(zip(cells, pool.map(_directional_cell, *zip(*cells))))
    medians = {}
    for method in methods:
        results = [by_cell[method, s] for s in seeds]
        medians[method] = (
            statistics.median(r[0] for r in results),
            statistics.median(r[1] for r in results),
        )
        print(f"[acceptance]   {method}: median mAP={medians[method][0]:.4f} "
              f"median CorLoc={medians[method][1]:.4f}")
    assert medians["opis"][0] >= medians["baseline"][0]
    assert medians["opis"][1] >= medians["baseline"][1]
    assert medians["pib_only"][0] >= medians["baseline"][0]
    assert medians["pib_only"][1] >= medians["baseline"][1]


@criterion(10, "byte-identical training logs")
def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "default.ini"
    config.write_text("[train]\nseed = 11\n")  # defaults everywhere else
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["train", "--config", str(config), "--out", str(out)])
        assert rc == 0
        outs.append((out / "trainlog.csv").read_bytes())
    assert outs[0] == outs[1]


@criterion(11, "positive-neglect rule")
def test_criterion_11_neglect_rule():
    # low evidence: scores sum to 0.09 < 0.5 -> only the center survives
    phi = np.zeros((2, 5))
    phi[0] = [0.05, 0.01, 0.01, 0.01, 0.01]
    kept = reselect_positives(np.arange(5), phi, class_id=1, center=0, neglect_thresh=0.5)
    np.testing.assert_array_equal(kept, [0])

    # ample evidence: 0.6 + 0.2 + 0.3 = 1.1 >= 0.9 -> set unchanged
    phi = np.zeros((2, 3))
    phi[0] = [0.6, 0.2, 0.3]
    kept = reselect_positives(np.array([0, 1, 2]), phi, class_id=1, center=0, neglect_thresh=0.9)
    np.testing.assert_array_equal(kept, [0, 1, 2])
