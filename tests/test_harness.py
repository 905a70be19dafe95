"""Synthetic world and training loop: determinism, phase continuity, method
routing, and analytic-vs-numeric gradient agreement."""

import pickle
import resource
import time

import numpy as np
import pytest

from opis.geometry import pairwise_iou
from opis.harness import (
    SceneConfig,
    ToyModel,
    TrainConfig,
    TrainingDivergence,
    _batch_indices,
    _prototypes,
    build_branch_supervision,
    class_prototypes,
    finite_diff_check,
    forward,
    generate_dataset,
    generate_scene,
    scene_pass,
    train,
)
from opis.sampling import ScheduleState


def rng_for(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


SMALL_SCENE = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30, clutter_rate=0.3)


def small_train_config(**kw):
    defaults = dict(
        seed=0,
        method="opis",
        scenes_per_epoch=12,
        epochs=5,
        batch_size=2,
        iterations_override=30,
        learning_rate=0.3,
        refinements=2,
        scene=SMALL_SCENE,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSceneGeneration:
    def test_deterministic(self):
        a = generate_scene(SMALL_SCENE, rng_for(5, 1, 0), scene_id=0)
        b = generate_scene(SMALL_SCENE, rng_for(5, 1, 0), scene_id=0)
        np.testing.assert_array_equal(a.proposals, b.proposals)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.gt_boxes, b.gt_boxes)
        c = generate_scene(SMALL_SCENE, rng_for(6, 1, 0), scene_id=0)
        assert not np.array_equal(a.proposals, c.proposals)

    def test_every_object_covered(self):
        scenes = generate_dataset(SceneConfig(), seed=3, count=100)
        for s in scenes:
            overlap = pairwise_iou(s.proposals, s.gt_boxes)
            assert overlap.max(axis=0).min() >= 0.5

    def test_label_matches_gt_classes(self):
        for s in generate_dataset(SMALL_SCENE, seed=4, count=50):
            present = np.flatnonzero(s.image_label) + 1
            assert set(present) == set(s.gt_classes.tolist())
            assert s.image_label.sum() >= 1

    def test_noise_free_features_are_unit_or_zero(self):
        cfg = SceneConfig(feature_noise=0.0)
        for i in range(5):
            s = generate_scene(cfg, rng_for(14, 1, i))
            overlap = pairwise_iou(s.gt_boxes, s.proposals).max(axis=0)
            norms = np.linalg.norm(s.features, axis=1)
            np.testing.assert_array_equal(norms[overlap == 0.0], 0.0)
            np.testing.assert_allclose(norms[overlap > 0.0], 1.0, atol=1e-12)

    def test_features_unit_norm(self):
        s = generate_scene(SMALL_SCENE, rng_for(7, 1, 0))
        np.testing.assert_allclose(np.linalg.norm(s.features, axis=1), 1.0, atol=1e-12)

    def test_degenerate_config_copies_gt(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=20, clutter_rate=0.0, jitter=0.0)
        s = generate_scene(cfg, rng_for(8, 1, 0))
        overlap = pairwise_iou(s.proposals, s.gt_boxes)
        np.testing.assert_allclose(overlap.max(axis=1), 1.0, atol=1e-12)
        # features align with the owning class prototype
        protos = class_prototypes(cfg)
        for r in range(s.num_proposals):
            owner = int(np.argmax(overlap[r]))
            c = int(s.gt_classes[owner])
            assert s.features[r] @ protos[c - 1] > 0.5

    def test_score_overlap_correlation(self):
        s = generate_scene(SceneConfig(), rng_for(9, 1, 0))
        protos = class_prototypes(SceneConfig())
        overlap = pairwise_iou(s.proposals, s.gt_boxes).max(axis=1)
        align = np.max(s.features @ protos.T, axis=1)
        high = align[overlap > 0.7]
        low = align[overlap < 0.1]
        assert high.size and low.size
        assert high.mean() > low.mean() + 0.2


class TestClassPrototypes:
    # Noise-free boxes copied from the ground truth: each feature row is its
    # object's class prototype, so the scenes show which prototypes they used.
    EXACT = dict(num_classes=3, feature_dim=8, num_proposals=12, clutter_rate=0.0, jitter=0.0, feature_noise=0.0)

    @staticmethod
    def prototypes_seen(config, seed):
        s = generate_scene(config, rng_for(seed, 1, 0))
        owners = pairwise_iou(s.proposals, s.gt_boxes).argmax(axis=1)
        return s.features, s.gt_classes[owners]

    def test_mutating_the_returned_array_changes_nothing_later(self):
        cfg = SceneConfig(**self.EXACT)
        before = class_prototypes(cfg)
        scene_before = generate_scene(cfg, rng_for(3, 1, 0))
        mutated = class_prototypes(cfg)
        assert mutated.flags.writeable
        mutated[:] = 7.0
        np.testing.assert_array_equal(class_prototypes(cfg), before)
        scene_after = generate_scene(cfg, rng_for(3, 1, 0))
        np.testing.assert_array_equal(scene_after.features, scene_before.features)
        np.testing.assert_array_equal(scene_after.proposals, scene_before.proposals)

    def test_cached_array_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _prototypes(20202, 16, 4)[0, 0] = 1.0

    @pytest.mark.parametrize("change", [dict(prototype_seed=1), dict(feature_dim=9)])
    def test_worlds_get_their_own_prototypes(self, change):
        a, b = SceneConfig(**self.EXACT), SceneConfig(**{**self.EXACT, **change})
        if a.feature_dim == b.feature_dim:
            assert not np.allclose(class_prototypes(a), class_prototypes(b))
        for cfg in (a, b, a, b):  # interleaved, in one process
            protos = class_prototypes(cfg)
            features, classes = self.prototypes_seen(cfg, 4)
            np.testing.assert_allclose(features, protos[classes - 1], atol=1e-12)


class TestForward:
    def test_zero_weights_give_uniform_scores(self):
        s = generate_scene(SMALL_SCENE, rng_for(10, 1, 0))
        model = ToyModel.initialize(3, 8, 2, seed=0, init_scale=0.0)
        scores = forward(model, s)
        np.testing.assert_allclose(scores.class_probs, 1 / 3, atol=1e-12)
        np.testing.assert_allclose(scores.det_probs, 1 / s.num_proposals, atol=1e-12)
        np.testing.assert_allclose(scores.phi[0], 1 / 4, atol=1e-12)

    def test_single_proposal_det_stream(self):
        cfg = SceneConfig(
            num_classes=2, feature_dim=4, num_proposals=1, clutter_rate=0.0,
            jitter=0.0, min_objects=1, max_objects=1,
        )
        s = generate_scene(cfg, rng_for(11, 1, 0))
        model = ToyModel.initialize(2, 4, 1, seed=1)
        scores = forward(model, s)
        np.testing.assert_allclose(scores.det_probs, 1.0, atol=1e-12)

    def test_score_set_invariants(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            s = generate_scene(SMALL_SCENE, rng_for(13, 1, trial))
            model = ToyModel.initialize(3, 8, 2, seed=trial, init_scale=float(rng.uniform(0.1, 2.0)))
            scores = forward(model, s)
            np.testing.assert_allclose(scores.class_probs.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(scores.det_probs.sum(axis=1), 1.0, atol=1e-9)
            for phi in scores.phi:
                np.testing.assert_allclose(phi.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(scores.x_r >= 0.0) and np.all(scores.x_r <= 1.0)
            assert np.all(scores.x_r.sum(axis=0) <= 1.0 + 1e-9)
            y = scores.x_r.sum(axis=1)
            assert np.all(y > 0.0) and np.all(y < 1.0 + 1e-9)
            np.testing.assert_array_equal(scores.phi0[:-1], scores.x_r)
            np.testing.assert_array_equal(scores.phi0[-1], 0.0)


class TestTraining:
    def test_bitwise_deterministic(self):
        cfg = small_train_config()
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        model_a, log_a = train(cfg, ds)
        model_b, log_b = train(cfg, ds)
        for (na, a), (nb, b) in zip(model_a.param_items(), model_b.param_items()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        assert log_a.rows() == log_b.rows()

    def test_loss_finite_everywhere(self):
        cfg = small_train_config()
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        _, log = train(cfg, ds)
        for r in log.records:
            assert np.isfinite(r.loss_midn)
            assert all(np.isfinite(v) for v in r.loss_refs)

    def test_phase_boundary_continuity(self):
        cfg = small_train_config(iterations_override=40, t0_fraction=0.5)
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        _, log = train(cfg, ds)
        t0 = cfg.t_0
        first_ft = log.records[t0]
        assert log.records[t0 - 1].phase == "normal"
        assert first_ft.phase == "finetune"
        assert first_ft.t_progress == 0.0
        assert first_ft.mu == cfg.mu_s

    def test_baseline_never_samples_or_reweights(self):
        cfg = small_train_config(method="baseline")
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        _, log = train(cfg, ds)
        for r in log.records:
            assert r.zeta_mean == 1.0
            assert r.neg_after == r.neg_before

    def test_pib_only_matches_baseline_through_phase_one(self):
        ds = generate_dataset(SMALL_SCENE, 0, 12)
        _, log_base = train(small_train_config(method="baseline"), ds)
        _, log_pib = train(small_train_config(method="pib_only"), ds)
        t0 = small_train_config().t_0
        for rb, rp in zip(log_base.records[:t0], log_pib.records[:t0]):
            assert rb.loss_midn == rp.loss_midn
            assert rb.loss_refs == rp.loss_refs
        diverged = any(
            rb.loss_refs != rp.loss_refs
            for rb, rp in zip(log_base.records[t0:], log_pib.records[t0:])
        )
        assert diverged

    def test_opis_samples_in_finetune(self):
        cfg = small_train_config(method="opis")
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        _, log = train(cfg, ds)
        ft = log.records[cfg.t_0 :]
        assert any(r.neg_after < r.neg_before for r in ft)
        assert any(r.zeta_mean > 1.0 for r in ft)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_exit_state(self):
        # lr * weight_decay >> 1 makes the update multiplicative and explosive
        cfg = small_train_config(learning_rate=1e9, iterations_override=200)
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        with pytest.raises(TrainingDivergence) as exc_info:
            train(cfg, ds)
        assert 0 <= exc_info.value.iteration < 200

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_scores_diverge_at_first_iteration(self):
        """Finite parameters and finite features can still overflow the logits."""
        cfg = small_train_config(init_scale=1e10)
        ds = generate_dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
        for scene in ds:
            scene.features = np.full_like(scene.features, 1e300)
        with pytest.raises(TrainingDivergence, match="non-finite values while scoring") as exc_info:
            train(cfg, ds)
        assert exc_info.value.iteration == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(small_train_config(), [])

    def test_warm_wide_run_faults_in_few_pages(self):
        """The stacked step's large arrays live in per-run buffers, so a warm
        P=600 run faults in little more than those buffers once, and not its
        arrays again at every iteration."""
        scene = SceneConfig(num_proposals=600)
        cfg = TrainConfig(seed=0, method="baseline", scenes_per_epoch=4, iterations_override=150, scene=scene)
        ds = generate_dataset(scene, 0, cfg.scenes_per_epoch)
        train(cfg, ds)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(cfg, ds)
        per_iteration = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.total_iterations
        assert per_iteration <= 4.0

    def test_divergence_pickle_round_trip(self):
        exc = TrainingDivergence("non-finite loss at iteration 7", 7, snapshot={"loss_midn": float("inf")})
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is TrainingDivergence
        assert str(clone) == "non-finite loss at iteration 7"
        assert clone.iteration == 7
        assert clone.snapshot == {"loss_midn": float("inf")}


def loop_batch_indices(config, n_scenes):
    """Oracle: the consumption order built by re-summing the epoch chunks."""
    need = config.total_iterations * config.batch_size
    chunks = []
    epoch = 0
    while sum(c.size for c in chunks) < need:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(3, epoch)))
        chunks.append(rng.permutation(n_scenes))
        epoch += 1
    return np.concatenate(chunks)[:need]


class TestBatchOrder:
    @pytest.mark.parametrize("kw,n_scenes", [
        (dict(), 12),
        (dict(scenes_per_epoch=1, epochs=7, batch_size=2, iterations_override=None), 1),
        (dict(scenes_per_epoch=5, epochs=3, batch_size=3, seed=4, iterations_override=None), 5),
        (dict(iterations_override=9, batch_size=4, seed=2), 7),
        (dict(scenes_per_epoch=10, epochs=2, batch_size=1, iterations_override=None), 10),
    ])
    def test_order_matches_the_summing_loop(self, kw, n_scenes):
        cfg = small_train_config(**kw)
        np.testing.assert_array_equal(_batch_indices(cfg, n_scenes), loop_batch_indices(cfg, n_scenes))

    def test_many_epochs_build_in_linear_time(self):
        # Re-summing every chunk per epoch makes this order quadratic: over 10 s.
        cfg = small_train_config(scenes_per_epoch=1, epochs=20_000, batch_size=2, iterations_override=None)
        start = time.perf_counter()
        order = _batch_indices(cfg, 1)
        assert time.perf_counter() - start < 2.0
        assert order.size == 20_000 and not order.any()


class TestGradientFidelity:
    def schedule(self, phase):
        return ScheduleState(t_n=150 if phase == "finetune" else 50, t_0=100, t_1=200)

    @pytest.mark.parametrize("method,phase", [
        ("baseline", "normal"),
        ("opis", "normal"),
        ("opis", "finetune"),
        ("pib_only", "finetune"),
        ("pir_only", "finetune"),
    ])
    def test_finite_differences_per_method(self, method, phase):
        cfg = SceneConfig(num_classes=3, feature_dim=6, num_proposals=16, clutter_rate=0.25)
        scene = generate_scene(cfg, rng_for(20, 1, 0))
        model = ToyModel.initialize(3, 6, 2, seed=4, init_scale=0.6)
        err = finite_diff_check(model, scene, self.schedule(phase), method=method, seed=4)
        assert err <= 1e-5

    def test_zero_weight_supervision_gives_zero_refinement_grads(self):
        cfg = SceneConfig(num_classes=2, feature_dim=5, num_proposals=8, clutter_rate=0.2)
        scene = generate_scene(cfg, rng_for(21, 1, 0))
        model = ToyModel.initialize(2, 5, 1, seed=5, init_scale=0.4)
        sched = self.schedule("normal")
        _, _, sup, grads = scene_pass(model, scene, sched, "baseline", 5, sched.t_n)
        sup.targets.weight[:] = 0.0
        _, _, _, grads_zero = scene_pass(model, scene, sched, "baseline", 5, sched.t_n, frozen=sup)
        np.testing.assert_array_equal(grads_zero.w_ref[0], 0.0)
        np.testing.assert_array_equal(grads_zero.b_ref[0], 0.0)
        # MIDN path is independent of refinement supervision
        np.testing.assert_array_equal(grads_zero.w_cls, grads.w_cls)

    def test_midn_stream_gradients_match_finite_differences(self):
        """The classification-stream gradient is driven purely by the image
        loss, so differencing that loss alone must reproduce it."""
        from opis.midn import image_scores, midn_loss

        cfg = SceneConfig(num_classes=3, feature_dim=6, num_proposals=12, clutter_rate=0.2)
        scene = generate_scene(cfg, rng_for(24, 1, 0))
        model = ToyModel.initialize(3, 6, 1, seed=9, init_scale=0.7)
        sched = self.schedule("normal")
        _, _, _, grads = scene_pass(model, scene, sched, "baseline", 9, sched.t_n)

        def midn_only(m):
            return midn_loss(image_scores(forward(m, scene).x_r), scene.image_label)

        h = 1e-6
        for name in ("w_cls", "b_cls", "w_det", "b_det"):
            work = model.copy()
            arr = dict(work.param_items())[name]
            numeric = np.zeros_like(arr)
            flat = arr.ravel()
            out = numeric.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = midn_only(work)
                flat[i] = orig - h
                down = midn_only(work)
                flat[i] = orig
                out[i] = (up - down) / (2 * h)
            analytic = getattr(grads, name)
            err = np.abs(numeric - analytic) / np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
            assert err.max() <= 1e-5

    def test_supervision_weights_receive_no_gradient(self):
        """Branch k's loss must not push gradient into branch k-1 through the
        detached weights: the analytic refinement gradients only touch their
        own branch's parameters, and the frozen-supervision check matches."""
        cfg = SceneConfig(num_classes=2, feature_dim=5, num_proposals=10, clutter_rate=0.2)
        scene = generate_scene(cfg, rng_for(22, 1, 0))
        model = ToyModel.initialize(2, 5, 2, seed=6, init_scale=0.5)
        sched = self.schedule("normal")
        _, _, sup, grads = scene_pass(model, scene, sched, "opis", 6, sched.t_n)
        # zero branch-2 supervision and confirm branch-1 grads are unchanged
        sup.targets.weight[1] = 0.0
        _, _, _, grads2 = scene_pass(model, scene, sched, "opis", 6, sched.t_n, frozen=sup)
        np.testing.assert_array_equal(grads2.w_ref[0], grads.w_ref[0])
        np.testing.assert_array_equal(grads2.b_ref[0], grads.b_ref[0])


class TestBranchSupervisionPipeline:
    def test_pib_masks_and_rescales(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=60, clutter_rate=0.2)
        scene = generate_scene(cfg, rng_for(23, 1, 0))
        model = ToyModel.initialize(3, 8, 2, seed=7, init_scale=0.8)
        scores = forward(model, scene)
        sched = ScheduleState(t_n=199, t_0=100, t_1=200)  # late: mu near 4
        sup = build_branch_supervision(scene, scores, 1, sched, "opis", seed=7, iteration=199)
        assert sup.neg_after.shape == sup.neg_before.shape == (1,)
        assert sup.neg_after[0] <= sup.neg_before[0]
        n_selected = int(np.count_nonzero(sup.targets.selected))
        assert sup.zeta[0] == pytest.approx(scene.num_proposals / n_selected)

    def test_balance_record_agrees_with_selection(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40, clutter_rate=0.3)
        sched = ScheduleState(t_n=120, t_0=100, t_1=200)
        outcomes = set()
        for seed in range(30):
            scene = generate_scene(cfg, rng_for(seed, 1, 0))
            scores = forward(ToyModel.initialize(3, 8, 2, seed=seed, init_scale=2.0), scene)
            for branch in (1, 2):
                sup = build_branch_supervision(scene, scores, branch, sched, "pib_only", seed, 120)
                balance = sup.balance
                present = np.zeros(4, dtype=bool)
                present[np.flatnonzero(scene.image_label) + 1] = True
                n_pos, n_neg, drew, fired = balance.n_pos[0], balance.n_neg[0], balance.drew[0], balance.fired[0]
                assert not (n_pos[~present].any() or n_neg[~present].any())
                assert balance.supply.shape == (1, 4, 4)
                np.testing.assert_array_equal(balance.supply[0].sum(axis=1), n_neg)
                sampled = (n_pos > 0) & (n_neg > 0)
                # A sampled class selects min(target, n_neg) negatives.
                selected = np.where(drew, balance.target[0], n_neg)[sampled]
                assert selected.sum() == sup.neg_after[0]
                # Every positive of a class stays, unless the neglect rule kept only its center.
                assert np.where(fired, 1, n_pos).sum() == sup.pos_selected[0]
                assert not (drew & ~sampled).any() and not (fired & (n_neg > 0)).any()
                outcomes.update("absorbed" if n_pos[c] == 0 else "sampled" if n_neg[c] else
                                "center only" if fired[c] else "all positives" for c in np.flatnonzero(present))
        assert outcomes == {"sampled", "center only", "all positives", "absorbed"}

    def test_branch_out_of_range_is_rejected(self):
        scene = generate_scene(SMALL_SCENE, rng_for(4, 1, 0))
        scores = forward(ToyModel.initialize(3, 8, 2, seed=4), scene)
        schedule = ScheduleState(t_n=120, t_0=100, t_1=200)
        for branch in (0, 3):
            with pytest.raises(ValueError, match=rf"^branch must be in \[1, 2\], got {branch}$"):
                build_branch_supervision(scene, scores, branch, schedule, "opis", 4, 120)

    def test_balance_empty_outside_pib(self):
        scene = generate_scene(SMALL_SCENE, rng_for(4, 1, 0))
        scores = forward(ToyModel.initialize(3, 8, 2, seed=4), scene)
        finetune = ScheduleState(t_n=120, t_0=100, t_1=200)
        assert build_branch_supervision(scene, scores, 1, finetune, "pir_only", 4, 120).balance is None
        normal = ScheduleState(t_n=50, t_0=100, t_1=200)
        assert build_branch_supervision(scene, scores, 1, normal, "opis", 4, 50).balance is None

    def test_model_roundtrip_json(self):
        model = ToyModel.initialize(3, 8, 2, seed=8, init_scale=0.3)
        clone = ToyModel.from_json(model.to_json())
        for (na, a), (nb, b) in zip(model.param_items(), clone.param_items()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
