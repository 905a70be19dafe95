"""Property tests of the batched supervision pass on degenerate scenes.

Each drawn scene runs through ``scene_pass``, which supervises all of a
scene's branches at once, and every branch is checked against a pipeline
assembled from the single-branch public functions. Instance balance is also
checked against the per-(branch, class) loop it replaced, kept here verbatim
as an oracle, and ``train``'s stacked minibatch step against the per-scene
training loop it replaced, kept the same way.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opis.harness import (
    METHODS,
    BalanceCounts,
    IterationRecord,
    Scene,
    SceneConfig,
    ToyModel,
    TrainConfig,
    TrainingDivergence,
    TrainLog,
    _batch_indices,
    generate_dataset,
    train,
    build_branch_supervision,
    forward,
    generate_scene,
    scene_pass,
    supervise_scene,
)
from opis.losses import total_loss, zeta
from opis.reweighting import reweight_branch
from opis.sampling import (
    N_BINS,
    SamplerRng,
    ScheduleState,
    apply_selection_mask,
    keep_selected,
    reselect_positives,
    sample_negatives_detail,
)
from opis.supervision import assign_branches, assign_labels, cluster_center_indices, select_cluster_centers

T_0, T_1 = 10, 20
BASE_BOX = np.array([0.0, 0.0, 10.0, 10.0])


def make_scene(proposals, num_classes, feature_dim, label, feature_seed, same_features):
    rng = np.random.default_rng(feature_seed)
    count = proposals.shape[0]
    features = rng.normal(size=(1 if same_features else count, feature_dim))
    features = np.repeat(features, count, axis=0) if same_features else features
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    return Scene(
        scene_id=feature_seed % 7,
        proposals=proposals,
        features=features,
        image_label=np.asarray(label, dtype=np.int8),
        gt_boxes=proposals[:1].copy(),
        gt_classes=np.array([int(np.flatnonzero(label)[0]) + 1]),
    )


@st.composite
def box_sets(draw):
    """(P, 4) proposals in one of five degenerate layouts."""
    layout = draw(st.sampled_from(["random", "spread", "identical", "one_bin", "few_negatives"]))
    if layout == "identical":
        return layout, np.repeat(BASE_BOX[None], draw(st.integers(1, 12)), axis=0)
    if layout == "one_bin":
        # Shifted copies of the base box: IoU (10 - s) / (10 + s) lies in
        # [0.2, 0.3), one bin of the default (0.1, 0.5) negative interval.
        shifts = draw(st.lists(st.floats(5.5, 6.6), min_size=0, max_size=30))
        boxes = [BASE_BOX] + [BASE_BOX + [s, 0.0, s, 0.0] for s in shifts]
        return layout, np.array(boxes)
    if layout == "spread":
        # Shifted copies of the base box: a few positives, negatives over the
        # whole negative interval, and a few ignored proposals.
        shifts = (draw(st.lists(st.floats(0.0, 3.3), max_size=2))
                  + draw(st.lists(st.floats(3.4, 8.1), min_size=8, max_size=40))
                  + draw(st.lists(st.floats(8.2, 12.0), max_size=3)))
        return layout, np.array([BASE_BOX] + [BASE_BOX + [s, 0.0, s, 0.0] for s in shifts])
    if layout == "few_negatives":
        # Many positives of the base box and at most two negatives.
        copies = draw(st.integers(1, 10))
        shifts = draw(st.lists(st.floats(4.0, 6.0), min_size=0, max_size=2))
        boxes = [BASE_BOX] * copies + [BASE_BOX + [s, 0.0, s, 0.0] for s in shifts]
        return layout, np.array(boxes)
    count = draw(st.integers(1, 30))
    corners = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 8), st.integers(1, 8)),
                            min_size=count, max_size=count))
    return layout, np.array([[x, y, x + w, y + h] for x, y, w, h in corners], dtype=np.float64)


@st.composite
def cases(draw):
    layout, proposals = draw(box_sets())
    num_classes = draw(st.integers(1, 3))
    num_branches = draw(st.integers(1, 3))
    feature_dim = num_classes + draw(st.integers(0, 3))
    label = draw(st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any))
    # A zero model scores every proposal alike, so every class of every
    # branch takes proposal 0 as its center; the one-bin layout needs that.
    scale = 0.0 if layout == "one_bin" else draw(st.sampled_from([0.0, 0.5, 3.0]))
    scene = make_scene(proposals, num_classes, feature_dim, label, draw(st.integers(0, 10_000)), draw(st.booleans()))
    model = ToyModel.initialize(num_classes, feature_dim, num_branches, seed=draw(st.integers(0, 50)), init_scale=scale)
    # Mostly fine-tuning, where instance balance runs.
    schedule = ScheduleState(t_n=draw(st.integers(T_0, T_1) | st.integers(0, T_1)), t_0=T_0, t_1=T_1)
    method = draw(st.sampled_from(("opis", "pib_only")) | st.sampled_from(METHODS))
    return layout, scene, model, schedule, method, draw(st.integers(0, 3))


def single_branch_pipeline(scene, scores, branch, schedule, method, seed):
    """Supervision of one branch from the one-branch public functions."""
    phi_prev = scores.phis[branch - 1]
    centers = select_cluster_centers(phi_prev, scene.image_label)
    targets, assignment = assign_labels(centers, scene.proposals, phi_prev, schedule.lambda_ig, schedule.lambda_ng)
    zeta_k = 1.0
    if schedule.phase == "finetune" and method in ("pib_only", "opis"):
        kept_pos, kept_neg = [], []
        for c in sorted(centers):
            pos_c, neg_c = assignment.positives[c], assignment.negatives[c]
            if pos_c.size == 0:
                continue
            if neg_c.size:
                rng = SamplerRng(seed, scene.scene_id, schedule.t_n, branch, c).generator()
                kept_neg.append(sample_negatives_detail(neg_c, targets.max_iou[neg_c], pos_c.size, schedule.mu,
                                                        schedule.lambda_ig, schedule.lambda_ng, rng).selected)
                kept_pos.append(pos_c)
            else:
                kept_pos.append(reselect_positives(pos_c, phi_prev, c, centers[c], schedule.neglect))
        sel_pos = np.concatenate(kept_pos) if kept_pos else np.empty(0, dtype=np.int64)
        sel_neg = np.concatenate(kept_neg) if kept_neg else np.empty(0, dtype=np.int64)
        targets = apply_selection_mask(targets, sel_pos, sel_neg)
        zeta_k = zeta("finetune", targets.num_proposals, sel_pos.size + sel_neg.size)
    if method == "pir_only" or method == "opis":
        attenuated = method == "opis" and schedule.phase == "finetune"
        targets = reweight_branch(targets, scores.phi[branch - 1], schedule, attenuated)
    return targets, zeta_k


def assert_same_targets(a, b):
    for name in ("assigned_class", "max_iou", "source_class", "weight", "selected"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_batched_pass_on_degenerate_scenes(case):
    layout, scene, model, schedule, method, seed = case
    lam_ig, lam_ng = schedule.lambda_ig, schedule.lambda_ng
    loss_midn, ref_losses, sup, grads = scene_pass(model, scene, schedule, method, seed, schedule.t_n)

    assert math.isfinite(loss_midn)
    assert all(math.isfinite(v) for v in ref_losses)
    assert np.isfinite(grads.flat).all()
    assert sup.zeta.shape == (model.num_branches,)

    scores = forward(model, scene)
    c_bg = model.num_classes + 1
    present = (np.flatnonzero(scene.image_label) + 1).tolist()
    for k in range(1, model.num_branches + 1):
        t, balance, zeta_row = sup.targets.branch(k - 1), sup.balance, sup.zeta[k - 1]
        # Every proposal is exactly one of positive, negative, ignored.
        positive = (t.assigned_class >= 1) & (t.assigned_class < c_bg)
        negative = t.assigned_class == c_bg
        ignored = t.assigned_class == 0
        assert np.all(positive.astype(int) + negative + ignored == 1)
        np.testing.assert_array_equal(positive, t.max_iou >= lam_ng)
        np.testing.assert_array_equal(ignored, t.max_iou <= lam_ig)
        np.testing.assert_array_equal(t.assigned_class[positive], t.source_class[positive])
        assert not np.any(t.selected & ignored)
        assert np.all(t.weight[~t.selected] == 0.0)
        assert sup.neg_after[k - 1] <= sup.neg_before[k - 1] == np.count_nonzero(negative)

        # The sampler's count law, per sampled class: the class's negatives
        # and positives are counted, and its selected negatives number
        # min(floor(mu * n_pos), n_neg).
        sampled = []
        for c in present if balance is not None else []:
            n_pos, n_neg = int(balance.n_pos[k - 1, c]), int(balance.n_neg[k - 1, c])
            assert n_pos == np.count_nonzero(t.assigned_class == c)
            assert n_neg == np.count_nonzero(negative & (t.source_class == c)) == balance.supply[k - 1, c].sum()
            if n_pos and n_neg:
                sampled.append(c)
                kept = np.count_nonzero(t.selected & negative & (t.source_class == c))
                assert kept == min(math.floor(schedule.mu * n_pos), n_neg)
        if balance is not None:
            assert zeta_row == scene.num_proposals / np.count_nonzero(t.selected)
        if layout == "one_bin" and np.any(negative):
            # Every negative of the lowest present class falls in one bin.
            assert all(np.count_nonzero(balance.supply[k - 1, c]) == 1 for c in sampled)

        expected, zeta_k = single_branch_pipeline(scene, scores, k, schedule, method, seed)
        assert_same_targets(t, expected)
        assert zeta_row == zeta_k
        single = build_branch_supervision(scene, scores, k, schedule, method, seed, schedule.t_n)
        assert_same_targets(single.targets.branch(0), t)
        assert single.zeta.tolist() == [zeta_row]
        assert (single.balance is None) == (balance is None)
        if balance is not None:
            for name in ("n_pos", "n_neg", "supply", "target", "drew", "fired"):
                assert_same_array(getattr(single.balance, name), getattr(balance, name)[k - 1 : k], name)


@pytest.mark.parametrize("num_branches", [1, 3])
def test_shared_center_goes_to_the_lowest_class(num_branches):
    """With a zero model every class of every branch picks proposal 0; the
    lowest present class takes all its proposals and the others are absorbed."""
    proposals = np.array([BASE_BOX, BASE_BOX + [1.0, 0.0, 1.0, 0.0], BASE_BOX + [6.0, 0.0, 6.0, 0.0]])
    scene = make_scene(proposals, 3, 4, [0, 1, 1], 5, False)
    model = ToyModel.initialize(3, 4, num_branches, seed=0, init_scale=0.0)
    schedule = ScheduleState(t_n=15, t_0=T_0, t_1=T_1)
    _, _, sup, _ = scene_pass(model, scene, schedule, "opis", 0, 15)
    balance = sup.balance
    assert balance.n_pos.shape == (num_branches, 4)
    np.testing.assert_array_equal(sup.targets.source_class, [[2, 2, 2]] * num_branches)
    np.testing.assert_array_equal(sup.targets.assigned_class, [[2, 2, 4]] * num_branches)
    # Class 3 is absorbed; class 2 has two positives and one negative.
    np.testing.assert_array_equal(balance.n_pos, [[0, 0, 2, 0]] * num_branches)
    np.testing.assert_array_equal(balance.n_neg, [[0, 0, 1, 0]] * num_branches)
    # One negative against a target of floor(mu * 2): the whole supply is kept.
    assert not balance.drew.any() and not balance.fired.any()
    np.testing.assert_array_equal(sup.targets.selected, [[True, True, True]] * num_branches)


def loop_supervise_scene(scene, scores, schedule, method, seed, iteration):
    """Oracle: ``supervise_scene`` as a per-(branch, class) loop that opens a
    sampler stream for every group with negatives. Returns the fields of a
    ``SceneSupervision`` as a dict; its ``balance`` holds the record's arrays
    plus the stage-1 and stage-2 sizes of every group's draw, read from each
    ``sample_negatives_detail``."""
    supervisors = scores.supervisors
    num_branches, num_proposals = supervisors.shape[0], scene.num_proposals
    classes, centers = cluster_center_indices(supervisors, scene.image_label)
    targets = assign_branches(classes, centers, scene.proposals, supervisors, schedule.lambda_ig, schedule.lambda_ng)
    background = targets.num_classes + 1
    negative = targets.assigned_class == background
    neg_before = np.count_nonzero(negative, axis=1)
    neg_after = neg_before
    zetas = np.ones(num_branches)

    balance = None
    if schedule.phase == "finetune" and method in ("pib_only", "opis"):
        mu, neglect = schedule.mu, schedule.neglect
        grid = (num_branches, background)
        balance = dict(n_pos=np.zeros(grid, dtype=np.int64), n_neg=np.zeros(grid, dtype=np.int64),
                       supply=np.zeros((*grid, N_BINS), dtype=np.int64), target=np.zeros(grid),
                       drew=np.zeros(grid, dtype=bool), fired=np.zeros(grid, dtype=bool),
                       stage1=np.zeros((*grid, N_BINS), dtype=np.int64), stage2=np.zeros(grid, dtype=np.int64))
        keep = np.zeros(targets.assigned_class.shape, dtype=bool)
        neg_after = [0] * num_branches
        neg_source = np.where(negative, targets.source_class, 0)
        for k in range(num_branches):
            assigned, sources, keep_k = targets.assigned_class[k], neg_source[k], keep[k]
            for c, center in zip(classes.tolist(), centers[k].tolist()):
                pos_c = (assigned == c).nonzero()[0]
                neg_c = (sources == c).nonzero()[0]
                balance["n_pos"][k, c], balance["n_neg"][k, c] = pos_c.size, neg_c.size
                if pos_c.size == 0:
                    # Another class's identical center box absorbed this
                    # class's proposals; there is nothing to balance.
                    continue
                product = mu * pos_c.size
                balance["target"][k, c] = product if product == math.inf else math.floor(product)
                if neg_c.size > 0:
                    rng = SamplerRng(seed, scene.scene_id, iteration, k + 1, c).generator()
                    detail = sample_negatives_detail(
                        neg_c, targets.max_iou[k, neg_c], pos_c.size, mu,
                        schedule.lambda_ig, schedule.lambda_ng, rng,
                    )
                    assert detail.target == balance["target"][k, c]
                    balance["supply"][k, c] = [b.size for b in detail.bin_members]
                    balance["drew"][k, c] = detail.target < neg_c.size
                    balance["stage1"][k, c] = [s.size for s in detail.stage1]
                    balance["stage2"][k, c] = detail.stage2.size
                    keep_k[detail.selected] = True
                    neg_after[k] += detail.selected.size
                    kept = pos_c
                else:
                    kept = reselect_positives(pos_c, supervisors[k], c, center, neglect)
                    # The rule returns pos_c itself unless it fires.
                    balance["fired"][k, c] = kept is not pos_c
                keep_k[kept] = True
        neg_after = np.array(neg_after)
        targets = keep_selected(targets, keep)
        zetas = zeta("finetune", num_proposals, np.count_nonzero(keep, axis=1))

    if method in ("pir_only", "opis"):
        attenuated = method == "opis" and schedule.phase == "finetune"
        targets = reweight_branch(targets, scores.phi, schedule, attenuated=attenuated)

    return dict(
        targets=targets,
        zeta=zetas,
        pos_selected=np.count_nonzero(targets.selected & targets.positive_mask(), axis=1),
        neg_before=neg_before,
        neg_after=neg_after,
        balance=balance,
    )


def assert_same_array(a, b, what):
    np.testing.assert_array_equal(a, b, err_msg=what)
    assert np.asarray(a).dtype == np.asarray(b).dtype, what


def assert_same_records(got: BalanceCounts | None, want: dict | None):
    """Equal balance records: every array of ``BalanceCounts``, dtype included.
    The stage sizes that the ``sample-demo`` trace derives from the record
    (stage 1 per bin is the supply unless the group drew, and then
    min(n_pos, supply); the group selects min(target, n_neg)) are those the
    oracle's sampler drew."""
    assert (got is None) == (want is None)
    if got is None:
        return
    for name in ("n_pos", "n_neg", "supply", "target", "drew", "fired"):
        assert_same_array(getattr(got, name), want[name], name)
    sampled = (got.n_pos > 0) & (got.n_neg > 0)
    stage1 = np.where(got.drew[..., None], np.minimum(got.supply, got.n_pos[..., None]), got.supply)
    selected = np.where(got.drew, got.target, got.n_neg).astype(np.int64)
    assert_same_array(np.where(sampled[..., None], stage1, 0), want["stage1"], "stage1")
    assert_same_array(np.where(sampled, selected - stage1.sum(axis=-1), 0), want["stage2"], "stage2")


def assert_matches_loop(scene, model, schedule, method, seed):
    """``supervise_scene`` equals the loop oracle; returns the balance kinds seen."""
    scores = forward(model, scene)
    sup = supervise_scene(scene, scores, schedule, method, seed, schedule.t_n)
    want = loop_supervise_scene(scene, scores, schedule, method, seed, schedule.t_n)
    assert_same_targets(sup.targets, want["targets"])
    for name in ("zeta", "pos_selected", "neg_before", "neg_after"):
        assert_same_array(getattr(sup, name), want[name], name)
    assert_same_records(sup.balance, want["balance"])
    kinds = set()
    if want["balance"] is not None:
        rec = want["balance"]
        for k in range(model.num_branches):
            for c in (np.flatnonzero(scene.image_label) + 1).tolist():
                n_pos, n_neg = rec["n_pos"][k, c], rec["n_neg"][k, c]
                kinds.add("absorbed" if n_pos == 0 else ("center only" if rec["fired"][k, c] else "all positives")
                          if n_neg == 0 else "drawn" if rec["drew"][k, c] else "kept whole")
    return kinds


@st.composite
def drawing_cases(draw):
    """Spread scenes under a zero model late in fine-tuning: every center is
    proposal 0 and mu is near 4, so the lowest present class mostly draws."""
    shifts = (draw(st.lists(st.floats(0.0, 3.3), max_size=2))
              + draw(st.lists(st.floats(3.4, 8.1), min_size=12, max_size=40)))
    proposals = np.array([BASE_BOX] + [BASE_BOX + [s, 0.0, s, 0.0] for s in shifts])
    num_classes = draw(st.integers(1, 3))
    label = draw(st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any))
    scene = make_scene(proposals, num_classes, num_classes + 1, label, draw(st.integers(0, 10_000)), False)
    model = ToyModel.initialize(num_classes, num_classes + 1, draw(st.integers(1, 3)), seed=0, init_scale=0.0)
    schedule = ScheduleState(t_n=draw(st.integers(T_0 + 5, T_1)), t_0=T_0, t_1=T_1)
    return "spread", scene, model, schedule, draw(st.sampled_from(("opis", "pib_only"))), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases() | drawing_cases())
def test_batched_balance_matches_the_loop(case):
    _, scene, model, schedule, method, seed = case
    assert_matches_loop(scene, model, schedule, method, seed)


def test_batched_balance_matches_the_loop_on_fixed_scenes():
    """Fixed scenes that between them absorb a center, keep a group whole,
    draw, and fire and spare the neglect rule; plus the shared-center scene."""
    cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40, clutter_rate=0.3)
    kinds = set()
    for seed in range(30):
        scene = generate_scene(cfg, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, 0))))
        model = ToyModel.initialize(3, 8, 2, seed=seed, init_scale=2.0)
        for t_n, method in ((12, "pib_only"), (19, "opis"), (5, "opis")):
            kinds |= assert_matches_loop(scene, model, ScheduleState(t_n=t_n, t_0=T_0, t_1=T_1), method, seed)
    assert kinds == {"absorbed", "kept whole", "drawn", "center only", "all positives"}

    proposals = np.array([BASE_BOX, BASE_BOX + [1.0, 0.0, 1.0, 0.0], BASE_BOX + [6.0, 0.0, 6.0, 0.0]])
    scene = make_scene(proposals, 3, 4, [0, 1, 1], 5, False)
    model = ToyModel.initialize(3, 4, 3, seed=0, init_scale=0.0)
    assert assert_matches_loop(scene, model, ScheduleState(t_n=15, t_0=T_0, t_1=T_1), "opis", 0) == {
        "absorbed", "kept whole"}


def test_streams_open_only_for_drawing_groups(monkeypatch):
    """One fine-tune pass opens one sampler stream per group with
    floor(mu * n_pos) < n_neg, the groups its record marks ``drew``, and none
    for any other group, a target equal to the supply included."""
    opened = []
    generator = SamplerRng.generator

    def counting(self):
        opened.append((self.scene_id, self.iteration, self.branch, self.class_id))
        return generator(self)

    monkeypatch.setattr(SamplerRng, "generator", counting)
    cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40, clutter_rate=0.3)
    drawing = kept_whole = target_at_supply = 0
    for t_n in (12, 17):
        schedule = ScheduleState(t_n=t_n, t_0=T_0, t_1=T_1)
        for seed in range(10):
            scene = generate_scene(cfg, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, 0))),
                                   scene_id=seed)
            scores = forward(ToyModel.initialize(3, 8, 3, seed=seed, init_scale=2.0), scene)
            opened.clear()
            balance = supervise_scene(scene, scores, schedule, "pib_only", seed, t_n).balance
            sampled = [(k, c, int(balance.n_pos[k - 1, c]), int(balance.n_neg[k - 1, c]))
                       for k in (1, 2, 3) for c in (np.flatnonzero(scene.image_label) + 1).tolist()
                       if balance.n_pos[k - 1, c] and balance.n_neg[k - 1, c]]
            expected = sorted((seed, t_n, k, c) for k, c, n_pos, n_neg in sampled
                              if math.floor(schedule.mu * n_pos) < n_neg)
            assert sorted(opened) == expected
            assert sorted((seed, t_n, k + 1, c) for k, c in zip(*balance.drew.nonzero())) == expected
            drawing += len(expected)
            kept_whole += len(sampled) - len(expected)
            target_at_supply += sum(math.floor(schedule.mu * n_pos) == n_neg for _, _, n_pos, n_neg in sampled)
    assert drawing > 0 and kept_whole > 0 and target_at_supply > 0


def test_branch_rows_equal_the_scene_record():
    """Each ``build_branch_supervision`` row is that row of the whole scene's
    record, and a rerun records the same arrays."""
    cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40, clutter_rate=0.3)
    scene = generate_scene(cfg, np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1, 0))))
    scores = forward(ToyModel.initialize(3, 8, 3, seed=3, init_scale=2.0), scene)
    schedule = ScheduleState(t_n=12, t_0=T_0, t_1=T_1)
    balance = supervise_scene(scene, scores, schedule, "opis", 3, 12).balance
    rows = [build_branch_supervision(scene, scores, k, schedule, "opis", 3, 12).balance for k in (1, 2, 3)]
    rerun = supervise_scene(scene, scores, schedule, "opis", 3, 12).balance
    for name in ("n_pos", "n_neg", "supply", "target", "drew", "fired"):
        assert_same_array(np.concatenate([getattr(row, name) for row in rows]), getattr(balance, name), name)
        assert_same_array(getattr(rerun, name), getattr(balance, name), name)


def loop_train(config, dataset):
    """Oracle: ``train`` as the per-scene loop it replaced, one ``scene_pass``
    per scene and one ``ScheduleState`` per iteration."""
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


def assert_trains_like_the_loop(config, dataset):
    """``train`` equals the loop oracle bit for bit; returns its log."""
    model, log = train(config, dataset)
    want_model, want_log = loop_train(config, dataset)
    assert log.rows() == want_log.rows()
    assert model.flat.tobytes() == want_model.flat.tobytes()
    return log


# (batch size, proposals, branches): every B in {1, 2, 3}, P in {40, 150, 600}
# and K in {1, 3}, under every method.
STEP_SHAPES = [(1, 40, 3), (2, 150, 1), (3, 600, 3), (2, 40, 1), (3, 150, 3)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("batch_size,num_proposals,refinements", STEP_SHAPES)
def test_stacked_step_matches_the_per_scene_loop(method, batch_size, num_proposals, refinements):
    """Every iteration's log row and the final parameters, in both phases,
    at mu_s = 4, where instance balance draws most."""
    scene = SceneConfig(num_classes=3, feature_dim=8, num_proposals=num_proposals)
    config = TrainConfig(seed=batch_size, method=method, scenes_per_epoch=7, batch_size=batch_size,
                         iterations_override=8, t0_fraction=0.5, refinements=refinements, mu_s=4.0,
                         learning_rate=0.3, scene=scene)
    log = assert_trains_like_the_loop(config, generate_dataset(scene, config.seed, config.scenes_per_epoch))
    assert {r.phase for r in log.records} == {"normal", "finetune"}
    if method in ("pib_only", "opis"):
        assert any(r.neg_after < r.neg_before for r in log.records)


@pytest.mark.parametrize("method", METHODS)
def test_stacked_step_matches_the_loop_on_a_repeated_scene(method):
    """One scene, two copies per batch: both copies draw on the same streams."""
    scene = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40)
    config = TrainConfig(seed=5, method=method, scenes_per_epoch=1, batch_size=2, iterations_override=10,
                         t0_fraction=0.3, mu_s=4.0, refinements=2, scene=scene)
    assert_trains_like_the_loop(config, generate_dataset(scene, config.seed, 1))


def test_stacked_step_matches_the_loop_at_default_scale():
    config = TrainConfig(seed=2, method="opis", scenes_per_epoch=20, iterations_override=30, t0_fraction=0.4)
    dataset = generate_dataset(config.scene, config.seed, config.scenes_per_epoch)
    assert_trains_like_the_loop(config, dataset)
    assert_trains_like_the_loop(replace(config, method="pib_only", t0_fraction=0.1), dataset)


def test_mixed_proposal_counts_rejected():
    small = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
    dataset = generate_dataset(small, 0, 2) + generate_dataset(replace(small, num_proposals=40), 0, 2)
    config = TrainConfig(method="opis", scenes_per_epoch=4, iterations_override=4, scene=small)
    with pytest.raises(ValueError, match=r"proposal count.*\[30, 40\]"):
        train(config, dataset)
