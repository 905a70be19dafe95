"""Property tests of the batched supervision pass on degenerate scenes.

Each drawn scene runs through ``scene_pass``, which supervises all of a
scene's branches at once, and every branch is checked against a pipeline
assembled from the single-branch public functions.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opis.harness import METHODS, Scene, ToyModel, build_branch_supervision, forward, scene_pass
from opis.losses import zeta
from opis.reweighting import reweight_branch
from opis.sampling import (
    SamplerRng,
    ScheduleState,
    apply_selection_mask,
    reselect_positives,
    sample_negatives_detail,
)
from opis.supervision import assign_labels, select_cluster_centers

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
    phi_prev = scores.phi_prev(branch)
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
    assert len(sup) == model.num_branches

    scores = forward(model, scene)
    c_bg = model.num_classes + 1
    for k, branch in enumerate(sup, start=1):
        t = branch.targets
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
        assert branch.neg_after <= branch.neg_before == np.count_nonzero(negative)

        # The sampler's count law, per sampled class.
        for c, rec in branch.balance.items():
            if rec.outcome != "sampled":
                continue
            d = rec.detail
            assert d.selected.size == min(math.floor(schedule.mu * rec.n_pos), rec.n_neg)
            assert np.all(t.source_class[d.selected] == c) and np.all(negative[d.selected])
            if d.target < rec.n_neg:
                assert [s.size for s in d.stage1] == [min(rec.n_pos, b.size) for b in d.bin_members]
        if branch.balance:
            assert branch.zeta == scene.num_proposals / np.count_nonzero(t.selected)
        if layout == "one_bin" and np.any(negative):
            # Every negative of the lowest present class falls in one bin.
            sampled = [r for r in branch.balance.values() if r.outcome == "sampled"]
            assert all(sum(b.size > 0 for b in r.detail.bin_members) == 1 for r in sampled)

        expected, zeta_k = single_branch_pipeline(scene, scores, k, schedule, method, seed)
        assert_same_targets(t, expected)
        assert branch.zeta == zeta_k
        single = build_branch_supervision(scene, scores, k, schedule, method, seed, schedule.t_n)
        assert_same_targets(single.targets, t)
        assert single.balance.keys() == branch.balance.keys()


@pytest.mark.parametrize("num_branches", [1, 3])
def test_shared_center_goes_to_the_lowest_class(num_branches):
    """With a zero model every class of every branch picks proposal 0; the
    lowest present class takes all its proposals and the others are absorbed."""
    proposals = np.array([BASE_BOX, BASE_BOX + [1.0, 0.0, 1.0, 0.0], BASE_BOX + [6.0, 0.0, 6.0, 0.0]])
    scene = make_scene(proposals, 3, 4, [0, 1, 1], 5, False)
    model = ToyModel.initialize(3, 4, num_branches, seed=0, init_scale=0.0)
    schedule = ScheduleState(t_n=15, t_0=T_0, t_1=T_1)
    _, _, sup, _ = scene_pass(model, scene, schedule, "opis", 0, 15)
    for branch in sup:
        np.testing.assert_array_equal(branch.targets.source_class, [2, 2, 2])
        np.testing.assert_array_equal(branch.targets.assigned_class, [2, 2, 4])
        assert {c: r.outcome for c, r in branch.balance.items()} == {2: "sampled", 3: "absorbed"}
        # One negative against a target of floor(mu * 2): the whole supply is kept.
        assert branch.balance[2].detail.selected.tolist() == [2]
