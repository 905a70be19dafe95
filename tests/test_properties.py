"""Property tests of the batched supervision pass on degenerate scenes.

Each drawn scene runs through ``scene_pass``, which supervises all of a
scene's branches at once, and every branch is checked against a pipeline
assembled from the single-branch public functions. Instance balance is also
checked against the per-(branch, class) loop it replaced, kept here verbatim
as an oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opis.harness import (
    METHODS,
    ClassBalance,
    Scene,
    SceneConfig,
    ToyModel,
    build_branch_supervision,
    forward,
    generate_scene,
    scene_pass,
    supervise_scene,
)
from opis.losses import zeta
from opis.reweighting import reweight_branch
from opis.sampling import (
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


def loop_supervise_scene(scene, scores, schedule, method, seed, iteration):
    """Oracle: ``supervise_scene`` as a per-(branch, class) loop that opens a
    sampler stream for every group with negatives. Returns the fields of a
    ``SceneSupervision`` as a dict."""
    supervisors = scores.supervisors
    num_branches, num_proposals = supervisors.shape[0], scene.num_proposals
    classes, centers = cluster_center_indices(supervisors, scene.image_label)
    targets = assign_branches(classes, centers, scene.proposals, supervisors, schedule.lambda_ig, schedule.lambda_ng)
    background = targets.num_classes + 1
    negative = targets.assigned_class == background
    neg_before = np.count_nonzero(negative, axis=1)
    neg_after = neg_before
    zetas = np.ones(num_branches)

    balance = [{} for _ in range(num_branches)]
    if schedule.phase == "finetune" and method in ("pib_only", "opis"):
        mu, neglect = schedule.mu, schedule.neglect
        keep = np.zeros(targets.assigned_class.shape, dtype=bool)
        neg_after = [0] * num_branches
        neg_source = np.where(negative, targets.source_class, 0)
        for k in range(num_branches):
            assigned, sources, keep_k = targets.assigned_class[k], neg_source[k], keep[k]
            for c, center in zip(classes.tolist(), centers[k].tolist()):
                pos_c = (assigned == c).nonzero()[0]
                neg_c = (sources == c).nonzero()[0]
                if pos_c.size == 0:
                    # Another class's identical center box absorbed this
                    # class's proposals; there is nothing to balance.
                    balance[k][c] = ClassBalance(0, neg_c.size, "absorbed")
                    continue
                if neg_c.size > 0:
                    rng = SamplerRng(seed, scene.scene_id, iteration, k + 1, c).generator()
                    detail = sample_negatives_detail(
                        neg_c, targets.max_iou[k, neg_c], pos_c.size, mu,
                        schedule.lambda_ig, schedule.lambda_ng, rng,
                    )
                    balance[k][c] = ClassBalance(pos_c.size, neg_c.size, "sampled", detail)
                    keep_k[detail.selected] = True
                    neg_after[k] += detail.selected.size
                    kept = pos_c
                else:
                    kept = reselect_positives(pos_c, supervisors[k], c, center, neglect)
                    # The rule returns pos_c itself unless it fires.
                    balance[k][c] = ClassBalance(pos_c.size, 0, "all positives" if kept is pos_c else "center only")
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


def assert_same_records(got, want):
    """Equal balance records: every ``ClassBalance`` and ``NegativeSampleDetail`` field."""
    assert len(got) == len(want)
    for branch_got, branch_want in zip(got, want):
        assert list(branch_got) == list(branch_want)
        for c, rec in branch_want.items():
            other = branch_got[c]
            assert (other.n_pos, other.n_neg, other.outcome) == (rec.n_pos, rec.n_neg, rec.outcome), c
            assert (other.detail is None) == (rec.detail is None), c
            if rec.detail is None:
                continue
            assert other.detail.target == rec.detail.target
            for name in ("bin_members", "stage1"):
                assert len(getattr(other.detail, name)) == len(getattr(rec.detail, name)), name
                for a, b in zip(getattr(other.detail, name), getattr(rec.detail, name)):
                    assert_same_array(a, b, name)
            assert_same_array(other.detail.stage2, rec.detail.stage2, "stage2")
            assert_same_array(other.detail.selected, rec.detail.selected, "selected")


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
    for rec in (r for branch in want["balance"] for r in branch.values()):
        drew = rec.detail is not None and rec.detail.target < rec.n_neg
        kinds.add("drawn" if drew else "kept whole" if rec.outcome == "sampled" else rec.outcome)
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
    floor(mu * n_pos) < n_neg and none for any other group, a target equal to
    the supply included, and reading the balance records opens none."""
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
            sup = supervise_scene(scene, scores, schedule, "pib_only", seed, t_n)
            during_pass = sorted(opened)
            sampled = [(k, c, rec) for k, branch in enumerate(sup.balance, start=1)
                       for c, rec in branch.items() if rec.outcome == "sampled"]
            expected = sorted((seed, t_n, k, c) for k, c, rec in sampled
                              if math.floor(schedule.mu * rec.n_pos) < rec.n_neg)
            assert during_pass == expected
            assert sorted(opened) == expected  # the records were built without a stream
            drawing += len(expected)
            kept_whole += len(sampled) - len(expected)
            target_at_supply += sum(math.floor(schedule.mu * rec.n_pos) == rec.n_neg for _, _, rec in sampled)
    assert drawing > 0 and kept_whole > 0 and target_at_supply > 0


def test_balance_records_do_not_depend_on_read_order():
    cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40, clutter_rate=0.3)
    scene = generate_scene(cfg, np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1, 0))))
    scores = forward(ToyModel.initialize(3, 8, 3, seed=3, init_scale=2.0), scene)
    schedule = ScheduleState(t_n=12, t_0=T_0, t_1=T_1)
    records_first = supervise_scene(scene, scores, schedule, "opis", 3, 12)
    branches_first = supervise_scene(scene, scores, schedule, "opis", 3, 12)
    balance = records_first.balance
    branches = list(branches_first)
    assert_same_records(balance, branches_first.balance)
    assert_same_records(balance, [b.balance for b in branches])
    assert [b.balance for b in records_first] == balance
