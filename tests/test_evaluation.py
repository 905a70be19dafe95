"""Detection metrics: hand-built precision-recall fixtures, rank invariance,
greedy matching rules, and the CorLoc counter. AP matching is checked against
the per-detection matcher and running-max envelope it replaced, kept here
verbatim as an oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opis import evaluation
from opis.evaluation import (
    UndefinedAPError,
    _class_ap,
    branch_mean_scores,
    corloc,
    detect,
    dump_detections,
    evaluate_scenes,
    mean_ap,
    voc_ap,
)
from opis.geometry import BBox, ScoredBox, pairwise_iou
from opis.harness import Scene, SceneConfig, ToyModel, forward, generate_dataset, generate_scene


def det(x1, y1, x2, y2, score, cls=1):
    return ScoredBox(BBox(x1, y1, x2, y2), score, cls)


GT_UNIT = [(BBox(0, 0, 10, 10), 1)]


class TestVocAP:
    def test_single_perfect_detection(self):
        dets = [det(0, 0, 10, 10, 0.9)]
        assert voc_ap(dets, GT_UNIT, 1) == 1.0

    def test_tp_then_fp_saturated_recall(self):
        # recall hits 1.0 at the first detection; the later FP cannot lower AP
        dets = [det(0, 0, 10, 10, 0.9), det(50, 50, 60, 60, 0.8)]
        assert voc_ap(dets, GT_UNIT, 1) == 1.0

    def test_fp_outranking_tp(self):
        # PR points: (R=0, P=0) then (R=1, P=0.5) -> area 0.5
        dets = [det(50, 50, 60, 60, 0.9), det(0, 0, 10, 10, 0.8)]
        assert voc_ap(dets, GT_UNIT, 1) == 0.5

    def test_strictly_greater_iou_criterion(self):
        # IoU exactly 0.5 must NOT match
        half = det(0, 0, 5, 10, 0.9)  # iou = 50/100 = 0.5
        assert voc_ap([half], GT_UNIT, 1) == 0.0

    def test_duplicate_detections_single_tp(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8), det(0, 0, 10, 10, 0.7)]
        # one TP then two FPs on the same gt: precision drops after rank 1
        assert voc_ap(dets, GT_UNIT, 1) == 1.0
        gts = [(BBox(0, 0, 10, 10), 1), (BBox(100, 100, 110, 110), 1)]
        # second gt never found: recall caps at 0.5
        assert voc_ap(dets, gts, 1) == 0.5

    def test_no_gt_raises(self):
        with pytest.raises(UndefinedAPError):
            voc_ap([det(0, 0, 1, 1, 0.5)], GT_UNIT, class_id=2)

    def test_no_detections_zero_ap(self):
        assert voc_ap([], GT_UNIT, 1) == 0.0

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(0)
        gts = [(BBox(0, 0, 10, 10), 1), (BBox(30, 30, 45, 40), 1), (BBox(60, 5, 70, 25), 1)]
        dets = [
            det(0, 0, 9, 10, 0.81),
            det(31, 30, 45, 41, 0.62),
            det(2, 2, 12, 12, 0.55),
            det(60, 6, 70, 24, 0.43),
            det(80, 80, 90, 90, 0.30),
        ]
        base = voc_ap(dets, gts, 1)
        for _ in range(20):
            a, b = sorted(rng.uniform(0.5, 3.0, size=2))
            transformed = [det(d.box.x1, d.box.y1, d.box.x2, d.box.y2, min(1.0, d.score ** a * b / 3), 1) for d in dets]
            # strictly monotone transforms preserve the ranking, hence the AP
            ranks = np.argsort([-d.score for d in dets])
            t_ranks = np.argsort([-d.score for d in transformed])
            if np.array_equal(ranks, t_ranks):
                assert voc_ap(transformed, gts, 1) == base

    def test_ap_bounded(self):
        rng = np.random.default_rng(1)
        gts = [(BBox(10 * i, 0, 10 * i + 8, 8), 1) for i in range(5)]
        for _ in range(50):
            dets = [
                det(float(x), 0.0, float(x) + 8.0, 8.0, float(rng.uniform()), 1)
                for x in rng.uniform(0, 50, size=10)
            ]
            ap = voc_ap(dets, gts, 1)
            assert 0.0 <= ap <= 1.0


class TestMeanAP:
    def test_single_class_equals_ap(self):
        dets = [det(0, 0, 10, 10, 0.9)]
        assert mean_ap(dets, GT_UNIT, classes=[1, 2]) == voc_ap(dets, GT_UNIT, 1)

    def test_two_class_mean(self):
        gts = [(BBox(0, 0, 10, 10), 1), (BBox(20, 20, 30, 30), 2)]
        dets = [det(0, 0, 10, 10, 0.9, cls=1), det(90, 90, 95, 95, 0.9, cls=2)]
        assert mean_ap(dets, gts, classes=[1, 2]) == 0.5

    def test_mean_matches_arithmetic(self):
        rng = np.random.default_rng(2)
        gts = []
        dets = []
        for c in (1, 2, 3):
            for i in range(3):
                x = float(rng.uniform(0, 80))
                gts.append((BBox(x, 10 * c, x + 8, 10 * c + 8), c))
                if rng.uniform() < 0.8:
                    dets.append(det(x + 1, 10 * c, x + 9, 10 * c + 8, float(rng.uniform()), c))
        per_class = [voc_ap(dets, gts, c) for c in (1, 2, 3)]
        assert mean_ap(dets, gts, classes=[1, 2, 3]) == pytest.approx(np.mean(per_class), abs=1e-12)


def scene_with_scores(scene_id, gt, gt_classes, proposals, num_classes=2):
    label = np.zeros(num_classes, dtype=np.int8)
    label[np.asarray(gt_classes) - 1] = 1
    return Scene(
        scene_id=scene_id,
        proposals=np.asarray(proposals, dtype=np.float64),
        features=np.zeros((len(proposals), 2)),
        image_label=label,
        gt_boxes=np.asarray(gt, dtype=np.float64),
        gt_classes=np.asarray(gt_classes, dtype=np.int64),
    )


class TestCorLoc:
    def test_mixed_fixture_three_of_four(self):
        # four (scene, class) pairs; scores steer the argmax on and off target
        on_target = [[0, 0, 10, 10], [50, 50, 60, 60]]
        scenes = [
            scene_with_scores(0, [[0, 0, 10, 10]], [1], on_target),
            scene_with_scores(1, [[0, 0, 10, 10]], [1], on_target),
            scene_with_scores(2, [[0, 0, 10, 10]], [2], on_target),
            scene_with_scores(3, [[0, 0, 10, 10]], [2], on_target),
        ]
        hit = np.array([[0.9, 0.1], [0.9, 0.1]])  # argmax -> proposal 0 (on the gt)
        miss = np.array([[0.1, 0.9], [0.1, 0.9]])  # argmax -> proposal 1 (clutter)
        score_by_scene = {0: hit, 1: hit, 2: hit, 3: miss}
        got = corloc(None, scenes, score_fn=lambda s: score_by_scene[s.scene_id])
        assert got == 0.75

    def test_perfect_and_zero(self):
        scenes = [scene_with_scores(0, [[0, 0, 10, 10]], [1], [[0, 0, 10, 10], [40, 40, 50, 50]])]
        assert corloc(None, scenes, score_fn=lambda s: np.array([[1.0, 0.0]])) == 1.0
        assert corloc(None, scenes, score_fn=lambda s: np.array([[0.0, 1.0]])) == 0.0

    def test_strict_threshold(self):
        # top proposal at IoU exactly 0.5 does not count
        scenes = [scene_with_scores(0, [[0, 0, 10, 10]], [1], [[0, 0, 5, 10]])]
        assert corloc(None, scenes, score_fn=lambda s: np.array([[1.0]])) == 0.0

    def test_nms_free(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=40)
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1, 0)))
        scenes = [generate_scene(cfg, rng, i) for i in range(5)]
        model = ToyModel.initialize(3, 8, 2, seed=0, init_scale=0.7)
        assert corloc(model, scenes) == corloc(model, scenes)  # deterministic
        # and independent of any NMS threshold by construction: corloc takes no such argument


class TestDetect:
    def make_model_scene(self, init_scale=0.7):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
        rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(1, 0)))
        scene = generate_scene(cfg, rng, 0)
        return ToyModel.initialize(3, 8, 2, seed=1, init_scale=init_scale), scene

    def test_zero_model_with_high_floor_is_empty(self):
        model, scene = self.make_model_scene(init_scale=0.0)
        # uniform scores are exactly 1/(C+1) = 0.25; floor above that drops all
        assert detect(model, scene, score_floor=0.26) == []
        assert len(detect(model, scene, score_floor=0.24)) > 0

    def test_single_branch_mean_is_identity(self):
        model, scene = self.make_model_scene()
        single = ToyModel(
            w_cls=model.w_cls, b_cls=model.b_cls, w_det=model.w_det, b_det=model.b_det,
            w_ref=model.w_ref[:1], b_ref=model.b_ref[:1],
        )
        scores = forward(single, scene)
        dets = detect(single, scene, score_floor=1e-3)
        for d in dets:
            r = np.flatnonzero((scene.proposals == d.box.as_array()).all(axis=1))[0]
            assert d.score == scores.phi[0][d.class_id - 1, r]

    def test_scores_match_branch_mean_bitwise(self):
        model, scene = self.make_model_scene()
        scores = forward(model, scene)
        expected = (scores.phi[0] + scores.phi[1]) / 2.0
        for d in detect(model, scene, score_floor=1e-3):
            r = np.flatnonzero((scene.proposals == d.box.as_array()).all(axis=1))[0]
            assert d.score == expected[d.class_id - 1, r]

    def test_nms_applied_per_class(self):
        model, scene = self.make_model_scene()
        dets = detect(model, scene, nms_iou=0.3)
        from opis.geometry import iou
        for i, a in enumerate(dets):
            for b in dets[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.3


class TestEvaluateScenes:
    def test_report_and_dump(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1, 0)))
        scenes = [generate_scene(cfg, rng, i) for i in range(4)]
        model = ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)
        report, records = evaluate_scenes(model, scenes)
        assert 0.0 <= report.mean_ap <= 1.0
        assert 0.0 <= report.corloc <= 1.0
        assert report.num_scenes == 4
        assert report.num_detections == len(records)
        assert set(report.per_class_ap) == {int(c) for s in scenes for c in s.gt_classes}
        text = dump_detections(records)
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == len(records)
        assert report.to_json() == report.to_json()  # deterministic

    def test_cross_scene_matching_isolated(self):
        """A detection in one scene must not match a gt in another scene."""
        s0 = scene_with_scores(0, [[0, 0, 10, 10]], [1], [[0, 0, 10, 10], [30, 30, 40, 40]])
        s1 = scene_with_scores(1, [[70, 70, 80, 80]], [1], [[0, 0, 10, 10], [70, 70, 80, 80]])

        class FakeModel:
            pass

        # assemble detections by hand through the pooled matcher
        from opis.evaluation import _class_ap
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        det_scene = np.array([0, 1])
        gts = [(BBox(0, 0, 10, 10), 1), (BBox(70, 70, 80, 80), 1)]
        gt_scene = np.array([0, 1])
        ap = _class_ap(dets, det_scene, gts, gt_scene, 1, 0.5)
        # scene-0 det is a TP; the identical box in scene 1 has no local gt -> FP
        assert ap == 0.5


def _match_detections(det_scores, det_boxes, det_scene, gt_boxes, gt_scene, iou_thresh):
    """Greedy TP/FP flags in descending score order (ties keep input order)."""
    order = np.argsort(-det_scores, kind="stable")
    used = np.zeros(gt_boxes.shape[0], dtype=bool)
    tp = np.zeros(det_scores.size, dtype=bool)
    for rank, i in enumerate(order):
        same_scene = np.flatnonzero(gt_scene == det_scene[i])
        if same_scene.size == 0:
            continue
        overlaps = pairwise_iou(det_boxes[i : i + 1], gt_boxes[same_scene])[0]
        j = int(overlaps.argmax())
        if overlaps[j] > iou_thresh and not used[same_scene[j]]:
            used[same_scene[j]] = True
            tp[rank] = True
    return tp


def _ap_from_flags(tp, n_gt):
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(~tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def oracle_class_ap(dets, det_scene, gts, gt_scene, class_id, iou_thresh):
    gt_mask = np.array([g[1] == class_id for g in gts], dtype=bool)
    det_idx = [i for i, d in enumerate(dets) if d.class_id == class_id]
    if not det_idx:
        return 0.0
    tp = _match_detections(
        np.array([dets[i].score for i in det_idx]),
        np.array([dets[i].box.as_array() for i in det_idx]),
        det_scene[det_idx],
        np.array([g[0].as_array() for g, m in zip(gts, gt_mask) if m]),
        gt_scene[gt_mask],
        iou_thresh,
    )
    return _ap_from_flags(tp, int(gt_mask.sum()))


@st.composite
def grid_box(draw):
    """A box with integer corners, so that IoU often lands exactly on 0.5."""
    x1, y1 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return BBox(x1, y1, x1 + draw(st.integers(1, 4)), y1 + draw(st.integers(1, 4)))


@st.composite
def matching_fixtures(draw):
    """Detections and ground truths of two classes over up to four scenes (ids
    not consecutive); ground truths may repeat, and detections may copy a
    ground-truth box or each other, share a score, or sit in a scene without
    ground truth of their class."""
    scene_ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True))
    gts = draw(st.lists(st.tuples(grid_box(), st.sampled_from([1, 2]), st.sampled_from(scene_ids)),
                        min_size=1, max_size=8))
    gts += draw(st.lists(st.sampled_from(gts), max_size=2))  # duplicate ground truths
    dets = []
    for _ in range(draw(st.integers(0, 16))):
        source = draw(st.sampled_from(["gt", "det", "grid"]))
        if source == "gt" or (source == "det" and not dets):
            box, _, scene = draw(st.sampled_from(gts))
        elif source == "det":
            box, scene = draw(st.sampled_from(dets))[0].box, draw(st.sampled_from(scene_ids))
        else:
            box, scene = draw(grid_box()), draw(st.sampled_from(scene_ids))
        score = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
        dets.append((ScoredBox(box, score, draw(st.sampled_from([1, 2]))), scene))
    iou_thresh = draw(st.sampled_from([0.0, 1 / 3, 0.5, 0.7]))
    return ([d for d, _ in dets], np.array([s for _, s in dets], dtype=np.int64),
            [(b, c) for b, c, _ in gts], np.array([s for _, _, s in gts], dtype=np.int64), iou_thresh)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matching_fixtures())
def test_class_ap_matches_the_per_detection_matcher(fixture):
    dets, det_scene, gts, gt_scene, iou_thresh = fixture
    for c in sorted({c for _, c in gts}):
        assert _class_ap(dets, det_scene, gts, gt_scene, c, iou_thresh) == oracle_class_ap(
            dets, det_scene, gts, gt_scene, c, iou_thresh)


def test_exact_half_overlap_and_claim_order_against_oracle():
    """Two ground truths in scene 3 and none in scene 5: the top detection sits
    at IoU exactly 0.5 on the first (a miss), an equal-score copy of the first
    claims it, and the copies after it are false positives."""
    gts = [(BBox(0, 0, 2, 2), 1), (BBox(4, 0, 6, 2), 1)]
    gt_scene = np.array([3, 3])
    dets = [det(0, 0, 1, 2, 0.9), det(0, 0, 2, 2, 0.9), det(0, 0, 2, 2, 0.9), det(4, 0, 6, 2, 0.5),
            det(4, 0, 6, 2, 0.9)]
    det_scene = np.array([3, 3, 3, 3, 5])
    ap = _class_ap(dets, det_scene, gts, gt_scene, 1, 0.5)
    assert ap == oracle_class_ap(dets, det_scene, gts, gt_scene, 1, 0.5)
    # ranks: miss, TP, FP, FP (scene 5), TP -> precision 1/2 at recall 1/2, 2/5 at recall 1
    assert ap == 0.5 * 0.5 + 0.5 * 0.4


def test_equal_overlaps_go_to_the_first_ground_truth():
    """The top detection straddles two ground truths at IoU 1/3 each and claims
    the first, so the later exact detection of that one is a false positive."""
    gts = [(BBox(0, 0, 2, 2), 1), (BBox(2, 0, 4, 2), 1)]
    dets = [det(1, 0, 3, 2, 0.9), det(0, 0, 2, 2, 0.5)]
    args = (dets, np.zeros(2, dtype=np.int64), gts, np.zeros(2, dtype=np.int64), 1, 0.3)
    assert _class_ap(*args) == oracle_class_ap(*args) == 0.5


class TestOneScoringPerScene:
    def scenes_and_model(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
        return generate_dataset(cfg, 5, 6), ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)

    def test_forward_once_and_detect_once_per_scene(self, monkeypatch):
        scenes, model = self.scenes_and_model()
        calls = {"forward": [], "detect": []}

        def counted(name, fn):
            def wrapper(model, scene, *args, **kwargs):
                calls[name].append(scene.scene_id)
                return fn(model, scene, *args, **kwargs)
            return wrapper

        expected, _ = evaluate_scenes(model, scenes)
        monkeypatch.setattr(evaluation, "forward", counted("forward", forward))
        monkeypatch.setattr(evaluation, "detect", counted("detect", detect))
        report, _ = evaluate_scenes(model, scenes)
        assert calls["forward"] == calls["detect"] == [s.scene_id for s in scenes]
        assert report == expected

    @pytest.mark.parametrize("kwargs", [{}, dict(score_floor=0.0), dict(nms_iou=0.01), dict(score_floor=0.3)])
    def test_detect_on_given_scores_equals_detect(self, kwargs):
        scenes, model = self.scenes_and_model()
        for scene in scenes:
            given_scores = detect(model, scene, scores=branch_mean_scores(model, scene), **kwargs)
            assert given_scores == detect(model, scene, **kwargs)
