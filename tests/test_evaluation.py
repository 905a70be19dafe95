"""Detection metrics: hand-built precision-recall fixtures, rank invariance,
greedy matching rules, and the CorLoc counter. AP matching is checked against
the per-detection matcher and running-max envelope it replaced, and the
lockstep NMS against the per-class greedy loop it replaced, both kept here
verbatim as oracles. A stack of scenes in one NMS call must keep what each
scene's own call keeps."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opis import evaluation
from opis.evaluation import (
    UndefinedAPError,
    DetectionRecords,
    Detections,
    MetricsReport,
    _class_ap,
    branch_mean_scores,
    corloc,
    detect,
    dump_detections,
    evaluate_scenes,
    mean_ap,
    voc_ap,
)
from opis.geometry import BBox, ScoredBox, nms_indices, pairwise_iou
from opis.harness import Scene, SceneConfig, ToyModel, class_prototypes, forward, generate_dataset, generate_scene


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

    def test_empty_scene_set_names_the_missing_pairs(self, monkeypatch):
        def no_stacking(*args):
            raise AssertionError("detection ran on an empty scene set")

        monkeypatch.setattr(evaluation, "_detect", no_stacking)
        with pytest.raises(ValueError, match=r"no \(scene, present class\) pairs"):
            evaluate_scenes(ToyModel.initialize(3, 8, 2, seed=0), [])

    def test_cross_scene_matching_isolated(self):
        """A detection in one scene must not match a gt in another scene."""
        s0 = scene_with_scores(0, [[0, 0, 10, 10]], [1], [[0, 0, 10, 10], [30, 30, 40, 40]])
        s1 = scene_with_scores(1, [[70, 70, 80, 80]], [1], [[0, 0, 10, 10], [70, 70, 80, 80]])

        class FakeModel:
            pass

        # assemble detections by hand through the pooled matcher
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        det_scene = np.array([0, 1])
        gts = [(BBox(0, 0, 10, 10), 1), (BBox(70, 70, 80, 80), 1)]
        gt_scene = np.array([0, 1])
        ap = class_ap(dets, det_scene, gts, gt_scene, 1, 0.5)
        # scene-0 det is a TP; the identical box in scene 1 has no local gt -> FP
        assert ap == 0.5


def class_ap(dets, det_scene, gts, gt_scene, class_id, iou_thresh):
    """``_class_ap`` of one class, on columns of object lists whose scenes are
    the given labels (no element is read, so no scene ids are needed)."""
    columns = Detections(None, det_scene, np.array([d.class_id for d in dets], dtype=int),
                         np.array([d.score for d in dets]), np.array([d.box.as_array() for d in dets]).reshape(-1, 4))
    gt_columns = (gt_scene, np.array([c for _, c in gts]), np.array([b.as_array() for b, _ in gts]).reshape(-1, 4))
    return _class_ap(columns, gt_columns, iou_thresh)[class_id]


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
        assert class_ap(dets, det_scene, gts, gt_scene, c, iou_thresh) == oracle_class_ap(
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
    ap = class_ap(dets, det_scene, gts, gt_scene, 1, 0.5)
    assert ap == oracle_class_ap(dets, det_scene, gts, gt_scene, 1, 0.5)
    # ranks: miss, TP, FP, FP (scene 5), TP -> precision 1/2 at recall 1/2, 2/5 at recall 1
    assert ap == 0.5 * 0.5 + 0.5 * 0.4


def test_equal_overlaps_go_to_the_first_ground_truth():
    """The top detection straddles two ground truths at IoU 1/3 each and claims
    the first, so the later exact detection of that one is a false positive."""
    gts = [(BBox(0, 0, 2, 2), 1), (BBox(2, 0, 4, 2), 1)]
    dets = [det(1, 0, 3, 2, 0.9), det(0, 0, 2, 2, 0.5)]
    args = (dets, np.zeros(2, dtype=np.int64), gts, np.zeros(2, dtype=np.int64), 1, 0.3)
    assert class_ap(*args) == oracle_class_ap(*args) == 0.5


class TestOneScoringPerScene:
    def scenes_and_model(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
        return generate_dataset(cfg, 5, 6), ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)

    def test_forward_once_per_scene_and_records_equal_detect(self, monkeypatch):
        """Detection runs on stacks of scenes, not scene by scene through
        ``detect``; each scene's records are still what ``detect`` gives."""
        scenes, model = self.scenes_and_model()
        calls = []

        def counted(model, scene):
            calls.append(scene.scene_id)
            return forward(model, scene)

        expected, _ = evaluate_scenes(model, scenes)
        monkeypatch.setattr(evaluation, "forward", counted)
        report, records = evaluate_scenes(model, scenes)
        assert calls == [s.scene_id for s in scenes]
        assert report == expected
        assert list(records) == [(s.scene_id, d) for s in scenes for d in detect(model, s)]

    @pytest.mark.parametrize("kwargs", [{}, dict(score_floor=0.0), dict(nms_iou=0.01), dict(score_floor=0.3)])
    def test_detect_on_given_scores_equals_detect(self, kwargs):
        scenes, model = self.scenes_and_model()
        for scene in scenes:
            given_scores = detect(model, scene, scores=branch_mean_scores(model, scene), **kwargs)
            assert given_scores == detect(model, scene, **kwargs)


def greedy_nms_indices(boxes, scores, iou_threshold):
    """The one-class greedy NMS that the lockstep pass replaced, verbatim."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).ravel()
    order = np.argsort(-scores, kind="stable")
    kept: list[int] = []
    while order.size:
        i = int(order[0])
        kept.append(i)
        if order.size == 1:
            break
        rest = order[1:]
        overlap = pairwise_iou(boxes[i : i + 1], boxes[rest])[0]
        order = rest[overlap <= iou_threshold]
    return np.asarray(kept, dtype=np.int64)


def oracle_detect(scene, mean_scores, nms_iou, score_floor):
    """The per-class detect loop that the one NMS call per scene replaced, with
    the (class, proposal) pairs it kept."""
    num_classes = mean_scores.shape[0] - 1
    out, pairs = [], []
    for c in range(1, num_classes + 1):
        s = mean_scores[c - 1]
        cand = np.flatnonzero(s >= score_floor)
        if cand.size == 0:
            continue
        keep = greedy_nms_indices(scene.proposals[cand], s[cand], nms_iou)
        for i in cand[keep]:
            x1, y1, x2, y2 = scene.proposals[i]
            out.append(ScoredBox(BBox(x1, y1, x2, y2), float(s[i]), c))
            pairs.append((c, int(i)))
    return out, pairs


@st.composite
def nms_fixtures(draw):
    """A scene of integer-grid proposals, often duplicated, with (C+1, P) scores
    from a few values (so that they tie), an NMS threshold that grid IoUs often
    equal or that lies near 0 or 1 (at 1 nothing is suppressed), and a score
    floor from 0 to above every score."""
    num_classes, p = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    shapes = draw(st.lists(grid_box(), min_size=1, max_size=6))
    proposals = [draw(st.sampled_from(shapes)).as_array() for _ in range(p)]
    values = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    scores = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p),
                                    min_size=num_classes + 1, max_size=num_classes + 1)))
    scene = scene_with_scores(7, [[0, 0, 1, 1]], [1], proposals, num_classes=num_classes)
    nms_iou = draw(st.sampled_from([1e-12, 0.01, 1 / 7, 1 / 3, 0.5, 0.99, 1 - 1e-12, 1.0]))
    score_floor = draw(st.sampled_from([0.0, 1e-3, 0.25, 0.5, 1.5]))
    return scene, scores, nms_iou, score_floor


def check_lockstep_against_oracle(scene, scores, nms_iou, score_floor):
    expected, pairs = oracle_detect(scene, scores, nms_iou, score_floor)
    found = detect(None, scene, nms_iou=nms_iou, score_floor=score_floor, scores=scores)
    assert found == expected and len(found) == len(expected)
    rows, kept = nms_indices(scene.proposals, scores[:-1], nms_iou, scores[:-1] >= score_floor)
    assert list(zip((rows + 1).tolist(), kept.tolist())) == pairs
    for row in scores[:-1]:  # the one-class call is the C = 1 case
        assert np.array_equal(nms_indices(scene.proposals, row, nms_iou),
                              greedy_nms_indices(scene.proposals, row, nms_iou))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nms_fixtures())
def test_lockstep_nms_keeps_the_per_class_indices_in_order(fixture):
    check_lockstep_against_oracle(*fixture)


@pytest.mark.parametrize("num_classes,p", [(1, 1), (1, 5), (3, 1)])
@pytest.mark.parametrize("score_floor", [0.0, 1.5])
def test_lockstep_nms_at_one_class_or_one_proposal(num_classes, p, score_floor):
    rng = np.random.default_rng(num_classes * 10 + p)
    proposals = [[0, 0, 2, 2]] * p
    scene = scene_with_scores(0, [[0, 0, 2, 2]], [1], proposals, num_classes=num_classes)
    scores = rng.choice([0.25, 0.5], size=(num_classes + 1, p))
    check_lockstep_against_oracle(scene, scores, 0.5, score_floor)
    assert len(detect(None, scene, score_floor=score_floor, scores=scores)) == (num_classes if score_floor == 0 else 0)


def test_lockstep_nms_over_several_iou_blocks():
    """At P=300 the suppression matrix is filled in several row blocks, each
    mirrored below the diagonal."""
    model = ToyModel.initialize(3, 8, 2, seed=3, init_scale=1.0)
    for scene in generate_dataset(SceneConfig(num_classes=3, feature_dim=8, num_proposals=300), 9, 2):
        check_lockstep_against_oracle(scene, branch_mean_scores(model, scene), 0.3, 1e-3)


def test_scenes_sharing_an_id_keep_their_own_ground_truths():
    """Two datasets both number their scenes from 0; evaluated together, each
    detection may only claim a ground truth of its own scene, as when the ids
    differ, and the records keep the scenes' own ids."""
    cfg = SceneConfig()
    model = ToyModel.initialize(4, 16, 2, seed=0, init_scale=0.0)
    for w in model.w_ref:
        w[:4] = 8.0 * class_prototypes(cfg)
    a, b = generate_dataset(cfg, 1, 10), generate_dataset(cfg, 2, 10)
    shifted = [dataclasses.replace(s, scene_id=s.scene_id + 10) for s in b]
    report, records = evaluate_scenes(model, a + b)
    apart, apart_records = evaluate_scenes(model, a + shifted)
    assert report == apart
    assert [d for _, d in records] == [d for _, d in apart_records]
    ids = [scene_id for scene_id, _ in records]
    assert ids == [scene_id % 10 for scene_id, _ in apart_records] and max(ids) == 9
    assert dump_detections(records).count('"scene_id": 9,') == ids.count(9)


def test_one_evaluation_over_two_proposal_counts_equals_per_scene_detect(monkeypatch):
    """Scenes of 30 and 40 proposals, interleaved, go to NMS in one stack per
    proposal count; the records come back in input order and equal each
    scene's ``detect``, and the report is the one those records give."""
    model = ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)
    a = generate_dataset(SceneConfig(num_classes=3, feature_dim=8, num_proposals=30), 5, 4)
    b = generate_dataset(SceneConfig(num_classes=3, feature_dim=8, num_proposals=40), 6, 3)
    scenes = [a[0], b[0], a[1], a[2], b[1], b[2], a[3]]
    report, records = evaluate_scenes(model, scenes)

    per_scene = [detect(model, scene) for scene in scenes]
    assert list(records) == [(scene.scene_id, d) for scene, dets in zip(scenes, per_scene) for d in dets]
    columns = DetectionRecords(
        [scene.scene_id for scene in scenes],
        np.repeat(np.arange(len(scenes)), [len(dets) for dets in per_scene]),
        *(np.concatenate([getattr(dets, name) for dets in per_scene]) for name in ("class_id", "score", "box")),
    )
    gts = (np.repeat(np.arange(len(scenes)), [scene.gt_classes.size for scene in scenes]),
           np.concatenate([scene.gt_classes for scene in scenes]),
           np.concatenate([scene.gt_boxes for scene in scenes]))
    per_class = _class_ap(columns, gts, 0.5)
    assert report == MetricsReport(per_class, float(np.mean(list(per_class.values()))), corloc(model, scenes),
                                   len(scenes), len(columns))

    monkeypatch.setattr(evaluation, "_NMS_BYTES", 0)  # one scene per NMS call
    assert evaluate_scenes(model, scenes) == (report, records)


@st.composite
def scene_stacks(draw):
    """S scenes of P proposals each, laid out so that their kept counts differ
    widely (copies of one box keep one per class, a row of disjoint boxes
    keeps every candidate, grid boxes often tie or touch), with (S, C+1, P)
    scores from a few tied values, an NMS threshold at which nothing, or
    anything that overlaps, or a third is suppressed, and a score floor from
    0 to above every score."""
    num_scenes, num_classes, p = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 10))
    layouts = []
    for _ in range(num_scenes):
        layout = draw(st.sampled_from(["copies", "disjoint", "grid"]))
        if layout == "copies":
            layouts.append([[0.0, 0.0, 2.0, 2.0]] * p)
        elif layout == "disjoint":
            layouts.append([[3.0 * i, 0.0, 3.0 * i + 2.0, 2.0] for i in range(p)])
        else:
            layouts.append([draw(grid_box()).as_array() for _ in range(p)])
    values = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    size = num_scenes * (num_classes + 1) * p
    scores = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(num_scenes, num_classes + 1, p)
    nms_iou = draw(st.sampled_from([1e-12, 1 / 3, 1.0]))
    score_floor = draw(st.sampled_from([0.0, 0.25, 1.5]))
    return np.array(layouts, dtype=np.float64).reshape(num_scenes, p, 4), scores, nms_iou, score_floor


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scene_stacks(), st.integers(0, 4))
def test_stacked_nms_keeps_what_each_scene_keeps(stack, scenes_per_call):
    """One (S, C, P) ``nms_indices`` call, and detection cut into stacks of at
    most ``scenes_per_call`` scenes (0: one each), keep each scene's own
    (C, P) call's (rows, kept), scene by scene."""
    boxes, scores, nms_iou, score_floor = stack
    class_scores = scores[:, :-1]
    own = [nms_indices(b, s, nms_iou, s >= score_floor) for b, s in zip(boxes, class_scores)]
    scene, rows, kept = nms_indices(boxes, class_scores, nms_iou, class_scores >= score_floor)
    assert np.array_equal(scene, np.repeat(np.arange(len(boxes)), [k.size for _, k in own]))
    assert np.array_equal(rows, np.concatenate([r for r, _ in own]))
    assert np.array_equal(kept, np.concatenate([k for _, k in own]))

    scenes = [scene_with_scores(i, [[0, 0, 1, 1]], [1], b, num_classes=scores.shape[1] - 1)
              for i, b in enumerate(boxes)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_NMS_BYTES", scenes_per_call * (boxes.shape[1] + 1) ** 2)
        position, class_id, score, box = evaluation._detect(scenes, list(scores), nms_iou, score_floor)
    assert np.all(np.diff(position) >= 0)
    for i, (r, k) in enumerate(own):
        mine = position == i
        assert np.array_equal(class_id[mine], r + 1)
        assert np.array_equal(score[mine], class_scores[i, r, k])
        assert np.array_equal(box[mine], boxes[i, k])
