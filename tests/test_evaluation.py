"""Detection metrics: hand-built precision-recall fixtures, rank invariance,
greedy matching rules, and the CorLoc counter. AP matching is checked against
the per-detection matcher and running-max envelope it replaced, and the
lockstep NMS against the per-class greedy loop it replaced, both kept here
verbatim as oracles, as are the per-scene matcher, the per-(scene, class)
CorLoc loop and the per-scene ``branch_mean_scores`` that one-pass matching
and stacked scoring replaced. A stack of scenes in one NMS call must keep
what each scene's own call keeps, and a stack scored in one forward pass must
give each scene's own scores bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opis import evaluation, harness
from opis.evaluation import (
    UndefinedAPError,
    DetectionRecords,
    Detections,
    MetricsReport,
    _class_ap,
    corloc,
    detect,
    dump_detections,
    evaluate_scenes,
    voc_ap,
)
from opis.geometry import BBox, ScoredBox, nms_indices, pairwise_iou
from opis.harness import Scene, SceneConfig, ToyModel, class_prototypes, forward, generate_dataset, generate_scene


def det(x1, y1, x2, y2, score, cls=1):
    return ScoredBox(BBox(x1, y1, x2, y2), score, cls)


GT_UNIT = [(BBox(0, 0, 10, 10), 1)]


def branch_mean_scores(model: ToyModel, scene: Scene) -> np.ndarray:
    """(C+1, P) class scores: mean of the refinement branches' softmax outputs."""
    scores = forward(model, scene)
    return np.mean(scores.phi, axis=0)


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

    def test_ground_truth_classes_below_one_match_nothing(self):
        """No detection has class 0 or -1, so their ground truths are never
        found and do not disturb class 1's matching."""
        gts = [(BBox(0, 0, 10, 10), -1), (BBox(0, 0, 10, 10), 0), *GT_UNIT]
        dets = [det(0, 0, 10, 10, 0.9)]
        assert [voc_ap(dets, gts, c) for c in (-1, 0, 1)] == [0.0, 0.0, 1.0]

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

        monkeypatch.setattr(evaluation, "_detections", no_stacking)
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


def test_equal_overlaps_go_to_the_first_ground_truth_in_a_shuffled_set():
    """Sixty ground truths in shuffled scene order, two of the same class per
    scene at IoU 1/3 to that scene's detection: each detection claims the one
    that comes first in the input, as the per-scene matcher does."""
    rng = np.random.default_rng(0)
    boxes = np.array([[0, 0, 2, 2], [2, 0, 4, 2], [0, 0, 4, 2]] * 20, dtype=np.float64)
    gts = (np.repeat(np.arange(20), 3), np.tile([1, 1, 2], 20), boxes)
    gts = tuple(column[rng.permutation(60)] for column in gts)
    dets = Detections(None, np.arange(20), np.ones(20, dtype=np.int64), np.full(20, 0.5),
                      np.tile([1.0, 0.0, 3.0, 2.0], (20, 1)))
    best, overlap = evaluation._best_match(dets.scene, dets.class_id, dets.box, gts)
    oracle_best, oracle_hit = per_scene_matches(dets, gts, 0.3)
    assert oracle_hit.all() and np.array_equal(overlap > 0.3, oracle_hit)
    assert np.array_equal(best, oracle_best)


class TestOneScoringPerScene:
    def scenes_and_model(self):
        cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
        return generate_dataset(cfg, 5, 6), ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)

    def test_each_scene_scored_once_and_records_equal_detect(self, monkeypatch):
        """Scoring runs on stacks of scenes, neither scene by scene through
        ``forward`` or ``detect`` nor once more for CorLoc; each scene's
        features go through exactly one ``_stack_logits`` call, and each
        scene's records are still what ``detect`` gives."""
        scenes, model = self.scenes_and_model()
        scored, per_scene_calls = [], []
        stack_logits = evaluation._stack_logits

        def counted_stack(model, features, logits):
            scored.extend(features.copy())
            return stack_logits(model, features, logits)

        expected, _ = evaluate_scenes(model, scenes)
        monkeypatch.setattr(evaluation, "_stack_logits", counted_stack)
        for module, name in ((harness, "forward"), (evaluation, "detect")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: per_scene_calls.append(args))
        monkeypatch.setattr(evaluation, "_STACK_BYTES", stack_bytes(model, 30, 2))
        report, records = evaluate_scenes(model, scenes)
        assert per_scene_calls == []
        assert len(scored) == len(scenes)
        assert all(sum(np.array_equal(f, s.features) for f in scored) == 1 for s in scenes)
        assert report == expected
        monkeypatch.undo()
        assert list(records) == [(s.scene_id, d) for s in scenes for d in detect(model, s)]

    @pytest.mark.parametrize("kwargs", [{}, dict(score_floor=0.0), dict(nms_iou=0.01), dict(score_floor=0.3)])
    def test_detect_on_given_scores_equals_detect(self, kwargs):
        scenes, model = self.scenes_and_model()
        for scene in scenes:
            given_scores = detect(model, scene, scores=branch_mean_scores(model, scene), **kwargs)
            assert given_scores == detect(model, scene, **kwargs)


def stack_bytes(model, p, scenes_per_stack):
    """The stack budget that fits ``scenes_per_stack`` scenes of ``p``
    proposals: each needs its (R, P) float64 logits or its (P+1)² suppression
    bytes, whichever is larger."""
    return scenes_per_stack * max(8 * model.weights.shape[0] * p, (p + 1) ** 2)


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
    """Scenes of 30 and 40 proposals, interleaved, go through stacks per
    proposal count of one scene, two, the default budget's or all of them;
    at each, the records come back in input order and equal each scene's
    ``detect``, and the report is the one those records give."""
    model = ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)
    a = generate_dataset(SceneConfig(num_classes=3, feature_dim=8, num_proposals=30), 5, 4)
    b = generate_dataset(SceneConfig(num_classes=3, feature_dim=8, num_proposals=40), 6, 3)
    scenes = [a[0], b[0], a[1], a[2], b[1], b[2], a[3]]

    per_scene = [detect(model, scene) for scene in scenes]
    columns = DetectionRecords(
        [scene.scene_id for scene in scenes],
        np.repeat(np.arange(len(scenes)), [len(dets) for dets in per_scene]),
        *(np.concatenate([getattr(dets, name) for dets in per_scene]) for name in ("class_id", "score", "box")),
    )
    gts = (np.repeat(np.arange(len(scenes)), [scene.gt_classes.size for scene in scenes]),
           np.concatenate([scene.gt_classes for scene in scenes]),
           np.concatenate([scene.gt_boxes for scene in scenes]))
    per_class = _class_ap(columns, gts, 0.5)
    expected = MetricsReport(per_class, float(np.mean(list(per_class.values()))), corloc(model, scenes),
                             len(scenes), len(columns))

    nms_calls = []
    stacked_nms = evaluation.nms_indices
    monkeypatch.setattr(evaluation, "nms_indices", lambda *args: nms_calls.append(1) or stacked_nms(*args))
    budgets = [stack_bytes(model, 40, 1), stack_bytes(model, 40, 2), evaluation._STACK_BYTES, stack_bytes(model, 40, 7)]
    for budget, stacks in zip(budgets, [7, 4, 2, 2]):
        monkeypatch.setattr(evaluation, "_STACK_BYTES", budget)
        nms_calls.clear()
        report, records = evaluate_scenes(model, scenes)
        assert len(nms_calls) == stacks
        assert list(records) == [(scene.scene_id, d) for scene, dets in zip(scenes, per_scene) for d in dets]
        assert report == expected


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
    """One (S, C, P) ``nms_indices`` call, and ``_detections`` on stacks of
    at most ``scenes_per_call`` scenes (0: one each), keep each scene's own
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
    stacks = np.array_split(np.arange(len(scenes)), -(-len(scenes) // max(1, scenes_per_call)))
    position, class_id, score, box = (np.concatenate(column) for column in zip(
        *(evaluation._detections(scenes, stack, class_scores[stack], nms_iou, score_floor) for stack in stacks)))
    assert np.all(np.diff(position) >= 0)
    for i, (r, k) in enumerate(own):
        mine = position == i
        assert np.array_equal(class_id[mine], r + 1)
        assert np.array_equal(score[mine], class_scores[i, r, k])
        assert np.array_equal(box[mine], boxes[i, k])


def oracle_corloc(model, scenes, iou_thresh=0.5, score_fn=None):
    """The per-(scene, class) CorLoc loop that stacked scoring replaced, verbatim."""
    if score_fn is None:
        if model is None:
            raise ValueError("either a model or a score_fn is required")
        score_fn = lambda s: branch_mean_scores(model, s)
    hits = 0
    total = 0
    for scene in scenes:
        class_scores = np.asarray(score_fn(scene), dtype=np.float64)
        for c in np.flatnonzero(scene.image_label > 0) + 1:
            total += 1
            top = int(np.argmax(class_scores[c - 1]))
            gt = scene.gt_boxes[scene.gt_classes == c]
            overlap = pairwise_iou(scene.proposals[top : top + 1], gt)[0]
            if np.any(overlap > iou_thresh):
                hits += 1
    if total == 0:
        raise ValueError("no (scene, present class) pairs to evaluate")
    return hits / total


def per_scene_matches(dets, gts, iou_thresh):
    """The per-scene matcher that the one-pass ``_best_match`` replaced,
    verbatim: each detection's most-overlapped ground truth of its class and
    scene (the first of equals) and whether that overlap clears the threshold."""
    det_scene, det_class, det_score, det_box = dets.scene, dets.class_id, dets.score, dets.box
    gt_scene, gt_class, gt_box = gts
    best = np.zeros(det_score.size, dtype=np.int64)
    hit = np.zeros(det_score.size, dtype=bool)
    for scene in dict.fromkeys(gt_scene.tolist()):
        d = np.flatnonzero(det_scene == scene)
        g = np.flatnonzero(gt_scene == scene)
        overlaps = pairwise_iou(det_box[d], gt_box[g])
        overlaps[det_class[d, None] != gt_class[g]] = -np.inf
        j = overlaps.argmax(axis=1)
        best[d] = g[j]
        hit[d] = overlaps[np.arange(d.size), j] > iou_thresh
    return best, hit


@st.composite
def evaluation_sets(draw):
    """Scenes of 1 to 6 grid proposals (mixed counts in one set) with ids from
    {0, 1}, so that they share ids; 0 to 3 grid ground truths each (at least
    one in the set), a present class that may lack ground truth, and seeded
    features. The model may drive one class below every score floor, so that
    it has ground truth but no detections; most scenes lack ground truth of
    some class, so their detections of it match nothing."""
    num_classes, dim, branches = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scenes = []
    for i in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from([1, 3, 6]))
        gts = draw(st.lists(st.tuples(grid_box(), st.integers(1, num_classes)), min_size=int(i == 0), max_size=3))
        label = np.zeros(num_classes, dtype=np.int8)
        label[[c - 1 for _, c in gts]] = 1
        if draw(st.booleans()):
            label[draw(st.integers(0, num_classes - 1))] = 1
        scenes.append(Scene(
            scene_id=draw(st.integers(0, 1)),
            proposals=np.array([draw(grid_box()).as_array() for _ in range(p)]),
            features=rng.normal(size=(p, dim)),
            image_label=label,
            gt_boxes=np.array([b.as_array() for b, _ in gts]).reshape(-1, 4),
            gt_classes=np.array([c for _, c in gts], dtype=np.int64),
        ))
    model = ToyModel.initialize(num_classes, dim, branches, seed=draw(st.integers(0, 9)), init_scale=2.0)
    if draw(st.booleans()):
        silent = draw(st.integers(0, num_classes - 1))
        for b in model.b_ref:
            b[silent] = -50.0
    iou_thresh = draw(st.sampled_from([0.0, 1 / 3, 0.5, 0.7]))
    return scenes, model, iou_thresh, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(evaluation_sets())
def test_stacked_corloc_and_one_pass_matching_equal_the_per_scene_oracles(fixture):
    """Over stacks of 1 to 4 scenes of the largest proposal count: CorLoc from
    the model and from a ``score_fn`` equals the per-(scene, class) loop, and
    every detection's match equals the per-scene matcher's."""
    scenes, model, iou_thresh, per_stack = fixture
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_STACK_BYTES", stack_bytes(model, 6, per_stack))
        report, records = evaluate_scenes(model, scenes, iou_thresh=iou_thresh)
        assert report.corloc == oracle_corloc(model, scenes, iou_thresh)
        assert corloc(model, scenes, iou_thresh) == report.corloc
    tied = {id(s): np.random.default_rng(i).choice([0.0, 0.5, 1.0], size=(model.num_classes, s.num_proposals))
            for i, s in enumerate(scenes)}
    assert corloc(None, scenes, iou_thresh, score_fn=lambda s: tied[id(s)]) == oracle_corloc(
        None, scenes, iou_thresh, score_fn=lambda s: tied[id(s)])

    assert list(records) == [(s.scene_id, d) for s in scenes for d in detect(model, s)]
    gts = (np.repeat(np.arange(len(scenes)), [s.gt_classes.size for s in scenes]),
           np.concatenate([s.gt_classes for s in scenes]), np.concatenate([s.gt_boxes for s in scenes]))
    best, overlap = evaluation._best_match(records.scene, records.class_id, records.box, gts)
    oracle_best, oracle_hit = per_scene_matches(records, gts, iou_thresh)
    assert np.array_equal(overlap > iou_thresh, oracle_hit)
    assert np.array_equal(best[oracle_hit], oracle_best[oracle_hit])


@st.composite
def score_stacks(draw):
    """A model and scenes at the shapes where a stacked matmul need not match
    a per-head one: D in {9, 10, 11, 18, 19}, C = 1, P in [197, 337] or 1."""
    dim = draw(st.sampled_from([9, 10, 11, 18, 19]))
    num_classes = draw(st.sampled_from([1, 1, 2, 4]))
    p = draw(st.one_of(st.just(1), st.integers(197, 337)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scenes = [Scene(scene_id=i, proposals=np.tile([0.0, 0.0, 1.0, 1.0], (p, 1)),
                    features=rng.normal(size=(p, dim)) * draw(st.sampled_from([0.1, 1.0, 30.0])),
                    image_label=np.ones(num_classes, dtype=np.int8), gt_boxes=np.zeros((0, 4)),
                    gt_classes=np.zeros(0, dtype=np.int64))
              for i in range(draw(st.integers(1, 7)))]
    model = ToyModel.initialize(num_classes, dim, draw(st.integers(1, 3)), seed=draw(st.integers(0, 9)),
                                init_scale=1.0)
    return model, scenes, draw(st.integers(1, len(scenes)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(score_stacks())
def test_stacked_scores_equal_branch_mean_scores_bitwise(fixture):
    """Each scene's row of a stack of up to 1 to n scenes is its own
    ``branch_mean_scores`` without the background row, bit for bit, and
    every scene is in one stack."""
    model, scenes, per_stack = fixture
    p = scenes[0].num_proposals
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_STACK_BYTES", stack_bytes(model, p, per_stack))
        stacks = list(evaluation._scored_stacks(model, scenes))
    assert np.array_equal(np.concatenate([stack for stack, _ in stacks]), np.arange(len(scenes)))
    assert len(stacks) == -(-len(scenes) // per_stack) and max(stack.size for stack, _ in stacks) <= per_stack
    for stack, class_scores in stacks:
        for i, scores in zip(stack, class_scores):
            own = branch_mean_scores(model, scenes[i])[:-1]
            assert scores.view(np.int64).tolist() == own.view(np.int64).tolist()


def test_overflow_names_the_first_non_finite_scene_of_a_stack():
    """Only the third scene of a stack overflows its logits, so the error names
    that scene's id; one scene per stack names the same scene."""
    model = ToyModel.initialize(3, 8, 2, seed=2, init_scale=0.7)
    scenes = generate_dataset(SceneConfig(num_classes=3, feature_dim=8, num_proposals=30), 5, 5)
    scenes[2] = dataclasses.replace(scenes[2], scene_id=41, features=scenes[2].features * 1e308)
    with pytest.raises(ValueError, match=r"^scene 41: logits contains non-finite entries$"):
        evaluate_scenes(model, scenes)
    with pytest.MonkeyPatch.context() as patch, pytest.raises(ValueError, match=r"^scene 41: logits"):
        patch.setattr(evaluation, "_STACK_BYTES", 0)
        evaluate_scenes(model, scenes)


def test_a_shape_error_while_scoring_names_no_scene():
    """Features of the wrong width fail in the matmul, before any logit is
    written, and that error passes through as it is."""
    model = ToyModel.initialize(3, 8, 2, seed=2)
    scenes = generate_dataset(SceneConfig(num_classes=3, feature_dim=4, num_proposals=30), 5, 2)
    with pytest.raises(ValueError, match=r"^matmul: Input operand 1 has a mismatch"):
        evaluate_scenes(model, scenes)
