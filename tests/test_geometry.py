"""Box arithmetic: IoU against a rasterization oracle, NMS contracts. The
scalar IoU formula and the object-level NMS loop that ``iou`` and ``nms`` now
reach through ``pairwise_iou`` and ``nms_indices`` are kept here as oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opis.geometry import BBox, ScoredBox, iou, nms, nms_indices, pairwise_iou


def grid_iou(a: BBox, b: BBox, step: float = 0.005) -> float:
    """Rasterize both boxes on a fine grid and count covered cell centers."""
    x_lo, x_hi = min(a.x1, b.x1), max(a.x2, b.x2)
    y_lo, y_hi = min(a.y1, b.y1), max(a.y2, b.y2)
    xs = np.arange(x_lo + step / 2, x_hi, step)
    ys = np.arange(y_lo + step / 2, y_hi, step)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx > a.x1) & (gx < a.x2) & (gy > a.y1) & (gy < a.y2)
    in_b = (gx > b.x1) & (gx < b.x2) & (gy > b.y1) & (gy < b.y2)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    return inter / union


def random_box(rng: np.random.Generator, span: float = 10.0) -> BBox:
    x1, y1 = rng.uniform(0, span, size=2)
    w, h = rng.uniform(0.1, span / 2, size=2)
    return BBox(x1, y1, x1 + w, y1 + h)


class TestBBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 1)
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 0)
        with pytest.raises(ValueError):
            BBox(2, 0, 1, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(0, 0, float("inf"), 1)
        with pytest.raises(ValueError):
            BBox(float("nan"), 0, 1, 1)

    def test_scored_box_validation(self):
        box = BBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            ScoredBox(box, 1.5, 1)
        with pytest.raises(ValueError):
            ScoredBox(box, 0.5, 0)


class TestIoU:
    def test_identity(self):
        b = BBox(1.0, 2.0, 3.5, 4.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_known_overlap_matches_grid_oracle(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 1, 3, 3)
        # inter = 1, union = 4 + 4 - 1 = 7
        assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert iou(a, b) == pytest.approx(grid_iou(a, b), abs=2e-3)

    def test_random_pairs_match_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(grid_iou(a, b, step=0.01), abs=5e-3)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert v < 1.0  # random pairs are never identical

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(3)
        boxes_a = [random_box(rng) for _ in range(17)]
        boxes_b = [random_box(rng) for _ in range(9)]
        arr_a = np.array([b.as_array() for b in boxes_a])
        arr_b = np.array([b.as_array() for b in boxes_b])
        mat = pairwise_iou(arr_a, arr_b)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-14)


class TestNMS:
    def test_empty(self):
        assert nms([], 0.3) == []

    def test_full_overlap_keeps_best(self):
        box = BBox(0, 0, 2, 2)
        dets = [ScoredBox(box, 0.9, 1), ScoredBox(box, 0.8, 1)]
        kept = nms(dets, 0.3)
        assert kept == [dets[0]]

    def test_low_overlap_keeps_all(self):
        a = ScoredBox(BBox(0, 0, 2, 2), 0.9, 1)
        b = ScoredBox(BBox(1, 1, 3, 3), 0.8, 1)
        c = ScoredBox(BBox(10, 10, 12, 12), 0.7, 1)
        # iou(a, b) = 1/7 < 0.3, so nothing is suppressed
        assert iou(a.box, b.box) < 0.3
        assert nms([a, b, c], 0.3) == [a, b, c]

    def test_classes_do_not_suppress_each_other(self):
        box = BBox(0, 0, 2, 2)
        dets = [ScoredBox(box, 0.9, 1), ScoredBox(box, 0.8, 2)]
        assert nms(dets, 0.3) == dets

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms([], 0.0)
        with pytest.raises(ValueError):
            nms([], 1.0)

    def test_tie_keeps_lower_index(self):
        box = BBox(0, 0, 2, 2)
        dets = [ScoredBox(box, 0.5, 1), ScoredBox(box, 0.5, 1)]
        assert nms(dets, 0.3) == [dets[0]]

    def _random_dets(self, rng, n):
        return [ScoredBox(random_box(rng, span=6.0), float(rng.uniform()), int(rng.integers(1, 4))) for _ in range(n)]

    def test_kept_pairs_below_threshold_and_subset(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dets = self._random_dets(rng, 30)
            kept = nms(dets, 0.3)
            assert all(d in dets for d in kept)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    if a.class_id == b.class_id:
                        assert iou(a.box, b.box) <= 0.3

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dets = self._random_dets(rng, 25)
            once = nms(dets, 0.3)
            assert nms(once, 0.3) == once

    def test_output_sorted_by_score(self):
        rng = np.random.default_rng(17)
        dets = self._random_dets(rng, 40)
        kept = nms(dets, 0.3)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)

    def test_index_variant_agrees(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            boxes = np.array([random_box(rng, span=6.0).as_array() for _ in range(20)])
            scores = rng.uniform(size=20)
            dets = [ScoredBox(BBox(*b), float(s), 1) for b, s in zip(boxes, scores)]
            kept = nms(dets, 0.3)
            kept_idx = nms_indices(boxes, scores, 0.3)
            assert [dets[i] for i in kept_idx] == kept


def scalar_iou(a: BBox, b: BBox) -> float:
    """The scalar IoU formula that ``iou`` used before it wrapped ``pairwise_iou``."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def greedy_nms(dets, iou_threshold):
    """The object-level per-class NMS loop that ``nms`` replaced, verbatim."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[int] = []
    for i in order:
        d = dets[i]
        if all(scalar_iou(d.box, dets[j].box) <= iou_threshold for j in kept if dets[j].class_id == d.class_id):
            kept.append(i)
    return [dets[i] for i in kept]


def same_bits(x: float, y: float) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


coordinate = st.one_of(st.integers(-6, 6).map(float), st.floats(-1e3, 1e3, allow_nan=False))
side = st.one_of(st.integers(1, 4).map(float), st.floats(1e-6, 1e3, allow_nan=False))


@st.composite
def any_box(draw):
    """A box on the integer grid (touching and identical boxes are common) or
    with arbitrary float corners."""
    x1, y1 = draw(coordinate), draw(coordinate)
    x2, y2 = x1 + draw(side), y1 + draw(side)
    return BBox(x1, y1, x2, y2) if x2 > x1 and y2 > y1 else BBox(x1, y1, x1 + 1.0, y1 + 1.0)


@settings(max_examples=500, deadline=None)
@given(any_box(), any_box())
def test_iou_is_the_scalar_formula_and_pairwise_iou_bit_for_bit(a, b):
    want = scalar_iou(a, b)
    assert same_bits(iou(a, b), want)
    assert same_bits(float(pairwise_iou(a.as_array(), b.as_array())[0, 0]), want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(any_box(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.integers(1, 3)), max_size=12),
       st.sampled_from([1e-12, 1 / 7, 1 / 3, 0.5, 1 - 1e-12]))
def test_nms_equals_the_object_loop(items, iou_threshold):
    dets = [ScoredBox(box, score, c) for box, score, c in items]
    assert nms(dets, iou_threshold) == greedy_nms(dets, iou_threshold)
