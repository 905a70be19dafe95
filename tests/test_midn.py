"""Dual-softmax scoring and the image-level loss, checked against hand values
and central finite differences."""

import math

import numpy as np
import pytest

from opis.midn import (
    SCORE_EPS,
    compose_instance_scores,
    image_scores,
    midn_loss,
    midn_loss_grad,
    softmax_over_classes,
    softmax_over_instances,
)


class TestSoftmaxes:
    def test_uniform_logits_over_classes(self):
        out = softmax_over_classes(np.zeros((2, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_uniform_logits_over_instances(self):
        out = softmax_over_instances(np.zeros((2, 4)))
        np.testing.assert_allclose(out, 0.25)

    def test_hand_column(self):
        # e^0 : e^(ln 3) = 1 : 3
        out = softmax_over_classes(np.array([[0.0], [math.log(3.0)]]))
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75], atol=1e-12)

    def test_hand_row(self):
        out = softmax_over_instances(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out[0], [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6))
        shifted = x.copy()
        shifted[:, 2] += 17.5
        np.testing.assert_allclose(
            softmax_over_classes(x)[:, 2], softmax_over_classes(shifted)[:, 2], atol=1e-12
        )
        shifted = x.copy()
        shifted[1, :] += -9.25
        np.testing.assert_allclose(
            softmax_over_instances(x)[1], softmax_over_instances(shifted)[1], atol=1e-12
        )

    def test_normalization_over_wide_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(-50, 50, size=(5, 8))
            np.testing.assert_allclose(softmax_over_classes(x).sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(softmax_over_instances(x).sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_non_finite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            softmax_over_classes(bad)
        with pytest.raises(ValueError):
            softmax_over_instances(bad)


class TestComposition:
    def test_uniform_product(self):
        sc = np.full((2, 4), 0.5)
        sd = np.full((2, 4), 0.25)
        np.testing.assert_allclose(compose_instance_scores(sc, sd), 0.125)

    def test_one_hot_intersection(self):
        sc = np.zeros((3, 4))
        sd = np.zeros((3, 4))
        sc[1, 2] = 1.0
        sd[1, 2] = 1.0
        out = compose_instance_scores(sc, sd)
        assert out[1, 2] == 1.0
        assert out.sum() == 1.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        sc = softmax_over_classes(rng.normal(size=(3, 5)))
        sd = softmax_over_instances(rng.normal(size=(3, 5)))
        out = compose_instance_scores(sc, sd)
        for i in range(3):
            for j in range(5):
                assert out[i, j] == sc[i, j] * sd[i, j]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compose_instance_scores(np.zeros((2, 3)), np.zeros((3, 2)))


class TestImageScores:
    def test_row_sum(self):
        np.testing.assert_allclose(image_scores(np.full((2, 4), 0.125)), [0.5, 0.5])

    def test_single_entry(self):
        x = np.zeros((3, 4))
        x[1, 2] = 1.0
        np.testing.assert_allclose(image_scores(x), [0.0, 1.0, 0.0])

    def test_matches_loop(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(4, 7))
        expected = [sum(x[c, r] for r in range(7)) for c in range(4)]
        np.testing.assert_allclose(image_scores(x), expected, atol=1e-12)

    def test_composed_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            sc = softmax_over_classes(rng.uniform(-50, 50, size=(4, 9)))
            sd = softmax_over_instances(rng.uniform(-50, 50, size=(4, 9)))
            y = image_scores(compose_instance_scores(sc, sd))
            assert np.all(y > 0.0)
            assert np.all(y < 1.0 + 1e-9)

    def test_total_mass_bounded_by_proposal_count(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = int(rng.integers(1, 12))
            sc = softmax_over_classes(rng.normal(size=(4, p)))
            sd = softmax_over_instances(rng.normal(size=(4, p)))
            y = image_scores(compose_instance_scores(sc, sd))
            # mathematically <= p; summation may round up by an ulp
            assert y.sum() <= p * (1.0 + 1e-12)


class TestMidnLoss:
    def test_single_class_coin(self):
        assert midn_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_two_class_hand_sum(self):
        loss = midn_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(2 * -math.log(0.5), abs=1e-12)

    def test_perfect_prediction_limit(self):
        c = 3
        loss = midn_loss(np.ones(c), np.ones(c))
        assert loss == pytest.approx(-c * math.log(1.0 - SCORE_EPS), abs=1e-12)
        assert loss < 1e-5

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y = (rng.uniform(size=6) < 0.5).astype(float)
            p = rng.uniform(size=6)
            assert midn_loss(p, y) >= 0.0
        # permuting proposals leaves the image score, hence the loss, unchanged
        x = rng.uniform(size=(3, 8))
        y = np.array([1.0, 0.0, 1.0])
        perm = rng.permutation(8)
        assert midn_loss(image_scores(x), y) == pytest.approx(
            midn_loss(image_scores(x[:, perm]), y), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            midn_loss(np.array([0.5]), np.array([1.0, 0.0]))


def fd_grad(p: np.ndarray, y: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(p)
    for i in range(p.size):
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        out[i] = (midn_loss(up, y) - midn_loss(down, y)) / (2 * h)
    return out


class TestMidnLossGrad:
    def test_positive_label_hand_value(self):
        g = midn_loss_grad(np.array([0.5]), np.array([1.0]))
        assert g[0] == pytest.approx(-2.0, abs=1e-12)
        assert g[0] == pytest.approx(fd_grad(np.array([0.5]), np.array([1.0]))[0], rel=1e-7)

    def test_negative_label_hand_value(self):
        g = midn_loss_grad(np.array([0.5]), np.array([0.0]))
        assert g[0] == pytest.approx(2.0, abs=1e-12)
        assert g[0] == pytest.approx(fd_grad(np.array([0.5]), np.array([0.0]))[0], rel=1e-7)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=20)
        g_pos = midn_loss_grad(p, np.ones(20))
        g_neg = midn_loss_grad(1.0 - p, np.zeros(20))
        np.testing.assert_allclose(g_pos, -g_neg, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            p = rng.uniform(0.01, 0.99, size=n)
            y = (rng.uniform(size=n) < 0.5).astype(float)
            np.testing.assert_allclose(midn_loss_grad(p, y), fd_grad(p, y), rtol=1e-5, atol=1e-7)

