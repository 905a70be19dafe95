"""Progressive schedule and the two-stage negative sampler, checked against a
count-bookkeeping oracle and binomial frequency bounds."""

import math

import numpy as np
import pytest

from opis.sampling import (
    _SAMPLER_TAG,
    N_BINS,
    NegativeSampleDetail,
    SamplerRng,
    _stored_generator,
    ScheduleState,
    apply_selection_mask,
    iou_bin_edges,
    iou_bins,
    neglect_threshold,
    progressive_t,
    ratio_mu,
    reselect_positives,
    sample_negatives,
    sample_negatives_detail,
    sampler_states,
)
from opis.supervision import SupervisionTargets


class TestProgressiveT:
    def test_phase_start(self):
        assert progressive_t(100, 100, 200) == 0.0

    def test_phase_end(self):
        assert progressive_t(200, 100, 200) == 1.0

    def test_interior_value(self):
        assert progressive_t(85_000, 70_000, 90_000) == pytest.approx(0.75, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            progressive_t(99, 100, 200)
        with pytest.raises(ValueError):
            progressive_t(201, 100, 200)
        with pytest.raises(ValueError):
            progressive_t(100, 100, 100)


class TestRatioMu:
    def test_endpoints(self):
        assert ratio_mu(20.0, 0.0) == 20.0
        assert ratio_mu(20.0, 1.0) == 4.0

    def test_midpoint(self):
        assert ratio_mu(20.0, 0.5) == pytest.approx(12.0, abs=1e-15)

    def test_affine_and_bounded(self):
        for i in range(11):
            t = i / 10
            v = ratio_mu(20.0, t)
            assert v == pytest.approx(20.0 - 16.0 * t, abs=1e-12)
            assert 4.0 <= v <= 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ratio_mu(3.0, 0.5)
        with pytest.raises(ValueError):
            ratio_mu(20.0, 1.5)


class TestNeglectThreshold:
    def test_training_start(self):
        assert neglect_threshold(0.05, 0.85, 0, 1000) == 0.05

    def test_training_end(self):
        assert neglect_threshold(0.05, 0.85, 1000, 1000) == pytest.approx(0.90, abs=1e-12)

    def test_halfway(self):
        assert neglect_threshold(0.05, 0.85, 500, 1000) == pytest.approx(0.475, abs=1e-12)


class TestBinEdges:
    def test_default_quarters(self):
        np.testing.assert_allclose(iou_bin_edges(0.1, 0.5), [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)

    def test_from_zero(self):
        np.testing.assert_allclose(iou_bin_edges(0.0, 0.4), [0.0, 0.1, 0.2, 0.3, 0.4], atol=1e-12)

    def test_every_negative_falls_in_one_bin(self):
        rng = np.random.default_rng(0)
        edges = iou_bin_edges(0.1, 0.5)
        ious = rng.uniform(0.1 + 1e-9, 0.5 - 1e-9, size=1000)
        membership = np.array([np.count_nonzero((edges[:-1] <= v) & (v < edges[1:])) for v in ious])
        np.testing.assert_array_equal(membership, 1)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            iou_bin_edges(0.5, 0.1)


def make_rng(seed=0, scene=0, iteration=0, branch=1, class_id=1):
    return SamplerRng(seed, scene, iteration, branch, class_id).generator()


class TestSamplerStates:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**200 + 17])
    def test_rows_are_numpys_seed_sequence_states(self, seed):
        keys = np.random.default_rng(seed % 2**32).integers(0, 2**32, size=(24, 4))
        keys[:4] = [[0, 0, 0, 0], [2**32 - 1] * 4, [0, 2**32 - 1, 1, 0], [7, 4000, 3, 4]]
        states = sampler_states(seed, keys)
        assert states.dtype == np.uint64 and states.shape == (24, 4)
        for key, row in zip(keys.tolist(), states):
            expected = np.random.SeedSequence(seed, spawn_key=(_SAMPLER_TAG, *key)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expected)
            stream = SamplerRng(seed, *key).generator()
            assert _stored_generator(row).bit_generator.state == stream.bit_generator.state

    def test_rows_of_a_stacked_array_open_their_streams(self):
        # train opens streams from rows of a (iterations, B, K, C + 1, 4) chunk.
        keys = np.stack(np.meshgrid([3, 9], [5, 6], [1, 2], [0, 1, 2], indexing="ij"), axis=-1)
        states = sampler_states(11, keys.reshape(-1, 4)).reshape(keys.shape)
        for index in np.ndindex(keys.shape[:-1]):
            draws = _stored_generator(states[index]).choice(50, size=7, replace=False)
            np.testing.assert_array_equal(draws, make_rng(11, *keys[index].tolist()).choice(50, size=7, replace=False))

    @pytest.mark.parametrize("word", [2**32, -1])
    def test_key_words_outside_one_uint32_raise(self, word):
        with pytest.raises(ValueError, match="sampler key words"):
            sampler_states(0, [[0, 0, 1, 1], [0, 0, 1, word]])

    def test_no_keys_no_states(self):
        assert sampler_states(5, np.empty((0, 4), dtype=np.int64)).shape == (0, 4)


def mask_sampler(neg_indices, bin_of, n_pos, mu, rng):
    """Oracle: the two-stage sampler as it was before the draws took their
    bins from one sort, finding each bin by a mask over the input."""
    product = mu * n_pos
    # An overflowing product is a target above every supply, not an error.
    target = product if product == math.inf else math.floor(product)
    bin_pos = [(bin_of == j).nonzero()[0] for j in range(N_BINS)]
    bins = [neg_indices[pos] for pos in bin_pos]
    detail = NegativeSampleDetail(target=target, bin_members=bins, stage1=[], stage2=np.empty(0, dtype=np.int64))

    if target >= neg_indices.size:
        detail.stage1 = [b.copy() for b in bins]
        detail.selected = np.sort(neg_indices)
        return detail

    taken = np.zeros(neg_indices.size, dtype=bool)
    stage1_size = 0
    for pos in bin_pos:
        take = min(n_pos, pos.size)
        # Drawing positions consumes the stream exactly as drawing the members.
        picked = pos[rng.choice(pos.size, size=take, replace=False)] if take else pos
        taken[picked] = True
        members = neg_indices[picked]
        members.sort()
        detail.stage1.append(members)
        stage1_size += take
    # Only a target below the supply gets here, so need < remaining.size.
    need = target - stage1_size
    if need > 0:
        remaining = neg_indices[~taken]
        detail.stage2 = remaining[rng.choice(remaining.size, size=need, replace=False)]
        detail.stage2.sort()
    detail.selected = np.concatenate([*detail.stage1, detail.stage2])
    detail.selected.sort()
    return detail


def random_negative_pool(rng, per_bin, lam_ig=0.1, lam_ng=0.5):
    """Indices and IoUs with a prescribed number of negatives per bin."""
    edges = iou_bin_edges(lam_ig, lam_ng)
    ious = []
    for j in range(4):
        ious.append(rng.uniform(edges[j] + 1e-9, edges[j + 1] - 1e-9, size=per_bin[j]))
    ious = np.concatenate(ious)
    indices = np.arange(ious.size) * 3 + 7  # arbitrary non-contiguous ids
    return indices, ious


class TestSampleNegatives:
    def test_cap_keeps_all(self):
        rng = np.random.default_rng(1)
        indices, ious = random_negative_pool(rng, [1, 1, 1, 0])
        out = sample_negatives(indices, ious, 1, 20.0, 0.1, 0.5, make_rng())
        np.testing.assert_array_equal(out, np.sort(indices))

    def test_equal_bins_exact_count(self):
        rng = np.random.default_rng(2)
        indices, ious = random_negative_pool(rng, [100, 100, 100, 100])
        detail = sample_negatives_detail(indices, ious, 10, 4.0, 0.1, 0.5, make_rng())
        assert detail.selected.size == 40
        assert all(s.size == 10 for s in detail.stage1)
        assert detail.stage2.size == 0

    def test_two_stage_bookkeeping(self):
        rng = np.random.default_rng(3)
        indices, ious = random_negative_pool(rng, [50, 50, 50, 50])
        detail = sample_negatives_detail(indices, ious, 2, 20.0, 0.1, 0.5, make_rng())
        assert detail.target == 40
        assert all(s.size == 2 for s in detail.stage1)
        assert detail.stage2.size == 32
        assert detail.selected.size == 40

    def test_count_law_random_configs(self):
        """|selected| = min(floor(mu * n_pos), supply), replayed by an
        independent bookkeeping oracle over 1000 random configurations."""
        rng = np.random.default_rng(4)
        for trial in range(1000):
            per_bin = rng.integers(0, 40, size=4)
            if per_bin.sum() == 0:
                per_bin[int(rng.integers(0, 4))] = 1
            indices, ious = random_negative_pool(rng, per_bin.tolist())
            n_pos = int(rng.integers(1, 12))
            mu = float(rng.uniform(4.0, 25.0))
            out = sample_negatives(indices, ious, n_pos, mu, 0.1, 0.5, make_rng(iteration=trial))

            # oracle: replay the two stages with pure arithmetic
            supply = int(per_bin.sum())
            target = math.floor(mu * n_pos)
            if target >= supply:
                expect = supply
            else:
                stage1 = sum(min(n_pos, int(b)) for b in per_bin)
                expect = stage1 + min(target - stage1, supply - stage1)
            assert out.size == min(target, supply) == expect
            assert np.unique(out).size == out.size  # without replacement
            assert set(out) <= set(indices)

    def test_draws_equal_the_per_bin_mask_sampler(self):
        """Every stage of every draw equals the sampler that found each bin
        by a mask over the input, on the same stream, with the bins' members
        interleaved in the input."""
        rng = np.random.default_rng(6)
        for trial in range(300):
            indices, ious = random_negative_pool(rng, rng.integers(0, 30, size=4).tolist())
            if indices.size == 0:
                continue
            order = rng.permutation(indices.size)
            n_pos, mu = int(rng.integers(1, 12)), float(rng.uniform(0.0, 25.0))
            detail = sample_negatives_detail(indices[order], ious[order], n_pos, mu, 0.1, 0.5,
                                             make_rng(iteration=trial))
            oracle = mask_sampler(indices[order], iou_bins(ious[order], 0.1, 0.5), n_pos, mu,
                                  make_rng(iteration=trial))
            assert detail.target == oracle.target
            for name in ("bin_members", "stage1"):
                for got, want in zip(getattr(detail, name), getattr(oracle, name), strict=True):
                    np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(detail.stage2, oracle.stage2)
            np.testing.assert_array_equal(detail.selected, oracle.selected)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(5)
        indices, ious = random_negative_pool(rng, [30, 30, 30, 30])
        a = sample_negatives(indices, ious, 5, 6.0, 0.1, 0.5, make_rng(seed=9, scene=3, iteration=11, branch=2, class_id=4))
        b = sample_negatives(indices, ious, 5, 6.0, 0.1, 0.5, make_rng(seed=9, scene=3, iteration=11, branch=2, class_id=4))
        np.testing.assert_array_equal(a, b)
        c = sample_negatives(indices, ious, 5, 6.0, 0.1, 0.5, make_rng(seed=9, scene=3, iteration=12, branch=2, class_id=4))
        assert not np.array_equal(a, c)

    def test_stage1_marginal_frequency(self):
        """Each negative in a 100-strong bin is picked with frequency ~ n_pos/100."""
        rng = np.random.default_rng(6)
        indices, ious = random_negative_pool(rng, [100, 100, 100, 100])
        n_pos, mu = 10, 4.0  # target = 40 = stage 1 alone
        counts = np.zeros(indices.size)
        trials = 10_000
        pos_of = {int(v): i for i, v in enumerate(indices)}
        for t in range(trials):
            out = sample_negatives(indices, ious, n_pos, mu, 0.1, 0.5, make_rng(iteration=t))
            for v in out:
                counts[pos_of[int(v)]] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.10) <= 0.01)

    def test_zero_positives_rejected(self):
        rng = np.random.default_rng(7)
        indices, ious = random_negative_pool(rng, [5, 5, 5, 5])
        with pytest.raises(ValueError):
            sample_negatives(indices, ious, 0, 20.0, 0.1, 0.5, make_rng())

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            sample_negatives(np.empty(0, dtype=np.int64), np.empty(0), 1, 20.0, 0.1, 0.5, make_rng())


class TestReselectPositives:
    def test_center_only_set(self):
        phi = np.array([[0.3, 0.1], [0.0, 0.0]])
        out = reselect_positives(np.array([0]), phi, 1, 0, neglect_thresh=0.99)
        np.testing.assert_array_equal(out, [0])

    def test_high_sum_keeps_all(self):
        phi = np.zeros((2, 3))
        phi[0] = [0.6, 0.2, 0.3]  # sum 1.1 >= 0.9
        out = reselect_positives(np.array([0, 1, 2]), phi, 1, 0, neglect_thresh=0.9)
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_low_sum_keeps_center(self):
        phi = np.zeros((2, 5))
        phi[0] = [0.05, 0.01, 0.01, 0.01, 0.01]  # sum 0.09 < 0.5
        out = reselect_positives(np.arange(5), phi, 1, 0, neglect_thresh=0.5)
        np.testing.assert_array_equal(out, [0])

    def test_center_never_removed(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            phi = rng.uniform(0, 0.2, size=(3, n))
            pos = np.arange(n)
            center = int(rng.integers(0, n))
            out = reselect_positives(pos, phi, 2, center, float(rng.uniform(0, 1.5)))
            assert center in out

    def test_missing_center_is_error(self):
        with pytest.raises(RuntimeError):
            reselect_positives(np.array([1, 2]), np.zeros((2, 4)), 1, 0, 0.5)


def small_targets():
    return SupervisionTargets(
        assigned_class=np.array([1, 1, 3, 3, 0, 2]),
        max_iou=np.array([1.0, 0.7, 0.3, 0.2, 0.05, 0.9]),
        source_class=np.array([1, 1, 1, 2, 1, 2]),
        weight=np.array([0.5, 0.5, 0.4, 0.4, 0.0, 0.6]),
        selected=np.array([True, True, True, True, False, True]),
        num_classes=2,
    )


class TestSelectionMask:
    def test_identity_mask(self):
        t = small_targets()
        out = apply_selection_mask(t, np.array([0, 1, 5]), np.array([2, 3]))
        np.testing.assert_array_equal(out.weight, t.weight)
        np.testing.assert_array_equal(out.selected, t.selected)

    def test_empty_mask_zeroes_everything(self):
        t = small_targets()
        out = apply_selection_mask(t, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(out.weight, 0.0)
        assert not out.selected.any()
        np.testing.assert_array_equal(out.assigned_class, t.assigned_class)

    def test_random_subsets(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            t = small_targets()
            pos_pool = np.array([0, 1, 5])
            neg_pool = np.array([2, 3])
            pos = pos_pool[rng.uniform(size=3) < 0.5]
            neg = neg_pool[rng.uniform(size=2) < 0.5]
            out = apply_selection_mask(t, pos, neg)
            kept = set(pos) | set(neg)
            assert set(np.flatnonzero(out.weight > 0)) == kept
            assert set(np.flatnonzero(out.selected)) == kept
            for i in kept:
                assert out.weight[i] == t.weight[i]  # bitwise


class TestScheduleState:
    def test_phase_flag_and_derived_values(self):
        s = ScheduleState(t_n=50, t_0=100, t_1=200)
        assert s.phase == "normal"
        assert s.t_progress == 0.0
        assert s.mu == 20.0
        s2 = ScheduleState(t_n=150, t_0=100, t_1=200)
        assert s2.phase == "finetune"
        assert s2.t_progress == 0.5
        assert s2.mu == 12.0

    def test_boundary_iteration_is_finetune_with_zero_progress(self):
        s = ScheduleState(t_n=100, t_0=100, t_1=200)
        assert s.phase == "finetune"
        assert s.t_progress == 0.0
        assert s.mu == s.mu_s

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleState(t_n=0, t_0=200, t_1=100)
        with pytest.raises(ValueError):
            ScheduleState(t_n=0, t_0=0, t_1=100, mu_s=2.0)
        with pytest.raises(ValueError):
            ScheduleState(t_n=0, t_0=0, t_1=100, lambda_ig=0.6, lambda_ng=0.5)
