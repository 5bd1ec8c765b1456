import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkd.errors import (DimensionMismatch, EmptyEnsemble, NoContributors,
                         NonpositiveScale, OutOfRange, ZeroCount)
from otkd.uncertainty import (aggregate, blend_weights, ensemble_statistics,
                              majority_vote_align, student_uniform_weights,
                              teacher_confidence, variance_to_uncertainty)


def two_pass_stats(members, present):
    """Reference mean/variance: plain per-keypoint python loops."""
    E, N, _ = members.shape
    mean = np.zeros((N, 2))
    var = np.zeros(N)
    for k in range(N):
        pts = [members[e, k] for e in range(E) if present[e, k]]
        mean[k] = np.mean(pts, axis=0)
        var[k] = sum(((p - mean[k]) ** 2).sum() for p in pts) / len(pts)
    return mean, var


class TestStatistics:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        members = rng.normal(30.0, 5.0, (5, 7, 2))
        present = rng.uniform(size=(5, 7)) < 0.8
        present[0] = True  # guarantee contributors everywhere
        pred = ensemble_statistics(majority_vote_align(members, present))
        mean, var = two_pass_stats(members, present)
        np.testing.assert_allclose(pred.mean, mean, atol=1e-12)
        np.testing.assert_allclose(pred.variance, var, atol=1e-12)

    def test_hand_computed_variance(self):
        # two members straddling (10, 20) by (+-3, -+4): sigma^2 = 9 + 16
        members = np.array([[[13.0, 16.0]], [[7.0, 24.0]]])
        pred = ensemble_statistics(majority_vote_align(members))
        np.testing.assert_allclose(pred.mean, [[10.0, 20.0]])
        np.testing.assert_allclose(pred.variance, [25.0])

    def test_single_member_has_zero_variance(self):
        pred = aggregate(np.array([[[3.0, 4.0], [1.0, 2.0]]]), scale=2.0)
        np.testing.assert_array_equal(pred.variance, [0.0, 0.0])
        np.testing.assert_array_equal(pred.uncertainty, [0.0, 0.0])

    def test_duplicating_every_member_changes_nothing(self):
        rng = np.random.default_rng(1)
        members = rng.normal(0.0, 2.0, (3, 4, 2))
        once = aggregate(members, scale=3.0)
        twice = aggregate(np.concatenate([members, members]), scale=3.0)
        np.testing.assert_allclose(twice.mean, once.mean, atol=1e-12)
        np.testing.assert_allclose(twice.variance, once.variance, atol=1e-12)
        np.testing.assert_allclose(twice.uncertainty, once.uncertainty,
                                   atol=1e-12)

    def test_absent_members_ignored(self):
        members = np.array([[[1.0, 1.0]], [[999.0, -999.0]]])
        present = np.array([[True], [False]])
        pred = ensemble_statistics(majority_vote_align(members, present))
        np.testing.assert_allclose(pred.mean, [[1.0, 1.0]])
        np.testing.assert_allclose(pred.variance, [0.0])

    def test_no_contributors_rejected(self):
        members = np.zeros((2, 2, 2))
        present = np.array([[True, False], [True, False]])
        with pytest.raises(NoContributors, match="1"):
            ensemble_statistics(majority_vote_align(members, present))


class TestMajorityVote:
    # strict majority: > E/2 contributors, so E/2 exactly is a failure
    @pytest.mark.parametrize("e,count,expect_forced", [
        (4, 2, True), (4, 3, False), (3, 1, True), (3, 2, False), (1, 1, False),
        (2, 1, True),
    ])
    def test_threshold(self, e, count, expect_forced):
        present = np.zeros((e, 1), dtype=bool)
        present[:count, 0] = True
        pred = majority_vote_align(np.zeros((e, 1, 2)), present)
        assert bool(pred.forced[0]) is expect_forced

    def test_forced_keypoints_pinned_to_one(self):
        members = np.zeros((4, 2, 2))
        present = np.ones((4, 2), dtype=bool)
        present[2:, 0] = False  # keypoint 0: 2 of 4 -> forced
        pred = aggregate(members, present, scale=1.0)
        assert pred.uncertainty[0] == 1.0
        assert pred.uncertainty[1] == 0.0

    def test_rejects_empty_stack(self):
        with pytest.raises(EmptyEnsemble):
            majority_vote_align(np.zeros((0, 3, 2)))

    def test_rejects_mask_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            majority_vote_align(np.zeros((2, 3, 2)), np.ones((2, 2), dtype=bool))


class TestUncertaintyMap:
    def test_tanh_values(self):
        u = variance_to_uncertainty(np.array([0.0, 2.0, 1e9]), scale=2.0)
        np.testing.assert_allclose(u, [0.0, np.tanh(1.0), 1.0])

    def test_scale_divides_variance(self):
        v = np.array([3.0])
        assert variance_to_uncertainty(v, 6.0)[0] == pytest.approx(np.tanh(0.5))

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonpositiveScale):
            variance_to_uncertainty(np.array([1.0]), scale=0.0)
        with pytest.raises(OutOfRange):
            variance_to_uncertainty(np.array([-1.0]), scale=1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=8),
           st.floats(1e-3, 1e3))
    def test_always_in_unit_interval(self, variances, scale):
        u = variance_to_uncertainty(np.array(variances), scale)
        assert ((u >= 0) & (u <= 1)).all()

    def test_monotone_in_variance(self):
        u = variance_to_uncertainty(np.linspace(0, 50, 20), scale=7.0)
        assert (np.diff(u) > 0).all()


class TestWeights:
    def test_confidence_complements_uncertainty(self):
        u = np.array([0.0, 0.25, 1.0])
        np.testing.assert_array_equal(teacher_confidence(u), [1.0, 0.75, 0.0])
        with pytest.raises(OutOfRange):
            teacher_confidence(np.array([1.5]))

    def test_uniform_weights(self):
        np.testing.assert_allclose(student_uniform_weights(8), np.full(8, 0.125))
        with pytest.raises(ZeroCount):
            student_uniform_weights(0)

    def test_blend_endpoints_bit_exact(self):
        rng = np.random.default_rng(2)
        conf = rng.uniform(0, 1, 6)
        exist = rng.uniform(0, 1, 6)
        assert (blend_weights(conf, exist, 1.0) == conf).all()
        assert (blend_weights(conf, exist, 0.0) == exist).all()

    def test_blend_midpoint(self):
        w = blend_weights(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        np.testing.assert_array_equal(w, [0.5, 0.5])

    def test_blend_validation(self):
        with pytest.raises(OutOfRange):
            blend_weights(np.array([0.5]), np.array([0.5]), 1.5)
        with pytest.raises(OutOfRange):
            blend_weights(np.array([2.0]), np.array([0.5]), 0.5)
        with pytest.raises(DimensionMismatch):
            blend_weights(np.array([0.5]), np.array([0.5, 0.5]), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_blend_stays_between_inputs(self, c, e, lam):
        w = blend_weights(np.array([c]), np.array([e]), lam)[0]
        assert min(c, e) - 1e-12 <= w <= max(c, e) + 1e-12


def test_aggregate_pipeline_end_to_end():
    # 4 members, keypoint 1 spread out, keypoint 2 seen by only 1 member
    members = np.zeros((4, 3, 2))
    members[:, 1, 0] = [0.0, 0.0, 8.0, 8.0]
    present = np.ones((4, 3), dtype=bool)
    present[1:, 2] = False
    pred = aggregate(members, present, scale=16.0)
    np.testing.assert_allclose(pred.mean[1], [4.0, 0.0])
    assert pred.variance[1] == pytest.approx(16.0)
    assert pred.uncertainty[1] == pytest.approx(np.tanh(1.0))
    assert pred.uncertainty[0] == 0.0
    assert pred.forced[2] and pred.uncertainty[2] == 1.0
    assert pred.mean.shape == (3, 2)
