import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otkd.errors import InvalidInput
from otkd.uncertainty import aggregate, blend_weights


def two_pass_stats(members):
    """Reference mean/variance: plain per-keypoint python loops."""
    E, N, _ = members.shape
    mean = np.zeros((N, 2))
    var = np.zeros(N)
    for k in range(N):
        pts = [members[e, k] for e in range(E)]
        mean[k] = np.mean(pts, axis=0)
        var[k] = sum(((p - mean[k]) ** 2).sum() for p in pts) / len(pts)
    return mean, var


def spread(variances):
    """Two members at +-sqrt(v) along x: population variance v per keypoint."""
    half = np.sqrt(np.asarray(variances, dtype=float))
    members = np.zeros((2, half.size, 2))
    members[0, :, 0] = half
    members[1, :, 0] = -half
    return members


class TestStatistics:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda e: st.integers(1, 10).flatmap(
        lambda n: arrays(float, (e, n, 2), elements=st.floats(-1e3, 1e3)))),
        st.floats(1e-2, 1e4))
    def test_matches_two_pass_oracle(self, members, scale):
        mean, u = aggregate(members, scale)
        ref_mean, ref_var = two_pass_stats(members)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(u, np.tanh(ref_var / scale),
                                   rtol=1e-9, atol=1e-12)

    def test_hand_computed_variance(self):
        # two members straddling (10, 20) by (+-3, -+4): sigma^2 = 9 + 16
        members = np.array([[[13.0, 16.0]], [[7.0, 24.0]]])
        mean, u = aggregate(members, scale=50.0)
        np.testing.assert_allclose(mean, [[10.0, 20.0]])
        np.testing.assert_allclose(u, [np.tanh(0.5)])

    def test_single_member_has_zero_variance(self):
        mean, u = aggregate(np.array([[[3.0, 4.0], [1.0, 2.0]]]), scale=2.0)
        np.testing.assert_array_equal(mean, [[3.0, 4.0], [1.0, 2.0]])
        np.testing.assert_array_equal(u, [0.0, 0.0])

    def test_duplicating_every_member_changes_nothing(self):
        rng = np.random.default_rng(1)
        members = rng.normal(0.0, 2.0, (3, 4, 2))
        once = aggregate(members, scale=3.0)
        twice = aggregate(np.concatenate([members, members]), scale=3.0)
        for a, b in zip(twice, once):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_empty_stack(self):
        with pytest.raises(InvalidInput, match="member stack"):
            aggregate(np.zeros((0, 3, 2)), scale=1.0)


class TestUncertaintyMap:
    def test_tanh_values(self):
        _, u = aggregate(spread([0.0, 2.0, 1e9]), scale=2.0)
        np.testing.assert_allclose(u, [0.0, np.tanh(1.0), 1.0])

    def test_scale_divides_variance(self):
        _, u = aggregate(spread([3.0]), 6.0)
        assert u[0] == pytest.approx(np.tanh(0.5))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput, match="scale must be > 0"):
            aggregate(spread([1.0]), scale=0.0)
        for shape in ((2, 3), (2, 3, 3)):
            with pytest.raises(InvalidInput, match="member stack"):
                aggregate(np.zeros(shape), scale=1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=8),
           st.floats(1e-3, 1e3))
    def test_always_in_unit_interval(self, variances, scale):
        _, u = aggregate(spread(variances), scale)
        assert ((u >= 0) & (u <= 1)).all()

    def test_monotone_in_variance(self):
        _, u = aggregate(spread(np.linspace(0, 50, 20)), scale=7.0)
        assert (np.diff(u) > 0).all()


class TestWeights:
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
        with pytest.raises(InvalidInput, match="blend factor"):
            blend_weights(np.array([0.5]), np.array([0.5]), 1.5)
        with pytest.raises(InvalidInput, match="confidence weights"):
            blend_weights(np.array([2.0]), np.array([0.5]), 0.5)
        with pytest.raises(InvalidInput, match="weight shapes differ"):
            blend_weights(np.array([0.5]), np.array([0.5, 0.5]), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_blend_stays_between_inputs(self, c, e, lam):
        w = blend_weights(np.array([c]), np.array([e]), lam)[0]
        assert min(c, e) - 1e-12 <= w <= max(c, e) + 1e-12


def test_aggregate_pipeline_end_to_end():
    # 4 members, keypoint 1 spread out along x, keypoint 0 agreed on
    members = np.zeros((4, 2, 2))
    members[:, 1, 0] = [0.0, 0.0, 8.0, 8.0]
    mean, u = aggregate(members, scale=16.0)
    np.testing.assert_allclose(mean[1], [4.0, 0.0])
    assert u[1] == pytest.approx(np.tanh(1.0))
    assert u[0] == 0.0
    assert mean.shape == (2, 2) and u.shape == (2,)
