import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkd.errors import InvalidInput
from otkd.geometry import pairwise_distance
from otkd.sinkhorn import SinkhornConfig, sinkhorn_unbalanced
from otkd.uakd import transport_loss

CFG = SinkhornConfig(epsilon=0.05, tau=10.0)


def kp(*pts):
    return np.array(pts, dtype=float)


def scene_loss(student, teacher, alpha_s, alpha_t, cfg=CFG):
    """One scene's (loss, plan, student gradient): the Euclidean cost's
    `sinkhorn_unbalanced` plan, then `transport_loss` at B = 1 on the same
    displacements and distances."""
    disp, dist = pairwise_distance(student[None], teacher[None])
    plan = sinkhorn_unbalanced(dist[0], alpha_s, alpha_t, cfg).entries
    loss, grad = transport_loss(plan[None], disp, dist)
    return loss, plan, grad[0]


class TestSinglePair:
    """1x1 instances: the plan is forced, so loss and gradient are closed-form."""

    def test_three_four_five(self):
        loss, plan, grad = scene_loss(kp((0.0, 0.0)), kp((3.0, 4.0)), [1.0], [1.0],
                                      SinkhornConfig(epsilon=0.01, tau=1e6))
        mass = plan[0, 0]
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert loss == pytest.approx(5.0 * mass, rel=1e-9)
        # unit vector from teacher toward student, scaled by the mass
        np.testing.assert_allclose(grad, [[-0.6 * mass, -0.8 * mass]], rtol=1e-9)

    def test_coincident_points_zero_gradient(self):
        loss, _, grad = scene_loss(kp((2.0, 2.0)), kp((2.0, 2.0)), [1.0], [1.0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(grad, [[0.0, 0.0]])

    def test_gradient_is_unit_direction_times_mass(self):
        # doubling the separation doubles the loss but not the gradient norm
        cfg = SinkhornConfig(epsilon=0.01, tau=1e6)
        near, _, g_near = scene_loss(kp((1.0, 0.0)), kp((0.0, 0.0)), [1.0], [1.0], cfg)
        far, _, g_far = scene_loss(kp((2.0, 0.0)), kp((0.0, 0.0)), [1.0], [1.0], cfg)
        assert far == pytest.approx(2 * near, rel=1e-4)
        assert np.linalg.norm(g_far) == pytest.approx(np.linalg.norm(g_near),
                                                      rel=1e-4)


def finite_difference_gradient(student_pts, teacher, P, h=1e-6):
    """Central differences of the plan-frozen objective sum_ij P_ij |s_i - t_j|."""

    def loss_at(pts):
        d = np.sqrt(((pts[:, None, :] - teacher[None, :, :]) ** 2).sum(-1))
        return (P * d).sum()

    g = np.zeros_like(student_pts)
    for i in range(student_pts.shape[0]):
        for c in range(2):
            up = student_pts.copy()
            up[i, c] += h
            dn = student_pts.copy()
            dn[i, c] -= h
            g[i, c] = (loss_at(up) - loss_at(dn)) / (2 * h)
    return g


class TestGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences_on_frozen_plan(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0, 10, (5, 2))
        t = rng.uniform(0, 10, (6, 2))
        a = np.full(5, 0.2)
        b = rng.uniform(0.2, 1.0, 6)
        b /= b.sum()
        _, plan, grad = scene_loss(s, t, a, b)
        fd = finite_difference_gradient(s.copy(), t, plan)
        np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_gradient_descent_reduces_loss(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0, 8, (4, 2))
        pts = rng.uniform(0, 8, (4, 2))
        a = np.full(4, 0.25)
        b = np.full(4, 0.25)
        losses = []
        for _ in range(25):
            loss, _, grad = scene_loss(pts, t, a, b)
            losses.append(loss)
            pts = pts - 0.5 * grad
        assert losses[-1] < 0.25 * losses[0]


class TestWeighting:
    def test_downweighted_teacher_pulls_less(self):
        # student at origin, teachers at +-x; shrinking one teacher's weight
        # swings the net pull toward the other side
        s = kp((0.0, 0.0))
        t = kp((4.0, 0.0), (-4.0, 0.0))
        a = [1.0]
        even = scene_loss(s, t, a, [0.5, 0.5])[2][0, 0]
        skewed = scene_loss(s, t, a, [0.9, 0.1])[2][0, 0]
        assert abs(even) < 1e-6
        assert skewed < -0.1  # pulled toward the heavy teacher at +x

    def test_zero_weight_column_exerts_no_pull(self):
        s = kp((0.0, 0.0), (1.0, 1.0))
        t = kp((2.0, 0.0), (50.0, 50.0))
        _, plan, grad = scene_loss(s, t, [0.5, 0.5], [1.0, 0.0])
        assert (plan[:, 1] == 0.0).all()
        # gradient as if the far teacher did not exist
        _, _, alone = scene_loss(s, kp((2.0, 0.0)), [0.5, 0.5], [1.0])
        np.testing.assert_allclose(grad, alone, atol=1e-6)


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0, 10, (4, 2))
        t = rng.uniform(0, 10, (5, 2))
        a = np.full(4, 0.25)
        b = np.full(5, 0.2)
        shift = np.array([13.0, -4.0])
        l1, _, g1 = scene_loss(s, t, a, b)
        l2, _, g2 = scene_loss(s + shift, t + shift, a, b)
        assert l2 == pytest.approx(l1, rel=1e-9)
        np.testing.assert_allclose(g2, g1, atol=1e-9)

    def test_rejects_weight_mismatch(self):
        with pytest.raises(InvalidInput, match="marginals of"):
            scene_loss(kp((0, 0)), kp((1, 1)), [1.0, 1.0], [1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_loss_nonnegative_and_gradient_bounded(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    s = rng.uniform(0, 20, (m, 2))
    t = rng.uniform(0, 20, (n, 2))
    a = np.full(m, 1.0 / m)
    b = rng.uniform(0.1, 1.0, n)
    b /= b.sum()
    loss, plan, grad = scene_loss(s, t, a, b)
    assert loss >= 0
    # each row's pull is at most its transported mass (triangle inequality)
    row_norm = np.linalg.norm(grad, axis=1)
    assert (row_norm <= plan.sum(axis=1) + 1e-9).all()


def loop_transport_loss(P, student, teacher):
    """Reference for one scene: explicit loops over keypoint pairs."""
    loss = 0.0
    grad = np.zeros_like(student)
    for i in range(len(student)):
        for j in range(len(teacher)):
            d = student[i] - teacher[j]
            r = np.hypot(*d)
            loss += P[i, j] * r
            if r > 0:
                grad[i] += P[i, j] * d / r
    return loss, grad


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10_000))
def test_transport_loss_matches_scene_loop(B, m, n, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0, 20, (B, m, 2))
    t = rng.uniform(0, 20, (B, n, 2))
    t[0, 0] = s[0, 0]  # a coincident pair contributes no pull
    P = rng.uniform(0, 1, (B, m, n))
    loss, grad = transport_loss(P, *pairwise_distance(s, t))
    refs = [loop_transport_loss(P[b], s[b], t[b]) for b in range(B)]
    assert loss == pytest.approx(np.mean([r[0] for r in refs]), rel=1e-12)
    np.testing.assert_allclose(grad, np.stack([r[1] for r in refs]) / B,
                               rtol=1e-12, atol=1e-15)


def test_transport_loss_rejects_shapes():
    with pytest.raises(InvalidInput, match="vs plans"):
        transport_loss(np.zeros((2, 3, 4)), *pairwise_distance(np.zeros((2, 3, 2)),
                                                               np.zeros((2, 3, 2))))
