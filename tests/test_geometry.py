import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkd.errors import DegenerateGeometry, InvalidInput
from otkd.geometry import (CameraIntrinsics, KeypointSet, Model3D, Pose,
                           add_01d_hit, add_metric, add_s_metric,
                           pairwise_distance, pose_errors, project,
                           rotation_from_axis_angle)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_pose(rng, z_min=0.3):
    t = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                  rng.uniform(z_min, z_min + 0.6)])
    return Pose(rotation=random_rotation(rng), translation=t)


def random_model(rng, n=8):
    return Model3D(rng.uniform(-0.06, 0.06, (n, 3)))


def compose(a, b):
    """The pose `a` applied after `b`: p -> a(b(p))."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


CAM = CameraIntrinsics(fx=200.0, fy=180.0, cx=32.0, cy=24.0)
IDENTITY = Pose(np.eye(3), np.zeros(3))


class TestProjection:
    def test_single_point_by_hand(self):
        # (0.1, -0.05, 0.5) at fx=200, fy=180: u = 200*0.2+32, v = 180*(-0.1)+24
        model = Model3D([[0.1, -0.05, 0.5], [0, 0, 0.5],
                         [0.1, 0, 0.5], [0, -0.05, 0.5]])
        kps = project(model, IDENTITY, CAM)
        np.testing.assert_allclose(kps.points[0], [72.0, 6.0], atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        pose = random_pose(rng)
        kps = project(model, pose, CAM)
        for i, p in enumerate(model.points):
            pc = pose.rotation @ p + pose.translation
            expect = [CAM.fx * pc[0] / pc[2] + CAM.cx,
                      CAM.fy * pc[1] / pc[2] + CAM.cy]
            np.testing.assert_allclose(kps.points[i], expect, rtol=1e-12)

    def test_point_behind_camera(self):
        model = Model3D([[0, 0, 0.5], [0.01, 0, 0.5],
                         [0, 0.01, 0.5], [0, 0, -0.5]])
        with pytest.raises(DegenerateGeometry, match="depth <= 0"):
            project(model, IDENTITY, CAM)

    def test_principal_point_fixed(self):
        # the optical axis lands on (cx, cy) regardless of depth
        model = Model3D([[0, 0, 0.2], [0, 0, 0.9],
                         [0.01, 0, 0.5], [0, 0.01, 0.5]])
        kps = project(model, IDENTITY, CAM)
        np.testing.assert_allclose(kps.points[:2], [[32, 24], [32, 24]], atol=1e-12)


class TestRotations:
    def test_quarter_turn_about_z(self):
        R = rotation_from_axis_angle(np.array([0, 0, math.pi / 2]))
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_from_axis_angle(np.zeros(3)),
                                   np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("vec", [[0.3, -0.2, 0.5], [1.2, 0.0, 0.0],
                                     [-0.7, 0.7, 0.7], [0.0, 2.9, -0.4]])
    def test_matches_scipy(self, vec):
        scipy_rot = pytest.importorskip("scipy.spatial.transform").Rotation
        R = rotation_from_axis_angle(np.array(vec))
        np.testing.assert_allclose(R, scipy_rot.from_rotvec(vec).as_matrix(),
                                   atol=1e-12)

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
    def test_always_orthonormal(self, vec):
        R = rotation_from_axis_angle(np.array(vec))
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInput, match="orthonormal"):
            Pose(rotation=np.eye(3) * 1.01, translation=np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(InvalidInput, match="determinant"):
            Pose(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))


class TestPoseErrors:
    def test_known_right_angle(self):
        pred = Pose(rotation=rotation_from_axis_angle(np.array([0, 0, math.pi / 2])),
                    translation=np.array([0.0, 0.0, 0.5]))
        gt = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.5]))
        _, e_r, _ = pose_errors(pred, gt)
        assert e_r == pytest.approx(90.0, abs=1e-9)

    def test_matches_quaternion_oracle(self):
        scipy_rot = pytest.importorskip("scipy.spatial.transform").Rotation
        # relative angle of rotvecs [.1,.2,-.3] vs [-.2,.4,.1], via scipy: 30.727633075686565
        p1 = Pose(rotation=scipy_rot.from_rotvec([0.1, 0.2, -0.3]).as_matrix(),
                  translation=np.array([0, 0, 1.0]))
        p2 = Pose(rotation=scipy_rot.from_rotvec([-0.2, 0.4, 0.1]).as_matrix(),
                  translation=np.array([0, 0, 1.0]))
        _, e_r, _ = pose_errors(p1, p2)
        assert e_r == pytest.approx(30.727633075686565, abs=1e-9)

    def test_translation_error_is_euclidean(self):
        p1 = Pose(rotation=np.eye(3), translation=np.array([0.1, 0.0, 0.5]))
        p2 = Pose(rotation=np.eye(3), translation=np.array([0.1, 0.04, 0.53]))
        e_t, e_r, _ = pose_errors(p1, p2)
        assert e_t == pytest.approx(0.05, rel=1e-12)
        assert e_r == pytest.approx(0.0, abs=1e-7)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        p1, p2 = random_pose(rng), random_pose(rng)
        assert pose_errors(p1, p2)[:2] == pytest.approx(pose_errors(p2, p1)[:2])

    def test_left_composition_invariance(self):
        # moving both poses by a shared rigid motion changes neither error
        rng = np.random.default_rng(7)
        p1, p2, g = random_pose(rng), random_pose(rng), random_pose(rng)
        e = pose_errors(p1, p2)
        e_moved = pose_errors(compose(g, p1), compose(g, p2))
        assert e_moved[0] == pytest.approx(e[0], rel=1e-9)
        assert e_moved[1] == pytest.approx(e[1], rel=1e-9)

    def test_rotation_error_right_invariant(self):
        rng = np.random.default_rng(9)
        p1, p2, g = random_pose(rng), random_pose(rng), random_pose(rng)
        assert pose_errors(compose(p1, g), compose(p2, g))[1] == pytest.approx(
            pose_errors(p1, p2)[1], rel=1e-9)

    def test_zero_gt_translation_rejected(self):
        p = Pose(rotation=np.eye(3), translation=np.zeros(3))
        with pytest.raises(InvalidInput, match=r"\|t_gt\| > 0"):
            pose_errors(p, p)


class TestAddMetrics:
    def test_exact_pose_scores_zero(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        pose = random_pose(rng)
        assert add_metric(model, pose, pose) == 0.0
        assert add_s_metric(model, pose, pose) == 0.0

    def test_pure_translation_offset(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        pose = random_pose(rng)
        off = Pose(rotation=pose.rotation,
                   translation=pose.translation + [0.003, -0.004, 0.0])
        assert add_metric(model, off, pose) == pytest.approx(0.005, rel=1e-12)

    def test_symmetric_never_exceeds_add(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            model = random_model(rng)
            a, b = random_pose(rng), random_pose(rng)
            assert add_s_metric(model, a, b) <= add_metric(model, a, b) + 1e-15

    def test_planar_rectangle_symmetry(self):
        # (+-0.04, +-0.03, 0) maps onto itself under a half turn about z:
        # ADD = 0.1 (every corner travels 2*sqrt(.04^2+.03^2)), ADD-S = 0
        pts = [[0.04, 0.03, 0], [0.04, -0.03, 0], [-0.04, 0.03, 0],
               [-0.04, -0.03, 0]]
        model = Model3D(pts, symmetric=True)
        gt = Pose(rotation=np.eye(3), translation=np.array([0, 0, 0.5]))
        half_turn = Pose(rotation=rotation_from_axis_angle(np.array([0, 0, math.pi])),
                         translation=np.array([0, 0, 0.5]))
        assert add_metric(model, half_turn, gt) == pytest.approx(0.1, rel=1e-12)
        assert add_s_metric(model, half_turn, gt) == pytest.approx(0.0, abs=1e-12)
        # diameter is also 0.1, so the hit test passes only via the -S variant
        assert add_01d_hit(model, half_turn, gt)
        assert not add_01d_hit(Model3D(pts), half_turn, gt)

    def test_hit_threshold_is_strict(self):
        rng = np.random.default_rng(23)
        model = random_model(rng)
        pose = random_pose(rng)
        exact = Pose(rotation=pose.rotation,
                     translation=pose.translation + [model.diameter * 0.1, 0, 0])
        assert not add_01d_hit(model, exact, pose)  # ADD == 0.1d exactly


class TestTypes:
    def test_keypointset_rejects_nan(self):
        with pytest.raises(InvalidInput, match="finite"):
            KeypointSet(np.array([[0.0, np.nan]]))

    def test_keypointset_rejects_empty(self):
        with pytest.raises(InvalidInput, match="non-empty"):
            KeypointSet(np.zeros((0, 2)))

    def test_model_needs_four_points(self):
        with pytest.raises(InvalidInput, match=">= 4 3D points"):
            Model3D([[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_model_diameter_is_largest_point_distance(self):
        pts = np.array([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]])
        assert Model3D(pts).diameter == pytest.approx(0.1 * math.sqrt(2), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6),
       st.integers(2, 3), st.integers(0, 10_000))
def test_pairwise_distance_matches_each_pair(B, m, n, dim, seed):
    # bit for bit: the transport cost, the prediction loss and the model
    # diameter all read this one function
    rng = np.random.default_rng(seed)
    a = rng.uniform(-20, 20, (B, m, dim))
    b = rng.uniform(-20, 20, (B, n, dim))
    disp, dist = pairwise_distance(a, b)
    for k in range(B):
        for i in range(m):
            for j in range(n):
                d = a[k, i] - b[k, j]
                assert np.array_equal(disp[k, i, j], d)
                assert dist[k, i, j] == np.sqrt((d ** 2).sum())


@settings(max_examples=25)
@given(st.floats(0.01, 2.9))
def test_rotation_error_recovers_sampled_angle(angle):
    axis = np.array([1 / math.sqrt(3)] * 3)
    p1 = Pose(rotation=np.eye(3), translation=np.array([0, 0, 0.5]))
    p2 = Pose(rotation=rotation_from_axis_angle(axis * angle),
              translation=np.array([0, 0, 0.5]))
    assert pose_errors(p1, p2)[1] == pytest.approx(math.degrees(angle), rel=1e-9)
