import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkd.errors import DegenerateGeometry, InvalidInput
from otkd.geometry import (CameraIntrinsics, KeypointSet, Model3D, Pose,
                           pose_errors, project)
from otkd.pnp import Correspondences, pnp_solve, reprojection_rms

CAM = CameraIntrinsics(fx=220.0, fy=220.0, cx=32.0, cy=32.0)


def rotation_error_deg(pred, gt):
    return pose_errors(pred, gt)[1]


def translation_error(pred, gt):
    return pose_errors(pred, gt)[0]


def project_points(p3, pose, cam):
    return project(Model3D(p3), pose, cam)


def random_pose(rng):
    angles = rng.uniform(-0.4, 0.4, 3)
    cx, sx = np.cos(angles[0]), np.sin(angles[0])
    cy, sy = np.cos(angles[1]), np.sin(angles[1])
    cz, sz = np.cos(angles[2]), np.sin(angles[2])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    t = np.array([rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03),
                  rng.uniform(0.4, 0.7)])
    return Pose(rz @ ry @ rx, t)


def random_points(rng, n=8):
    return rng.uniform(-0.06, 0.06, (n, 3))


def make_correspondences(rng, pose, n=8, noise=0.0, weights=None):
    p3 = random_points(rng, n)
    p2 = project_points(p3, pose, CAM).points
    if noise:
        p2 = p2 + rng.normal(0.0, noise, p2.shape)
    return Correspondences(KeypointSet(p2), p3, CAM, weights)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_recovery(self, seed):
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        res = pnp_solve(make_correspondences(rng, pose))
        assert res.converged
        assert rotation_error_deg(res.pose, pose) < 1e-6
        assert translation_error(res.pose, pose) < 1e-9
        assert res.reprojection_rms < 1e-8

    def test_identity_is_a_fixed_point(self):
        rng = np.random.default_rng(42)
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 0.5]))
        res = pnp_solve(make_correspondences(rng, pose))
        assert rotation_error_deg(res.pose, pose) < 1e-6
        assert translation_error(res.pose, pose) < 1e-9

    def test_minimum_point_count(self):
        rng = np.random.default_rng(1)
        pose = random_pose(rng)
        res = pnp_solve(make_correspondences(rng, pose, n=6))
        assert rotation_error_deg(res.pose, pose) < 1e-5


class TestNoise:
    def test_error_grows_with_noise(self):
        # average over several draws per level so the ordering is stable
        levels = [0.5, 1.0, 2.0]
        errs = []
        for noise in levels:
            rot = []
            for k in range(6):
                rng = np.random.default_rng(1000 + k)
                pose = random_pose(rng)
                res = pnp_solve(make_correspondences(rng, pose, n=8, noise=noise))
                rot.append(rotation_error_deg(res.pose, pose))
            errs.append(np.mean(rot))
        assert errs[0] < errs[1] < errs[2]

    def test_reprojection_rms_tracks_noise_scale(self):
        rng = np.random.default_rng(7)
        pose = random_pose(rng)
        res = pnp_solve(make_correspondences(rng, pose, n=16, noise=1.0))
        # LSQ fit cannot be worse than a few sigma, nor suspiciously at zero
        assert 0.1 < res.reprojection_rms < 3.0


class TestConvergence:
    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_gauss_newton_converges_in_few_steps(self, noise):
        # a step that matches its Jacobian needs at most 9 iterations here;
        # turning R but not t by the increment needs up to 18 at 0.5 px
        iterations = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pose = random_pose(rng)
            res = pnp_solve(make_correspondences(rng, pose, noise=noise))
            assert res.converged, f"seed {seed}"
            iterations.append(res.iterations)
        assert max(iterations) <= 15


class TestWeights:
    def test_zero_weight_equals_dropped_point(self):
        rng = np.random.default_rng(3)
        pose = random_pose(rng)
        p3 = random_points(rng, 8)
        p2 = project_points(p3, pose, CAM).points
        p2_bad = p2.copy()
        p2_bad[0] += 40.0  # wreck one observation, then zero it out
        w = np.ones(8)
        w[0] = 0.0
        weighted = pnp_solve(Correspondences(KeypointSet(p2_bad), p3, CAM, w))
        dropped = pnp_solve(Correspondences(KeypointSet(p2[1:]), p3[1:], CAM))
        assert rotation_error_deg(weighted.pose, dropped.pose) < 1e-9
        assert translation_error(weighted.pose, dropped.pose) < 1e-12

    def test_downweighting_limits_outlier_damage(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        p3 = random_points(rng, 8)
        p2 = project_points(p3, pose, CAM).points
        p2[0] += 25.0
        heavy = pnp_solve(Correspondences(KeypointSet(p2), p3, CAM))
        soft = pnp_solve(Correspondences(KeypointSet(p2), p3, CAM,
                                         np.array([1e-4] + [1.0] * 7)))
        assert (rotation_error_deg(soft.pose, pose)
                < rotation_error_deg(heavy.pose, pose))

    def test_too_few_active_points(self):
        rng = np.random.default_rng(5)
        pose = random_pose(rng)
        w = np.array([1.0] * 5 + [0.0] * 3)
        with pytest.raises(DegenerateGeometry, match="need >= 6"):
            pnp_solve(make_correspondences(rng, pose, n=8, weights=w))


class TestDegenerate:
    def test_rejects_fewer_than_six(self):
        rng = np.random.default_rng(6)
        pose = random_pose(rng)
        with pytest.raises(DegenerateGeometry, match="need >= 6"):
            pnp_solve(make_correspondences(rng, pose, n=5))

    def test_rejects_collinear_points(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        p3 = np.outer(np.linspace(-0.05, 0.05, 8), np.array([1.0, 0.5, 0.2]))
        p2 = project_points(p3, pose, CAM)
        with pytest.raises(DegenerateGeometry, match="coplanar or collinear"):
            pnp_solve(Correspondences(p2, p3, CAM))

    def test_rejects_coplanar_points(self):
        rng = np.random.default_rng(9)
        pose = random_pose(rng)
        p3 = random_points(rng, 8)
        p3[:, 2] = 0.01  # squash onto a plane
        p2 = project_points(p3, pose, CAM)
        with pytest.raises(DegenerateGeometry, match="coplanar or collinear"):
            pnp_solve(Correspondences(p2, p3, CAM))

    @pytest.mark.parametrize("which", ["pixel", "point"])
    def test_overflowing_coordinate_is_degenerate(self, which):
        # one huge but finite coordinate overflows the similarity normalization
        rng = np.random.default_rng(12)
        c = make_correspondences(rng, random_pose(rng))
        p2, p3 = c.points2d.points.copy(), c.points3d.copy()
        (p2 if which == "pixel" else p3)[0, 0] = 1e200
        with np.errstate(over="ignore"), \
                pytest.raises(DegenerateGeometry, match="overflow the DLT"):
            pnp_solve(Correspondences(KeypointSet(p2), p3, CAM))

    def test_rejects_count_mismatch(self):
        with pytest.raises(InvalidInput, match="2D points vs"):
            Correspondences(KeypointSet(np.zeros((3, 2))), np.zeros((4, 3)), CAM)

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInput, match="weights must be >= 0"):
            Correspondences(KeypointSet(np.zeros((6, 2))), np.zeros((6, 3)),
                            CAM, weights=np.array([1, 1, 1, 1, 1, -1.0]))


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_points3d(self, bad):
        # an inf or NaN coordinate used to escape pnp_solve as numpy's
        # LinAlgError from the DLT's SVD
        rng = np.random.default_rng(13)
        c = make_correspondences(rng, random_pose(rng))
        p3 = c.points3d.copy()
        p3[2, 1] = bad
        with pytest.raises(InvalidInput, match="points3d must be finite"):
            Correspondences(c.points2d, p3, CAM)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_weights(self, bad):
        # +inf passes a `>= 0` check and used to surface as an overflow
        w = np.ones(6)
        w[3] = bad
        with pytest.raises(InvalidInput, match="weights must be finite"):
            Correspondences(KeypointSet(np.zeros((6, 2))), np.zeros((6, 3)),
                            CAM, weights=w)


class TestReprojectionRms:
    def test_zero_at_true_pose(self):
        rng = np.random.default_rng(10)
        pose = random_pose(rng)
        c = make_correspondences(rng, pose)
        assert reprojection_rms(c, pose) < 1e-10

    def test_hand_computed_offset(self):
        # observations shifted 3 px in u and 4 px in v -> every residual is 5
        rng = np.random.default_rng(11)
        pose = random_pose(rng)
        p3 = random_points(rng, 6)
        p2 = project_points(p3, pose, CAM).points + np.array([3.0, 4.0])
        c = Correspondences(KeypointSet(p2), p3, CAM)
        assert reprojection_rms(c, pose) == pytest.approx(5.0, rel=1e-12)

    def test_unweighted_even_when_solve_weighted(self):
        rng = np.random.default_rng(12)
        pose = random_pose(rng)
        p3 = random_points(rng, 8)
        p2 = project_points(p3, pose, CAM).points
        p2[0] += np.array([6.0, 8.0])  # |residual| = 10 on the dead point
        w = np.zeros(8)
        w[1:] = 1.0
        res = pnp_solve(Correspondences(KeypointSet(p2), p3, CAM, w))
        # the wrecked point is excluded from the fit but not from the metric
        assert res.reprojection_rms == pytest.approx(10.0 / np.sqrt(8), rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_roundtrips_recover(seed):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    res = pnp_solve(make_correspondences(rng, pose, n=10))
    assert rotation_error_deg(res.pose, pose) < 1e-5
    assert translation_error(res.pose, pose) < 1e-8
