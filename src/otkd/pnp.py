"""Pose recovery from 2D-3D correspondences: weighted DLT initialization
followed by Gauss-Newton refinement of the reprojection error.

The rotation stays on SO(3) throughout refinement: each step perturbs by an
axis-angle increment and re-projects the product to the nearest rotation via
the orthogonal polar factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, DimensionMismatch, NegativeWeight
from .geometry import (CameraIntrinsics, KeypointSet, Pose, pinhole,
                       rotation_from_axis_angle)

_MIN_POINTS = 6  # unconstrained 12-parameter DLT needs 6 generic points


@dataclass(frozen=True)
class Correspondences:
    points2d: KeypointSet
    points3d: np.ndarray  # (N, 3) meters
    cam: CameraIntrinsics
    weights: np.ndarray | None = None

    def __post_init__(self):
        p3 = np.asarray(self.points3d, dtype=float)
        if p3.ndim != 2 or p3.shape[1] != 3:
            raise ValueError(f"points3d must be (N, 3), got {p3.shape}")
        if p3.shape[0] != len(self.points2d):
            raise DimensionMismatch(
                f"{len(self.points2d)} 2D points vs {p3.shape[0]} 3D points")
        object.__setattr__(self, "points3d", p3)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (p3.shape[0],):
                raise DimensionMismatch("weights length mismatch")
            if not (w >= 0).all():
                raise NegativeWeight("weights must be >= 0")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class PnpResult:
    pose: Pose
    reprojection_rms: float
    converged: bool
    iterations: int


def _project_to_so3(M: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def _dlt(p3: np.ndarray, xn: np.ndarray, w: np.ndarray):
    """12-parameter DLT on normalized image coordinates; rows scaled by sqrt(w).

    Both point sets are similarity-normalized first (weighted centroid to the
    origin, RMS radius to sqrt(dim)); without this the homogeneous column
    dwarfs the coordinate columns for shallow objects and the recovered depth
    collapses under pixel noise.
    """
    n = p3.shape[0]
    wn = w / w.sum()
    c3 = (p3 * wn[:, None]).sum(axis=0)
    r3 = math.sqrt(float((wn * ((p3 - c3) ** 2).sum(axis=1)).sum()))
    s3 = math.sqrt(3.0) / max(r3, 1e-12)
    c2 = (xn * wn[:, None]).sum(axis=0)
    r2 = math.sqrt(float((wn * ((xn - c2) ** 2).sum(axis=1)).sum()))
    s2 = math.sqrt(2.0) / max(r2, 1e-12)
    p3n = (p3 - c3) * s3
    xnn = (xn - c2) * s2

    A = np.zeros((2 * n, 12))
    sw = np.sqrt(w)
    X1 = np.hstack([p3n, np.ones((n, 1))])  # (n, 4)
    A[0::2, 0:4] = X1 * sw[:, None]
    A[0::2, 8:12] = -X1 * (xnn[:, 0] * sw)[:, None]
    A[1::2, 4:8] = X1 * sw[:, None]
    A[1::2, 8:12] = -X1 * (xnn[:, 1] * sw)[:, None]
    _, s, Vt = np.linalg.svd(A)
    Pn = Vt[-1].reshape(3, 4)
    # undo the similarity transforms: x = Hinv (Pn T) X
    Hinv = np.array([[1.0 / s2, 0.0, c2[0]],
                     [0.0, 1.0 / s2, c2[1]],
                     [0.0, 0.0, 1.0]])
    T = np.block([[s3 * np.eye(3), (-s3 * c3)[:, None]],
                  [np.zeros((1, 3)), np.ones((1, 1))]])
    P = Hinv @ Pn @ T
    # fix the projective sign so most (weighted) depths are positive
    depths = p3 @ P[2, :3] + P[2, 3]
    if np.sum(np.sign(depths) * w) < 0:
        P = -P
    M = P[:, :3]
    scale = np.linalg.svd(M, compute_uv=False).mean()
    if scale < 1e-12:
        raise DegenerateConfiguration("DLT produced a rank-deficient camera matrix")
    R = _project_to_so3(M / scale)
    t = P[:, 3] / scale
    return R, t


def _residuals_and_jacobian(p3, obs, cam, R, t, sw):
    pc = p3 @ R.T + t
    r = ((pinhole(pc, cam) - obs) * sw[:, None]).ravel()  # u0, v0, u1, v1, ...
    n = p3.shape[0]
    z = pc[:, 2]
    # d(u,v)/d p_cam
    J_proj = np.zeros((n, 2, 3))
    J_proj[:, 0, 0] = cam.fx / z
    J_proj[:, 0, 2] = -cam.fx * pc[:, 0] / z ** 2
    J_proj[:, 1, 1] = cam.fy / z
    J_proj[:, 1, 2] = -cam.fy * pc[:, 1] / z ** 2
    # left perturbation: p_cam(w) = exp([w]x) (R p + t) => dp/dw = -[p_cam]x
    dp_dw = np.zeros((n, 3, 3))
    dp_dw[:, 0, 1] = pc[:, 2]
    dp_dw[:, 0, 2] = -pc[:, 1]
    dp_dw[:, 1, 0] = -pc[:, 2]
    dp_dw[:, 1, 2] = pc[:, 0]
    dp_dw[:, 2, 0] = pc[:, 1]
    dp_dw[:, 2, 1] = -pc[:, 0]
    J = np.empty((2 * n, 6))
    Jw = np.einsum("nij,njk->nik", J_proj, dp_dw)  # (n, 2, 3)
    J[0::2, 0:3] = Jw[:, 0] * sw[:, None]
    J[1::2, 0:3] = Jw[:, 1] * sw[:, None]
    J[0::2, 3:6] = J_proj[:, 0] * sw[:, None]
    J[1::2, 3:6] = J_proj[:, 1] * sw[:, None]
    return r, J


def pnp_solve(c: Correspondences, max_iters: int = 100,
              tol: float = 1e-10) -> PnpResult:
    """DLT + Gauss-Newton.  Deterministic; weights of zero drop points exactly."""
    p3 = c.points3d
    obs = c.points2d.points
    n = p3.shape[0]
    w = np.ones(n) if c.weights is None else c.weights
    active = w > 0
    if int(active.sum()) < _MIN_POINTS:
        raise DegenerateConfiguration(
            f"need >= {_MIN_POINTS} positively weighted correspondences, "
            f"got {int(active.sum())}")
    centered = p3[active] - p3[active].mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9) < 3:
        raise DegenerateConfiguration("3D points are (nearly) coplanar or collinear")

    # normalized image coordinates decouple the intrinsics from the DLT
    xn = np.stack([(obs[:, 0] - c.cam.cx) / c.cam.fx,
                   (obs[:, 1] - c.cam.cy) / c.cam.fy], axis=1)
    R, t = _dlt(p3[active], xn[active], w[active])

    sw = np.sqrt(w[active])
    obs_a, p3_a = obs[active], p3[active]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        r, J = _residuals_and_jacobian(p3_a, obs_a, c.cam, R, t, sw)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        # halve the step while it would push a point to nonpositive depth
        scale_step = 1.0
        for _ in range(30):
            R_new = _project_to_so3(
                rotation_from_axis_angle(scale_step * step[:3]) @ R)
            t_new = t + scale_step * step[3:]
            if ((p3_a @ R_new.T + t_new)[:, 2] > 0).all():
                break
            scale_step *= 0.5
        else:
            break  # no cheirality-preserving step left; keep the estimate
        R, t = R_new, t_new
        if scale_step * np.linalg.norm(step) < tol:
            converged = True
            break
    pose = Pose(R, t)
    return PnpResult(pose=pose,
                     reprojection_rms=reprojection_rms(c, pose),
                     converged=converged, iterations=it)


def reprojection_rms(c: Correspondences, pose: Pose) -> float:
    """Root-mean-square magnitude of the 2D reprojection residuals (pixels),
    over all correspondences, unweighted."""
    res = pinhole(pose.apply(c.points3d), c.cam) - c.points2d.points
    return float(np.sqrt((res ** 2).sum(axis=1).mean()))
