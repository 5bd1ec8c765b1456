"""Geometric types, pinhole projection, and pose-error metrics.

Conventions used throughout the toolkit:

* image coordinates are (x, y) in pixels, x along columns, y along rows;
* 3D model points are meters in the object frame;
* a pose maps object coordinates to camera coordinates, p_cam = R @ p + t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, OutOfRange, PointBehindCamera, ZeroGroundTruthTranslation

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class KeypointSet:
    """Ordered 2D keypoints."""

    points: np.ndarray  # (N, 2) float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise EmptySet(f"expected a non-empty (N, 2) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("keypoints must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Model3D:
    """A rigid object given by its 3D keypoints, diameter, and symmetry flag."""

    points: np.ndarray  # (N, 3) meters
    diameter: float
    symmetric: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
            raise ValueError(f"model needs >= 4 3D points, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)
        # diameter is the max pairwise distance; declared value must agree
        d = _max_pairwise_distance(pts)
        if not math.isclose(d, self.diameter, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"declared diameter {self.diameter} != computed {d}"
            )

    @classmethod
    def from_points(cls, points, symmetric: bool = False) -> "Model3D":
        pts = np.asarray(points, dtype=float)
        return cls(pts, _max_pairwise_distance(pts), symmetric)


def _max_pairwise_distance(pts: np.ndarray) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3x3, orthonormal, det +1) and translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if np.abs(R.T @ R - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """self applied after `other`: (self ∘ other)(p) = self(other(p))."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise OutOfRange("focal lengths must be strictly positive")


def rotation_from_axis_angle(axis_angle: np.ndarray) -> np.ndarray:
    """Rodrigues formula; input is axis * angle (radians)."""
    w = np.asarray(axis_angle, dtype=float).reshape(3)
    theta = np.linalg.norm(w)
    if theta < 1e-300:
        return np.eye(3)
    k = w / theta
    K = np.array([[0.0, -k[2], k[1]],
                  [k[2], 0.0, -k[0]],
                  [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def pinhole(points_cam: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """(N, 3) camera-frame points -> (N, 2) pixels; raises PointBehindCamera
    when any point has depth <= 0."""
    z = points_cam[:, 2]
    if (z <= 0).any():
        raise PointBehindCamera(f"{int((z <= 0).sum())} point(s) at depth <= 0")
    return np.stack([cam.fx * points_cam[:, 0] / z + cam.cx,
                     cam.fy * points_cam[:, 1] / z + cam.cy], axis=1)


def project(model: Model3D, pose: Pose, cam: CameraIntrinsics) -> KeypointSet:
    """Pinhole projection of every model keypoint, order preserved."""
    return KeypointSet(pinhole(pose.apply(model.points), cam))


def add_metric(model: Model3D, pred: Pose, gt: Pose) -> float:
    """Mean distance between corresponding transformed model points."""
    return float(np.linalg.norm(pred.apply(model.points) - gt.apply(model.points),
                                axis=1).mean())


def add_s_metric(model: Model3D, pred: Pose, gt: Pose) -> float:
    """Mean closest-point distance; the symmetric-object variant of ADD."""
    p = pred.apply(model.points)
    g = gt.apply(model.points)
    d = np.linalg.norm(p[:, None, :] - g[None, :, :], axis=2)
    return float(d.min(axis=1).mean())


def add_01d_hit(model: Model3D, pred: Pose, gt: Pose) -> bool:
    """True when the (symmetry-aware) ADD is strictly below 10% of diameter."""
    metric = add_s_metric if model.symmetric else add_metric
    return metric(model, pred, gt) < 0.1 * model.diameter


def pose_errors(pred: Pose, gt: Pose) -> tuple[float, float, float]:
    """Returns (E_T meters, E_R degrees, combined score E_R(rad) + E_T/|t_gt|)."""
    e_t = float(np.linalg.norm(pred.translation - gt.translation))
    # relative rotation angle via atan2(|axial part|, (trace - 1) / 2): equal
    # to the arccos form on SO(3) but resolves angles near 0 and pi to machine
    # precision, where arccos bottoms out around sqrt(eps)
    Q = pred.rotation.T @ gt.rotation
    s = 0.5 * math.sqrt((Q[2, 1] - Q[1, 2]) ** 2 + (Q[0, 2] - Q[2, 0]) ** 2
                        + (Q[1, 0] - Q[0, 1]) ** 2)
    c = 0.5 * (float(np.trace(Q)) - 1.0)
    e_r_rad = math.atan2(s, c)
    e_r = math.degrees(e_r_rad)
    tg = float(np.linalg.norm(gt.translation))
    if tg == 0.0:
        raise ZeroGroundTruthTranslation("combined pose error needs |t_gt| > 0")
    return e_t, e_r, e_r_rad + e_t / tg
