"""Prediction-level distillation: transport-plan-weighted keypoint alignment.

The loss couples student keypoints to teacher keypoints through an unbalanced
OT plan whose teacher-side marginal carries the ensemble confidence weights;
uncertain teacher keypoints receive less mass and therefore pull the student
less.  Gradients treat the plan as locally constant (envelope treatment): at
the entropic optimum the partial derivative through the plan vanishes to first
order, and the frozen-plan gradient is exact for the surrogate actually
descended.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def transport_loss(plans: np.ndarray, student: np.ndarray, teacher: np.ndarray):
    """Plan-weighted keypoint distance, averaged over scenes.

    plans (B, M, N) student-major, student (B, M, 2), teacher (B, N, 2).
    Per scene, loss = sum_ij pi_ij * |k_s_i - k_t_j|.  Returns the loss and
    its gradient with respect to the student keypoints, (B, M, 2):
    sum_j pi_ij * (k_s_i - k_t_j) / max(|k_s_i - k_t_j|, 1e-12), so a
    coincident pair contributes nothing (minimum-norm subgradient).
    """
    B, M, N = plans.shape
    if student.shape != (B, M, 2) or teacher.shape != (B, N, 2):
        raise InvalidInput(f"keypoints {student.shape} and {teacher.shape} "
                           f"vs plans {plans.shape}")
    disp = student[:, :, None, :] - teacher[:, None, :, :]     # (B, M, N, 2)
    dist = np.linalg.norm(disp, axis=3)
    loss = float((plans * dist).sum() / B)
    unit = disp / np.maximum(dist, 1e-12)[..., None]
    return loss, (plans[..., None] * unit).sum(axis=2) / B

