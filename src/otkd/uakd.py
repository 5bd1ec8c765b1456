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


def transport_loss(plans: np.ndarray, disp: np.ndarray, dist: np.ndarray):
    """Plan-weighted keypoint distance, averaged over scenes.

    plans (B, M, N) student-major; disp, dist: the transport cost's
    `geometry.pairwise_distance` of student and teacher keypoints.  Per scene,
    loss = sum_ij pi_ij * |k_s_i - k_t_j|.  Returns the loss and its gradient
    with respect to the student keypoints, (B, M, 2): sum_j pi_ij * (k_s_i -
    k_t_j) / max(|k_s_i - k_t_j|, 1e-12), so a coincident pair adds nothing.
    """
    B = plans.shape[0]
    if dist.shape != plans.shape or disp.shape != plans.shape + (2,):
        raise InvalidInput(f"distances {dist.shape} and displacements "
                           f"{disp.shape} vs plans {plans.shape}")
    loss = float((plans * dist).sum() / B)
    unit = disp / np.maximum(dist, 1e-12)[..., None]
    return loss, (plans[..., None] * unit).sum(axis=2) / B
