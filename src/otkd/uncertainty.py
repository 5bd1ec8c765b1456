"""Teacher-ensemble aggregation: mean keypoints, per-keypoint uncertainty, and
the marginal weights consumed by the transport solver.

An ensemble is E keypoint sets over the same N keypoint identities (identity =
output index).  Every member predicts every keypoint; u = tanh(variance /
scale) from the population variance over the members.
"""
from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, EmptyEnsemble, NonpositiveScale,
                     OutOfRange, ZeroCount)


def aggregate(members: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, N, 2) member predictions -> (mean (N, 2), u (N,) in [0, 1]).

    The mean is the member sum divided by E; u = tanh(var / scale), where var
    is the population variance over the members summed over x and y.
    """
    m = np.asarray(members, dtype=float)
    if m.ndim != 3 or m.shape[2] != 2 or m.shape[0] == 0:
        raise EmptyEnsemble(f"expected (E, N, 2) member stack, got {m.shape}")
    if not scale > 0:
        raise NonpositiveScale(f"scale must be > 0, got {scale}")
    E = m.shape[0]
    mean = m.sum(axis=0) / E
    variance = (((m - mean) ** 2).sum(axis=0) / E).sum(axis=1)
    return mean, np.tanh(variance / scale)


def teacher_confidence(u: np.ndarray) -> np.ndarray:
    """Confidence weights: 1 - u, elementwise."""
    uu = np.asarray(u, dtype=float)
    if (uu < 0).any() or (uu > 1).any():
        raise OutOfRange("uncertainty must lie in [0, 1]")
    return 1.0 - uu


def student_uniform_weights(m: int) -> np.ndarray:
    if m < 1:
        raise ZeroCount(f"need at least one student keypoint, got {m}")
    return np.full(m, 1.0 / m)


def blend_weights(alpha_conf: np.ndarray, alpha_exist: np.ndarray,
                  lam: float) -> np.ndarray:
    """Convex combination lam * confidence + (1 - lam) * existence."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"blend factor must be in [0, 1], got {lam}")
    ac = np.asarray(alpha_conf, dtype=float)
    ae = np.asarray(alpha_exist, dtype=float)
    if ac.shape != ae.shape:
        raise DimensionMismatch(f"weight shapes differ: {ac.shape} vs {ae.shape}")
    for name, arr in (("confidence", ac), ("existence", ae)):
        if (arr < 0).any() or (arr > 1).any():
            raise OutOfRange(f"{name} weights must lie in [0, 1]")
    return lam * ac + (1.0 - lam) * ae
