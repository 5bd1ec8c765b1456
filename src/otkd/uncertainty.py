"""Teacher-ensemble aggregation: mean keypoints, per-keypoint uncertainty, and
the teacher marginal's weights for the transport solver.

An ensemble is E keypoint sets over the same N keypoint identities (identity =
output index).  Every member predicts every keypoint; u = tanh(variance /
scale) from the population variance over the members.  `blend_weights` mixes
the confidence 1 - u with existence scores; the student marginal, uniform
1/M, is built in `harness.total_loss`.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def aggregate(members: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, N, 2) member predictions -> (mean (N, 2), u (N,) in [0, 1]).

    The mean is the member sum divided by E; u = tanh(var / scale), where var
    is the population variance over the members summed over x and y.
    """
    m = np.asarray(members, dtype=float)
    if m.ndim != 3 or m.shape[2] != 2 or m.shape[0] == 0:
        raise InvalidInput(f"expected (E, N, 2) member stack, got {m.shape}")
    if not scale > 0:
        raise InvalidInput(f"scale must be > 0, got {scale}")
    E = m.shape[0]
    mean = m.sum(axis=0) / E
    variance = (((m - mean) ** 2).sum(axis=0) / E).sum(axis=1)
    return mean, np.tanh(variance / scale)


def blend_weights(alpha_conf: np.ndarray, alpha_exist: np.ndarray,
                  lam: float) -> np.ndarray:
    """Convex combination lam * confidence + (1 - lam) * existence."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidInput(f"blend factor must be in [0, 1], got {lam}")
    ac = np.asarray(alpha_conf, dtype=float)
    ae = np.asarray(alpha_exist, dtype=float)
    if ac.shape != ae.shape:
        raise InvalidInput(f"weight shapes differ: {ac.shape} vs {ae.shape}")
    for name, arr in (("confidence", ac), ("existence", ae)):
        if (arr < 0).any() or (arr > 1).any():
            raise InvalidInput(f"{name} weights must lie in [0, 1]")
    return lam * ac + (1.0 - lam) * ae
