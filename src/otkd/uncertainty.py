"""Teacher-ensemble aggregation: mean keypoints, per-keypoint uncertainty, and
the marginal weights consumed by the transport solver.

An ensemble is E keypoint sets over the same N keypoint identities (identity =
output index).  Keypoints predicted by at most half the members are kept but
their uncertainty is pinned to 1; the rest get u = tanh(variance / scale) from
the population variance of contributing members.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEnsemble,
    NoContributors,
    NonpositiveScale,
    OutOfRange,
    ZeroCount,
)


@dataclass(frozen=True)
class EnsemblePrediction:
    """Stacked member predictions plus aggregation results.

    members: (E, N, 2) predicted coordinates (garbage allowed where absent)
    present: (E, N) bool, which member contributed which keypoint
    forced:  (N,) bool, keypoints that failed the majority vote
    mean:    (N, 2) population mean over contributing members
    variance:(N,) sigma_x^2 + sigma_y^2 over contributing members
    uncertainty: (N,) in [0, 1]
    """

    members: np.ndarray
    present: np.ndarray
    forced: np.ndarray
    mean: np.ndarray | None = None
    variance: np.ndarray | None = None
    uncertainty: np.ndarray | None = None


def majority_vote_align(members: np.ndarray,
                        present: np.ndarray | None = None) -> EnsemblePrediction:
    """Builds the presence mask and flags keypoints without a strict majority.

    members: (E, N, 2); present: optional (E, N) bool (default: all present).
    A keypoint needs > E/2 contributing members; ties at exactly E/2 fail.
    """
    m = np.asarray(members, dtype=float)
    if m.ndim != 3 or m.shape[2] != 2 or m.shape[0] == 0:
        raise EmptyEnsemble(f"expected (E, N, 2) member stack, got {m.shape}")
    E, N = m.shape[:2]
    p = np.ones((E, N), dtype=bool) if present is None else np.asarray(present, dtype=bool)
    if p.shape != (E, N):
        raise DimensionMismatch(f"present mask {p.shape} vs members {(E, N)}")
    counts = p.sum(axis=0)
    forced = counts <= E / 2.0
    return EnsemblePrediction(members=m, present=p, forced=forced)


def ensemble_statistics(pred: EnsemblePrediction) -> EnsemblePrediction:
    """Population mean/variance per keypoint over contributing members."""
    counts = pred.present.sum(axis=0)
    if (counts == 0).any():
        raise NoContributors(
            f"keypoints {np.flatnonzero(counts == 0).tolist()} have no contributors")
    w = pred.present[:, :, None].astype(float)
    mean = (pred.members * w).sum(axis=0) / counts[:, None]
    var_xy = (((pred.members - mean) ** 2) * w).sum(axis=0) / counts[:, None]
    variance = var_xy.sum(axis=1)
    return EnsemblePrediction(pred.members, pred.present, pred.forced,
                              mean=mean, variance=variance)


def variance_to_uncertainty(variance: np.ndarray, scale: float = 1.0,
                            forced: np.ndarray | None = None) -> np.ndarray:
    """u = tanh(variance / scale); majority-vote failures stay exactly 1."""
    if not scale > 0:
        raise NonpositiveScale(f"scale must be > 0, got {scale}")
    v = np.asarray(variance, dtype=float)
    if (v < 0).any():
        raise OutOfRange("variance must be >= 0")
    u = np.tanh(v / scale)
    if forced is not None:
        u = np.where(np.asarray(forced, dtype=bool), 1.0, u)
    return u


def aggregate(members: np.ndarray, present: np.ndarray | None = None,
              scale: float = 1.0) -> EnsemblePrediction:
    """Full pipeline: vote, statistics, uncertainty."""
    pred = ensemble_statistics(majority_vote_align(members, present))
    u = variance_to_uncertainty(pred.variance, scale, pred.forced)
    return EnsemblePrediction(pred.members, pred.present, pred.forced,
                              pred.mean, pred.variance, u)


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
