"""Entropic unbalanced optimal transport between weighted keypoint sets.

The solver minimizes

    <pi, C> + eps * KL(pi || a x b) + tau * KL(pi @ 1 || a) + tau * KL(pi^T @ 1 || b)

by log-domain Sinkhorn iteration.  Both marginals are KL-relaxed with the same
strength ``tau``; ``tau = math.inf`` gives the exact balanced limit.  Rows are
the student-side points, columns the teacher side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, EmptySet, NegativeWeight
from .geometry import KeypointSet

# mass below which a marginal entry is treated as exactly zero and its
# row/column excluded from the iteration (the KL penalty forces zero anyway)
_ZERO_MASS = 0.0


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float
    tau: float = 10.0
    max_iters: int = 1000
    tol: float = 1e-6
    anneal: bool = True  # warm-start through larger epsilons before the target

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class TransportPlan:
    entries: np.ndarray        # (M, N), nonnegative
    row_marginal: np.ndarray   # (M,) row sums
    col_marginal: np.ndarray   # (N,) column sums
    converged: bool
    iterations: int
    # final dual potentials; feed back through `warm_start=` to resume
    potential_rows: np.ndarray | None = None
    potential_cols: np.ndarray | None = None

    def transport_cost(self, cost: np.ndarray) -> float:
        return float((self.entries * cost).sum())


def cost_matrix(student: KeypointSet, teacher: KeypointSet,
                squared: bool = False) -> np.ndarray:
    """Pairwise Euclidean distances, rows = student points, columns = teacher."""
    diff = student.points[:, None, :] - teacher.points[None, :, :]
    sq = (diff ** 2).sum(-1)
    return sq if squared else np.sqrt(sq)


def default_config(cost: np.ndarray, **overrides) -> SinkhornConfig:
    """Defaults with the regularization set relative to the cost scale."""
    eps = 0.01 * float(np.mean(cost))
    if eps <= 0:  # all-zero cost: any positive value converges immediately
        eps = 1e-6
    kw = dict(epsilon=eps, tau=10.0, max_iters=1000, tol=1e-6)
    kw.update(overrides)
    return SinkhornConfig(**kw)


def _logsumexp_keep(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m.squeeze(axis) + np.log(np.exp(x - m).sum(axis=axis))


def _check_marginals(cost, alpha_s, alpha_t, ndim: int = 2):
    """Validated float copies of a cost (M, N) and its marginals (M,), (N,);
    with ndim=3, all three carry a leading batch axis of independent
    instances, and each instance is checked on its own."""
    C = np.asarray(cost, dtype=float)
    if C.ndim != ndim or 0 in C.shape:
        raise EmptySet(f"cost must be a non-empty {ndim}D array, got shape {C.shape}")
    if (C < 0).any() or not np.isfinite(C).all():
        raise ValueError("cost entries must be finite and >= 0")
    lead, (M, N) = C.shape[:-2], C.shape[-2:]
    a = np.asarray(alpha_s, dtype=float)
    b = np.asarray(alpha_t, dtype=float)
    if a.size != math.prod(lead) * M or b.size != math.prod(lead) * N:
        raise DimensionMismatch(
            f"marginals of {a.size} and {b.size} entries vs cost {C.shape}")
    a = a.reshape(lead + (M,))
    b = b.reshape(lead + (N,))
    if (a < 0).any() or (b < 0).any():
        raise NegativeWeight("marginal weights must be >= 0")
    if (a.sum(axis=-1) == 0).any() or (b.sum(axis=-1) == 0).any():
        raise NegativeWeight("marginals must not be all zero")
    return C, a, b


def _iterate(C, la, lb, eps, fi, f, g, max_iters, tol):
    """Core damped log-domain loop. Returns (f, g, iterations, converged)."""
    for it in range(1, max_iters + 1):
        f_new = fi * (eps * la - eps * _logsumexp_keep((g[None, :] - C) / eps, 1))
        g_new = fi * (eps * lb - eps * _logsumexp_keep((f_new[:, None] - C) / eps, 0))
        delta = max(np.abs(f_new - f).max(), np.abs(g_new - g).max()) / eps
        f, g = f_new, g_new
        if delta < tol:
            return f, g, it, True
    return f, g, max_iters, False


def sinkhorn_unbalanced(cost: np.ndarray, alpha_s, alpha_t,
                        cfg: SinkhornConfig | None = None,
                        warm_start: TransportPlan | None = None) -> TransportPlan:
    """Solve for the transport plan; zero-weight rows/columns carry zero mass.

    With ``cfg=None`` the defaults are used (epsilon relative to mean cost).
    Iteration stops when the sup-norm change of both potentials, scaled by
    1/epsilon, drops below ``cfg.tol``; hitting ``max_iters`` first is reported
    via ``converged=False`` on the plan, not an exception.
    """
    C, a, b = _check_marginals(cost, alpha_s, alpha_t)
    if cfg is None:
        cfg = default_config(C)

    rows = a > _ZERO_MASS
    cols = b > _ZERO_MASS
    Cs = C[np.ix_(rows, cols)]
    la = np.log(a[rows])
    lb = np.log(b[cols])

    f = np.zeros(int(rows.sum()))
    g = np.zeros(int(cols.sum()))
    if (warm_start is not None and warm_start.potential_rows is not None
            and warm_start.potential_rows.shape == f.shape
            and warm_start.potential_cols.shape == g.shape):
        f = warm_start.potential_rows.copy()
        g = warm_start.potential_cols.copy()

    fi = 1.0 if math.isinf(cfg.tau) else cfg.tau / (cfg.tau + cfg.epsilon)

    total_iters = 0
    if cfg.anneal and Cs.size:
        # geometric schedule from a coarse epsilon down toward the target;
        # each stage only warm-starts the next, so its own cap is soft
        scale = max(float(Cs.mean()), cfg.epsilon)
        e = 0.5 * scale
        while e > cfg.epsilon * 4.0:
            fi_e = 1.0 if math.isinf(cfg.tau) else cfg.tau / (cfg.tau + e)
            f, g, it, _ = _iterate(Cs, la, lb, e, fi_e, f, g, cfg.max_iters, cfg.tol)
            total_iters += it
            e /= 5.0

    f, g, it, converged = _iterate(Cs, la, lb, cfg.epsilon, fi, f, g,
                                   cfg.max_iters, cfg.tol)
    total_iters += it

    P = np.zeros_like(C)
    if Cs.size:
        P[np.ix_(rows, cols)] = np.exp((f[:, None] + g[None, :] - Cs) / cfg.epsilon)
    return TransportPlan(
        entries=P,
        row_marginal=P.sum(axis=1),
        col_marginal=P.sum(axis=0),
        converged=converged,
        iterations=total_iters,
        potential_rows=f,
        potential_cols=g,
    )


def plan_residuals(plan: TransportPlan, alpha_s, alpha_t) -> tuple[float, float]:
    """L1 gaps between realized marginals and their targets."""
    a = np.asarray(alpha_s, dtype=float).reshape(-1)
    b = np.asarray(alpha_t, dtype=float).reshape(-1)
    if plan.entries.shape != (a.shape[0], b.shape[0]):
        raise DimensionMismatch(
            f"plan {plan.entries.shape} vs marginals {a.shape[0]}x{b.shape[0]}")
    return (float(np.abs(plan.entries.sum(axis=1) - a).sum()),
            float(np.abs(plan.entries.sum(axis=0) - b).sum()))


def sinkhorn_unbalanced_batch(costs: np.ndarray, alpha_s: np.ndarray,
                              alpha_t: np.ndarray, epsilon, tau: float,
                              max_iters: int = 1000, tol: float = 1e-6,
                              f0: np.ndarray | None = None,
                              g0: np.ndarray | None = None):
    """Solve a stack of independent instances with one shared iteration loop.

    Same update rule as :func:`sinkhorn_unbalanced` (no annealing; pass warm
    starts instead).  Exists because per-epoch re-solves in the training
    harness are thousands of tiny problems: looping Python-side dominates the
    runtime, one vectorized loop does not.

    costs (B, M, N); alpha_s (B, M); alpha_t (B, N) — zero entries allowed and
    produce exactly-zero rows/columns.  epsilon: scalar or (B,) per-instance.
    Returns (plans (B, M, N), f (B, M), g (B, N), iterations, all_converged).
    """
    C, a, b = _check_marginals(costs, alpha_s, alpha_t, ndim=3)
    B, M, N = C.shape
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float).reshape(-1, 1), (B, 1)).copy()
    if (eps <= 0).any():
        raise ValueError("epsilon must be > 0")
    with np.errstate(divide="ignore"):  # log(0) -> -inf marks empty support
        la = np.log(a)
        lb = np.log(b)
    fi = 1.0 if math.isinf(tau) else tau / (tau + eps)

    f = np.zeros((B, M)) if f0 is None else f0.copy()
    g = np.zeros((B, N)) if g0 is None else g0.copy()
    eps_r = eps[:, :, None]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        f_new = fi * (eps * la - eps * _logsumexp_keep((g[:, None, :] - C) / eps_r, 2))
        g_new = fi * (eps * lb - eps * _logsumexp_keep((f_new[:, :, None] - C) / eps_r, 1))
        # -inf potentials (empty rows/cols) are fixed points; ignore their delta
        with np.errstate(invalid="ignore"):
            df = np.abs(f_new - f)
            dg = np.abs(g_new - g)
        delta = max(df[np.isfinite(df)].max(initial=0.0),
                    dg[np.isfinite(dg)].max(initial=0.0)) / eps.min()
        f, g = f_new, g_new
        if delta < tol:
            converged = True
            break
    P = np.exp((f[:, :, None] + g[:, None, :] - C) / eps_r)
    return P, f, g, it, converged
