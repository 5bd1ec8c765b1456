"""Entropic unbalanced optimal transport between weighted keypoint sets.

The solver minimizes

    <pi, C> + eps * KL(pi || a x b) + tau * KL(pi @ 1 || a) + tau * KL(pi^T @ 1 || b)

by Sinkhorn iteration.  Both marginals are KL-relaxed with the same
strength ``tau``; ``tau = math.inf`` gives the exact balanced limit.  Rows are
the student-side points, columns the teacher side.

The single solver runs the log-domain loop, `_iterate`, and is the
reference: it drops zero-weight rows and columns before iterating.  The
batched one iterates the same updates in the scaling domain (`_iterate_scaled`,
matmuls instead of log-sum-exps), with log-domain absorption, and gives the
log loop's iterates up to float64 rounding.  It runs its updates in chunks
and checks the scalings' range and the stopping rule once per chunk, over
every iterate in it, so it stops on the same iterate as a check after every
update.  It keeps zero-weight rows and columns with -inf potentials from its
cold start on, hence exactly-zero plan entries and the single solver's
iterates on the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .geometry import KeypointSet, pairwise_distance


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float
    tau: float = 10.0
    max_iters: int = 1000
    tol: float = 1e-6
    anneal: bool = True  # warm-start through larger epsilons before the target

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise InvalidInput("epsilon must be finite and > 0")
        if not self.tau > 0:
            raise InvalidInput("tau must be > 0")
        if self.max_iters < 1:
            raise InvalidInput("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise InvalidInput("tol must be finite and > 0")


@dataclass(frozen=True)
class TransportPlan:
    entries: np.ndarray        # (M, N), nonnegative
    converged: bool
    iterations: int

    def transport_cost(self, cost: np.ndarray) -> float:
        return float((self.entries * cost).sum())


def cost_matrix(student: KeypointSet, teacher: KeypointSet) -> np.ndarray:
    """Pairwise Euclidean distances, rows = student points, columns = teacher."""
    return pairwise_distance(student.points, teacher.points)[1]


def default_epsilon(cost: np.ndarray):
    """1% of the mean cost of each (..., M, N) instance, floored above zero."""
    return 0.01 * np.maximum(cost.mean(axis=(-2, -1)), 1e-9)


def default_config(cost: np.ndarray, **overrides) -> SinkhornConfig:
    """`SinkhornConfig`'s defaults with `overrides`; unless one is given,
    epsilon is `default_epsilon(cost)`."""
    if "epsilon" not in overrides:
        with np.errstate(over="ignore"):
            overrides["epsilon"] = float(default_epsilon(cost))
        if overrides["epsilon"] == math.inf:
            raise InvalidInput("the cost's mean overflows float64, so its scale "
                               "sets no default epsilon; give epsilon explicitly")
    return SinkhornConfig(**overrides)


def _logsumexp_keep(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


def _check_marginals(cost, alpha_s, alpha_t, ndim: int = 2):
    """Validated float copies of a cost (M, N) and its marginals (M,), (N,);
    with ndim=3, all three carry a leading batch axis of independent
    instances, and each instance is checked on its own."""
    C = np.asarray(cost, dtype=float)
    if C.ndim != ndim or 0 in C.shape:
        raise InvalidInput(f"cost must be a non-empty {ndim}D array, got shape {C.shape}")
    if (C < 0).any() or not np.isfinite(C).all():
        raise InvalidInput("cost entries must be finite and >= 0")
    lead, (M, N) = C.shape[:-2], C.shape[-2:]
    a = np.asarray(alpha_s, dtype=float)
    b = np.asarray(alpha_t, dtype=float)
    if a.size != math.prod(lead) * M or b.size != math.prod(lead) * N:
        raise InvalidInput(
            f"dimension mismatch: marginals of {a.size} and {b.size} entries "
            f"vs cost {C.shape}")
    a = a.reshape(lead + (M,))
    b = b.reshape(lead + (N,))
    if not (np.isfinite(a).all() and np.isfinite(b).all()
            and (a >= 0).all() and (b >= 0).all()):
        raise InvalidInput("marginal weights must be finite and >= 0")
    if (a.sum(axis=-1) == 0).any() or (b.sum(axis=-1) == 0).any():
        raise InvalidInput("marginals must not be all zero")
    return C, a, b


def _iterate(C, la, lb, eps, tau, f, g, max_iters, tol):
    """Damped log-domain loop over costs (..., M, N), log-marginals and
    potentials shaped (..., M, 1) and (..., 1, N); eps is a float or
    broadcasts as (..., 1, 1).  Returns (f, g, iterations, converged)."""
    fi = 1.0 if math.isinf(tau) else tau / (tau + eps)
    eps_min = np.min(eps)
    # -inf potentials (empty rows/cols) are fixed points; fmax skips their NaN
    with np.errstate(invalid="ignore"):
        for it in range(1, max_iters + 1):
            f_new = fi * (eps * la - eps * _logsumexp_keep((g - C) / eps, -1))
            g_new = fi * (eps * lb - eps * _logsumexp_keep((f_new - C) / eps, -2))
            delta = max(np.fmax.reduce(np.abs(f_new - f), axis=None),
                        np.fmax.reduce(np.abs(g_new - g), axis=None)) / eps_min
            f, g = f_new, g_new
            if delta < tol:
                return f, g, it, True
    return f, g, max_iters, False


# bound on |log u| and |log v| between absorptions; with it, the scaled
# updates keep the log loop's iterates to float64 rounding
_SCALING_RANGE = 50.0
# scaled updates run back to back between two checks of the range and the
# stopping rule; the iterates after the first that fails either are dropped
_CHUNK = 8


def _iterate_scaled(C, la, lb, eps, tau, f, g, max_iters, tol):
    """`_iterate` in the scaling domain (Chizat, Peyre, Schmitzer & Vialard
    2018) with log-domain absorption (Schmitzer 2019), for costs (B, M, N),
    log-marginals and potentials shaped (B, M, 1) and (B, 1, N), and eps
    (B, 1, 1).

    The potentials are f = F + eps log u and g = G + eps log v, where F and G
    are absorbed potentials that stay fixed while the scalings u and v are
    updated by matmuls with the kernel exp((F + G - C) / eps):

        u = (a / K v)^(tau / (tau + eps)) * exp((tau / (tau + eps) - 1) F / eps)

    and v likewise.  An absorption takes its iteration as one `_iterate` step
    and rebuilds the kernel around the result: the first iteration, and every
    one whose log-scalings leave +-_SCALING_RANGE or whose K v underflows.
    The stopping rule is `_iterate`'s: eps |delta log u| is its |delta f|.

    The updates run in chunks of _CHUNK into preallocated buffers, and the
    range and the stopping rule are checked once per chunk, over all of its
    iterates at once.  The loop goes on from the first iterate that leaves
    the range (absorbing the one before it) or converges, and drops the rest
    of the chunk, so the iterates, their count and the flag are those of a
    check after every update.  Zero-weight rows and columns (-inf
    log-marginals) keep -inf potentials and log-scalings of 0.  Returns (f,
    g, iterations, converged)."""
    fi = 1.0 if math.isinf(tau) else tau / (tau + eps)
    B, M, N = C.shape
    scale = (eps / np.min(eps)).reshape(B, 1)
    empty_rows, empty_cols = np.isneginf(la), np.isneginf(lb)
    # an empty row's kernel row is zero; adding 1 to its K v keeps log u at 0
    pad_rows = empty_rows.astype(float) if empty_rows.any() else None
    pad_cols = empty_cols.astype(float) if empty_cols.any() else None
    # S[j] holds each instance's (log u | log v) after j updates of a chunk
    S = np.empty((_CHUNK + 1, B, M + N))
    lu = [S[j, :, :M, None] for j in range(_CHUNK + 1)]
    lv = [S[j, :, None, M:] for j in range(_CHUNK + 1)]
    eu, ev = np.empty((B, M, 1)), np.empty((B, 1, N))
    u, v = eu.transpose(0, 2, 1), ev.transpose(0, 2, 1)
    Kv, uK = np.empty((B, M, 1)), np.empty((B, 1, N))
    it, converged = 0, False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while not converged and it < max_iters:
            f, g, _, converged = _iterate(C, la, lb, eps, tau, f, g, 1, tol)
            it += 1
            K = np.exp((f + g - C) / eps)
            cu = np.where(empty_rows, 0.0, fi * la + (fi - 1) * f / eps)
            cv = np.where(empty_cols, 0.0, fi * lb + (fi - 1) * g / eps)
            S[0], last = 0.0, 0
            while not converged and it < max_iters:
                n = min(_CHUNK, max_iters - it)
                for j in range(1, n + 1):
                    np.exp(lv[j - 1], out=ev)
                    np.matmul(K, v, out=Kv)
                    if pad_rows is not None:
                        Kv += pad_rows
                    np.log(Kv, out=Kv)
                    Kv *= fi
                    np.subtract(cu, Kv, out=lu[j])
                    np.exp(lu[j], out=eu)
                    np.matmul(u, K, out=uK)
                    if pad_cols is not None:
                        uK += pad_cols
                    np.log(uK, out=uK)
                    uK *= fi
                    np.subtract(cv, uK, out=lv[j])
                steps = S[1:n + 1]
                in_range = np.abs(steps).max(axis=(1, 2)) <= _SCALING_RANGE
                change = (np.abs(steps - S[:n]) * scale).max(axis=(1, 2))
                stop = ~in_range | (change < tol)
                if stop.any():
                    j = int(stop.argmax())
                    converged = bool(in_range[j])
                    last = j + converged  # else absorption redoes update j + 1
                    it += last
                    break
                it += n
                S[0] = S[n]
            f, g = f + eps * lu[last], g + eps * lv[last]
    return f, g, it, converged


def sinkhorn_unbalanced(cost: np.ndarray, alpha_s, alpha_t,
                        cfg: SinkhornConfig | None = None) -> TransportPlan:
    """Solve for the transport plan; zero-weight rows/columns carry zero mass.

    With ``cfg=None`` the defaults are used (epsilon relative to mean cost).
    Iteration stops when the sup-norm change of both potentials, scaled by
    1/epsilon, drops below ``cfg.tol``; hitting ``max_iters`` first is reported
    via ``converged=False`` on the plan, not an exception.
    """
    C, a, b = _check_marginals(cost, alpha_s, alpha_t)
    if cfg is None:
        cfg = default_config(C)

    rows, cols = a > 0, b > 0
    Cs = C[np.ix_(rows, cols)]
    la = np.log(a[rows])[:, None]
    lb = np.log(b[cols])[None, :]
    f, g = np.zeros_like(la), np.zeros_like(lb)

    total_iters = 0
    if cfg.anneal:
        # geometric schedule from a coarse epsilon down toward the target;
        # each stage only warm-starts the next, so its own cap is soft; a
        # cost whose mean overflows has no coarse scale and is solved unannealed
        with np.errstate(over="ignore"):
            e = 0.5 * max(float(Cs.mean()), cfg.epsilon)
        while math.isfinite(e) and e > cfg.epsilon * 4.0:
            f, g, it, _ = _iterate(Cs, la, lb, e, cfg.tau, f, g, cfg.max_iters, cfg.tol)
            total_iters += it
            e /= 5.0

    f, g, it, converged = _iterate(Cs, la, lb, cfg.epsilon, cfg.tau, f, g,
                                   cfg.max_iters, cfg.tol)
    total_iters += it

    P = np.zeros_like(C)
    P[np.ix_(rows, cols)] = np.exp((f + g - Cs) / cfg.epsilon)
    return TransportPlan(entries=P, converged=converged, iterations=total_iters)


def plan_residuals(plan: TransportPlan, alpha_s, alpha_t) -> tuple[float, float]:
    """L1 gaps between realized marginals and their targets."""
    a = np.asarray(alpha_s, dtype=float).reshape(-1)
    b = np.asarray(alpha_t, dtype=float).reshape(-1)
    if plan.entries.shape != (a.shape[0], b.shape[0]):
        raise InvalidInput(
            f"plan {plan.entries.shape} vs marginals {a.shape[0]}x{b.shape[0]}")
    return (float(np.abs(plan.entries.sum(axis=1) - a).sum()),
            float(np.abs(plan.entries.sum(axis=0) - b).sum()))


def sinkhorn_unbalanced_batch(costs: np.ndarray, alpha_s: np.ndarray,
                              alpha_t: np.ndarray, epsilon, tau: float,
                              max_iters: int, tol: float,
                              f0: np.ndarray | None, g0: np.ndarray | None):
    """Solve a stack of independent instances in one vectorized loop.

    The iterates of :func:`sinkhorn_unbalanced`'s log-domain loop, up to
    float64 rounding, computed in the scaling domain with log-domain
    absorption (`_iterate_scaled`); without annealing (pass warm starts
    instead) and with one ``tol`` check across the stack, made for a chunk
    of updates at a time and exact to the iterate.  Exists because per-epoch
    re-solves in the training harness are thousands of tiny problems:
    looping Python-side dominates the runtime, one vectorized loop does not.

    costs (B, M, N); alpha_s (B, M); alpha_t (B, N) — zero entries allowed and
    produce exactly-zero rows/columns.  epsilon: scalar or (B,) per-instance;
    epsilon, tau, max_iters and tol must pass `SinkhornConfig`'s checks.
    f0 (B, M) and g0 (B, N) are warm-start potentials; None starts cold.
    Returns (plans (B, M, N), f (B, M), g (B, N), iterations, all_converged).
    """
    C, a, b = _check_marginals(costs, alpha_s, alpha_t, ndim=3)
    B, M, N = C.shape
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float).reshape(-1, 1, 1), (B, 1, 1))
    if not (np.isfinite(eps) & (eps > 0)).all():
        raise InvalidInput("epsilon must be finite and > 0 in every instance")
    SinkhornConfig(float(eps.min()), tau, max_iters, tol)  # raises on bad parameters
    with np.errstate(divide="ignore"):  # log(0) -> -inf marks empty support
        la = np.log(a)[:, :, None]
        lb = np.log(b)[:, None, :]
    # a cold start puts empty support at -inf at once, as if it were dropped
    f = np.where(a > 0, 0.0, -np.inf)[:, :, None] if f0 is None else f0.reshape(B, M, 1)
    g = np.where(b > 0, 0.0, -np.inf)[:, None, :] if g0 is None else g0.reshape(B, 1, N)
    f, g, it, converged = _iterate_scaled(C, la, lb, eps, tau, f, g, max_iters, tol)
    P = np.exp((f + g - C) / eps)
    return P, f[:, :, 0], g[:, 0, :], it, converged
