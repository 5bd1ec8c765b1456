"""The benchmark's workloads.

Each workload has a set-up, repeated and timed, and a stream of operations
numbered from 0.  An operation returns an `Outcome`: the value a rerun must
reproduce exactly, the correctness checks it failed, and details printed
beside the result.  A set-up that trains teachers is an operation too and
returns its `Outcome`; one that only generates inputs returns None.

The workload seed sets the solve instances and, through `TrainingConfig.seed`
of the rows, the 32 evaluation scenes.  The program only receives what they
generate.  Training inputs stay criterion-7's: its teacher ensemble (config
seed 0) and its students 0, 1, 2, ...  Other teacher seeds can miss the
held-out threshold (config seed 24 trains a member at 11.66 px against 5 px),
which leaves no rows to run.  The student seed moves a distill row's Sinkhorn
iterations from 37,718 to 47,613; drawn from the workload seed, it spread
the median row time by 0.27 of its median over seeds 31 to 39.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from otkd import harness, sinkhorn
from otkd.geometry import KeypointSet

# Solve instances: a fixed geometric ladder of shapes from 8 x 8 to 256 x 200,
# the same for every seed, so that the seed moves content but not sizes.
POOL = 200
MAX_ROWS, MAX_COLS, MIN_SIDE = 256, 200, 8
ZERO_COLUMN_SHARE = 0.1
# Unbalanced first-order conditions, in units of epsilon.  Default solves on
# this code reach about 3e-5; a different solver of the same objective must
# still land well inside this.
OPTIMALITY_TOL = 1e-3
# Plan entries below this are too close to underflow for their log to be
# compared.
TINY = 1e-250


# Criterion-7's corrupted-teacher configuration (EXPERIMENT_CFG in
# tests/conftest.py).
EXPERIMENT_CFG = harness.TrainingConfig(gamma_f=1.0, uncertainty_scale=20.0,
                                        corrupt_noise_px=20.0,
                                        corrupt_keypoints=(0, 1, 2))


@dataclass
class Outcome:
    value: object                                # compared across reruns
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _row_outcome(report: harness.ExperimentReport) -> Outcome:
    row = report.rows[0]
    fields = {k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ms"}
    problems = [f"{report.condition} seed {row.seed}: {k} is {v!r}"
                for k, v in fields.items()
                if isinstance(v, float) and not math.isfinite(v)]
    return Outcome(value=tuple(repr(v) for v in fields.values()),
                   problems=problems, info=dict(fields, wall_ms=row.wall_ms))


def _teacher_outcome(teachers) -> Outcome:
    errors = [float(t.held_out_error_px) for t in teachers]
    limit = EXPERIMENT_CFG.teacher_error_threshold_px
    return Outcome(value=tuple(map(repr, errors)),
                   problems=[f"teacher {i}: held-out error {e!r} px is not "
                             f"under {limit} px"
                             for i, e in enumerate(errors) if not e < limit],
                   info={"teacher_err_px": errors})


class _TeacherRows:
    """Trains the teacher ensemble in set-up; each operation is a report row."""

    setup_reps = 2      # each set-up trains a four-member ensemble

    def __init__(self, seed: int):
        self.cfg = dataclasses.replace(EXPERIMENT_CFG, seed=seed)
        self.teachers = None

    def setup(self) -> Outcome:
        self.teachers = harness.make_teacher_ensemble(EXPERIMENT_CFG)
        return _teacher_outcome(self.teachers)


class Distill(_TeacherRows):
    """Corrupted-teacher rows, alternating UAKD and UAKD+PFKD per student."""

    op_multiple = 4     # a run measures two student seeds at a time
    trace_ops = 2       # one student seed under both conditions

    def op(self, index: int) -> Outcome:
        condition = ("UAKD", "UAKD+PFKD")[index % 2]
        report = harness.run_experiment(
            condition, self.cfg, corrupt_teacher=True, seeds=[index // 2],
            teachers=self.teachers)
        out = _row_outcome(report)
        separation = report.corruption_separation()
        if len(separation) != 1 or not all(separation.values()):
            out.problems.append(
                f"{condition}: corrupted keypoints' mean uncertainty does not "
                f"exceed the clean median ({separation})")
        return out


class Supervised(_TeacherRows):
    """noKD rows: no transport at all.  The ensemble is trained first, as
    `otkd experiment` does before its rows."""

    op_multiple = 8     # rows are short; a run measures eight at a time
    trace_ops = 2

    def op(self, index: int) -> Outcome:
        report = harness.run_experiment(
            "noKD", self.cfg, seeds=[index], teachers=self.teachers)
        return _row_outcome(report)


def _ladder(count: int, hi: int) -> np.ndarray:
    steps = np.linspace(0.0, 1.0, count)
    return np.round(MIN_SIDE * (hi / MIN_SIDE) ** steps).astype(int)


def make_instances(rng: np.random.Generator, count: int) -> list[tuple]:
    """(cost, a, b) triples of pixel-space point sets in shuffled order; about
    one column in ten carries zero weight."""
    out = []
    order = rng.permutation(count)
    for m, n in zip(_ladder(count, MAX_ROWS)[order], _ladder(count, MAX_COLS)[order]):
        student = KeypointSet(rng.uniform(0.0, 64.0, (m, 2)))
        teacher = KeypointSet(rng.uniform(0.0, 64.0, (n, 2)))
        a = rng.uniform(0.5, 1.5, m)
        b = rng.uniform(0.5, 1.5, n)
        zero = rng.random(n) < ZERO_COLUMN_SHARE
        zero[rng.integers(n)] = False
        b[zero] = 0.0
        out.append((sinkhorn.cost_matrix(student, teacher), a / a.sum(), b / b.sum()))
    return out


def plan_problems(plan, cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[str]:
    """Checks a plan for optimality rather than for bits.

    On the support the plan has the Gibbs form exp((f_i + g_j - C_ij) / eps),
    and the unbalanced first-order conditions are f = -tau log(rowsum / a) and
    g = -tau log(colsum / b).  Substituting both gives a residual in units of
    eps that involves the plan alone.
    """
    P = plan.entries
    if not plan.converged:
        return [f"not converged after {plan.iterations} iterations"]
    if not np.isfinite(P).all() or (P < 0).any():
        return ["plan has negative or non-finite entries"]
    if P[:, b == 0].any() or P[a == 0].any():
        return ["zero-weight rows or columns carry mass"]
    cfg = sinkhorn.default_config(cost)
    eps, tau = cfg.epsilon, cfg.tau
    live = P >= TINY
    rows = P.sum(axis=1)
    cols = P.sum(axis=0)
    # zero-weight rows and columns give -inf or nan terms; none is live
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = (eps * np.log(np.where(live, P, 1.0)) + cost
                 + tau * np.log(rows / a)[:, None]
                 + tau * np.log(cols / b)[None, :]) / eps
    worst = float(np.abs(resid[live]).max(initial=0.0))
    if not worst <= OPTIMALITY_TOL:
        return [f"first-order conditions off by {worst:.3g} eps "
                f"(tolerance {OPTIMALITY_TOL})"]
    return []


class Solve:
    """Single annealed solves with the default config, as `otkd sinkhorn`."""

    setup_reps = 5
    op_multiple = POOL  # a run measures whole passes over the instances
    trace_ops = POOL

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = []

    def setup(self) -> None:
        self.instances = make_instances(np.random.default_rng(self.seed), POOL)

    def op(self, index: int) -> Outcome:
        cost, a, b = self.instances[index % POOL]
        plan = sinkhorn.sinkhorn_unbalanced(cost, a, b)
        return Outcome(value=plan.entries.tobytes(),
                       problems=plan_problems(plan, cost, a, b),
                       info={"shape": list(cost.shape),
                             "iterations": plan.iterations})


WORKLOADS = {"distill": Distill, "supervised": Supervised, "solve": Solve}
