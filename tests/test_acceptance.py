"""End-to-end acceptance gate.

Every test prints one ``PASS criterion-N: ...`` (or ``FAIL``) line with the
measured quantities next to their thresholds; run with ``pytest -s`` to see
the lines on a green run.  Thresholds are asserted, so a red criterion fails
the suite.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import EXPERIMENT_SEEDS, strip_wall_ms
from otkd.geometry import (CameraIntrinsics, Model3D, Pose, add_metric,
                           add_s_metric, pairwise_distance, pose_errors,
                           project, rotation_from_axis_angle)
from otkd.harness import CONDITIONS, CSV_HEADER, TrainingConfig, total_loss
from otkd.pfkd import (ConvLayerSpec, init_projection, receptive_field_extent,
                       region_loss)
from otkd.pnp import Correspondences, pnp_solve
from otkd.sinkhorn import (SinkhornConfig, plan_residuals,
                           sinkhorn_unbalanced)
from otkd.uakd import transport_loss
from otkd.uncertainty import blend_weights
from test_harness import _student_and_batch, _synthetic_targets, record_solves
from test_pfkd import simulated_extent
from test_sinkhorn import lp_transport_cost


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_sinkhorn_matches_lp():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_gap = worst_res = 0.0
    for _ in range(50):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        cost = rng.uniform(0.0, 2.0, (m, n))
        cost /= cost.mean()
        a = rng.uniform(0.2, 1.0, m)
        a /= a.sum()
        b = rng.uniform(0.2, 1.0, n)
        b /= b.sum()
        cfg = SinkhornConfig(epsilon=2e-3, tau=math.inf, max_iters=20000)
        plan = sinkhorn_unbalanced(cost, a, b, cfg)
        gap = abs(plan.transport_cost(cost) - lp_transport_cost(cost, a, b))
        row_res, col_res = plan_residuals(plan, a, b)
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, row_res, col_res)
    wall = time.perf_counter() - start
    _check("criterion-1",
           worst_gap < 1e-3 and worst_res < 1e-4 and wall < 5.0,
           f"50 balanced instances up to 5x7: worst LP gap {worst_gap:.2e} "
           f"(<1e-3), worst marginal residual {worst_res:.2e} (<1e-4), "
           f"{wall:.2f}s (<5s)")


def test_criterion_2_zero_weight_column_sheds_mass():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        cost = rng.uniform(0.1, 2.0, (m, n))
        a = rng.uniform(0.2, 1.0, m)
        b = rng.uniform(0.2, 1.0, n)
        j = int(rng.integers(n))
        b[j] = 0.0
        # KL-damped updates crawl at tau/epsilon = 1e5, but the zero-weight
        # column is pinned from the first iteration; the criterion bounds the
        # column mass, not the residuals, so a modest cap suffices.
        cfg = SinkhornConfig(epsilon=0.01, tau=1e3, max_iters=2000)
        plan = sinkhorn_unbalanced(cost, a, b, cfg)
        worst = max(worst, float(plan.entries[:, j].sum()))
    _check("criterion-2", worst < 1e-3,
           f"zero-weight column keeps at most {worst:.2e} mass (<1e-3) "
           f"in 20 instances at tau=1e3")


def test_criterion_3_receptive_field_oracle():
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(20):
        head = [ConvLayerSpec(int(rng.choice([1, 3, 5])),
                              int(rng.integers(1, 3)))
                for _ in range(int(rng.integers(1, 5)))]
        if receptive_field_extent(head) != simulated_extent(head):
            mismatches += 1
    wall = time.perf_counter() - start
    _check("criterion-3", mismatches == 0 and wall < 10.0,
           f"20 random conv stacks (depth<=4, k in {{1,3,5}}, s in {{1,2}}): "
           f"{mismatches} impulse-oracle mismatches, {wall:.2f}s (<10s)")


def _transport_loss_fd_error(rng) -> float:
    s = rng.uniform(0.0, 10.0, (5, 2))
    t = rng.uniform(0.0, 10.0, (6, 2))
    a = np.full(5, 0.2)
    b = rng.uniform(0.2, 1.0, 6)
    b /= b.sum()
    disp, dist = pairwise_distance(s[None], t[None])
    P = sinkhorn_unbalanced(dist[0], a, b).entries
    _, grad = transport_loss(P[None], disp, dist)

    def loss_at(pts):
        d = np.sqrt(((pts[:, None, :] - t[None, :, :]) ** 2).sum(-1))
        return float((P * d).sum())

    h = 1e-6
    fd = np.zeros_like(s)
    for i in range(5):
        for c in range(2):
            up, down = s.copy(), s.copy()
            up[i, c] += h
            down[i, c] -= h
            fd[i, c] = (loss_at(up) - loss_at(down)) / (2 * h)
    return float(np.linalg.norm(fd - grad[0]) / np.linalg.norm(fd))


def _region_loss_fd_error(rng) -> float:
    teachers = np.stack([rng.normal(size=(2, 3, 3)) for _ in range(4)])[None]
    students = np.stack([rng.normal(size=(2, 3, 3)) for _ in range(3)])[None]
    plan = rng.uniform(0.0, 1.0, (3, 4))[None]
    _, grad, _ = region_loss(teachers, students, plan)

    h = 1e-4
    fd = np.zeros_like(grad)
    flat = students.ravel()  # a view: the loop perturbs `students` in place
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = region_loss(teachers, students, plan)[0]
        flat[i] = orig - h
        down = region_loss(teachers, students, plan)[0]
        flat[i] = orig
        fd.ravel()[i] = (up - down) / (2 * h)
    return float(np.linalg.norm(fd - grad) / np.linalg.norm(fd))


def test_criterion_4_gradient_fidelity(monkeypatch):
    rng = np.random.default_rng(44)
    worst_pred = max(_transport_loss_fd_error(rng) for _ in range(10))
    worst_feat = max(_region_loss_fd_error(rng) for _ in range(10))

    cfg = dataclasses.replace(TrainingConfig(), student_channels=3,
                              teacher_channels=6, num_keypoints=4,
                              gamma_p=5.0, gamma_f=2.0)
    student, x, labels = _student_and_batch(cfg, scenes=2)
    targets = _synthetic_targets(cfg, student, x, np.random.default_rng(6))
    projection = init_projection(cfg.student_channels, cfg.teacher_channels)
    record_solves(monkeypatch, freeze=True)  # differences on the first plans
    total_loss(student, x, labels, targets, cfg, projection=projection)
    analytic = np.concatenate([g.ravel() for g in student.gradients()])

    h = 1e-2        # forward pass is float32; see the gradient-check note
    fd_parts = []
    for p in student.parameters():
        flat = p.ravel()
        g = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = total_loss(student, x, labels, targets, cfg,
                            projection=projection).loss
            flat[i] = orig - h
            down = total_loss(student, x, labels, targets, cfg,
                              projection=projection).loss
            flat[i] = orig
            g[i] = (up - down) / (2 * h)
        fd_parts.append(g)
    fd = np.concatenate(fd_parts)
    total_rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(fd))

    _check("criterion-4",
           worst_pred < 1e-4 and worst_feat < 1e-5 and total_rel < 1e-3,
           f"gradient vs central differences, relative L2: transport_loss "
           f"worst {worst_pred:.2e} (<1e-4), region_loss worst {worst_feat:.2e} "
           f"(<1e-5) over 10 instances each; total_loss full-parameter "
           f"{total_rel:.2e} (<1e-3)")


def test_criterion_5_pnp_round_trip():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    worst_er = worst_et = worst_rms = 0.0
    for _ in range(100):
        npts = int(rng.integers(6, 13))
        pts3d = rng.uniform(-0.1, 0.1, (npts, 3))
        while np.linalg.svd(pts3d - pts3d.mean(0),
                            compute_uv=False)[-1] < 5e-3:
            pts3d = rng.uniform(-0.1, 0.1, (npts, 3))
        pose = Pose(rotation_from_axis_angle(rng.normal(size=3)),
                    np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                              rng.uniform(0.4, 1.2)]))
        cam = CameraIntrinsics(fx=rng.uniform(150.0, 400.0),
                               fy=rng.uniform(150.0, 400.0),
                               cx=rng.uniform(24.0, 40.0),
                               cy=rng.uniform(24.0, 40.0))
        pts2d = project(Model3D(pts3d), pose, cam)
        res = pnp_solve(Correspondences(points2d=pts2d, points3d=pts3d,
                                        cam=cam))
        e_t, e_r, _ = pose_errors(res.pose, pose)
        worst_er = max(worst_er, e_r)
        worst_et = max(worst_et, e_t)
        worst_rms = max(worst_rms, res.reprojection_rms)
    wall = time.perf_counter() - start
    _check("criterion-5",
           worst_er < 1e-6 and worst_et < 1e-9 and worst_rms < 1e-8
           and wall < 10.0,
           f"100 noiseless round trips: worst E_R {worst_er:.2e} deg (<1e-6), "
           f"worst E_T {worst_et:.2e} m (<1e-9), worst reprojection RMS "
           f"{worst_rms:.2e} px (<1e-8), {wall:.2f}s (<10s)")


def test_criterion_6_metric_sanity():
    rng = np.random.default_rng(66)
    exact_zero = True
    symmetric_bounded = True
    for _ in range(100):
        model = Model3D(rng.uniform(-0.1, 0.1, (8, 3)))
        pred = Pose(rotation_from_axis_angle(rng.normal(size=3)),
                    rng.uniform(-0.2, 0.2, 3))
        gt = Pose(rotation_from_axis_angle(rng.normal(size=3)),
                  rng.uniform(-0.2, 0.2, 3))
        exact_zero &= add_metric(model, pred, pred) == 0.0
        symmetric_bounded &= (add_s_metric(model, pred, gt)
                              <= add_metric(model, pred, gt))

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    quarter = Pose(rotation_from_axis_angle(axis * (math.pi / 2)),
                   np.array([0.0, 0.0, 1.0]))
    straight = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    _, e_r, _ = pose_errors(quarter, straight)
    _check("criterion-6",
           exact_zero and symmetric_bounded and abs(e_r - 90.0) <= 1e-9,
           f"ADD(pred=gt)=0 exactly, ADD-S<=ADD on 100 random pairs, "
           f"E_R(90deg)={e_r!r} within 1e-9")


@pytest.mark.slow
def test_criterion_7_directional_orderings(corrupted_experiment):
    reports, wall = corrupted_experiment
    means = {r.condition: float(np.mean([row.kpt_err_px for row in r.rows]))
             for r in reports}
    ordered = (means["UAKD"] < means["uniformOT"]
               and means["UAKD+PFKD"] <= means["UAKD"]
               and all(means[c] < means["noKD"]
                       for c in CONDITIONS if c != "noKD"))
    _check("criterion-7", ordered and wall < 300.0,
           f"seed-averaged keypoint error over {len(EXPERIMENT_SEEDS)} seeds: "
           + ", ".join(f"{c}={means[c]:.4f}" for c in CONDITIONS)
           + f"; {wall:.0f}s (<300s)")


@pytest.mark.slow
def test_criterion_8_uncertainty_marks_corruption(corrupted_experiment):
    reports, _ = corrupted_experiment
    rep = next(r for r in reports if r.condition == "UAKD")
    separation = rep.corruption_separation()
    ok = (len(separation) == len(EXPERIMENT_SEEDS)
          and all(separation.values()))
    _check("criterion-8", ok,
           f"corrupted keypoints' u above the clean median in "
           f"{sum(separation.values())}/{len(separation)} seeds")


def test_criterion_9_blend_endpoints():
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(20):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        conf = rng.uniform(0.0, 1.0, shape)
        exist = rng.integers(0, 2, shape).astype(float)
        exact &= blend_weights(conf, exist, 0.0).tobytes() == exist.tobytes()
        exact &= blend_weights(conf, exist, 1.0).tobytes() == conf.tobytes()
    default_lam = TrainingConfig().lam
    _check("criterion-9", exact and default_lam == 0.5,
           f"lam=0 reproduces existence and lam=1 reproduces confidence "
           f"bit-exactly on 20 instances; shipped default lam={default_lam}")


@pytest.mark.slow
def test_criterion_10_rerun_determinism(default_runs):
    first, rerun = default_runs
    a = strip_wall_ms((first / "report.csv").read_text())
    b = strip_wall_ms((rerun / "report.csv").read_text())
    _check("criterion-10", a == b and len(a) == 16 and a[0] in CSV_HEADER,
           f"two identical default-config runs (3 seeds): {len(a) - 1} CSV "
           f"rows byte-identical after dropping the wall_ms column")
