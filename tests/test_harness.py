"""Synthetic-scene harness: scene generation, config validation, the combined
objective, and the five-condition experiment loop."""
import dataclasses
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from otkd import harness
from otkd.errors import DegenerateGeometry, InvalidInput, TrainingDiverged
from otkd.geometry import Pose, project
from otkd.harness import (CONDITIONS, CSV_HEADER, GRID, NUM_CORNERS,
                          DistillTargets, ExperimentReport, ReportRow,
                          TrainingConfig, _condition_config, _region_centers,
                          _spec, _train, _train_one_seed, box_model,
                          default_camera, evaluate_student, make_scenes,
                          make_teacher_ensemble, prepare_targets,
                          run_experiment, total_loss,
                          write_report_csv, write_report_json)
from otkd.pfkd import (extract_regions, init_projection,
                       receptive_field_extent, scatter_region_grads)
from otkd.pnp import PnpResult
from otkd.regressor import ToyRegressor, im2col
from otkd.sinkhorn import sinkhorn_unbalanced_batch
from test_pfkd import loop_pfkd_loss, padded_window
from test_sinkhorn import log_domain_batch

# small enough that the module's ensemble builds in a couple of seconds
TINY = TrainingConfig(ensemble_size=2, teacher_epochs=30, teacher_scenes=8,
                      train_scenes=6, eval_scenes=8, epochs=40,
                      teacher_error_threshold_px=64.0)


@pytest.fixture(scope="module")
def tiny_teachers():
    return make_teacher_ensemble(TINY)


# --------------------------------------------------------------------------
# scenes


class TestScenes:
    def test_shapes_and_projection_invariant(self):
        scenes = make_scenes(3, np.random.default_rng(3))
        assert scenes.cols.dtype == np.float32
        assert scenes.cols.shape[0] == 3
        assert scenes.keypoints.shape == (3, NUM_CORNERS, 2)
        assert len(scenes.poses) == 3
        for kps, pose in zip(scenes.keypoints, scenes.poses):
            reproj = project(box_model(), pose, default_camera()).points
            np.testing.assert_allclose(reproj, kps, atol=1e-9)

    def test_determinism(self):
        a = make_scenes(2, np.random.default_rng(11))
        b = make_scenes(2, np.random.default_rng(11))
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.keypoints, b.keypoints)
        c = make_scenes(2, np.random.default_rng(12))
        assert not np.array_equal(a.keypoints, c.keypoints)

    def test_keypoints_stay_near_frame(self):
        kps = make_scenes(20, np.random.default_rng(0)).keypoints
        # corners may exit the 64px frame by a few pixels at extreme tilts,
        # but never by more than one feature cell
        assert kps.min() > -16.0
        assert kps.max() < 80.0
        inside = (kps >= 0.0) & (kps <= 64.0)
        assert inside.mean() > 0.9


# --------------------------------------------------------------------------
# configuration


class TestConfig:
    def test_shipped_defaults(self):
        cfg = TrainingConfig()
        assert cfg.gamma_p == 5.0
        assert cfg.gamma_f == 0.1
        assert cfg.lam == 0.5
        assert cfg.ensemble_size == 4

    @pytest.mark.parametrize("field,value", [
        ("gamma_kpt", -0.5), ("gamma_p", -2.0),
        ("gamma_f", -0.1), ("label_noise_px", -1.0), ("corrupt_noise_px", -1.0),
        ("lam", -0.01), ("lam", 1.01),
        ("ensemble_size", 0), ("learning_rate", 0.0), ("epochs", 0),
        ("teacher_epochs", 0), ("train_scenes", 0), ("eval_scenes", 0),
        ("student_channels", 0), ("teacher_channels", 0),
        ("num_keypoints", 0), ("num_keypoints", 9),
        ("tau", 0.0), ("tau", -1.0), ("uncertainty_scale", 0.0),
        ("softmax_beta", 0.0), ("teacher_error_threshold_px", 0.0),
        ("corrupt_member", 4), ("corrupt_keypoints", (8,)),
        ("corrupt_keypoints", (-1,)), ("corrupt_keypoints", (0, 0)),
        ("gamma_kpt", np.inf), ("gamma_p", np.nan), ("gamma_f", np.inf),
        ("lam", np.nan), ("learning_rate", np.inf),
        ("learning_rate", np.nan), ("label_noise_px", np.nan),
        ("corrupt_noise_px", np.inf), ("uncertainty_scale", np.inf),
        ("softmax_beta", np.inf), ("teacher_error_threshold_px", np.inf),
        ("tau", np.nan), ("tau", -np.inf), ("seed", -1),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            TrainingConfig(**{field: value})

    def test_infinite_tau_is_the_balanced_limit(self):
        assert TrainingConfig(tau=float("inf")).tau == np.inf

    def test_summary_lists_corrupt_keypoints(self, tmp_path):
        cfg = TrainingConfig(corrupt_keypoints=(2, 5))
        write_report_json([], cfg, [0], tmp_path / "summary.json")
        written = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert written["corrupt_keypoints"] == [2, 5]
        assert written == json.loads(json.dumps(dataclasses.asdict(cfg)))


class TestConditionConfig:
    # (gamma_p, gamma_f, lam) of each condition, from gamma_f=2.0, lam=0.5
    OVERRIDDEN = {"noKD": (0.0, 0.0, 0.5), "uniformOT": (5.0, 0.0, 0.0),
                  "UAKD": (5.0, 0.0, 0.5), "PFKD": (0.0, 2.0, 0.5),
                  "UAKD+PFKD": (5.0, 2.0, 0.5)}

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_overrides(self, condition):
        cfg = TrainingConfig(gamma_f=2.0)
        eff = _condition_config(condition, cfg)
        assert (eff.gamma_p, eff.gamma_f, eff.lam) == self.OVERRIDDEN[condition]
        # nothing outside the three transfer knobs moves
        keep = {"gamma_p": cfg.gamma_p, "gamma_f": cfg.gamma_f, "lam": cfg.lam}
        assert dataclasses.replace(eff, **keep) == cfg

    def test_uniform_ot_weights_are_exactly_one(self, tiny_teachers):
        cfg = dataclasses.replace(TINY, corrupt_noise_px=40.0)
        x = make_scenes(3, np.random.default_rng(4)).cols

        def weights(condition):
            eff = _condition_config(condition, cfg)
            return prepare_targets(tiny_teachers, x, eff,
                                   np.random.default_rng(0)).col_weights

        assert (weights("uniformOT") == 1.0).all()
        assert (weights("UAKD") < 1.0).any()

    def test_unknown_condition(self):
        with pytest.raises(InvalidInput, match="condition"):
            _condition_config("ADLP", TrainingConfig())


# --------------------------------------------------------------------------
# region centers, and the library's region extraction as the harness calls it


class TestRegionHelpers:
    def test_centers_clip_into_grid(self):
        kps = np.array([[[-50.0, -50.0], [500.0, 500.0]]])
        centers = _region_centers(kps)
        assert centers.tolist() == [[[0, 0], [GRID - 1, GRID - 1]]]

    @pytest.mark.parametrize("extent", [1, 3, 4])
    def test_extract_matches_single_region(self, extent):
        rng = np.random.default_rng(extent)
        fmaps = rng.normal(size=(2, GRID, GRID, 3))
        # interior plus all four borders
        centers = np.array([[[0, 0], [0, 7], [5, GRID - 1], [8, 8]],
                            [[GRID - 1, GRID - 1], [3, 0], [GRID - 1, 2], [9, 4]]])
        regions, _ = extract_regions(fmaps, centers, extent)
        for b in range(2):
            for k in range(4):
                np.testing.assert_array_equal(
                    regions[b, k], padded_window(fmaps[b], centers[b, k], extent))

    def test_scatter_is_the_adjoint_of_extract(self):
        rng = np.random.default_rng(5)
        fmaps = rng.normal(size=(2, GRID, GRID, 3))
        centers = np.array([[[0, 1], [10, 15]], [[GRID - 1, 0], [7, 7]]])
        regions, idx = extract_regions(fmaps, centers, 4)
        d = rng.normal(size=regions.shape)
        scattered = np.zeros_like(fmaps)
        scatter_region_grads(scattered, d, idx)
        lhs = float((regions * d).sum())
        rhs = float((fmaps * scattered).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


# --------------------------------------------------------------------------
# teachers


class TestTeachers:
    def test_held_out_error_recorded_below_threshold(self, tiny_teachers):
        for net in tiny_teachers:
            assert 0.0 < net.held_out_error_px < TINY.teacher_error_threshold_px

    def test_nan_held_out_error_rejected(self, monkeypatch):
        # a member whose forward gives NaN has a NaN held-out error, which
        # no comparison with the threshold can accept
        def nan_member(net, *args):
            net.forward = lambda x: (np.full((len(x), NUM_CORNERS, 2), np.nan),
                                     None)
        monkeypatch.setattr(harness, "_train", nan_member)
        with pytest.raises(TrainingDiverged, match="held-out error nanpx"):
            make_teacher_ensemble(TINY)

    def test_same_seeds_identical_members(self):
        a = make_teacher_ensemble(TINY)
        b = make_teacher_ensemble(TINY)
        for na, nb in zip(a, b):
            for pa, pb in zip(na.parameters(), nb.parameters()):
                assert np.array_equal(pa, pb)

    def test_members_disagree(self, tiny_teachers):
        x = make_scenes(4, np.random.default_rng(9)).cols
        k0 = np.asarray(tiny_teachers[0].forward(x)[0], dtype=float)
        k1 = np.asarray(tiny_teachers[1].forward(x)[0], dtype=float)
        assert np.linalg.norm(k0 - k1, axis=2).mean() > 0.0

    def test_single_member_has_zero_uncertainty(self):
        cfg = dataclasses.replace(TINY, ensemble_size=1)
        teachers = make_teacher_ensemble(cfg)
        x = make_scenes(3, np.random.default_rng(2)).cols
        targets = prepare_targets(teachers, x, cfg, None)
        assert (targets.uncertainty == 0.0).all()
        assert (targets.col_weights == 1.0).all()

    def test_members_keep_no_training_state(self):
        # a forward after training, as prepare_targets runs, saves state again
        for net in make_teacher_ensemble(TINY):
            assert net._cache is None
            for layer in (net.backbone, *net.head):
                assert layer._cols is None and layer._work is None


def serial_members(cfg):
    """`make_teacher_ensemble`'s members trained one after another in this
    process: (parameter bytes, held-out error repr) per member."""
    scenes = make_scenes(cfg.teacher_scenes, np.random.default_rng(2024 + cfg.seed))
    held_out = make_scenes(cfg.eval_scenes, np.random.default_rng(2025 + cfg.seed))
    sup = dataclasses.replace(cfg, gamma_p=0.0, gamma_f=0.0,
                              num_keypoints=NUM_CORNERS, epochs=cfg.teacher_epochs)
    out = []
    for e in range(cfg.ensemble_size):
        net = ToyRegressor(_spec(cfg, cfg.teacher_channels, NUM_CORNERS),
                           np.random.default_rng(10_000 + 97 * e + cfg.seed))
        _train(net, scenes.cols, scenes.keypoints, None, sup, None, "member")
        pred, _ = net.forward(held_out.cols)
        err = float(np.linalg.norm(pred - held_out.keypoints, axis=2).mean())
        out.append(([p.tobytes() for p in net.parameters()], repr(err)))
    return out


def blas_threads():
    """This process's OpenBLAS thread count, read through the getter that
    numpy's OpenBLAS exports beside the setter `_map`'s workers call."""
    import ctypes
    from numpy._core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is not None:
                return get()
    pytest.skip("numpy's BLAS exports no OpenBLAS thread-count calls")


def set_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def row_bytes(rows):
    """(row minus wall_ms, uncertainty bytes) per row."""
    return [(dataclasses.replace(row, wall_ms=0),
             None if u is None else u.tobytes()) for row, u in rows]


class TestConcurrentMembers:
    """Members and rows run concurrently on forked workers (`harness._map`);
    no output may depend on the worker count."""

    def test_ensemble_is_the_serial_loop(self, monkeypatch):
        # four members; three workers is one more than this box's two cores
        cfg = dataclasses.replace(TINY, ensemble_size=4)
        expected = serial_members(cfg)
        for count in (1, 2, 3):
            set_cores(monkeypatch, count)
            teachers = make_teacher_ensemble(cfg)
            assert [([p.tobytes() for p in t.parameters()],
                     repr(t.held_out_error_px)) for t in teachers] == expected

        # a threshold that some members miss: the message names the first
        # in member order, as the serial loop's does
        errors = sorted(float(err) for _, err in expected)
        threshold = (errors[1] + errors[2]) / 2
        first = next(e for e, (_, err) in enumerate(expected)
                     if float(err) > threshold)
        set_cores(monkeypatch, 2)
        with pytest.raises(TrainingDiverged) as err:
            make_teacher_ensemble(dataclasses.replace(
                cfg, teacher_error_threshold_px=threshold))
        assert str(err.value) == (
            f"teacher seed {10_000 + 97 * first + cfg.seed}: held-out error "
            f"{float(expected[first][1]):.2f}px is not within {threshold}px")

    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                    tiny_teachers):
        # each worker has its own copy of the teachers' workspaces and caches
        cfg = dataclasses.replace(TINY, gamma_f=1.0)
        pairs = [(c, s) for c in ("UAKD", "UAKD+PFKD") for s in (0, 1, 2)]
        runs = []
        for count in (1, 2):
            set_cores(monkeypatch, count)
            runs.append(row_bytes(harness.experiment_rows(
                pairs, cfg, True, tiny_teachers)))
        assert [(r.condition, r.seed) for r, _ in runs[0]] == pairs
        assert runs[0] == runs[1]

    def test_workers_hold_blas_to_one_thread(self, monkeypatch):
        set_cores(monkeypatch, 2)
        parent = blas_threads()
        assert list(harness._map(lambda i: blas_threads(), range(3))) == [1] * 3
        assert blas_threads() == parent

        def job(i):
            if i == 1:
                raise KeyError("item 1")
            return i

        with pytest.raises(KeyError):
            list(harness._map(job, range(3)))
        assert blas_threads() == parent

    def test_first_failure_in_item_order_is_raised(self, monkeypatch):
        # item 2 fails first in time, item 1 later; the inline loop would
        # raise item 1's
        set_cores(monkeypatch, 2)

        def job(i):
            if i == 1:
                time.sleep(0.2)
            if i in (1, 2):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            list(harness._map(job, range(4)))

    def test_pending_jobs_are_cancelled(self, monkeypatch, tmp_path):
        set_cores(monkeypatch, 2)

        def job(i):
            (tmp_path / str(i)).touch()
            if i == 0:
                time.sleep(0.05)
                raise RuntimeError("item 0")
            time.sleep(0.5)

        with pytest.raises(RuntimeError, match="item 0"):
            list(harness._map(job, range(8)))
        # item 0 fails while item 1 runs beside it; its worker may take one
        # more item before the consumer sees the failure.  Raising it cancels
        # every item not yet queued and stops the queued ones before `job`
        assert {int(p.name) for p in tmp_path.iterdir()} <= {0, 1, 2}

    @pytest.mark.parametrize("cores,items", [({0}, 3), ({0, 1}, 1)])
    def test_runs_inline_without_a_second_job_or_core(self, monkeypatch,
                                                      cores, items):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        assert list(harness._map(lambda i: os.getpid(), range(items))) == (
            [os.getpid()] * items)

    def test_runs_inline_without_fork(self, monkeypatch):
        import multiprocessing
        set_cores(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert list(harness._map(lambda i: os.getpid(), range(3))) == (
            [os.getpid()] * 3)


def test_importing_the_package_starts_no_pool_module():
    # the pool's modules are imported where a pool starts, not with the CLI
    code = ("import sys, otkd.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def nan_keypoints(net):
    """`net.forward` with every keypoint replaced by NaN, features intact."""
    forward = net.forward

    def nan_forward(x):
        kps, fmap = forward(x)
        return np.full_like(kps, np.nan), fmap

    return nan_forward


class TestPrepareTargets:
    def test_shapes(self, tiny_teachers):
        x = make_scenes(3, np.random.default_rng(4)).cols
        targets = prepare_targets(tiny_teachers, x, TINY, None)
        extent = receptive_field_extent(tiny_teachers[0].head_spec())
        assert targets.predictions.shape == (3, NUM_CORNERS, 2)
        assert targets.col_weights.shape == (3, NUM_CORNERS)
        assert targets.uncertainty.shape == (3, NUM_CORNERS)
        assert targets.regions.shape == (3, NUM_CORNERS, TINY.teacher_channels,
                                         extent, extent)
        assert (targets.col_weights >= 1.0 - TINY.lam - 1e-12).all()
        assert (targets.col_weights <= 1.0).all()

    def test_nonfinite_member_is_named(self, tiny_teachers, monkeypatch):
        monkeypatch.setattr(tiny_teachers[1], "forward",
                            nan_keypoints(tiny_teachers[1]))
        x = make_scenes(3, np.random.default_rng(4)).cols
        with pytest.raises(TrainingDiverged, match="teacher member 1 "):
            prepare_targets(tiny_teachers, x, TINY, None)

    def test_corruption_inflates_uncertainty_of_chosen_columns(self, tiny_teachers):
        cfg = dataclasses.replace(TINY, corrupt_noise_px=40.0,
                                  corrupt_keypoints=(1, 6))
        x = make_scenes(4, np.random.default_rng(4)).cols
        clean = prepare_targets(tiny_teachers, x, cfg, None)
        noisy = prepare_targets(tiny_teachers, x, cfg,
                                corrupt_rng=np.random.default_rng(0))
        u = noisy.uncertainty.mean(axis=0)
        others = np.delete(u, [1, 6])
        assert u[1] > np.median(others)
        assert u[6] > np.median(others)
        # clean columns are untouched by the corruption draw
        np.testing.assert_allclose(np.delete(noisy.predictions, [1, 6], axis=1),
                                   np.delete(clean.predictions, [1, 6], axis=1))


# --------------------------------------------------------------------------
# the combined objective


def _student_and_batch(cfg, seed=0, scenes=3):
    rng = np.random.default_rng(seed)
    batch = make_scenes(scenes, rng)
    x, kps = batch.cols, batch.keypoints[:, :cfg.num_keypoints]
    labels = kps + rng.normal(0.0, 2.0, kps.shape)
    student = ToyRegressor(_spec(cfg, cfg.student_channels, cfg.num_keypoints),
                           np.random.default_rng(seed + 1))
    return student, x, labels


def _synthetic_targets(cfg, student, x, rng):
    """Random but well-formed teacher quantities for objective tests."""
    kps, _ = student.forward(x)
    extent = receptive_field_extent(student.head_spec())
    B, N = x.shape[0], NUM_CORNERS
    return DistillTargets(
        predictions=np.asarray(kps, float)[:, :1, :] + rng.normal(0, 6, (B, N, 2)),
        col_weights=rng.uniform(0.4, 1.0, (B, N)),
        uncertainty=rng.uniform(0.0, 1.0, (B, N)),
        regions=rng.normal(0, 0.3, (B, N, cfg.teacher_channels,
                                    extent, extent)).astype(np.float32))


def record_solves(monkeypatch, freeze=False):
    """The outputs of the solves `total_loss` makes through the harness's
    seam, in order.  With `freeze`, every solve after the first replays the
    first's output, so the plans stay fixed while the student moves."""
    solves = []

    def solver(*args, **kwargs):
        if not (freeze and solves):
            solves.append(sinkhorn_unbalanced_batch(*args, **kwargs))
        return solves[0] if freeze else solves[-1]

    monkeypatch.setattr(harness, "sinkhorn_unbalanced_batch", solver)
    return solves


class TestTotalLoss:
    def test_distill_off_equals_supervised(self):
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0)
        s1, x, labels = _student_and_batch(cfg)
        s2, _, _ = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, s1, x, np.random.default_rng(8))
        r1 = total_loss(s1, x, labels, targets, cfg, None, None)
        r2 = total_loss(s2, x, labels, None, cfg, None, None)
        assert r1.loss == r2.loss
        assert r1.parts["pred"] == r1.parts["feat"] == 0.0
        for g1, g2 in zip(s1.gradients(), s2.gradients()):
            assert np.array_equal(g1, g2)

    def test_student_matching_teacher_mean_has_zero_transfer(self):
        cfg = dataclasses.replace(TINY, gamma_p=5.0, gamma_f=2.0,
                                  teacher_channels=TINY.student_channels)
        student, x, labels = _student_and_batch(cfg)
        kps, fmaps = student.forward(x)
        kps64 = np.asarray(kps, dtype=float)
        extent = receptive_field_extent(student.head_spec())
        regions, _ = extract_regions(fmaps, _region_centers(kps64), extent)
        targets = DistillTargets(predictions=kps64.copy(),
                                 col_weights=np.ones(kps64.shape[:2]),
                                 uncertainty=np.zeros(kps64.shape[:2]),
                                 regions=regions)
        projection = init_projection(cfg.student_channels, cfg.teacher_channels)
        res = total_loss(student, x, labels, targets, cfg,
                         projection=projection, warm_start=None)
        # residual off-diagonal plan mass pairs non-identical regions and
        # far-apart keypoints, so the transfer terms vanish only to the
        # entropic floor (typical prediction term here is O(10))
        assert res.parts["feat"] < 1e-30
        assert res.parts["pred"] < 1e-3

    def test_zero_uncertainty_lambda1_weights_equal_uniform(self):
        from otkd.uncertainty import blend_weights
        cfg = dataclasses.replace(TINY, lam=1.0, gamma_f=0.0)
        s1, x, labels = _student_and_batch(cfg)
        s2, _, _ = _student_and_batch(cfg)
        rng = np.random.default_rng(3)
        base = _synthetic_targets(cfg, s1, x, rng)
        u = np.zeros_like(base.col_weights)
        blended = dataclasses.replace(
            base, col_weights=blend_weights(1.0 - u, np.ones_like(u), cfg.lam))
        uniform = dataclasses.replace(base, col_weights=np.ones_like(u))
        r1 = total_loss(s1, x, labels, blended, cfg, None, None)
        r2 = total_loss(s2, x, labels, uniform, cfg, None, None)
        assert r1.loss == r2.loss
        for g1, g2 in zip(s1.gradients(), s2.gradients()):
            assert np.array_equal(g1, g2)

    def test_prediction_term_oracle(self, monkeypatch):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(2))
        solves = record_solves(monkeypatch)
        res = total_loss(student, x, labels, targets, cfg, None, None)
        kps64 = np.asarray(student.forward(x)[0], dtype=float)
        dist = np.linalg.norm(kps64[:, :, None, :]
                              - targets.predictions[:, None, :, :], axis=3)
        plans = solves[0][0]
        assert res.parts["pred"] == pytest.approx(
            (plans * dist).sum() / x.shape[0], rel=1e-12)

    def test_feature_term_matches_region_loss(self, monkeypatch):
        cfg = dataclasses.replace(TINY, gamma_f=2.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(4))
        projection = init_projection(cfg.student_channels, cfg.teacher_channels)
        solves = record_solves(monkeypatch)
        res = total_loss(student, x, labels, targets, cfg,
                         projection=projection, warm_start=None)
        kps64, fmaps = student.forward(x)
        centers = _region_centers(np.asarray(kps64, dtype=float))
        extent = targets.regions.shape[-1]
        adapted = np.einsum("ct,bntij->bncij", projection, targets.regions)
        plans = solves[0][0]
        per_scene = []
        for b in range(x.shape[0]):
            s = np.stack([padded_window(fmaps[b], c, extent) for c in centers[b]])
            per_scene.append(loop_pfkd_loss(adapted[b].astype(float),
                                            s.astype(float), plans[b]))
        assert res.parts["feat"] == pytest.approx(np.mean(per_scene), rel=1e-9)

    def test_reports_solver_state(self, monkeypatch):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(7))
        solves = record_solves(monkeypatch)
        res = total_loss(student, x, labels, targets, cfg, None, None)
        _, f, g, iterations, converged = solves[0]
        assert res.potentials[0] is f and res.potentials[1] is g
        assert (res.iterations, res.converged) == (iterations, converged)
        supervised = total_loss(student, x, labels, None, cfg, None, None)
        assert len(solves) == 1
        assert (supervised.potentials, supervised.iterations,
                supervised.converged) == (None, None, None)

    def test_nonfinite_keypoints_raise_divergence(self):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(8))
        targets.predictions[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            total_loss(student, x, labels, targets, cfg, None, None)

    def test_missing_projection_rejected(self):
        cfg = dataclasses.replace(TINY, gamma_f=2.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(5))
        with pytest.raises(InvalidInput, match="projection"):
            total_loss(student, x, labels, targets, cfg, None, None)

    def test_nonfinite_loss_raises(self):
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        labels[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            total_loss(student, x, labels, None, cfg, None, None)

    def test_full_parameter_gradient_fd(self, monkeypatch):
        cfg = dataclasses.replace(TINY, student_channels=3, teacher_channels=6,
                                  num_keypoints=4, gamma_p=5.0, gamma_f=2.0)
        student, x, labels = _student_and_batch(cfg, scenes=2)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(6))
        projection = init_projection(cfg.student_channels, cfg.teacher_channels)
        record_solves(monkeypatch, freeze=True)
        res = total_loss(student, x, labels, targets, cfg,
                         projection=projection, warm_start=None)
        analytic = np.concatenate([g.ravel() for g in student.gradients()])

        def loss_now():  # on the first call's plans
            return total_loss(student, x, labels, targets, cfg,
                              projection=projection, warm_start=None).loss

        h = 1e-2
        fd = []
        for p in student.parameters():
            flat = p.ravel()
            g = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_now()
                flat[i] = orig - h
                down = loss_now()
                flat[i] = orig
                g[i] = (up - down) / (2 * h)
            fd.append(g)
        fd = np.concatenate(fd)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(fd) < 1e-3

        # the projection path stays in float64, so its check can be tighter
        hp = 1e-5
        fdp = np.empty(projection.size)
        flat = projection.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + hp
            up = loss_now()
            flat[i] = orig - hp
            down = loss_now()
            flat[i] = orig
            fdp[i] = (up - down) / (2 * hp)
        dproj = res.projection_gradient.ravel()
        assert np.linalg.norm(fdp - dproj) / np.linalg.norm(fdp) < 1e-5


class TestTrainLoop:
    def test_loss_improves(self):
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0, epochs=30)
        student, x, labels = _student_and_batch(cfg)
        before = total_loss(student, x, labels, None, cfg, None, None).loss
        _train(student, x, labels, None, cfg, None, "student")
        assert total_loss(student, x, labels, None, cfg, None, None).loss < before

    def test_divergence_raises(self):
        # from a random init almost any step improves the (bounded) loss, so
        # converge first, then take steps far too large to stay there
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0, epochs=40)
        student, x, labels = _student_and_batch(cfg)
        _train(student, x, labels, None, cfg, None, "student")
        wild = dataclasses.replace(cfg, epochs=5, learning_rate=50.0)
        with pytest.raises(TrainingDiverged, match="improve"):
            _train(student, x, labels, None, wild, None, "student")

    def test_capped_solves_are_logged(self, monkeypatch, caplog):
        # every other solve reports a hit cap; the final evaluation counts too
        cfg = dataclasses.replace(TINY, gamma_f=0.0, epochs=3)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(3))
        calls = []

        def solver(*args, **kwargs):
            plans, f, g, iterations, _ = sinkhorn_unbalanced_batch(*args, **kwargs)
            calls.append(iterations)
            return plans, f, g, iterations, len(calls) % 2 == 0

        monkeypatch.setattr(harness, "sinkhorn_unbalanced_batch", solver)
        with caplog.at_level(logging.INFO, logger="otkd"):
            _train(student, x, labels, targets, cfg, None, "UAKD seed 3")
            _train(student, x, labels, None, cfg, None, "noKD seed 4")  # no transport
        final = total_loss(student, x, labels, None, cfg, None, None)
        assert len(calls) == 4
        assert caplog.messages[0].startswith("UAKD seed 3: final loss kpt ")
        assert caplog.messages[0].endswith(
            ", feat 0; 2 of 4 transport solves stopped at the 200-iteration "
            f"cap, {sum(calls)} iterations in all")
        # the supervised run logs the parts of its last evaluation
        assert caplog.messages[1] == (
            f"noKD seed 4: final loss kpt {final.parts['kpt']:.6g}, pred 0, feat 0")

    def test_training_cannot_tell_the_solve_from_the_log_domain_loop(
            self, monkeypatch, tiny_teachers):
        # the batched solve keeps the log-domain loop's iterates to float64
        # rounding, below what float32 training can see; a plan change it
        # can see would reshuffle the report rows
        cfg = dataclasses.replace(TINY, epochs=30)
        runs = []
        for solver in (sinkhorn_unbalanced_batch, log_domain_batch):
            iterations = []

            def recorded(*args, solver=solver, iterations=iterations, **kwargs):
                out = solver(*args, **kwargs)
                iterations.append(out[3])
                return out

            monkeypatch.setattr(harness, "sinkhorn_unbalanced_batch", recorded)
            student, _ = _train_one_seed("UAKD+PFKD", cfg, 3, tiny_teachers, True)
            runs.append((iterations,
                         [p.tobytes() for p in student.parameters()]))
        assert len(runs[0][0]) == cfg.epochs + 1  # warm-started solves
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_nokd_equals_uniform_with_zero_gammas(self, tiny_teachers):
        base = dataclasses.replace(TINY, epochs=25)
        zeroed = dataclasses.replace(base, gamma_p=0.0, gamma_f=0.0)
        s1, _ = _train_one_seed("noKD", base, 7, tiny_teachers, False)
        s2, _ = _train_one_seed("uniformOT", zeroed, 7, tiny_teachers, False)
        for p1, p2 in zip(s1.parameters(), s2.parameters()):
            assert np.array_equal(p1, p2)


# --------------------------------------------------------------------------
# the feature-map layout: channels-first copies of the code before it was
# channels-last, which training must not be able to tell from it


def channels_first_encode(kps, depths):
    gg = np.arange(GRID) + 0.5
    lin = (np.arange(GRID) + 0.5) / GRID - 0.5
    coord_r, coord_c = np.meshgrid(lin, lin, indexing="ij")
    chans = []
    for k in range(NUM_CORNERS):
        cxg, cyg = kps[k, 0] * harness.DELTA, kps[k, 1] * harness.DELTA
        amp = harness._BLOB_AMPLITUDE / depths[k]
        chans.append(amp * np.exp(-((gg[None, :] - cxg) ** 2
                                    + (gg[:, None] - cyg) ** 2)
                                  / (2 * harness._BLOB_SIGMA ** 2)))
    return np.stack(chans + [coord_r, coord_c]).astype(np.float32)


def channels_first_columns(x):
    x = np.moveaxis(x, 1, -1) * np.float32(2.0 ** 23)
    return im2col(x, np.zeros((*x.shape, 3, 3), np.float32))


class ChannelsFirstRegressor(ToyRegressor):
    """Hands out the features as a (B, C, G, G) view and takes their
    gradient in that shape."""

    def forward(self, cols):
        kps, feats = super().forward(cols)
        return kps, feats.transpose(0, 3, 1, 2)

    def backward(self, dkps, dfeats):
        if dfeats is not None:
            dfeats = dfeats.transpose(0, 2, 3, 1).astype(np.float32)
        super().backward(dkps, dfeats)


def channels_first_extract(fmaps, centers, extent):
    B, C, H, W = fmaps.shape
    K = centers.shape[1]
    rows, cols = centers[:, :, 0], centers[:, :, 1]
    offs = np.arange(extent) - (extent - 1) // 2
    rr = rows[:, :, None, None] + offs[None, None, :, None]
    cc = cols[:, :, None, None] + offs[None, None, None, :]
    rr = np.broadcast_to(rr, (B, K, extent, extent))
    cc = np.broadcast_to(cc, (B, K, extent, extent))
    valid = (rr >= 0) & (rr < H) & (cc >= 0) & (cc < W)
    rs = np.clip(rr, 0, H - 1)
    cs = np.clip(cc, 0, W - 1)
    out = fmaps[np.arange(B)[:, None, None, None], :, rs, cs]  # B,K,e,e,C
    out = out * valid[..., None]
    return np.ascontiguousarray(out.transpose(0, 1, 4, 2, 3)), (rs, cs, valid)


def channels_first_scatter(dfmaps, dregions, idx):
    rs, cs, valid = idx
    B, K, C, e, _ = dregions.shape
    masked = (dregions * valid[:, :, None]).transpose(0, 1, 3, 4, 2)
    bidx = np.broadcast_to(np.arange(B)[:, None, None, None], rs.shape)
    np.add.at(dfmaps, (bidx[..., None], np.arange(C)[None, None, None, None, :],
                       rs[..., None], cs[..., None]), masked)


CHANNELS_FIRST = {"_encode": channels_first_encode,
                  "backbone_columns": channels_first_columns,
                  "ToyRegressor": ChannelsFirstRegressor,
                  "extract_regions": channels_first_extract,
                  "scatter_region_grads": channels_first_scatter}


def test_training_cannot_tell_the_layout(monkeypatch):
    # teachers and a PFKD student with a live feature term; every loss and
    # gradient of every epoch, the projection included, and the end state
    # must keep their bytes; members train inline on one core, so that this
    # process records their epochs, each net's apart from the others'
    cfg = dataclasses.replace(TINY, gamma_f=1.0, epochs=20)
    set_cores(monkeypatch, 1)
    runs = []
    for patches in (CHANNELS_FIRST, {}):
        epochs = {}

        def recorded(*args, **kwargs):
            res = loss_fn(*args, **kwargs)
            projection = kwargs["projection"]
            kept = [projection, res.projection_gradient, *args[0].gradients()]
            epochs.setdefault(args[0], []).append(
                [repr(res.loss), repr(res.parts)]
                + [a.tobytes() for a in kept if a is not None])
            return res

        with monkeypatch.context() as mp:
            for name, value in patches.items():
                mp.setattr(harness, name, value)
            loss_fn = harness.total_loss
            mp.setattr(harness, "total_loss", recorded)
            teachers = make_teacher_ensemble(cfg)
            student, _ = _train_one_seed("PFKD", cfg, 0, teachers, True)
        runs.append(([epochs[net] for net in (*teachers, student)],
                     [t.held_out_error_px for t in teachers],
                     [p.tobytes() for p in student.parameters()]))
    # every epoch and final evaluation of each member and the student, the
    # student's with its projection and projection gradient
    sizes = [len(epoch) for net in runs[1][0] for epoch in net]
    assert sizes == ([8] * (cfg.ensemble_size * (cfg.teacher_epochs + 1))
                     + [10] * (cfg.epochs + 1))
    assert runs[0] == runs[1]


# --------------------------------------------------------------------------
# experiment loop and reports


class TestExperiment:
    def test_rows_and_bitwise_determinism(self, tiny_teachers):
        a = run_experiment("UAKD", TINY, corrupt_teacher=True, seeds=[0, 1],
                           teachers=tiny_teachers)
        b = run_experiment("UAKD", TINY, corrupt_teacher=True, seeds=[0, 1],
                           teachers=tiny_teachers)
        assert [r.seed for r in a.rows] == [0, 1]
        for ra, rb in zip(a.rows, b.rows):
            assert ra.kpt_err_px == rb.kpt_err_px
            assert ra.add01d_rate == rb.add01d_rate
            assert ra.e_r_deg == rb.e_r_deg
            assert ra.e_t_m == rb.e_t_m
        assert set(a.uncertainty) == {0, 1}
        assert a.corrupt_keypoints == TINY.corrupt_keypoints

    def test_all_conditions_share_one_ensemble(self):
        cfg = dataclasses.replace(TINY, epochs=20, eval_scenes=6)
        teachers = make_teacher_ensemble(cfg)
        reports = [run_experiment(c, cfg, seeds=[0], teachers=teachers)
                   for c in CONDITIONS]
        assert [r.condition for r in reports] == list(CONDITIONS)
        assert all(len(r.rows) == 1 for r in reports)
        # noKD carries no uncertainty map; the KD conditions do
        assert reports[0].uncertainty == {}
        assert set(reports[2].uncertainty) == {0}

    def test_m6_student_runs_the_unbalanced_path(self, tiny_teachers):
        cfg = dataclasses.replace(TINY, num_keypoints=6, epochs=25)
        rep = run_experiment("UAKD+PFKD", cfg, corrupt_teacher=True, seeds=[3],
                             teachers=tiny_teachers)
        row = rep.rows[0]
        # a 25-epoch student is rough, so pose medians may hit the degenerate
        # worst case; the point here is that the 6-vs-8 transport runs at all
        assert np.isfinite(row.kpt_err_px)
        assert 0.0 <= row.add01d_rate <= 1.0
        assert row.e_r_deg <= 180.0

    def test_unknown_condition_rejected(self, tiny_teachers):
        with pytest.raises(InvalidInput, match="condition"):
            run_experiment("FKD", TINY, seeds=[0], teachers=tiny_teachers)

    def test_pose_eval_needs_six_points(self, tiny_teachers, monkeypatch):
        # rejected before any student trains
        def no_training(*args):
            raise AssertionError("a student was trained")

        monkeypatch.setattr(harness, "_train", no_training)
        cfg = dataclasses.replace(TINY, num_keypoints=5)
        with pytest.raises(InvalidInput, match="num_keypoints >= 6"):
            run_experiment("noKD", cfg, seeds=[0], teachers=tiny_teachers)

    def test_unconverged_and_degenerate_solves_are_logged(self, monkeypatch, caplog):
        # per solve: None degenerates, else (converged, reprojection RMS);
        # the last converges to a pose that reprojects far off the image
        stubs = [(False, 0.0), None, (False, 0.0), (True, 0.0), (False, 0.0),
                 (True, 1.9e9)]
        student = ToyRegressor(_spec(TINY, TINY.student_channels, TINY.num_keypoints),
                               np.random.default_rng(0))
        calls = []

        def solver(c):
            stub = stubs[len(calls)]
            calls.append(None)
            if stub is None:
                raise DegenerateGeometry("probe")
            return PnpResult(pose=Pose(np.eye(3), np.array([0.0, 0.0, 0.5])),
                             reprojection_rms=stub[1], converged=stub[0],
                             iterations=1)

        monkeypatch.setattr(harness, "pnp_solve", solver)
        with caplog.at_level(logging.INFO, logger="otkd"):
            metrics = evaluate_student(student, TINY,
                                       make_scenes(6, np.random.default_rng(0)),
                                       "noKD seed 0")
        assert caplog.messages == [
            "noKD seed 0: 3 of 6 pose solves stopped unconverged, 1 degenerate, "
            "1 converged at a reprojection RMS above 64 px"]
        # unconverged poses are scored as they stand, a degenerate one as a miss
        assert np.isfinite(metrics["e_t_m"])

    def test_corruption_separation_logic(self):
        rep = ExperimentReport(
            condition="UAKD", rows=[],
            uncertainty={0: np.array([0.9, 0.8, 0.1, 0.2, 0.1, 0.3, 0.1, 0.2]),
                         1: np.array([0.05, 0.9, 0.1, 0.2, 0.1, 0.3, 0.1, 0.2])},
            corrupt_keypoints=(0, 1))
        sep = rep.corruption_separation()
        assert sep == {0: True, 1: False}

    def test_csv_report_round_trips(self, tmp_path):
        rows = [ReportRow(condition="noKD", seed=3, kpt_err_px=1.25,
                          add01d_rate=0.5, e_r_deg=0.125, e_t_m=1e-3,
                          epochs=40, wall_ms=17)]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        header, line = path.read_text().strip().split("\n")
        assert header == CSV_HEADER
        fields = line.split(",")
        assert fields[0] == "noKD"
        assert float(fields[2]) == 1.25
        assert int(fields[-1]) == 17

    def test_json_summary(self, tmp_path):
        rows = [ReportRow(c, s, 2.0 + s + k, 0.5, 1.0, 0.01, 10, 5)
                for k, c in enumerate(("noKD", "UAKD")) for s in (0, 1)]
        path = tmp_path / "summary.json"
        write_report_json(rows, TINY, [0, 1], path)
        payload = json.loads(path.read_text())
        assert payload["seeds"] == [0, 1]
        assert payload["config"]["ensemble_size"] == TINY.ensemble_size
        assert set(payload["conditions"]) == {"noKD", "UAKD"}
        assert payload["conditions"]["noKD"]["kpt_err_px"]["mean"] == 2.5
        assert payload["conditions"]["noKD"]["kpt_err_px"]["std"] == 0.5
        assert payload["conditions"]["UAKD"]["kpt_err_px"]["mean"] == 3.5
