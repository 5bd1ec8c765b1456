"""Synthetic-scene harness: scene generation, config validation, the combined
objective, and the five-condition experiment loop."""
import dataclasses
import json
import logging

import numpy as np
import pytest

from otkd import harness
from otkd.errors import ConfigError, TrainingDiverged
from otkd.harness import (CONDITIONS, CSV_HEADER, GRID, IN_CHANNELS,
                          NUM_CORNERS, DistillTargets, ExperimentReport,
                          ReportRow, SyntheticScene, TrainingConfig,
                          _condition_config, _region_centers, _stack,
                          _student_spec, _train, _train_one_seed,
                          evaluate_student, make_scene, make_scenes,
                          make_teacher_ensemble, prepare_targets,
                          run_experiment, summarize, total_loss,
                          write_report_csv, write_report_json)
from otkd.pfkd import (extract_regions, init_projection,
                       receptive_field_extent, scatter_region_grads)
from otkd.regressor import ToyRegressor
from otkd.sinkhorn import sinkhorn_unbalanced_batch
from test_pfkd import loop_pfkd_loss, padded_window

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
        scene = make_scene(np.random.default_rng(3))
        assert scene.encoding.shape == (IN_CHANNELS, GRID, GRID)
        assert scene.encoding.dtype == np.float32
        assert scene.gt_keypoints.shape == (NUM_CORNERS, 2)
        # the dataclass re-checks this on construction; keep it observable
        from otkd.geometry import project
        reproj = project(scene.model, scene.gt_pose, scene.cam).points
        np.testing.assert_allclose(reproj, scene.gt_keypoints, atol=1e-9)

    def test_determinism(self):
        a = make_scene(np.random.default_rng(11))
        b = make_scene(np.random.default_rng(11))
        assert np.array_equal(a.encoding, b.encoding)
        assert np.array_equal(a.gt_keypoints, b.gt_keypoints)
        c = make_scene(np.random.default_rng(12))
        assert not np.array_equal(a.gt_keypoints, c.gt_keypoints)

    def test_keypoints_stay_near_frame(self):
        scenes = make_scenes(20, np.random.default_rng(0))
        kps = np.concatenate([s.gt_keypoints for s in scenes])
        # corners may exit the 64px frame by a few pixels at extreme tilts,
        # but never by more than one feature cell
        assert kps.min() > -16.0
        assert kps.max() < 80.0
        inside = (kps >= 0.0) & (kps <= 64.0)
        assert inside.mean() > 0.9

    def test_mismatched_keypoints_rejected(self):
        s = make_scene(np.random.default_rng(1))
        with pytest.raises(ValueError, match="projected"):
            SyntheticScene(model=s.model, gt_pose=s.gt_pose, cam=s.cam,
                           gt_keypoints=s.gt_keypoints + 1.0,
                           encoding=s.encoding)


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
        ("corrupt_keypoints", (-1,)),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ConfigError):
            TrainingConfig(**{field: value})

    def test_infinite_tau_is_the_balanced_limit(self):
        assert TrainingConfig(tau=float("inf")).tau == np.inf

    def test_to_dict_is_json_ready(self):
        d = TrainingConfig(corrupt_keypoints=(2, 5)).to_dict()
        assert d["corrupt_keypoints"] == [2, 5]
        json.dumps(d)


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
        x, _ = _stack(make_scenes(3, np.random.default_rng(4)))

        def weights(condition):
            eff = _condition_config(condition, cfg)
            return prepare_targets(tiny_teachers, x, eff,
                                   np.random.default_rng(0)).col_weights

        assert (weights("uniformOT") == 1.0).all()
        assert (weights("UAKD") < 1.0).any()

    def test_unknown_condition(self):
        with pytest.raises(ConfigError, match="condition"):
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
        fmaps = rng.normal(size=(2, 3, GRID, GRID))
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
        fmaps = rng.normal(size=(2, 3, GRID, GRID))
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
        x, _ = _stack(make_scenes(4, np.random.default_rng(9)))
        k0 = np.asarray(tiny_teachers[0].forward(x)[0], dtype=float)
        k1 = np.asarray(tiny_teachers[1].forward(x)[0], dtype=float)
        assert np.linalg.norm(k0 - k1, axis=2).mean() > 0.0

    def test_single_member_has_zero_uncertainty(self):
        cfg = dataclasses.replace(TINY, ensemble_size=1)
        teachers = make_teacher_ensemble(cfg)
        x, _ = _stack(make_scenes(3, np.random.default_rng(2)))
        targets = prepare_targets(teachers, x, cfg)
        assert (targets.uncertainty == 0.0).all()
        assert (targets.col_weights == 1.0).all()


def nan_keypoints(net):
    """`net.forward` with every keypoint replaced by NaN, features intact."""
    forward = net.forward

    def nan_forward(x):
        kps, fmap = forward(x)
        return np.full_like(kps, np.nan), fmap

    return nan_forward


class TestPrepareTargets:
    def test_shapes(self, tiny_teachers):
        x, _ = _stack(make_scenes(3, np.random.default_rng(4)))
        targets = prepare_targets(tiny_teachers, x, TINY)
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
        x, _ = _stack(make_scenes(3, np.random.default_rng(4)))
        with pytest.raises(TrainingDiverged, match="teacher member 1 "):
            prepare_targets(tiny_teachers, x, TINY)

    def test_corruption_inflates_uncertainty_of_chosen_columns(self, tiny_teachers):
        cfg = dataclasses.replace(TINY, corrupt_noise_px=40.0,
                                  corrupt_keypoints=(1, 6))
        x, _ = _stack(make_scenes(4, np.random.default_rng(4)))
        clean = prepare_targets(tiny_teachers, x, cfg)
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
    x, kps = _stack(make_scenes(scenes, rng))
    kps = kps[:, :cfg.num_keypoints]
    labels = kps + rng.normal(0.0, 2.0, kps.shape)
    student = ToyRegressor(_student_spec(cfg), np.random.default_rng(seed + 1))
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


class TestTotalLoss:
    def test_distill_off_equals_supervised(self):
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0)
        s1, x, labels = _student_and_batch(cfg)
        s2, _, _ = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, s1, x, np.random.default_rng(8))
        r1 = total_loss(s1, x, labels, targets, cfg)
        r2 = total_loss(s2, x, labels, None, cfg)
        assert r1.loss == r2.loss
        assert r1.parts["pred"] == r1.parts["feat"] == 0.0
        for g1, g2 in zip(r1.gradients, r2.gradients):
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
        res = total_loss(student, x, labels, targets, cfg, projection=projection)
        # residual off-diagonal plan mass pairs non-identical regions and
        # far-apart keypoints, so the transfer terms vanish only to the
        # entropic floor (typical prediction term here is O(10))
        assert res.parts["feat"] < 1e-30
        assert res.parts["pred"] < 1e-3

    def test_zero_uncertainty_lambda1_weights_equal_uniform(self):
        from otkd.uncertainty import blend_weights, teacher_confidence
        cfg = dataclasses.replace(TINY, lam=1.0, gamma_f=0.0)
        s1, x, labels = _student_and_batch(cfg)
        s2, _, _ = _student_and_batch(cfg)
        rng = np.random.default_rng(3)
        base = _synthetic_targets(cfg, s1, x, rng)
        u = np.zeros_like(base.col_weights)
        blended = dataclasses.replace(
            base, col_weights=blend_weights(teacher_confidence(u),
                                            np.ones_like(u), cfg.lam))
        uniform = dataclasses.replace(base, col_weights=np.ones_like(u))
        r1 = total_loss(s1, x, labels, blended, cfg)
        r2 = total_loss(s2, x, labels, uniform, cfg)
        assert r1.loss == r2.loss
        for g1, g2 in zip(r1.gradients, r2.gradients):
            assert np.array_equal(g1, g2)

    def test_frozen_plan_reuse_skips_the_solver(self):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(1))
        res = total_loss(student, x, labels, targets, cfg)
        assert res.potentials is not None
        res2 = total_loss(student, x, labels, targets, cfg, plans=res.plans)
        assert res2.potentials is None
        assert res2.parts == res.parts

    def test_prediction_term_oracle(self):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(2))
        res = total_loss(student, x, labels, targets, cfg)
        kps64 = np.asarray(student.forward(x)[0], dtype=float)
        dist = np.linalg.norm(kps64[:, :, None, :]
                              - targets.predictions[:, None, :, :], axis=3)
        assert res.parts["pred"] == pytest.approx(
            (res.plans * dist).sum() / x.shape[0], rel=1e-12)

    def test_feature_term_matches_region_loss(self):
        cfg = dataclasses.replace(TINY, gamma_f=2.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(4))
        projection = init_projection(cfg.student_channels, cfg.teacher_channels)
        res = total_loss(student, x, labels, targets, cfg, projection=projection)
        kps64, fmaps = student.forward(x)
        centers = _region_centers(np.asarray(kps64, dtype=float))
        extent = targets.regions.shape[-1]
        adapted = np.einsum("ct,bntij->bncij", projection, targets.regions)
        per_scene = []
        for b in range(x.shape[0]):
            s = np.stack([padded_window(fmaps[b], c, extent) for c in centers[b]])
            per_scene.append(loop_pfkd_loss(adapted[b].astype(float),
                                            s.astype(float), res.plans[b]))
        assert res.parts["feat"] == pytest.approx(np.mean(per_scene), rel=1e-9)

    def test_reports_solver_state(self):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(7))
        res = total_loss(student, x, labels, targets, cfg)
        kps64 = np.asarray(student.forward(x)[0], dtype=float)
        B, M = kps64.shape[:2]
        N = targets.predictions.shape[1]
        dist = np.linalg.norm(kps64[:, :, None, :]
                              - targets.predictions[:, None, :, :], axis=3)
        plans, _, _, iterations, converged = sinkhorn_unbalanced_batch(
            dist, np.full((B, M), 1.0 / M), targets.col_weights / N,
            0.01 * dist.mean(axis=(1, 2)), cfg.tau, max_iters=200, tol=1e-5)
        assert (res.iterations, res.converged) == (iterations, converged)
        np.testing.assert_array_equal(res.plans, plans)
        frozen = total_loss(student, x, labels, targets, cfg, plans=res.plans)
        assert frozen.iterations is None and frozen.converged is None

    def test_nonfinite_keypoints_raise_divergence(self):
        cfg = dataclasses.replace(TINY, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(8))
        targets.predictions[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            total_loss(student, x, labels, targets, cfg)

    def test_missing_projection_rejected(self):
        cfg = dataclasses.replace(TINY, gamma_f=2.0)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(5))
        with pytest.raises(ConfigError, match="projection"):
            total_loss(student, x, labels, targets, cfg)

    def test_nonfinite_loss_raises(self):
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0)
        student, x, labels = _student_and_batch(cfg)
        labels[0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            total_loss(student, x, labels, None, cfg)

    def test_full_parameter_gradient_fd(self):
        cfg = dataclasses.replace(TINY, student_channels=3, teacher_channels=6,
                                  num_keypoints=4, gamma_p=5.0, gamma_f=2.0)
        student, x, labels = _student_and_batch(cfg, scenes=2)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(6))
        projection = init_projection(cfg.student_channels, cfg.teacher_channels)
        res = total_loss(student, x, labels, targets, cfg, projection=projection)
        plans = res.plans
        analytic = np.concatenate([g.ravel() for g in res.gradients])

        def loss_now():
            return total_loss(student, x, labels, targets, cfg,
                              projection=projection, plans=plans).loss

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
        initial, final, projection = _train(student, x, labels, None, cfg, None)
        assert final < initial
        assert projection is None

    def test_divergence_raises(self):
        # from a random init almost any step improves the (bounded) loss, so
        # converge first, then take steps far too large to stay there
        cfg = dataclasses.replace(TINY, gamma_p=0.0, gamma_f=0.0, epochs=40)
        student, x, labels = _student_and_batch(cfg)
        _train(student, x, labels, None, cfg, None)
        wild = dataclasses.replace(cfg, epochs=5, learning_rate=50.0)
        with pytest.raises(TrainingDiverged, match="improve"):
            _train(student, x, labels, None, wild, None)

    def test_capped_solves_are_logged(self, monkeypatch, caplog):
        # every other solve reports a hit cap; the final evaluation counts too
        cfg = dataclasses.replace(TINY, gamma_f=0.0, epochs=3)
        student, x, labels = _student_and_batch(cfg)
        targets = _synthetic_targets(cfg, student, x, np.random.default_rng(3))
        calls = []

        def solver(*args, **kwargs):
            plans, f, g, iterations, _ = sinkhorn_unbalanced_batch(*args, **kwargs)
            calls.append(None)
            return plans, f, g, iterations, len(calls) % 2 == 0

        monkeypatch.setattr(harness, "sinkhorn_unbalanced_batch", solver)
        with caplog.at_level(logging.INFO, logger="otkd"):
            _train(student, x, labels, targets, cfg, None)
            _train(student, x, labels, None, cfg, None)  # no transport, no line
        assert caplog.messages == [
            "2 of 4 transport solves stopped at the 200-iteration cap"]

    def test_nokd_equals_uniform_with_zero_gammas(self, tiny_teachers):
        base = dataclasses.replace(TINY, epochs=25)
        zeroed = dataclasses.replace(base, gamma_p=0.0, gamma_f=0.0)
        s1, _ = _train_one_seed("noKD", base, 7, tiny_teachers, False)
        s2, _ = _train_one_seed("uniformOT", zeroed, 7, tiny_teachers, False)
        for p1, p2 in zip(s1.parameters(), s2.parameters()):
            assert np.array_equal(p1, p2)


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
        with pytest.raises(ConfigError, match="condition"):
            run_experiment("FKD", TINY, seeds=[0], teachers=tiny_teachers)

    def test_pose_eval_needs_six_points(self, tiny_teachers):
        cfg = dataclasses.replace(TINY, num_keypoints=5)
        student = ToyRegressor(_student_spec(cfg), np.random.default_rng(0))
        with pytest.raises(ConfigError, match="6"):
            evaluate_student(student, cfg, make_scenes(2, np.random.default_rng(0)))

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
        rows = [ReportRow("noKD", s, 2.0 + s, 0.5, 1.0, 0.01, 10, 5)
                for s in (0, 1)]
        rep = ExperimentReport("noKD", rows, {}, ())
        assert rep.mean_kpt_err() == 2.5
        path = tmp_path / "summary.json"
        write_report_json([rep], TINY, [0, 1], path)
        payload = json.loads(path.read_text())
        assert payload["seeds"] == [0, 1]
        assert payload["config"]["ensemble_size"] == TINY.ensemble_size
        assert payload["conditions"]["noKD"]["kpt_err_px"]["mean"] == 2.5
        assert payload["conditions"]["noKD"]["kpt_err_px"]["std"] == 0.5
