"""Desk-scale distillation experiment: synthetic box-corner scenes, a frozen
teacher ensemble, and a small student keypoint regressor trained under
combinations of supervised, prediction-level, and feature-level losses.
Teacher members and report rows run on up to one forked process per core
(`_map`), and no output depends on the core count.

The scene "image" is a low-dimensional encoding rather than an RGB render:
one Gaussian blob channel per model corner (amplitude falling off with
depth) plus two normalized coordinate channels.  That keeps the keypoint-
regression structure intact while a full five-condition, multi-seed
experiment stays within a few CPU-minutes.

The loss is  gamma_kpt*L_kpt + gamma_p*L_pred + gamma_f*L_feat.  Each
condition overrides the config fields it turns off (`_CONDITION_OVERRIDES`):
  noKD       gamma_p = gamma_f = 0   supervised only
  uniformOT  gamma_f = 0, lam = 0    prediction transfer, uniform weights
  UAKD       gamma_f = 0             prediction transfer, blended weights
  PFKD       gamma_p = 0             feature-region transfer (plan from the
                                     blended-weight coupling)
  UAKD+PFKD  (none)                  both transfer terms
"""
from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateGeometry, InvalidInput, TrainingDiverged
from .geometry import (CameraIntrinsics, KeypointSet, Model3D, Pose, add_01d_hit,
                       pairwise_distance, pose_errors, project)
from .pfkd import (extract_regions, init_projection, receptive_field_extent,
                   region_loss, scatter_region_grads)
from .pnp import Correspondences, pnp_solve
from .regressor import _DT, RegressorSpec, ToyRegressor, backbone_columns
from .sinkhorn import default_epsilon, sinkhorn_unbalanced_batch
from .uakd import transport_loss
from .uncertainty import (aggregate, blend_weights, student_uniform_weights,
                          teacher_confidence)

GRID = 16
IMAGE_SIZE = 64.0
NUM_CORNERS = 8
IN_CHANNELS = NUM_CORNERS + 2
DELTA = GRID / IMAGE_SIZE

# condition -> the TrainingConfig fields it overrides; lam = 0 blends the
# teacher weights to the all-ones existence scores
_CONDITION_OVERRIDES = {
    "noKD": {"gamma_p": 0.0, "gamma_f": 0.0},
    "uniformOT": {"gamma_f": 0.0, "lam": 0.0},
    "UAKD": {"gamma_f": 0.0},
    "PFKD": {"gamma_p": 0.0},
    "UAKD+PFKD": {},
}
CONDITIONS = tuple(_CONDITION_OVERRIDES)

_BOX_DIMS = (0.10, 0.07, 0.05)
_BLOB_SIGMA = 1.2
_BLOB_AMPLITUDE = 0.25

_SOLVE_CAP = 200  # iterations of each per-epoch transport solve

log = logging.getLogger("otkd")


# --------------------------------------------------------------------------
# scenes


def box_model() -> Model3D:
    """The eight corners of the canonical box; diameter is its space diagonal."""
    dx, dy, dz = _BOX_DIMS
    pts = np.array([[sx * dx / 2, sy * dy / 2, sz * dz / 2]
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return Model3D(pts)


def default_camera() -> CameraIntrinsics:
    return CameraIntrinsics(fx=220.0, fy=220.0,
                            cx=IMAGE_SIZE / 2, cy=IMAGE_SIZE / 2)


@dataclass(frozen=True, eq=False)
class Scenes:
    """A batch of box scenes in front of the default camera.  `cols` are the
    lifted backbone columns of the scenes' float32 (GRID, GRID, IN_CHANNELS)
    encodings, built once for every net and epoch that reads the batch."""
    cols: np.ndarray
    keypoints: np.ndarray  # (B, NUM_CORNERS, 2) pixel coordinates
    poses: list[Pose]      # ground truth, one per scene


def sample_pose(rng: np.random.Generator) -> Pose:
    """Box pose in front of the camera: modest tilt, near-centered, z in
    [0.45, 0.62] m.  Projections stay near the frame; extreme tilts can push
    a corner a few pixels outside, which region extraction clips."""
    ang = rng.uniform(-0.45, 0.45, 3)
    ca, sa = np.cos(ang), np.sin(ang)
    rx = np.array([[1, 0, 0], [0, ca[0], -sa[0]], [0, sa[0], ca[0]]])
    ry = np.array([[ca[1], 0, sa[1]], [0, 1, 0], [-sa[1], 0, ca[1]]])
    rz = np.array([[ca[2], -sa[2], 0], [sa[2], ca[2], 0], [0, 0, 1]])
    t = np.array([rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
                  rng.uniform(0.45, 0.62)])
    return Pose(rotation=rz @ ry @ rx, translation=t)


def _encode(kps: np.ndarray, depths: np.ndarray) -> np.ndarray:
    gg = np.arange(GRID) + 0.5
    lin = (np.arange(GRID) + 0.5) / GRID - 0.5
    coord_r, coord_c = np.meshgrid(lin, lin, indexing="ij")
    chans = []
    for k in range(NUM_CORNERS):
        cxg, cyg = kps[k, 0] * DELTA, kps[k, 1] * DELTA
        amp = _BLOB_AMPLITUDE / depths[k]
        chans.append(amp * np.exp(-((gg[None, :] - cxg) ** 2
                                    + (gg[:, None] - cyg) ** 2)
                                  / (2 * _BLOB_SIGMA ** 2)))
    return np.stack(chans + [coord_r, coord_c], axis=-1).astype(_DT)


def make_scenes(count: int, rng: np.random.Generator) -> Scenes:
    """`count` scenes of the box at poses drawn from `rng`."""
    model, cam = box_model(), default_camera()
    poses, kps, encodings = [], [], []
    for _ in range(count):
        pose = sample_pose(rng)
        k = project(model, pose, cam).points
        poses.append(pose)
        kps.append(k)
        encodings.append(_encode(k, pose.apply(model.points)[:, 2]))
    return Scenes(cols=backbone_columns(np.stack(encodings)),
                  keypoints=np.stack(kps), poses=poses)


def _held_out_scenes(cfg: TrainingConfig) -> Scenes:
    """The split that scores teachers and students; it depends on cfg.seed
    alone, so every row and condition shares it."""
    return make_scenes(cfg.eval_scenes, np.random.default_rng(2025 + cfg.seed))


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the training objective and the experiment around it.

    The loss is  gamma_kpt*L_kpt + gamma_p*L_pred + gamma_f*L_feat;  lam
    blends teacher confidence against existence scores (all-ones here), so
    lam = 0 gives uniform teacher weights (the uniformOT condition).
    gamma_p/gamma_f/lam/ensemble_size defaults follow the shipped ablation
    optimum; the remaining fields shape the synthetic task.
    """
    gamma_kpt: float = 1.0
    gamma_p: float = 5.0
    gamma_f: float = 0.1
    lam: float = 0.5
    ensemble_size: int = 4
    learning_rate: float = 3e-3
    epochs: int = 250
    seed: int = 0
    num_keypoints: int = 8        # student outputs; teachers always predict 8
    student_channels: int = 6
    teacher_channels: int = 12
    train_scenes: int = 16
    teacher_scenes: int = 24
    teacher_epochs: int = 150
    eval_scenes: int = 32
    label_noise_px: float = 4.0
    corrupt_noise_px: float = 10.0
    corrupt_keypoints: tuple[int, ...] = (0, 1)
    corrupt_member: int = 0
    uncertainty_scale: float = 8.0
    tau: float = 10.0
    softmax_beta: float = 5.0
    teacher_error_threshold_px: float = 5.0

    def __post_init__(self):
        for name in ("gamma_kpt", "gamma_p", "gamma_f", "label_noise_px",
                     "corrupt_noise_px", "seed"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidInput("lam must lie in [0, 1]")
        for name in ("ensemble_size", "epochs", "teacher_epochs",
                     "train_scenes", "teacher_scenes", "eval_scenes",
                     "student_channels", "teacher_channels"):
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be >= 1")
        if not 1 <= self.num_keypoints <= NUM_CORNERS:
            raise InvalidInput(f"num_keypoints must be in [1, {NUM_CORNERS}]")
        if not (self.tau > 0 or np.isinf(self.tau)):
            raise InvalidInput("tau must be positive or infinite")
        for name in ("learning_rate", "uncertainty_scale",
                     "teacher_error_threshold_px", "softmax_beta"):
            if not getattr(self, name) > 0:
                raise InvalidInput(f"{name} must be > 0")
        if not 0 <= self.corrupt_member < self.ensemble_size:
            raise InvalidInput("corrupt_member must index an ensemble member")
        bad = [k for k in self.corrupt_keypoints if not 0 <= k < NUM_CORNERS]
        if bad:
            raise InvalidInput(f"corrupt_keypoints out of range: {bad}")
        nonfinite = [f.name for f in dataclasses.fields(self)  # tau may be inf
                     if f.type == "float" and f.name != "tau"
                     and not np.isfinite(getattr(self, f.name))]
        if nonfinite:
            raise InvalidInput(f"{nonfinite[0]} must be finite")


def _spec(cfg: TrainingConfig, channels: int, num_keypoints: int) -> RegressorSpec:
    return RegressorSpec(in_channels=IN_CHANNELS, channels=channels,
                         num_keypoints=num_keypoints, grid=GRID,
                         image_size=IMAGE_SIZE, softmax_beta=cfg.softmax_beta)


# --------------------------------------------------------------------------
# teacher side


def _region_centers(kps_px: np.ndarray) -> np.ndarray:
    """(B,K,2) pixel keypoints -> (B,K,2) int (row,col) grid centers, clipped
    into the map so border predictions still yield a region."""
    rows = np.clip(np.round(kps_px[:, :, 1] * DELTA), 0, GRID - 1)
    cols = np.clip(np.round(kps_px[:, :, 0] * DELTA), 0, GRID - 1)
    return np.stack([rows, cols], axis=-1).astype(int)


@dataclass
class DistillTargets:
    """Frozen teacher quantities for one batch of scenes."""
    predictions: np.ndarray          # (B, N, 2) ensemble-mean keypoints, px
    col_weights: np.ndarray          # (B, N) blended per-keypoint weights
    uncertainty: np.ndarray          # (B, N) u in [0, 1)
    regions: np.ndarray              # (B, N, C_T, e, e) ensemble-mean regions


_job = None  # the function that `_call` applies, set before a pool forks


def _call(item):
    return _job(item)


def _one_blas_thread():
    """Holds a worker's OpenBLAS to one thread: on matmuls this small its
    second thread mostly busy-waits, on the core that another worker needs."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        return
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


def _map(fn: Callable, items: Sequence) -> Iterator:
    """Yields `fn(item)` for each item, in item order, from up to one forked
    process per available core (inline with one item or core, or no fork).
    Workers inherit `fn` and all it reads, so only items and results are
    pickled.  A call's exception is raised at its item's place, as the inline
    loop would raise it, and the items not yet queued for a worker are
    cancelled; a worker that dies raises `BrokenProcessPool`."""
    global _job
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers > 1:  # imported here: only a pool needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield from map(fn, items)
        return
    _job = fn
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)
    try:
        futures = [pool.submit(_call, item) for item in items]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)
        _job = None


def make_teacher_ensemble(cfg: TrainingConfig) -> list[ToyRegressor]:
    """`ensemble_size` regressors trained from independent initializations on
    a shared clean scene set in forked workers (`_map`), then frozen.  Raises
    TrainingDiverged for the first member, in member order, that misses
    cfg.teacher_error_threshold_px on held-out scenes."""
    scenes = make_scenes(cfg.teacher_scenes, np.random.default_rng(2024 + cfg.seed))
    held_out = _held_out_scenes(cfg)
    spec = _spec(cfg, cfg.teacher_channels, NUM_CORNERS)
    sup = dataclasses.replace(cfg, gamma_p=0.0, gamma_f=0.0,
                              num_keypoints=NUM_CORNERS, epochs=cfg.teacher_epochs)

    def member(e: int) -> ToyRegressor:
        member_seed = 10_000 + 97 * e + cfg.seed
        net = ToyRegressor(spec, np.random.default_rng(member_seed))
        _train(net, scenes.cols, scenes.keypoints, None, sup, None,
               f"teacher seed {member_seed}")
        pred, _ = net.forward(held_out.cols)
        err = float(np.linalg.norm(pred - held_out.keypoints, axis=2).mean())
        if not err <= cfg.teacher_error_threshold_px:  # a NaN error fails too
            raise TrainingDiverged(
                f"teacher seed {member_seed}: held-out error {err:.2f}px "
                f"is not within {cfg.teacher_error_threshold_px}px")
        net.held_out_error_px = err
        net.drop_training_state()
        return net

    return list(_map(member, range(cfg.ensemble_size)))


def prepare_targets(teachers: list[ToyRegressor], cols: np.ndarray,
                    cfg: TrainingConfig,
                    corrupt_rng: np.random.Generator | None) -> DistillTargets:
    """Runs the frozen ensemble on a scene batch (`Scenes.cols`) and
    aggregates predictions, blended weights, and mean feature regions.  When
    `corrupt_rng` is given, one member's predictions for the configured
    keypoint subset get large added noise before aggregation (the regions
    then come from the shifted centers too, so the corruption reaches both
    transfer paths).  Raises TrainingDiverged naming the first member whose
    keypoints are not finite."""
    preds, feats = [], []
    for member, net in enumerate(teachers):
        kps, fmap = net.forward(cols)
        if not np.isfinite(kps).all():
            raise TrainingDiverged(
                f"teacher member {member} predicted non-finite keypoints")
        preds.append(np.asarray(kps, dtype=float))
        feats.append(fmap)
    preds = np.stack(preds)                       # (E, B, N, 2)
    E, B, N, _ = preds.shape
    if corrupt_rng is not None and cfg.corrupt_keypoints:
        idx = np.array(cfg.corrupt_keypoints)
        noise = corrupt_rng.normal(0.0, cfg.corrupt_noise_px,
                                   preds[cfg.corrupt_member][:, idx].shape)
        preds[cfg.corrupt_member][:, idx] += noise

    mean, u = aggregate(preds.reshape(E, B * N, 2), scale=cfg.uncertainty_scale)
    conf = teacher_confidence(u)
    weights = blend_weights(conf, np.ones_like(conf), cfg.lam).reshape(B, N)

    extent = receptive_field_extent(teachers[0].head_spec())
    regions = np.zeros((B, N, teachers[0].spec.channels, extent, extent), _DT)
    for member, fmap in enumerate(feats):
        r, _ = extract_regions(fmap, _region_centers(preds[member]), extent)
        regions += r
    regions /= E
    return DistillTargets(predictions=mean.reshape(B, N, 2),
                          col_weights=weights, uncertainty=u.reshape(B, N),
                          regions=regions)


# --------------------------------------------------------------------------
# objective


@dataclass
class TotalLossResult:
    loss: float
    parts: dict[str, float]                 # unweighted kpt/pred/feat values
    projection_gradient: np.ndarray | None
    # the solve's potentials, iteration count and whether every instance
    # converged; None when no transfer term is on
    potentials: tuple[np.ndarray, np.ndarray] | None
    iterations: int | None
    converged: bool | None


def total_loss(student: ToyRegressor, cols: np.ndarray,
               keypoints_px: np.ndarray, targets: DistillTargets | None,
               cfg: TrainingConfig, projection: np.ndarray | None,
               warm_start: tuple[np.ndarray, np.ndarray] | None) -> TotalLossResult:
    """One objective evaluation with manual backpropagation on a scene batch
    (`Scenes.cols`).

    L_kpt is mean squared pixel error against `keypoints_px`; the transfer
    terms follow the prediction- and feature-level losses with the coupling
    detached (solved here from `warm_start`, never differentiated through).
    Gradients cover every student parameter plus, when the feature term is
    active, the channel projection; the student's are left on it
    (`ToyRegressor.gradients`).
    """
    kps, fmaps = student.forward(cols)
    kps64 = np.asarray(kps, dtype=float)
    B, M, _ = kps.shape

    diff = kps64 - keypoints_px
    loss_kpt = float((diff * diff).sum() / (B * M))
    dk = (cfg.gamma_kpt * 2.0 / (B * M)) * diff

    gp, gf = cfg.gamma_p, cfg.gamma_f
    use_pred = gp > 0 and targets is not None
    use_feat = gf > 0 and targets is not None
    loss_pred = loss_feat = 0.0
    dfeats = dproj = potentials = iterations = converged = None

    if use_pred or use_feat:
        mus = targets.predictions
        disp, dist = pairwise_distance(kps64, mus)
        if not np.isfinite(dist).all():
            raise TrainingDiverged("non-finite keypoints reached the transport cost")
        a = np.broadcast_to(student_uniform_weights(M), (B, M))
        b = targets.col_weights / mus.shape[1]
        f0, g0 = warm_start if warm_start is not None else (None, None)
        plans, f, g, iterations, converged = sinkhorn_unbalanced_batch(
            dist, a, b, default_epsilon(dist), cfg.tau, max_iters=_SOLVE_CAP,
            tol=1e-5, f0=f0, g0=g0)
        potentials = (f, g)
        if use_pred:
            loss_pred, dpred = transport_loss(plans, disp, dist)
            dk = dk + gp * dpred
        if use_feat:
            if projection is None:
                raise InvalidInput("feature transfer is active but no channel "
                                   "projection was supplied")
            extent = targets.regions.shape[-1]
            regions, idx = extract_regions(fmaps, _region_centers(kps64), extent)
            adapted = np.einsum("ct,bntij->bncij", projection, targets.regions)
            loss_feat, dregions, dadapted = region_loss(adapted, regions, plans)
            dfeats = np.zeros_like(fmaps)
            scatter_region_grads(dfeats, (gf * dregions).astype(_DT), idx)
            dproj = gf * np.einsum("bncij,bntij->ct", dadapted, targets.regions)

    loss = cfg.gamma_kpt * loss_kpt + gp * loss_pred + gf * loss_feat
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite loss (kpt={loss_kpt!r}, pred={loss_pred!r}, "
            f"feat={loss_feat!r})")
    student.backward(dk, dfeats)
    return TotalLossResult(loss=loss,
                           parts={"kpt": loss_kpt, "pred": loss_pred,
                                  "feat": loss_feat},
                           projection_gradient=dproj, potentials=potentials,
                           iterations=iterations, converged=converged)


def _train(student: ToyRegressor, cols: np.ndarray, keypoints_px: np.ndarray,
           targets: DistillTargets | None, cfg: TrainingConfig,
           projection: np.ndarray | None, tag: str):
    """Plain fixed-step gradient descent on a scene batch (`Scenes.cols`);
    logs the final loss parts and the capped solves after `tag`, which names
    the net.  Raises TrainingDiverged if the final loss does not improve on
    the first."""
    warm = None
    initial = None
    solves = capped = iters = 0
    for epoch in range(cfg.epochs + 1):
        res = total_loss(student, cols, keypoints_px, targets, cfg,
                         projection=projection, warm_start=warm)
        if res.potentials is not None:
            warm = res.potentials
            solves += 1
            capped += not res.converged
            iters += res.iterations
        if epoch == cfg.epochs:  # the final evaluation takes no step
            break
        if initial is None:
            initial = res.loss
        student.gd_step(cfg.learning_rate)
        if res.projection_gradient is not None:
            projection = projection - (cfg.learning_rate
                                       * res.projection_gradient).astype(projection.dtype)
    line = ", ".join(f"{k} {v:.6g}" for k, v in res.parts.items())
    if solves:
        line += (f"; {capped} of {solves} transport solves stopped at the "
                 f"{_SOLVE_CAP}-iteration cap, {iters} iterations in all")
    log.info("%s: final loss %s", tag, line)
    if not res.loss < initial:
        raise TrainingDiverged(
            f"loss failed to improve: initial {initial!r}, final {res.loss!r}")


# --------------------------------------------------------------------------
# experiment


@dataclass(frozen=True)
class ReportRow:
    condition: str
    seed: int
    kpt_err_px: float
    add01d_rate: float
    e_r_deg: float
    e_t_m: float
    epochs: int
    wall_ms: int


@dataclass
class ExperimentReport:
    condition: str
    rows: list[ReportRow]
    uncertainty: dict[int, np.ndarray]    # seed -> mean u per teacher keypoint
    corrupt_keypoints: tuple[int, ...]

    def corruption_separation(self) -> dict[int, bool]:
        """Per seed: does every corrupted keypoint's u exceed the median u of
        the clean keypoints?"""
        out = {}
        for seed, u in self.uncertainty.items():
            clean = np.delete(u, np.array(self.corrupt_keypoints, dtype=int))
            med = float(np.median(clean))
            out[seed] = bool(all(u[k] > med for k in self.corrupt_keypoints))
        return out


def _condition_config(condition: str, cfg: TrainingConfig) -> TrainingConfig:
    if condition not in _CONDITION_OVERRIDES:
        raise InvalidInput(f"unknown condition {condition!r}")
    return dataclasses.replace(cfg, **_CONDITION_OVERRIDES[condition])


def _train_one_seed(condition: str, cfg: TrainingConfig, seed: int,
                    teachers: list[ToyRegressor], corrupt_teacher: bool):
    """Trains one student under a condition's config (`_condition_config`);
    returns (student, per-keypoint mean u or None)."""
    cfg = _condition_config(condition, cfg)
    rng = np.random.default_rng(seed)
    scenes = make_scenes(cfg.train_scenes, rng)
    kps = scenes.keypoints[:, :cfg.num_keypoints]
    labels = kps + rng.normal(0.0, cfg.label_noise_px, kps.shape)

    u_mean = targets = projection = None
    if cfg.gamma_p > 0 or cfg.gamma_f > 0:
        corrupt_rng = np.random.default_rng(seed + 77) if corrupt_teacher else None
        targets = prepare_targets(teachers, scenes.cols, cfg, corrupt_rng)
        u_mean = targets.uncertainty.mean(axis=0)
        if cfg.gamma_f > 0:
            projection = init_projection(cfg.student_channels,
                                         cfg.teacher_channels).astype(_DT)

    student = ToyRegressor(_spec(cfg, cfg.student_channels, cfg.num_keypoints),
                           np.random.default_rng(seed + 1000))
    _train(student, scenes.cols, labels, targets, cfg, projection,
           f"{condition} seed {seed}")
    return student, u_mean


def check_pose_evaluation(cfg: TrainingConfig) -> None:
    """Raises InvalidInput unless PnP can score the student's keypoints."""
    if cfg.num_keypoints < 6:
        raise InvalidInput("pose evaluation needs num_keypoints >= 6")


def evaluate_student(student: ToyRegressor, cfg: TrainingConfig,
                     scenes: Scenes, tag: str) -> dict[str, float]:
    """Keypoint error, ADD-0.1d hit rate, and median pose errors from solving
    PnP on the student's predictions.  A scene whose solve degenerates counts
    as a miss with worst-case pose error; that keeps evaluation total even for
    badly undertrained students.  An unconverged one is scored as it stands,
    and so is a converged one that reprojects worse than the image size; both
    are counted in the log, after `tag`, which names the student."""
    kps_gt = scenes.keypoints[:, :cfg.num_keypoints]
    preds, _ = student.forward(scenes.cols)
    preds = np.asarray(preds, dtype=float)
    kpt_err = float(np.linalg.norm(preds - kps_gt, axis=2).mean())

    model, cam = box_model(), default_camera()
    pts3d = model.points[:cfg.num_keypoints]
    scores = []  # per scene: ADD-0.1d hit, E_R degrees, E_T meters
    unconverged = degenerate = off_image = 0
    for pred, gt_pose in zip(preds, scenes.poses):
        try:
            result = pnp_solve(Correspondences(points2d=KeypointSet(pred),
                                               points3d=pts3d, cam=cam))
        except DegenerateGeometry:
            degenerate += 1
            scores.append((False, 180.0, float("inf")))
            continue
        unconverged += not result.converged
        off_image += result.converged and result.reprojection_rms > IMAGE_SIZE
        e_t, e_r, _ = pose_errors(result.pose, gt_pose)
        scores.append((add_01d_hit(model, result.pose, gt_pose), e_r, e_t))
    log.info("%s: %d of %d pose solves stopped unconverged, %d degenerate, "
             "%d converged at a reprojection RMS above %g px", tag,
             unconverged, len(scores), degenerate, off_image, IMAGE_SIZE)
    hits, e_rs, e_ts = zip(*scores)
    return {"kpt_err_px": kpt_err,
            "add01d_rate": float(np.mean(hits)),
            "e_r_deg": float(np.median(e_rs)),
            "e_t_m": float(np.median(e_ts))}


def _report_row(condition: str, seed: int, cfg: TrainingConfig,
                corrupt_teacher: bool, teachers: list[ToyRegressor],
                held_out: Scenes) -> tuple[ReportRow, np.ndarray | None]:
    """One student trained and scored: (row, per-keypoint mean u or None)."""
    start = time.perf_counter()
    student, u_mean = _train_one_seed(condition, cfg, seed, teachers,
                                      corrupt_teacher)
    metrics = evaluate_student(student, cfg, held_out, f"{condition} seed {seed}")
    wall_ms = int(round(1000 * (time.perf_counter() - start)))
    return ReportRow(condition=condition, seed=seed, epochs=cfg.epochs,
                     wall_ms=wall_ms, **metrics), u_mean


def experiment_rows(pairs: Sequence[tuple[str, int]], cfg: TrainingConfig,
                    corrupt_teacher: bool, teachers: list[ToyRegressor]
                    ) -> Iterator[tuple[ReportRow, np.ndarray | None]]:
    """Yields (row, per-keypoint mean u or None) for each (condition, seed)
    pair, in pair order, from students trained in forked workers (`_map`)
    against `teachers`, the ensemble from `make_teacher_ensemble(cfg)`.  The
    seed drives student scenes, label noise, initialization and the
    corruption draw, so no row depends on the others or the core count."""
    check_pose_evaluation(cfg)
    held_out = _held_out_scenes(cfg)
    yield from _map(lambda pair: _report_row(*pair, cfg, corrupt_teacher,
                                             teachers, held_out), pairs)


def run_experiment(condition: str, cfg: TrainingConfig,
                   corrupt_teacher: bool = False, *, seeds: list[int],
                   teachers: list[ToyRegressor]) -> ExperimentReport:
    """One condition's rows over `seeds` (`experiment_rows`)."""
    out = list(experiment_rows([(condition, seed) for seed in seeds], cfg,
                               corrupt_teacher, teachers))
    return ExperimentReport(condition=condition, rows=[row for row, _ in out],
                            uncertainty={row.seed: u for row, u in out
                                         if u is not None},
                            corrupt_keypoints=tuple(cfg.corrupt_keypoints)
                            if corrupt_teacher else ())


# --------------------------------------------------------------------------
# reports

_COLUMNS = dataclasses.fields(ReportRow)
CSV_HEADER = ",".join(f.name for f in _COLUMNS)
_METRICS = [f.name for f in _COLUMNS if f.type == "float"]


def write_report_csv(rows: list[ReportRow], path: str | Path) -> None:
    """One line per row; floats in repr form, so they read back exactly."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in dataclasses.astuple(r)))
    Path(path).write_text("\n".join(lines) + "\n")


def summarize(rows: list[ReportRow]) -> dict:
    """Per-condition means and standard deviations of every numeric column."""
    groups = {}
    for r in rows:
        groups.setdefault(r.condition, []).append(r)
    out = {}
    for condition, group in groups.items():
        cols = {}
        for name in _METRICS:
            vals = np.array([getattr(r, name) for r in group])
            cols[name] = {"mean": float(vals.mean()), "std": float(vals.std())}
        out[condition] = cols
    return out


def write_report_json(rows: list[ReportRow], cfg: TrainingConfig,
                      seeds: list[int], path: str | Path) -> None:
    payload = {"config": dataclasses.asdict(cfg), "seeds": list(seeds),
               "conditions": summarize(rows)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
