"""Command-line front end.

Subcommands: `sinkhorn` (solve a transport instance from CSV files),
`experiment` (run the distillation experiment, write reports), and `pnp`
(solve a pose from a correspondence file).

Exit codes: 0 success, 1 a flag or command mistake, 2 a Sinkhorn or PnP
solve that stopped unconverged.  A toolkit error prints one `error:` line and
exits with its class's `exit_code`, as `otkd.errors` lists them.
`experiment` runs teacher members and report rows on up to one forked
process per core (`harness._map`).  On any failure, Ctrl-C and a dead worker
included, it writes the rows a serial loop would have finished, then
re-raises it.
`OTKD_LOG` sets log verbosity (debug/info/warning/error).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInput, OtkdError
from .geometry import CameraIntrinsics, KeypointSet
from .harness import (CONDITIONS, TrainingConfig, check_pose_evaluation,
                      experiment_rows, make_teacher_ensemble, write_report_csv,
                      write_report_json)
from .pnp import Correspondences, pnp_solve
from .sinkhorn import default_config, plan_residuals, sinkhorn_unbalanced

log = logging.getLogger("otkd")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


# --------------------------------------------------------------------------
# parsing helpers


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line number from 1, text) of each line that is not blank once its
    `#` comment is stripped; an unreadable file is InvalidInput."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror or exc}") from exc
    bodies = ((lineno, line.split("#", 1)[0].strip())
              for lineno, line in enumerate(text.splitlines(), start=1))
    return [(lineno, body) for lineno, body in bodies if body]


def _read_matrix(path: str) -> np.ndarray:
    """Numeric CSV -> 2D array; errors name the offending line."""
    rows = []
    width = None
    for lineno, body in _read_lines(path):
        try:
            row = [float(tok) for tok in body.replace(",", " ").split()]
        except ValueError as exc:
            raise InvalidInput(f"{path}: line {lineno}: {exc}") from exc
        if not np.isfinite(row).all():
            raise InvalidInput(f"{path}: line {lineno}: values must be finite")
        if width is not None and len(row) != width:
            raise InvalidInput(
                f"{path}: line {lineno}: expected {width} values, got {len(row)}")
        width = len(row)
        rows.append(row)
    if not rows:
        raise InvalidInput(f"{path}: no numeric data")
    return np.array(rows)


def _read_vector(path: str) -> np.ndarray:
    return _read_matrix(path).ravel()


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_config_file(path: str) -> dict:
    """key=value lines -> dict of raw string values; unknown keys are the
    caller's problem (it knows the schema)."""
    out = {}
    for lineno, body in _read_lines(path):
        if "=" not in body:
            raise InvalidInput(f"{path}: line {lineno}: expected key=value")
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainingConfig)}
# experiment-level keys that live beside TrainingConfig in a config file
_EXTRA_KEYS = {"corrupt_teacher": bool, "num_seeds": int}


def _coerce(name: str, raw: str):
    kind = _EXTRA_KEYS[name] if name in _EXTRA_KEYS else _CONFIG_FIELDS[name].type
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise InvalidInput(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        if name == "corrupt_keypoints":
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        if kind in ("int", int):
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise InvalidInput(f"{name}: {exc}") from exc


def _experiment_settings(args) -> tuple[TrainingConfig, bool, int]:
    values = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in _CONFIG_FIELDS and key not in _EXTRA_KEYS:
                raise InvalidInput(f"{args.config}: unknown key {key!r}")
            values[key] = _coerce(key, raw)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = _coerce(name, flag) if isinstance(flag, str) else flag
    corrupt = bool(values.pop("corrupt_teacher", False))
    if args.corrupt:
        corrupt = True
    num_seeds = int(values.pop("num_seeds", 1))
    if args.num_seeds is not None:
        num_seeds = args.num_seeds
    if num_seeds < 1:
        raise InvalidInput("num_seeds must be >= 1")
    return TrainingConfig(**values), corrupt, num_seeds


def _config_digest(cfg: TrainingConfig, corrupt: bool, seeds: list[int]) -> str:
    canon = json.dumps({"config": dataclasses.asdict(cfg), "corrupt_teacher": corrupt,
                        "seeds": seeds}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


# --------------------------------------------------------------------------
# subcommands


_SINKHORN_FLAGS = ("epsilon", "tau", "max_iters", "tol")  # SinkhornConfig fields


def cmd_sinkhorn(args) -> int:
    cost = _read_matrix(args.cost)
    alpha_s = _read_vector(args.alpha_s)
    alpha_t = _read_vector(args.alpha_t)
    if alpha_s.size != cost.shape[0] or alpha_t.size != cost.shape[1]:
        raise InvalidInput(
            f"dimension mismatch: cost is {cost.shape[0]}x{cost.shape[1]}, "
            f"weights are {alpha_s.size} and {alpha_t.size}")
    overrides = {name: getattr(args, name) for name in _SINKHORN_FLAGS
                 if getattr(args, name) is not None}
    if args.no_anneal:
        overrides["anneal"] = False
    cfg = default_config(cost, **overrides)
    log.info("solving %dx%d instance, epsilon=%g tau=%g",
             cost.shape[0], cost.shape[1], cfg.epsilon, cfg.tau)
    plan = sinkhorn_unbalanced(cost, alpha_s, alpha_t, cfg)
    for row in plan.entries:
        print(",".join(repr(float(v)) for v in row))
    row_res, col_res = plan_residuals(plan, alpha_s, alpha_t)
    print(f"# row_residual {row_res!r}")
    print(f"# col_residual {col_res!r}")
    print(f"# iterations {plan.iterations}")
    print(f"# transport_cost {plan.transport_cost(cost)!r}")
    return EXIT_OK if plan.converged else EXIT_NUMERIC


def cmd_experiment(args) -> int:
    cfg, corrupt, num_seeds = _experiment_settings(args)
    check_pose_evaluation(cfg)
    seeds = [cfg.seed + i for i in range(num_seeds)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    finished = False
    try:
        log.info("training %d-member teacher ensemble", cfg.ensemble_size)
        teachers = make_teacher_ensemble(cfg)
        pairs = [(condition, seed) for condition in CONDITIONS for seed in seeds]
        for row, _ in experiment_rows(pairs, cfg, corrupt, teachers):
            rows.append(row)
        finished = True
    finally:  # on any exception, keep the rows finished so far
        write_report_csv(rows, out_dir / "report.csv")
        if finished:
            write_report_json(rows, cfg, seeds, out_dir / "summary.json")
        manifest = {"seeds": seeds, "config_sha256": _config_digest(cfg, corrupt, seeds),
                    "version": __version__}
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                          sort_keys=True) + "\n")
        if not finished:
            print(f"partial results in {out_dir}", file=sys.stderr)
    log.info("wrote %d rows to %s", len(rows), out_dir / "report.csv")
    return EXIT_OK


def _read_correspondences(path: str, cam: CameraIntrinsics) -> Correspondences:
    data = _read_matrix(path)
    if data.shape[1] not in (5, 6):
        raise InvalidInput(
            f"{path}: expected 5 or 6 columns (u v X Y Z [w]), got {data.shape[1]}")
    if data.shape[0] < 6:
        raise InvalidInput(
            f"{path}: need at least 6 correspondences, got {data.shape[0]}")
    weights = data[:, 5] if data.shape[1] == 6 else None
    return Correspondences(points2d=KeypointSet(data[:, :2]), points3d=data[:, 2:5],
                           cam=cam, weights=weights)


def cmd_pnp(args) -> int:
    cam_vals = _read_vector(args.cam)
    if cam_vals.size != 4:
        raise InvalidInput(f"{args.cam}: expected fx,fy,cx,cy")
    cam = CameraIntrinsics(*cam_vals)
    corr = _read_correspondences(args.correspondences, cam)
    result = pnp_solve(corr)
    print("rotation: " + " ".join(repr(float(v))
                                  for v in result.pose.rotation.ravel()))
    print("translation: " + " ".join(repr(float(v))
                                     for v in result.pose.translation))
    print(f"reprojection_rms_px: {float(result.reprojection_rms)!r}")
    print(f"iterations: {result.iterations}")
    return EXIT_OK if result.converged else EXIT_NUMERIC


# --------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means numeric failure here, so
    remap flag/command mistakes onto the usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="otkd",
        description="optimal-transport keypoint distillation toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sink = sub.add_parser("sinkhorn", help="solve one transport instance")
    p_sink.add_argument("cost", help="cost matrix CSV (M rows x N cols)")
    p_sink.add_argument("alpha_s", help="row weights CSV (M values)")
    p_sink.add_argument("alpha_t", help="column weights CSV (N values)")
    p_sink.add_argument("--epsilon", type=float)
    p_sink.add_argument("--tau", type=float)
    p_sink.add_argument("--max-iters", type=int, dest="max_iters")
    p_sink.add_argument("--tol", type=float)
    p_sink.add_argument("--no-anneal", action="store_true")
    p_sink.set_defaults(func=cmd_sinkhorn)

    p_exp = sub.add_parser("experiment", help="run the distillation experiment")
    p_exp.add_argument("--config", help="key=value config file")
    p_exp.add_argument("--out", default="otkd-out", help="output directory")
    p_exp.add_argument("--num-seeds", type=int, dest="num_seeds")
    p_exp.add_argument("--corrupt", action="store_true",
                       help="corrupt one teacher member's keypoints")
    for name, field in _CONFIG_FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if name == "corrupt_keypoints":
            p_exp.add_argument(flag, dest=name, metavar="K,K,...")
        elif field.type in ("int", int):
            p_exp.add_argument(flag, type=int, dest=name)
        else:
            p_exp.add_argument(flag, type=float, dest=name)
    p_exp.set_defaults(func=cmd_experiment)

    p_pnp = sub.add_parser("pnp", help="solve a pose from correspondences")
    p_pnp.add_argument("correspondences", help="CSV rows: u v X Y Z [w]")
    p_pnp.add_argument("cam", help="CSV: fx fy cx cy")
    p_pnp.set_defaults(func=cmd_pnp)
    for p in (p_sink, p_exp, p_pnp):
        p.add_argument("--version", action="version",
                       version=f"otkd {__version__}")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("OTKD_LOG", "warning").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OtkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
