"""Command-line front end: exit codes, file handling, report layout, and
exact row-level agreement with the in-process experiment loop."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SRC, run_cli, strip_wall_ms
from otkd import __version__, cli, harness
from otkd.errors import DegenerateGeometry
from otkd.geometry import Model3D, Pose, pose_errors, project
from otkd.harness import (CONDITIONS, CSV_HEADER, box_model, default_camera,
                          make_teacher_ensemble, sample_pose)
from test_harness import nan_keypoints
from test_sinkhorn import lp_transport_cost

# small enough that one full experiment run takes a couple of seconds
TINY_CFG = """\
ensemble_size = 2
teacher_epochs = 25
teacher_scenes = 6
train_scenes = 4
eval_scenes = 6
epochs = 20
teacher_error_threshold_px = 64.0
"""


def _write_instance(tmp_path, cost, a, b):
    paths = []
    for name, arr in (("cost", np.atleast_2d(cost)), ("a", a), ("b", b)):
        p = tmp_path / f"{name}.csv"
        np.savetxt(p, np.atleast_2d(arr), delimiter=",")
        paths.append(str(p))
    return paths


def _parse_plan(stdout):
    """Printed plan rows plus the trailing `# key value` metadata lines."""
    rows, meta = [], {}
    for line in stdout.splitlines():
        if line.startswith("#"):
            _, key, val = line.split(maxsplit=2)
            meta[key] = float(val)
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows), meta


class TestSinkhornCommand:
    def test_single_cell_instance(self, tmp_path):
        cost, a, b = _write_instance(tmp_path, [[0.0]], [1.0], [1.0])
        res = run_cli("sinkhorn", cost, a, b)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "1.0"
        plan, meta = _parse_plan(res.stdout)
        assert plan.shape == (1, 1)
        assert meta["row_residual"] == 0.0
        assert meta["col_residual"] == 0.0
        assert meta["transport_cost"] == 0.0

    def test_balanced_pair_matches_lp_oracle(self, tmp_path):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = np.array([0.5, 0.5])
        paths = _write_instance(tmp_path, cost, a, a)
        res = run_cli("sinkhorn", "--tau", "inf", "--epsilon", "0.01", *paths)
        assert res.returncode == 0, res.stderr
        plan, meta = _parse_plan(res.stdout)
        # dominant diagonal: the LP vertex is unique
        assert np.allclose(plan, np.diag(a), atol=1e-3)
        assert meta["transport_cost"] == pytest.approx(
            lp_transport_cost(cost, a, a), abs=1e-3)
        assert meta["row_residual"] < 1e-4 and meta["col_residual"] < 1e-4

    def test_iteration_cap_exits_numeric(self, tmp_path):
        cost = np.array([[0.0, 3.0], [2.0, 1.0]])
        a = np.array([0.5, 0.5])
        paths = _write_instance(tmp_path, cost, a, a)
        res = run_cli("sinkhorn", "--tau", "inf", "--max-iters", "1",
                      "--tol", "1e-14", "--no-anneal", *paths)
        assert res.returncode == 2
        _, meta = _parse_plan(res.stdout)
        assert meta["iterations"] == 1

    @pytest.mark.parametrize("text,fragment", [
        ("1.0,2.0\n3.0,oops\n", "line 2"),
        ("1.0,2.0\n3.0\n", "line 2"),
        ("# only a comment\n", "no numeric data"),
    ])
    def test_malformed_cost_file(self, tmp_path, text, fragment):
        broken = tmp_path / "broken.csv"
        broken.write_text(text)
        _, a, b = _write_instance(tmp_path, [[0.0]], [1.0], [1.0])
        res = run_cli("sinkhorn", str(broken), a, b)
        assert res.returncode == 1
        assert "broken.csv" in res.stderr and fragment in res.stderr

    def test_missing_file(self, tmp_path):
        _, a, b = _write_instance(tmp_path, [[0.0]], [1.0], [1.0])
        res = run_cli("sinkhorn", str(tmp_path / "absent.csv"), a, b)
        assert res.returncode == 1
        assert "absent.csv" in res.stderr

    def test_dimension_mismatch(self, tmp_path):
        paths = _write_instance(tmp_path, np.zeros((2, 2)),
                                np.full(3, 1 / 3), np.full(2, 0.5))
        res = run_cli("sinkhorn", *paths)
        assert res.returncode == 1
        assert "dimension mismatch" in res.stderr

    def test_overflowing_cost_names_its_scale(self, tmp_path):
        # the mean of 1e308 entries overflows, so no default epsilon exists
        res = run_cli(*_sinkhorn_argv(tmp_path, cost=((0.0, 1e308), (1e308, 0.0))))
        assert res.returncode == 1
        assert "error: the cost's mean overflows float64" in res.stderr
        assert "Warning" not in res.stderr

    def test_overflowing_cost_with_epsilon_solves_unannealed(self, tmp_path):
        # the mean of 1e308 entries leaves the annealing schedule no finite
        # start, so the solve is the unannealed one instead of never ending
        argv = _sinkhorn_argv(tmp_path, "--epsilon", "1",
                              cost=((0.0, 1e308), (1e308, 0.0)))
        res = run_cli(*argv, timeout=60)
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        _, meta = _parse_plan(res.stdout)
        assert meta["iterations"] == 59
        unannealed = run_cli(*argv[:1], "--no-anneal", *argv[1:], timeout=60)
        assert res.stdout == unannealed.stdout


class TestExperimentCommand:
    @pytest.mark.slow
    def test_default_config_report_layout(self, default_runs):
        lines = (default_runs[0] / "report.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 5 * 3
        conds = [line.split(",")[0] for line in lines[1:]]
        assert conds == [c for c in CONDITIONS for _ in range(3)]
        seeds = [int(line.split(",")[1]) for line in lines[1:]]
        assert seeds == [0, 1, 2] * 5

        summary = json.loads((default_runs[0] / "summary.json").read_text())
        assert set(summary) == {"config", "conditions", "seeds"}
        assert set(summary["conditions"]) == set(CONDITIONS)
        manifest = json.loads((default_runs[0] / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1, 2]
        assert manifest["version"] == __version__
        assert len(manifest["config_sha256"]) == 64

    @pytest.mark.slow
    def test_rerun_is_byte_identical_minus_timing(self, default_runs):
        first, rerun = default_runs
        assert (strip_wall_ms((first / "report.csv").read_text())
                == strip_wall_ms((rerun / "report.csv").read_text()))
        for name in ("summary.json", "manifest.json"):
            assert (first / name).read_bytes() == (rerun / name).read_bytes()

    @pytest.mark.slow
    def test_corrupt_config_reproduces_library_rows(self, corrupted_experiment,
                                                    tmp_path):
        """A corrupted-teacher CLI run must agree bit for bit with the
        in-process experiment (same seeds, same teachers), so the directional
        ordering established there carries over to the CLI verbatim."""
        cfgfile = tmp_path / "corrupt.cfg"
        cfgfile.write_text("gamma_f = 1.0\n"
                           "uncertainty_scale = 20.0\n"
                           "corrupt_noise_px = 20.0\n"
                           "corrupt_keypoints = 0,1,2\n"
                           "corrupt_teacher = true\n"
                           "num_seeds = 3\n")
        out = tmp_path / "out"
        res = run_cli("experiment", "--config", str(cfgfile), "--out", str(out))
        assert res.returncode == 0, res.stderr

        reports, _ = corrupted_experiment
        by_cond = {r.condition: r for r in reports}
        lines = (out / "report.csv").read_text().splitlines()[1:]
        assert len(lines) == 15
        for line in lines:
            cond, seed, kpt, add, e_r, e_t, epochs, _ = line.split(",")
            row = by_cond[cond].rows[int(seed)]
            assert row.seed == int(seed)
            # repr round-trips floats exactly: equality, not closeness
            assert (float(kpt), float(add), float(e_r), float(e_t)) == (
                row.kpt_err_px, row.add01d_rate, row.e_r_deg, row.e_t_m)
            assert int(epochs) == row.epochs

        means = {r.condition: float(np.mean([row.kpt_err_px for row in r.rows]))
                 for r in reports}
        assert means["UAKD"] < means["uniformOT"]
        assert means["UAKD+PFKD"] <= means["UAKD"]
        assert all(means[c] < means["noKD"] for c in CONDITIONS if c != "noKD")

    def test_divergence_preserves_partial_outputs(self, tmp_path):
        cfgfile = tmp_path / "div.cfg"
        # gamma_kpt=0 zeroes the whole objective: training cannot improve
        cfgfile.write_text(TINY_CFG + "gamma_kpt = 0\nepochs = 5\n")
        out = tmp_path / "out"
        res = run_cli("experiment", "--config", str(cfgfile), "--out", str(out))
        assert res.returncode == 3
        assert "failed to improve" in res.stderr
        assert "partial results" in res.stderr
        assert (out / "report.csv").read_text().splitlines() == [CSV_HEADER]
        assert (out / "manifest.json").exists()

    def test_untrusted_teacher_preserves_partial_outputs(self, tmp_path):
        cfgfile = tmp_path / "untrusted.cfg"
        # every teacher keypoint saturates u = 1, so with lam = 1 the UAKD
        # teacher marginal is all zero and the transport solve rejects it
        cfgfile.write_text(TINY_CFG + "lam = 1\nuncertainty_scale = 1\n"
                           "corrupt_noise_px = 10000\n"
                           "corrupt_keypoints = 0,1,2,3,4,5,6,7\n")
        out = tmp_path / "out"
        res = run_cli("experiment", "--config", str(cfgfile), "--corrupt",
                      "--out", str(out))
        assert res.returncode == 1
        assert "all zero" in res.stderr
        assert "partial results" in res.stderr
        lines = (out / "report.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["noKD", "uniformOT"]
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_any_failure_keeps_finished_rows(self, tmp_path, monkeypatch,
                                             capsys, exc):
        # the second row fails in a worker; its exception reaches the CLI
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CFG)
        report_row = harness._report_row

        def fail_second_row(condition, *args):
            if condition == CONDITIONS[1]:
                raise exc("injected")
            return report_row(condition, *args)

        monkeypatch.setattr(harness, "_report_row", fail_second_row)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "out"
        with pytest.raises(exc):
            cli.main(["experiment", "--config", str(cfgfile), "--out", str(out)])
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [ln.split(",")[0] for ln in lines[1:]] == ["noKD"]
        assert (out / "manifest.json").exists()
        assert not (out / "summary.json").exists()
        assert "partial results" in capsys.readouterr().err

    def test_dead_worker_keeps_finished_rows(self, tmp_path):
        # the second row's worker exits once the first row is back: the run
        # raises instead of waiting on it, and keeps the first row
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CFG)
        out, marker = tmp_path / "out", tmp_path / "first-row-done"
        code = f"""
import os, sys, time
from otkd import cli, harness
report_row = harness._report_row
def row(condition, *args):
    if condition == "uniformOT":
        while not os.path.exists({str(marker)!r}):
            time.sleep(0.01)
        time.sleep(0.5)  # the first row's result is in the pipe by now
        os._exit(9)
    result = report_row(condition, *args)
    open({str(marker)!r}, "w").close()
    return result
harness._report_row = row
os.sched_getaffinity = lambda pid: {{0, 1}}
sys.exit(cli.main(["experiment", "--config", {str(cfgfile)!r},
                   "--out", {str(out)!r}]))
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=120)
        assert res.returncode == 1
        assert "BrokenProcessPool" in res.stderr
        assert "partial results" in res.stderr
        lines = (out / "report.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["noKD"]
        assert (out / "manifest.json").exists()
        assert not (out / "summary.json").exists()

    def test_info_lines_name_their_row(self, tmp_path):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CFG + "num_seeds = 2\n")
        res = run_cli("experiment", "--config", str(cfgfile),
                      "--out", str(tmp_path / "out"),
                      env=dict(os.environ, OTKD_LOG="info"))
        assert res.returncode == 0, res.stderr
        final = [ln.split(": ", 1)[1] for ln in res.stderr.splitlines()
                 if ": final loss " in ln]
        rows = [f"{c} seed {s}" for c in CONDITIONS for s in (0, 1)]
        teachers = [f"teacher seed {10_000 + 97 * e}" for e in range(2)]
        assert sorted(ln.split(": ")[0] for ln in final) == sorted(teachers + rows)
        pose = [ln.split(": ", 1)[1] for ln in res.stderr.splitlines()
                if " pose solves " in ln]
        assert sorted(ln.split(": ")[0] for ln in pose) == sorted(rows)

    def test_nonfinite_teacher_exits_diverged(self, tmp_path, monkeypatch, capsys):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CFG)

        def nan_member_ensemble(cfg):
            teachers = make_teacher_ensemble(cfg)
            teachers[1].forward = nan_keypoints(teachers[1])
            return teachers

        monkeypatch.setattr(cli, "make_teacher_ensemble", nan_member_ensemble)
        out = tmp_path / "out"
        code = cli.main(["experiment", "--config", str(cfgfile), "--out", str(out)])
        assert code == 3
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [ln.split(",")[0] for ln in lines[1:]] == ["noKD"]
        assert (out / "manifest.json").exists()
        assert not (out / "summary.json").exists()
        err = capsys.readouterr().err
        assert "teacher member 1 predicted non-finite keypoints" in err
        assert "partial results" in err

    @pytest.mark.parametrize("line,fragment", [
        ("bogus_key = 3", "unknown key 'bogus_key'"),
        ("gamma_distill = 1", "unknown key 'gamma_distill'"),
        ("lam = 1.5", "lam"),
        ("epochs = soon", "soon"),
        ("num_seeds = many", "many"),
        ("just words", "expected key=value"),
    ])
    def test_config_file_rejects(self, tmp_path, line, fragment):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        res = run_cli("experiment", "--config", str(cfgfile),
                      "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert fragment in res.stderr
        assert "error:" in res.stderr and "Traceback" not in res.stderr

    def test_seed_flag_offsets_every_row(self, tmp_path):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CFG + "num_seeds = 2\n")
        out = tmp_path / "out"
        res = run_cli("experiment", "--config", str(cfgfile), "--seed", "7",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [7, 8]
        seeds = {int(l.split(",")[1])
                 for l in (out / "report.csv").read_text().splitlines()[1:]}
        assert seeds == {7, 8}


@pytest.fixture(scope="module")
def pnp_files(tmp_path_factory):
    """A noiseless correspondence file with its generating pose."""
    root = tmp_path_factory.mktemp("pnp")
    rng = np.random.default_rng(3)
    pose = sample_pose(rng)
    model = box_model()
    cam = default_camera()
    pts = project(model, pose, cam).points
    corr = root / "corr.csv"
    np.savetxt(corr, np.hstack([pts, model.points]), delimiter=",")
    camf = root / "cam.csv"
    camf.write_text(f"{cam.fx},{cam.fy},{cam.cx},{cam.cy}\n")
    return corr, camf, pose, cam


def _parse_pose(stdout):
    fields = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(":")
        fields[key] = [float(tok) for tok in rest.split()]
    return (Pose(np.array(fields["rotation"]).reshape(3, 3),
                 np.array(fields["translation"])),
            fields["reprojection_rms_px"][0])


class TestPnpCommand:
    def test_round_trip_recovers_embedded_pose(self, pnp_files):
        corr, camf, gt_pose, _ = pnp_files
        res = run_cli("pnp", str(corr), str(camf))
        assert res.returncode == 0, res.stderr
        pred, rms = _parse_pose(res.stdout)
        e_t, e_r, _ = pose_errors(pred, gt_pose)
        assert e_r < 1e-6
        assert e_t < 1e-9
        assert rms < 1e-8

    def test_weight_column_accepted(self, pnp_files, tmp_path):
        corr, camf, gt_pose, _ = pnp_files
        data = np.loadtxt(corr, delimiter=",")
        weighted = tmp_path / "weighted.csv"
        np.savetxt(weighted, np.hstack([data, np.ones((len(data), 1))]),
                   delimiter=",")
        res = run_cli("pnp", str(weighted), str(camf))
        assert res.returncode == 0, res.stderr
        pred, _ = _parse_pose(res.stdout)
        _, e_r, _ = pose_errors(pred, gt_pose)
        assert e_r < 1e-6

    def test_five_correspondences_rejected(self, pnp_files, tmp_path):
        corr, camf, _, _ = pnp_files
        short = tmp_path / "five.csv"
        np.savetxt(short, np.loadtxt(corr, delimiter=",")[:5], delimiter=",")
        res = run_cli("pnp", str(short), str(camf))
        assert res.returncode == 1
        assert "at least 6" in res.stderr and "got 5" in res.stderr

    def test_collinear_points_exit_numeric(self, pnp_files, tmp_path):
        corr, camf, gt_pose, cam = pnp_files
        t = np.linspace(-0.5, 0.5, 8)[:, None]
        line3d = np.array([0.06, 0.04, 0.10]) * t
        pts = project(Model3D(line3d), gt_pose, cam).points
        bad = tmp_path / "collinear.csv"
        np.savetxt(bad, np.hstack([pts, line3d]), delimiter=",")
        res = run_cli("pnp", str(bad), str(camf))
        assert res.returncode == 2

    def test_camera_file_needs_four_values(self, pnp_files, tmp_path):
        corr, _, _, _ = pnp_files
        camf = tmp_path / "cam3.csv"
        camf.write_text("220.0,220.0,32.0\n")
        res = run_cli("pnp", str(corr), str(camf))
        assert res.returncode == 1
        assert "fx,fy,cx,cy" in res.stderr

    def test_behind_camera_maps_to_numeric_exit(self, pnp_files, monkeypatch,
                                                capsys):
        corr, camf, _, _ = pnp_files

        def explode(_):
            raise DegenerateGeometry("point at non-positive depth")

        monkeypatch.setattr(cli, "pnp_solve", explode)
        assert cli.main(["pnp", str(corr), str(camf)]) == 2
        assert "non-positive depth" in capsys.readouterr().err

    def test_overflowing_pixel_is_degenerate(self, pnp_files, tmp_path):
        res = run_cli(*_pnp_argv(tmp_path, pnp_files, col=0, value=1e200))
        assert res.returncode == 2
        assert "error: point coordinates overflow" in res.stderr
        assert "Traceback" not in res.stderr


def _sinkhorn_argv(tmp_path, *flags, cost=((0.0, 1.0), (1.0, 0.0)),
                   a=(0.5, 0.5)):
    return ["sinkhorn", *flags,
            *_write_instance(tmp_path, np.array(cost), np.array(a), [0.5, 0.5])]


def _pnp_argv(tmp_path, pnp_files, col=5, value=1.0, cam=None):
    """The fixture's correspondences with a weight column of ones, entry
    `col` of the first row set to `value`; `cam` replaces the camera file."""
    corr, camf, _, _ = pnp_files
    data = np.loadtxt(corr, delimiter=",")
    data = np.hstack([data, np.ones((len(data), 1))])
    data[0, col] = value
    corrf = tmp_path / "corr.csv"
    np.savetxt(corrf, data, delimiter=",")
    if cam is not None:
        camf = tmp_path / "cam.csv"
        camf.write_text(cam + "\n")
    return ["pnp", str(corrf), str(camf)]


@pytest.mark.parametrize("make_argv", [
    lambda tmp, _: _sinkhorn_argv(tmp, "--tau", "0"),
    lambda tmp, _: _sinkhorn_argv(tmp, "--epsilon", "-1"),
    lambda tmp, _: _sinkhorn_argv(tmp, "--max-iters", "0"),
    lambda tmp, _: _sinkhorn_argv(tmp, "--tol", "0"),
    lambda tmp, _: _sinkhorn_argv(tmp, cost=((0.0, -1.0), (1.0, 0.0))),
    lambda tmp, _: _sinkhorn_argv(tmp, cost=((0.0, np.nan), (1.0, 0.0))),
    lambda tmp, _: _sinkhorn_argv(tmp, a=(0.5, np.nan)),
    lambda tmp, pnp: _pnp_argv(tmp, pnp, value=-1.0),
    lambda tmp, pnp: _pnp_argv(tmp, pnp, value=np.nan),
    lambda tmp, pnp: _pnp_argv(tmp, pnp, col=0, value=np.nan),
    lambda tmp, pnp: _pnp_argv(tmp, pnp, col=2, value=np.nan),
    lambda tmp, pnp: _pnp_argv(tmp, pnp, col=3, value=np.inf),
    lambda tmp, pnp: _pnp_argv(tmp, pnp, cam="0,220,32,32"),
    lambda tmp, _: _sinkhorn_argv(tmp, "--epsilon", "inf"),
    lambda tmp, _: _sinkhorn_argv(tmp, "--tol", "inf"),
    lambda tmp, _: _sinkhorn_argv(tmp, cost=((0.0, 1e308), (1e308, 0.0))),
    lambda tmp, _: ["experiment", "--gamma-p", "nan", "--out", str(tmp / "out")],
    lambda tmp, _: ["experiment", "--learning-rate", "inf", "--out", str(tmp / "out")],
    lambda tmp, _: ["experiment", "--seed", "-1", "--out", str(tmp / "out")],
], ids=["tau-zero", "epsilon-negative", "max-iters-zero", "tol-zero",
        "negative-cost", "nan-cost", "nan-sinkhorn-weight", "negative-pnp-weight",
        "nan-pnp-weight", "nan-pixel", "nan-3d", "inf-3d", "fx-zero",
        "epsilon-inf", "tol-inf", "overflowing-cost", "nan-gamma-p",
        "inf-learning-rate", "negative-seed"])
def test_bad_input_is_usage_error(tmp_path, pnp_files, make_argv):
    res = run_cli(*make_argv(tmp_path, pnp_files))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_too_few_keypoints_fail_before_training(tmp_path):
    # the pose check runs before the ensemble trains, and nothing is written
    out = tmp_path / "out"
    res = run_cli("experiment", "--num-keypoints", "5", "--out", str(out),
                  env=dict(os.environ, OTKD_LOG="info"))
    assert res.returncode == 1
    assert "error: pose evaluation needs num_keypoints >= 6" in res.stderr
    assert "training" not in res.stderr
    assert not out.exists()


class TestTopLevel:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["sinkhorn", "--help"], ["experiment", "--help"],
        ["pnp", "--help"],
    ])
    def test_help(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 0
        assert "usage" in res.stdout

    @pytest.mark.parametrize("argv", [
        ["--version"], ["sinkhorn", "--version"], ["experiment", "--version"],
        ["pnp", "--version"],
    ])
    def test_version(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 0
        assert res.stdout.strip() == f"otkd {__version__}"

    def test_unknown_flag_is_usage_error(self, tmp_path):
        paths = _write_instance(tmp_path, [[0.0]], [1.0], [1.0])
        res = run_cli("sinkhorn", "--bogus", *paths)
        assert res.returncode == 1
        assert "unrecognized arguments" in res.stderr

    def test_missing_command_is_usage_error(self):
        res = run_cli()
        assert res.returncode == 1

    def test_log_env_var_enables_info_lines(self, tmp_path):
        paths = _write_instance(tmp_path, [[0.0]], [1.0], [1.0])
        env = dict(os.environ, OTKD_LOG="info")
        res = run_cli("sinkhorn", *paths, env=env)
        assert res.returncode == 0
        assert "INFO otkd" in res.stderr
