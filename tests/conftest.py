"""Session fixtures shared by the CLI and acceptance suites.

Both heavy artifacts here exist so the expensive runs happen once:
the corrupted-teacher experiment (ten seeds, all five conditions) and a
pair of identical default-config CLI runs used for rerun determinism.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from otkd.harness import (CONDITIONS, TrainingConfig, make_teacher_ensemble,
                          run_experiment)

SRC = Path(__file__).resolve().parent.parent / "src"

# The corrupted-teacher experiment configuration.  corrupt_noise_px sits
# where suppressing the corrupted columns clearly beats carrying them, yet
# carrying them still beats no distillation at all — much milder corruption
# is *useful* to a uniform-weight student (the OT pull per epoch is a bounded
# ~1 px step toward an independent estimate, which reduces label-noise error
# unless the target is badly off).  gamma_f=1.0 was meant to give the
# feature term a visible effect on a 16x16 grid, but measured on students
# 0-2 it does not: at epoch 0 the feature term's gradient at the backbone
# weight is 6e-5 against 166-378 for the keypoint terms, the channel
# projection moves by 0.10% of its norm over training, and the feature loss
# rises from 1.0e-4 to about 4e-3 instead of falling.  PFKD rows differ from
# noKD rows by amplified rounding only.
EXPERIMENT_CFG = TrainingConfig(gamma_f=1.0, uncertainty_scale=20.0,
                                corrupt_noise_px=20.0,
                                corrupt_keypoints=(0, 1, 2))
EXPERIMENT_SEEDS = list(range(10))


@pytest.fixture(scope="session")
def corrupted_experiment():
    """(reports, wall_seconds): five conditions over ten seeds, one shared
    teacher ensemble, one corrupted member."""
    start = time.perf_counter()
    teachers = make_teacher_ensemble(EXPERIMENT_CFG)
    reports = [run_experiment(c, EXPERIMENT_CFG, corrupt_teacher=True,
                              seeds=EXPERIMENT_SEEDS, teachers=teachers)
               for c in CONDITIONS]
    return reports, time.perf_counter() - start


def run_cli(*argv: str, env: dict | None = None,
            timeout: float | None = None) -> subprocess.CompletedProcess:
    """`python -m otkd.cli` on this checkout's sources, with `env` (default:
    this process's environment) plus `src` first on PYTHONPATH; a run longer
    than `timeout` seconds raises `subprocess.TimeoutExpired`."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "otkd.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def strip_wall_ms(csv_text: str) -> list[str]:
    """Report lines minus the trailing wall-clock column."""
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """Two identical default-config experiment runs, three seeds each."""
    outs = []
    for name in ("first", "rerun"):
        out = tmp_path_factory.mktemp("default-exp") / name
        res = run_cli("experiment", "--num-seeds", "3", "--out", str(out))
        assert res.returncode == 0, res.stderr
        outs.append(out)
    return outs
