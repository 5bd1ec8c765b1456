"""The benchmark's per-layer hooks resolve against the program.

`bench/layers.py` wraps program functions by the names they are looked up
under, and `bench/crosscheck.py` hooks the log-sum-exp helper that runs twice
per log-domain Sinkhorn iteration: every iteration of the single solver, and
each absorption step of the batched one, whose other iterations run in the
scaling domain.  A rename that the benchmark does not follow is reported
there as an absent layer and reads 0, so these tests import the benchmark's
own files, unchanged, and fail instead.
"""
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from otkd import harness, sinkhorn
from test_harness import TINY, _student_and_batch, _synthetic_targets

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return (importlib.import_module("layers"),
            importlib.import_module("crosscheck"))


def test_every_layer_resolves(bench):
    layers, crosscheck = bench
    _, absent = layers.resolve()
    assert absent == []
    _, absent = layers.resolve((crosscheck.HALF_ITERATION,))
    assert absent == []


def test_hooks_count_one_solve(bench, monkeypatch):
    layers, crosscheck = bench
    cfg = dataclasses.replace(TINY, gamma_f=0.0)
    student, x, labels = _student_and_batch(cfg)
    targets = _synthetic_targets(cfg, student, x, np.random.default_rng(3))
    log_steps = []
    iterate = sinkhorn._iterate

    def counted(*args):
        out = iterate(*args)
        log_steps.append(out[2])
        return out

    monkeypatch.setattr(sinkhorn, "_iterate", counted)
    tracer = layers.Tracer()
    hook = layers.Tracer((crosscheck.HALF_ITERATION,))
    with tracer, hook:
        res = harness.total_loss(student, x, labels, targets, cfg)
    batch = tracer.stats["sinkhorn.batch"]
    assert "sinkhorn.batch" not in tracer.broken_counters
    assert batch.calls == 1
    assert batch.counts == {"iters": res.iterations,
                            "unconverged": int(not res.converged)}
    # the hook counts the batch's log-domain (absorption) steps only
    assert 0 < sum(log_steps) < res.iterations
    assert hook.stats["sinkhorn.lse"].calls == 2 * sum(log_steps)
    # the conv counters read Conv2d.forward's result and backward's gradient
    # argument; a signature they no longer fit would zero regressor.conv.gflop
    assert "regressor.conv" not in tracer.broken_counters
    assert tracer.stats["regressor.conv"].counts["flop"] > 0


def test_hooks_count_one_annealed_single_solve(bench):
    # the solve workload's solver, looked up where bench/workloads.py does
    layers, crosscheck = bench
    rng = np.random.default_rng(5)
    cost = rng.uniform(0.1, 1.0, (6, 7))
    b = np.full(7, 1 / 6)
    b[3] = 0.0
    tracer = layers.Tracer()
    hook = layers.Tracer((crosscheck.HALF_ITERATION,))
    with tracer, hook:
        plan = sinkhorn.sinkhorn_unbalanced(cost, np.full(6, 1 / 6), b)
    assert sinkhorn.default_config(cost).anneal
    single = tracer.stats["sinkhorn.single"]
    assert "sinkhorn.single" not in tracer.broken_counters
    assert single.calls == 1
    assert single.counts == {"iters": plan.iterations,
                             "unconverged": int(not plan.converged)}
    assert hook.stats["sinkhorn.lse"].calls == 2 * plan.iterations
