"""Benchmark of the otkd package: one workload per process.

    python3 bench/run.py --workload distill --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; `otkd` is imported from `src/`.
With `--trace 0` the workload's operations run back to back for `--seconds`
and the end-to-end metrics are reported.  With `--trace 1` the set-up runs
once with every layer wrapped, then a fixed prefix of the operation stream
runs twice, plain and wrapped, and the per-layer metrics are reported; the
two runs of each operation must produce identical results.  The last line of standard output is the result object;
the line before it records the environment and per-operation details.
See bench/README.md for the metrics and what each layer should move.
"""
from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "otkd").is_dir():
    sys.exit(f"bench: no otkd sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _START

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
              "peak_rss_mb": "MB"}
# details printed beside the result; they vary with the seed far more than
# any bound on a timing
QUALITY = ("kpt_err_px", "add01d_rate", "teacher_err_px")
MAX_LISTED_OPS = 20
# ops beyond the tail percentile, as the metrics guide asks
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "commit": _git_commit(),
            "loadavg": list(os.getloadavg())}


def _attempt(workload, index):
    """Runs one operation; a raise is a failed operation, not a crash."""
    try:
        return workload.op(index)
    except Exception as exc:  # noqa: BLE001 - every raise counts as a failure
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(value=None, problems=[f"raised {exc!r}"])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _quality(infos: list[dict]) -> dict:
    out = {}
    for key in QUALITY:
        vals = [v for info in infos if key in info
                for v in (info[key] if isinstance(info[key], list) else [info[key]])]
        if vals:
            out[key] = sum(vals) / len(vals)
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _tally(checked: list) -> dict:
    """correct/attempted/failed over every checked outcome; set-ups that
    train teachers count as operations."""
    failed = sum(bool(out.problems) for out in checked)
    return {"correct": failed == 0, "attempted": len(checked), "failed": failed}


def _problems(checked: list) -> list[str]:
    return [p for out in checked for p in out.problems]


def run_plain(workload, seconds):
    setups, checked = [], []
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        out = workload.setup()
        setups.append(time.perf_counter() - start)
        if out is not None:
            checked.append(out)
    setup_infos = [out.info for out in checked[-1:]]

    latencies = []
    start = time.perf_counter()
    while (len(latencies) % workload.op_multiple
           or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        out = _attempt(workload, len(latencies))
        latencies.append(1000.0 * (time.perf_counter() - t0))
        out.info["ms"] = latencies[-1]
        checked.append(out)

    op_infos = [out.info for out in checked[-len(latencies):]]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": IMPORT_S + statistics.median(setups),
        "op_ms.p50": statistics.median(latencies),
        "op_ms.tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"import_s": IMPORT_S, "setup_s": setups,
               "ops": len(latencies), "tail_percentile": tail_pct,
               "tail_beyond": min(TAIL_BEYOND, len(latencies) - 1),
               "quality": _quality(setup_infos + op_infos),
               "op_details": op_infos[:MAX_LISTED_OPS],
               "problems": _problems(checked)}
    result = dict(_tally(checked),
                  metrics={k: _metric(v, END_TO_END[k]) for k, v in metrics.items()})
    return result, details


def run_traced(workload):
    """One traced set-up, then each operation of a fixed prefix runs plain and
    traced, alternating which goes first; their values must be identical."""
    tracer = layers.Tracer()
    with tracer:
        out = workload.setup()
    checked = [] if out is None else [out]
    elapsed = {False: 0.0, True: 0.0}
    for index in range(workload.trace_ops):
        outcomes = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced:
                with tracer:
                    outcomes[traced] = _attempt(workload, index)
            else:
                outcomes[traced] = _attempt(workload, index)
            elapsed[traced] += time.perf_counter() - t0
        problems = outcomes[False].problems + outcomes[True].problems
        if outcomes[False].value != outcomes[True].value:
            problems.append(f"op {index}: traced result differs from plain")
        checked.append(workloads.Outcome(value=None, problems=problems))
    overhead = elapsed[True] / elapsed[False] - 1.0
    details = {"plain_s": elapsed[False], "traced_s": elapsed[True],
               "absent_layers": tracer.absent,
               "absent_counters": sorted(tracer.broken_counters),
               "problems": _problems(checked)}
    result = dict(_tally(checked),
                  metrics=layer_metrics(tracer, overhead, workload.trace_ops))
    return result, details


def layer_metrics(tracer, overhead: float, ops: int) -> dict:
    """Every per-layer metric; a layer that never ran, or is absent, reads 0."""
    out = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    def span(name):
        return tracer.stats.get(name, layers.SpanStats())

    for solver in ("sinkhorn.batch", "sinkhorn.single"):
        st = span(solver)
        iters = st.counts.get("iters", 0)
        put(f"{solver}.s", st.s, "s")
        put(f"{solver}.calls", st.calls, "count")
        put(f"{solver}.iters", iters, "count")
        put(f"{solver}.unconverged", st.counts.get("unconverged", 0), "count")
        put(f"{solver}.us_per_iter", 1e6 * st.s / iters if iters else 0.0, "us")
    for name in ("regressor.forward", "regressor.backward"):
        put(f"{name}.s", span(name).s, "s")
        put(f"{name}.calls", span(name).calls, "count")
    put("regressor.gd_step.s", span("regressor.gd_step").s, "s")
    put("regressor.conv.s", span("regressor.conv").s, "s")
    put("regressor.conv.gflop",
        span("regressor.conv").counts.get("flop", 0) / 1e9, "GFLOP-computed")
    put("harness.total_loss.calls", span("harness.total_loss").calls, "count")
    put("harness.total_loss.self_s", span("harness.total_loss").self_s, "s")
    for name in ("harness.prepare_targets", "harness.evaluate_student",
                 "harness.make_teacher_ensemble", "harness.make_scenes",
                 "uncertainty.aggregate"):
        put(f"{name}.s", span(name).s, "s")
    st = span("pnp.pnp_solve")
    put("pnp.pnp_solve.s", st.s, "s")
    put("pnp.pnp_solve.calls", st.calls, "count")
    put("pnp.pnp_solve.iters", st.counts.get("iters", 0), "count")
    put("pnp.pnp_solve.unconverged", st.counts.get("unconverged", 0), "count")
    put("trace.overhead", overhead, "ratio")
    put("trace.ops", ops, "count")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        result, details = run_traced(workload)
    else:
        absent = layers.resolve()[1]
        result, details = run_plain(workload, args.seconds)
        details["absent_layers"] = absent
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment(),
                      "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
