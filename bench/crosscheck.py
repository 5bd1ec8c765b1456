"""Cross-checks the traced Sinkhorn counts against counts taken independently.

    python3 bench/crosscheck.py

Trains criterion-7's corrupted-teacher ensemble (config seed 0), then one
UAKD row and one UAKD+PFKD row for student seed 0 under the benchmark's
tracer.  Two independent counts stand beside the traced ones: the figures
recorded for this code before the benchmark existed, and a second hook on
the batched solver's log-sum-exp helper, which runs twice per iteration.
The recorded figures belong to the code they were taken on; a commit that
changes the solver or the training loop is expected to differ from them.
Exits 1 when any count disagrees.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import Tracer  # noqa: E402
from otkd import harness  # noqa: E402
from workloads import EXPERIMENT_CFG  # noqa: E402

# (calls, iterations, unconverged calls) of sinkhorn_unbalanced_batch
RECORDED = {"UAKD": (251, 37976, 30), "UAKD+PFKD": (251, 40183, 33)}
HALF_ITERATION = ("sinkhorn.lse", "otkd.sinkhorn", "_logsumexp_keep", None)


def main() -> int:
    teachers = harness.make_teacher_ensemble(EXPERIMENT_CFG)
    ok = True
    for condition, recorded in RECORDED.items():
        tracer = Tracer()
        hook = Tracer((HALF_ITERATION,))
        with tracer, hook:
            harness.run_experiment(condition, EXPERIMENT_CFG,
                                   corrupt_teacher=True, seeds=[0],
                                   teachers=teachers)
        st = tracer.stats["sinkhorn.batch"]
        traced = (st.calls, st.counts["iters"], st.counts["unconverged"])
        lse = hook.stats.get("sinkhorn.lse")
        hooked = None if lse is None else lse.calls // 2
        agree = traced == recorded and hooked in (None, traced[1])
        ok &= agree
        print(f"{'PASS' if agree else 'FAIL'} {condition} seed 0: traced "
              f"calls/iters/unconverged {traced}, recorded {recorded}, "
              f"iterations from the log-sum-exp hook "
              f"{'absent' if hooked is None else hooked}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
