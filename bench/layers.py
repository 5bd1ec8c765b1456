"""Per-layer spans recorded from outside the program.

The harness binds its imports by name, so each layer is wrapped where it is
looked up: ``otkd.harness.sinkhorn_unbalanced_batch`` rather than the
definition in ``otkd.sinkhorn``.  A name that a later commit has moved or
deleted is reported as an absent layer instead of stopping the run, and so
is a counter whose return value no longer has the expected shape.

Spans nest: a layer's self time is its duration minus the time its direct
child spans cover.  Everything is kept in memory and read out once.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


def _batch_counts(result, args, kwargs):
    # (plans, f, g, iterations, all_converged)
    return {"iters": int(result[3]), "unconverged": int(not result[4])}


def _plan_counts(result, args, kwargs):
    return {"iters": int(result.iterations),
            "unconverged": int(not result.converged)}


def _conv_forward_flop(result, args, kwargs):
    # one multiply-add per output element and weight column
    return {"flop": 2 * result.size * args[0].weight.shape[-1]}


def _conv_backward_flop(result, args, kwargs):
    # weight gradient and column gradient: two matmuls of the forward's size
    return {"flop": 4 * args[1].size * args[0].weight.shape[-1]}


# (span name, module, attribute looked up there, counter extractor)
TARGETS = (
    ("sinkhorn.batch", "otkd.harness", "sinkhorn_unbalanced_batch", _batch_counts),
    ("sinkhorn.single", "otkd.sinkhorn", "sinkhorn_unbalanced", _plan_counts),
    ("regressor.forward", "otkd.regressor", "ToyRegressor.forward", None),
    ("regressor.backward", "otkd.regressor", "ToyRegressor.backward", None),
    ("regressor.gd_step", "otkd.regressor", "ToyRegressor.gd_step", None),
    ("regressor.conv", "otkd.regressor", "Conv2d.forward", _conv_forward_flop),
    ("regressor.conv", "otkd.regressor", "Conv2d.backward", _conv_backward_flop),
    ("harness.total_loss", "otkd.harness", "total_loss", None),
    ("harness.prepare_targets", "otkd.harness", "prepare_targets", None),
    ("harness.evaluate_student", "otkd.harness", "evaluate_student", None),
    ("harness.make_teacher_ensemble", "otkd.harness", "make_teacher_ensemble", None),
    ("harness.make_scenes", "otkd.harness", "make_scenes", None),
    ("pnp.pnp_solve", "otkd.harness", "pnp_solve", _plan_counts),
    ("uncertainty.aggregate", "otkd.harness", "aggregate", None),
)


_INHERITED = object()


@dataclass
class SpanStats:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def resolve(targets=TARGETS):
    """(owner object, attribute name, span, extractor) for every target that
    exists, and the dotted names of those that do not."""
    found, absent = [], []
    for span, module_name, path, extract in targets:
        where = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(where)
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            absent.append(where)
            continue
        found.append((owner, attr, span, extract))
    return found, absent


class Tracer:
    """Wraps the resolved layers while installed; records per-span totals."""

    def __init__(self, targets=TARGETS):
        self.resolved, self.absent = resolve(targets)
        self.stats: dict[str, SpanStats] = {}
        self.broken_counters: set[str] = set()
        self._stack: list[list[float]] = []   # child time of each open span
        self._saved: list[tuple] = []

    def _wrap(self, fn, span, extract):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                stats.s += elapsed
                stats.self_s += elapsed - children
                stats.calls += 1
            if extract is not None and span not in self.broken_counters:
                try:
                    for key, value in extract(result, args, kwargs).items():
                        stats.counts[key] = stats.counts.get(key, 0) + value
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken_counters.add(span)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, span, extract in self.resolved:
            # an inherited method has no entry of its own to put back
            self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), span, extract))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
