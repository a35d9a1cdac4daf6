"""Span recorder and self-time reducer for the traced benchmark run.

The recorder wraps public granet functions at the module attributes the
pipeline looks them up through, keeps one span per call (name, start, end,
parent) in memory and puts the originals back when it is closed, also when
the traced operation raises.  Work counters are computed from call
arguments (and, for trajectory files, the size of the file written), never
from timings.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    failed: bool = False
    work: dict = field(default_factory=dict)


def _epochs(args, result):
    return {"epochs": int(args["n_steps"])}


def _pairs(args, result):
    n_pairs = args["n_pairs"]
    return {"pairs": args["traj"].n_steps if n_pairs is None else int(n_pairs)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _partial_name(args):
    return f"estimators.{args['kind']}_partial"


_SMALL_WRITES = ("save_graph", "save_matrix", "save_lag_matrices",
                 "save_estimate_report", "save_recovery_metrics",
                 "save_assumption_report", "save_profile")

#: (defining module, function, span name or name-from-arguments, work
#: counter).  Each function is patched in its defining module and in every
#: granet module that imports it by name, such as ``simulate`` in the
#: package root, ``experiments`` and ``cli``.
TARGETS = (
    ("granet.dynamics", "simulate", "dynamics.simulate", _epochs),
    ("granet.experiments", "run_experiment", "experiments.run_experiment", None),
    ("granet.lagmoments", "from_trajectory", "lagmoments.from_trajectory", _pairs),
    ("granet.lagmoments", "accumulate", "lagmoments.accumulate", None),
    ("granet.lagmoments", "omega_tail_index", "lagmoments.omega_tail_index", _pairs),
    ("granet.recovery", "assumption_report", "recovery.assumption_report", None),
    ("granet.recovery", "classify_edges", "recovery.classify_score", None),
    ("granet.recovery", "score", "recovery.classify_score", None),
    ("granet.estimators", "egg_from_trajectory", "estimators.egg", None),
    ("granet.estimators", "granger_estimate", "estimators.granger", None),
    ("granet.estimators", "correlation_estimate", "estimators.correlation", None),
    ("granet.estimators", "precision_estimate", "estimators.precision", None),
    ("granet.estimators", "least_squares_estimate", "estimators.least_squares", None),
    ("granet.estimators", "partial_estimate", _partial_name, None),
    ("granet.fileio", "save_trajectory", "fileio.save_trajectory", _file_bytes),
    ("granet.fileio", "load_trajectory", "fileio.load_trajectory", None),
) + tuple(("granet.fileio", attr, "fileio.small_writes", None)
          for attr in _SMALL_WRITES)

ESTIMATOR_KINDS = ("egg", "granger", "correlation", "precision",
                   "least_squares", "egg_partial")

#: Per-layer metrics of one traced operation: name -> (unit, better).
PER_LAYER = {
    "dynamics.simulate.self_s": ("s", "lower"),
    "dynamics.simulate.calls": ("count", "lower"),
    "dynamics.simulate.epochs": ("count", "lower"),
    "dynamics.simulate.us_per_epoch": ("us", "lower"),
    "lagmoments.from_trajectory.self_s": ("s", "lower"),
    "lagmoments.from_trajectory.calls": ("count", "lower"),
    "lagmoments.passes": ("count", "lower"),
    "lagmoments.accumulate.self_s": ("s", "lower"),
    "lagmoments.accumulate.calls": ("count", "lower"),
    "lagmoments.omega_tail_index.self_s": ("s", "lower"),
    "recovery.assumption_report.self_s": ("s", "lower"),
    **{f"estimators.{kind}.self_s": ("s", "lower") for kind in ESTIMATOR_KINDS},
    "estimators.failed": ("count", "lower"),
    "recovery.classify_score.self_s": ("s", "lower"),
    "fileio.save_trajectory.self_s": ("s", "lower"),
    "fileio.load_trajectory.self_s": ("s", "lower"),
    "fileio.trajectory_bytes": ("bytes", "lower"),
    "fileio.small_writes.self_s": ("s", "lower"),
    "fileio.small_writes.calls": ("count", "lower"),
    "experiments.run_experiment.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Recorder:
    """Patches the traced functions while open; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Recorder":
        originals = [(getattr(importlib.import_module(module_name), attr),
                      attr, name, work)
                     for module_name, attr, name, work in TARGETS]
        modules = [module for module_name, module in list(sys.modules.items())
                   if module_name.partition(".")[0] == "granet"]
        try:
            for original, attr, name, work in originals:
                traced = self._wrap(original, name, work)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, traced)
                        self._saved.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, work):
        signature = inspect.signature(fn) if work or callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span_name = name(arguments) if callable(name) else name
            parent = self._open[-1] if self._open else None
            # A call made inside an open span of the same layer (say
            # save_matrix inside save_estimate_report, or the egg pass inside
            # partial_estimate) is part of that span's work.
            if parent is not None and (self.spans[parent].name.split(".")[0]
                                       == span_name.split(".")[0]):
                return fn(*args, **kwargs)
            span = Span(span_name, time.perf_counter(), parent)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if work is not None:
                span.work = work(arguments, result)
            return result

        return traced


def reduce_spans(spans: list[Span], trajectory_steps: int) -> dict[str, float]:
    """Per-layer metrics of one operation, all but ``trace.overhead_s``.

    A span's self time is its duration minus the durations of its child
    spans; spans of one thread nest, so the children never overlap.
    ``lagmoments.passes`` is the number of pairs walked by chunked moment
    passes divided by the workload's trajectory length.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span.end - span.start
        self_s[span.name] += duration
        if span.parent is not None:
            self_s[spans[span.parent].name] -= duration
        calls[span.name] += 1
        failed[span.name] += span.failed
        for key, value in span.work.items():
            work[f"{span.name}.{key}"] += value
    epochs = work["dynamics.simulate.epochs"]
    pairs = (work["lagmoments.from_trajectory.pairs"]
             + work["lagmoments.omega_tail_index.pairs"])
    metrics = {
        "dynamics.simulate.calls": calls["dynamics.simulate"],
        "dynamics.simulate.epochs": epochs,
        "dynamics.simulate.us_per_epoch":
            1e6 * self_s["dynamics.simulate"] / epochs if epochs else 0.0,
        "lagmoments.from_trajectory.calls": calls["lagmoments.from_trajectory"],
        "lagmoments.passes": pairs / trajectory_steps if trajectory_steps else 0.0,
        "lagmoments.accumulate.calls": calls["lagmoments.accumulate"],
        "estimators.failed": sum(count for name, count in failed.items()
                                 if name.startswith("estimators.")),
        "fileio.trajectory_bytes": work["fileio.save_trajectory.bytes"],
        "fileio.small_writes.calls": calls["fileio.small_writes"],
    }
    for metric in PER_LAYER:
        if metric.endswith(".self_s"):
            metrics[metric] = self_s[metric.removesuffix(".self_s")]
    return metrics
