"""Spans and counters around the calls into each layer of mtlgrouping.

Nothing inside the package is changed: a ``Tracer`` rebinds the public
functions that one module calls in another, in every module that calls them
(a name imported with ``from x import f`` has to be rebound in the importing
module, a name called as ``module.f`` on the module itself), and restores the
originals on exit. Each wrapper records one span: its duration is added to the
function's time metric when no span of the same metric is already open, and
its self time (duration minus the time of the spans it encloses) to the layer
that defines the function, which gives each layer's share of op time.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from math import comb

from mtlgrouping import affinity, ensemble, experiment, gains, ridge, selector

LAYERS = ("engine", "gains", "affinity", "ridge", "splines", "ensemble", "selector",
          "suite", "experiment")


def _steps(datasets, task, config) -> int:
    n_train = datasets[task].rows("train")[1].size
    return config.epochs * -(-n_train // config.batch_size)


def _train_mtl_counts(stats, args, result):
    group, datasets, config = args[0], args[1], args[2]
    stats["engine.train_calls"] += 1
    stats["engine.task_steps"] += _steps(datasets, min(group), config) * len(set(group))


def _gains_train_mtl_counts(stats, args, result):
    _train_mtl_counts(stats, args, result)
    stats["gains.groups_measured"] += 1
    stats.measured.add((args[2].seed, tuple(sorted(set(args[0])))))


def _train_stl_counts(stats, args, result):
    task, dataset, config = args
    stats["engine.train_calls"] += 1
    stats["engine.task_steps"] += _steps({task: dataset}, task, config)
    stats["gains.stl_trained"] += 1


def _trace_bytes(stats, args, result):
    stats["engine.trace_bytes"] += os.path.getsize(args[1])


def _basis_counts(stats, args, result):
    stats["splines.basis_calls"] += 1
    stats["splines.basis_rows"] += result.shape[0]


def _exhaustive_counts(stats, args, result):
    problem = args[0]
    m = len(problem.candidates)
    stats["selector.candidates"] += m
    stats["selector.exhaustive_subsets"] += sum(
        comb(m, k) for k in range(min(problem.budget, m) + 1))


def _count(name):
    def counts(stats, args, result):
        stats[name] += 1
    return counts


def _stage_key(args) -> str:
    return f"experiment.stage.{args[0]}_s"


def _candidate_count(stats, args, result):
    stats["selector.candidates"] += len(args[0].candidates)


# (owner, attribute, layer, time metric or None, counter or None); the owner
# is the module (or class) whose attribute the calling code looks up
SPANS = (
    (experiment, "run_stage", "experiment", _stage_key, None),
    (experiment, "generate_suite", "suite", "suite.generate_s", None),
    (experiment, "save_suite", "suite", "suite.io_s", None),
    (experiment, "load_suite", "suite", "suite.io_s", None),
    (experiment, "train_mtl", "engine", "engine.train_s", _train_mtl_counts),
    (experiment, "save_trace", "engine", "engine.trace_write_s", _trace_bytes),
    (experiment, "load_trace", "engine", "engine.trace_read_s", None),
    (gains, "train_mtl", "engine", "engine.train_s", _gains_train_mtl_counts),
    (gains, "train_stl", "engine", "engine.train_s", _train_stl_counts),
    (gains, "measure_gains_batch", "gains", "gains.batch_s", None),
    (gains.StlCache, "get", "gains", None, _count("gains.stl_requests")),
    (affinity, "pairwise_affinity", "affinity", "affinity.pairwise_s", None),
    (affinity, "group_affinity", "affinity", None, _count("affinity.group_calls")),
    (ensemble, "group_affinity", "affinity", None, _count("affinity.group_calls")),
    (ensemble, "basis_matrix", "splines", "splines.basis_s", _basis_counts),
    (ensemble, "fit_predictor", "ensemble", "ensemble.fit_s", None),
    (ensemble, "predict", "ensemble", "ensemble.predict_s", _count("ensemble.predict_calls")),
    (selector, "predict_from_matrix", "ensemble", "ensemble.predict_s", None),
    (ridge, "fit_cv", "ridge", "ridge.fit_cv_s", _count("ridge.fit_cv_calls")),
    (ridge, "fit", "ridge", None, _count("ridge.fit_calls")),
    (selector, "select_branch_and_bound", "selector", "selector.bnb_s", _candidate_count),
    (selector, "select_exhaustive", "selector", "selector.exhaustive_s", _exhaustive_counts),
)

STAGE_METRICS = tuple(f"experiment.stage.{name}_s" for name in experiment.STAGES)

COUNT_METRICS = (
    "engine.train_calls", "engine.task_steps",
    "gains.groups_measured", "gains.stl_requests", "gains.stl_trained",
    "affinity.group_calls", "engine.trace_bytes", "experiment.artifact_bytes",
    "ridge.fit_cv_calls", "ridge.fit_calls",
    "splines.basis_calls", "splines.basis_rows",
    "ensemble.predict_calls",
    "selector.candidates", "selector.exhaustive_subsets",
)

TIME_METRICS = STAGE_METRICS + (
    "engine.train_s", "gains.batch_s", "engine.trace_write_s", "engine.trace_read_s",
    "affinity.pairwise_s", "ridge.fit_cv_s", "splines.basis_s", "ensemble.fit_s",
    "ensemble.predict_s", "selector.bnb_s", "selector.exhaustive_s",
    "suite.generate_s", "suite.io_s",
)


def span_name(owner, attr) -> str:
    """``gains.train_stl`` for a module attribute, ``gains.StlCache.get`` for a method."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class OpStats(defaultdict):
    """Counters and seconds of one op, plus the layers' self time."""

    def __init__(self):
        super().__init__(float)
        self.measured: set = set()
        self.self_s: defaultdict = defaultdict(float)
        self.fired: Counter = Counter()


class Tracer:
    """Installs the wrappers for the lifetime of a ``with`` block; one per op."""

    def __init__(self):
        self.stats = OpStats()
        self._children: list[float] = []  # time of closed child spans, per open span
        self._open: Counter = Counter()  # open spans per time metric
        self._saved: list = []

    def _wrap(self, owner, attr, layer, key, counts):
        original = getattr(owner, attr)
        name = span_name(owner, attr)

        def wrapper(*args, **kwargs):
            metric = key(args) if callable(key) else key
            self._children.append(0.0)
            self._open[metric] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._open[metric] -= 1
                self.stats.self_s[layer] += duration - self._children.pop()
                if self._children:
                    self._children[-1] += duration
                if metric is not None and not self._open[metric]:
                    self.stats[metric] += duration
                self.stats.fired[name] += 1
            if counts is not None:
                counts(self.stats, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, key, counts in SPANS:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(owner, attr, layer, key, counts))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def per_op_metrics(ops: list[OpStats], op_seconds: list[float]) -> dict[str, float]:
    """Mean per op of every layer metric, plus each layer's share of op time."""
    n = len(ops)
    out = {}
    for name in TIME_METRICS + COUNT_METRICS:
        out[name] = sum(op[name] for op in ops) / n
    out["gains.groups_distinct"] = sum(len(op.measured) for op in ops) / n
    out["gains.useful_ratio"] = _ratio(out["gains.groups_distinct"], out["gains.groups_measured"])
    out["gains.stl_hit_ratio"] = _ratio(
        out["gains.stl_requests"] - out["gains.stl_trained"], out["gains.stl_requests"])
    out["engine.task_steps_per_s"] = _ratio(out["engine.task_steps"], out["engine.train_s"])
    total = sum(op_seconds)
    for layer in LAYERS:
        out[f"share.{layer}"] = 100.0 * sum(op.self_s[layer] for op in ops) / total
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on the workload."""
    return num / den if den else 0.0
