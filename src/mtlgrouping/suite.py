"""Synthetic multi-task suites with a planted cluster structure.

Every task's target function is linear in the features: a cluster prototype
weight vector plus a task-specific perturbation. The perturbation magnitude
is (1 - within_cluster_similarity) * ||prototype||, so similarity 1 makes all
tasks of a cluster share one exact target function while similarity 0 makes
them essentially unrelated. That single knob gives controllable ground truth
for which tasks should help which under joint training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from .artifacts import load, save, writing
from .seeding import stream

SPLITS = ("train", "val", "test")

TASK_TYPES = ("regression", "classification")

# stream purposes
_WEIGHTS = 10
_DELTA = 11
_DATA = 12


@dataclass(frozen=True)
class TaskSuiteSpec:
    NOUN: ClassVar[str] = "config key"

    n_tasks: int
    input_dim: int
    n_clusters: int
    within_cluster_similarity: float
    label_noise_std: float
    samples_per_split: tuple[int, int, int]
    seed: int
    cluster_assignment: tuple[int, ...] | None = None
    task_type: str = "regression"

    def __post_init__(self):
        if self.n_tasks < 2:
            raise ValueError("n_tasks must be >= 2")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if not 0.0 <= self.within_cluster_similarity <= 1.0:
            raise ValueError("within_cluster_similarity must be in [0, 1]")
        if self.label_noise_std < 0.0:
            raise ValueError("label_noise_std must be >= 0")
        if len(self.samples_per_split) != 3 or any(s < 1 for s in self.samples_per_split):
            raise ValueError("samples_per_split must be three integers >= 1")
        if self.task_type not in TASK_TYPES:
            raise ValueError(f"task_type must be one of {TASK_TYPES}")
        if self.cluster_assignment is not None:
            if len(self.cluster_assignment) != self.n_tasks:
                raise ValueError("cluster_assignment must cover every task")
            if any(not 0 <= c < self.n_clusters for c in self.cluster_assignment):
                raise ValueError("cluster_assignment index out of range")
        elif self.n_clusters > self.n_tasks:
            raise ValueError("n_clusters > n_tasks requires an explicit assignment")

    def assignment(self) -> tuple[int, ...]:
        """Cluster index per task; defaults to near-even contiguous blocks."""
        if self.cluster_assignment is not None:
            return tuple(self.cluster_assignment)
        return tuple(t * self.n_clusters // self.n_tasks for t in range(self.n_tasks))


@dataclass(frozen=True)
class TaskDataset:
    features: np.ndarray  # (rows, input_dim)
    targets: np.ndarray  # (rows,)
    split: np.ndarray  # (rows,) of "train"/"val"/"test"
    task_type: str = "regression"

    @cached_property
    def _split_index(self) -> dict[str, np.ndarray]:
        return {name: np.flatnonzero(self.split == name) for name in SPLITS}

    def rows(self, split_name: str):
        """Fresh (features, targets) arrays restricted to one split."""
        if split_name not in SPLITS:
            raise ValueError(f"unknown split {split_name!r}")
        index = self._split_index[split_name]
        return self.features[index], self.targets[index]

    @property
    def n_rows(self) -> int:
        return int(self.targets.size)

    @property
    def input_dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class TaskSuite:
    """Generated datasets plus the planted per-task weight vectors."""

    spec: TaskSuiteSpec
    datasets: dict[int, TaskDataset] = field(repr=False)
    task_weights: np.ndarray = field(repr=False)  # (n_tasks, input_dim)

    def __getitem__(self, task: int) -> TaskDataset:
        return self.datasets[task]

    @property
    def n_tasks(self) -> int:
        return self.spec.n_tasks

    @property
    def tasks(self) -> tuple[int, ...]:
        return tuple(range(self.spec.n_tasks))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def generate_suite(spec: TaskSuiteSpec) -> TaskSuite:
    """Build all task datasets for a spec; bit-identical for equal specs."""
    assign = spec.assignment()
    d = spec.input_dim
    prototypes = stream(spec.seed, _WEIGHTS).standard_normal((spec.n_clusters, d))
    weights = np.zeros((spec.n_tasks, d))
    for t in range(spec.n_tasks):
        proto = prototypes[assign[t]]
        direction = stream(spec.seed, _DELTA, t).standard_normal(d)
        norm = float(np.linalg.norm(direction))
        if norm > 0.0:
            direction = direction / norm
        scale = (1.0 - spec.within_cluster_similarity) * float(np.linalg.norm(proto))
        weights[t] = proto + scale * direction

    n_train, n_val, n_test = spec.samples_per_split
    total = n_train + n_val + n_test
    split = np.array(
        ["train"] * n_train + ["val"] * n_val + ["test"] * n_test, dtype="<U5"
    )
    datasets: dict[int, TaskDataset] = {}
    for t in range(spec.n_tasks):
        rng = stream(spec.seed, _DATA, t)
        features = rng.standard_normal((total, d))
        clean = features @ weights[t]
        noise = spec.label_noise_std * rng.standard_normal(total)
        if spec.task_type == "regression":
            targets = clean + noise
        else:
            probs = _sigmoid(clean + noise)
            targets = (rng.uniform(size=total) < probs).astype(float)
        datasets[t] = TaskDataset(
            features=features,
            targets=targets,
            split=split.copy(),
            task_type=spec.task_type,
        )
    return TaskSuite(spec=spec, datasets=datasets, task_weights=weights)


@dataclass(frozen=True)
class _Sidecar:
    """``spec.json``: the generating spec and the planted weights, one row per task."""

    SCHEMA: ClassVar[str] = "suite/1"

    spec: TaskSuiteSpec
    task_weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        shape = (self.spec.n_tasks, self.spec.input_dim)
        if len(self.task_weights) != shape[0] or any(w.size != shape[1] for w in self.task_weights):
            raise ValueError(f"key 'task_weights' must hold {shape[0]} rows of {shape[1]} numbers")


def save_suite(suite: TaskSuite, directory) -> None:
    """Write one CSV per task plus a JSON sidecar with the generating spec.

    Each CSV holds the bytes ``csv.writer`` writes for the rows of ``repr``
    strings, ``\\r\\n`` line ends included; no field needs quoting, so the
    lines are joined directly.
    """
    directory = Path(directory)
    d = suite.spec.input_dim
    header = ",".join([f"x{i}" for i in range(d)] + ["target", "split"]) + "\r\n"
    for t, ds in sorted(suite.datasets.items()):
        rows = zip(np.asarray(ds.features, dtype=float).tolist(),
                   np.asarray(ds.targets, dtype=float).tolist(), ds.split.tolist())
        text = header + "".join([",".join(map(repr, features)) + f",{target!r},{split}\r\n"
                                 for features, target, split in rows])
        with writing(directory / f"task_{t}.csv", newline="") as fh:
            fh.write(text)
    save(directory / "spec.json", _Sidecar(suite.spec, tuple(suite.task_weights)))


def load_suite(directory) -> TaskSuite:
    """Rebuild the suite from ``spec.json``; the task CSVs are export-only and never read."""
    sidecar = load(Path(directory) / "spec.json", _Sidecar)
    suite = generate_suite(sidecar.spec)
    if not np.array_equal(np.array(sidecar.task_weights), suite.task_weights):
        raise ValueError(f"task_weights in {directory} differ from those regenerated from its "
                         "spec; rerun generate")
    return suite
