"""Ground-truth gain measurement: train alone, train jointly, compare test losses.

The gain of a task inside a group is the relative reduction of its test loss
under joint training versus its own single-task baseline. A batch measures
its groups one after another in input order; baselines are trained on first
use and cached per (task, config), so each single-task model trains once.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import NamedTuple

from .engine import TrainConfig, TrainedModel, train_mtl, train_stl
from .seeding import stream

_SAMPLER = 30

MAX_ENUMERATED_GROUPS = 2_000_000


@dataclass(frozen=True)
class GainRecord:
    group: tuple[int, ...]
    gains: dict[int, float]
    stl_losses: dict[int, float]
    mtl_losses: dict[int, float]
    seed: int


class GainFailure(NamedTuple):
    group: tuple[int, ...]
    error: str


class BatchGains(NamedTuple):
    records: list[GainRecord]
    failures: list[GainFailure]


def relative_gain(stl_loss: float, mtl_loss: float) -> float:
    """(stl - mtl) / stl; positive when joint training reduced the loss."""
    if stl_loss <= 0:
        raise ValueError(f"single-task loss must be positive, got {stl_loss}")
    return (stl_loss - mtl_loss) / stl_loss


class StlCache:
    """Single-task baselines for one suite, trained once per (task, config).

    Training errors are cached too (a retry would fail identically) and
    re-raised to every later caller of that key.
    """

    def __init__(self, suite):
        self._suite = suite
        self._entries: dict = {}  # key -> TrainedModel | exception

    def get(self, task: int, config: TrainConfig) -> TrainedModel:
        key = (int(task), config)
        if key not in self._entries:
            try:
                self._entries[key] = train_stl(task, self._suite[task], config)
            except Exception as exc:
                self._entries[key] = exc
        entry = self._entries[key]
        if isinstance(entry, Exception):
            raise entry
        return entry


def _normalize_group(group) -> tuple[int, ...]:
    out = tuple(sorted(set(int(t) for t in group)))
    if len(out) < 2:
        raise ValueError("gain is defined only for groups of two or more tasks")
    return out


def measure_gain(group, suite, config: TrainConfig, cache: StlCache | None = None) -> GainRecord:
    """Train the group jointly and compare per-task test losses to baselines."""
    group = _normalize_group(group)
    if cache is None:
        cache = StlCache(suite)
    stl_losses = {}
    for t in group:
        loss = cache.get(t, config).losses["test"][t]
        if loss <= 0:
            raise ValueError(f"task {t} has non-positive single-task test loss {loss}")
        stl_losses[t] = loss
    mtl = train_mtl(group, suite, config)
    mtl_losses = {t: mtl.losses["test"][t] for t in group}
    gains = {t: relative_gain(stl_losses[t], mtl_losses[t]) for t in group}
    return GainRecord(
        group=group,
        gains=gains,
        stl_losses=stl_losses,
        mtl_losses=mtl_losses,
        seed=config.seed,
    )


def measure_gains_batch(groups, suite, config: TrainConfig,
                        cache: StlCache | None = None) -> BatchGains:
    """Measure many groups in input order; per-group errors are collected, not raised."""
    groups = [_normalize_group(g) for g in groups]
    if cache is None:
        cache = StlCache(suite)
    records, failures = [], []
    for group in groups:
        try:
            records.append(measure_gain(group, suite, config, cache=cache))
        except Exception as exc:  # collected per group
            failures.append(GainFailure(group, str(exc)))
    return BatchGains(records=records, failures=failures)


def sample_training_groups(n_tasks: int, count: int, size_range=(2, None), seed: int = 0):
    """Uniform sample without replacement over all groups with sizes in range."""
    lo, hi = size_range
    hi = n_tasks if hi is None else hi
    if not 2 <= lo <= hi <= n_tasks:
        raise ValueError(f"size range ({lo}, {hi}) invalid for {n_tasks} tasks")
    total = sum(comb(n_tasks, k) for k in range(lo, hi + 1))
    if total > MAX_ENUMERATED_GROUPS:
        raise ValueError(f"{total} candidate groups exceed the enumeration guard")
    if not 0 <= count <= total:
        raise ValueError(f"cannot sample {count} of {total} distinct groups")
    universe = [g for k in range(lo, hi + 1) for g in combinations(range(n_tasks), k)]
    idx = stream(seed, _SAMPLER).choice(total, size=count, replace=False)
    return [universe[i] for i in sorted(idx)]


def record_to_dict(record: GainRecord) -> dict:
    return {
        "group": list(record.group),
        "gains": {str(t): float(v) for t, v in sorted(record.gains.items())},
        "stl_losses": {str(t): float(v) for t, v in sorted(record.stl_losses.items())},
        "mtl_losses": {str(t): float(v) for t, v in sorted(record.mtl_losses.items())},
        "seed": record.seed,
    }


def record_from_dict(data: dict) -> GainRecord:
    return GainRecord(
        group=tuple(int(t) for t in data["group"]),
        gains={int(t): float(v) for t, v in data["gains"].items()},
        stl_losses={int(t): float(v) for t, v in data["stl_losses"].items()},
        mtl_losses={int(t): float(v) for t, v in data["mtl_losses"].items()},
        seed=int(data["seed"]),
    )


def save_records(records, path) -> None:
    with open(Path(path), "w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec), sort_keys=True) + "\n")


def load_records(path) -> list[GainRecord]:
    records = []
    with open(Path(path)) as fh:
        for line in fh:
            if line.strip():
                records.append(record_from_dict(json.loads(line)))
    return records


def records_to_csv(records, path) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "task", "gain", "stl_loss", "mtl_loss"])
        for rec in records:
            label = "+".join(str(t) for t in rec.group)
            for t in rec.group:
                writer.writerow([
                    label, t,
                    repr(float(rec.gains[t])),
                    repr(float(rec.stl_losses[t])),
                    repr(float(rec.mtl_losses[t])),
                ])
