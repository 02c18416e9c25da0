"""Ground-truth gain measurement: train alone, train jointly, compare test losses.

The gain of a task inside a group is the relative reduction of its test loss
under joint training versus its own single-task baseline. Baselines are
trained on first use and cached per (task, config), so each single-task
model trains once.

``measure_gains_batch`` trains its joint models in one ``train_groups``
call, stacked by group size, and ``StlCache.fill`` trains many baselines in
one such call, so report's baselines and candidates train in a few wide
loops. The oracle still measures one group at a time through
``measure_gain`` and ``train_mtl``, and trains its baselines one by one
through ``train_stl``: perfbench counts trained groups and task steps at
the ``gains.train_mtl`` call, which a stacked oracle would never make, until
that telemetry counts stacked rows (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .affinity import check_stored_group, is_task_id, task_group
from .artifacts import from_dict, read_jsonl, to_json, write_csv, write_jsonl
from .engine import TrainConfig, TrainedModel, train_groups, train_mtl, train_stl
from .seeding import stream
from .selector import enumerate_candidate_groups

_SAMPLER = 30


@dataclass(frozen=True)
class GainRecord:
    group: tuple[int, ...]
    gains: dict[int, float]
    stl_losses: dict[int, float]
    mtl_losses: dict[int, float]
    seed: int

    def __post_init__(self):
        check_stored_group(self.group)
        for name in ("gains", "stl_losses", "mtl_losses"):
            if sorted(getattr(self, name)) != list(self.group):
                raise ValueError(f"{name} of group {list(self.group)} must be keyed by its members")


def relative_gain(stl_loss: float, mtl_loss: float) -> float:
    """(stl - mtl) / stl; positive when joint training reduced the loss."""
    if stl_loss <= 0:
        raise ValueError(f"single-task loss must be positive, got {stl_loss}")
    return (stl_loss - mtl_loss) / stl_loss


class StlCache:
    """Single-task baselines for one suite, trained once per (task, config)."""

    def __init__(self, suite):
        self._suite = suite
        self._entries: dict[tuple[int, TrainConfig], TrainedModel] = {}

    def _key(self, task, config: TrainConfig) -> tuple[int, TrainConfig]:
        if not is_task_id(task) or not 0 <= task < self._suite.n_tasks:
            raise ValueError(f"task id {task!r} is not a task of the suite "
                             f"(0..{self._suite.n_tasks - 1})")
        return int(task), config

    def get(self, task: int, config: TrainConfig) -> TrainedModel:
        key = self._key(task, config)
        if key not in self._entries:
            self._entries[key] = train_stl(task, self._suite[task], config)
        return self._entries[key]

    def fill(self, tasks, config: TrainConfig) -> None:
        """Train the missing baselines of ``tasks`` in one ``train_groups`` call.

        Bit for bit the models ``get`` trains. Only the models that trained
        are cached: ``get`` trains a failed baseline again and raises its error.
        """
        missing = [key for key in dict.fromkeys(self._key(t, config) for t in tasks)
                   if key not in self._entries]
        outcomes = train_groups([(t,) for t, _ in missing], self._suite, config)
        for key, outcome in zip(missing, outcomes):
            if not isinstance(outcome, Exception):
                self._entries[key] = outcome


def _baseline_losses(group, cache: StlCache, config: TrainConfig) -> dict[int, float]:
    stl_losses = {}
    for t in group:
        loss = cache.get(t, config).losses["test"][t]
        if loss <= 0:
            raise ValueError(f"task {t} has non-positive single-task test loss {loss}")
        stl_losses[t] = loss
    return stl_losses


def _record(group, stl_losses: dict[int, float], mtl: TrainedModel, seed: int) -> GainRecord:
    mtl_losses = {t: mtl.losses["test"][t] for t in group}
    return GainRecord(
        group=group,
        gains={t: relative_gain(stl_losses[t], mtl_losses[t]) for t in group},
        stl_losses=stl_losses,
        mtl_losses=mtl_losses,
        seed=seed,
    )


def measure_gain(group, suite, config: TrainConfig, cache: StlCache | None = None) -> GainRecord:
    """Train the group jointly and compare per-task test losses to baselines."""
    group = task_group(group, suite.n_tasks)
    if cache is None:
        cache = StlCache(suite)
    stl_losses = _baseline_losses(group, cache, config)
    return _record(group, stl_losses, train_mtl(group, suite, config), config.seed)


def measure_gains_batch(groups, suite, config: TrainConfig,
                        cache: StlCache | None = None) -> list[GainRecord]:
    """Measure many groups, in input order; the first group that fails stops the batch.

    Baselines train first, in input order, up to the first group whose
    baseline fails. The joint models of the groups before it then train in
    one ``train_groups`` call, stacked by group size. The first group in
    input order that failed, at a baseline or at its joint model, raises.
    """
    groups = [task_group(g, suite.n_tasks) for g in groups]
    if cache is None:
        cache = StlCache(suite)
    baselines, failure = [], []
    for group in groups:
        try:
            baselines.append(_baseline_losses(group, cache, config))
        except Exception as exc:
            failure.append(exc)
            break
    outcomes = train_groups(groups[:len(baselines)], suite, config) + failure
    for group, outcome in zip(groups, outcomes):
        if isinstance(outcome, Exception):
            raise RuntimeError(f"group {group} failed: {outcome}") from outcome
    return [_record(group, stl_losses, mtl, config.seed)
            for group, stl_losses, mtl in zip(groups, baselines, outcomes)]


def sample_training_groups(n_tasks: int, count: int, size_range=(2, None), seed: int = 0):
    """Uniform sample without replacement over all groups with sizes in range."""
    universe = enumerate_candidate_groups(n_tasks, *size_range)
    if not 0 <= count <= len(universe):
        raise ValueError(f"cannot sample {count} of {len(universe)} distinct groups")
    idx = stream(seed, _SAMPLER).choice(len(universe), size=count, replace=False)
    return [universe[i] for i in sorted(idx)]


def save_records(records, path) -> None:
    write_jsonl(path, map(to_json, records))


def load_records(path) -> list[GainRecord]:
    return [from_dict(GainRecord, data) for data in read_jsonl(path)]


def records_to_csv(records, path) -> None:
    write_csv(path, ["group", "task", "gain", "stl_loss", "mtl_loss"], (
        ["+".join(str(t) for t in rec.group), t, repr(float(rec.gains[t])),
         repr(float(rec.stl_losses[t])), repr(float(rec.mtl_losses[t]))]
        for rec in records for t in rec.group))
