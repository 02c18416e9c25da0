"""End-to-end pipeline with a file artifact at every stage.

Stage order: generate the suite, jointly train all tasks and derive the
affinity matrix from the persisted trace, sample and measure training plus
held-out groups, fit the two-stage predictor, evaluate it on the held-out
groups, select budgeted groupings, and finally compare the realized total
test loss of the selected groupings against the single all-task model and
the exhaustive-optimal grouping. Every stage reads only persisted upstream
artifacts and writes its own, so any stage can be rerun in isolation and
reruns are byte-identical. ``FILES`` spells the path pattern of every file
under the output directory once, by key, and ``at`` turns a key into a path.
``PIPELINE`` declares, stage by stage, the keys of the files each one reads
and writes; ``run_stage`` checks the reads before it starts. ``ABLATE``, the
ablation stage, is declared and run the same way but is not part of ``run``:
it fits its four predictors on the files of a run's first three stages.

Oracle and report train a model per group, which makes them most of a run.
Report trains its candidates stacked by group size, in a few wide loops per
seed (``gains.measure_gains_batch``). The oracle does not yet: it trains one
group at a time, because perfbench counts its training at each
``gains.train_mtl`` call until telemetry counts stacked rows (ROADMAP item
1). The seeds of both stages are independent and each reproduces bit for
bit, so ``_per_run`` hands them to forked worker processes, one per usable
CPU and at most one per seed. A single worker means no pool: one seed, or
one CPU, runs inline. The other stages run their seeds in order in this
process: a pool slows evaluate and select, and would hide train-affinity's
and fit's kernels from perfbench's in-process tracer (README, Workers).
No option controls this; the artifacts are the same bytes either way.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import affinity as aff
from . import ensemble as ens
from . import gains as gn
from . import metrics as met
from . import selector as sel
from .artifacts import from_dict, load, save, write_json, writing
from .engine import TrainConfig, load_trace, save_trace, train_mtl
from .ridge import CvConfig
from .seeding import stream
from .suite import TaskSuiteSpec, generate_suite, load_suite, save_suite

OUTPUT_ROOT_ENV = "MTLGROUPING_OUTPUT_ROOT"

_SPLIT_GROUPS = 40

ABLATION_CELLS = (
    ("spline", True, "spline+residual"),
    ("spline", False, "spline"),
    ("affine", True, "affine+residual"),
    ("affine", False, "affine"),
)


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):  # a worker's error reaches the parent pickled
        return type(self), (self.stage, self.message)


@dataclass(frozen=True)
class ExperimentConfig:
    SCHEMA: ClassVar[str] = "experiment-config/1"
    NOUN: ClassVar[str] = "config key"

    suite: TaskSuiteSpec
    train: TrainConfig  # its seed must be 0: each run trains with its entry of seeds
    n_train_groups: int
    n_heldout_groups: int
    group_sizes: tuple[int, int] = (2, 0)  # hi = 0 means "all tasks"
    mapping_kind: str = "spline"
    residual_enabled: bool = True
    budgets: tuple[int, ...] = (2,)
    seeds: tuple[int, ...] = (0,)
    velocity_mode: str = "joint"
    output_dir: str = "experiment-out"

    def __post_init__(self):
        if self.n_train_groups < 1 or self.n_heldout_groups < 1:
            raise ValueError("need at least one training and one held-out group")
        if self.mapping_kind not in ens.MAPPING_KINDS:
            raise ValueError(f"mapping_kind must be one of {ens.MAPPING_KINDS}")
        if self.velocity_mode not in aff.VELOCITY_MODES:
            raise ValueError(f"velocity_mode must be one of {aff.VELOCITY_MODES}")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ValueError("budgets must be a non-empty list of integers >= 1")
        if len(set(self.budgets)) != len(self.budgets):
            raise ValueError("budgets must be distinct")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.train.seed != 0:
            raise ValueError(f"train.seed must be 0, got {self.train.seed}: each run trains "
                             "with its entry of seeds")
        lo, hi = self.resolved_sizes()
        if not 2 <= lo <= hi <= self.suite.n_tasks:
            raise ValueError(f"group_sizes = {list(self.group_sizes)} is not a valid size range "
                             f"for {self.suite.n_tasks} tasks: need 2 <= lo <= hi <= "
                             f"{self.suite.n_tasks}, with hi = 0 meaning all tasks")
        if self.n_train_groups * hi < 3:
            raise ValueError(f"n_train_groups = {self.n_train_groups} with group_sizes = "
                             f"{list(self.group_sizes)} leaves fit under three training pairs")
        # reject a run that cannot finish before any stage trains
        universe = sel.count_candidate_groups(self.suite.n_tasks, lo, hi)
        if universe > sel.MAX_ENUMERATED_GROUPS:
            raise ValueError(f"group_sizes allows {universe} groups, more than the "
                             f"enumeration guard of {sel.MAX_ENUMERATED_GROUPS}")
        wanted = self.n_train_groups + self.n_heldout_groups
        if wanted > universe:
            raise ValueError(f"n_train_groups + n_heldout_groups = {wanted} exceed the "
                             f"{universe} groups that group_sizes allows")
        subsets = sel.count_subsets(universe, max(self.budgets))
        if subsets > sel.MAX_EXHAUSTIVE_COMBINATIONS:
            raise ValueError(f"max(budgets) = {max(self.budgets)} makes report's exhaustive "
                             f"optimum visit {subsets} subsets, more than the guard of "
                             f"{sel.MAX_EXHAUSTIVE_COMBINATIONS}")

    def resolved_sizes(self) -> tuple[int, int]:
        lo, hi = self.group_sizes
        return lo, (self.suite.n_tasks if hi == 0 else hi)


@dataclass(frozen=True)
class RunGroups:
    """``groups.json``: the training and held-out groups the oracle measured in one run."""

    SCHEMA: ClassVar[str] = "groups/1"

    train: tuple[tuple[int, ...], ...]
    heldout: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for group in self.train + self.heldout:
            aff.check_stored_group(group)
        if set(self.train) & set(self.heldout):
            raise ValueError("training and held-out groups overlap")


@dataclass(frozen=True)
class RunEval:
    """``eval.json``: held-out fit of one run's final and stage-1 predictions."""

    SCHEMA: ClassVar[str] = "eval/1"

    final: met.EvalReport
    stage1: met.EvalReport


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config with the typed reader; a missing schema reads as the current one."""
    return from_dict(ExperimentConfig, {"schema": ExperimentConfig.SCHEMA, **data})


def resolve_output_dir(config: ExperimentConfig, override=None) -> Path:
    """Explicit override, else the config path, rooted at $MTLGROUPING_OUTPUT_ROOT."""
    path = Path(override) if override is not None else Path(config.output_dir)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path
    return path


_RUN = "runs/{run}/"  # one repeat seed's directory under ``out``

# every file under ``out`` by key, in FORMATS.md's layout order; ``{run}``,
# ``{budget}`` and ``{task}`` stand for each run directory name, budget and task id
FILES = {
    "config": "config.json", "suite_spec": "suite/spec.json",
    "suite_csv": "suite/task_{task}.csv", "trace": _RUN + "trace.jsonl",
    "affinity": _RUN + "affinity.json", "affinity_csv": _RUN + "affinity.csv",
    "groups": _RUN + "groups.json", "gains_train": _RUN + "gains_train.jsonl",
    "gains_train_csv": _RUN + "gains_train.csv", "gains_heldout": _RUN + "gains_heldout.jsonl",
    "gains_heldout_csv": _RUN + "gains_heldout.csv", "predictor": _RUN + "predictor.json",
    "eval": _RUN + "eval.json", "selection": _RUN + "selection_B{budget}.json",
    "selection_txt": _RUN + "selection_B{budget}.txt",
    "gains_candidates": _RUN + "gains_candidates.jsonl",
    "realized": _RUN + "realized_B{budget}.json", "report": "report.json",
    "ablation": "ablation.json", "ablation_txt": "ablation.txt",
}


def at(base: Path, key: str, **fields) -> Path:
    """``FILES[key]`` under ``base``: the run directory for a per-run file, else ``out``."""
    return base / FILES[key].removeprefix(_RUN).format(**fields)


def run_dirs(config: ExperimentConfig, out: Path) -> list[Path]:
    return [out / _RUN.format(run=f"{i:02d}_seed{s}") for i, s in enumerate(config.seeds)]


def _run_train_config(config: ExperimentConfig, seed: int) -> TrainConfig:
    return replace(config.train, seed=seed)


def _mean_std(values: list[float]) -> dict:
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"mean": float(np.mean(values)), "std": std, "values": values}


def _summary(reports: list[met.EvalReport], metrics=("r2", "pearson", "mse")) -> dict:
    """Mean, std and per-run values of each of ``metrics`` over per-run reports."""
    return {metric: _mean_std([getattr(r, metric) for r in reports]) for metric in metrics}


def _per_run(func, config: ExperimentConfig, out: Path, *args) -> list:
    """``func(config, rd, seed, *args)`` for every run of ``config``, in seed order.

    Workers are forked, not spawned, so each inherits the imported package
    instead of importing it again. The first run to fail, in seed order,
    raises its own error, after the pending runs are cancelled and the
    workers have exited.
    """
    runs = list(zip(run_dirs(config, out), config.seeds))
    # no sched_getaffinity means Windows (no fork) or macOS (fork is unsafe): run inline
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(runs), cpus)
    if workers == 1:
        return [func(config, rd, seed, *args) for rd, seed in runs]
    # imported here so that a one-seed stage and the package import never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(func, config, rd, seed, *args) for rd, seed in runs]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise


# ---------------------------------------------------------------- stages

def stage_generate(config: ExperimentConfig, out: Path) -> None:
    save(at(out, "config"), config)
    save_suite(generate_suite(config.suite), at(out, "suite_spec").parent)


def _config_suite(config: ExperimentConfig, out: Path):
    """The persisted suite, which must have been generated from ``config.suite``."""
    suite = load_suite(at(out, "suite_spec").parent)
    if suite.spec != config.suite:
        raise ValueError(f"suite in {at(out, 'suite_spec').parent} was generated from another "
                         "suite spec than this config's; rerun generate")
    return suite


def stage_train_affinity(config: ExperimentConfig, out: Path) -> None:
    suite = _config_suite(config, out)
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        tc = _run_train_config(config, seed)
        model = train_mtl(suite.tasks, suite, tc, capture_trace=True)
        save_trace(model.trace, at(rd, "trace"))
        trace = load_trace(at(rd, "trace"))
        matrix = aff.pairwise_affinity(
            trace, tc.learning_rate, tc.momentum, velocity_mode=config.velocity_mode)
        aff.save_matrix(matrix, at(rd, "affinity"))
        aff.matrix_to_csv(matrix, at(rd, "affinity_csv"))


def _sampled_groups(config: ExperimentConfig, seed: int) -> RunGroups:
    count = config.n_train_groups + config.n_heldout_groups
    sampled = gn.sample_training_groups(config.suite.n_tasks, count, config.resolved_sizes(), seed)
    perm = stream(seed, _SPLIT_GROUPS).permutation(count)
    return RunGroups(train=tuple(sorted(sampled[i] for i in perm[: config.n_train_groups])),
                     heldout=tuple(sorted(sampled[i] for i in perm[config.n_train_groups:])))


def _oracle_run(config: ExperimentConfig, rd: Path, seed: int, suite) -> None:
    groups = _sampled_groups(config, seed)
    pairs = sum(map(len, groups.train))
    if pairs < 3:  # fit would fail on them, after all the training below
        train = [list(g) for g in groups.train]
        raise ValueError(f"seed {seed} samples the training groups {train}, which give fit "
                         f"{pairs} training pairs, under three")
    save(at(rd, "groups"), groups)
    tc = _run_train_config(config, seed)
    cache = gn.StlCache(suite)
    for name in ("train", "heldout"):
        # one group at a time, not measure_gains_batch: perfbench counts the
        # oracle's training at gains.train_mtl until telemetry counts stacked
        # rows (ROADMAP item 1)
        records = []
        for group in getattr(groups, name):
            try:
                records.append(gn.measure_gain(group, suite, tc, cache=cache))
            except Exception as exc:
                raise RuntimeError(f"group {group} failed: {exc}") from exc
        gn.save_records(records, at(rd, f"gains_{name}"))
        gn.records_to_csv(records, at(rd, f"gains_{name}_csv"))


def stage_oracle(config: ExperimentConfig, out: Path) -> None:
    _per_run(_oracle_run, config, out, _config_suite(config, out))


def _run_records(rd: Path, seed: int, split: str) -> list:
    """The oracle's ``split`` records: that split's groups in order, measured under ``seed``.

    Fit, evaluate, report and ablate read the records only through here.
    """
    groups = load(at(rd, "groups"), RunGroups)
    path = at(rd, f"gains_{split}")
    records = gn.load_records(path)
    if [rec.group for rec in records] != list(getattr(groups, split)):
        raise ValueError(f"the groups of {path} are not the {split} groups of "
                         f"{at(rd, 'groups')}; rerun oracle")
    for rec in records:
        if rec.seed != seed:
            raise ValueError(f"{path} holds the record of group {list(rec.group)} under "
                             f"seed {rec.seed}, not the run's seed {seed}; rerun oracle")
    return records


def stage_fit(config: ExperimentConfig, out: Path) -> None:
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        records = _run_records(rd, seed, "train")
        matrix = aff.load_matrix(at(rd, "affinity"))
        save(at(rd, "predictor"), _fit_predictor(config, records, matrix, seed))


def _fit_predictor(config: ExperimentConfig, records, matrix, seed: int):
    """The predictor that ``config`` fits to one run's training records."""
    return ens.fit_predictor(records, matrix, config.suite.n_tasks,
                             mapping_kind=config.mapping_kind,
                             residual_enabled=config.residual_enabled,
                             cv=CvConfig(seed=seed))


def _heldout_points(predictor, matrix, records):
    """Pooled (actual, final prediction, stage-1 prediction) triples."""
    actual, final, stage1 = [], [], []
    for rec in records:
        ga = aff.group_affinity(matrix, rec.group)
        pred_final = ens.predict(predictor, rec.group, ga)
        pred_stage1 = ens.predict_stage1(predictor.stage1, ga)
        for t in rec.group:
            actual.append(rec.gains[t])
            final.append(pred_final[t])
            stage1.append(pred_stage1[t])
    return actual, final, stage1


def _run_predictor(config: ExperimentConfig, rd: Path):
    """``predictor.json`` of one run, which must be of the kind ``config`` fits."""
    path = at(rd, "predictor")
    predictor = ens.load_predictor(path)
    for key, stored, wanted in (
            ("mapping_kind", predictor.mapping_kind, config.mapping_kind),
            ("residual_enabled", predictor.residual_enabled, config.residual_enabled),
            ("n_tasks", predictor.n_tasks, config.suite.n_tasks)):
        if stored != wanted:
            raise ValueError(f"{path} holds {key} = {stored!r} where the config has "
                             f"{wanted!r}; rerun fit")
    return predictor


def stage_evaluate(config: ExperimentConfig, out: Path) -> None:
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        predictor = _run_predictor(config, rd)
        matrix = aff.load_matrix(at(rd, "affinity"))
        records = _run_records(rd, seed, "heldout")
        actual, final, stage1 = _heldout_points(predictor, matrix, records)
        save(at(rd, "eval"), RunEval(final=met.evaluate(actual, final),
                                     stage1=met.evaluate(actual, stage1)))


def _candidate_universe(config: ExperimentConfig):
    return sel.enumerate_candidate_groups(config.suite.n_tasks, *config.resolved_sizes())


def stage_select(config: ExperimentConfig, out: Path) -> None:
    candidates = _candidate_universe(config)
    for rd, _ in zip(run_dirs(config, out), config.seeds):
        predictor = _run_predictor(config, rd)
        matrix = aff.load_matrix(at(rd, "affinity"))
        # the candidates' gains do not depend on the budget: predict them once
        problem = sel.build_problem(predictor, matrix, candidates, config.budgets[0])
        for budget in config.budgets:
            result = sel.select_branch_and_bound(replace(problem, budget=budget))
            save(at(rd, "selection", budget=budget), result)
            with writing(at(rd, "selection_txt", budget=budget)) as fh:
                fh.write(sel.format_selection_table(result))


def _realized_loss(assignment, stl_losses, mtl_by_group):
    total = 0.0
    for t in sorted(assignment):
        group = assignment[t]
        total += stl_losses[t] if group is None else mtl_by_group[group][t]
    return total


def _run_selection(config: ExperimentConfig, rd: Path, budget: int, universe):
    """One run's selection at ``budget``, checked against the config's tasks and ``universe``."""
    path = at(rd, "selection", budget=budget)
    selection = load(path, sel.SelectionResult)
    if len(selection.assignment) != config.suite.n_tasks:
        raise ValueError(f"{path} assigns {len(selection.assignment)} tasks, "
                         f"not the config's {config.suite.n_tasks}; rerun select")
    if len(selection.chosen) > budget:
        raise ValueError(f"{path} chooses {len(selection.chosen)} groups, more than its "
                         f"budget of {budget}; rerun select")
    stray = [list(g) for g in selection.chosen if g not in universe]
    if stray:
        raise ValueError(f"{path} chooses {stray}, which are not candidate "
                         "groups of this config; rerun select")
    return selection


def _report_run(config: ExperimentConfig, rd: Path, seed: int, suite) -> dict:
    """Write one run's realized losses; return them as budget -> name -> loss.

    Every file the run reads is loaded and checked before anything trains.
    """
    n = config.suite.n_tasks
    all_tasks = tuple(range(n))
    universe = _candidate_universe(config)
    # the naive all-in-one baseline is measured even when the universe caps group sizes
    candidates = universe if all_tasks in universe else universe + [all_tasks]
    oracle = _run_records(rd, seed, "train") + _run_records(rd, seed, "heldout")
    selections = {b: _run_selection(config, rd, b, universe) for b in config.budgets}
    tc = _run_train_config(config, seed)
    cache = gn.StlCache(suite)
    cache.fill(all_tasks, tc)
    stl_losses = {t: cache.get(t, tc).losses["test"][t] for t in all_tasks}
    # the oracle's gains stand in for the report's only if its baselines are these, bit for bit
    for rec in oracle:
        if rec.stl_losses != {t: stl_losses[t] for t in rec.group}:
            raise ValueError(f"oracle record of group {rec.group} in {rd} does not match "
                             "this config; rerun oracle")
    measured = {rec.group: rec for rec in oracle}
    records = gn.measure_gains_batch(
        [g for g in candidates if g not in measured], suite, tc, cache=cache)
    measured.update((rec.group, rec) for rec in records)
    gn.save_records([measured[g] for g in candidates], at(rd, "gains_candidates"))
    mtl_by_group = {g: measured[g].mtl_losses for g in candidates}
    naive = sum(mtl_by_group[all_tasks][t] for t in all_tasks)
    stl_total = sum(stl_losses[t] for t in all_tasks)
    # exhaustive-optimal grouping over the same universe the selector saw:
    # maximizing absolute loss reduction minimizes realized total loss
    reduction_cands = tuple(
        (g, {t: stl_losses[t] - mtl_by_group[g][t] for t in g}) for g in universe)
    realized = {}
    for budget, selection in selections.items():
        selected = _realized_loss(selection.assignment, stl_losses, mtl_by_group)
        optimal_sel = sel.select_exhaustive(
            sel.SelectionProblem(n_tasks=n, candidates=reduction_cands, budget=budget))
        optimal = stl_total - optimal_sel.objective
        write_json(at(rd, "realized", budget=budget), {
            "schema": "realized/1",
            "budget": budget,
            "selected_total_test_loss": selected,
            "naive_total_test_loss": naive,
            "optimal_total_test_loss": optimal,
            "stl_total_test_loss": stl_total,
            "selected_chosen": [list(g) for g in selection.chosen],
            "optimal_chosen": [list(g) for g in optimal_sel.chosen],
        })
        realized[budget] = {"selected": selected, "naive": naive, "optimal": optimal}
    return realized


def stage_report(config: ExperimentConfig, out: Path) -> dict:
    # read before any run trains, so that a bad file fails fast
    evals = [load(at(rd, "eval"), RunEval) for rd in run_dirs(config, out)]
    realized = _per_run(_report_run, config, out, _config_suite(config, out))
    report = {
        "schema": "report/1",
        "n_runs": len(config.seeds),
        "eval": {kind: _summary([getattr(run_eval, kind) for run_eval in evals])
                 for kind in ("final", "stage1")},
        "realized": {
            str(b): {name: _mean_std([run[b][name] for run in realized])
                     for name in ("selected", "naive", "optimal")}
            for b in config.budgets
        },
    }
    write_json(at(out, "report"), report)
    return report


def stage_ablate(config: ExperimentConfig, out: Path) -> dict:
    """Fit {affine, spline} x {residual on, off} on the oracle's and train-affinity's files."""
    cells: dict[str, list[met.EvalReport]] = {label: [] for _, _, label in ABLATION_CELLS}
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        matrix = aff.load_matrix(at(rd, "affinity"))
        train_records = _run_records(rd, seed, "train")
        heldout_records = _run_records(rd, seed, "heldout")
        for mapping_kind, residual, label in ABLATION_CELLS:
            cell = replace(config, mapping_kind=mapping_kind, residual_enabled=residual)
            predictor = _fit_predictor(cell, train_records, matrix, seed)
            actual, final, _ = _heldout_points(predictor, matrix, heldout_records)
            cells[label].append(met.evaluate(actual, final))
    table = {
        "schema": "ablation/1",
        "n_runs": len(config.seeds),
        "cells": {label: _summary(reports, ("r2", "pearson")) for label, reports in cells.items()},
    }
    write_json(at(out, "ablation"), table)
    lines = [f"{'cell':<18} {'r2':>18} {'pearson':>18}"]
    for label, metrics in table["cells"].items():
        r2, pr = metrics["r2"], metrics["pearson"]
        lines.append(
            f"{label:<18} {r2['mean']:>8.4f} ± {r2['std']:<7.4f} "
            f"{pr['mean']:>8.4f} ± {pr['std']:<7.4f}"
        )
    with writing(at(out, "ablation_txt")) as fh:
        fh.write("\n".join(lines) + "\n")
    return table


@dataclass(frozen=True)
class Stage:
    """A stage's function and the files under ``out`` that it reads and writes.

    Each file is a path pattern of ``FILES``; ``expand`` gives its paths for a config.
    """

    name: str
    func: Callable
    reads: tuple[str, ...]
    writes: tuple[str, ...]


def _files(keys: str) -> tuple[str, ...]:
    """The patterns of the space-separated ``keys`` of ``FILES``."""
    return tuple(FILES[key] for key in keys.split())


PIPELINE = (
    Stage("generate", stage_generate, reads=(), writes=_files("config suite_spec suite_csv")),
    Stage("train-affinity", stage_train_affinity, reads=_files("suite_spec"),
          writes=_files("trace affinity affinity_csv")),
    Stage("oracle", stage_oracle, reads=_files("suite_spec"),
          writes=_files("groups gains_train gains_train_csv gains_heldout gains_heldout_csv")),
    Stage("fit", stage_fit, reads=_files("groups affinity gains_train"),
          writes=_files("predictor")),
    Stage("evaluate", stage_evaluate, reads=_files("predictor affinity groups gains_heldout"),
          writes=_files("eval")),
    Stage("select", stage_select, reads=_files("predictor affinity"),
          writes=_files("selection selection_txt")),
    Stage("report", stage_report,
          reads=_files("suite_spec groups gains_train gains_heldout selection eval"),
          writes=_files("gains_candidates realized report")),
)

STAGES = tuple(stage.name for stage in PIPELINE)

ABLATE = Stage("ablate", stage_ablate, reads=_files("affinity groups gains_train gains_heldout"),
               writes=_files("ablation ablation_txt"))


def expand(pattern: str, config: ExperimentConfig) -> list[str]:
    """The paths under ``out`` that ``pattern`` names for ``config``, runs outermost."""
    values = {"run": [rd.name for rd in run_dirs(config, Path())],
              "budget": config.budgets, "task": range(config.suite.n_tasks)}
    keys = [key for key in values if f"{{{key}}}" in pattern]
    return [pattern.format(**dict(zip(keys, combo)))
            for combo in product(*(values[key] for key in keys))]


def run_stage(name: str, config: ExperimentConfig, out: Path):
    """Run one stage once its declared reads exist, tagging any failure with the stage name."""
    stages = {stage.name: stage for stage in PIPELINE + (ABLATE,)}
    if name not in stages:
        raise ValueError(f"unknown stage {name!r}; the stages are {', '.join(stages)}")
    try:
        for pattern in stages[name].reads:
            for rel in expand(pattern, config):
                if not (out / rel).is_file():
                    writer = next(s.name for s in PIPELINE if pattern in s.writes)
                    raise FileNotFoundError(f"missing {out / rel}, written by {writer}; "
                                            f"run {writer}")
        return stages[name].func(config, out)
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def run_experiment(config: ExperimentConfig, out=None) -> dict:
    """Run every stage in order; artifacts from completed stages persist."""
    out = resolve_output_dir(config, out)
    for name in STAGES:
        report = run_stage(name, config, out)
    return report


def compare_ablations(config: ExperimentConfig, out=None) -> dict:
    """Run generate, train-affinity, oracle and ablate; return the ablation table."""
    out = resolve_output_dir(config, out)
    for name in ("generate", "train-affinity", "oracle", "ablate"):
        table = run_stage(name, config, out)
    return table


def reference_config(output_dir: str = "reference-out", seeds=(0, 1, 2, 3, 4, 5),
                     **overrides) -> ExperimentConfig:
    """Six related-by-cluster tasks; small enough to run end to end in minutes."""
    base = dict(
        suite=TaskSuiteSpec(
            n_tasks=6,
            input_dim=8,
            n_clusters=2,
            cluster_assignment=(0, 0, 0, 0, 1, 1),
            within_cluster_similarity=0.9,
            label_noise_std=0.3,
            samples_per_split=(64, 32, 256),
            seed=7151,
        ),
        train=TrainConfig(
            learning_rate=0.05,
            momentum=0.9,
            epochs=60,
            batch_size=16,
            hidden_dims=(1,),
            seed=0,
        ),
        n_train_groups=10,
        n_heldout_groups=15,
        group_sizes=(2, 0),
        budgets=(2,),
        seeds=tuple(seeds),
        output_dir=output_dir,
    )
    base.update(overrides)
    return ExperimentConfig(**base)
