"""End-to-end pipeline with a file artifact at every stage.

Stage order: generate the suite, jointly train all tasks and derive the
affinity matrix from the persisted trace, sample and measure training plus
held-out groups, fit the two-stage predictor, evaluate it on the held-out
groups, select budgeted groupings, and finally compare the realized total
test loss of the selected groupings against the single all-task model and
the exhaustive-optimal grouping. Every stage reads only persisted upstream
artifacts and writes its own, so any stage can be rerun in isolation and
reruns are byte-identical.

Oracle and report train a model per group, which makes them most of a run.
Report trains its candidates stacked by group size, in a few wide loops per
seed (``gains.measure_gains_batch``). The oracle does not yet: it trains one
group at a time, because perfbench counts its training at each
``gains.train_mtl`` call until telemetry counts stacked rows (ROADMAP item
1). The seeds of both stages are independent and each reproduces bit for
bit, so ``_per_run`` hands them to forked worker processes, one per usable
CPU and at most one per seed. A single worker means no pool: one seed, or
one CPU, runs inline. The other stages do 10-70 ms of work per seed, less
than a pool's start-up and round trips are worth, and run their seeds in
order in this process.
No option controls this; the artifacts are the same bytes either way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import affinity as aff
from . import ensemble as ens
from . import gains as gn
from . import metrics as met
from . import selector as sel
from .artifacts import from_dict, load, read_json, save, write_json, writing
from .engine import TrainConfig, load_trace, save_trace, train_mtl
from .ridge import CvConfig
from .seeding import stream
from .suite import TaskSuiteSpec, generate_suite, load_suite, save_suite

OUTPUT_ROOT_ENV = "MTLGROUPING_OUTPUT_ROOT"

_SPLIT_GROUPS = 40

STAGES = ("generate", "train-affinity", "oracle", "fit", "evaluate", "select", "report")

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
    train: TrainConfig  # its seed field is replaced by each repeat seed
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
        # reject a run that cannot finish before any stage trains
        universe = sel.count_candidate_groups(self.suite.n_tasks, *self.resolved_sizes())
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


@dataclass(frozen=True)
class RunEval:
    """``eval.json``: held-out fit of one run's final and stage-1 predictions."""

    SCHEMA: ClassVar[str] = "eval/1"

    final: met.EvalReport
    stage1: met.EvalReport


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config with the typed reader; a missing schema reads as the current one."""
    return from_dict(ExperimentConfig, {"schema": ExperimentConfig.SCHEMA, **data})


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


def resolve_output_dir(config: ExperimentConfig, override=None) -> Path:
    """Explicit override, else the config path, rooted at $MTLGROUPING_OUTPUT_ROOT."""
    path = Path(override) if override is not None else Path(config.output_dir)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path
    return path


def run_dirs(config: ExperimentConfig, out: Path) -> list[Path]:
    return [out / "runs" / f"{i:02d}_seed{s}" for i, s in enumerate(config.seeds)]


def _run_train_config(config: ExperimentConfig, seed: int) -> TrainConfig:
    return replace(config.train, seed=seed)


def _mean_std(values: list[float]) -> dict:
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"mean": float(np.mean(values)), "std": std, "values": values}


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
    save(out / "config.json", config)
    save_suite(generate_suite(config.suite), out / "suite")


def _config_suite(config: ExperimentConfig, out: Path):
    """The persisted suite, which must have been generated from ``config.suite``."""
    suite = load_suite(out / "suite")
    if suite.spec != config.suite:
        raise ValueError(f"suite in {out / 'suite'} was generated from another "
                         "suite spec than this config's; rerun generate")
    return suite


def stage_train_affinity(config: ExperimentConfig, out: Path) -> None:
    suite = _config_suite(config, out)
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        tc = _run_train_config(config, seed)
        model = train_mtl(suite.tasks, suite, tc, capture_trace=True)
        save_trace(model.trace, rd / "trace.jsonl")
        trace = load_trace(rd / "trace.jsonl")
        matrix = aff.pairwise_affinity(
            trace, tc.learning_rate, tc.momentum, velocity_mode=config.velocity_mode)
        aff.save_matrix(matrix, rd / "affinity.json")
        aff.matrix_to_csv(matrix, rd / "affinity.csv")


def _sampled_groups(config: ExperimentConfig, seed: int) -> RunGroups:
    count = config.n_train_groups + config.n_heldout_groups
    sampled = gn.sample_training_groups(config.suite.n_tasks, count, config.resolved_sizes(), seed)
    perm = stream(seed, _SPLIT_GROUPS).permutation(count)
    return RunGroups(train=tuple(sorted(sampled[i] for i in perm[: config.n_train_groups])),
                     heldout=tuple(sorted(sampled[i] for i in perm[config.n_train_groups:])))


def _oracle_run(config: ExperimentConfig, rd: Path, seed: int, suite) -> None:
    groups = _sampled_groups(config, seed)
    save(rd / "groups.json", groups)
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
        gn.save_records(records, rd / f"gains_{name}.jsonl")
        gn.records_to_csv(records, rd / f"gains_{name}.csv")


def stage_oracle(config: ExperimentConfig, out: Path) -> None:
    _per_run(_oracle_run, config, out, _config_suite(config, out))


def _run_records(stage: str, rd: Path, split: str, groups: RunGroups) -> list:
    """The oracle's records of ``split``, which must be that split's groups in order."""
    path = rd / f"gains_{split}.jsonl"
    records = gn.load_records(path)
    if [rec.group for rec in records] != list(getattr(groups, split)):
        raise StageError(stage, f"the groups of {path} are not the {split} groups of "
                                f"{rd / 'groups.json'}; rerun oracle")
    return records


def stage_fit(config: ExperimentConfig, out: Path) -> None:
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        groups = load(rd / "groups.json", RunGroups)
        if set(groups.train) & set(groups.heldout):
            raise StageError("fit", "training and held-out groups overlap")
        matrix = aff.load_matrix(rd / "affinity.json")
        records = _run_records("fit", rd, "train", groups)
        predictor = ens.fit_predictor(
            records, matrix, config.suite.n_tasks,
            mapping_kind=config.mapping_kind,
            residual_enabled=config.residual_enabled,
            cv=CvConfig(seed=seed),
        )
        save(rd / "predictor.json", predictor)


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


def stage_evaluate(config: ExperimentConfig, out: Path) -> None:
    for rd, _ in zip(run_dirs(config, out), config.seeds):
        predictor = ens.load_predictor(rd / "predictor.json")
        matrix = aff.load_matrix(rd / "affinity.json")
        records = _run_records("evaluate", rd, "heldout", load(rd / "groups.json", RunGroups))
        actual, final, stage1 = _heldout_points(predictor, matrix, records)
        save(rd / "eval.json", RunEval(final=met.evaluate(actual, final),
                                       stage1=met.evaluate(actual, stage1)))


def _candidate_universe(config: ExperimentConfig):
    return sel.enumerate_candidate_groups(config.suite.n_tasks, *config.resolved_sizes())


def stage_select(config: ExperimentConfig, out: Path) -> None:
    candidates = _candidate_universe(config)
    for rd, _ in zip(run_dirs(config, out), config.seeds):
        predictor = ens.load_predictor(rd / "predictor.json")
        matrix = aff.load_matrix(rd / "affinity.json")
        for budget in config.budgets:
            problem = sel.build_problem(predictor, matrix, candidates, budget)
            result = sel.select_branch_and_bound(problem)
            save(rd / f"selection_B{budget}.json", result)
            with writing(rd / f"selection_B{budget}.txt") as fh:
                fh.write(sel.format_selection_table(result))


def _realized_loss(assignment, stl_losses, mtl_by_group):
    total = 0.0
    for t in sorted(assignment):
        group = assignment[t]
        total += stl_losses[t] if group is None else mtl_by_group[group][t]
    return total


def _oracle_records(rd: Path, tc: TrainConfig, cache: gn.StlCache) -> dict:
    """The oracle's gain records of one run, keyed by group.

    Each record must come from this run's seed and carry single-task losses
    equal, bit for bit, to the baselines ``cache`` trains under ``tc``;
    otherwise the oracle ran under another config and its gains cannot stand
    in for the report's.
    """
    records = {}
    for name in ("train", "heldout"):
        for rec in gn.load_records(rd / f"gains_{name}.jsonl"):
            baselines = {t: cache.get(t, tc).losses["test"][t] for t in rec.group}
            if rec.seed != tc.seed or rec.stl_losses != baselines:
                raise StageError("report", f"oracle record of group {rec.group} in {rd} "
                                           "does not match this config; rerun oracle")
            records[rec.group] = rec
    return records


def _report_run(config: ExperimentConfig, rd: Path, seed: int, suite) -> dict:
    """Write one run's realized losses; return them as budget -> name -> loss."""
    n = config.suite.n_tasks
    all_tasks = tuple(range(n))
    universe = _candidate_universe(config)
    # the naive all-in-one baseline is measured even when the universe caps group sizes
    candidates = universe if all_tasks in universe else universe + [all_tasks]
    tc = _run_train_config(config, seed)
    cache = gn.StlCache(suite)
    cache.fill(all_tasks, tc)
    measured = _oracle_records(rd, tc, cache)
    records = gn.measure_gains_batch(
        [g for g in candidates if g not in measured], suite, tc, cache=cache)
    measured.update((rec.group, rec) for rec in records)
    gn.save_records([measured[g] for g in candidates], rd / "gains_candidates.jsonl")
    mtl_by_group = {g: measured[g].mtl_losses for g in candidates}
    stl_losses = {t: cache.get(t, tc).losses["test"][t] for t in all_tasks}
    naive = sum(mtl_by_group[all_tasks][t] for t in all_tasks)
    stl_total = sum(stl_losses[t] for t in all_tasks)
    # exhaustive-optimal grouping over the same universe the selector saw:
    # maximizing absolute loss reduction minimizes realized total loss
    reduction_cands = tuple(
        (g, {t: stl_losses[t] - mtl_by_group[g][t] for t in g}) for g in universe)
    realized = {}
    for budget in config.budgets:
        selection = load(rd / f"selection_B{budget}.json", sel.SelectionResult)
        selected = _realized_loss(selection.assignment, stl_losses, mtl_by_group)
        optimal_sel = sel.select_exhaustive(
            sel.SelectionProblem(n_tasks=n, candidates=reduction_cands, budget=budget))
        optimal = stl_total - optimal_sel.objective
        write_json(rd / f"realized_B{budget}.json", {
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
    realized = _per_run(_report_run, config, out, _config_suite(config, out))
    evals = {kind: {"r2": [], "pearson": [], "mse": []} for kind in ("final", "stage1")}
    for rd in run_dirs(config, out):
        run_eval = load(rd / "eval.json", RunEval)
        for kind, metrics in evals.items():
            for metric, values in metrics.items():
                values.append(getattr(getattr(run_eval, kind), metric))
    report = {
        "schema": "report/1",
        "n_runs": len(config.seeds),
        "eval": {
            kind: {metric: _mean_std(vals) for metric, vals in metrics.items()}
            for kind, metrics in evals.items()
        },
        "realized": {
            str(b): {name: _mean_std([run[b][name] for run in realized])
                     for name in ("selected", "naive", "optimal")}
            for b in config.budgets
        },
    }
    write_json(out / "report.json", report)
    return report


_STAGE_FUNCS = {
    "generate": stage_generate,
    "train-affinity": stage_train_affinity,
    "oracle": stage_oracle,
    "fit": stage_fit,
    "evaluate": stage_evaluate,
    "select": stage_select,
    "report": stage_report,
}


@contextmanager
def _tagged(stage: str):
    """Re-raise any failure inside the block as a ``StageError`` naming ``stage``."""
    try:
        yield
    except StageError:
        raise
    except FileNotFoundError as exc:
        raise StageError(stage, f"missing upstream artifact {exc.filename}") from exc
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc


def run_stage(name: str, config: ExperimentConfig, out: Path):
    """Run one stage, tagging any failure with the stage name."""
    with _tagged(name):
        return _STAGE_FUNCS[name](config, out)


def run_experiment(config: ExperimentConfig, out=None) -> dict:
    """Run every stage in order; artifacts from completed stages persist."""
    out = resolve_output_dir(config, out)
    report = None
    for name in STAGES:
        report = run_stage(name, config, out)
    return report


def compare_ablations(config: ExperimentConfig, out=None) -> dict:
    """Fit {affine, spline} x {residual on, off} on shared upstream artifacts."""
    out = resolve_output_dir(config, out)
    for name in ("generate", "train-affinity", "oracle"):
        run_stage(name, config, out)
    cells: dict[str, dict[str, list[float]]] = {
        label: {"r2": [], "pearson": []} for _, _, label in ABLATION_CELLS}
    with _tagged("ablate"):
        for rd, seed in zip(run_dirs(config, out), config.seeds):
            matrix = aff.load_matrix(rd / "affinity.json")
            train_records = gn.load_records(rd / "gains_train.jsonl")
            heldout_records = gn.load_records(rd / "gains_heldout.jsonl")
            for mapping_kind, residual, label in ABLATION_CELLS:
                predictor = ens.fit_predictor(
                    train_records, matrix, config.suite.n_tasks,
                    mapping_kind=mapping_kind, residual_enabled=residual,
                    cv=CvConfig(seed=seed),
                )
                actual, final, _ = _heldout_points(predictor, matrix, heldout_records)
                report = met.evaluate(actual, final)
                cells[label]["r2"].append(report.r2)
                cells[label]["pearson"].append(report.pearson)
    table = {
        "schema": "ablation/1",
        "n_runs": len(config.seeds),
        "cells": {
            label: {metric: _mean_std(vals) for metric, vals in metrics.items()}
            for label, metrics in cells.items()
        },
    }
    write_json(out / "ablation.json", table)
    lines = [f"{'cell':<18} {'r2':>18} {'pearson':>18}"]
    for label, metrics in table["cells"].items():
        r2, pr = metrics["r2"], metrics["pearson"]
        lines.append(
            f"{label:<18} {r2['mean']:>8.4f} ± {r2['std']:<7.4f} "
            f"{pr['mean']:>8.4f} ± {pr['std']:<7.4f}"
        )
    with writing(out / "ablation.txt") as fh:
        fh.write("\n".join(lines) + "\n")
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
