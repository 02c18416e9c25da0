"""End-to-end pipeline with a file artifact at every stage.

Stage order: generate the suite, jointly train all tasks and derive the
affinity matrix from the persisted trace, sample and measure training plus
held-out groups, fit the two-stage predictor, evaluate it on the held-out
groups, select budgeted groupings, and finally compare the realized total
test loss of the selected groupings against the single all-task model and
the exhaustive-optimal grouping. Every stage reads only persisted upstream
artifacts and writes its own, so any stage can be rerun in isolation and
reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import affinity as aff
from . import ensemble as ens
from . import gains as gn
from . import metrics as met
from . import selector as sel
from .engine import TrainConfig, load_trace, save_trace, train_mtl
from .ridge import CvConfig
from .seeding import stream
from .suite import (
    TaskSuiteSpec,
    generate_suite,
    load_suite,
    save_suite,
    spec_from_dict,
    spec_to_dict,
)

OUTPUT_ROOT_ENV = "MTLGROUPING_OUTPUT_ROOT"

_SPLIT_GROUPS = 40

CONFIG_SCHEMA = "experiment-config/1"

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


@dataclass(frozen=True)
class ExperimentConfig:
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
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        lo, hi = self.resolved_sizes()
        if not 2 <= lo <= hi <= self.suite.n_tasks:
            raise ValueError(f"group size range ({lo}, {hi}) invalid for this suite")

    def resolved_sizes(self) -> tuple[int, int]:
        lo, hi = self.group_sizes
        return lo, (self.suite.n_tasks if hi == 0 else hi)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "schema": CONFIG_SCHEMA,
        "suite": spec_to_dict(config.suite),
        "train": {
            "learning_rate": config.train.learning_rate,
            "momentum": config.train.momentum,
            "epochs": config.train.epochs,
            "batch_size": config.train.batch_size,
            "hidden_dims": list(config.train.hidden_dims),
            "seed": config.train.seed,
        },
        "n_train_groups": config.n_train_groups,
        "n_heldout_groups": config.n_heldout_groups,
        "group_sizes": list(config.group_sizes),
        "mapping_kind": config.mapping_kind,
        "residual_enabled": config.residual_enabled,
        "budgets": list(config.budgets),
        "seeds": list(config.seeds),
        "velocity_mode": config.velocity_mode,
        "output_dir": config.output_dir,
    }


def _reject_unknown_keys(keys, cls, prefix: str = "") -> None:
    unknown = sorted(set(keys) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config key " + ", ".join(repr(prefix + k) for k in unknown))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config, rejecting unknown keys and any schema but ``CONFIG_SCHEMA``."""
    schema = data.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ValueError(f"config schema must be {CONFIG_SCHEMA!r}, got {schema!r}")
    _reject_unknown_keys(data.keys() - {"schema"}, ExperimentConfig)
    _reject_unknown_keys(data["suite"], TaskSuiteSpec, "suite.")
    train = data["train"]
    _reject_unknown_keys(train, TrainConfig, "train.")
    return ExperimentConfig(
        suite=spec_from_dict(data["suite"]),
        train=TrainConfig(
            learning_rate=float(train["learning_rate"]),
            momentum=float(train["momentum"]),
            epochs=int(train["epochs"]),
            batch_size=int(train["batch_size"]),
            hidden_dims=tuple(int(h) for h in train["hidden_dims"]),
            seed=int(train.get("seed", 0)),
        ),
        n_train_groups=int(data["n_train_groups"]),
        n_heldout_groups=int(data["n_heldout_groups"]),
        group_sizes=tuple(int(s) for s in data.get("group_sizes", (2, 0))),
        mapping_kind=data.get("mapping_kind", "spline"),
        residual_enabled=bool(data.get("residual_enabled", True)),
        budgets=tuple(int(b) for b in data.get("budgets", (2,))),
        seeds=tuple(int(s) for s in data.get("seeds", (0,))),
        velocity_mode=data.get("velocity_mode", "joint"),
        output_dir=data.get("output_dir", "experiment-out"),
    )


def load_config(path) -> ExperimentConfig:
    with open(Path(path)) as fh:
        return config_from_dict(json.load(fh))


def resolve_output_dir(config: ExperimentConfig, override=None) -> Path:
    """Explicit override, else the config path, rooted at $MTLGROUPING_OUTPUT_ROOT."""
    path = Path(override) if override is not None else Path(config.output_dir)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path, stage: str) -> dict:
    with open(_require(path, stage)) as fh:
        return json.load(fh)


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise StageError(stage, f"missing upstream artifact {path}")
    return path


def run_dirs(config: ExperimentConfig, out: Path) -> list[Path]:
    return [out / "runs" / f"{i:02d}_seed{s}" for i, s in enumerate(config.seeds)]


def _run_train_config(config: ExperimentConfig, seed: int) -> TrainConfig:
    return replace(config.train, seed=seed)


def _mean_std(values) -> dict:
    values = [float(v) for v in values]
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"mean": mean, "std": std, "values": values}


# ---------------------------------------------------------------- stages

def stage_generate(config: ExperimentConfig, out: Path) -> None:
    _write_json(out / "config.json", config_to_dict(config))
    save_suite(generate_suite(config.suite), out / "suite")


def stage_train_affinity(config: ExperimentConfig, out: Path) -> None:
    suite = load_suite(_require(out / "suite", "train-affinity"))
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        rd.mkdir(parents=True, exist_ok=True)
        tc = _run_train_config(config, seed)
        model = train_mtl(suite.tasks, suite, tc, capture_trace=True)
        save_trace(model.trace, rd / "trace.jsonl")
        trace = load_trace(rd / "trace.jsonl")
        matrix = aff.pairwise_affinity(
            trace, tc.learning_rate, tc.momentum, velocity_mode=config.velocity_mode)
        aff.save_matrix(matrix, rd / "affinity.json")
        aff.matrix_to_csv(matrix, rd / "affinity.csv")


def _sampled_groups(config: ExperimentConfig, seed: int):
    lo, hi = config.resolved_sizes()
    count = config.n_train_groups + config.n_heldout_groups
    sampled = gn.sample_training_groups(
        config.suite.n_tasks, count, size_range=(lo, hi), seed=seed)
    perm = stream(seed, _SPLIT_GROUPS).permutation(count)
    train = sorted(sampled[i] for i in perm[: config.n_train_groups])
    heldout = sorted(sampled[i] for i in perm[config.n_train_groups:])
    return train, heldout


def stage_oracle(config: ExperimentConfig, out: Path) -> None:
    suite = load_suite(_require(out / "suite", "oracle"))
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        rd.mkdir(parents=True, exist_ok=True)
        train_groups, heldout_groups = _sampled_groups(config, seed)
        _write_json(rd / "groups.json", {
            "schema": "groups/1",
            "train": [list(g) for g in train_groups],
            "heldout": [list(g) for g in heldout_groups],
        })
        tc = _run_train_config(config, seed)
        cache = gn.StlCache(suite)
        for name, groups in (("train", train_groups), ("heldout", heldout_groups)):
            result = gn.measure_gains_batch(groups, suite, tc, cache=cache)
            if result.failures:
                g, err = result.failures[0]
                raise StageError("oracle", f"group {g} failed: {err}")
            gn.save_records(result.records, rd / f"gains_{name}.jsonl")
            gn.records_to_csv(result.records, rd / f"gains_{name}.csv")


def stage_fit(config: ExperimentConfig, out: Path) -> None:
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        groups = _read_json(rd / "groups.json", "fit")
        train_set = {tuple(g) for g in groups["train"]}
        heldout_set = {tuple(g) for g in groups["heldout"]}
        if train_set & heldout_set:
            raise StageError("fit", "training and held-out groups overlap")
        matrix = aff.load_matrix(_require(rd / "affinity.json", "fit"))
        records = gn.load_records(_require(rd / "gains_train.jsonl", "fit"))
        predictor = ens.fit_predictor(
            records, matrix, config.suite.n_tasks,
            mapping_kind=config.mapping_kind,
            residual_enabled=config.residual_enabled,
            cv=CvConfig(seed=seed),
        )
        ens.save_predictor(predictor, rd / "predictor.json")


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


def _report_dict(report: met.EvalReport) -> dict:
    return {"r2": report.r2, "pearson": report.pearson,
            "mse": report.mse, "n_points": report.n_points}


def stage_evaluate(config: ExperimentConfig, out: Path) -> None:
    for rd, _ in zip(run_dirs(config, out), config.seeds):
        predictor = ens.load_predictor(_require(rd / "predictor.json", "evaluate"))
        matrix = aff.load_matrix(_require(rd / "affinity.json", "evaluate"))
        records = gn.load_records(_require(rd / "gains_heldout.jsonl", "evaluate"))
        actual, final, stage1 = _heldout_points(predictor, matrix, records)
        _write_json(rd / "eval.json", {
            "schema": "eval/1",
            "final": _report_dict(met.evaluate(actual, final)),
            "stage1": _report_dict(met.evaluate(actual, stage1)),
        })


def _candidate_universe(config: ExperimentConfig):
    lo, hi = config.resolved_sizes()
    return sel.enumerate_candidate_groups(config.suite.n_tasks, min_size=lo, max_size=hi)


def stage_select(config: ExperimentConfig, out: Path) -> None:
    candidates = _candidate_universe(config)
    for rd, _ in zip(run_dirs(config, out), config.seeds):
        predictor = ens.load_predictor(_require(rd / "predictor.json", "select"))
        matrix = aff.load_matrix(_require(rd / "affinity.json", "select"))
        for budget in config.budgets:
            problem = sel.build_problem(predictor, matrix, candidates, budget)
            result = sel.select_branch_and_bound(problem)
            sel.save_result(result, rd / f"selection_B{budget}.json")
            with open(rd / f"selection_B{budget}.txt", "w") as fh:
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
        for rec in gn.load_records(_require(rd / f"gains_{name}.jsonl", "report")):
            baselines = {t: cache.get(t, tc).losses["test"][t] for t in rec.group}
            if rec.seed != tc.seed or rec.stl_losses != baselines:
                raise StageError("report", f"oracle record of group {rec.group} in {rd} "
                                           "does not match this config; rerun oracle")
            records[rec.group] = rec
    return records


def stage_report(config: ExperimentConfig, out: Path) -> dict:
    suite = load_suite(_require(out / "suite", "report"))
    n = config.suite.n_tasks
    all_tasks = tuple(range(n))
    candidates = list(_candidate_universe(config))
    if all_tasks not in candidates:
        candidates.append(all_tasks)  # the naive all-in-one baseline
    per_budget: dict[int, dict[str, list[float]]] = {
        b: {"selected": [], "naive": [], "optimal": []} for b in config.budgets}
    for rd, seed in zip(run_dirs(config, out), config.seeds):
        tc = _run_train_config(config, seed)
        cache = gn.StlCache(suite)
        measured = _oracle_records(rd, tc, cache)
        result = gn.measure_gains_batch(
            [g for g in candidates if g not in measured], suite, tc, cache=cache)
        if result.failures:
            g, err = result.failures[0]
            raise StageError("report", f"group {g} failed: {err}")
        measured.update((rec.group, rec) for rec in result.records)
        records = [measured[g] for g in candidates]
        gn.save_records(records, rd / "gains_candidates.jsonl")
        mtl_by_group = {rec.group: rec.mtl_losses for rec in records}
        stl_losses: dict[int, float] = {}
        for rec in records:
            stl_losses.update(rec.stl_losses)
        if sorted(stl_losses) != list(range(n)):
            raise StageError("report", "candidate universe does not cover every task")
        naive = float(sum(mtl_by_group[all_tasks][t] for t in all_tasks))
        stl_total = float(sum(stl_losses[t] for t in all_tasks))
        # exhaustive-optimal grouping over the same universe the selector saw:
        # maximizing absolute loss reduction minimizes realized total loss
        universe = set(_candidate_universe(config))
        reduction_cands = [
            (rec.group, {t: stl_losses[t] - rec.mtl_losses[t] for t in rec.group})
            for rec in records if rec.group in universe
        ]
        for budget in config.budgets:
            selection = sel.result_from_dict(
                _read_json(rd / f"selection_B{budget}.json", "report"))
            selected = _realized_loss(selection.assignment, stl_losses, mtl_by_group)
            optimal_problem = sel.SelectionProblem(
                n_tasks=n,
                candidates=tuple((g, dict(v)) for g, v in reduction_cands),
                budget=budget,
            )
            optimal_sel = sel.select_exhaustive(optimal_problem)
            optimal = stl_total - optimal_sel.objective
            _write_json(rd / f"realized_B{budget}.json", {
                "schema": "realized/1",
                "budget": budget,
                "selected_total_test_loss": float(selected),
                "naive_total_test_loss": naive,
                "optimal_total_test_loss": float(optimal),
                "stl_total_test_loss": stl_total,
                "selected_chosen": [list(g) for g in selection.chosen],
                "optimal_chosen": [list(g) for g in optimal_sel.chosen],
            })
            per_budget[budget]["selected"].append(float(selected))
            per_budget[budget]["naive"].append(naive)
            per_budget[budget]["optimal"].append(float(optimal))

    evals = {"final": {"r2": [], "pearson": [], "mse": []},
             "stage1": {"r2": [], "pearson": [], "mse": []}}
    for rd, _ in zip(run_dirs(config, out), config.seeds):
        data = _read_json(rd / "eval.json", "report")
        for kind in ("final", "stage1"):
            for metric in ("r2", "pearson", "mse"):
                evals[kind][metric].append(data[kind][metric])
    report = {
        "schema": "report/1",
        "n_runs": len(config.seeds),
        "eval": {
            kind: {metric: _mean_std(vals) for metric, vals in metrics.items()}
            for kind, metrics in evals.items()
        },
        "realized": {
            str(b): {name: _mean_std(vals) for name, vals in results.items()}
            for b, results in per_budget.items()
        },
    }
    _write_json(out / "report.json", report)
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


def run_stage(name: str, config: ExperimentConfig, out: Path):
    """Run one stage, tagging any failure with the stage name."""
    func = _STAGE_FUNCS[name]
    try:
        return func(config, out)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


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
    try:
        for rd, seed in zip(run_dirs(config, out), config.seeds):
            matrix = aff.load_matrix(_require(rd / "affinity.json", "ablate"))
            train_records = gn.load_records(_require(rd / "gains_train.jsonl", "ablate"))
            heldout_records = gn.load_records(_require(rd / "gains_heldout.jsonl", "ablate"))
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
    except StageError:
        raise
    except Exception as exc:
        raise StageError("ablate", str(exc)) from exc
    table = {
        "schema": "ablation/1",
        "n_runs": len(config.seeds),
        "cells": {
            label: {metric: _mean_std(vals) for metric, vals in metrics.items()}
            for label, metrics in cells.items()
        },
    }
    _write_json(out / "ablation.json", table)
    lines = [f"{'cell':<18} {'r2':>18} {'pearson':>18}"]
    for label, metrics in table["cells"].items():
        r2, pr = metrics["r2"], metrics["pearson"]
        lines.append(
            f"{label:<18} {r2['mean']:>8.4f} ± {r2['std']:<7.4f} "
            f"{pr['mean']:>8.4f} ± {pr['std']:<7.4f}"
        )
    with open(out / "ablation.txt", "w") as fh:
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
