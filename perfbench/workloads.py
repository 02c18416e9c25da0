"""The benchmark's workloads: their inputs, one op, and the check of its outputs.

Each workload turns the workload seed into experiment configs; the program
only ever sees those configs. Every run starts with a fixed list of ops that
is the same whatever the workload seed: quality metrics, the recorded golden
values and the traced layer metrics come from it, so they repeat exactly
between runs. The ops after it take their training seeds from the workload
seed and only add timing samples.

- ``reference``: one op is the seven-stage ``run_experiment`` of
  ``reference_config()`` for one training seed. Oracle and report training
  (engine and gains) dominate; this is where batched training and gain reuse
  must show.
- ``refit``: set-up persists generate, train-affinity and oracle for
  ``reference_config()``; one op reruns train-affinity and refits, evaluates
  and selects all four ablation cells. Ridge CV, the spline basis and the
  trace write/read path dominate and no ground-truth training runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from mtlgrouping import affinity, ensemble, experiment, gains, selector
from mtlgrouping.experiment import ExperimentConfig, reference_config, run_dirs
from tracing import SPANS, span_name

# optimal - SANDWICH_SLACK <= selected, and optimal <= naive + SANDWICH_SLACK:
# the realized totals are sums of the same losses in different orders
SANDWICH_SLACK = 1e-9

# timed ops after the fixed list use training seeds OP_SEED_BASE + 100*seed + k
OP_SEED_BASE = 1000

# a pipeline op calls every wrapped function
ALL_SPANS = tuple(span_name(owner, attr) for owner, attr, *_ in SPANS)

# refit ops neither generate nor measure gains, and select only by branch and bound
REFIT_SPANS = tuple(s for s in ALL_SPANS if s not in (
    "experiment.generate_suite", "experiment.save_suite", "gains.train_mtl",
    "gains.train_stl", "gains.measure_gains_batch", "gains.StlCache.get",
    "selector.select_exhaustive"))


@dataclass(frozen=True)
class Op:
    label: str
    config: ExperimentConfig
    out: Path
    fixed: bool  # in the fixed list that opens every run


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _missing(paths) -> list[str]:
    return [f"missing artifact {p}" for p in paths if not p.exists()]


def _eval_problems(path: Path) -> list[str]:
    data = json.loads(path.read_text())
    values = [data[kind][m] for kind in ("final", "stage1") for m in ("r2", "pearson", "mse")]
    return [] if _finite(*values) else [f"non-finite evaluation in {path}"]


def _selection_problems(config: ExperimentConfig, rd: Path, budget: int) -> list[str]:
    """Predictions over the candidate universe are finite, and the
    branch-and-bound choice equals the exhaustive one and the persisted one."""
    predictor = ensemble.load_predictor(rd / "predictor.json")
    matrix = affinity.load_matrix(rd / "affinity.json")
    lo, hi = config.resolved_sizes()
    universe = selector.enumerate_candidate_groups(config.suite.n_tasks, lo, hi)
    problem = selector.build_problem(predictor, matrix, universe, budget)
    if not all(_finite(*predicted.values()) for _, predicted in problem.candidates):
        return [f"non-finite predicted gain in {rd} (B={budget})"]
    persisted = selector.result_from_dict(
        json.loads((rd / f"selection_B{budget}.json").read_text()))
    results = {
        "branch and bound": selector.select_branch_and_bound(problem),
        "exhaustive": selector.select_exhaustive(problem),
        "persisted": persisted,
    }
    keys = {name: (r.objective, r.chosen) for name, r in results.items()}
    if len(set(keys.values())) != 1:
        return [f"selections disagree in {rd} (B={budget}): {keys}"]
    return []


def _realized(assignment, stl, mtl) -> float:
    return sum(stl[t] if g is None else mtl[g][t] for t, g in sorted(assignment.items()))


class PipelineWorkload:
    """One op = the seven-stage run of one config with a single training seed."""

    def __init__(self, name: str, make_config, fixed_seeds):
        self.name = name
        self.make_config = make_config
        self.fixed_seeds = tuple(fixed_seeds)
        self.expected_spans = ALL_SPANS

    def setup(self, workdir: Path) -> None:
        """Nothing to persist: each op builds its own suite, so set-up is the
        package import plus building (and validating) a config."""
        self.make_config(0)

    def ops(self, seed: int, setup_dir: Path, workdir: Path):
        for s in self.fixed_seeds:
            yield Op(f"seed{s}", self.make_config(s), workdir / f"seed{s}", True)
        k = 0
        while True:
            s = OP_SEED_BASE + 100 * seed + k
            yield Op(f"seed{s}", self.make_config(s), workdir / f"seed{s}", False)
            k += 1

    def run(self, op: Op) -> None:
        experiment.run_experiment(op.config, op.out)

    def rerun(self, op: Op) -> Op:
        return replace(op, out=op.out.with_name(op.out.name + "-rerun"))

    def check(self, op: Op) -> tuple[list[str], dict]:
        config, out = op.config, op.out
        (rd,) = run_dirs(config, out)
        budgets = config.budgets
        per_run = ["trace.jsonl", "affinity.json", "affinity.csv", "groups.json",
                   "gains_train.jsonl", "gains_train.csv", "gains_heldout.jsonl",
                   "gains_heldout.csv", "predictor.json", "eval.json",
                   "gains_candidates.jsonl"]
        per_run += [f"{kind}_B{b}.{ext}" for b in budgets
                    for kind, ext in (("selection", "json"), ("selection", "txt"),
                                      ("realized", "json"))]
        paths = [out / "config.json", out / "report.json", out / "suite" / "spec.json"]
        paths += [out / "suite" / f"task_{t}.csv" for t in range(config.suite.n_tasks)]
        paths += [rd / name for name in per_run]
        problems = _missing(paths)
        if problems:
            return problems, {}
        problems += _eval_problems(rd / "eval.json")
        quality = {"pearson": json.loads((rd / "eval.json").read_text())["final"]["pearson"]}
        regrets = []
        for b in budgets:
            realized = json.loads((rd / f"realized_B{b}.json").read_text())
            selected = realized["selected_total_test_loss"]
            optimal = realized["optimal_total_test_loss"]
            naive = realized["naive_total_test_loss"]
            if not _finite(selected, optimal, naive):
                problems.append(f"non-finite realized loss (B={b})")
            elif not optimal - SANDWICH_SLACK <= selected:
                problems.append(f"selected {selected} below optimal {optimal} (B={b})")
            elif not optimal <= naive + SANDWICH_SLACK:
                problems.append(f"optimal {optimal} above naive {naive} (B={b})")
            problems += _selection_problems(config, rd, b)
            quality.update({f"selected_B{b}": selected, f"optimal_B{b}": optimal,
                            f"naive_B{b}": naive})
            regrets.append(selected - optimal)
        quality["regret"] = sum(regrets) / len(regrets)
        return problems, quality


# reversed so that spline+residual runs last and its artifacts stay for the check
REFIT_CELLS = tuple(reversed(experiment.ABLATION_CELLS))


class RefitWorkload:
    """Set-up persists the upstream artifacts of ``reference_config()``; one op
    retraces the joint run and refits, evaluates and selects all four cells.

    Its inputs are ``reference_config()`` itself, so the workload seed does not
    change them: every op is the same re-scoring of the same artifacts.
    """

    name = "refit"
    expected_spans = REFIT_SPANS
    fixed_count = 3

    def __init__(self):
        self.config = reference_config()

    def setup(self, workdir: Path) -> None:
        for stage in ("generate", "train-affinity", "oracle"):
            experiment.run_stage(stage, self.config, workdir)

    def ops(self, seed: int, setup_dir: Path, workdir: Path):
        k = 0
        while True:
            yield Op(f"op{k}", self.config, setup_dir, k < self.fixed_count)
            k += 1

    def run(self, op: Op) -> None:
        experiment.run_stage("train-affinity", op.config, op.out)
        for kind, residual, _ in REFIT_CELLS:
            cell = replace(op.config, mapping_kind=kind, residual_enabled=residual)
            for stage in ("fit", "evaluate", "select"):
                experiment.run_stage(stage, cell, op.out)

    def rerun(self, op: Op) -> Op:
        return op

    def check(self, op: Op) -> tuple[list[str], dict]:
        config = op.config
        (budget,) = config.budgets
        names = ["trace.jsonl", "affinity.json", "affinity.csv", "groups.json",
                 "gains_train.jsonl", "gains_heldout.jsonl", "predictor.json",
                 "eval.json", f"selection_B{budget}.json", f"selection_B{budget}.txt"]
        rds = run_dirs(config, op.out)
        problems = _missing([rd / name for rd in rds for name in names])
        if problems:
            return problems, {}
        pearsons, selected, optimal = [], [], []
        for rd in rds:
            predictor = ensemble.load_predictor(rd / "predictor.json")
            if (predictor.mapping_kind, predictor.residual_enabled) != ("spline", True):
                problems.append(f"{rd} does not hold the spline+residual predictor")
                continue
            problems += _eval_problems(rd / "eval.json")
            problems += _selection_problems(config, rd, budget)
            pearsons.append(json.loads((rd / "eval.json").read_text())["final"]["pearson"])
            sel, opt = self._heldout_realized(rd, predictor, budget)
            if not opt - SANDWICH_SLACK <= sel:
                problems.append(f"held-out selection {sel} below optimal {opt} in {rd}")
            selected.append(sel)
            optimal.append(opt)
        if problems:
            return problems, {}
        n = len(rds)
        return problems, {
            "pearson": sum(pearsons) / n,
            "regret": (sum(selected) - sum(optimal)) / n,
            "selected": sum(selected),
            "optimal": sum(optimal),
        }

    def _heldout_realized(self, rd: Path, predictor, budget: int) -> tuple[float, float]:
        """Realized total test loss of the predictor's choice among the held-out
        groups, and of the best choice among them; the oracle measured both."""
        records = gains.load_records(rd / "gains_heldout.jsonl")
        stl: dict[int, float] = {}
        for rec in records:
            stl.update(rec.stl_losses)
        n = self.config.suite.n_tasks
        if sorted(stl) != list(range(n)):
            raise ValueError(f"held-out groups in {rd} do not cover every task")
        mtl = {rec.group: rec.mtl_losses for rec in records}
        matrix = affinity.load_matrix(rd / "affinity.json")
        chosen = selector.select_branch_and_bound(
            selector.build_problem(predictor, matrix, list(mtl), budget))
        reductions = tuple((g, {t: stl[t] - losses[t] for t in g}) for g, losses in mtl.items())
        best = selector.select_exhaustive(selector.SelectionProblem(n, reductions, budget))
        return _realized(chosen.assignment, stl, mtl), _realized(best.assignment, stl, mtl)


WORKLOADS = {
    w.name: w for w in (
        PipelineWorkload("reference", lambda s: reference_config(seeds=(s,)),
                         fixed_seeds=(0, 1)),
        RefitWorkload(),
    )
}


def digest(directory: Path) -> dict[str, str]:
    """sha256 of every artifact under a directory except ``config.json``."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.relative_to(directory) != Path("config.json")
    }
