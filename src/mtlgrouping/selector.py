"""Budgeted selection of task groups maximizing per-task best gains.

A selection's objective credits each task with the best gain among the
chosen groups that contain it; a task in no chosen group falls back to its
single-task model and contributes zero. Both an exhaustive search and a
branch-and-bound search are provided, and both score selections with the
same two helpers: one gain table with -inf where a task is absent from a
group (``_gain_table``), and one sum over the tasks in fixed order from
+0.0 with -inf read as 0.0 (``_task_sums``). So they agree exactly,
including on the tie rule (lexicographically smallest sorted list of
chosen groups). Gains must be finite, so that no gain can be mistaken for
the -inf of an absent task.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, isfinite
from typing import ClassVar

import numpy as np

from .affinity import AffinityMatrix, check_stored_group, task_group
from .artifacts import from_dict
from .ensemble import EnsemblePredictor, predict_from_matrix

MAX_EXHAUSTIVE_COMBINATIONS = 10_000_000

MAX_ENUMERATED_GROUPS = 2_000_000

SUBSET_CHUNK = 1 << 14  # subsets scored per array pass of the exhaustive search


@dataclass(frozen=True)
class SelectionProblem:
    n_tasks: int
    candidates: tuple  # ((group, {task: gain}), ...)
    budget: int

    def __post_init__(self):
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        seen = set()
        for group, gains in self.candidates:
            group = tuple(group)
            if group in seen:
                raise ValueError(f"duplicate candidate group {group}")
            seen.add(group)
            if task_group(group, self.n_tasks) != group:
                raise ValueError(f"candidate group {group} must be sorted and distinct")
            if sorted(gains.keys()) != list(group):
                raise ValueError(f"gains for {group} must be keyed exactly by its members")
            for t in group:
                if not isfinite(gains[t]):
                    raise ValueError(f"gain of task {t} in group {group} must be finite, "
                                     f"got {gains[t]}")


@dataclass(frozen=True)
class SelectionResult:
    SCHEMA: ClassVar[str] = "selection/1"

    chosen: tuple[tuple[int, ...], ...]  # sorted lexicographically
    objective: float
    assignment: dict[int, tuple[int, ...] | None]  # None marks single-task fallback

    def __post_init__(self):
        if not isfinite(self.objective):
            raise ValueError(f"selection objective must be finite, got {self.objective!r}")
        for group in self.chosen:
            check_stored_group(group)
        if any(a >= b for a, b in zip(self.chosen, self.chosen[1:])):
            raise ValueError(f"chosen groups {[list(g) for g in self.chosen]} must be "
                             "strictly increasing")
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise ValueError(f"assignment must map tasks 0..{len(self.assignment) - 1}, "
                             f"got tasks {sorted(self.assignment)}")
        for t, group in self.assignment.items():
            if group is not None and (group not in self.chosen or t not in group):
                raise ValueError(f"task {t} is assigned group {list(group)}, which is not a "
                                 "chosen group holding it")
            if group is None and any(t in g for g in self.chosen):
                raise ValueError(f"task {t} is assigned no group, though a chosen group holds it")


def selection_objective(problem: SelectionProblem, chosen):
    """(objective, assignment) for an explicit collection of chosen candidates."""
    best: dict[int, tuple[float, tuple[int, ...]]] = {}
    for group, gains in chosen:
        for t in group:
            gain = gains[t]
            if t not in best or gain > best[t][0] or (gain == best[t][0] and group < best[t][1]):
                best[t] = (gain, group)
    objective = sum(best[t][0] for t in sorted(best))
    assignment: dict[int, tuple[int, ...] | None] = {
        t: (best[t][1] if t in best else None) for t in range(problem.n_tasks)
    }
    return float(objective), assignment


def _result(problem: SelectionProblem, chosen_candidates) -> SelectionResult:
    objective, assignment = selection_objective(problem, chosen_candidates)
    return SelectionResult(
        chosen=tuple(sorted(g for g, _ in chosen_candidates)),
        objective=objective,
        assignment=assignment,
    )


def count_subsets(n_candidates: int, budget: int) -> int:
    """How many subsets of at most ``budget`` candidates ``select_exhaustive`` visits."""
    return sum(comb(n_candidates, k) for k in range(min(budget, n_candidates) + 1))


def _gain_table(n_tasks: int, cands) -> np.ndarray:
    """``gains[t, j]``: candidate j's gain for task t, or -inf where t is not in it."""
    gains = np.full((n_tasks, len(cands)), -np.inf)
    for j, (group, by_task) in enumerate(cands):
        gains[list(group), j] = [by_task[t] for t in group]
    return gains


def _task_sums(cover: np.ndarray) -> np.ndarray:
    """Objective of each column of a cover, -inf read as 0.0, summed over tasks in order."""
    cover = np.where(cover == -np.inf, 0.0, cover)
    total = np.zeros(cover.shape[1:])
    for row in cover:
        total += row
    return total


def select_exhaustive(problem: SelectionProblem) -> SelectionResult:
    """Globally optimal selection by scoring every subset within budget.

    Candidates are put in sorted group order, so that comparing index tuples
    compares sorted group lists. The k-subsets are scored in lexicographic
    chunks: the elementwise maximum of their k columns of the gain table,
    summed by ``_task_sums``.
    """
    cands = sorted(problem.candidates, key=lambda c: c[0])
    m = len(cands)
    if m == 0:
        raise ValueError("no candidate groups to select from")
    total = count_subsets(m, problem.budget)
    if total > MAX_EXHAUSTIVE_COMBINATIONS:
        raise ValueError(f"{total} subsets exceed the exhaustive-search guard")
    gains = _gain_table(problem.n_tasks, cands)

    best, best_key = 0.0, ()  # the empty selection
    for k in range(1, min(problem.budget, m) + 1):
        subsets = combinations(range(m), k)
        while (index := np.fromiter(chain.from_iterable(islice(subsets, SUBSET_CHUNK)),
                                    dtype=np.intp)).size:
            index = index.reshape(-1, k)
            cover = gains[:, index[:, 0]]
            for i in range(1, k):
                np.maximum(cover, gains[:, index[:, i]], out=cover)
            objective = _task_sums(cover)
            top = int(np.argmax(objective))
            key = tuple(index[top].tolist())
            if objective[top] > best or (objective[top] == best and key < best_key):
                best, best_key = float(objective[top]), key
    return _result(problem, [cands[j] for j in best_key])


def select_branch_and_bound(problem: SelectionProblem,
                            pruned_log: list | None = None) -> SelectionResult:
    """Same optimum and tie rule as the exhaustive search, with pruning.

    The search enumerates subsets in candidate index order, so its depth is
    at most the budget. A node's cover holds each task's best gain among its
    chosen candidates (-inf if none holds it). In one ``_task_sums`` pass
    each, the node scores every child ``j``'s objective and bound: the cover,
    with uncovered tasks read as 0.0, raised to ``best_after[:, j]``, the
    best gain among candidates ``j..``. That bound only falls as ``j``
    grows, so the loop stops at the first ``j`` whose bound is strictly
    below the incumbent; equal-objective solutions still surface for the
    lexicographic tie rule. If pruned_log is a list, a (next index,
    chosen_indices, bound) triple is appended to it at every such stop.
    """
    cands = list(problem.candidates)
    m = len(cands)
    if m == 0:
        raise ValueError("no candidate groups to select from")
    top = min(problem.budget, m)
    gains = _gain_table(problem.n_tasks, cands)
    best_after = np.maximum.accumulate(gains[:, ::-1], axis=1)[:, ::-1]
    best = (0.0, (), ())  # (objective, tie key, indices), from the empty selection

    def dfs(i: int, cover: np.ndarray, chosen: tuple):
        nonlocal best
        floor = np.where(cover == -np.inf, 0.0, cover)
        bounds = _task_sums(np.maximum(floor[:, None], best_after[:, i:])).tolist()
        covers = np.maximum(cover[:, None], gains[:, i:])
        objectives = _task_sums(covers).tolist()
        for j, bound, objective in zip(range(i, m), bounds, objectives):
            if bound < best[0]:
                if pruned_log is not None:
                    pruned_log.append((j, chosen, bound))
                return
            child = chosen + (j,)
            if objective >= best[0]:
                key = tuple(sorted(cands[c][0] for c in child))
                if objective > best[0] or key < best[1]:
                    best = (objective, key, child)
            if len(child) < top:
                dfs(j + 1, covers[:, j - i], child)

    dfs(0, np.full(problem.n_tasks, -np.inf), ())
    return _result(problem, [cands[j] for j in best[2]])


def count_candidate_groups(n_tasks: int, min_size: int = 2, max_size: int | None = None) -> int:
    """How many groups ``enumerate_candidate_groups`` returns, counted without listing them."""
    max_size = n_tasks if max_size is None else max_size
    if not 2 <= min_size <= max_size <= n_tasks:
        raise ValueError(f"size range ({min_size}, {max_size}) invalid for {n_tasks} tasks")
    return sum(comb(n_tasks, k) for k in range(min_size, max_size + 1))


def enumerate_candidate_groups(n_tasks: int, min_size: int = 2, max_size: int | None = None):
    """All groups with sizes in ``[min_size, max_size]``, smallest first."""
    max_size = n_tasks if max_size is None else max_size
    total = count_candidate_groups(n_tasks, min_size, max_size)
    if total > MAX_ENUMERATED_GROUPS:
        raise ValueError(f"{total} candidate groups exceed the enumeration guard")
    return [g for k in range(min_size, max_size + 1)
            for g in combinations(range(n_tasks), k)]


def build_problem(predictor: EnsemblePredictor, matrix: AffinityMatrix,
                  candidate_groups, budget: int) -> SelectionProblem:
    """Fill candidate gains from the predictor over an affinity matrix, in one call."""
    groups = [task_group(group, predictor.n_tasks) for group in candidate_groups]
    return SelectionProblem(
        n_tasks=predictor.n_tasks,
        candidates=tuple(zip(groups, predict_from_matrix(predictor, groups, matrix))),
        budget=budget,
    )


def result_from_dict(data: dict) -> SelectionResult:
    return from_dict(SelectionResult, data)


def format_selection_table(result: SelectionResult) -> str:
    """Human-readable task-to-group table."""
    lines = [
        f"chosen groups ({len(result.chosen)}): "
        + (", ".join("{" + ",".join(map(str, g)) + "}" for g in result.chosen) or "none"),
        f"objective: {result.objective:.6g}",
        "task  assigned",
        "----  --------",
    ]
    for t in sorted(result.assignment):
        g = result.assignment[t]
        label = "single-task" if g is None else "{" + ",".join(map(str, g)) + "}"
        lines.append(f"{t:>4}  {label}")
    return "\n".join(lines) + "\n"
