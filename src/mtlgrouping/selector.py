"""Budgeted selection of task groups maximizing per-task best gains.

A selection's objective credits each task with the best gain among the
chosen groups that contain it; a task in no chosen group falls back to its
single-task model and contributes zero. Both an exhaustive search and a
branch-and-bound search are provided; they agree exactly, including on the
tie rule (lexicographically smallest sorted list of chosen groups), because
every objective is summed in fixed task order rather than accumulated
incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import ClassVar

from .affinity import AffinityMatrix
from .artifacts import from_dict
from .ensemble import EnsemblePredictor, predict_from_matrix

MAX_EXHAUSTIVE_COMBINATIONS = 10_000_000

MAX_ENUMERATED_GROUPS = 2_000_000


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
            if tuple(sorted(set(group))) != group:
                raise ValueError(f"candidate group {group} must be sorted and distinct")
            if any(not 0 <= t < self.n_tasks for t in group):
                raise ValueError(f"candidate group {group} has out-of-range tasks")
            if sorted(gains.keys()) != list(group):
                raise ValueError(f"gains for {group} must be keyed exactly by its members")


@dataclass(frozen=True)
class SelectionResult:
    SCHEMA: ClassVar[str] = "selection/1"

    chosen: tuple[tuple[int, ...], ...]  # sorted lexicographically
    objective: float
    assignment: dict[int, tuple[int, ...] | None]  # None marks single-task fallback


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


class _Search:
    """Shared cover-array bookkeeping for both search strategies."""

    def __init__(self, problem: SelectionProblem):
        self.problem = problem
        self.cands = list(problem.candidates)
        self.m = len(self.cands)
        if self.m == 0:
            raise ValueError("no candidate groups to select from")
        self.top = min(problem.budget, self.m)
        self.cover: list = [None] * problem.n_tasks
        self.chosen: list[int] = []
        self.best = None  # (objective, tie key, indices)

    def objective(self) -> float:
        return float(sum(v for v in self.cover if v is not None))

    def push(self, j: int) -> list:
        group, gains = self.cands[j]
        undo = []
        for t in group:
            undo.append((t, self.cover[t]))
            if self.cover[t] is None or gains[t] > self.cover[t]:
                self.cover[t] = gains[t]
        self.chosen.append(j)
        return undo

    def pop(self, undo: list) -> None:
        self.chosen.pop()
        for t, old in reversed(undo):
            self.cover[t] = old

    def consider(self) -> None:
        obj = self.objective()
        if self.best is not None and obj < self.best[0]:
            return
        key = tuple(sorted(self.cands[i][0] for i in self.chosen))
        if self.best is None or obj > self.best[0] or key < self.best[1]:
            self.best = (obj, key, tuple(self.chosen))

    def result(self) -> SelectionResult:
        return _result(self.problem, [self.cands[i] for i in self.best[2]])


def count_subsets(n_candidates: int, budget: int) -> int:
    """How many subsets of at most ``budget`` candidates ``select_exhaustive`` visits."""
    return sum(comb(n_candidates, k) for k in range(min(budget, n_candidates) + 1))


def select_exhaustive(problem: SelectionProblem) -> SelectionResult:
    """Globally optimal selection by enumerating every subset within budget."""
    search = _Search(problem)
    total = count_subsets(search.m, problem.budget)
    if total > MAX_EXHAUSTIVE_COMBINATIONS:
        raise ValueError(f"{total} subsets exceed the exhaustive-search guard")

    def dfs(i: int):
        search.consider()
        if i == search.m or len(search.chosen) == search.top:
            return
        for j in range(i, search.m):
            undo = search.push(j)
            dfs(j + 1)
            search.pop(undo)

    dfs(0)
    return search.result()


def select_branch_and_bound(problem: SelectionProblem,
                            pruned_log: list | None = None) -> SelectionResult:
    """Same optimum and tie rule as the exhaustive search, with pruning.

    The search enumerates subsets in the exhaustive search's index order, so
    its depth is at most the budget. Before a candidate ``j`` is added, the
    bound replaces each task's current contribution with the best gain among
    candidates ``j..`` whenever that would improve it. That bound only falls
    as ``j`` grows, so the loop stops at the first ``j`` whose bound is
    strictly below the incumbent; equal-objective solutions still surface for
    the lexicographic tie rule. If pruned_log is a list, a (next index,
    chosen_indices, bound) triple is appended to it at every such stop.
    """
    search = _Search(problem)
    m, n = search.m, problem.n_tasks
    cands = search.cands

    # best_remaining[i][t]: best gain for t among candidates i.. (None if absent)
    best_remaining: list = [[None] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        group, gains = cands[i]
        row = list(best_remaining[i + 1])
        for t in group:
            if row[t] is None or gains[t] > row[t]:
                row[t] = gains[t]
        best_remaining[i] = row

    def node_bound(j: int) -> float:
        ub = list(search.cover)
        for t, candidate in enumerate(best_remaining[j]):
            current = ub[t] if ub[t] is not None else 0.0
            if candidate is not None and candidate > current:
                ub[t] = candidate
        return float(sum(v for v in ub if v is not None))

    def dfs(i: int):
        search.consider()
        if len(search.chosen) == search.top:
            return
        for j in range(i, m):
            bound = node_bound(j)
            if bound < search.best[0]:
                if pruned_log is not None:
                    pruned_log.append((j, tuple(search.chosen), bound))
                return
            undo = search.push(j)
            dfs(j + 1)
            search.pop(undo)

    dfs(0)
    return search.result()


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
    groups = [tuple(sorted(set(int(t) for t in group))) for group in candidate_groups]
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
