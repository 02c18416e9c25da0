import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from mtlgrouping import selector
from mtlgrouping.artifacts import to_json, write_json
from mtlgrouping.ensemble import fit_predictor
from mtlgrouping.ridge import CvConfig
from mtlgrouping.selector import (
    SelectionProblem,
    SelectionResult,
    build_problem,
    count_candidate_groups,
    count_subsets,
    enumerate_candidate_groups,
    format_selection_table,
    result_from_dict,
    select_branch_and_bound,
    select_exhaustive,
    selection_objective,
)


def problem(candidates, n_tasks, budget):
    return SelectionProblem(n_tasks=n_tasks, candidates=tuple(candidates), budget=budget)


def random_problem(rng, n_max=8, cand_max=60, budget_max=4,
                   gain=lambda rng: float(rng.normal(0.05, 0.2))):
    n = int(rng.integers(2, n_max + 1))
    universe = [g for k in range(2, n + 1) for g in combinations(range(n), k)]
    m = int(rng.integers(1, min(cand_max, len(universe)) + 1))
    idx = rng.choice(len(universe), size=m, replace=False)
    candidates = []
    for i in sorted(idx):
        group = universe[i]
        candidates.append((group, {t: gain(rng) for t in group}))
    budget = int(rng.integers(1, budget_max + 1))
    return problem(candidates, n, budget)


def brute_force(prob):
    """(objective, chosen, assignment) of the best subset, smallest sorted group list on ties."""
    cands = list(prob.candidates)
    best = None
    for k in range(min(prob.budget, len(cands)) + 1):
        for subset in combinations(cands, k):
            objective, assignment = selection_objective(prob, subset)
            chosen = tuple(sorted(g for g, _ in subset))
            if best is None or objective > best[0] or (objective == best[0] and chosen < best[1]):
                best = (objective, chosen, assignment)
    return best


class TestObjective:
    def test_coverage_rule(self):
        cands = [((0, 1), {0: 0.1, 1: 0.1}), ((0, 1, 2), {0: 0.05, 1: 0.05, 2: 0.2})]
        obj, assignment = selection_objective(problem(cands, 4, 2), cands)
        assert obj == pytest.approx(0.1 + 0.1 + 0.2, abs=1e-15)
        assert assignment[0] == (0, 1)
        assert assignment[2] == (0, 1, 2)
        assert assignment[3] is None


class TestSelectExhaustive:
    def test_nonnegative_gains_take_everything(self):
        # choosing every candidate achieves the optimum (monotone objective);
        # the tie rule may return a smaller subset with the same value
        rng = np.random.default_rng(0)
        cands = [(g, {t: float(rng.uniform(0, 1)) for t in g})
                 for g in [(0, 1), (1, 2), (0, 2), (0, 1, 2)]]
        prob = problem(cands, 3, 10)
        result = select_exhaustive(prob)
        take_all, _ = selection_objective(prob, cands)
        assert result.objective == take_all

    def test_prefers_larger_covering_group(self):
        cands = [((1, 2), {1: 0.1, 2: 0.1}),
                 ((1, 2, 3), {1: 0.05, 2: 0.05, 3: 0.2})]
        result = select_exhaustive(problem(cands, 4, 1))
        assert result.chosen == ((1, 2, 3),)
        assert result.objective == pytest.approx(0.3, abs=1e-15)

    def test_single_candidate(self):
        cands = [((0, 2), {0: 0.3, 2: -0.1})]
        result = select_exhaustive(problem(cands, 4, 2))
        assert result.chosen == ((0, 2),)
        assert result.objective == pytest.approx(0.2, abs=1e-15)
        assert result.assignment[1] is None and result.assignment[3] is None

    def test_all_negative_gains_prefers_empty(self):
        cands = [((0, 1), {0: -0.2, 1: -0.1}), ((1, 2), {1: -0.3, 2: -0.05})]
        result = select_exhaustive(problem(cands, 3, 2))
        assert result.chosen == ()
        assert result.objective == 0.0

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError, match="no candidate"):
            select_exhaustive(problem([], 3, 1))

    def test_guard_on_combination_count(self):
        rng = np.random.default_rng(1)
        universe = list(combinations(range(30), 2))
        cands = [(g, {t: 0.1 for t in g}) for g in universe]  # 435 candidates
        with pytest.raises(ValueError, match="guard"):
            select_exhaustive(problem(cands, 30, 4))

    def test_duplicate_candidates_rejected(self):
        cands = [((0, 1), {0: 0.1, 1: 0.1}), ((0, 1), {0: 0.2, 1: 0.2})]
        with pytest.raises(ValueError, match="duplicate"):
            problem(cands, 3, 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gain_rejected(self, value):
        cands = [((0, 1), {0: 0.1, 1: 0.1}), ((1, 2), {1: 0.2, 2: value})]
        with pytest.raises(ValueError, match=re.escape(
                f"gain of task 2 in group (1, 2) must be finite, got {value}")):
            problem(cands, 3, 1)


class TestBranchAndBound:
    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            prob = random_problem(rng, n_max=6, cand_max=20, budget_max=3)
            a = select_exhaustive(prob)
            b = select_branch_and_bound(prob)
            assert a.objective == b.objective
            assert a.chosen == b.chosen
            assert a.assignment == b.assignment

    def test_pruned_bounds_are_admissible(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(10):
            prob = random_problem(rng, n_max=6, cand_max=12, budget_max=3)
            log = []
            select_branch_and_bound(prob, pruned_log=log)
            for depth, chosen_idx, bound in log[:20]:
                best_completion = _best_completion(prob, depth, chosen_idx)
                assert bound >= best_completion - 1e-12
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("budget", [1, 2])
    def test_full_ten_task_universe_matches_exhaustive(self, budget):
        # 1,013 candidates: a search that recursed once per candidate overflowed the stack
        rng = np.random.default_rng(12)
        cands = [(g, {t: float(rng.normal(0.0, 0.2)) for t in g})
                 for g in enumerate_candidate_groups(10)]
        assert len(cands) == 1013
        prob = problem(cands, 10, budget)
        a = select_exhaustive(prob)
        b = select_branch_and_bound(prob)
        assert (b.objective, b.chosen, b.assignment) == (a.objective, a.chosen, a.assignment)

    def test_tie_breaking_lexicographic(self):
        # two disjoint pairs with identical gains: either alone is optimal at
        # budget 1, so the lexicographically smaller chosen list must win
        cands = [((2, 3), {2: 0.1, 3: 0.1}), ((0, 1), {0: 0.1, 1: 0.1})]
        for select in (select_exhaustive, select_branch_and_bound):
            result = select(problem(cands, 4, 1))
            assert result.chosen == ((0, 1),)


def _best_completion(prob, depth, chosen_idx):
    """Exhaustive best objective over completions of a search node."""
    cands = list(prob.candidates)
    base = [cands[i] for i in chosen_idx]
    remaining = range(depth, len(cands))
    max_extra = min(prob.budget, len(cands)) - len(base)
    return max(selection_objective(prob, base + [cands[i] for i in extra])[0]
               for k in range(max_extra + 1) for extra in combinations(remaining, k))


class TestProperties:
    @pytest.mark.parametrize("gain", [
        lambda rng: float(np.round(rng.normal(0.0, 0.2), 1)),
        lambda rng: 0.0,
        lambda rng: float(rng.choice([-0.0, 0.0, 0.1, -0.1])),
    ], ids=["rounded", "zero", "signed-zero"])
    @pytest.mark.parametrize("select", [select_exhaustive, select_branch_and_bound],
                             ids=["exhaustive", "branch-and-bound"])
    def test_matches_brute_force_with_ties_across_chunks(self, monkeypatch, select, gain):
        # five subsets per chunk, so tied optima fall in different chunks
        monkeypatch.setattr(selector, "SUBSET_CHUNK", 5)
        rng = np.random.default_rng(13)
        for i in range(60):
            prob = random_problem(rng, n_max=6, cand_max=12, budget_max=3, gain=gain)
            if i % 2:  # every other problem lists its candidates out of group order
                order = rng.permutation(len(prob.candidates))
                prob = replace(prob, candidates=tuple(prob.candidates[k] for k in order))
            result = select(prob)
            assert (result.objective, result.chosen, result.assignment) == brute_force(prob)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = random_problem(rng, n_max=5, cand_max=10, budget_max=1)
            objectives = []
            for budget in (1, 2, 3):
                p = SelectionProblem(n_tasks=prob.n_tasks, candidates=prob.candidates,
                                     budget=budget)
                objectives.append(select_exhaustive(p).objective)
            assert objectives == sorted(objectives)

    def test_superset_of_candidates_never_worse(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            prob = random_problem(rng, n_max=5, cand_max=8, budget_max=2)
            sub = SelectionProblem(n_tasks=prob.n_tasks,
                                   candidates=prob.candidates[: max(1, len(prob.candidates) // 2)],
                                   budget=prob.budget)
            assert select_exhaustive(prob).objective >= select_exhaustive(sub).objective

    def test_objective_recompute_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            prob = random_problem(rng, n_max=6, cand_max=12, budget_max=3)
            result = select_branch_and_bound(prob)
            by_group = dict(prob.candidates)
            total = 0.0
            for t in sorted(range(prob.n_tasks)):
                covering = [by_group[g][t] for g in result.chosen if t in g]
                total += max(covering) if covering else 0.0
            assert abs(total - result.objective) < 1e-12


class TestEnumerateCandidateGroups:
    @pytest.mark.parametrize("n, lo, hi", [(4, 2, 2), (6, 2, None), (8, 3, 5), (5, 5, 5)])
    def test_count_matches_enumeration(self, n, lo, hi):
        groups = enumerate_candidate_groups(n, lo, hi)
        assert count_candidate_groups(n, lo, hi) == len(groups) == len(set(groups))
        assert all(lo <= len(g) <= (hi or n) for g in groups)

    def test_subset_count_caps_budget_at_candidates(self):
        assert count_subsets(5, 2) == 1 + 5 + 10
        assert count_subsets(2, 5) == 4

    def test_enumeration_guard(self, monkeypatch):
        monkeypatch.setattr(selector, "MAX_ENUMERATED_GROUPS", 10)
        with pytest.raises(ValueError, match="^57 candidate groups exceed the enumeration guard$"):
            enumerate_candidate_groups(6)
        assert len(enumerate_candidate_groups(6, 5)) == 7

    def test_bad_range(self):
        with pytest.raises(ValueError, match=r"size range \(3, 2\) invalid for 4 tasks"):
            enumerate_candidate_groups(4, 3, 2)
        with pytest.raises(ValueError, match="size range"):
            count_candidate_groups(4, 2, 5)


class TestBuildProblem:
    def make_predictor(self, rng, n):
        from test_ensemble import random_matrix, random_records

        matrix = random_matrix(rng, n)
        records = random_records(rng, n, 10, matrix)
        return fit_predictor(records, matrix, n, cv=CvConfig(seed=8)), matrix

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        predictor, matrix = self.make_predictor(rng, 4)
        groups = enumerate_candidate_groups(4, 2, 2)
        a = build_problem(predictor, matrix, groups, budget=2)
        b = build_problem(predictor, matrix, groups, budget=2)
        assert a == b

    def test_all_pairs_universe(self):
        rng = np.random.default_rng(10)
        predictor, matrix = self.make_predictor(rng, 4)
        prob = build_problem(predictor, matrix, enumerate_candidate_groups(4, 2, 2), budget=2)
        assert len(prob.candidates) == 6

    def test_empty_candidates_build_then_error(self):
        rng = np.random.default_rng(11)
        predictor, matrix = self.make_predictor(rng, 4)
        prob = build_problem(predictor, matrix, [], budget=1)
        with pytest.raises(ValueError, match="no candidate"):
            select_exhaustive(prob)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cands = [((0, 1), {0: 0.1, 1: 0.2}), ((1, 2), {1: 0.0, 2: 0.3})]
        result = select_exhaustive(problem(cands, 3, 2))
        data = to_json(result)
        assert data["schema"] == "selection/1"
        back = result_from_dict(data)
        assert back == result
        write_json(tmp_path / "sel.json", data)
        assert (tmp_path / "sel.json").read_text().startswith("{")

    @pytest.mark.parametrize("chosen, assignment, message", [
        (((0, 2), (0, 1)), {0: (0, 1), 1: (0, 1), 2: (0, 2)},
         "chosen groups [[0, 2], [0, 1]] must be strictly increasing"),
        (((0, 1), (0, 1)), {0: (0, 1), 1: (0, 1), 2: None},
         "chosen groups [[0, 1], [0, 1]] must be strictly increasing"),
        (((1, 0),), {0: None, 1: None, 2: None},
         "group [1, 0] must be two or more strictly increasing task ids"),
        (((0, 1),), {0: (0, 1), 2: None}, "assignment must map tasks 0..1, got tasks [0, 2]"),
        (((0, 1),), {0: (0, 1), 1: (0, 1), 2: (1, 2)},
         "task 2 is assigned group [1, 2], which is not a chosen group holding it"),
        (((0, 1),), {0: (0, 1), 1: (0, 1), 2: (0, 1)},
         "task 2 is assigned group [0, 1], which is not a chosen group holding it"),
        (((0, 1),), {0: (0, 1), 1: None, 2: None},
         "task 1 is assigned no group, though a chosen group holds it"),
    ], ids=["unsorted", "repeated", "reversed-group", "task-gap", "unchosen", "not-holding",
            "covered-none"])
    def test_inconsistent_result_rejected(self, chosen, assignment, message):
        data = {"schema": "selection/1", "chosen": [list(g) for g in chosen], "objective": 0.5,
                "assignment": {str(t): g and list(g) for t, g in assignment.items()}}
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            result_from_dict(data)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SelectionResult(chosen=chosen, objective=0.5, assignment=assignment)

    @pytest.mark.parametrize("objective", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_rejected(self, objective):
        message = f"selection objective must be finite, got {objective!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SelectionResult(chosen=((0, 1),), objective=objective,
                            assignment={0: (0, 1), 1: (0, 1)})

    def test_table_format(self):
        cands = [((0, 1), {0: 0.1, 1: 0.2})]
        result = select_exhaustive(problem(cands, 3, 1))
        table = format_selection_table(result)
        assert "chosen groups (1)" in table
        assert "single-task" in table
