"""Task-affinity scores computed from joint-training traces.

The step-level score from a source task to a receiving task is the dot
product of the receiving task's shared-parameter gradient with the source
task's hypothetical update direction (learning-rate-scaled gradient minus
the momentum carry-over), normalized by the receiving task's loss. Positive
means the source task's update would have reduced the receiving loss.
Scores are averaged over every step where the receiving loss is above a
tiny floor; near-zero losses would make the ratio blow up, so those steps
are skipped rather than poisoning the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .artifacts import load, save, write_csv

LOSS_FLOOR = 1e-12

VELOCITY_MODES = ("joint", "zero")


@dataclass(frozen=True)
class AffinityMatrix:
    """Entry [i, j] is the time-averaged score from task i to task j."""

    values: np.ndarray  # (n, n) float
    steps_used: np.ndarray  # (n, n) int, steps included per pair

    def __post_init__(self):
        v, s = self.values, self.steps_used
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape != s.shape:
            raise ValueError("values and steps_used must be equal square matrices")
        if not np.all(np.isfinite(v)):
            raise ValueError("affinity entries must be finite")
        if np.any(s < 1):
            raise ValueError("every pair needs at least one included step")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class GroupAffinity:
    """Score toward each member from the rest of its group."""

    group: tuple[int, ...]
    scores: dict[int, float]


def step_affinity(g_src, g_dst, loss_dst: float, learning_rate: float,
                  momentum: float, velocity_prev) -> float:
    """Single-step score from the source task to the receiving task."""
    g_src = np.asarray(g_src, dtype=float)
    g_dst = np.asarray(g_dst, dtype=float)
    velocity_prev = np.asarray(velocity_prev, dtype=float)
    if not (g_src.shape == g_dst.shape == velocity_prev.shape):
        raise ValueError("gradient and velocity shapes must agree")
    if loss_dst <= LOSS_FLOOR:
        raise ValueError(f"receiving loss {loss_dst} is at or below the floor {LOSS_FLOOR}")
    update = learning_rate * g_src - momentum * velocity_prev
    return float(g_dst @ update) / float(loss_dst)


def pairwise_affinity(trace, learning_rate: float, momentum: float,
                      velocity_mode: str = "joint") -> AffinityMatrix:
    """Average the step scores of a trace into an n-by-n matrix.

    velocity_mode "joint" uses the recorded optimizer velocity; "zero"
    ignores it, which reduces the score to its momentum-free form. The
    diagonal is computed like any other pair and kept for diagnostics.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace is empty")
    if velocity_mode not in VELOCITY_MODES:
        raise ValueError(f"velocity_mode must be one of {VELOCITY_MODES}")
    tasks = sorted(trace[0].losses.keys())
    n = len(tasks)
    if tasks != list(range(n)):
        raise ValueError("trace tasks must be a dense 0..n-1 range")
    sums = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=int)
    for st in trace:
        if sorted(st.losses.keys()) != tasks or sorted(st.gradients.keys()) != tasks:
            raise ValueError(f"step {st.step} does not cover all tasks")
        grads = np.stack([st.gradients[t] for t in tasks])
        losses = np.array([st.losses[t] for t in tasks])
        if velocity_mode == "joint":
            updates = learning_rate * grads - momentum * st.velocity_in
        else:
            updates = learning_rate * grads
        scores = updates @ grads.T  # [i, j] = update_i . grad_j
        ok = losses > LOSS_FLOOR
        scores = scores[:, ok] / losses[ok]
        sums[:, ok] += scores
        counts[:, ok] += 1
    if np.any(counts == 0):
        i, j = np.argwhere(counts == 0)[0]
        raise ValueError(f"every step was skipped for pair ({i}, {j}); losses too small")
    return AffinityMatrix(values=sums / counts, steps_used=counts)


def group_affinity(matrix: AffinityMatrix, group) -> GroupAffinity:
    """Mean pairwise score from the other members toward each member."""
    group = tuple(sorted(set(int(t) for t in group)))
    if len(group) < 2:
        raise ValueError("group affinity needs at least two tasks")
    if any(not 0 <= t < matrix.n for t in group):
        raise ValueError(f"group members must be task ids below {matrix.n}")
    scores = {}
    for t in group:
        others = [s for s in group if s != t]
        scores[t] = float(np.mean([matrix.values[s, t] for s in others]))
    return GroupAffinity(group=group, scores=scores)


@dataclass(frozen=True)
class _FlatMatrix:
    """The JSON layout of an affinity matrix: both matrices flattened row by row."""

    SCHEMA: ClassVar[str] = "affinity/1"

    n: int
    values: np.ndarray
    steps_used: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if n < 0 or len(self.values) != n * n or len(self.steps_used) != n * n:
            raise ValueError(f"keys 'values' and 'steps_used' must hold n * n = {n * n} entries")


def save_matrix(matrix: AffinityMatrix, path) -> None:
    save(path, _FlatMatrix(matrix.n, matrix.values.ravel(),
                           tuple(matrix.steps_used.ravel().tolist())))


def load_matrix(path) -> AffinityMatrix:
    flat = load(path, _FlatMatrix)
    n = flat.n
    return AffinityMatrix(values=flat.values.reshape(n, n),
                          steps_used=np.array(flat.steps_used, dtype=int).reshape(n, n))


def matrix_to_csv(matrix: AffinityMatrix, path) -> None:
    """Rows are source tasks, columns receiving tasks."""
    write_csv(path, [""] + [str(j) for j in range(matrix.n)], (
        [str(i)] + [repr(float(v)) for v in matrix.values[i]] for i in range(matrix.n)))
