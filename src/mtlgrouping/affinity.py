"""Task-affinity scores computed from joint-training traces.

The step-level score from a source task to a receiving task is the dot
product of the receiving task's shared-parameter gradient with the source
task's hypothetical update direction (learning-rate-scaled gradient minus
the momentum carry-over), normalized by the receiving task's loss. Positive
means the source task's update would have reduced the receiving loss.
Scores are averaged over every step where the receiving loss is above a
tiny floor; near-zero losses would make the ratio blow up, so those steps
are skipped rather than poisoning the mean.

Both reductions work on whole arrays and still round like the one-step and
one-group formulas. ``pairwise_affinity`` scores every step of a ``Trace``
with one stacked product and sums the steps in order. ``group_scores``
gathers, for N groups of one size k, the ``(N, k, k - 1)`` scores toward
each member from the others and takes ``np.add.reduce(..., axis=-1) /
(k - 1)``, which sums each member's row just as ``np.mean`` sums its list;
``group_affinity`` is its one-group case.
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
    """Average the step scores of a ``Trace`` into an n-by-n matrix.

    velocity_mode "joint" uses the recorded optimizer velocity; "zero"
    ignores it, which reduces the score to its momentum-free form. The
    diagonal is computed like any other pair and kept for diagnostics.

    One pass over the arrays: ``U = lr * G - momentum * V[:, None]``, then
    ``U @ G.transpose(0, 2, 1)`` runs the same per-step product as
    ``updates @ grads.T`` on one step; scores of steps under the loss floor
    become 0.0, and ``np.add.reduce(..., axis=0)`` adds the steps in order
    onto 0.0. With two or more tasks every entry has the bits of a
    step-by-step loop; a one-task trace reduces its steps pairwise instead.
    """
    if trace.losses.size == 0:
        raise ValueError("trace is empty")
    if velocity_mode not in VELOCITY_MODES:
        raise ValueError(f"velocity_mode must be one of {VELOCITY_MODES}")
    n = len(trace.tasks)
    if trace.tasks != tuple(range(n)):
        raise ValueError("trace tasks must be a dense 0..n-1 range")
    grads, losses = trace.gradients, trace.losses
    updates = learning_rate * grads
    if velocity_mode == "joint":
        updates -= (momentum * trace.velocity_in)[:, None]
    products = updates @ grads.transpose(0, 2, 1)  # [s, i, j] = update_i . grad_j
    ok = losses > LOSS_FLOOR
    scores = np.divide(products, losses[:, None], out=np.zeros_like(products), where=ok[:, None])
    sums = np.add.reduce(scores, axis=0, initial=0.0)
    counts = np.tile(np.add.reduce(ok, axis=0), (n, 1))
    if np.any(counts == 0):
        i, j = np.argwhere(counts == 0)[0]
        raise ValueError(f"every step was skipped for pair ({i}, {j}); losses too small")
    return AffinityMatrix(values=sums / counts, steps_used=counts)


def group_scores(matrix: AffinityMatrix, groups: np.ndarray) -> np.ndarray:
    """``(N, k)`` mean scores toward each member of N sorted k-task groups.

    ``groups`` is an ``(N, k)`` int array of distinct, sorted task ids; entry
    ``[r, i]`` is the mean of ``values[s, groups[r, i]]`` over the other
    members ``s`` of group r, in task order.
    """
    k = groups.shape[1]
    others = np.array([[j for j in range(k) if j != i] for i in range(k)])
    toward = matrix.values[groups[:, others], groups[:, :, None]]  # (N, k, k - 1)
    return np.add.reduce(toward, axis=-1) / (k - 1)


def is_task_id(t) -> bool:
    """A task id is an ``int`` or a numpy integer: not a bool, and not 1.0 or 1.7."""
    return type(t) is int or isinstance(t, np.integer)


def task_group(group, n_tasks: int) -> tuple[int, ...]:
    """Sorted distinct ids of a task group: two or more integers below n_tasks (1.7 is no id)."""
    ids = tuple(group)
    out = tuple(sorted(set(map(int, ids)))) if all(map(is_task_id, ids)) else ()
    if len(out) < 2 or out[0] < 0 or out[-1] >= n_tasks:
        raise ValueError(f"a task group needs at least two tasks: two or more distinct "
                         f"integer ids below {n_tasks}, got {ids!r}")
    return out


def check_stored_group(group) -> None:
    """Reject a stored group that is not two or more strictly increasing task ids."""
    if len(group) < 2 or group[0] < 0 or any(a >= b for a, b in zip(group, group[1:])):
        raise ValueError(f"group {list(group)} must be two or more strictly increasing task ids")


def group_affinity(matrix: AffinityMatrix, group) -> GroupAffinity:
    """Mean pairwise score from the other members toward each member."""
    group = task_group(group, matrix.n)
    scores = group_scores(matrix, np.array([group]))[0].tolist()
    return GroupAffinity(group=group, scores=dict(zip(group, scores)))


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
