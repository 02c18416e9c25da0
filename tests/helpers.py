"""Independent oracle implementations shared by the test modules.

Everything here is deliberately written as straight-line code, separate from
the package's implementations, so tests compare two different routes to the
same numbers.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from mtlgrouping.affinity import LOSS_FLOOR
from mtlgrouping.artifacts import to_json
from mtlgrouping.engine import Trace
from mtlgrouping.seeding import stream


def naive_basis(z: float, degree: int, knots) -> np.ndarray:
    """Textbook recursive B-spline evaluation (half-open intervals, closed right end)."""
    t = [float(k) for k in knots]
    m = len(t) - degree - 1

    def b(i, k):
        if k == 0:
            if t[i] <= z < t[i + 1]:
                return 1.0
            if z == t[-1] and t[i] < t[i + 1] == t[-1]:
                return 1.0
            return 0.0
        left = 0.0
        if t[i + k] != t[i]:
            left = (z - t[i]) / (t[i + k] - t[i]) * b(i, k - 1)
        right = 0.0
        if t[i + k + 1] != t[i + 1]:
            right = (t[i + k + 1] - z) / (t[i + k + 1] - t[i + 1]) * b(i + 1, k - 1)
        return left + right

    return np.array([b(i, degree) for i in range(m)])


def _centered_system(X, y, lam):
    """(x_mean, y_mean, Xc'Xc + lam*I, Xc'yc) in the package's operation order."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    return x_mean, y_mean, Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ yc


def centered_ridge(X, y, lam):
    """(coefficients, intercept) of normal-equation ridge with an unpenalized
    intercept, from one ``np.linalg.solve`` per fit.

    Same centering and operation order as the package's solve, without its
    singularity checks, so equal inputs give equal bits.
    """
    x_mean, y_mean, lhs, rhs = _centered_system(X, y, lam)
    w = np.linalg.solve(lhs, rhs)
    return w, y_mean - float(x_mean @ w)


def cholesky_ridge(X, y, lam):
    """(coefficients, intercept) from one Cholesky factor and scipy's cho_solve
    per fit: a second factorization, for accuracy rather than bit checks."""
    x_mean, y_mean, lhs, rhs = _centered_system(X, y, lam)
    w = scipy.linalg.cho_solve((np.linalg.cholesky(lhs), True), rhs)
    return w, y_mean - float(x_mean @ w)


def fold_loop_cv(X, y, lambda_grid, folds, seed, ridge=centered_ridge):
    """(cv_mse, chosen lam) from one ``ridge`` fit per (lam, fold), ties to larger lam."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    parts = np.array_split(stream(seed, 41).permutation(n), folds)
    cv_mse = {}
    best_lam = best_mse = None
    for lam in sorted(lambda_grid):
        fold_mses = []
        for fold in parts:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            w, b = ridge(X[mask], y[mask], lam)
            err = X[fold] @ w + b - y[fold]
            fold_mses.append(float(np.mean(err ** 2)))
        cv_mse[float(lam)] = float(np.mean(fold_mses))
        if best_mse is None or cv_mse[float(lam)] <= best_mse:
            best_mse, best_lam = cv_mse[float(lam)], float(lam)
    return cv_mse, best_lam


def random_trace(rng, n_tasks, dim, steps):
    """Synthetic training trace with random gradients, losses and velocities.

    Draws step by step, losses then gradients then the velocity, each task in
    order, so a seed gives the same numbers as a per-step builder would.
    """
    trace = Trace(tuple(range(n_tasks)), np.empty((steps, n_tasks)),
                  np.empty((steps, n_tasks, dim)), np.zeros((steps, dim)))
    for k in range(steps):
        trace.losses[k] = [float(rng.uniform(0.1, 2.0)) for _ in range(n_tasks)]
        for t in range(n_tasks):
            trace.gradients[k, t] = rng.standard_normal(dim)
        if k:
            trace.velocity_in[k] = rng.standard_normal(dim)
    return trace


def step_loop_affinity(trace, learning_rate, momentum, velocity_mode="joint"):
    """(values, steps_used) of pairwise affinity added up step by step,
    skipping steps whose receiving loss is at or below the floor."""
    n = len(trace.tasks)
    sums = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=int)
    for grads, losses, velocity in zip(trace.gradients, trace.losses, trace.velocity_in):
        grads = np.stack(list(grads))
        if velocity_mode == "joint":
            updates = learning_rate * grads - momentum * velocity
        else:
            updates = learning_rate * grads
        scores = updates @ grads.T  # [i, j] = update_i . grad_j
        ok = losses > LOSS_FLOOR
        sums[:, ok] += scores[:, ok] / losses[ok]
        counts[:, ok] += 1
    return sums / counts, counts


def mean_loop_group_affinity(matrix, group):
    """Per-member ``np.mean`` of the scores from the other members: the
    one-group loop that the stacked gather replaced."""
    group = tuple(sorted(group))
    return {t: float(np.mean([matrix.values[s, t] for s in group if s != t])) for t in group}


@dataclass(frozen=True)
class StepRecord:
    """One step of a trace as the per-step writer held it."""

    step: int
    losses: dict
    gradients: dict
    velocity_in: np.ndarray


def per_step_trace_text(trace):
    """``trace.jsonl`` as the per-step writer wrote it: one object of copied
    arrays per step, converted with ``to_json`` and dumped with sorted keys."""
    lines = []
    for k, (losses, grads, velocity) in enumerate(
            zip(trace.losses, trace.gradients, trace.velocity_in)):
        step = StepRecord(step=k, losses=dict(zip(trace.tasks, losses.tolist())),
                          gradients={t: g.copy() for t, g in zip(trace.tasks, grads)},
                          velocity_in=velocity.copy())
        lines.append(json.dumps(to_json(step), sort_keys=True) + "\n")
    return "".join(lines)


def mlp_forward_by_hand(shared_layers, head, X):
    """Loop-based forward pass for a tanh encoder plus linear head."""
    outputs = []
    for row in X:
        a = list(row)
        for w, b in shared_layers:
            a = [np.tanh(sum(w[i][j] * a[j] for j in range(len(a))) + b[i])
                 for i in range(len(b))]
        outputs.append(sum(head[i] * a[i] for i in range(len(a))) + head[-1])
    return np.array(outputs)


def per_fold_cv_error(X, y, cv):
    """``(fold, check, message)`` of the first failure of solving fold after fold, or None.

    Each fold factors Xc'Xc + lam*I for its whole sorted grid at once; a
    failing factorization names the first penalty that does not factor alone
    ("factor"), then tiny pivots name the first singular penalty ("pivot"),
    then non-finite coefficients the first penalty that gave them.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    grid = np.array(sorted(cv.lambda_grid), dtype=float)

    def singular(lam):
        remedy = "refit with lam > 0" if lam == 0 else "use a larger lam or fewer collinear features"
        return f"normal equations are singular at lam={float(lam)!r}; {remedy}"

    for f, fold in enumerate(np.array_split(stream(cv.seed, 41).permutation(n), cv.folds)):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        Xc = X[mask] - X[mask].mean(axis=0)
        yc = y[mask] - float(y[mask].mean())
        lhs = Xc.T @ Xc + grid[:, None, None] * np.eye(p)
        try:
            chol = np.linalg.cholesky(lhs)
        except np.linalg.LinAlgError:
            for lam, a in zip(grid, lhs):
                try:
                    np.linalg.cholesky(a)
                except np.linalg.LinAlgError:
                    return f, "factor", singular(lam)
            raise
        pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
        limits = np.diagonal(lhs, axis1=1, axis2=2).max(axis=1) * p * 1e-14
        bad = pivots.min(axis=1) <= limits
        if bad.any():
            return f, "pivot", singular(grid[np.argmax(bad)])
        for lam, c in zip(grid, chol):
            if not np.isfinite(scipy.linalg.cho_solve((c, True), Xc.T @ yc, check_finite=False)).all():
                return f, "finite", (f"normal equations produced non-finite coefficients at "
                                     f"lam={float(lam)!r}; use a larger lam")
    return None
