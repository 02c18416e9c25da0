"""Independent oracle implementations shared by the test modules.

Everything here is deliberately written as straight-line code, separate from
the package's implementations, so tests compare two different routes to the
same numbers.
"""

import numpy as np
import scipy.linalg

from mtlgrouping.engine import StepTrace
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


def centered_ridge(X, y, lam):
    """Normal-equation ridge with unpenalized intercept, via plain numpy solve."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    w = np.linalg.solve(Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ (y - ym))
    return w, float(ym - xm @ w)


def cholesky_ridge(X, y, lam):
    """(coefficients, intercept) from one Cholesky factor and cho_solve per fit.

    Same centering and operation order as the package's solve, without its
    singularity checks, so equal inputs give equal bits.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    chol = np.linalg.cholesky(Xc.T @ Xc + lam * np.eye(X.shape[1]))
    w = scipy.linalg.cho_solve((chol, True), Xc.T @ yc)
    return w, y_mean - float(x_mean @ w)


def fold_loop_cv(X, y, lambda_grid, folds, seed):
    """(cv_mse, chosen lam) from one cholesky_ridge fit per (lam, fold), ties to larger lam."""
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
            w, b = cholesky_ridge(X[mask], y[mask], lam)
            err = X[fold] @ w + b - y[fold]
            fold_mses.append(float(np.mean(err ** 2)))
        cv_mse[float(lam)] = float(np.mean(fold_mses))
        if best_mse is None or cv_mse[float(lam)] <= best_mse:
            best_mse, best_lam = cv_mse[float(lam)], float(lam)
    return cv_mse, best_lam


def random_trace(rng, n_tasks, dim, steps):
    """Synthetic training trace with random gradients, losses and velocities."""
    out = []
    for k in range(steps):
        out.append(StepTrace(
            step=k,
            losses={t: float(rng.uniform(0.1, 2.0)) for t in range(n_tasks)},
            gradients={t: rng.standard_normal(dim) for t in range(n_tasks)},
            velocity_in=rng.standard_normal(dim) if k else np.zeros(dim),
        ))
    return out


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
