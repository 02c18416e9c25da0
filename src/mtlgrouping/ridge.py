"""Closed-form ridge regression with k-fold cross-validation.

The intercept is never penalized: targets and feature columns are centered
before the symmetric solve and the intercept is recovered from the means.
Coefficients are reported in the original feature units, so predictions are
simply X @ coefficients + intercept.

Cross-validation does each fold's penalty-independent work once: the mask,
the centering, Xc'Xc and Xc'yc. It then factors Xc'Xc + lam*I for the whole
sorted grid with one batched Cholesky and solves each penalty with LAPACK's
``dpotrs`` (the routine ``scipy.linalg.cho_solve`` calls). ``fit`` runs the
same solve with a single penalty, so each fold's coefficients, and hence the
CV errors, are bit-for-bit those of ``fit`` on the fold's training rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .seeding import stream

DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-3.0, 0.0, 7))

_CV_STREAM = 41


class SingularFitError(ValueError):
    """Normal equations are singular; rank-deficient features need lam > 0."""


@dataclass(frozen=True)
class RidgeModel:
    """Linear model y = X @ coefficients + intercept, fit with penalty lam."""

    coefficients: np.ndarray
    intercept: float
    lam: float

    @property
    def feature_dim(self) -> int:
        return int(self.coefficients.size)


def _checked(X, y):
    """X as a finite 2-d float matrix and y as a finite vector with one entry per row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    n = X.shape[0]
    if n != y.size:
        raise ValueError(f"X has {n} rows but y has {y.size} entries")
    if n < 1:
        raise ValueError("need at least one sample")
    for name, a in (("X", X), ("y", y)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} contains NaN or inf")
    return X, y


def _centered(X, y):
    """(x_mean, y_mean, Xc'Xc, Xc'yc) of the centered data."""
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    return x_mean, y_mean, Xc.T @ Xc, Xc.T @ yc


def _singular(lam) -> SingularFitError:
    remedy = "refit with lam > 0" if lam == 0 else "use a larger lam or fewer collinear features"
    return SingularFitError(f"normal equations are singular at lam={float(lam)!r}; {remedy}")


def _solve(gram, rhs, lams) -> np.ndarray:
    """Row i solves (gram + lams[i]*I) w = rhs; one batched factorization for all lams."""
    p = rhs.size
    lhs = gram + lams[:, None, None] * np.eye(p)
    try:
        chol = np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError as exc:
        for lam, a in zip(lams, lhs):  # factor one by one to name the penalty that failed
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                raise _singular(lam) from exc
        raise
    coefs = np.empty((lams.size, p))
    if p == 0:
        return coefs
    # rounding can sneak an exactly singular Gram matrix past the factorization
    pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
    limits = np.diagonal(lhs, axis1=1, axis2=2).max(axis=1) * p * 1e-14
    singular = pivots.min(axis=1) <= limits
    if singular.any():
        raise _singular(lams[np.argmax(singular)])
    for w, c in zip(coefs, chol):
        w[:] = dpotrs(c, rhs, lower=1)[0]
    finite = np.isfinite(coefs).all(axis=1)
    if not finite.all():
        raise SingularFitError(
            "normal equations produced non-finite coefficients at "
            f"lam={float(lams[np.argmin(finite)])!r}; use a larger lam"
        )
    return coefs


def fit(X, y, lam: float) -> RidgeModel:
    """Solve (Xc'Xc + lam*I) w = Xc'yc on centered data, intercept from the means."""
    X, y = _checked(X, y)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    x_mean, y_mean, gram, rhs = _centered(X, y)
    w = _solve(gram, rhs, np.array([lam], dtype=float))[0]
    intercept = y_mean - float(x_mean @ w)
    return RidgeModel(coefficients=w, intercept=intercept, lam=float(lam))


def predict(model: RidgeModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"X must have shape (n, {model.feature_dim})")
    return X @ model.coefficients + model.intercept


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation plan: candidate penalties, fold count, shuffle seed."""

    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if len(self.lambda_grid) == 0:
            raise ValueError("lambda_grid must be non-empty")
        if any(lam <= 0 for lam in self.lambda_grid):
            raise ValueError("lambda_grid entries must be positive")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def fit_cv(X, y, cv: CvConfig | None = None):
    """Pick lam by k-fold CV, ties to the larger lam, then refit on all rows.

    Returns (model, chosen_lam, cv_mse) where cv_mse maps each grid value to
    its mean per-fold validation MSE.
    """
    if cv is None:
        cv = CvConfig()
    X, y = _checked(X, y)
    n = y.size
    if cv.folds > n:
        raise ValueError(f"{cv.folds} folds but only {n} samples")
    order = stream(cv.seed, _CV_STREAM).permutation(n)
    folds = np.array_split(order, cv.folds)
    grid = np.array(sorted(cv.lambda_grid), dtype=float)
    fold_mses = np.empty((grid.size, len(folds)))  # one contiguous row per lam
    for f, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        x_mean, y_mean, gram, rhs = _centered(X[mask], y[mask])
        X_val, y_val = X[fold], y[fold]
        for i, w in enumerate(_solve(gram, rhs, grid)):
            err = X_val @ w + (y_mean - float(x_mean @ w)) - y_val
            fold_mses[i, f] = np.add.reduce(err * err) / err.size  # np.mean, unwrapped
    cv_mse: dict[float, float] = {}
    best_lam = None
    best_mse = None
    for lam, mses in zip(grid, fold_mses):
        mean_mse = float(np.mean(mses))
        cv_mse[float(lam)] = mean_mse
        if best_mse is None or mean_mse <= best_mse:
            best_mse = mean_mse
            best_lam = float(lam)
    final = fit(X, y, best_lam)
    return final, best_lam, cv_mse

