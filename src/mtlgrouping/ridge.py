"""Closed-form ridge regression with k-fold cross-validation.

The intercept is never penalized: targets and feature columns are centered
before the symmetric solve and the intercept is recovered from the means.
Coefficients are reported in the original feature units, so predictions are
simply X @ coefficients + intercept.

Cross-validation does each fold's penalty-independent work once: the mask,
the centering, Xc'Xc and Xc'yc. It then factors Xc'Xc + lam*I for every fold
and the whole sorted grid with one batched Cholesky, and solves every (fold,
penalty) system with one batched ``np.linalg.solve``. The Cholesky factors
only test that each system is positive definite and not singular: numpy has
no triangular solve to reuse them with. numpy solves each matrix of a stack
on its own, so each fold's coefficients are bit for bit those of ``fit``,
the same solve with one fold and a single penalty, on the fold's training
rows. The validation errors come from stacked products whose slices are the
products of one fold and penalty: ``X_val[None] @ W[:, :, None]`` gives a
fold's ``X_val @ w`` for every penalty, and ``x_means[:, None, None, :] @
coefs[..., None]`` every fold's ``x_mean @ w``. So the CV errors keep their
bits too. ``cv_score`` is the selection without the final refit, and each
``(seed, n)`` row permutation is drawn once per process.

Everything here is numpy: no stage imports scipy, whose ``scipy.linalg``
alone takes about 0.3 s and 20 MB to import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    def __post_init__(self):
        if not (np.isfinite(self.coefficients).all() and np.isfinite(self.intercept)):
            raise ValueError("ridge coefficients and intercept must be finite")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"ridge lam must be >= 0 and finite, got {self.lam!r}")

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
    """(x_mean, y_mean, Xc'Xc, Xc'yc) of the centered data; the means are ``np.mean``'s."""
    n = y.size
    x_mean = np.add.reduce(X, axis=0) / n
    y_mean = float(np.add.reduce(y) / n)
    Xc = X - x_mean
    yc = y - y_mean
    return x_mean, y_mean, Xc.T @ Xc, Xc.T @ yc


def _singular(lam) -> SingularFitError:
    remedy = "refit with lam > 0" if lam == 0 else "use a larger lam or fewer collinear features"
    return SingularFitError(f"normal equations are singular at lam={float(lam)!r}; {remedy}")


def _solve(gram, rhs, lams) -> np.ndarray:
    """``coefs[f, i]`` solves ``(gram[f] + lams[i]*I) w = rhs[f]`` for ``(F, p, p)`` grams.

    One batched factorization tests every fold and penalty, and one batched
    ``np.linalg.solve`` solves them. A failure is raised as solving the folds
    one after another would: fold by fold, and within a fold the first
    penalty that does not factor, then the first whose pivots show a singular
    matrix, then the first with non-finite coefficients. If the batched
    factorization fails, the folds are solved again one at a time, each as a
    one-fold stack, and a one-fold stack that does not factor names its first
    penalty that does not.
    """
    p = rhs.shape[-1]
    lhs = gram[:, None] + lams[:, None, None] * np.eye(p)
    try:
        chols = np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError as exc:
        if len(lhs) > 1:  # fold by fold: the first fold that fails raises
            for f in range(len(lhs)):
                _solve(gram[f:f + 1], rhs[f:f + 1], lams)
        for lam, a in zip(lams, lhs[0]):  # one fold: name its first penalty that does not factor
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                raise _singular(lam) from exc
        raise
    if p == 0:
        return np.empty(lhs.shape[:-1])
    # rounding can sneak an exactly singular Gram matrix past the factorization
    pivots = np.diagonal(chols, axis1=-2, axis2=-1) ** 2
    limits = np.diagonal(lhs, axis1=-2, axis2=-1).max(axis=-1) * p * 1e-14
    singular = pivots.min(axis=-1) <= limits
    # a singular system would make the batched solve raise before the checks
    # below name it in fold order, so it solves the identity instead
    lhs[singular] = np.eye(p)
    coefs = np.linalg.solve(lhs, rhs[:, None, :, None])[..., 0]
    finite = np.isfinite(coefs).all(axis=-1).tolist()
    for fold_singular, fold_finite in zip(singular.tolist(), finite):
        if True in fold_singular:
            raise _singular(lams[fold_singular.index(True)])
        if False in fold_finite:
            raise SingularFitError(
                "normal equations produced non-finite coefficients at "
                f"lam={float(lams[fold_finite.index(False)])!r}; use a larger lam"
            )
    return coefs


def fit(X, y, lam: float) -> RidgeModel:
    """Solve (Xc'Xc + lam*I) w = Xc'yc on centered data, intercept from the means."""
    X, y = _checked(X, y)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    x_mean, y_mean, gram, rhs = _centered(X, y)
    w = _solve(gram[None], rhs[None], np.array([lam], dtype=float))[0, 0]
    intercept = y_mean - float(x_mean @ w)
    return RidgeModel(coefficients=w, intercept=intercept, lam=float(lam))


def predict(model: RidgeModel, X) -> np.ndarray:
    """``X @ coefficients + intercept`` for an ``(n, p)`` matrix or a stack ``(..., n, p)``.

    numpy runs each ``(n, p)`` slice of a stack as its own product, so a
    slice gets the bits it gets alone.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != model.feature_dim:
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
        if not all(np.isfinite(lam) and lam > 0 for lam in self.lambda_grid):
            raise ValueError("lambda_grid entries must be positive and finite")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@lru_cache(maxsize=256)
def _row_order(seed, n: int) -> np.ndarray:
    """The CV shuffle of n rows under ``seed``, drawn once and kept read-only."""
    order = stream(seed, _CV_STREAM).permutation(n)
    order.flags.writeable = False
    return order


def cv_score(X, y, cv: CvConfig | None = None):
    """Pick lam by k-fold CV, ties to the larger lam, without refitting.

    Returns (chosen_lam, cv_mse) where cv_mse maps each grid value to its
    mean per-fold validation MSE.
    """
    if cv is None:
        cv = CvConfig()
    X, y = _checked(X, y)
    n = y.size
    if cv.folds > n:
        raise ValueError(f"{cv.folds} folds but only {n} samples")
    folds = np.array_split(_row_order(cv.seed, n), cv.folds)
    grid = np.array(sorted(cv.lambda_grid), dtype=float)
    centered = []
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        centered.append(_centered(X[mask], y[mask]))
    x_means, y_means, grams, rhss = (np.array(a) for a in zip(*centered))
    coefs = _solve(grams, rhss, grid)  # (folds, lams, p)
    # [f, i] is y_mean - x_mean @ w of fold f and lam i: the intercept the fold's fit has
    intercepts = y_means[:, None] - (x_means[:, None, None, :] @ coefs[..., None])[..., 0, 0]
    fold_mses = np.empty((grid.size, len(folds)))  # one contiguous row per lam
    for f, (fold, W, b) in enumerate(zip(folds, coefs, intercepts)):
        err = (X[fold][None] @ W[:, :, None])[:, :, 0] + b[:, None] - y[fold]
        fold_mses[:, f] = np.add.reduce(err * err, axis=-1) / err.shape[-1]  # np.mean per row
    cv_mse: dict[float, float] = {}
    best_lam = None
    best_mse = None
    mean_mses = np.add.reduce(fold_mses, axis=-1) / len(folds)  # np.mean per row
    for lam, mean_mse in zip(grid.tolist(), mean_mses.tolist()):
        cv_mse[lam] = mean_mse
        if best_mse is None or mean_mse <= best_mse:
            best_mse = mean_mse
            best_lam = lam
    return best_lam, cv_mse


def fit_cv(X, y, cv: CvConfig | None = None):
    """``cv_score``, then refit on all rows at the chosen lam.

    Returns (model, chosen_lam, cv_mse).
    """
    lam, cv_mse = cv_score(X, y, cv)
    return fit(X, y, lam), lam, cv_mse
