"""Fit-quality statistics: coefficient of determination, Pearson correlation, MSE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    """Fit of predictions to actual values over ``n_points`` pairs.

    ``mse >= 0`` and ``r2 <= 1`` hold exactly for anything ``evaluate``
    returns, so a report outside them was not computed. ``pearson`` is
    bounded by ``|pearson| <= 1 + 1e-12``: rounding takes it past 1 on
    perfectly correlated series (1 + 7e-16 has been seen), so ``|pearson| <=
    1`` would reject real results.
    """

    r2: float
    pearson: float
    mse: float
    n_points: int

    def __post_init__(self):
        if not np.isfinite([self.r2, self.pearson, self.mse]).all():
            raise ValueError(f"metrics must be finite, got r2 = {self.r2!r}, "
                             f"pearson = {self.pearson!r}, mse = {self.mse!r}")
        if self.mse < 0 or self.r2 > 1:
            raise ValueError(f"metrics need mse >= 0 and r2 <= 1, got r2 = {self.r2!r}, "
                             f"mse = {self.mse!r}")
        if self.n_points < 2:
            raise ValueError(f"metrics need n_points >= 2, got {self.n_points}")
        if abs(self.pearson) > 1 + 1e-12:
            raise ValueError(f"metrics need |pearson| <= 1, got pearson = {self.pearson!r}")


def _paired(actual, predicted):
    a = np.asarray(actual, dtype=float).ravel()
    b = np.asarray(predicted, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise ValueError("need at least two points")
    for name, values in (("actual", a), ("predicted", b)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")
    return a, b


def mse(actual, predicted) -> float:
    a, b = _paired(actual, predicted)
    return float(np.mean((a - b) ** 2))


def r_squared(actual, predicted) -> float:
    """1 - SS_res/SS_tot; negative when predictions beat no baseline at all."""
    a, b = _paired(actual, predicted)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("actual values have zero variance; R^2 undefined")
    ss_res = float(np.sum((a - b) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson(a, b) -> float:
    """Sample correlation; the (n-1) normalizations cancel in the ratio."""
    a, b = _paired(a, b)
    da = a - a.mean()
    db = b - b.mean()
    denom = float(np.sqrt(np.sum(da ** 2) * np.sum(db ** 2)))
    if denom == 0.0:
        raise ValueError("zero variance in one of the series; correlation undefined")
    return float(np.dot(da, db) / denom)


def evaluate(actual, predicted) -> EvalReport:
    a, b = _paired(actual, predicted)
    return EvalReport(
        r2=r_squared(a, b),
        pearson=pearson(a, b),
        mse=mse(a, b),
        n_points=int(a.size),
    )
