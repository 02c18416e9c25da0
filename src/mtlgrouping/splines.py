"""B-spline basis expansion of scalar affinity scores.

A fitted basis is described by a clamped knot vector: the boundary knots
repeat degree+1 times and span exactly the observed score range, while
interior knots sit at empirical quantiles of the training scores so the
basis spends its resolution where the data mass is. Inputs outside the
knot range are clamped to the nearest boundary before evaluation, which
makes extrapolation constant instead of polynomial.

The basis is evaluated in numpy rather than with
``scipy.interpolate.BSpline.design_matrix``: the two agree to ~1e-16, but
importing ``scipy.interpolate`` pulls in ``scipy.optimize`` and adds about
0.2 s and 20 MB (scipy 1.17) to every process that fits a predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_DEGREE = 1  # degree 1 kept available for hand-checkable hat functions
MAX_DEGREE = 6


@dataclass(frozen=True)
class SplineSpec:
    """Clamped B-spline basis: polynomial degree plus the full knot vector."""

    degree: int
    knots: tuple[float, ...]

    def __post_init__(self):
        d = self.degree
        if not MIN_DEGREE <= d <= MAX_DEGREE:
            raise ValueError(f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {d}")
        t = np.asarray(self.knots, dtype=float)
        if t.size < 2 * (d + 1):
            raise ValueError("knot vector too short for clamped boundaries")
        if np.any(np.diff(t) < 0):
            raise ValueError("knot vector must be non-decreasing")
        lo, hi = t[0], t[-1]
        if not lo < hi:
            raise ValueError("degenerate knot range")
        if not (np.all(t[: d + 1] == lo) and t[d + 1] > lo):
            raise ValueError(f"left boundary knot must repeat exactly {d + 1} times")
        if not (np.all(t[-(d + 1):] == hi) and t[-(d + 2)] < hi):
            raise ValueError(f"right boundary knot must repeat exactly {d + 1} times")

    @property
    def basis_count(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def interior_knot_count(self) -> int:
        return self.basis_count - self.degree - 1

    @property
    def z_min(self) -> float:
        return self.knots[0]

    @property
    def z_max(self) -> float:
        return self.knots[-1]


def fit_knots(training_scores, degree: int, interior_knot_count: int = 0) -> SplineSpec:
    """Place knots from observed scores: boundaries at min/max, interior at quantiles.

    Interior knots are the 1/(m+1), ..., m/(m+1) quantiles of the scores.
    Knots that collide with each other or with a boundary are merged away, so
    the realized interior count can be smaller than requested.
    """
    return fit_knot_grid(training_scores, (degree,), (interior_knot_count,))[0]


def fit_knot_grid(training_scores, degrees, interior_counts) -> list[SplineSpec]:
    """``fit_knots`` for every degree, then every interior count, without repeats.

    Each count's quantiles are computed once and shared by all degrees.
    """
    scores = np.asarray(training_scores, dtype=float).ravel()
    if scores.size < 2:
        raise ValueError("need at least two training scores")
    if not np.all(np.isfinite(scores)):
        raise ValueError("training scores must be finite")
    lo, hi = float(scores.min()), float(scores.max())
    interiors: dict[int, tuple[float, ...]] = {}
    specs: list[SplineSpec] = []
    for degree in degrees:
        for m in interior_counts:
            if m not in interiors:
                interiors[m] = _interior_knots(scores, lo, hi, m)
            spec = SplineSpec(degree=degree,
                              knots=(lo,) * (degree + 1) + interiors[m] + (hi,) * (degree + 1))
            if spec not in specs:
                specs.append(spec)
    return specs


def _interior_knots(scores: np.ndarray, lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 0:
        raise ValueError("interior_knot_count must be >= 0")
    if lo == hi:
        raise ValueError("all training scores identical; basis domain is degenerate")
    if count == 0:
        return ()
    qs = np.arange(1, count + 1) / (count + 1)
    return tuple(float(v) for v in np.unique(np.quantile(scores, qs)) if lo < v < hi)


def basis_matrix(zs, spec: SplineSpec) -> np.ndarray:
    """Design matrix with one row of basis values per score, clamped into the knot range.

    Runs the triangular recurrence over each score's single non-empty span,
    for all scores at once, so each row has at most degree+1 nonzero entries.
    """
    t = np.asarray(spec.knots, dtype=float)
    d = spec.degree
    m = spec.basis_count
    z = np.clip(np.asarray(zs, dtype=float).ravel(), spec.z_min, spec.z_max)
    span = np.clip(np.searchsorted(t, z, side="right") - 1, d, m - 1)
    vals = np.zeros((d + 1, z.size))
    vals[0] = 1.0
    left = np.zeros((d + 1, z.size))
    right = np.zeros((d + 1, z.size))
    for j in range(1, d + 1):
        left[j] = z - t[span + 1 - j]
        right[j] = t[span + j] - z
        saved = 0.0
        for r in range(j):
            term = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * term
            saved = left[j - r] * term
        vals[j] = saved
    out = np.zeros((z.size, m))
    out[np.arange(z.size)[:, None], span[:, None] - d + np.arange(d + 1)] = vals.T
    return out


def basis_expand(z: float, spec: SplineSpec) -> np.ndarray:
    """Every basis function at one score; at most degree+1 entries are nonzero."""
    return basis_matrix([z], spec)[0]


def affine_matrix(zs) -> np.ndarray:
    """Design matrix for the affine mapping: columns (1, z)."""
    zs = np.asarray(zs, dtype=float).ravel()
    return np.column_stack([np.ones_like(zs), zs])
