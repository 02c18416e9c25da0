"""Two-stage gain predictor.

Stage 1 is one global scalar map from a task's group-affinity score to a
predicted gain: a spline (or affine) basis expansion followed by ridge
regression, with the basis hyperparameters and penalty chosen by cross
validation on the training groups. Stage 2 learns, per task, a ridge model
from the group's multi-hot membership vector to the stage-1 residual, so
systematic over- or under-prediction for particular task combinations gets
corrected. The final prediction is the stage-1 value plus the residual term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import ridge
from .artifacts import load
from .affinity import AffinityMatrix, GroupAffinity, group_affinity
from .ridge import CvConfig, RidgeModel
from .splines import SplineSpec, affine_matrix, basis_matrix, fit_knots

MAPPING_KINDS = ("spline", "affine")

DEFAULT_DEGREES = (2, 3, 4, 5, 6)

MIN_RESIDUAL_GROUPS = 2  # tasks seen in fewer training groups predict residual 0


@dataclass(frozen=True)
class TrainingPair:
    """One supervised example: a task inside a measured group."""

    group: tuple[int, ...]
    task: int
    affinity: float
    gain: float


@dataclass(frozen=True)
class Stage1Model:
    """Scalar affinity-to-gain map; inputs are clamped to the training range."""

    mapping_kind: str
    model: RidgeModel
    spline: SplineSpec | None
    z_lo: float
    z_hi: float

    def __post_init__(self):
        if self.mapping_kind not in MAPPING_KINDS:
            raise ValueError(f"mapping_kind {self.mapping_kind!r} is not one of {MAPPING_KINDS}")
        if (self.spline is None) != (self.mapping_kind == "affine"):
            raise ValueError("spline must be null exactly when mapping_kind is 'affine'")

    def design(self, zs) -> np.ndarray:
        zs = np.clip(np.asarray(zs, dtype=float).ravel(), self.z_lo, self.z_hi)
        if self.mapping_kind == "affine":
            return affine_matrix(zs)
        return basis_matrix(zs, self.spline)

    def apply(self, zs) -> np.ndarray:
        return ridge.predict(self.model, self.design(zs))


@dataclass(frozen=True)
class EnsemblePredictor:
    SCHEMA: ClassVar[str] = "predictor/1"

    stage1: Stage1Model
    residual_models: dict[int, RidgeModel]
    residual_enabled: bool
    n_tasks: int

    @property
    def mapping_kind(self) -> str:
        return self.stage1.mapping_kind


def encode_group(group, n_tasks: int) -> np.ndarray:
    """Multi-hot membership vector over the full task set."""
    bits = np.zeros(n_tasks)
    for t in group:
        if not 0 <= t < n_tasks:
            raise ValueError(f"task {t} outside 0..{n_tasks - 1}")
        bits[t] = 1.0
    return bits


def build_training_pairs(records, matrix: AffinityMatrix) -> list[TrainingPair]:
    """Pair every measured (group, task) gain with its group-affinity score."""
    pairs = []
    for rec in records:
        ga = group_affinity(matrix, rec.group)
        for t in rec.group:
            pairs.append(TrainingPair(
                group=rec.group, task=t, affinity=ga.scores[t], gain=rec.gains[t]))
    return pairs


def _cv_for(cv: CvConfig, n_samples: int) -> CvConfig:
    return replace(cv, folds=min(cv.folds, n_samples))


def fit_stage1(pairs, mapping_kind: str = "spline", cv: CvConfig | None = None,
               degrees=None, interior_counts=None) -> Stage1Model:
    """Fit the global scalar map on pooled (affinity, gain) pairs.

    For the spline mapping the degree and interior-knot count are chosen by
    the same cross validation that picks the ridge penalty; the default
    interior-count grid is capped at sqrt(#distinct training groups), while
    explicitly passed grids are used as given.
    """
    if mapping_kind not in MAPPING_KINDS:
        raise ValueError(f"mapping_kind must be one of {MAPPING_KINDS}")
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least three training pairs")
    z = np.array([p.affinity for p in pairs])
    y = np.array([p.gain for p in pairs])
    if np.unique(z).size < 2:
        raise ValueError("all affinity scores identical; scalar map is degenerate")
    cv = _cv_for(cv if cv is not None else CvConfig(), len(pairs))
    z_lo, z_hi = float(z.min()), float(z.max())

    if mapping_kind == "affine":
        model, _, _ = ridge.fit_cv(affine_matrix(z), y, cv)
        return Stage1Model(mapping_kind="affine", model=model, spline=None,
                           z_lo=z_lo, z_hi=z_hi)

    if degrees is None:
        degrees = DEFAULT_DEGREES
    if interior_counts is None:
        # tuning grid capped at sqrt(#distinct training groups)
        cap = math.isqrt(len(set(p.group for p in pairs)))
        interior_counts = range(cap + 1)
    specs = []
    for d in degrees:
        for m in interior_counts:
            spec = fit_knots(z, d, m)
            if spec not in specs:
                specs.append(spec)
    best = None
    for spec in specs:
        model, lam, cv_mse = ridge.fit_cv(basis_matrix(z, spec), y, cv)
        key = (cv_mse[lam], spec.basis_count, spec.degree)
        if best is None or key < best[0]:
            best = (key, spec, model)
    _, spec, model = best
    return Stage1Model(mapping_kind="spline", model=model, spline=spec,
                       z_lo=z_lo, z_hi=z_hi)


def predict_stage1(stage1: Stage1Model, ga: GroupAffinity) -> dict[int, float]:
    """Apply the scalar map to each member's group-affinity score."""
    zs = np.array([ga.scores[t] for t in ga.group])
    preds = stage1.apply(zs)
    return {t: float(p) for t, p in zip(ga.group, preds)}


def fit_residual(records, stage1: Stage1Model, matrix: AffinityMatrix, n_tasks: int,
                 cv: CvConfig | None = None) -> dict[int, RidgeModel]:
    """Per-task ridge models from multi-hot group encodings to stage-1 errors."""
    base_cv = cv if cv is not None else CvConfig()
    rows: dict[int, list] = {}
    for rec in records:
        ga = group_affinity(matrix, rec.group)
        preds = predict_stage1(stage1, ga)
        u = encode_group(rec.group, n_tasks)
        for t in rec.group:
            rows.setdefault(t, []).append((u, rec.gains[t] - preds[t]))
    models: dict[int, RidgeModel] = {}
    for t, data in sorted(rows.items()):
        if len(data) < MIN_RESIDUAL_GROUPS:
            continue
        X = np.stack([u for u, _ in data])
        e = np.array([r for _, r in data])
        model, _, _ = ridge.fit_cv(X, e, _cv_for(base_cv, len(data)))
        # CV can pick a heavily shrunk penalty; correcting should still not
        # hurt on the training groups themselves
        corrected = e - ridge.predict(model, X)
        if float(np.mean(corrected ** 2)) > float(np.mean(e ** 2)) + 1e-9:
            warnings.warn(
                f"residual model for task {t} increases training error",
                RuntimeWarning, stacklevel=2)
        models[t] = model
    return models


def fit_predictor(records, matrix: AffinityMatrix, n_tasks: int,
                  mapping_kind: str = "spline", residual_enabled: bool = True,
                  cv: CvConfig | None = None, degrees=None,
                  interior_counts=None) -> EnsemblePredictor:
    """Fit both stages from measured gain records and an affinity matrix."""
    pairs = build_training_pairs(records, matrix)
    stage1 = fit_stage1(pairs, mapping_kind=mapping_kind, cv=cv,
                        degrees=degrees, interior_counts=interior_counts)
    residual_models: dict[int, RidgeModel] = {}
    if residual_enabled:
        residual_models = fit_residual(records, stage1, matrix, n_tasks, cv=cv)
    return EnsemblePredictor(
        stage1=stage1,
        residual_models=residual_models,
        residual_enabled=residual_enabled,
        n_tasks=n_tasks,
    )


def predict(predictor: EnsemblePredictor, group, ga: GroupAffinity) -> dict[int, float]:
    """Final per-task gain predictions for one group.

    With residual correction disabled this is exactly the stage-1 output;
    enabled, each task's residual model contributes an additive term (zero
    for tasks that never had one).
    """
    group = tuple(sorted(set(int(t) for t in group)))
    if len(group) < 2:
        raise ValueError("predictions are defined for groups of two or more tasks")
    if any(not 0 <= t < predictor.n_tasks for t in group):
        raise ValueError(f"group members must be task ids below {predictor.n_tasks}")
    if tuple(ga.group) != group:
        raise ValueError("group affinity does not match the queried group")
    base = predict_stage1(predictor.stage1, ga)
    if not predictor.residual_enabled:
        return base
    u = encode_group(group, predictor.n_tasks)[None, :]
    out = {}
    for t in group:
        model = predictor.residual_models.get(t)
        correction = float(ridge.predict(model, u)[0]) if model is not None else 0.0
        out[t] = base[t] + correction
    return out


def predict_from_matrix(predictor: EnsemblePredictor, group,
                        matrix: AffinityMatrix) -> dict[int, float]:
    return predict(predictor, group, group_affinity(matrix, group))


def load_predictor(path) -> EnsemblePredictor:
    return load(path, EnsemblePredictor)
