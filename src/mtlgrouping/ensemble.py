"""Two-stage gain predictor.

Stage 1 is one global scalar map from a task's group-affinity score to a
predicted gain: a spline (or affine) basis expansion followed by ridge
regression, with the basis hyperparameters and penalty chosen by cross
validation on the training groups. Stage 2 learns, per task, a ridge model
from the group's multi-hot membership vector to the stage-1 residual, so
systematic over- or under-prediction for particular task combinations gets
corrected. The final prediction is the stage-1 value plus the residual term.

Predictions are computed in whole arrays. ``predict_from_matrix`` stacks its
groups by size k: one ``group_scores`` gather, one design matrix for all
their members, one ``(N, k, m) @ coef`` stage-1 product, and per task one
``(N_t, 1, n) @ coef`` residual product over the groups that hold it.
numpy runs each slice of a stacked product as its own BLAS call, the call
one group alone makes, so every group gets the bits ``predict`` gives it
alone; ``predict`` and ``predict_stage1`` are the one-group case of the same
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import ClassVar

import numpy as np

from . import ridge
from .artifacts import load
from .affinity import AffinityMatrix, GroupAffinity, group_affinity, group_scores, task_group
from .ridge import CvConfig, RidgeModel
from .splines import SplineSpec, affine_matrix, basis_matrix, fit_knot_grid

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
        if not -np.inf < self.z_lo <= self.z_hi < np.inf:
            raise ValueError(f"stage-1 bounds must be finite with z_lo <= z_hi, "
                             f"got z_lo = {self.z_lo!r}, z_hi = {self.z_hi!r}")
        width = 2 if self.spline is None else self.spline.basis_count
        if self.model.feature_dim != width:
            raise ValueError(f"stage-1 model has {self.model.feature_dim} coefficients where "
                             f"its {self.mapping_kind} design has {width} columns")

    def design(self, zs) -> np.ndarray:
        """One design row per score: scores of shape ``(..., k)`` give ``(..., k, m)``."""
        zs = np.atleast_1d(np.asarray(zs, dtype=float))
        flat = np.clip(zs.ravel(), self.z_lo, self.z_hi)
        rows = affine_matrix(flat) if self.mapping_kind == "affine" else basis_matrix(flat, self.spline)
        return rows.reshape(zs.shape + rows.shape[-1:])

    def apply(self, zs) -> np.ndarray:
        """Predicted gain of each score in a ``(k,)`` or ``(N, k)`` array."""
        return ridge.predict(self.model, self.design(zs))


@dataclass(frozen=True)
class EnsemblePredictor:
    SCHEMA: ClassVar[str] = "predictor/1"

    stage1: Stage1Model
    residual_models: dict[int, RidgeModel]
    residual_enabled: bool
    n_tasks: int

    def __post_init__(self):
        for t, model in self.residual_models.items():
            if not 0 <= t < self.n_tasks or model.feature_dim != self.n_tasks:
                raise ValueError(f"residual model {t} must be a task id below {self.n_tasks} "
                                 f"with {self.n_tasks} coefficients")

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
    best = None
    # scored by CV error alone; only the winner is refit
    for spec in fit_knot_grid(z, degrees, interior_counts):
        design = basis_matrix(z, spec)
        lam, cv_mse = ridge.cv_score(design, y, cv)
        key = (cv_mse[lam], spec.basis_count, spec.degree)
        if best is None or key < best[0]:
            best = (key, spec, design, lam)
    _, spec, design, lam = best
    return Stage1Model(mapping_kind="spline", model=ridge.fit(design, y, lam), spline=spec,
                       z_lo=z_lo, z_hi=z_hi)


def predict_stage1(stage1: Stage1Model, ga: GroupAffinity) -> dict[int, float]:
    """Apply the scalar map to each member's group-affinity score."""
    zs = np.array([ga.scores[t] for t in ga.group])
    return dict(zip(ga.group, stage1.apply(zs).tolist()))


def fit_residual(pairs, stage1: Stage1Model, n_tasks: int,
                 cv: CvConfig | None = None) -> dict[int, RidgeModel]:
    """Per-task ridge models from multi-hot group encodings to stage-1 errors.

    ``pairs`` come from ``build_training_pairs``: a run per record, scored by one ``stage1.apply``.
    """
    base_cv = cv if cv is not None else CvConfig()
    rows: dict[int, list] = {}
    pairs = iter(pairs)
    for first in pairs:
        run = [first, *islice(pairs, len(first.group) - 1)]
        if tuple(p.task for p in run) != first.group:
            raise ValueError(f"pairs of group {first.group} must be one run of its members")
        u = encode_group(first.group, n_tasks)
        for p, pred in zip(run, stage1.apply([p.affinity for p in run]).tolist()):
            rows.setdefault(p.task, []).append((u, p.gain - pred))
    models: dict[int, RidgeModel] = {}
    for t, data in sorted(rows.items()):
        if len(data) < MIN_RESIDUAL_GROUPS:
            continue
        us, es = zip(*data)
        models[t], _, _ = ridge.fit_cv(np.stack(us), np.array(es), _cv_for(base_cv, len(data)))
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
        residual_models = fit_residual(pairs, stage1, n_tasks, cv=cv)
    return EnsemblePredictor(
        stage1=stage1,
        residual_models=residual_models,
        residual_enabled=residual_enabled,
        n_tasks=n_tasks,
    )


def _predict_rows(predictor: EnsemblePredictor, groups: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """``(N, k)`` final predictions for N sorted k-task groups with scores ``zs``."""
    base = predictor.stage1.apply(zs)
    if not predictor.residual_enabled:
        return base
    members = np.zeros((len(groups), predictor.n_tasks))  # multi-hot rows, as encode_group
    members[np.arange(len(groups))[:, None], groups] = 1.0
    correction = np.zeros_like(base)  # zero for tasks that never had a model
    for t, model in predictor.residual_models.items():
        rows, pos = np.nonzero(groups == t)
        if rows.size:
            correction[rows, pos] = ridge.predict(model, members[rows, None, :])[:, 0]
    return base + correction


def predict(predictor: EnsemblePredictor, group, ga: GroupAffinity) -> dict[int, float]:
    """Final per-task gain predictions for one group.

    With residual correction disabled this is exactly the stage-1 output;
    enabled, each task's residual model contributes an additive term (zero
    for tasks that never had one).
    """
    group = task_group(group, predictor.n_tasks)
    if tuple(ga.group) != group:
        raise ValueError("group affinity does not match the queried group")
    zs = np.array([[ga.scores[t] for t in group]])
    return dict(zip(group, _predict_rows(predictor, np.array([group]), zs)[0].tolist()))


def predict_from_matrix(predictor: EnsemblePredictor, groups,
                        matrix: AffinityMatrix) -> list[dict[int, float]]:
    """Final per-task predictions for each of ``groups``, one dict per group.

    Each dict equals, bit for bit, ``predict(predictor, group,
    group_affinity(matrix, group))``.
    """
    groups = [task_group(g, min(predictor.n_tasks, matrix.n)) for g in groups]
    by_size: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        by_size.setdefault(len(group), []).append(i)
    out: list = [None] * len(groups)
    for rows in by_size.values():
        stacked = np.array([groups[i] for i in rows])
        preds = _predict_rows(predictor, stacked, group_scores(matrix, stacked))
        for i, pred in zip(rows, preds.tolist()):
            out[i] = dict(zip(groups[i], pred))
    return out


def load_predictor(path) -> EnsemblePredictor:
    return load(path, EnsemblePredictor)
