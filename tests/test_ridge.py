import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from mtlgrouping import ridge
from mtlgrouping.artifacts import from_dict, to_json
from mtlgrouping.ensemble import encode_group
from mtlgrouping.ridge import CvConfig, SingularFitError
from mtlgrouping.seeding import stream
from mtlgrouping.splines import affine_matrix, basis_matrix, fit_knot_grid

from helpers import centered_ridge, cholesky_ridge, fold_loop_cv, per_fold_cv_error


class TestFit:
    def test_exact_line_through_origin(self):
        model = ridge.fit([[1.0], [2.0]], [1.0, 2.0], 0.0)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)

    def test_hand_normal_equations_lam_one(self):
        model = ridge.fit([[-0.5], [0.5]], [-0.5, 0.5], 1.0)
        assert model.coefficients[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_huge_lam_shrinks_to_mean(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        model = ridge.fit(X, y, 1e12)
        assert np.linalg.norm(model.coefficients) < 1e-9
        assert model.intercept == pytest.approx(float(y.mean()), abs=1e-9)

    def test_singular_at_lam_zero(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularFitError, match="lam > 0"):
            ridge.fit(X, [1.0, 2.0, 3.0], 0.0)

    def test_normal_equation_residual_small(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            p = int(rng.integers(1, 6))
            X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10)
            y = rng.standard_normal(n)
            lam = float(rng.uniform(0.0, 2.0)) + 1e-6
            model = ridge.fit(X, y, lam)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            resid = (Xc.T @ Xc + lam * np.eye(p)) @ model.coefficients - Xc.T @ yc
            scale = 1.0 + np.max(np.abs(Xc.T @ yc))
            assert np.max(np.abs(resid)) < 1e-8 * scale

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = rng.standard_normal((15, 4))
            y = rng.standard_normal(15)
            norms = [np.linalg.norm(ridge.fit(X, y, lam).coefficients)
                     for lam in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)]
            for a, b in zip(norms, norms[1:]):
                assert a >= b - 1e-12

    def test_matches_independent_least_squares(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.standard_normal((12, 3))
            y = rng.standard_normal(12)
            model = ridge.fit(X, y, 0.0)
            coef, _, _, _ = np.linalg.lstsq(
                np.column_stack([X, np.ones(len(y))]), y, rcond=None)
            assert np.allclose(model.coefficients, coef[:-1], rtol=1e-8, atol=1e-10)
            assert model.intercept == pytest.approx(coef[-1], rel=1e-8, abs=1e-10)

    def test_matches_centered_oracle_with_penalty(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = rng.standard_normal((10, 4))
            y = rng.standard_normal(10)
            lam = float(rng.uniform(0.01, 5.0))
            model = ridge.fit(X, y, lam)
            w, b = centered_ridge(X, y, lam)
            assert np.allclose(model.coefficients, w, rtol=1e-10, atol=1e-12)
            assert model.intercept == pytest.approx(b, rel=1e-10, abs=1e-12)


class TestRidgeModel:
    @pytest.mark.parametrize("coefficients, intercept, lam, match", [
        ([1.0, 2.0], 0.0, -3.0, "ridge lam must be >= 0 and finite, got -3.0"),
        ([1.0, 2.0], 0.0, np.inf, "ridge lam must be >= 0 and finite, got inf"),
        ([1.0, 2.0], 0.0, np.nan, "ridge lam must be >= 0 and finite, got nan"),
        ([1.0, 2.0], np.inf, 0.1, "ridge coefficients and intercept must be finite"),
        ([1.0, 2.0], np.nan, 0.1, "ridge coefficients and intercept must be finite"),
        ([1.0, -np.inf], 0.0, 0.1, "ridge coefficients and intercept must be finite"),
    ])
    def test_model_no_fit_gives_rejected(self, coefficients, intercept, lam, match):
        with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
            ridge.RidgeModel(np.array(coefficients), intercept=intercept, lam=lam)
        assert ridge.RidgeModel(np.array([1.0, 2.0]), intercept=0.0, lam=0.0).lam == 0.0


class TestPredict:
    def test_zero_coefficients_constant(self):
        model = ridge.RidgeModel(coefficients=np.zeros(2), intercept=3.5, lam=1.0)
        assert np.array_equal(ridge.predict(model, [[1.0, 2.0], [9.0, -1.0]]), [3.5, 3.5])

    def test_hand_model(self):
        model = ridge.RidgeModel(coefficients=np.array([2.0]), intercept=1.0, lam=0.0)
        assert ridge.predict(model, [[3.0]])[0] == pytest.approx(7.0)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        model = ridge.fit(X, y, 0.0)
        resid = y - ridge.predict(model, X)
        assert np.max(np.abs(X.T @ resid)) < 1e-8

    def test_shape_mismatch(self):
        model = ridge.fit([[1.0], [2.0]], [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            ridge.predict(model, [[1.0, 2.0]])


class TestFitCv:
    def test_linear_target_prefers_small_lam(self):
        X = np.arange(12, dtype=float).reshape(-1, 1)
        y = 3.0 * X[:, 0] + 1.0
        cv = CvConfig(lambda_grid=(0.001, 1.0), folds=4, seed=11)
        _, lam, cv_mse = ridge.fit_cv(X, y, cv)
        assert lam == 0.001
        # brute-force fold loop with the same partition
        order = stream(11, 41).permutation(12)
        for grid_lam in (0.001, 1.0):
            fold_mses = []
            for fold in np.array_split(order, 4):
                mask = np.ones(12, dtype=bool)
                mask[fold] = False
                model = ridge.fit(X[mask], y[mask], grid_lam)
                err = ridge.predict(model, X[fold]) - y[fold]
                fold_mses.append(float(np.mean(err ** 2)))
            assert cv_mse[grid_lam] == float(np.mean(fold_mses))

    def test_leave_one_out_three_points_by_hand(self):
        # x in {0, 1, 2}, y = x, lam = 0.5; each fold fits two points:
        # slope = Sxy / (Sxx + lam) with centered data, then error on the
        # held-out point. Folds enumerated by hand below.
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        lam = 0.5
        expected = {}
        for left_out in range(3):
            keep = [i for i in range(3) if i != left_out]
            xs, ys = X[keep, 0], y[keep]
            sxx = float(np.sum((xs - xs.mean()) ** 2))
            sxy = float(np.sum((xs - xs.mean()) * (ys - ys.mean())))
            w = sxy / (sxx + lam)
            b = ys.mean() - w * xs.mean()
            expected[left_out] = (w * X[left_out, 0] + b - y[left_out]) ** 2
        cv = CvConfig(lambda_grid=(lam,), folds=3, seed=0)
        _, _, cv_mse = ridge.fit_cv(X, y, cv)
        assert cv_mse[lam] == pytest.approx(float(np.mean(list(expected.values()))), abs=1e-12)

    def test_constant_target_ties_to_largest_lam(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.full(8, 2.0)
        _, lam, cv_mse = ridge.fit_cv(X, y, CvConfig(lambda_grid=(0.001, 0.1, 1.0), folds=4))
        assert lam == 1.0
        assert len(set(cv_mse.values())) == 1

    def test_refit_uses_all_rows(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        model, lam, _ = ridge.fit_cv(X, y, CvConfig(folds=5, seed=3))
        direct = ridge.fit(X, y, lam)
        assert np.array_equal(model.coefficients, direct.coefficients)
        assert model.intercept == direct.intercept

    @pytest.mark.parametrize("grid", [(np.nan,), (0.1, np.inf), (-np.inf,)])
    def test_non_finite_lambda_rejected(self, grid):
        with pytest.raises(ValueError, match="^lambda_grid entries must be positive and finite$"):
            CvConfig(lambda_grid=grid)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="folds"):
            ridge.fit_cv([[1.0], [2.0]], [1.0, 2.0], CvConfig(folds=3))

    def test_singular_names_failing_grid_lam(self):
        # collinear columns at 1e9 scale: every grid lam is negligible next to
        # the Gram entries, so the smallest one, not lam=0, is the first to fail
        rng = np.random.default_rng(0)
        x0, x1 = rng.standard_normal(20), rng.standard_normal(20)
        X = np.column_stack([x0 * 1e9, x0 * 1e9, x1])
        with pytest.raises(SingularFitError, match=r"singular at lam=0\.001; ") as info:
            ridge.fit_cv(X, rng.standard_normal(20))
        assert "lam > 0" not in str(info.value)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("call", ["fit", "fit_cv"])
    def test_rejected_before_solving(self, call, where, bad):
        X = np.arange(12, dtype=float).reshape(6, 2) ** 1.5
        y = np.linspace(0.0, 1.0, 6)
        (X if where == "X" else y)[3] = bad
        run = {"fit": lambda: ridge.fit(X, y, 0.1),
               "fit_cv": lambda: ridge.fit_cv(X, y, CvConfig(folds=3))}[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{where} contains NaN or inf$") as info:
                run()
        assert not isinstance(info.value, SingularFitError)


def _spline_designs(rng):
    for degree in (1, 2, 3):
        for interior in (0, 2, 5, 8):
            n = int(rng.integers(12, 40))
            z = rng.uniform(-1.0, 1.0, n)
            (spec,) = fit_knot_grid(z, (degree,), (interior,))
            yield basis_matrix(z, spec), rng.standard_normal(n)


def _affine_designs(rng):
    for n in (3, 5, 9, 24):
        yield affine_matrix(rng.uniform(-0.5, 2.0, n)), rng.standard_normal(n)


def _multi_hot_designs(rng):
    # residual-stage rows: groups that all contain task t, so column t is all ones
    for n_tasks in (3, 5, 6):
        for t in range(n_tasks):
            others = [g for k in range(2, n_tasks + 1)
                      for g in combinations(range(n_tasks), k) if t in g]
            pick = rng.choice(len(others), size=min(len(others), 9), replace=False)
            X = np.stack([encode_group(others[i], n_tasks) for i in sorted(pick)])
            yield X, rng.standard_normal(len(X))


def _wide_designs(rng):
    for p in range(1, 13):
        n = int(rng.integers(p + 2, 3 * p + 6))
        yield rng.standard_normal((n, p)) * rng.uniform(0.1, 5.0), rng.standard_normal(n)


def _random_cases(rng):
    """300 (X, y, cv) of random widths, scales, shifts, fold counts and seeds."""
    for _ in range(300):
        p = int(rng.integers(1, 9))
        n = int(rng.integers(max(p + 2, 5), 60))
        X = rng.standard_normal((n, p)) * rng.uniform(0.01, 100.0, p)
        if rng.random() < 0.3:  # shifted columns, as spline bases have
            X += rng.uniform(-5.0, 5.0, p)
        y = rng.standard_normal(n)
        yield X, y, CvConfig(folds=int(rng.integers(2, min(n, 10) + 1)),
                             seed=int(rng.integers(0, 1000)))


PIPELINE_DESIGNS = [_spline_designs, _affine_designs, _multi_hot_designs, _wide_designs]


class TestMatchesPerFitOracle:
    """fit and fit_cv equal, bit for bit, one ``np.linalg.solve`` per (lam, fold)."""

    @pytest.mark.parametrize("designs", PIPELINE_DESIGNS)
    def test_pipeline_designs(self, designs):
        rng = np.random.default_rng(17)
        checked = 0
        for X, y in designs(rng):
            folds = min(5, len(y))
            for seed in (0, 3):
                self._assert_same(X, y, CvConfig(folds=folds, seed=seed))
            checked += 1
        assert checked >= 4

    def test_two_folds_of_one_training_row(self):
        rng = np.random.default_rng(18)
        for p in (1, 3):
            X = rng.standard_normal((2, p))
            y = rng.standard_normal(2)
            self._assert_same(X, y, CvConfig(folds=2, seed=5))

    def test_random_designs(self):
        for X, y, cv in _random_cases(np.random.default_rng(20)):
            self._assert_same(X, y, cv)

    def test_leave_one_out_custom_grid(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((7, 4))
        y = rng.standard_normal(7)
        self._assert_same(X, y, CvConfig(lambda_grid=(2.0, 1e-4, 0.3), folds=7, seed=1))

    @staticmethod
    def _assert_same(X, y, cv):
        for lam in cv.lambda_grid:
            model = ridge.fit(X, y, lam)
            w, b = centered_ridge(X, y, lam)
            assert np.array_equal(model.coefficients, w)
            assert model.intercept == b
        model, lam, cv_mse = ridge.fit_cv(X, y, cv)
        want_mse, want_lam = fold_loop_cv(X, y, cv.lambda_grid, cv.folds, cv.seed)
        assert list(cv_mse.items()) == list(want_mse.items())
        assert lam == want_lam
        w, b = centered_ridge(X, y, lam)
        assert np.array_equal(model.coefficients, w)
        assert model.intercept == b


class TestMatchesCholeskyOracle:
    """fit and fit_cv agree with one Cholesky factor and scipy's cho_solve per
    (lam, fold) to rtol 1e-9; CV may pick another lam only at a near-tie."""

    @pytest.mark.parametrize("designs", PIPELINE_DESIGNS)
    def test_pipeline_designs(self, designs):
        rng = np.random.default_rng(17)
        for X, y in designs(rng):
            for seed in (0, 3):
                self._assert_close(X, y, CvConfig(folds=min(5, len(y)), seed=seed))

    def test_random_designs(self):
        for X, y, cv in _random_cases(np.random.default_rng(20)):
            self._assert_close(X, y, cv)

    @staticmethod
    def _assert_close(X, y, cv):
        for lam in cv.lambda_grid:
            model = ridge.fit(X, y, lam)
            w, b = cholesky_ridge(X, y, lam)
            np.testing.assert_allclose(model.coefficients, w, rtol=1e-9, atol=0)
            assert model.intercept == pytest.approx(b, rel=1e-9, abs=1e-12)
        lam, cv_mse = ridge.cv_score(X, y, cv)
        want_mse, want_lam = fold_loop_cv(X, y, cv.lambda_grid, cv.folds, cv.seed,
                                          ridge=cholesky_ridge)
        assert list(cv_mse) == list(want_mse)
        np.testing.assert_allclose(list(cv_mse.values()), list(want_mse.values()), rtol=1e-9)
        if lam != want_lam:
            assert abs(cv_mse[lam] - cv_mse[want_lam]) <= 1e-12 * cv_mse[want_lam]


def _fold_rows(n, cv):
    return np.array_split(stream(cv.seed, 41).permutation(n), cv.folds)


def _collinear_on_fold(rng, n, cv, fold, scale):
    """Two columns equal on every row outside ``fold`` and apart on its rows:
    collinear on that fold's training rows only."""
    x = rng.standard_normal(n) * scale
    apart = np.zeros(n)
    rows = _fold_rows(n, cv)[fold]
    apart[rows] = rng.uniform(1.0, 2.0, rows.size) * scale * 1e-4
    return np.column_stack([x, x + apart])


class TestFoldFailures:
    """fit_cv raises what solving fold after fold raises, with the batched factorization.

    Whether a collinear pair fails the factorization or only the pivot check
    depends on rounding; at these seeds the 1e5 scale fails the pivot check
    and the 1e9 and 1e11 scales the factorization, which the reference loop
    confirms case by case.
    """

    CV = CvConfig(seed=0)

    @pytest.mark.parametrize("scale, check", [(1e5, "pivot"), (1e9, "factor")])
    @pytest.mark.parametrize("fold", range(5))
    def test_singular_on_one_fold(self, fold, scale, check):
        rng = np.random.default_rng(60 + fold)
        X = np.column_stack([_collinear_on_fold(rng, 20, self.CV, fold, scale),
                             rng.standard_normal(20) * scale])
        y = rng.standard_normal(20)
        want = per_fold_cv_error(X, y, self.CV)
        assert want[:2] == (fold, check)
        with pytest.raises(SingularFitError) as info:
            ridge.fit_cv(X, y, self.CV)
        assert str(info.value) == want[2]
        assert "lam=0.001; " in want[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("scale, check", [(1e5, "pivot"), (1e11, "factor")])
    @pytest.mark.parametrize("singular_fold, huge_fold", [(2, 4), (0, 1), (3, 0), (1, 0)])
    def test_folds_fail_in_order(self, singular_fold, huge_fold, scale, check):
        # a huge target on one row overflows Xc'yc, and so the coefficients, on
        # every fold that trains on that row; a fold's factorization and pivots
        # are checked before it is solved, and each fold before the next one
        rng = np.random.default_rng(70)
        X = np.column_stack([_collinear_on_fold(rng, 20, self.CV, singular_fold, scale),
                             rng.standard_normal(20) * scale])
        y = rng.standard_normal(20)
        y[_fold_rows(20, self.CV)[huge_fold][0]] = 1e308
        first_nonfinite = 1 if huge_fold == 0 else 0
        want = per_fold_cv_error(X, y, self.CV)
        if singular_fold <= first_nonfinite:
            assert want[:2] == (singular_fold, check)
        else:
            assert want[:2] == (first_nonfinite, "finite")
        with pytest.raises(SingularFitError) as info:
            ridge.fit_cv(X, y, self.CV)
        assert str(info.value) == want[2]

    def test_factor_failure_names_the_failing_lam(self):
        # fold 2's Gram matrix does not factor at lam = 0.001 but does at 1e22
        rng = np.random.default_rng(80)
        X = np.column_stack([_collinear_on_fold(rng, 20, self.CV, 2, 1e9),
                             rng.standard_normal(20) * 1e9])
        y = rng.standard_normal(20)
        cv = CvConfig(lambda_grid=(1e22, 1e-3, 1e23), seed=0)
        assert per_fold_cv_error(X, y, cv)[:2] == (2, "factor")
        with pytest.raises(SingularFitError, match=r"singular at lam=0\.001; "):
            ridge.fit_cv(X, y, cv)
        ridge.fit_cv(X, y, CvConfig(lambda_grid=(1e22, 1e23), seed=0))


class TestNeverRaisesTrainingError:
    """The unpenalized intercept makes w = 0, b = mean(e) a feasible fit, so the
    chosen model's training MSE is at most mean((e - mean(e))**2) <= mean(e**2).
    Residual models rely on this; only rounding may exceed it."""

    @staticmethod
    def _assert_no_rise(X, e, folds, seed):
        model, _, _ = ridge.fit_cv(X, e, CvConfig(folds=folds, seed=seed))
        corrected = e - ridge.predict(model, X)
        assert np.mean(corrected ** 2) <= np.mean(e ** 2) * (1 + 1e-12)

    def test_multi_hot_designs(self):
        rng = np.random.default_rng(120)
        for case in range(200):
            n_tasks = int(rng.integers(3, 9))
            n = int(rng.integers(5, 30))
            X = (rng.random((n, n_tasks)) < 0.5).astype(float)
            X[:, case % n_tasks] = 1.0  # every row holds the task, as in its residual design
            if case % 2:  # two tasks that always appear together
                i, j = rng.choice(n_tasks, size=2, replace=False)
                X[:, j] = X[:, i]
            e = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.01, 1.0), n)
            self._assert_no_rise(X, e, int(rng.integers(2, 6)), case)

    def test_spline_designs(self):
        rng = np.random.default_rng(121)
        for case in range(4):
            for X, _ in _spline_designs(rng):
                e = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.01, 1.0), len(X))
                self._assert_no_rise(X, e, 2 + case, case)


class TestStackedPredict:
    def test_slices_match_one_call_each(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            n, k, p = (int(v) for v in rng.integers(1, 12, 3))
            model = ridge.RidgeModel(rng.standard_normal(p), float(rng.standard_normal()), 0.1)
            X = rng.standard_normal((n, k, p))
            stacked = ridge.predict(model, X)
            assert stacked.shape == (n, k)
            for row, x in zip(stacked, X):
                assert np.array_equal(row, ridge.predict(model, x))

    def test_vector_rejected(self):
        model = ridge.RidgeModel(np.ones(2), 0.0, 0.1)
        with pytest.raises(ValueError, match="shape"):
            ridge.predict(model, [1.0, 2.0])


class TestSerialization:
    def test_round_trip(self):
        model = ridge.fit([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.5], 0.05)
        back = from_dict(ridge.RidgeModel, to_json(model))
        assert np.array_equal(back.coefficients, model.coefficients)
        assert back.intercept == model.intercept
        assert back.lam == model.lam
