import re

import numpy as np
import pytest

from mtlgrouping.metrics import EvalReport, evaluate, mse, pearson, r_squared


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_mean_prediction(self):
        actual = [1.0, 2.0, 3.0]
        assert r_squared(actual, [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_sums_of_squares(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-12)

    def test_can_be_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [3.0, 3.0, -3.0]) < 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestPearson:
    def test_affine_invariance_positive(self):
        a = np.array([0.3, -1.0, 2.5, 0.7])
        assert pearson(a, 2.0 * a + 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_negated_series(self):
        a = np.array([1.0, 2.0, 3.0])
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computation(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(25)
        b = rng.standard_normal(25)
        base = pearson(a, b)
        for c, d in ((2.0, 1.0), (-0.5, 3.0), (10.0, -7.0)):
            got = pearson(a, c * b + d)
            assert got == pytest.approx(np.sign(c) * base, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestEvaluate:
    def test_report_fields(self):
        report = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert report.n_points == 3
        assert report.r2 == pytest.approx(0.5)
        assert report.mse == pytest.approx(1.0 / 3.0)
        assert -1.0 <= report.pearson <= 1.0

    def test_mse_zero_for_equal(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            evaluate([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="two points"):
            evaluate([1.0], [1.0])


class TestNonFinite:
    @pytest.mark.parametrize("func", [mse, r_squared, pearson, evaluate])
    @pytest.mark.parametrize("actual, predicted, message", [
        ([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0], "actual must be finite, got nan at index 0"),
        ([1.0, np.inf, 2.0], [1.0, 2.0, 3.0], "actual must be finite, got inf at index 1"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, -np.inf], "predicted must be finite, got -inf at index 2"),
        ([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0], "predicted must be finite, got nan at index 0"),
    ], ids=["nan-actual", "inf-actual", "neg-inf-predicted", "nan-predicted"])
    def test_non_finite_series_rejected(self, func, actual, predicted, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            func(actual, predicted)


class TestEvalReport:
    @pytest.mark.parametrize("values, match", [
        ((np.nan, 0.1, np.inf, -3),
         "metrics must be finite, got r2 = nan, pearson = 0.1, mse = inf"),
        ((0.5, -np.inf, 0.1, 8), "metrics must be finite"),
        ((0.5, 0.5, 0.1, 1), "metrics need n_points >= 2, got 1"),
        ((0.5, 0.5, 0.1, -3), "metrics need n_points >= 2, got -3"),
    ])
    def test_report_no_evaluation_gives_rejected(self, values, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            EvalReport(*values)
        assert EvalReport(0.5, 0.5, 0.1, 2).n_points == 2

    @pytest.mark.parametrize("r2, mse, match", [
        (5.0, -1.0, "metrics need mse >= 0 and r2 <= 1, got r2 = 5.0, mse = -1.0"),
        (1e300, 0.1, "metrics need mse >= 0 and r2 <= 1, got r2 = 1e+300, mse = 0.1"),
        (0.5, -1e-300, "metrics need mse >= 0 and r2 <= 1, got r2 = 0.5, mse = -1e-300"),
    ])
    def test_out_of_range_rejected(self, r2, mse, match):
        # no evaluation gives a negative mse or an r2 above 1
        with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
            EvalReport(r2=r2, pearson=3.0, mse=mse, n_points=3)

    def test_bounds_hold_at_the_edges(self):
        # a perfect fit has r2 = 1 and mse = 0; rounding may carry pearson past 1
        assert EvalReport(r2=1.0, pearson=1.0000000000000007, mse=0.0, n_points=3).r2 == 1.0
        a = np.random.default_rng(0).standard_normal(9)
        report = evaluate(a, a)
        assert (report.r2, report.mse) == (1.0, 0.0)
