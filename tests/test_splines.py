import numpy as np
import pytest

from mtlgrouping.splines import (
    SplineSpec,
    affine_matrix,
    basis_expand,
    basis_matrix,
    fit_knot_grid,
    fit_knots,
)

from helpers import naive_basis


def random_spec(rng, degree=None):
    d = int(degree if degree is not None else rng.integers(1, 7))
    n_interior = int(rng.integers(0, 5))
    interior = np.sort(rng.uniform(0.1, 0.9, size=n_interior))
    interior = np.unique(np.round(interior, 3))
    knots = [0.0] * (d + 1) + [float(v) for v in interior] + [1.0] * (d + 1)
    return SplineSpec(degree=d, knots=tuple(knots))


class TestFitKnots:
    def test_single_interior_knot_at_median(self):
        spec = fit_knots([0.0, 1.0], degree=2, interior_knot_count=1)
        assert spec.knots == (0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0)
        assert spec.basis_count == 4

    def test_zero_interior_gives_degree_plus_one_basis(self):
        for d in (1, 2, 3, 4):
            spec = fit_knots([0.0, 0.3, 1.0], degree=d, interior_knot_count=0)
            assert spec.basis_count == d + 1

    def test_uniform_grid_quantile_placement(self):
        scores = np.linspace(0.0, 1.0, 101)
        spec = fit_knots(scores, degree=3, interior_knot_count=3)
        interior = spec.knots[4:-4]
        assert np.allclose(interior, np.quantile(scores, [0.25, 0.5, 0.75]))

    def test_duplicate_quantiles_merged(self):
        scores = [0.0] + [0.5] * 50 + [1.0]
        spec = fit_knots(scores, degree=2, interior_knot_count=4)
        assert spec.interior_knot_count == 1
        assert spec.knots[3] == 0.5

    def test_identical_scores_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_knots([0.7, 0.7, 0.7], degree=2, interior_knot_count=1)

    @pytest.mark.parametrize("scores", [
        np.linspace(-1.0, 1.0, 30),
        [0.0] + [0.5] * 50 + [1.0],  # quantiles collide, so specs repeat across counts
        np.random.default_rng(5).normal(size=40),
    ])
    def test_grid_equals_fit_knots_per_degree_and_count(self, scores):
        degrees, counts = (2, 3, 4, 5, 6), range(5)
        expected = []
        for degree in degrees:
            for count in counts:
                spec = fit_knots(scores, degree, count)
                if spec not in expected:
                    expected.append(spec)
        assert fit_knot_grid(scores, degrees, counts) == expected

    @pytest.mark.parametrize("degrees, counts, message", [
        ((2, 3), (0, -1), "interior_knot_count must be >= 0"),
        ((7, 2), (0, 1), "degree must be in"),
    ])
    def test_grid_validates_like_fit_knots(self, degrees, counts, message):
        with pytest.raises(ValueError, match=message):
            fit_knot_grid(np.linspace(0.0, 1.0, 9), degrees, counts)

    def test_boundary_multiplicity_validated(self):
        with pytest.raises(ValueError, match="boundary"):
            SplineSpec(degree=2, knots=(0.0, 0.0, 0.5, 1.0, 1.0, 1.0))


class TestBasisExpand:
    def test_degree_one_hat_values(self):
        spec = SplineSpec(degree=1, knots=(0.0, 0.0, 0.5, 1.0, 1.0))
        assert np.allclose(basis_expand(0.25, spec), [0.5, 0.5, 0.0], atol=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            spec = random_spec(rng)
            for z in rng.uniform(0.0, 1.0, size=20):
                assert abs(basis_expand(z, spec).sum() - 1.0) < 1e-9

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            spec = random_spec(rng)
            vals = basis_matrix(rng.uniform(-0.5, 1.5, size=30), spec)
            assert np.all(vals >= 0.0)

    def test_local_support(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_spec(rng)
            for z in rng.uniform(0.0, 1.0, size=10):
                assert np.count_nonzero(basis_expand(z, spec)) <= spec.degree + 1

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            spec = random_spec(rng)
            zs = (list(rng.uniform(0.0, 1.0, size=15)) + [0.0, 1.0] + list(spec.knots)
                  + [-3.0, -1e-9, 1.0 + 1e-9, 7.5])
            batched = basis_matrix(zs, spec)
            assert batched.shape == (len(zs), spec.basis_count)
            for z, row in zip(zs, batched):
                got = basis_expand(z, spec)
                want = naive_basis(min(max(z, 0.0), 1.0), spec.degree, spec.knots)
                assert np.max(np.abs(got - want)) < 1e-12
                assert np.max(np.abs(row - want)) < 1e-12

    def test_clamped_extrapolation_constant(self):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, degree=3)
        at_lo = basis_expand(spec.z_min, spec)
        at_hi = basis_expand(spec.z_max, spec)
        for z in (-10.0, -0.001):
            assert np.array_equal(basis_expand(z, spec), at_lo)
        for z in (1.001, 42.0):
            assert np.array_equal(basis_expand(z, spec), at_hi)

    def test_right_end_is_one_hot(self):
        spec = fit_knots(np.linspace(0, 1, 11), degree=3, interior_knot_count=2)
        vals = basis_expand(1.0, spec)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(vals[:-1], 0.0, atol=1e-12)


class TestAffine:
    def test_values(self):
        assert np.array_equal(affine_matrix([0.0])[0], [1.0, 0.0])
        assert np.array_equal(affine_matrix([-1.5])[0], [1.0, -1.5])

    def test_matrix(self):
        got = affine_matrix([1.0, 2.0, 3.0])
        assert np.array_equal(got, [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])

    def test_ridge_composition_recovers_line(self):
        # least squares on three points by hand: y = 2 z + 1 exactly
        from mtlgrouping import ridge

        zs = np.array([0.0, 1.0, 2.0])
        y = 2.0 * zs + 1.0
        model = ridge.fit(affine_matrix(zs), y, 1e-10)
        pred = ridge.predict(model, affine_matrix(zs))
        assert np.max(np.abs(pred - y)) < 1e-8
        slope = model.coefficients[1]
        intercept = model.intercept + model.coefficients[0]
        assert slope == pytest.approx(2.0, abs=1e-8)
        assert intercept == pytest.approx(1.0, abs=1e-8)
