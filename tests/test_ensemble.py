import numpy as np
import pytest

from mtlgrouping import ridge
from mtlgrouping.artifacts import save, to_json, write_json
from mtlgrouping.affinity import AffinityMatrix, group_affinity
from mtlgrouping.ensemble import (
    DEFAULT_DEGREES,
    TrainingPair,
    build_training_pairs,
    encode_group,
    fit_predictor,
    fit_residual,
    fit_stage1,
    load_predictor,
    predict,
    predict_from_matrix,
    predict_stage1,
)
from mtlgrouping.gains import GainRecord
from mtlgrouping.ridge import CvConfig
from mtlgrouping.selector import build_problem, enumerate_candidate_groups
from mtlgrouping.splines import basis_matrix, fit_knots

from helpers import centered_ridge, mean_loop_group_affinity, naive_basis


def pairs_from(zs, ys):
    return [TrainingPair(group=(0, i % 3 + 1), task=0, affinity=float(z), gain=float(y))
            for i, (z, y) in enumerate(zip(zs, ys))]


def random_matrix(rng, n):
    values = rng.normal(scale=0.2, size=(n, n))
    return AffinityMatrix(values=values, steps_used=np.ones((n, n), dtype=int))


def random_records(rng, n_tasks, n_groups, matrix, gain_fn=None):
    from itertools import combinations

    universe = [g for k in range(2, n_tasks + 1) for g in combinations(range(n_tasks), k)]
    idx = rng.choice(len(universe), size=n_groups, replace=False)
    records = []
    for i in sorted(idx):
        group = universe[i]
        ga = group_affinity(matrix, group)
        gains = {}
        for t in group:
            z = ga.scores[t]
            gains[t] = gain_fn(group, t, z) if gain_fn else float(rng.normal(0.5 * z, 0.05))
        records.append(GainRecord(
            group=group, gains=gains,
            stl_losses={t: 1.0 for t in group},
            mtl_losses={t: 1.0 - gains[t] for t in group},
            seed=0))
    return records


class TestMultiHot:
    def test_encode_decode_identity(self):
        bits = encode_group((1, 3), 5)
        assert np.array_equal(bits, [0.0, 1.0, 0.0, 1.0, 0.0])
        assert int(bits.sum()) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            encode_group((0, 7), 5)


class TestFitStage1:
    def test_zero_targets_zero_predictions(self):
        rng = np.random.default_rng(0)
        zs = rng.uniform(-1, 1, size=20)
        stage1 = fit_stage1(pairs_from(zs, np.zeros(20)), "spline", CvConfig(seed=1))
        assert np.max(np.abs(stage1.apply(zs))) < 1e-6

    def test_affine_recovers_line(self):
        zs = np.linspace(-1.0, 1.0, 15)
        ys = 2.0 * zs + 1.0
        cv = CvConfig(lambda_grid=(1e-6,), folds=5, seed=2)
        stage1 = fit_stage1(pairs_from(zs, ys), "affine", cv)
        assert np.max(np.abs(stage1.apply(zs) - ys)) < 1e-3

    def test_spline_beats_affine_on_quadratic(self):
        zs = np.linspace(-1.0, 1.0, 40)
        ys = zs ** 2
        cv = CvConfig(lambda_grid=(1e-4,), folds=5, seed=3)
        spline = fit_stage1(pairs_from(zs, ys), "spline", cv, degrees=(2,),
                            interior_counts=(3,))
        affine = fit_stage1(pairs_from(zs, ys), "affine", cv)
        mse_spline = float(np.mean((spline.apply(zs) - ys) ** 2))
        mse_affine = float(np.mean((affine.apply(zs) - ys) ** 2))
        assert mse_spline < mse_affine

    def test_degenerate_affinities_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_stage1(pairs_from([0.5] * 5, [1, 2, 3, 4, 5]), "spline")

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="three"):
            fit_stage1(pairs_from([0.0, 1.0], [0.0, 1.0]), "affine")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refits_only_the_winning_spec(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        zs = rng.uniform(-1.0, 1.0, size=30)
        ys = np.sin(3.0 * zs) + rng.normal(scale=0.1, size=30)
        cv = CvConfig(seed=seed)
        # the old selection: fit_cv per spec, refit included, keep the best key
        best = None
        for degree in DEFAULT_DEGREES:
            for count in range(2):  # three distinct groups cap the interior count at 1
                spec = fit_knots(zs, degree, count)
                model, lam, cv_mse = ridge.fit_cv(basis_matrix(zs, spec), ys, cv)
                key = (cv_mse[lam], spec.basis_count, spec.degree)
                if best is None or key < best[0]:
                    best = (key, spec, model)
        fits = []
        real_fit = ridge.fit
        monkeypatch.setattr(ridge, "fit", lambda *args: fits.append(args) or real_fit(*args))
        stage1 = fit_stage1(pairs_from(zs, ys), "spline", cv)
        assert len(fits) == 1
        assert stage1.spline == best[1]
        assert to_json(stage1.model) == to_json(best[2])

    def test_knot_quantiles_computed_once_per_count(self, monkeypatch):
        rng = np.random.default_rng(6)
        # 30 distinct groups cap the interior count at 5: counts 0..5 over 5 degrees
        pairs = [TrainingPair(group=(0, i + 1), task=0, affinity=float(z), gain=float(y))
                 for i, (z, y) in enumerate(zip(rng.uniform(size=30), rng.normal(size=30)))]
        calls = []
        real_quantile = np.quantile
        monkeypatch.setattr(np, "quantile", lambda scores, qs, **kw: calls.append(len(qs))
                            or real_quantile(scores, qs, **kw))
        fit_stage1(pairs, "spline")
        assert sorted(calls) == [1, 2, 3, 4, 5]

    def test_each_fold_permutation_drawn_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        matrix = random_matrix(rng, 6)
        records = random_records(rng, 6, 14, matrix)
        draws, scored = [], []
        real_stream, real_score = ridge.stream, ridge.cv_score
        monkeypatch.setattr(ridge, "stream", lambda *keys: draws.append(keys) or real_stream(*keys))
        monkeypatch.setattr(ridge, "cv_score", lambda X, y, cv=None: scored.append(
            (cv.seed, len(y))) or real_score(X, y, cv))
        ridge._row_order.cache_clear()
        for seed in (3, 4, 3):
            fit_predictor(records, matrix, 6, cv=CvConfig(seed=seed))
        assert len(scored) > 3 * len(set(scored))
        assert len(draws) == len(set(scored))


class TestPredictStage1:
    def test_equal_affinity_equal_prediction(self):
        rng = np.random.default_rng(4)
        stage1 = fit_stage1(pairs_from(rng.uniform(0, 1, 12), rng.normal(size=12)),
                            "spline", CvConfig(seed=5))
        from mtlgrouping.affinity import GroupAffinity

        ga = GroupAffinity(group=(0, 1, 2), scores={0: 0.4, 1: 0.4, 2: 0.8})
        preds = predict_stage1(stage1, ga)
        assert preds[0] == preds[1]

    def test_clamped_beyond_training_range(self):
        rng = np.random.default_rng(6)
        zs = rng.uniform(0.0, 1.0, 15)
        stage1 = fit_stage1(pairs_from(zs, 2 * zs), "spline", CvConfig(seed=7))
        top = stage1.apply([stage1.z_hi])[0]
        assert stage1.apply([stage1.z_hi + 5.0])[0] == top
        low = stage1.apply([stage1.z_lo])[0]
        assert stage1.apply([stage1.z_lo - 5.0])[0] == low

    def test_training_set_predictions_match_refit_oracle(self):
        # fixed hyperparameters, no CV: straight-line re-fit in this test
        rng = np.random.default_rng(8)
        zs = rng.uniform(-0.5, 0.5, 18)
        ys = np.sin(3 * zs) + rng.normal(scale=0.01, size=18)
        lam = 0.01
        cv = CvConfig(lambda_grid=(lam,), folds=3, seed=9)
        stage1 = fit_stage1(pairs_from(zs, ys), "spline", cv, degrees=(3,),
                            interior_counts=(2,))
        # oracle: quantile knots, naive recursion basis, plain centered solve
        knots = ([float(zs.min())] * 4
                 + [float(np.quantile(zs, 1 / 3)), float(np.quantile(zs, 2 / 3))]
                 + [float(zs.max())] * 4)
        Phi = np.vstack([naive_basis(z, 3, knots) for z in zs])
        w, b = centered_ridge(Phi, ys, lam)
        want = Phi @ w + b
        got = stage1.apply(zs)
        assert np.max(np.abs(got - want)) < 1e-10


class TestFitResidual:
    def test_perfect_stage1_zero_residuals(self):
        rng = np.random.default_rng(10)
        matrix = random_matrix(rng, 5)
        # gains exactly linear in z, so an affine stage 1 nails them
        records = random_records(rng, 5, 12, matrix,
                                 gain_fn=lambda g, t, z: 2.0 * z + 0.3)
        pairs = build_training_pairs(records, matrix)
        cv = CvConfig(lambda_grid=(1e-8,), folds=3, seed=11)
        stage1 = fit_stage1(pairs, "affine", cv)
        models = fit_residual(pairs, stage1, 5, cv)
        u = encode_group((0, 1), 5)[None, :]
        for t, model in models.items():
            assert abs(float(ridge.predict(model, u)[0])) < 1e-6

    def test_task_without_groups_has_no_model(self):
        rng = np.random.default_rng(12)
        matrix = random_matrix(rng, 4)
        records = [GainRecord(group=(0, 1), gains={0: 0.1, 1: 0.2},
                              stl_losses={0: 1, 1: 1}, mtl_losses={0: .9, 1: .8}, seed=0),
                   GainRecord(group=(0, 1, 2), gains={0: 0.0, 1: 0.1, 2: 0.2},
                              stl_losses={0: 1, 1: 1, 2: 1},
                              mtl_losses={0: 1, 1: .9, 2: .8}, seed=0)]
        pairs = build_training_pairs(records, matrix)
        stage1 = fit_stage1(pairs, "affine", CvConfig(folds=2, seed=13))
        models = fit_residual(pairs, stage1, 4, CvConfig(folds=2, seed=13))
        assert 3 not in models  # never appears
        assert 2 not in models  # appears once, below the minimum
        predictor = fit_predictor(records, matrix, 4, mapping_kind="affine",
                                  cv=CvConfig(folds=2, seed=13))
        ga = group_affinity(matrix, (2, 3))
        base = predict_stage1(predictor.stage1, ga)
        final = predict(predictor, (2, 3), ga)
        assert final == base  # residual term is zero for both tasks

    def test_rows_match_scoring_each_record_alone(self):
        rng = np.random.default_rng(14)
        matrix = random_matrix(rng, 6)
        records = random_records(rng, 6, 20, matrix)
        pairs = build_training_pairs(records, matrix)
        cv = CvConfig(seed=15)
        stage1 = fit_stage1(pairs, "spline", cv)
        rows = {}
        for rec in records:
            preds = predict_stage1(stage1, group_affinity(matrix, rec.group))
            for t in rec.group:
                rows.setdefault(t, []).append((encode_group(rec.group, 6), rec.gains[t] - preds[t]))
        models = fit_residual(pairs, stage1, 6, cv)
        assert sorted(models) == sorted(t for t, data in rows.items() if len(data) >= 2)
        for t, model in models.items():
            X = np.stack([u for u, _ in rows[t]])
            e = np.array([r for _, r in rows[t]])
            want, _, _ = ridge.fit_cv(X, e, CvConfig(folds=min(5, len(e)), seed=15))
            assert np.array_equal(model.coefficients, want.coefficients)
            assert model.intercept == want.intercept

    def test_pairs_out_of_record_runs_rejected(self):
        rng = np.random.default_rng(16)
        matrix = random_matrix(rng, 4)
        pairs = build_training_pairs(random_records(rng, 4, 6, matrix), matrix)
        stage1 = fit_stage1(pairs, "affine", CvConfig(folds=2, seed=17))
        with pytest.raises(ValueError, match="one run of its members"):
            fit_residual(pairs[1:], stage1, 4)

    def test_planted_task_bias_recovered(self):
        # +0.1 added to task 3's gain in every training group; the recovered
        # correction is attenuated a little because the pooled stage-1 fit
        # absorbs part of the shift into its intercept
        rng = np.random.default_rng(14)
        matrix = random_matrix(rng, 8)

        def biased(group, t, z):
            return 0.5 * z + (0.1 if t == 3 else 0.0)

        records = random_records(rng, 8, 40, matrix, gain_fn=biased)
        predictor = fit_predictor(records, matrix, 8, mapping_kind="affine",
                                  cv=CvConfig(folds=3, seed=15))
        held = [g for g in [(0, 3), (1, 3, 4), (2, 3, 5), (3, 4), (0, 1, 3)]
                if g not in [r.group for r in records]]
        assert held
        for group in held:
            ga = group_affinity(matrix, group)
            base = predict_stage1(predictor.stage1, ga)
            final = predict(predictor, group, ga)
            correction = final[3] - base[3]
            assert correction == pytest.approx(0.1, abs=0.05)


class TestPredict:
    def test_residual_disabled_is_stage1_bitwise(self):
        rng = np.random.default_rng(16)
        matrix = random_matrix(rng, 5)
        records = random_records(rng, 5, 10, matrix)
        predictor = fit_predictor(records, matrix, 5, residual_enabled=False,
                                  cv=CvConfig(seed=17))
        assert predictor.residual_models == {}
        for group in ((0, 1), (1, 2, 3), (0, 2, 4)):
            ga = group_affinity(matrix, group)
            assert predict(predictor, group, ga) == predict_stage1(predictor.stage1, ga)

    def test_prediction_additivity(self):
        rng = np.random.default_rng(18)
        matrix = random_matrix(rng, 5)
        records = random_records(rng, 5, 12, matrix)
        predictor = fit_predictor(records, matrix, 5, cv=CvConfig(seed=19))
        group = (0, 2, 3)
        ga = group_affinity(matrix, group)
        base = predict_stage1(predictor.stage1, ga)
        final = predict(predictor, group, ga)
        u = encode_group(group, 5)[None, :]
        for t in group:
            model = predictor.residual_models.get(t)
            term = float(ridge.predict(model, u)[0]) if model is not None else 0.0
            assert final[t] == base[t] + term

    def test_training_error_not_worse_with_residual(self):
        rng = np.random.default_rng(20)
        matrix = random_matrix(rng, 6)
        records = random_records(rng, 6, 15, matrix)
        with_res = fit_predictor(records, matrix, 6, cv=CvConfig(seed=21))
        without = fit_predictor(records, matrix, 6, residual_enabled=False,
                                cv=CvConfig(seed=21))
        for t in range(6):
            if t not in with_res.residual_models:
                continue
            errs_with, errs_without = [], []
            for rec in records:
                if t not in rec.group:
                    continue
                ga = group_affinity(matrix, rec.group)
                errs_with.append(rec.gains[t] - predict(with_res, rec.group, ga)[t])
                errs_without.append(rec.gains[t] - predict(without, rec.group, ga)[t])
            assert np.mean(np.square(errs_with)) <= np.mean(np.square(errs_without)) + 1e-9

    def test_unknown_task_rejected(self):
        rng = np.random.default_rng(22)
        matrix = random_matrix(rng, 4)
        records = random_records(rng, 4, 8, matrix)
        predictor = fit_predictor(records, matrix, 4, cv=CvConfig(seed=23))
        with pytest.raises(ValueError, match="below"):
            predict_from_matrix(predictor, [(0, 9)], matrix)

    def test_end_to_end_matches_straight_line_reimplementation(self):
        # fixed hyperparameters: degree 2, one interior knot, lam, no CV search
        rng = np.random.default_rng(24)
        n = 4
        matrix = random_matrix(rng, n)
        records = random_records(rng, n, 10, matrix)
        lam = 0.05
        cv = CvConfig(lambda_grid=(lam,), folds=2, seed=25)
        predictor = fit_predictor(records, matrix, n, mapping_kind="spline",
                                  cv=cv, degrees=(2,), interior_counts=(1,))

        # --- independent pipeline ---
        zs, ys, groups_of = [], [], []
        for rec in records:
            for t in rec.group:
                others = [s for s in rec.group if s != t]
                z = float(np.mean([matrix.values[s, t] for s in others]))
                zs.append(z)
                ys.append(rec.gains[t])
                groups_of.append((rec.group, t))
        zs = np.array(zs)
        ys = np.array(ys)
        knots = ([float(zs.min())] * 3 + [float(np.quantile(zs, 0.5))]
                 + [float(zs.max())] * 3)
        Phi = np.vstack([naive_basis(z, 2, knots) for z in zs])
        w1, b1 = centered_ridge(Phi, ys, lam)
        stage1_hat = Phi @ w1 + b1
        resid = ys - stage1_hat
        res_models = {}
        for t in range(n):
            rows = [i for i, (_, tt) in enumerate(groups_of) if tt == t]
            if len(rows) < 2:
                continue
            U = np.stack([encode_group(groups_of[i][0], n) for i in rows])
            wr, br = centered_ridge(U, resid[rows], lam)
            res_models[t] = (wr, br)

        held = (0, 1, 3)
        (got,) = predict_from_matrix(predictor, [held], matrix)
        for t in held:
            others = [s for s in held if s != t]
            z = float(np.clip(np.mean([matrix.values[s, t] for s in others]),
                              zs.min(), zs.max()))
            base = float(naive_basis(z, 2, knots) @ w1 + b1)
            corr = 0.0
            if t in res_models:
                wr, br = res_models[t]
                corr = float(encode_group(held, n) @ wr + br)
            assert got[t] == pytest.approx(base + corr, abs=1e-8)


def one_group_reference(predictor, matrix, group):
    """One group's predictions as the per-group path computed them: a
    per-member np.mean of scores, one (k, m) stage-1 product, and one
    (1, n) residual product per member added as Python floats."""
    scores = mean_loop_group_affinity(matrix, group)
    zs = np.array([scores[t] for t in group])
    base = {t: float(p) for t, p in zip(group, predictor.stage1.design(zs)
                                        @ predictor.stage1.model.coefficients
                                        + predictor.stage1.model.intercept)}
    if not predictor.residual_enabled:
        return base
    u = encode_group(group, predictor.n_tasks)[None, :]
    out = {}
    for t in group:
        model = predictor.residual_models.get(t)
        correction = (float((u @ model.coefficients + model.intercept)[0])
                      if model is not None else 0.0)
        out[t] = base[t] + correction
    return out


class TestBatchedScoring:
    """Scoring many groups in one call gives each the bits it gets alone."""

    @pytest.mark.parametrize("residual", [True, False], ids=["residual", "stage1"])
    @pytest.mark.parametrize("mapping_kind", ["spline", "affine"])
    @pytest.mark.parametrize("n", [6, 10])
    def test_universe_matches_one_group(self, n, mapping_kind, residual):
        rng = np.random.default_rng(100 + n)
        universe = enumerate_candidate_groups(n)
        for trial in range(2):
            matrix = random_matrix(rng, n)
            records = random_records(rng, n, 30, matrix)
            predictor = fit_predictor(records, matrix, n, mapping_kind=mapping_kind,
                                      residual_enabled=residual, cv=CvConfig(seed=trial))
            assert bool(predictor.residual_models) == residual
            batched = predict_from_matrix(predictor, universe, matrix)
            assert len(batched) == len(universe)
            for group, got in zip(universe, batched):
                ga = group_affinity(matrix, group)
                assert got == predict(predictor, group, ga)
                assert got == one_group_reference(predictor, matrix, group)
                if not residual:
                    assert got == predict_stage1(predictor.stage1, ga)

    def test_order_and_repeats_do_not_matter(self):
        rng = np.random.default_rng(110)
        matrix = random_matrix(rng, 6)
        predictor = fit_predictor(random_records(rng, 6, 15, matrix), matrix, 6,
                                  cv=CvConfig(seed=1))
        groups = [(5, 0, 2), (1, 3), (0, 2, 5), (4, 1, 1), (0, 1, 2, 3, 4, 5), (1, 3)]
        batched = predict_from_matrix(predictor, groups, matrix)
        for group, got in zip(groups, batched):
            assert got == predict_from_matrix(predictor, [group], matrix)[0]
            assert list(got) == sorted(set(group))
        assert predict_from_matrix(predictor, [], matrix) == []

    def test_build_problem_matches_one_group(self):
        rng = np.random.default_rng(111)
        matrix = random_matrix(rng, 6)
        predictor = fit_predictor(random_records(rng, 6, 15, matrix), matrix, 6,
                                  cv=CvConfig(seed=2))
        problem = build_problem(predictor, matrix, enumerate_candidate_groups(6), budget=2)
        for group, gains in problem.candidates:
            assert gains == one_group_reference(predictor, matrix, group)

    def test_bad_group_in_batch_rejected(self):
        rng = np.random.default_rng(112)
        matrix = random_matrix(rng, 4)
        predictor = fit_predictor(random_records(rng, 4, 8, matrix), matrix, 4,
                                  cv=CvConfig(seed=3))
        with pytest.raises(ValueError, match="two or more"):
            predict_from_matrix(predictor, [(0, 1), (2, 2)], matrix)
        with pytest.raises(ValueError, match="below 4"):
            predict_from_matrix(predictor, [(0, 1), (1, 4)], matrix)
        with pytest.raises(ValueError, match="integer ids"):  # not truncated to (0, 1)
            predict_from_matrix(predictor, [(0, 1.7)], matrix)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        matrix = random_matrix(rng, 5)
        records = random_records(rng, 5, 12, matrix)
        predictor = fit_predictor(records, matrix, 5, cv=CvConfig(seed=27))
        path = tmp_path / "predictor.json"
        save(path, predictor)
        loaded = load_predictor(path)
        groups = [(0, 1), (2, 3, 4), (0, 1, 2, 3, 4)]
        assert predict_from_matrix(predictor, groups, matrix) == predict_from_matrix(
            loaded, groups, matrix)

    def test_schema_checked(self, tmp_path):
        rng = np.random.default_rng(28)
        matrix = random_matrix(rng, 4)
        records = random_records(rng, 4, 8, matrix)
        predictor = fit_predictor(records, matrix, 4, cv=CvConfig(seed=29))
        data = to_json(predictor)
        assert data["schema"] == "predictor/1"
        data["schema"] = "predictor/999"
        write_json(tmp_path / "predictor.json", data)
        with pytest.raises(ValueError, match="schema"):
            load_predictor(tmp_path / "predictor.json")

    @pytest.mark.parametrize("edit", ["rename", "widen"])
    def test_residual_task_ids_checked(self, tmp_path, edit):
        rng = np.random.default_rng(32)
        matrix = random_matrix(rng, 6)
        predictor = fit_predictor(random_records(rng, 6, 14, matrix), matrix, 6,
                                  cv=CvConfig(seed=33))
        data = to_json(predictor)
        models = data["residual_models"]
        if edit == "rename":  # a task id outside 0..5 would silently drop task 0's correction
            models["6"] = models.pop("0")
        else:
            models["0"]["coefficients"].append(0.0)
        write_json(tmp_path / "predictor.json", data)
        with pytest.raises(ValueError, match="must be a task id below 6 with 6 coefficients"):
            load_predictor(tmp_path / "predictor.json")

    @pytest.mark.parametrize("mapping_kind, residual, stage1, match", [
        ("spline", True, {"mapping_kind": "cubic"}, "mapping_kind 'cubic' is not one of"),
        ("spline", False, {"spline": None}, "spline must be null exactly when"),
        ("affine", True, {"mapping_kind": "spline"}, "spline must be null exactly when"),
    ])
    def test_inconsistent_stage1_rejected(self, tmp_path, mapping_kind, residual, stage1, match):
        rng = np.random.default_rng(30)
        matrix = random_matrix(rng, 4)
        records = random_records(rng, 4, 8, matrix)
        predictor = fit_predictor(records, matrix, 4, mapping_kind=mapping_kind,
                                  residual_enabled=residual, cv=CvConfig(seed=31))
        data = to_json(predictor)
        data["stage1"].update(stage1)
        write_json(tmp_path / "predictor.json", data)
        with pytest.raises(ValueError, match=match):
            load_predictor(tmp_path / "predictor.json")
