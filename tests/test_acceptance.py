"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The signal criteria (08-10) train many small models and dominate
the runtime; everything stays within the stated per-criterion budgets.
"""

import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from mtlgrouping import affinity as aff
from mtlgrouping import ensemble as ens
from mtlgrouping import metrics as met
from mtlgrouping import ridge
from mtlgrouping.engine import (
    Architecture,
    ModelParams,
    forward_loss,
    init_params,
    sgd_momentum_step,
    shared_gradient,
    train_mtl,
)
from mtlgrouping.experiment import (
    _run_train_config,
    compare_ablations,
    reference_config,
    run_dirs,
    run_experiment,
)
from mtlgrouping.gains import StlCache, measure_gains_batch, relative_gain
from mtlgrouping.ridge import CvConfig
from mtlgrouping.seeding import stream
from mtlgrouping.selector import select_branch_and_bound, select_exhaustive
from mtlgrouping.splines import SplineSpec, basis_expand
from mtlgrouping.suite import generate_suite

from helpers import naive_basis, random_trace
from test_ensemble import random_matrix, random_records
from test_experiment import all_artifacts, tiny_config
from test_selector import random_problem


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion:02d}: {detail}", flush=True)
    assert ok, detail


def test_01_gradient_matches_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(901)
    shapes = [(), (3,), (4,), (5, 3), (4, 4, 2), (2,)]
    h = 1e-5
    worst = 0.0
    for case in range(100):
        hidden = shapes[case % len(shapes)]
        loss = "logistic" if case % 5 == 4 else "squared"
        input_dim = int(rng.integers(1, 7))
        arch = Architecture(input_dim=input_dim, hidden_dims=hidden, loss=loss)
        params = init_params(arch, int(rng.integers(1 << 30)), tasks=(0,))
        params.shared = rng.standard_normal(arch.shared_size)
        params.heads[0] = rng.standard_normal(arch.head_size)
        n = int(rng.integers(1, 9))
        X = rng.standard_normal((n, input_dim))
        y = (rng.uniform(size=n) > 0.5).astype(float) if loss == "logistic" \
            else rng.standard_normal(n)
        g = shared_gradient(params, 0, (X, y))
        for i in range(arch.shared_size):
            up, down = params.copy(), params.copy()
            up.shared[i] += h
            down.shared[i] -= h
            fd = (forward_loss(up, 0, (X, y)) - forward_loss(down, 0, (X, y))) / (2 * h)
            if abs(g[i]) > 1e-8:
                worst = max(worst, abs(fd - g[i]) / abs(g[i]))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report(1, ok, f"100 gradient checks, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_02_update_and_affinity_arithmetic_exact():
    errs = []
    theta, v = sgd_momentum_step(np.zeros(2), np.zeros(2), np.array([1.0, -2.0]), 0.1, 0.0)
    errs.append(np.max(np.abs(theta - [-0.1, 0.2])))
    errs.append(np.max(np.abs(v - [-0.1, 0.2])))
    theta, v = sgd_momentum_step(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                                 np.zeros(2), 0.1, 0.9)
    errs.append(np.max(np.abs(theta - [1.9, 2.9])))
    _, v = sgd_momentum_step(np.zeros(2), np.array([0.5, -0.5]), np.array([1.0, 2.0]),
                             0.1, 0.9)
    errs.append(np.max(np.abs(v - [0.35, -0.65])))

    arch = Architecture(input_dim=1)
    params = ModelParams(arch=arch, shared=np.zeros(0), heads={0: np.array([1.0, 0.0])})
    errs.append(abs(forward_loss(params, 0, ([[2.0]], [0.0])) - 4.0))

    arch = Architecture(input_dim=1, hidden_dims=(1,))
    w, b, a, c = 0.7, -0.2, 1.3, 0.4
    params = ModelParams(arch=arch, shared=np.array([w, b]), heads={0: np.array([a, c])})
    x, y = 1.5, 2.0
    t = np.tanh(w * x + b)
    hand = np.array([2 * (a * t + c - y) * a * (1 - t ** 2) * x,
                     2 * (a * t + c - y) * a * (1 - t ** 2)])
    errs.append(np.max(np.abs(shared_gradient(params, 0, ([[x]], [y])) - hand)))

    g = np.array([1.0, 0.0])
    errs.append(abs(aff.step_affinity(g, g, 1.0, 1.0, 0.0, np.zeros(2)) - 1.0))
    errs.append(abs(aff.step_affinity(g, np.array([0.0, 1.0]), 1.0, 1.0, 0.0, np.zeros(2))))
    z = aff.step_affinity(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 2.0,
                          0.1, 0.9, np.array([0.5, -0.5]))
    errs.append(abs(z - (-0.025)))

    values = np.zeros((3, 3))
    values[1, 0], values[2, 0] = 0.2, 0.4
    mat = aff.AffinityMatrix(values=values, steps_used=np.ones((3, 3), dtype=int))
    errs.append(abs(aff.group_affinity(mat, (0, 1, 2)).scores[0] - 0.3))

    errs.append(abs(relative_gain(2.0, 1.5) - 0.25))
    worst = max(errs)
    report(2, worst <= 1e-12, f"hand-derived update/affinity examples, worst error {worst:.2e}")


def test_03_linearity_equivalence_without_momentum():
    t0 = time.monotonic()
    rng = np.random.default_rng(903)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 40))
        trace = random_trace(rng, n, dim, int(rng.integers(2, 8)))
        eta = float(rng.uniform(0.01, 1.0))
        for st in trace:
            for t in range(n):
                others = [s for s in range(n) if s != t]
                mean_pair = np.mean([
                    aff.step_affinity(st.gradients[s], st.gradients[t], st.losses[t],
                                      eta, 0.0, np.zeros(dim))
                    for s in others
                ])
                of_mean = aff.step_affinity(
                    np.mean([st.gradients[s] for s in others], axis=0),
                    st.gradients[t], st.losses[t], eta, 0.0, np.zeros(dim))
                worst = max(worst, abs(mean_pair - of_mean) / max(1e-30, abs(of_mean)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(3, ok, f"50 traces, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_04_spline_basis_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(904)
    checked = 0
    worst_unity = 0.0
    worst_recursion = 0.0
    support_ok = True
    nonneg_ok = True
    while checked < 10_000:
        d = int(rng.integers(1, 7))
        n_interior = int(rng.integers(0, 6))
        interior = np.unique(np.round(rng.uniform(0.05, 0.95, size=n_interior), 3))
        knots = tuple([0.0] * (d + 1) + list(interior) + [1.0] * (d + 1))
        spec = SplineSpec(degree=d, knots=knots)
        for z in rng.uniform(-0.2, 1.2, size=50):
            vals = basis_expand(z, spec)
            worst_unity = max(worst_unity, abs(vals.sum() - 1.0))
            nonneg_ok = nonneg_ok and bool(np.all(vals >= 0.0))
            support_ok = support_ok and int(np.count_nonzero(vals)) <= d + 1
            zc = min(max(float(z), 0.0), 1.0)
            worst_recursion = max(
                worst_recursion, float(np.max(np.abs(vals - naive_basis(zc, d, knots)))))
            checked += 1
    elapsed = time.monotonic() - t0
    ok = (worst_unity < 1e-9 and nonneg_ok and support_ok
          and worst_recursion < 1e-12 and elapsed < 10.0)
    report(4, ok, f"{checked} basis evaluations: unity gap {worst_unity:.2e}, "
                  f"recursion gap {worst_recursion:.2e}, {elapsed:.1f}s")


def test_05_ridge_normal_equations_shrinkage_and_loo():
    rng = np.random.default_rng(905)
    worst_resid = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 25))
        p = int(rng.integers(1, 7))
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 5.0)
        y = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        lam = float(rng.uniform(1e-4, 3.0))
        model = ridge.fit(X, y, lam)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        resid = (Xc.T @ Xc + lam * np.eye(p)) @ model.coefficients - Xc.T @ yc
        scale = 1.0 + float(np.max(np.abs(Xc.T @ yc)))
        worst_resid = max(worst_resid, float(np.max(np.abs(resid))) / scale)

    shrink_ok = True
    for _ in range(50):
        X = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        norms = [float(np.linalg.norm(ridge.fit(X, y, lam).coefficients))
                 for lam in (0.001, 0.01, 0.1, 1.0, 10.0)]
        shrink_ok = shrink_ok and all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    loo_ok = True
    for trial in range(20):
        n = int(rng.integers(4, 9))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        cv = CvConfig(lambda_grid=(0.01, 0.3), folds=n, seed=trial)
        _, _, cv_mse = ridge.fit_cv(X, y, cv)
        order = stream(trial, 41).permutation(n)
        for lam in (0.01, 0.3):
            fold_mses = []
            for fold in np.array_split(order, n):
                mask = np.ones(n, dtype=bool)
                mask[fold] = False
                m = ridge.fit(X[mask], y[mask], lam)
                err = ridge.predict(m, X[fold]) - y[fold]
                fold_mses.append(float(np.mean(err ** 2)))
            loo_ok = loo_ok and cv_mse[lam] == float(np.mean(fold_mses))

    ok = worst_resid < 1e-8 and shrink_ok and loo_ok
    report(5, ok, f"1000 fits, worst scaled residual {worst_resid:.2e}, "
                  f"shrinkage {'ok' if shrink_ok else 'violated'}, "
                  f"LOO {'exact' if loo_ok else 'mismatch'}")


def test_06_selector_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(906)
    agree = 0
    for _ in range(200):
        prob = random_problem(rng, n_max=8, cand_max=60, budget_max=4)
        a = select_exhaustive(prob)
        b = select_branch_and_bound(prob)
        if a.objective == b.objective and a.chosen == b.chosen:
            agree += 1
    elapsed = time.monotonic() - t0
    ok = agree == 200 and elapsed < 60.0
    report(6, ok, f"{agree}/200 random instances agree exactly, {elapsed:.1f}s")


def test_07_ablation_identity_bitwise():
    rng = np.random.default_rng(907)
    identical = 0
    for trial in range(20):
        n = int(rng.integers(5, 8))
        matrix = random_matrix(rng, n)
        records = random_records(rng, n, int(rng.integers(8, 16)), matrix)
        predictor = ens.fit_predictor(
            records, matrix, n,
            mapping_kind="affine" if trial % 2 else "spline",
            residual_enabled=False, cv=CvConfig(seed=trial))
        groups = [rec.group for rec in records[:3]] + [tuple(range(n))]
        if all(
            ens.predict(predictor, g, aff.group_affinity(matrix, g))
            == ens.predict_stage1(predictor.stage1, aff.group_affinity(matrix, g))
            for g in groups
        ):
            identical += 1
    report(7, identical == 20,
           f"{identical}/20 predictors reproduce stage-1 outputs bit-for-bit")


REFERENCE_SEEDS_PAIRWISE = tuple(range(10))


def test_08_pairwise_affinity_signal():
    t0 = time.monotonic()
    cfg = reference_config()
    suite = generate_suite(cfg.suite)
    per_seed = []
    for seed in REFERENCE_SEEDS_PAIRWISE:
        tc = _run_train_config(cfg, seed)
        model = train_mtl(suite.tasks, suite, tc, capture_trace=True)
        mat = aff.pairwise_affinity(model.trace, tc.learning_rate, tc.momentum,
                                    velocity_mode=cfg.velocity_mode)
        pairs = list(combinations(range(cfg.suite.n_tasks), 2))
        out = measure_gains_batch(pairs, suite, tc, cache=StlCache(suite))
        zs, ys = [], []
        for rec in out:
            i, j = rec.group
            zs += [mat.values[i, j], mat.values[j, i]]
            ys += [rec.gains[j], rec.gains[i]]
        per_seed.append(met.pearson(zs, ys))
    mean_corr = float(np.mean(per_seed))
    elapsed = time.monotonic() - t0
    ok = mean_corr >= 0.3 and elapsed < 600.0
    report(8, ok, f"pairwise affinity-gain correlation {mean_corr:.3f} "
                  f"(per-seed min {min(per_seed):.3f}) over 10 seeds, {elapsed:.0f}s")


def test_09_ensemble_beats_affine_baseline(tmp_path):
    t0 = time.monotonic()
    cfg = reference_config(output_dir=str(tmp_path / "ablate"), seeds=tuple(range(10)))
    assert cfg.n_train_groups == 10
    table = compare_ablations(cfg)
    full = table["cells"]["spline+residual"]
    base = table["cells"]["affine"]
    wins = sum(f > b for f, b in zip(full["r2"]["values"], base["r2"]["values"]))
    mean_pearson = full["pearson"]["mean"]
    elapsed = time.monotonic() - t0
    ok = wins >= 7 and mean_pearson >= 0.4 and elapsed < 1200.0
    report(9, ok, f"full ensemble beats affine baseline in {wins}/10 seeds "
                  f"(R2 {full['r2']['mean']:.3f} vs {base['r2']['mean']:.3f}), "
                  f"held-out pearson {mean_pearson:.3f}, {elapsed:.0f}s")


def test_10_end_to_end_grouping_sandwich(tmp_path):
    t0 = time.monotonic()
    cfg = reference_config(output_dir=str(tmp_path / "endtoend"), seeds=tuple(range(6)))
    assert cfg.budgets == (2,)
    rep = run_experiment(cfg)
    r = rep["realized"]["2"]
    selected, naive, optimal = r["selected"], r["naive"], r["optimal"]
    sandwich = all(s >= o - 1e-9 for s, o in zip(selected["values"], optimal["values"]))
    elapsed = time.monotonic() - t0
    ok = selected["mean"] <= naive["mean"] and sandwich and elapsed < 1800.0
    report(10, ok, f"realized loss selected {selected['mean']:.2f} <= naive {naive['mean']:.2f}, "
                   f">= optimal {optimal['mean']:.2f} per seed, {elapsed:.0f}s")


def test_11_experiment_rerun_byte_identical(tmp_path):
    cfg1 = tiny_config(tmp_path / "a", seeds=(0, 1))
    cfg2 = tiny_config(tmp_path / "b", seeds=(0, 1))
    run_experiment(cfg1)
    run_experiment(cfg2)
    out1, out2 = Path(tmp_path / "a"), Path(tmp_path / "b")
    files1, files2 = all_artifacts(out1), all_artifacts(out2)
    same_names = [str(f) for f in files1] == [str(f) for f in files2]
    diffs = [
        str(rel) for rel in files1
        if rel.name != "config.json"  # embeds the differing output path
        and (out1 / rel).read_bytes() != (out2 / rel).read_bytes()
    ]
    n_checked = len(files1) - sum(1 for f in files1 if f.name == "config.json")
    ok = same_names and not diffs
    report(11, ok, f"{n_checked} artifact files byte-identical across reruns"
                   + (f"; diffs: {diffs[:3]}" if diffs else ""))
