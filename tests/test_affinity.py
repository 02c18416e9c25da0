from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from mtlgrouping.affinity import (
    LOSS_FLOOR,
    AffinityMatrix,
    group_affinity,
    group_scores,
    load_matrix,
    matrix_to_csv,
    pairwise_affinity,
    save_matrix,
    step_affinity,
)
from mtlgrouping.artifacts import read_json, write_json
from mtlgrouping.engine import Trace, TrainConfig, train_mtl
from mtlgrouping.suite import TaskSuiteSpec, generate_suite

from helpers import mean_loop_group_affinity, random_trace, step_loop_affinity


class TestStepAffinity:
    def test_aligned_unit_gradients(self):
        g = np.array([1.0, 0.0])
        assert step_affinity(g, g, 1.0, 1.0, 0.0, np.zeros(2)) == pytest.approx(1.0, abs=0)

    def test_orthogonal_gradients(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert step_affinity(a, b, 0.7, 0.3, 0.0, np.zeros(2)) == 0.0

    def test_momentum_hand_example(self):
        z = step_affinity(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 2.0,
                          0.1, 0.9, np.array([0.5, -0.5]))
        assert z == pytest.approx(-0.025, abs=1e-12)

    def test_tiny_loss_rejected(self):
        g = np.ones(2)
        with pytest.raises(ValueError, match="floor"):
            step_affinity(g, g, 0.0, 0.1, 0.0, np.zeros(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            step_affinity(np.ones(2), np.ones(3), 1.0, 0.1, 0.0, np.zeros(2))


def trace_from_arrays(losses_per_step, grads_per_step, velocities=None):
    losses = np.array(losses_per_step, dtype=float)
    grads = np.array(grads_per_step, dtype=float)
    if velocities is None:
        velocities = np.zeros((len(losses), grads.shape[-1]))
    return Trace(tuple(range(losses.shape[1])), losses, grads,
                 np.array(velocities, dtype=float))


class TestPairwiseAffinity:
    def test_single_step_is_raw_scores(self):
        trace = trace_from_arrays(
            [[1.0, 2.0]],
            [[[1.0, 0.0], [1.0, 1.0]]],
        )
        mat = pairwise_affinity(trace, learning_rate=0.5, momentum=0.0)
        # z[i -> j] = eta * g_i . g_j / L_j
        assert mat.values[0, 1] == pytest.approx(0.5 * 1.0 / 2.0, abs=1e-15)
        assert mat.values[1, 0] == pytest.approx(0.5 * 1.0 / 1.0, abs=1e-15)
        assert np.all(mat.steps_used == 1)

    def test_zero_gradient_receiver_column_zero(self):
        trace = trace_from_arrays(
            [[1.0, 1.0], [2.0, 0.5]],
            [[[1.0, 1.0], [0.0, 0.0]], [[-1.0, 2.0], [0.0, 0.0]]],
        )
        mat = pairwise_affinity(trace, 0.1, 0.0)
        assert np.allclose(mat.values[:, 1], 0.0, atol=0)

    def test_three_step_hand_means(self):
        eta, beta = 0.2, 0.5
        losses = [[1.0, 2.0], [0.5, 1.0], [2.0, 4.0]]
        grads = [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, -1.0]],
            [[2.0, 0.0], [0.5, 0.5]],
        ]
        velocities = [[0.0, 0.0], [0.1, -0.2], [-0.3, 0.4]]
        trace = trace_from_arrays(losses, grads, velocities)
        mat = pairwise_affinity(trace, eta, beta)
        expect = np.zeros((2, 2))
        for k in range(3):
            g = np.asarray(grads[k], dtype=float)
            v = np.asarray(velocities[k], dtype=float)
            for i in range(2):
                for j in range(2):
                    upd = eta * g[i] - beta * v
                    expect[i, j] += float(g[j] @ upd) / losses[k][j] / 3.0
        assert np.max(np.abs(mat.values - expect)) < 1e-12

    def test_steps_below_floor_skipped(self):
        trace = trace_from_arrays(
            [[1.0, 1e-15], [1.0, 1.0]],
            [[[1.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]],
        )
        mat = pairwise_affinity(trace, 1.0, 0.0)
        assert mat.steps_used[0, 1] == 1
        assert mat.steps_used[0, 0] == 2
        assert mat.values[0, 1] == pytest.approx(2.0, abs=1e-15)

    def test_all_steps_skipped_names_pair(self):
        trace = trace_from_arrays(
            [[1.0, 1e-15]],
            [[[1.0, 0.0], [1.0, 0.0]]],
        )
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            pairwise_affinity(trace, 1.0, 0.0)

    def test_velocity_mode_zero_drops_momentum_term(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, n_tasks=3, dim=6, steps=4)
        with_momentum = pairwise_affinity(trace, 0.1, 0.9, velocity_mode="joint")
        zeroed = pairwise_affinity(trace, 0.1, 0.9, velocity_mode="zero")
        no_momentum = pairwise_affinity(trace, 0.1, 0.0, velocity_mode="joint")
        assert np.array_equal(zeroed.values, no_momentum.values)
        assert not np.allclose(with_momentum.values, zeroed.values)

    def test_empty_trace_rejected(self):
        empty = Trace((), np.empty((0, 0)), np.empty((0, 0, 0)), np.empty((0, 0)))
        with pytest.raises(ValueError, match="empty"):
            pairwise_affinity(empty, 0.1, 0.0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            Trace((0, 1), np.ones((3, 2)), np.ones((3, 2, 4)), np.ones((2, 4)))


class TestProperties:
    def test_linearity_of_group_mean(self):
        # with beta = 0, mean of pairwise step scores equals the score of the
        # mean gradient
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            dim = int(rng.integers(2, 30))
            g = rng.standard_normal((n, dim))
            eta = float(rng.uniform(0.01, 1.0))
            loss = float(rng.uniform(0.1, 3.0))
            t = int(rng.integers(0, n))
            others = [s for s in range(n) if s != t]
            mean_pairwise = np.mean([
                step_affinity(g[s], g[t], loss, eta, 0.0, np.zeros(dim)) for s in others
            ])
            of_mean = step_affinity(np.mean(g[others], axis=0), g[t], loss, eta, 0.0,
                                    np.zeros(dim))
            assert abs(mean_pairwise - of_mean) <= 1e-10 * max(1.0, abs(of_mean))

    def test_self_affinity_nonnegative_without_momentum(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, n_tasks=4, dim=8, steps=6)
        mat = pairwise_affinity(trace, 0.3, 0.0)
        assert np.all(np.diag(mat.values) >= 0.0)

    def test_learning_rate_scale_covariance(self):
        rng = np.random.default_rng(6)
        trace = random_trace(rng, n_tasks=3, dim=5, steps=5)
        base = pairwise_affinity(trace, 0.1, 0.0)
        scaled = pairwise_affinity(trace, 0.3, 0.0)
        assert np.allclose(scaled.values, 3.0 * base.values, rtol=1e-12, atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, n_tasks=4, dim=6, steps=5)
        perm = [2, 0, 3, 1]  # relabeled[t] = original[perm[t]]
        relabeled = replace(trace, losses=trace.losses[:, perm],
                            gradients=trace.gradients[:, perm])
        a = pairwise_affinity(trace, 0.1, 0.9)
        b = pairwise_affinity(relabeled, 0.1, 0.9)
        p = np.asarray(perm)
        assert np.allclose(b.values, a.values[np.ix_(p, p)], atol=0)


class TestGroupAffinity:
    def matrix(self):
        values = np.array([
            [0.5, 0.1, 0.2],
            [0.2, 0.6, 0.3],
            [0.4, 0.0, 0.7],
        ])
        return AffinityMatrix(values=values, steps_used=np.ones((3, 3), dtype=int))

    def test_pair_is_single_entry(self):
        ga = group_affinity(self.matrix(), (0, 1))
        assert ga.scores[1] == pytest.approx(0.1, abs=0)
        assert ga.scores[0] == pytest.approx(0.2, abs=0)

    def test_two_term_mean(self):
        values = np.zeros((3, 3))
        values[1, 0] = 0.2
        values[2, 0] = 0.4
        mat = AffinityMatrix(values=values, steps_used=np.ones((3, 3), dtype=int))
        ga = group_affinity(mat, (0, 1, 2))
        assert ga.scores[0] == pytest.approx(0.3, abs=1e-15)

    def test_full_group_matches_brute_force_over_trace(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, n_tasks=5, dim=7, steps=6)
        eta, beta = 0.2, 0.7
        mat = pairwise_affinity(trace, eta, beta)
        ga = group_affinity(mat, range(5))
        # straight-line recomputation from raw steps
        for t in range(5):
            others = [s for s in range(5) if s != t]
            per_pair = []
            for s in others:
                vals = []
                for grads, losses, velocity in zip(trace.gradients, trace.losses,
                                                   trace.velocity_in):
                    upd = eta * grads[s] - beta * velocity
                    vals.append(float(grads[t] @ upd) / losses[t])
                per_pair.append(np.mean(vals))
            assert ga.scores[t] == pytest.approx(float(np.mean(per_pair)), abs=1e-10)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError, match="two tasks"):
            group_affinity(self.matrix(), (1,))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="below"):
            group_affinity(self.matrix(), (0, 5))

    def test_diagonal_not_consumed(self):
        loud = self.matrix()
        quiet_values = loud.values.copy()
        np.fill_diagonal(quiet_values, -100.0)
        quiet = AffinityMatrix(values=quiet_values, steps_used=loud.steps_used)
        for group in ((0, 1), (0, 1, 2), (1, 2)):
            a = group_affinity(loud, group)
            b = group_affinity(quiet, group)
            assert a.scores == b.scores


def trained_trace(hidden, loss, n_tasks=4):
    spec = TaskSuiteSpec(
        n_tasks=n_tasks, input_dim=5, n_clusters=2, within_cluster_similarity=0.9,
        label_noise_std=0.1, samples_per_split=(24, 8, 16), seed=21,
        task_type="regression" if loss == "squared" else "classification")
    suite = generate_suite(spec)
    config = TrainConfig(learning_rate=0.05, momentum=0.9, epochs=6, batch_size=8,
                         hidden_dims=hidden, seed=13)
    return train_mtl(suite.tasks, suite, config, capture_trace=True).trace


class TestOnePassMatchesStepLoop:
    """The one-pass reduction equals the step-by-step loop bit for bit."""

    @staticmethod
    def assert_same(trace, eta, beta, velocity_mode):
        got = pairwise_affinity(trace, eta, beta, velocity_mode=velocity_mode)
        values, counts = step_loop_affinity(trace, eta, beta, velocity_mode)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.steps_used, counts)
        assert got.steps_used.dtype == counts.dtype

    @pytest.mark.parametrize("velocity_mode", ["joint", "zero"])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)],
                             ids=lambda h: "h" + "x".join(map(str, h)))
    def test_trained_traces(self, hidden, loss, velocity_mode):
        self.assert_same(trained_trace(hidden, loss), 0.05, 0.9, velocity_mode)

    @pytest.mark.parametrize("velocity_mode", ["joint", "zero"])
    def test_random_traces(self, velocity_mode):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            trace = random_trace(rng, n, int(rng.integers(1, 30)), int(rng.integers(1, 40)))
            eta, beta = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 0.99))
            self.assert_same(trace, eta, beta, velocity_mode)

    @pytest.mark.parametrize("velocity_mode", ["joint", "zero"])
    def test_steps_under_the_floor(self, velocity_mode):
        rng = np.random.default_rng(32)
        trace = random_trace(rng, 5, 7, 30)
        low = rng.random(trace.losses.shape) < 0.3
        trace.losses[low] = rng.choice([0.0, 1e-15, LOSS_FLOOR], size=int(low.sum()))
        assert low.any() and not low.all(axis=0).any()
        self.assert_same(trace, 0.2, 0.7, velocity_mode)
        got = pairwise_affinity(trace, 0.2, 0.7, velocity_mode=velocity_mode)
        assert np.array_equal(got.steps_used[0], 30 - low.sum(axis=0))

    def test_scores_that_underflow_keep_positive_zero(self):
        # -2.2e-162 * 2.2e-162 is the smallest negative subnormal, and a
        # quarter of it rounds to -0.0; the loop adds it onto 0.0
        trace = trace_from_arrays([[4.0, 4.0]] * 3, [[[-2.2e-162], [2.2e-162]]] * 3)
        values, _ = step_loop_affinity(trace, 1.0, 0.0)
        got = pairwise_affinity(trace, 1.0, 0.0).values
        assert got[0, 1] == 0.0 and not np.signbit(values[0, 1])
        assert np.array_equal(np.signbit(got), np.signbit(values))


class TestGroupScores:
    """Stacked group scores equal the per-member ``np.mean`` loop bit for bit."""

    @pytest.mark.parametrize("n", [6, 10])
    def test_universe_matches_mean_loop(self, n):
        rng = np.random.default_rng(40 + n)
        matrix = AffinityMatrix(values=rng.normal(scale=0.3, size=(n, n)),
                                steps_used=np.ones((n, n), dtype=int))
        for k in range(2, n + 1):
            groups = list(combinations(range(n), k))
            stacked = group_scores(matrix, np.array(groups))
            assert stacked.shape == (len(groups), k)
            for group, row in zip(groups, stacked.tolist()):
                want = mean_loop_group_affinity(matrix, group)
                assert dict(zip(group, row)) == want
                assert group_affinity(matrix, group).scores == want


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        mat = pairwise_affinity(random_trace(rng, 3, 4, 5), 0.1, 0.5)
        path = tmp_path / "affinity.json"
        save_matrix(mat, path)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.values, mat.values)
        assert np.array_equal(loaded.steps_used, mat.steps_used)

    def test_dict_schema(self, tmp_path):
        mat = AffinityMatrix(values=np.eye(2), steps_used=np.ones((2, 2), dtype=int))
        save_matrix(mat, tmp_path / "affinity.json")
        data = read_json(tmp_path / "affinity.json")
        assert data["schema"] == "affinity/1"
        assert data["n"] == 2
        assert load_matrix(tmp_path / "affinity.json").n == 2

    @pytest.mark.parametrize("key, value, match", [
        ("n", 2.0, "key 'n' must be int, got 2.0"),
        ("values", ["1.0", 0.0, 0.0, 1.0], "key 'values' must be a list of numbers"),
        ("steps_used", [240, 240.5, 240, 240], "key 'steps_used' must be int, got 240.5"),
        ("values", [1.0, 0.0, 1.0], r"must hold n \* n = 4 entries"),
    ])
    def test_wrong_type_rejected(self, tmp_path, key, value, match):
        mat = AffinityMatrix(values=np.eye(2), steps_used=np.full((2, 2), 240))
        save_matrix(mat, tmp_path / "affinity.json")
        data = read_json(tmp_path / "affinity.json")
        data[key] = value
        write_json(tmp_path / "affinity.json", data)
        with pytest.raises(ValueError, match=match):
            load_matrix(tmp_path / "affinity.json")

    def test_csv_header_row(self, tmp_path):
        mat = AffinityMatrix(values=np.eye(3), steps_used=np.ones((3, 3), dtype=int))
        path = tmp_path / "affinity.csv"
        matrix_to_csv(mat, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",0,1,2"
        assert len(lines) == 4
