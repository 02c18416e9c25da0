import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mtlgrouping.engine import (
    _BATCHES,
    Architecture,
    ModelParams,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    _loss_and_grads,
    forward_loss,
    init_params,
    load_trace,
    save_trace,
    sgd_momentum_step,
    shared_gradient,
    train_groups,
    train_mtl,
    train_stl,
)
from mtlgrouping.experiment import reference_config
from mtlgrouping.seeding import stream
from mtlgrouping.selector import enumerate_candidate_groups
from mtlgrouping.suite import TaskDataset, TaskSuiteSpec, generate_suite

from helpers import mlp_forward_by_hand, per_step_trace_text, random_trace


def linear_dataset(w, n=24, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    w = np.asarray(w, dtype=float)
    X = rng.standard_normal((n, w.size))
    y = X @ w + noise * rng.standard_normal(n)
    split = np.array(["train"] * (n - 8) + ["val"] * 4 + ["test"] * 4, dtype="<U5")
    return TaskDataset(features=X, targets=y, split=split)


def random_params(arch, seed):
    rng = np.random.default_rng(seed)
    params = init_params(arch, seed, tasks=(0,))
    params.shared = rng.standard_normal(arch.shared_size)
    params.heads[0] = rng.standard_normal(arch.head_size)
    return params


class TestForwardLoss:
    def test_zero_weight_zero_targets(self):
        arch = Architecture(input_dim=3)
        params = ModelParams(arch=arch, shared=np.zeros(0), heads={0: np.zeros(4)})
        X = np.ones((5, 3))
        assert forward_loss(params, 0, (X, np.zeros(5))) == 0.0

    def test_linear_single_sample(self):
        arch = Architecture(input_dim=1)
        params = ModelParams(arch=arch, shared=np.zeros(0),
                             heads={0: np.array([1.0, 0.0])})
        assert forward_loss(params, 0, ([[2.0]], [0.0])) == pytest.approx(4.0, abs=0)

    def test_matches_straight_line_forward(self):
        rng = np.random.default_rng(11)
        for hidden in ((4,), (5, 3), (3, 3, 2)):
            arch = Architecture(input_dim=4, hidden_dims=hidden)
            params = random_params(arch, 5)
            X = rng.standard_normal((6, 4))
            y = rng.standard_normal(6)
            layers = [(w.tolist(), b.tolist()) for w, b in arch.unpack_shared(params.shared)]
            want = np.mean((mlp_forward_by_hand(layers, params.heads[0].tolist(), X) - y) ** 2)
            assert forward_loss(params, 0, (X, y)) == pytest.approx(want, abs=1e-12)

    def test_logistic_loss_nonnegative(self):
        arch = Architecture(input_dim=2, hidden_dims=(3,), loss="logistic")
        params = random_params(arch, 1)
        X = np.random.default_rng(2).standard_normal((8, 2))
        y = (np.random.default_rng(3).uniform(size=8) > 0.5).astype(float)
        assert forward_loss(params, 0, (X, y)) >= 0.0

    def test_dimension_mismatch(self):
        arch = Architecture(input_dim=3)
        params = ModelParams(arch=arch, shared=np.zeros(0), heads={0: np.zeros(4)})
        with pytest.raises(ValueError, match="shape"):
            forward_loss(params, 0, (np.ones((2, 5)), np.zeros(2)))


class TestSharedGradient:
    def test_two_parameter_hand_derivative(self):
        # encoder 1 -> 1 (weight w, bias b), head (a, c):
        # yhat = a * tanh(w x + b) + c, squared error on one sample
        arch = Architecture(input_dim=1, hidden_dims=(1,))
        w, b, a, c = 0.7, -0.2, 1.3, 0.4
        params = ModelParams(arch=arch, shared=np.array([w, b]),
                             heads={0: np.array([a, c])})
        x, y = 1.5, 2.0
        t = np.tanh(w * x + b)
        yhat = a * t + c
        dw = 2.0 * (yhat - y) * a * (1.0 - t ** 2) * x
        db = 2.0 * (yhat - y) * a * (1.0 - t ** 2)
        got = shared_gradient(params, 0, ([[x]], [y]))
        assert got == pytest.approx([dw, db], abs=1e-12)

    def test_dead_parameter_zero_entry(self):
        # second encoder unit feeds a zero head weight, so its parameters are dead
        arch = Architecture(input_dim=2, hidden_dims=(2,))
        shared = np.array([0.5, -0.3, 0.2, 0.8, 0.1, -0.1])  # w(2x2) then b(2)
        head = np.array([1.0, 0.0, 0.0])  # unit 1 ignored
        params = ModelParams(arch=arch, shared=shared, heads={0: head})
        g = shared_gradient(params, 0, ([[1.0, 2.0], [0.5, -1.0]], [0.3, -0.2]))
        layers_g = arch.unpack_shared(g)
        assert np.allclose(layers_g[0][0][1], 0.0, atol=0)  # dW row of unit 1
        assert layers_g[0][1][1] == 0.0  # db of unit 1

    @pytest.mark.parametrize("hidden,loss", [((), "squared"),
                                             ((4,), "squared"),
                                             ((5, 3), "squared"),
                                             ((3,), "logistic")])
    def test_finite_differences(self, hidden, loss):
        rng = np.random.default_rng(hash((hidden, loss)) % (2 ** 32))
        arch = Architecture(input_dim=3, hidden_dims=hidden, loss=loss)
        params = random_params(arch, 9)
        X = rng.standard_normal((7, 3))
        y = (rng.uniform(size=7) > 0.5).astype(float) if loss == "logistic" \
            else rng.standard_normal(7)
        g = shared_gradient(params, 0, (X, y))
        h = 1e-5
        for i in range(arch.shared_size):
            up, down = params.copy(), params.copy()
            up.shared[i] += h
            down.shared[i] -= h
            fd = (forward_loss(up, 0, (X, y)) - forward_loss(down, 0, (X, y))) / (2 * h)
            if abs(g[i]) > 1e-8:
                assert abs(fd - g[i]) / abs(g[i]) < 1e-5
            else:
                assert abs(fd - g[i]) < 1e-7


class TestTrainConfig:
    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="^learning_rate must be > 0 and finite$"):
            TrainConfig(learning_rate=rate, momentum=0.9, epochs=1, batch_size=1,
                        hidden_dims=())


class TestSgdMomentumStep:
    def test_plain_sgd(self):
        theta, v = sgd_momentum_step(np.zeros(2), np.zeros(2), np.array([1.0, -2.0]), 0.1, 0.0)
        assert np.allclose(theta, [-0.1, 0.2], atol=1e-15)
        assert np.allclose(v, [-0.1, 0.2], atol=1e-15)

    def test_pure_momentum_coast(self):
        theta0 = np.array([1.0, 2.0])
        theta, v = sgd_momentum_step(theta0, np.array([1.0, 1.0]), np.zeros(2), 0.1, 0.9)
        assert np.allclose(theta - theta0, [0.9, 0.9], atol=1e-15)
        assert np.allclose(v, [0.9, 0.9], atol=1e-15)

    def test_velocity_recurrence_arithmetic(self):
        _, v = sgd_momentum_step(np.zeros(2), np.array([0.5, -0.5]),
                                 np.array([1.0, 2.0]), 0.1, 0.9)
        assert v == pytest.approx([0.35, -0.65], abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.0)


class TestTrainStl:
    def test_convex_full_batch_monotone(self):
        # identity encoder leaves a quadratic in the head parameters
        ds = linear_dataset([1.0, -2.0], n=28, seed=3)
        X, y = ds.rows("train")
        ext = np.column_stack([X, np.ones(len(y))])
        lam_max = float(np.linalg.eigvalsh(2.0 * ext.T @ ext / len(y)).max())
        config = TrainConfig(learning_rate=1.0 / lam_max, momentum=0.0, epochs=30,
                             batch_size=1000, hidden_dims=(), seed=4)
        model = train_mtl((0,), {0: ds}, config, capture_trace=True)
        losses = model.trace.losses[:, 0].tolist()
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_deterministic(self):
        ds = linear_dataset([0.5, 0.5, -1.0], seed=5)
        config = TrainConfig(learning_rate=0.05, momentum=0.9, epochs=5,
                             batch_size=4, hidden_dims=(3,), seed=6)
        a = train_mtl((0,), {0: ds}, config, capture_trace=True)
        b = train_mtl((0,), {0: ds}, config, capture_trace=True)
        assert a.losses == b.losses
        assert np.array_equal(a.params.shared, b.params.shared)
        assert np.array_equal(a.trace.losses, b.trace.losses)
        assert np.array_equal(a.trace.gradients, b.trace.gradients)
        assert np.array_equal(a.trace.velocity_in, b.trace.velocity_in)

    def test_noiseless_linear_task_reaches_optimum(self):
        ds = linear_dataset([1.5, -0.5], n=40, seed=7, noise=0.0)
        config = TrainConfig(learning_rate=0.1, momentum=0.0, epochs=300,
                             batch_size=1000, hidden_dims=(), seed=8)
        model = train_stl(0, ds, config)
        assert model.losses["train"][0] < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step(self):
        ds = linear_dataset([1.0, 1.0], n=16, seed=9)
        config = TrainConfig(learning_rate=100.0, momentum=0.9, epochs=200,
                             batch_size=1000, hidden_dims=(), seed=10)
        with pytest.raises(TrainingDiverged) as err:
            train_stl(0, ds, config)
        assert err.value.step >= 0

    def test_divergence_survives_pickle(self):
        # a stage's worker process hands its error to the parent pickled
        err = pickle.loads(pickle.dumps(TrainingDiverged(3, 1)))
        assert type(err) is TrainingDiverged
        assert (str(err), err.step, err.task) == ("non-finite loss for task 1 at step 3", 3, 1)


def replay_cases(test):
    """Every loss, encoder depth and group size of the replay tests."""
    test = pytest.mark.parametrize("loss", ["squared", "logistic"])(test)
    test = pytest.mark.parametrize("hidden", [(), (1,), (4,), (5, 3)],
                                   ids=lambda h: "h" + "x".join(map(str, h)))(test)
    return pytest.mark.parametrize("size", [1, 2, 3, 4], ids=lambda k: f"g{k}")(test)


class TestTrainMtl:
    def setup_method(self):
        self.spec = TaskSuiteSpec(
            n_tasks=4, input_dim=5, n_clusters=2, within_cluster_similarity=0.9,
            label_noise_std=0.1, samples_per_split=(24, 8, 16), seed=21)
        self.suite = generate_suite(self.spec)
        self.config = TrainConfig(learning_rate=0.05, momentum=0.9, epochs=6,
                                  batch_size=8, hidden_dims=(4,), seed=13)

    def test_singleton_group_equals_stl(self):
        stl = train_stl(2, self.suite[2], self.config)
        mtl = train_mtl((2,), self.suite, self.config)
        assert stl.losses == mtl.losses
        assert np.array_equal(stl.params.shared, mtl.params.shared)
        assert np.array_equal(stl.params.heads[2], mtl.params.heads[2])

    def test_trace_velocity_recurrence(self):
        model = train_mtl((0, 1, 2), self.suite, self.config, capture_trace=True)
        eta, beta = self.config.learning_rate, self.config.momentum
        trace = model.trace
        for k in range(1, len(trace.losses)):
            mean_grad = np.mean(trace.gradients[k - 1], axis=0)
            v_expect = beta * trace.velocity_in[k - 1] - eta * mean_grad
            assert np.array_equal(v_expect, trace.velocity_in[k])

    def replay(self, group, datasets, config):
        """Per-task reference loop: ``_loss_and_grads`` task by task, then
        ``sgd_momentum_step`` on the mean shared gradient and on each head."""
        first = datasets[group[0]]
        loss = "squared" if first.task_type == "regression" else "logistic"
        arch = Architecture(input_dim=first.input_dim, hidden_dims=config.hidden_dims, loss=loss)
        params = init_params(arch, config.seed, group)
        v_shared = np.zeros(arch.shared_size)
        v_heads = {t: np.zeros(arch.head_size) for t in group}
        eta, beta = config.learning_rate, config.momentum
        rng = stream(config.seed, _BATCHES)
        n_train = first.rows("train")[1].size
        steps = []
        for _ in range(config.epochs):
            order = rng.permutation(n_train)
            for start in range(0, n_train, config.batch_size):
                rows = order[start: start + config.batch_size]
                out = {}
                for t in group:
                    X, y = datasets[t].rows("train")
                    out[t] = _loss_and_grads(params, t, (X[rows], y[rows]))
                    if not np.isfinite(out[t][0]):
                        raise TrainingDiverged(len(steps), t)
                steps.append((out, v_shared.copy()))
                mean_grad = np.mean(np.stack([out[t][1] for t in group]), axis=0)
                params.shared, v_shared = sgd_momentum_step(
                    params.shared, v_shared, mean_grad, eta, beta)
                for t in group:
                    params.heads[t], v_heads[t] = sgd_momentum_step(
                        params.heads[t], v_heads[t], out[t][2], eta, beta)
        return params, steps

    def assert_replays(self, group, suite, config):
        model = train_mtl(group, suite, config, capture_trace=True)
        params, steps = self.replay(group, suite, config)
        trace = model.trace
        assert trace.tasks == group
        assert len(trace.losses) == len(steps)
        for k, (out, velocity_in) in enumerate(steps):
            assert np.array_equal(trace.velocity_in[k], velocity_in)
            assert trace.losses[k].tolist() == [out[t][0] for t in group]
            for j, t in enumerate(group):
                assert np.array_equal(trace.gradients[k, j], out[t][1])
        assert np.array_equal(model.params.shared, params.shared)
        for t in group:
            assert np.array_equal(model.params.heads[t], params.heads[t])

    def check_replay(self, loss, hidden, size, batch_size):
        task_type = "regression" if loss == "squared" else "classification"
        suite = generate_suite(replace(self.spec, task_type=task_type))
        config = replace(self.config, hidden_dims=hidden, batch_size=batch_size)
        group = {1: (2,), 2: (0, 1), 3: (1, 2, 3), 4: (0, 1, 2, 3)}[size]
        self.assert_replays(group, suite, config)

    @replay_cases
    def test_update_identity_replay(self, loss, hidden, size):
        self.check_replay(loss, hidden, size, self.config.batch_size)

    # n_train = 24: batches of 5 leave a ragged last batch of 4, 32 is one
    # batch; the batch size of 8 is test_update_identity_replay
    @pytest.mark.parametrize("batch_size", [1, 5, 32], ids=lambda b: f"b{b}")
    @replay_cases
    def test_update_identity_replay_batch_shapes(self, loss, hidden, size, batch_size):
        self.check_replay(loss, hidden, size, batch_size)

    @pytest.mark.parametrize("task_type", ["regression", "classification"])
    def test_update_identity_replay_reference_shapes(self, task_type):
        # the shapes the reference experiment trains: all six tasks, one
        # hidden unit, 64 train rows in four full batches of 16
        ref = reference_config(seeds=(0,))
        suite = generate_suite(replace(ref.suite, task_type=task_type))
        config = replace(ref.train, epochs=3)
        assert (suite.n_tasks, config.hidden_dims, config.batch_size,
                ref.suite.samples_per_split[0]) == (6, (1,), 16, 64)
        self.assert_replays(suite.tasks, suite, config)

    def check_divergence(self, suite, config, capture_trace=False):
        """train_mtl raises TrainingDiverged at the replay's (step, task)."""
        group = (0, 1, 2, 3)
        with pytest.raises(TrainingDiverged) as want:
            self.replay(group, suite, config)
        with pytest.raises(TrainingDiverged) as got:
            train_mtl(group, suite, config, capture_trace=capture_trace)
        assert (got.value.step, got.value.task) == (want.value.step, want.value.task)
        return want.value

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_matches_replay(self):
        config = replace(self.config, learning_rate=20.0, epochs=40)
        want = self.check_divergence(self.suite, config)
        assert want.task != 0  # not simply the first task checked

    # Where in its epoch each case first diverges: "mid" leaves later steps of
    # the epoch to run before the per-epoch check, "ragged" is the last batch
    # of 4 rows at batch size 5, "last" the last full batch. Logistic
    # gradients are bounded and the tanh units saturate, so that loss only
    # overflows at a learning rate near the float64 range.
    DIVERGES_AT = {("squared", 1): "mid", ("squared", 5): "ragged", ("squared", 8): "mid",
                   ("logistic", 1): "mid", ("logistic", 5): "ragged", ("logistic", 8): "last"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("capture_trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("batch_size", [1, 5, 8], ids=lambda b: f"b{b}")
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_divergence_matches_replay_batch_shapes(self, loss, batch_size, capture_trace):
        task_type = "regression" if loss == "squared" else "classification"
        suite = generate_suite(replace(self.spec, task_type=task_type))
        learning_rate = {"squared": 5.0, "logistic": 1e307}[loss]
        config = replace(self.config, learning_rate=learning_rate, epochs=40,
                         batch_size=batch_size)
        want = self.check_divergence(suite, config, capture_trace)
        n_train = self.spec.samples_per_split[0]
        steps_per_epoch = -(-n_train // batch_size)
        if want.step % steps_per_epoch < steps_per_epoch - 1:
            where = "mid"
        else:
            where = "ragged" if n_train % batch_size else "last"
        assert where == self.DIVERGES_AT[loss, batch_size]

    # one train_groups call: sizes 1-4 in mixed input order, two groups of
    # each size, unsorted groups, and a group that cannot train, which fails
    # in its place
    STACKED = [(1, 2, 3), (2,), (0, 1), (0, 1, 2, 3), (3, 1), (0, 7), (1,), (0, 2, 3),
               (3, 2, 1, 0)]

    @pytest.mark.parametrize("batch_size", [1, 5, 8, 32], ids=lambda b: f"b{b}")
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)],
                             ids=lambda h: "h" + "x".join(map(str, h)))
    def test_train_groups_equals_train_mtl(self, hidden, loss, batch_size):
        task_type = "regression" if loss == "squared" else "classification"
        suite = generate_suite(replace(self.spec, task_type=task_type))
        config = replace(self.config, hidden_dims=hidden, batch_size=batch_size)
        outcomes = train_groups(self.STACKED, suite, config)
        assert len(outcomes) == len(self.STACKED)
        for group, got in zip(self.STACKED, outcomes):
            if 7 in group:
                assert isinstance(got, ValueError)
                with pytest.raises(ValueError, match=f"^{re.escape(str(got))}$"):
                    train_mtl(group, suite, config)
                continue
            want = train_mtl(group, suite, config)
            assert (got.group, got.trace) == (want.group, None)
            assert got.losses == want.losses
            assert np.array_equal(got.params.shared, want.params.shared)
            assert got.params.heads.keys() == want.params.heads.keys()
            for t in want.group:
                assert np.array_equal(got.params.heads[t], want.params.heads[t])

    @pytest.mark.parametrize("batch_size", [1, 5, 8, 32], ids=lambda b: f"b{b}")
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("hidden", [(), (1,), (4,), (5, 3)],
                             ids=lambda h: "h" + "x".join(map(str, h)))
    def test_scored_losses_equal_forward_loss(self, hidden, loss, batch_size):
        # every split loss of a finished model is forward_loss on that task
        # and split, bit for bit: lone groups from train_mtl, stacked ones
        # from train_groups
        task_type = "regression" if loss == "squared" else "classification"
        suite = generate_suite(replace(self.spec, task_type=task_type))
        config = replace(self.config, hidden_dims=hidden, batch_size=batch_size)
        lone = [train_mtl(group, suite, config) for group in [(2,), (0, 1), (0, 1, 2, 3)]]
        stacked = train_groups([g for g in self.STACKED if 7 not in g], suite, config)
        for model in lone + stacked:
            assert sorted(model.losses) == ["test", "train", "val"]
            for split, losses in model.losses.items():
                assert list(losses) == list(model.group)
                for t, value in losses.items():
                    assert value == forward_loss(model.params, t, suite[t].rows(split))

    def test_unequal_split_sizes_rejected(self):
        # task 1 loses three test rows; train and val keep their sizes
        ds = self.suite[1]
        keep = np.flatnonzero(ds.split == "test")[3:].tolist() + np.flatnonzero(
            ds.split != "test").tolist()
        keep.sort()
        datasets = dict(self.suite.datasets)
        datasets[1] = TaskDataset(features=ds.features[keep], targets=ds.targets[keep],
                                  split=ds.split[keep])
        with pytest.raises(ValueError, match="^all tasks in a group must have equally "
                                             "sized test splits$"):
            train_mtl((0, 1), datasets, self.config)
        groups = [(0, 2), (0, 1), (1,), (2, 3), (1, 2, 3), (0, 2, 3)]
        outcomes = train_groups(groups, datasets, self.config)
        for group, got in zip(groups, outcomes):
            if group in [(0, 1), (1, 2, 3)]:
                assert isinstance(got, ValueError) and "test splits" in str(got)
                continue
            want = train_mtl(group, datasets, self.config)
            assert got.losses == want.losses
            assert np.array_equal(got.params.shared, want.params.shared)
            for t in group:
                assert np.array_equal(got.params.heads[t], want.params.heads[t])

    def test_train_groups_holds_one_buckets_rows_at_a_time(self):
        # the 247 groups of 8 tasks train in 7 buckets, and every group's
        # train rows together take 4.7 MB. The bound lies between the peak
        # when each bucket stacks its own rows as it starts (4.2 MB) and
        # the peak when a copy of every group's rows is held through
        # training (9.2 MB)
        base = reference_config()
        suite = generate_suite(replace(base.suite, n_tasks=8, cluster_assignment=None))
        config = replace(base.train, epochs=1, batch_size=64)
        tracemalloc.start()
        try:
            outcomes = train_groups(enumerate_candidate_groups(8), suite, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outcomes) == 247
        assert all(isinstance(outcome, TrainedModel) for outcome in outcomes)
        assert peak < 6e6

    def test_empty_split_scores_no_losses(self):
        datasets = {}
        for t in (0, 1):
            ds = self.suite[t]
            keep = np.flatnonzero(ds.split != "val")
            datasets[t] = TaskDataset(features=ds.features[keep], targets=ds.targets[keep],
                                      split=ds.split[keep])
        model = train_mtl((0, 1), datasets, self.config)
        assert model.losses["val"] == {}
        assert list(model.losses["test"]) == [0, 1]

    def test_trained_arrays_share_no_memory(self):
        model = train_mtl((0, 1, 2), self.suite, self.config, capture_trace=True)
        params = model.params.copy()
        trace = model.trace
        copies = [a.copy() for a in (trace.losses, trace.gradients, trace.velocity_in)]
        train_mtl((1, 2, 3), self.suite, self.config, capture_trace=True)
        assert np.array_equal(model.params.shared, params.shared)
        for t in (0, 1, 2):
            assert np.array_equal(model.params.heads[t], params.heads[t])
        for a, b in zip((trace.losses, trace.gradients, trace.velocity_in), copies):
            assert np.array_equal(a, b)
        for head in model.params.heads.values():
            assert not np.shares_memory(model.params.shared, head)
        arrays = [trace.losses, trace.gradients, trace.velocity_in]
        # owning its data, no returned array is a view into a training buffer
        params_arrays = [model.params.shared, *model.params.heads.values()]
        assert all(a.flags.owndata for a in params_arrays + arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_first_step_velocity_zero(self):
        model = train_mtl((0, 1), self.suite, self.config, capture_trace=True)
        assert np.array_equal(model.trace.velocity_in[0], np.zeros_like(model.trace.velocity_in[0]))

    def test_identical_tasks_equal_losses(self):
        ds = self.suite[0]
        datasets = {0: ds, 1: TaskDataset(features=ds.features.copy(),
                                          targets=ds.targets.copy(),
                                          split=ds.split.copy())}
        model = train_mtl((0, 1), datasets, self.config, capture_trace=True)
        assert np.array_equal(model.trace.losses[:, 0], model.trace.losses[:, 1])
        assert model.losses["test"][0] == model.losses["test"][1]

    def test_trace_round_trip(self, tmp_path):
        model = train_mtl((0, 1, 2, 3), self.suite, self.config, capture_trace=True)
        path = tmp_path / "trace.jsonl"
        save_trace(model.trace, path)
        loaded = load_trace(path)
        assert loaded.tasks == model.trace.tasks
        for name in ("losses", "gradients", "velocity_in"):
            a, b = getattr(loaded, name), getattr(model.trace, name)
            assert a.dtype == np.float64 and a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)],
                             ids=lambda h: "h" + "x".join(map(str, h)))
    def test_trace_file_bytes_match_per_step_writer(self, tmp_path, hidden, loss):
        task_type = "regression" if loss == "squared" else "classification"
        suite = generate_suite(replace(self.spec, task_type=task_type))
        model = train_mtl((0, 1, 3), suite, replace(self.config, hidden_dims=hidden),
                          capture_trace=True)
        save_trace(model.trace, tmp_path / "trace.jsonl")
        assert (tmp_path / "trace.jsonl").read_text() == per_step_trace_text(model.trace)

    def test_twelve_task_trace_file_bytes(self, tmp_path):
        # task keys sort as strings, "10" and "11" before "2"
        trace = random_trace(np.random.default_rng(14), 12, 9, 5)
        save_trace(trace, tmp_path / "trace.jsonl")
        text = (tmp_path / "trace.jsonl").read_text()
        assert text == per_step_trace_text(trace)
        first = text.splitlines()[0]
        assert first.index('"1": ') < first.index('"10": ') < first.index('"2": ')
        loaded = load_trace(tmp_path / "trace.jsonl")
        assert np.array_equal(loaded.gradients, trace.gradients)

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines[:1] + lines[2:], "holds step 2 where step 1 belongs"),
        (lambda lines: [lines[0], lines[1].replace('"1": ', '"4": ')] + lines[2:],
         r"step 1 does not cover the tasks \[0, 1, 2\]"),
        (lambda lines: [lines[0].replace('"velocity_in": [0.0, ', '"velocity_in": [')]
         + lines[1:], "step 0 has gradients or a velocity of a length other than"),
    ], ids=["step-order", "tasks", "length"])
    def test_inconsistent_trace_file_rejected(self, tmp_path, edit, match):
        trace = random_trace(np.random.default_rng(15), 3, 4, 3)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
        with pytest.raises(ValueError, match=match):
            load_trace(path)

    def test_mismatched_train_sizes_rejected(self):
        ds = self.suite[0]
        short = TaskDataset(features=ds.features[:12], targets=ds.targets[:12],
                            split=ds.split[:12])
        with pytest.raises(ValueError, match="equally sized"):
            train_mtl((0, 1), {0: ds, 1: short}, self.config)

    @pytest.mark.parametrize("group", [(0, 1.7), (0, True), (0, 1.0), (np.float64(2.0),)])
    def test_non_integer_id_rejected(self, group):
        bad = group[-1]
        with pytest.raises(ValueError, match=re.escape(f"task id {bad!r} is not an integer")):
            train_mtl(group, self.suite, self.config)

    @pytest.mark.parametrize("group, bad", [((0, 4), 4), ((-1, 2), -1), ((7,), 7)])
    def test_id_outside_suite_rejected(self, group, bad):
        with pytest.raises(ValueError, match=f"task {bad} is not in the suite"):
            train_mtl(group, self.suite, self.config)

    def test_numpy_integer_ids_accepted(self):
        model = train_mtl((np.int64(0), np.int32(1)), self.suite, self.config)
        assert model.group == (0, 1) and all(type(t) is int for t in model.group)

    @pytest.mark.parametrize("task", [1.7, True, 1.0])
    def test_stl_non_integer_id_rejected(self, task):
        with pytest.raises(ValueError, match=re.escape(f"task id {task!r} is not an integer")):
            train_stl(task, self.suite[1], self.config)
