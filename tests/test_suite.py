import csv
import io
import json

import numpy as np
import pytest

from mtlgrouping.artifacts import from_dict, read_json, to_json, write_json
from mtlgrouping.suite import TaskSuiteSpec, generate_suite, load_suite, save_suite


def small_spec(**overrides):
    base = dict(
        n_tasks=6,
        input_dim=5,
        n_clusters=2,
        within_cluster_similarity=0.9,
        label_noise_std=0.1,
        samples_per_split=(20, 8, 12),
        seed=7,
    )
    base.update(overrides)
    return TaskSuiteSpec(**base)


class TestSpec:
    def test_default_assignment_blocks(self):
        spec = small_spec()
        assert spec.assignment() == (0, 0, 0, 1, 1, 1)

    def test_explicit_assignment_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            small_spec(cluster_assignment=(0, 0, 0, 1, 1, 2))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            small_spec(input_dim=0)
        with pytest.raises(ValueError):
            small_spec(n_tasks=1)
        with pytest.raises(ValueError):
            small_spec(samples_per_split=(10, 0, 10))
        with pytest.raises(ValueError):
            small_spec(within_cluster_similarity=1.5)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="^label_noise_std must be >= 0 and finite$"):
            small_spec(label_noise_std=noise)


class TestGenerate:
    def test_deterministic_bit_identical(self):
        a = generate_suite(small_spec())
        b = generate_suite(small_spec())
        assert np.array_equal(a.task_weights, b.task_weights)
        for t in range(6):
            assert np.array_equal(a[t].features, b[t].features)
            assert np.array_equal(a[t].targets, b[t].targets)
            assert np.array_equal(a[t].split, b[t].split)

    def test_full_similarity_no_noise_identical_functions(self):
        suite = generate_suite(small_spec(within_cluster_similarity=1.0, label_noise_std=0.0))
        w = suite.task_weights
        assert np.array_equal(w[0], w[1])
        assert np.array_equal(w[0], w[2])
        assert np.array_equal(w[3], w[5])
        # same-cluster tasks produce equal targets on equal inputs
        X = suite[0].features[:5]
        assert np.allclose(X @ w[0], X @ w[1], atol=0)

    def test_intra_cluster_cosines_exceed_inter(self):
        suite = generate_suite(small_spec(within_cluster_similarity=0.9))
        w = suite.task_weights
        assign = suite.spec.assignment()

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        intra, inter = [], []
        for i in range(6):
            for j in range(i + 1, 6):
                (intra if assign[i] == assign[j] else inter).append(cos(w[i], w[j]))
        assert np.mean(intra) > np.mean(inter)

    def test_split_sizes_and_disjoint_cover(self):
        suite = generate_suite(small_spec())
        ds = suite[0]
        assert ds.targets.size == 40
        counts = {name: int(np.sum(ds.split == name)) for name in ("train", "val", "test")}
        assert counts == {"train": 20, "val": 8, "test": 12}
        x_train, _ = ds.rows("train")
        x_val, _ = ds.rows("val")
        x_test, _ = ds.rows("test")
        assert len(x_train) + len(x_val) + len(x_test) == ds.targets.size

    def test_noise_scale_controls_residual(self):
        quiet = generate_suite(small_spec(label_noise_std=0.0))
        noisy = generate_suite(small_spec(label_noise_std=1.0))
        w = quiet.task_weights[0]
        clean = quiet[0].features @ w
        assert np.allclose(quiet[0].targets, clean, atol=0)
        resid = noisy[0].targets - noisy[0].features @ noisy.task_weights[0]
        assert 0.5 < np.std(resid) < 1.5

    def test_classification_targets_binary(self):
        suite = generate_suite(small_spec(task_type="classification"))
        values = np.unique(suite[0].targets)
        assert set(values).issubset({0.0, 1.0})


class TestRows:
    def test_unknown_split_rejected(self):
        ds = generate_suite(small_spec())[0]
        with pytest.raises(ValueError, match="unknown split 'tset'"):
            ds.rows("tset")

    def test_split_sizes(self):
        spec = small_spec()
        ds = generate_suite(spec)[0]
        for name, size in zip(("train", "val", "test"), spec.samples_per_split):
            X, y = ds.rows(name)
            assert X.shape == (size, spec.input_dim)
            assert y.shape == (size,)
            assert np.array_equal(X, ds.features[ds.split == name])
            assert np.array_equal(y, ds.targets[ds.split == name])

    def test_returned_arrays_are_fresh(self):
        ds = generate_suite(small_spec())[0]
        X, y = ds.rows("train")
        want_X, want_y = X.copy(), y.copy()
        X[:] = np.nan
        y[:] = np.nan
        X_again, y_again = ds.rows("train")
        assert np.array_equal(X_again, want_X)
        assert np.array_equal(y_again, want_y)
        assert not np.shares_memory(X_again, X) and not np.shares_memory(y_again, y)


class TestRoundTrip:
    def test_csv_json_round_trip(self, tmp_path):
        suite = generate_suite(small_spec())
        save_suite(suite, tmp_path / "suite")
        loaded = load_suite(tmp_path / "suite")
        assert loaded.spec == suite.spec
        assert np.array_equal(loaded.task_weights, suite.task_weights)
        for t in range(6):
            assert np.array_equal(loaded[t].features, suite[t].features)
            assert np.array_equal(loaded[t].targets, suite[t].targets)
            assert np.array_equal(loaded[t].split, suite[t].split)

    @pytest.mark.parametrize("task_type", ["regression", "classification"])
    def test_csv_bytes_are_csv_writers(self, tmp_path, task_type):
        suite = generate_suite(small_spec(task_type=task_type))
        save_suite(suite, tmp_path)
        for t, ds in suite.datasets.items():
            want = io.StringIO(newline="")
            writer = csv.writer(want)
            writer.writerow([f"x{i}" for i in range(ds.input_dim)] + ["target", "split"])
            writer.writerows([repr(float(v)) for v in row] + [repr(float(target)), split]
                             for row, target, split in zip(ds.features, ds.targets, ds.split))
            assert (tmp_path / f"task_{t}.csv").read_bytes() == want.getvalue().encode()

    def test_save_is_byte_deterministic(self, tmp_path):
        suite = generate_suite(small_spec())
        save_suite(suite, tmp_path / "a")
        save_suite(suite, tmp_path / "b")
        for name in ["spec.json"] + [f"task_{t}.csv" for t in range(6)]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corrupted_csv_is_never_read(self, tmp_path):
        spec = small_spec()
        save_suite(generate_suite(spec), tmp_path / "suite")
        path = tmp_path / "suite" / "task_0.csv"
        header, first, *rows = path.read_text().splitlines()
        bad = first.split(",")[:-2] + ["nan", "tset"]
        # a nan target, an unknown split and two train rows fewer
        path.write_text("\n".join([header, ",".join(bad)] + rows[2:]) + "\n")
        loaded, expected = load_suite(tmp_path / "suite"), generate_suite(spec)
        assert np.array_equal(loaded.task_weights, expected.task_weights)
        for t in range(6):
            assert np.array_equal(loaded[t].features, expected[t].features)
            assert np.array_equal(loaded[t].targets, expected[t].targets)
            assert np.array_equal(loaded[t].split, expected[t].split)

    def test_weight_one_ulp_off_rejected(self, tmp_path):
        save_suite(generate_suite(small_spec()), tmp_path / "suite")
        sidecar = read_json(tmp_path / "suite" / "spec.json")
        sidecar["task_weights"][2][3] = float(np.nextafter(sidecar["task_weights"][2][3], np.inf))
        write_json(tmp_path / "suite" / "spec.json", sidecar)
        with pytest.raises(ValueError, match=r"^task_weights in .*suite differ from those "
                                             r"regenerated from its spec; rerun generate$"):
            load_suite(tmp_path / "suite")

    def test_spec_dict_round_trip(self):
        spec = small_spec(cluster_assignment=(0, 1, 0, 1, 0, 1))
        assert from_dict(TaskSuiteSpec, json.loads(json.dumps(to_json(spec)))) == spec

    @pytest.mark.parametrize("key, value, message", [
        ("sed", 3, "unknown config key 'spec.sed'"),
        ("seed", 1.5, "config key 'spec.seed' must be int"),
    ])
    def test_load_rejects_bad_sidecar_spec(self, tmp_path, key, value, message):
        save_suite(generate_suite(small_spec()), tmp_path / "suite")
        sidecar = read_json(tmp_path / "suite" / "spec.json")
        sidecar["spec"][key] = value
        write_json(tmp_path / "suite" / "spec.json", sidecar)
        with pytest.raises(ValueError, match=message):
            load_suite(tmp_path / "suite")

    @pytest.mark.parametrize("change, message", [
        (lambda w: [w[0][:-1] + ["0.5"]] + w[1:], "key 'task_weights' must be a list of numbers"),
        (lambda w: w[:-1], "key 'task_weights' must hold 6 rows of 5 numbers"),
        (lambda w: [row[:-1] for row in w], "key 'task_weights' must hold 6 rows of 5 numbers"),
    ], ids=["string", "missing-row", "short-rows"])
    def test_load_rejects_bad_task_weights(self, tmp_path, change, message):
        save_suite(generate_suite(small_spec()), tmp_path / "suite")
        sidecar = read_json(tmp_path / "suite" / "spec.json")
        sidecar["task_weights"] = change(sidecar["task_weights"])
        write_json(tmp_path / "suite" / "spec.json", sidecar)
        with pytest.raises(ValueError, match=message):
            load_suite(tmp_path / "suite")
