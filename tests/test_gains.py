import re
from itertools import combinations

import numpy as np
import pytest

from mtlgrouping import gains, selector
from mtlgrouping.artifacts import from_dict, to_json
from mtlgrouping.engine import TrainConfig, TrainingDiverged, train_groups, train_mtl, train_stl
from mtlgrouping.experiment import reference_config
from mtlgrouping.gains import (
    GainRecord,
    StlCache,
    load_records,
    measure_gain,
    measure_gains_batch,
    records_to_csv,
    relative_gain,
    sample_training_groups,
    save_records,
)
from mtlgrouping.suite import TaskSuiteSpec, generate_suite


def small_suite(**overrides):
    base = dict(
        n_tasks=4, input_dim=5, n_clusters=2, within_cluster_similarity=0.9,
        label_noise_std=0.1, samples_per_split=(24, 8, 16), seed=30)
    base.update(overrides)
    return generate_suite(TaskSuiteSpec(**base))


def quick_config(**overrides):
    base = dict(learning_rate=0.05, momentum=0.9, epochs=8, batch_size=8,
                hidden_dims=(4,), seed=2)
    base.update(overrides)
    return TrainConfig(**base)


class TestRelativeGain:
    def test_direct_substitution(self):
        assert relative_gain(2.0, 1.5) == pytest.approx(0.25, abs=0)

    def test_no_transfer(self):
        assert relative_gain(1.3, 1.3) == 0.0

    def test_degenerate_baseline_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            relative_gain(0.0, 1.0)


class TestMeasureGain:
    def test_identity_between_losses_and_gains(self):
        suite = small_suite()
        rec = measure_gain((0, 1), suite, quick_config())
        assert rec.group == (0, 1)
        for t in rec.group:
            expect = (rec.stl_losses[t] - rec.mtl_losses[t]) / rec.stl_losses[t]
            assert rec.gains[t] == pytest.approx(expect, abs=1e-12)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError, match="two or more"):
            measure_gain((1,), small_suite(), quick_config())

    def test_cache_transparency(self):
        suite = small_suite()
        config = quick_config()
        cold = measure_gain((1, 3), suite, config)
        cache = StlCache(suite)
        for t in range(4):
            cache.get(t, config)
        warm = measure_gain((1, 3), suite, config, cache=cache)
        assert cold.gains == warm.gains
        assert cold.stl_losses == warm.stl_losses

    def test_identical_function_tasks_gain_nonnegative(self):
        # same target function, independent feature draws: the shared encoder
        # sees twice the data under joint training. Individual seeds can lose
        # to finite-sample noise, so the ten-seed protocol checks the mean per
        # task plus a solid majority of nonnegative measurements.
        per_task = {0: [], 1: []}
        for seed in range(10):
            suite = small_suite(n_tasks=2, input_dim=8, n_clusters=1,
                                within_cluster_similarity=1.0,
                                label_noise_std=0.0,
                                samples_per_split=(24, 4, 256),
                                seed=100 + seed)
            config = quick_config(learning_rate=0.05, momentum=0.0, epochs=100,
                                  batch_size=1000, hidden_dims=(2,), seed=seed)
            rec = measure_gain((0, 1), suite, config)
            per_task[0].append(rec.gains[0])
            per_task[1].append(rec.gains[1])
        assert np.mean(per_task[0]) >= 0.0
        assert np.mean(per_task[1]) >= 0.0
        pooled = per_task[0] + per_task[1]
        assert sum(g >= 0.0 for g in pooled) >= 16


class TestStlCache:
    def test_trains_each_key_once(self, monkeypatch):
        calls = []

        def counting_train_stl(task, dataset, config):
            calls.append((task, config))
            return train_stl(task, dataset, config)

        monkeypatch.setattr(gains, "train_stl", counting_train_stl)
        suite = small_suite()
        config = quick_config()
        cache = StlCache(suite)
        first = cache.get(0, config)
        assert cache.get(0, config) is first
        cache.get(1, config)
        cache.get(0, quick_config(seed=3))
        assert calls == [(0, config), (1, config), (0, quick_config(seed=3))]

    @pytest.mark.parametrize("task", [1.7, True, 1.0, -1, 4, np.int64(4)])
    def test_bad_task_id_rejected(self, monkeypatch, task):
        calls = []
        monkeypatch.setattr(gains, "train_stl", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=re.escape(f"task id {task!r} is not a task of "
                                                       "the suite (0..3)")):
            StlCache(small_suite()).get(task, quick_config())
        assert calls == []

    def test_numpy_integer_id_shares_the_int_entry(self):
        cache = StlCache(small_suite())
        assert cache.get(np.int64(2), quick_config()) is cache.get(2, quick_config())

    @staticmethod
    def _assert_same_model(got, want):
        assert (got.group, got.losses) == (want.group, want.losses)
        assert np.array_equal(got.params.shared, want.params.shared)
        assert list(got.params.heads) == list(want.params.heads)
        for t, head in got.params.heads.items():
            assert np.array_equal(head, want.params.heads[t])

    def test_fill_trains_what_get_trains(self, monkeypatch):
        suite = generate_suite(reference_config(seeds=(0,)).suite)
        config = reference_config(seeds=(0,)).train
        cache = StlCache(suite)
        kept = cache.get(2, config)
        monkeypatch.setattr(gains, "train_stl", None)  # fill never trains one by one
        cache.fill([np.int64(5), 0, 2, 5, 1, 3, 4], config)
        monkeypatch.undo()
        assert cache.get(2, config) is kept
        for t in range(suite.n_tasks):
            self._assert_same_model(cache.get(t, config), train_stl(t, suite[t], config))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fill_caches_only_the_baselines_that_trained(self, monkeypatch):
        # at this rate the baselines of tasks 0, 1 and 2 diverge and task 3's trains
        suite = small_suite()
        config = quick_config(learning_rate=5.0, epochs=40)
        cache = StlCache(suite)
        cache.fill(range(4), config)
        calls = []

        def counting_train_stl(task, dataset, config):
            calls.append(task)
            return train_stl(task, dataset, config)

        monkeypatch.setattr(gains, "train_stl", counting_train_stl)
        self._assert_same_model(cache.get(3, config), train_stl(3, suite[3], config))
        assert calls == []
        with pytest.raises(TrainingDiverged) as got:
            cache.get(1, config)
        assert calls == [1]
        with pytest.raises(TrainingDiverged) as want:
            train_stl(1, suite[1], config)
        assert (got.value.step, got.value.task) == (want.value.step, want.value.task)

    def test_fill_rejects_a_bad_task_before_training(self, monkeypatch):
        monkeypatch.setattr(gains, "train_groups", None)
        with pytest.raises(ValueError, match=re.escape("task id 4 is not a task of the suite")):
            StlCache(small_suite()).fill([0, 4], quick_config())


class TestMeasureGainsBatch:
    def test_duplicate_groups_identical_records(self):
        suite = small_suite()
        records = measure_gains_batch([(0, 1), (0, 1)], suite, quick_config())
        assert records[0] == records[1]

    def test_empty_list(self):
        assert measure_gains_batch([], small_suite(), quick_config()) == []

    def test_order_stable(self):
        suite = small_suite()
        groups = [(2, 3), (0, 1)]
        records = measure_gains_batch(groups, suite, quick_config())
        assert [r.group for r in records] == [(2, 3), (0, 1)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_failure_raised(self):
        suite = small_suite()
        config = quick_config(learning_rate=200.0, epochs=120, batch_size=1000)
        with pytest.raises(RuntimeError, match=r"^group \(0, 1\) failed: ") as error:
            measure_gains_batch([(0, 1), (2, 3)], suite, config)
        assert isinstance(error.value.__cause__, TrainingDiverged)

    def test_equals_one_group_at_a_time_over_reference_universe(self):
        ref = reference_config(seeds=(0,))
        suite = generate_suite(ref.suite)
        universe = selector.enumerate_candidate_groups(suite.n_tasks)
        cache = StlCache(suite)
        want = [measure_gain(g, suite, ref.train, cache=cache) for g in universe]
        assert measure_gains_batch(universe, suite, ref.train, cache=cache) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_group_names_the_first_in_input_order(self):
        # at this rate every baseline trains, and of these groups (0, 1, 2)
        # and (1, 2) diverge; the bucket of pairs trains first, but (0, 1, 2)
        # comes first in input order
        suite = small_suite()
        config = quick_config(learning_rate=3.0, epochs=40)
        groups = [(0, 3), (0, 1, 2), (1, 2), (2, 3)]
        outcomes = train_groups(groups, suite, config)
        for group, got in zip(groups, outcomes):
            if isinstance(got, TrainingDiverged):
                with pytest.raises(TrainingDiverged) as want:
                    train_mtl(group, suite, config)
                assert (got.step, got.task) == (want.value.step, want.value.task)
            else:
                want = train_mtl(group, suite, config)
                assert got.losses == want.losses
                assert np.array_equal(got.params.shared, want.params.shared)
        assert [type(o).__name__ for o in outcomes] == [
            "TrainedModel", "TrainingDiverged", "TrainingDiverged", "TrainedModel"]
        with pytest.raises(RuntimeError, match=r"^group \(0, 1, 2\) failed: ") as error:
            measure_gains_batch(groups, suite, config)
        cause = error.value.__cause__
        assert (type(cause), cause.step, cause.task) == (
            TrainingDiverged, outcomes[1].step, outcomes[1].task)
        survivors = [(0, 3), (2, 3)]
        assert measure_gains_batch(survivors, suite, config) == [
            measure_gain(g, suite, config) for g in survivors]


class TestSampleTrainingGroups:
    def test_exhausts_all_combinations(self):
        got = sample_training_groups(4, 11, size_range=(2, 4), seed=5)
        want = [g for k in (2, 3, 4) for g in combinations(range(4), k)]
        assert sorted(got) == sorted(want)
        assert len(set(got)) == 11

    def test_all_pairs(self):
        got = sample_training_groups(4, 6, size_range=(2, 2), seed=1)
        assert sorted(got) == list(combinations(range(4), 2))

    def test_seeded_determinism(self):
        a = sample_training_groups(8, 12, size_range=(2, 5), seed=9)
        b = sample_training_groups(8, 12, size_range=(2, 5), seed=9)
        c = sample_training_groups(8, 12, size_range=(2, 5), seed=10)
        assert a == b
        assert a != c

    def test_infeasible_count(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_training_groups(4, 7, size_range=(2, 2), seed=0)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="size range"):
            sample_training_groups(4, 1, size_range=(1, 4), seed=0)

    def test_shares_the_selector_enumeration_guard(self, monkeypatch):
        monkeypatch.setattr(selector, "MAX_ENUMERATED_GROUPS", 10)
        with pytest.raises(ValueError, match="exceed the enumeration guard"):
            sample_training_groups(6, 1, seed=0)


class TestSerialization:
    def record(self):
        return GainRecord(
            group=(0, 2), gains={0: 0.25, 2: -0.25},
            stl_losses={0: 1.0, 2: 2.0}, mtl_losses={0: 0.75, 2: 2.5}, seed=3)

    def test_dict_round_trip(self):
        rec = self.record()
        assert from_dict(GainRecord, to_json(rec)) == rec

    @pytest.mark.parametrize("group", [[0, 0, 2], [2, 0], [2]])
    def test_group_not_strictly_increasing_rejected(self, group):
        data = to_json(self.record())
        data["group"] = group
        with pytest.raises(ValueError, match=re.escape(f"group {group} must be two or more "
                                                       "strictly increasing task ids")):
            from_dict(GainRecord, data)

    @pytest.mark.parametrize("name", ["gains", "stl_losses", "mtl_losses"])
    @pytest.mark.parametrize("keys", [{"0": 0.5}, {"0": 0.5, "2": 0.5, "3": 0.5}])
    def test_maps_keyed_by_other_tasks_rejected(self, name, keys):
        data = to_json(self.record())
        data[name] = keys
        with pytest.raises(ValueError, match=f"{name} of group \\[0, 2\\] must be keyed by"):
            from_dict(GainRecord, data)

    def test_jsonl_round_trip(self, tmp_path):
        records = [self.record(), GainRecord(group=(1, 2, 3),
                                             gains={1: 0.0, 2: 0.25, 3: 0.5},
                                             stl_losses={1: 1.0, 2: 1.0, 3: 1.0},
                                             mtl_losses={1: 1.0, 2: 0.75, 3: 0.5},
                                             seed=3)]
        path = tmp_path / "gains.jsonl"
        save_records(records, path)
        assert load_records(path) == records

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        other = GainRecord(group=(1, 3), gains={1: 0.0, 3: 0.5}, stl_losses={1: 1.0, 3: 1.0},
                           mtl_losses={1: 1.0, 3: 0.5}, seed=3)
        path = tmp_path / "gains.jsonl"
        save_records([self.record(), other], path)
        before = path.read_bytes()
        converted = []

        def fail_on_second(rec):
            converted.append(rec)
            if len(converted) == 2:
                raise RuntimeError("interrupted")
            return to_json(rec)

        monkeypatch.setattr(gains, "to_json", fail_on_second)
        with pytest.raises(RuntimeError, match="interrupted"):
            save_records([other, self.record()], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["gains.jsonl"]

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "gains.csv"
        records_to_csv([self.record()], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group,task,gain,stl_loss,mtl_loss"
        assert lines[1].startswith("0+2,0,")
        assert len(lines) == 3
