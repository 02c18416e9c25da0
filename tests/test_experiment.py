import json
import multiprocessing
import os
import pickle
import re
import shutil
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from mtlgrouping import gains as gn
from mtlgrouping.artifacts import to_json
from mtlgrouping.engine import TrainConfig
from mtlgrouping.experiment import (
    STAGES,
    ExperimentConfig,
    StageError,
    compare_ablations,
    config_from_dict,
    load_config,
    reference_config,
    resolve_output_dir,
    run_experiment,
    run_stage,
    run_dirs,
)
from mtlgrouping.selector import enumerate_candidate_groups
from mtlgrouping.suite import TaskSuiteSpec, load_suite


def tiny_config(out, seeds=(0, 1), **overrides):
    base = dict(
        suite=TaskSuiteSpec(
            n_tasks=4, input_dim=5, n_clusters=2, within_cluster_similarity=0.9,
            label_noise_std=0.3, samples_per_split=(24, 8, 32), seed=11),
        train=TrainConfig(learning_rate=0.05, momentum=0.9, epochs=15,
                          batch_size=8, hidden_dims=(1,), seed=0),
        n_train_groups=5,
        n_heldout_groups=5,
        budgets=(2,),
        seeds=tuple(seeds),
        output_dir=str(out),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def all_artifacts(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


class TestConfig:
    def test_dict_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path / "x", mapping_kind="affine", residual_enabled=False)
        assert config_from_dict(to_json(cfg)) == cfg

    def test_load_from_file(self, tmp_path):
        cfg = tiny_config(tmp_path / "x")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(to_json(cfg)))
        assert load_config(path) == cfg

    def test_env_root_applies_to_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MTLGROUPING_OUTPUT_ROOT", str(tmp_path))
        cfg = tiny_config("rel-dir")
        assert resolve_output_dir(cfg) == tmp_path / "rel-dir"
        assert resolve_output_dir(cfg, tmp_path / "abs") == tmp_path / "abs"

    @pytest.mark.parametrize("section, key", [
        (None, "parallelism"), (None, "n_train_group"),
        ("suite", "sed"), ("train", "epoch"),
    ])
    def test_rejects_unknown_key(self, tmp_path, section, key):
        data = to_json(tiny_config(tmp_path / "x"))
        (data if section is None else data[section])[key] = 3
        dotted = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=f"unknown config key '{dotted}'"):
            config_from_dict(data)

    @pytest.mark.parametrize("dotted, value", [
        ("train.epochs", 60.5), ("residual_enabled", "no"), ("suite.seed", 1.5),
        ("budgets", [2.7]), ("train.hidden_dims", [1.9]), ("group_sizes", [2]),
        ("suite", 3), ("n_train_groups", True), ("train.learning_rate", "0.05"),
    ])
    def test_rejects_wrong_type(self, tmp_path, dotted, value):
        data = to_json(tiny_config(tmp_path / "x"))
        *sections, key = dotted.split(".")
        node = data
        for section in sections:
            node = node[section]
        node[key] = value
        with pytest.raises(ValueError, match=f"config key '{dotted}'"):
            config_from_dict(data)

    @pytest.mark.parametrize("section, key", [
        (None, "n_train_groups"), ("suite", "n_tasks"), ("train", "epochs"),
    ])
    def test_rejects_missing_key(self, tmp_path, section, key):
        data = to_json(tiny_config(tmp_path / "x"))
        del (data if section is None else data[section])[key]
        dotted = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=f"missing config key '{dotted}'"):
            config_from_dict(data)

    def test_json_round_trip_keeps_every_field(self, tmp_path):
        cfg = ExperimentConfig(
            suite=TaskSuiteSpec(
                n_tasks=5, input_dim=3, n_clusters=3, within_cluster_similarity=0.5,
                label_noise_std=0.25, samples_per_split=(10, 6, 12), seed=17,
                cluster_assignment=(2, 1, 0, 1, 2), task_type="classification"),
            train=TrainConfig(learning_rate=0.125, momentum=0.5, epochs=3,
                              batch_size=4, hidden_dims=(3, 2), seed=9),
            n_train_groups=4,
            n_heldout_groups=3,
            group_sizes=(3, 4),
            mapping_kind="affine",
            residual_enabled=False,
            budgets=(1, 3),
            seeds=(5, 6, 7),
            velocity_mode="zero",
            output_dir=str(tmp_path / "elsewhere"),
        )
        for obj in (cfg, cfg.suite, cfg.train):
            for f in fields(obj):
                assert getattr(obj, f.name) != f.default, f.name
        assert config_from_dict(json.loads(json.dumps(to_json(cfg)))) == cfg

    def test_integer_float_stays_float(self, tmp_path):
        data = to_json(tiny_config(tmp_path / "x"))
        data["train"]["learning_rate"] = 1
        data["suite"]["within_cluster_similarity"] = 1
        cfg = config_from_dict(data)
        assert type(cfg.train.learning_rate) is float and cfg.train.learning_rate == 1.0
        assert json.dumps(to_json(cfg)["suite"]["within_cluster_similarity"]) == "1.0"

    def test_schema_checked_when_present(self, tmp_path):
        cfg = tiny_config(tmp_path / "x")
        data = to_json(cfg)
        del data["schema"]
        assert config_from_dict(data) == cfg
        data["schema"] = "experiment-config/2"
        with pytest.raises(ValueError, match="experiment-config/2"):
            config_from_dict(data)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="budgets"):
            tiny_config(tmp_path, budgets=())
        with pytest.raises(ValueError, match="mapping_kind"):
            tiny_config(tmp_path, mapping_kind="cubist")
        with pytest.raises(ValueError, match="size range"):
            tiny_config(tmp_path, group_sizes=(2, 9))

    def test_duplicate_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^budgets must be distinct$"):
            tiny_config(tmp_path, budgets=(2, 3, 2))
        assert tiny_config(tmp_path, seeds=(0, 0)).seeds == (0, 0)

    def test_more_groups_than_the_universe_rejected(self):
        with pytest.raises(ValueError, match=r"^n_train_groups \+ n_heldout_groups = 65 exceed "
                                             r"the 57 groups that group_sizes allows$"):
            reference_config(n_train_groups=50)
        assert reference_config(n_train_groups=42).n_train_groups == 42

    @staticmethod
    def ten_task_config(**overrides):
        suite = replace(reference_config().suite, n_tasks=10, cluster_assignment=(0,) * 5 + (1,) * 5)
        return reference_config(suite=suite, seeds=(0,), **overrides)

    @pytest.mark.parametrize("budgets", [(3,), (1, 3)])
    def test_exhaustive_optimum_over_guard_rejected(self, budgets):
        with pytest.raises(ValueError, match=r"^max\(budgets\) = 3 makes report's exhaustive "
                                             r"optimum visit 173252378 subsets, more than the guard of 10000000$"):
            self.ten_task_config(budgets=budgets)
        assert self.ten_task_config(budgets=(2,)).budgets == (2,)

    def test_universe_over_enumeration_guard_rejected(self):
        suite = replace(reference_config().suite, n_tasks=25, cluster_assignment=None)
        with pytest.raises(ValueError, match="^group_sizes allows 33554406 groups, more than "
                                             "the enumeration guard of 2000000$"):
            reference_config(suite=suite)
        assert reference_config(suite=suite, group_sizes=(2, 2)).resolved_sizes() == (2, 2)


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = tiny_config(out)
    started = time.monotonic()
    report = run_experiment(cfg)
    return cfg, Path(out), report, time.monotonic() - started


class TestRunExperiment:
    def test_tiny_config_fast_single_core(self, finished):
        *_, elapsed = finished
        assert elapsed < 60.0

    def test_classification_mode_runs_end_to_end(self, tmp_path):
        out = tmp_path / "cls"
        cfg = tiny_config(out, suite=TaskSuiteSpec(
            n_tasks=4, input_dim=5, n_clusters=2, within_cluster_similarity=0.9,
            label_noise_std=0.3, samples_per_split=(24, 8, 32), seed=11,
            task_type="classification"))
        report = run_experiment(cfg)
        assert report["n_runs"] == 2
        assert (out / "report.json").exists()

    def test_capped_group_sizes_still_report_naive(self, tmp_path):
        # the all-task group sits outside the selection universe but the
        # report stage still measures it for the naive baseline
        out = tmp_path / "capped"
        cfg = tiny_config(out, seeds=(0,), group_sizes=(2, 3),
                          n_train_groups=4, n_heldout_groups=4)
        report = run_experiment(cfg)
        realized = json.loads(
            (run_dirs(cfg, Path(out))[0] / "realized_B2.json").read_text())
        assert realized["naive_total_test_loss"] > 0.0
        assert all(len(g) <= 3 for g in realized["optimal_chosen"])
        assert all(len(g) <= 3 for g in json.loads(
            (run_dirs(cfg, Path(out))[0] / "selection_B2.json").read_text())["chosen"])
        assert report["realized"]["2"]["naive"]["values"]

    def test_all_artifacts_written(self, finished):
        cfg, out, _, _ = finished
        assert (out / "config.json").exists()
        assert (out / "suite" / "spec.json").exists()
        assert (out / "report.json").exists()
        for rd in run_dirs(cfg, out):
            for name in ("trace.jsonl", "affinity.json", "affinity.csv", "groups.json",
                         "gains_train.jsonl", "gains_heldout.jsonl", "predictor.json",
                         "eval.json", "selection_B2.json", "selection_B2.txt",
                         "gains_candidates.jsonl", "realized_B2.json"):
                assert (rd / name).exists(), name

    def test_report_structure(self, finished):
        _, _, report, _ = finished
        assert report["n_runs"] == 2
        assert set(report["eval"]) == {"final", "stage1"}
        assert "2" in report["realized"]
        for key in ("selected", "naive", "optimal"):
            assert len(report["realized"]["2"][key]["values"]) == 2

    def test_sandwich_holds_per_run(self, finished):
        _, _, report, _ = finished
        r = report["realized"]["2"]
        for selected, optimal in zip(r["selected"]["values"], r["optimal"]["values"]):
            assert selected >= optimal - 1e-9

    def test_train_heldout_disjoint(self, finished):
        cfg, out, _, _ = finished
        for rd in run_dirs(cfg, out):
            groups = json.loads((rd / "groups.json").read_text())
            train = {tuple(g) for g in groups["train"]}
            held = {tuple(g) for g in groups["heldout"]}
            assert not train & held
            assert len(train) == 5 and len(held) == 5

    def test_rerun_byte_identical(self, finished, tmp_path):
        cfg, out, _, _ = finished
        out2 = tmp_path / "again"
        run_experiment(replace(cfg, output_dir=str(out2)))
        files1 = all_artifacts(out)
        files2 = all_artifacts(out2)
        assert [str(f) for f in files1] == [str(f) for f in files2]
        for rel in files1:
            if rel.name == "config.json":
                continue  # embeds the differing output_dir
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_duplicate_seeds_identical_runs(self, tmp_path):
        out = tmp_path / "dup"
        cfg = tiny_config(out, seeds=(1, 1), n_heldout_groups=4)
        run_experiment(cfg)
        rd1, rd2 = run_dirs(cfg, Path(out))
        files1 = sorted(p.name for p in rd1.iterdir())
        files2 = sorted(p.name for p in rd2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (rd1 / name).read_bytes() == (rd2 / name).read_bytes()

    def test_stage_rerun_reproduces_downstream(self, finished):
        cfg, out, _, _ = finished
        rd = run_dirs(cfg, out)[0]
        before = (rd / "eval.json").read_bytes()
        (rd / "eval.json").unlink()
        run_stage("evaluate", cfg, out)
        assert (rd / "eval.json").read_bytes() == before

    def test_residual_toggle_leaves_upstream_alone(self, finished, tmp_path):
        cfg, out, _, _ = finished
        out2 = tmp_path / "noresidual"
        cfg2 = replace(cfg, residual_enabled=False, output_dir=str(out2))
        run_experiment(cfg2)
        for rd1, rd2 in zip(run_dirs(cfg, out), run_dirs(cfg2, Path(out2))):
            for name in ("trace.jsonl", "affinity.json", "gains_train.jsonl",
                         "gains_heldout.jsonl", "groups.json"):
                assert (rd1 / name).read_bytes() == (rd2 / name).read_bytes()
            assert (rd1 / "predictor.json").read_bytes() != (rd2 / "predictor.json").read_bytes()


# one input of each stage, deleted from a finished run to test the stage's error
STAGE_INPUTS = {
    "train-affinity": "suite/spec.json",
    "fit": "runs/00_seed0/gains_train.jsonl",
    "evaluate": "runs/00_seed0/predictor.json",
    "select": "runs/00_seed0/affinity.json",
    "report": "runs/00_seed0/selection_B2.json",
}


class TestStageErrors:
    @pytest.mark.parametrize("stage", list(STAGE_INPUTS))
    def test_missing_upstream_names_stage(self, finished, tmp_path, stage):
        missing = STAGE_INPUTS[stage]
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        (copy / missing).unlink()
        with pytest.raises(StageError, match=f"stage {stage}: missing upstream artifact "
                                             + re.escape(str(copy / missing))):
            run_stage(stage, cfg, copy)

    @pytest.mark.parametrize("stage, name, schema", [
        ("fit", "groups.json", "groups/1"), ("report", "eval.json", "eval/1"),
    ])
    def test_wrong_schema_names_stage(self, finished, tmp_path, stage, name, schema):
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[1] / name
        data = json.loads(path.read_text())
        assert data["schema"] == schema
        data["schema"] = "other/1"
        path.write_text(json.dumps(data))
        with pytest.raises(StageError, match=f"stage {stage}: unsupported schema 'other/1', "
                                             f"expected '{schema}'"):
            run_stage(stage, cfg, copy)

    @pytest.mark.parametrize("stage, name, dotted, value, message", [
        ("fit", "groups.json", "train", [[0, 1.7]], "key 'train' must be int, got 1.7"),
        ("report", "eval.json", "final.r2", "0.5", "key 'final.r2' must be float, got '0.5'"),
    ])
    def test_wrong_type_names_stage(self, finished, tmp_path, stage, name, dotted, value, message):
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[1] / name
        data = json.loads(path.read_text())
        *parents, key = dotted.split(".")
        node = data
        for parent in parents:
            node = node[parent]
        node[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(StageError, match=f"stage {stage}: " + re.escape(message)):
            run_stage(stage, cfg, copy)

    @pytest.mark.parametrize("stage", ["train-affinity", "oracle", "report"])
    def test_suite_from_other_spec_rejected(self, tmp_path, stage):
        out = tmp_path / "respec"
        cfg = tiny_config(out, seeds=(0,))
        run_stage("generate", cfg, out)
        other = replace(cfg, suite=replace(cfg.suite, seed=cfg.suite.seed + 1))
        with pytest.raises(StageError, match=f"stage {stage}: suite in .* another suite spec"):
            run_stage(stage, other, out)

    def test_suite_weights_not_regenerated_rejected(self, tmp_path):
        out = tmp_path / "weights"
        cfg = tiny_config(out, seeds=(0,))
        run_stage("generate", cfg, out)
        sidecar = json.loads((out / "suite" / "spec.json").read_text())
        sidecar["task_weights"][0][0] += 1.0
        (out / "suite" / "spec.json").write_text(json.dumps(sidecar))
        with pytest.raises(StageError, match="stage oracle: task_weights in .* rerun generate"):
            run_stage("oracle", cfg, out)

    def test_overlapping_groups_rejected_at_fit(self, tmp_path):
        out = tmp_path / "overlap"
        cfg = tiny_config(out)
        for stage in ("generate", "train-affinity", "oracle"):
            run_stage(stage, cfg, Path(out))
        rd = run_dirs(cfg, Path(out))[0]
        groups = json.loads((rd / "groups.json").read_text())
        groups["heldout"][0] = groups["train"][0]
        (rd / "groups.json").write_text(json.dumps(groups))
        with pytest.raises(StageError, match="overlap"):
            run_stage("fit", cfg, Path(out))

    def test_gain_record_with_repeated_member_rejected_at_fit(self, finished, tmp_path):
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[0] / "gains_train.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        record["group"].insert(0, record["group"][0])
        path.write_text(json.dumps(record) + "\n" + "".join(rest))
        with pytest.raises(StageError, match=re.escape(
                f"stage fit: group {record['group']} must be two or more strictly increasing")):
            run_stage("fit", cfg, copy)

    def test_reversed_training_group_rejected_at_fit(self, finished, tmp_path):
        # reversed, a held-out group would pass the overlap check
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[0] / "groups.json"
        groups = json.loads(path.read_text())
        groups["train"][0] = groups["heldout"][0][::-1]
        path.write_text(json.dumps(groups))
        with pytest.raises(StageError, match=re.escape(
                f"stage fit: group {groups['train'][0]} must be two or more strictly increasing")):
            run_stage("fit", cfg, copy)

    @pytest.mark.parametrize("stage, split, other", [
        ("fit", "train", "heldout"), ("evaluate", "heldout", "train"),
    ])
    def test_records_of_the_other_split_rejected(self, finished, tmp_path, stage, split, other):
        # fit on held-out records, or evaluate on training records, would score
        # the predictor on the groups it was fit to
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        rd = run_dirs(cfg, copy)[0]
        shutil.copyfile(rd / f"gains_{other}.jsonl", rd / f"gains_{split}.jsonl")
        with pytest.raises(StageError, match=re.escape(
                f"stage {stage}: the groups of {rd / f'gains_{split}.jsonl'} are not the "
                f"{split} groups of {rd / 'groups.json'}; rerun oracle")):
            run_stage(stage, cfg, copy)

    def test_stage_error_survives_pickle(self):
        # a stage's worker process hands its error to the parent pickled
        err = pickle.loads(pickle.dumps(StageError("report", "x")))
        assert type(err) is StageError
        assert (str(err), err.stage) == ("stage report: x", "report")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unexpected_errors_tagged(self, tmp_path):
        out = tmp_path / "diverge"
        cfg = tiny_config(out, train=TrainConfig(
            learning_rate=500.0, momentum=0.9, epochs=200, batch_size=1000,
            hidden_dims=(), seed=0))
        run_stage("generate", cfg, Path(out))
        with pytest.raises(StageError, match="stage train-affinity"):
            run_stage("train-affinity", cfg, Path(out))


class TestReport:
    def through_select(self, out):
        cfg = tiny_config(out, seeds=(0,))
        for stage in STAGES[:-1]:
            run_stage(stage, cfg, out)
        return cfg

    def test_reuses_oracle_gains(self, tmp_path, monkeypatch):
        out = tmp_path / "reuse"
        cfg = self.through_select(out)
        calls = []
        train_groups = gn.train_groups

        def counting_train_groups(groups, *args, **kwargs):
            calls.append(list(map(tuple, groups)))
            return train_groups(groups, *args, **kwargs)

        monkeypatch.setattr(gn, "train_groups", counting_train_groups)
        run_stage("report", cfg, out)
        monkeypatch.undo()
        rd = run_dirs(cfg, out)[0]
        groups = json.loads((rd / "groups.json").read_text())
        oracle = {tuple(g) for g in groups["train"] + groups["heldout"]}
        candidates = enumerate_candidate_groups(cfg.suite.n_tasks)
        # every baseline in one call, then the candidates the oracle did not measure
        baselines, *joint = calls
        assert baselines == [(t,) for t in range(cfg.suite.n_tasks)]
        assert sorted(g for call in joint for g in call) == sorted(set(candidates) - oracle)
        # reused and fresh records together equal measuring every candidate
        expected = tmp_path / "expected.jsonl"
        tc = replace(cfg.train, seed=cfg.seeds[0])
        gn.save_records(
            gn.measure_gains_batch(candidates, load_suite(out / "suite"), tc), expected)
        assert (rd / "gains_candidates.jsonl").read_bytes() == expected.read_bytes()

    def test_rejects_oracle_from_other_config(self, tmp_path):
        out = tmp_path / "stale"
        cfg = self.through_select(out)
        stale = replace(cfg, train=replace(cfg.train, epochs=cfg.train.epochs + 1))
        with pytest.raises(StageError, match="stage report: oracle record of group"):
            run_stage("report", stale, out)


class TestAblations:
    def test_cells_and_identity(self, tmp_path):
        out = tmp_path / "ablate"
        cfg = tiny_config(out, seeds=(0,), n_train_groups=6, n_heldout_groups=5)
        table = compare_ablations(cfg)
        assert set(table["cells"]) == {"spline+residual", "spline", "affine+residual", "affine"}
        for cell in table["cells"].values():
            assert len(cell["r2"]["values"]) == 1
        # the spline-without-residual cell equals the stage-1 metrics of the
        # pipeline's evaluate stage on the same artifacts
        run_stage("fit", cfg, Path(out))
        run_stage("evaluate", cfg, Path(out))
        eval_data = json.loads((run_dirs(cfg, Path(out))[0] / "eval.json").read_text())
        cell = table["cells"]["spline"]
        assert cell["r2"]["values"][0] == pytest.approx(eval_data["stage1"]["r2"], abs=1e-12)
        assert cell["pearson"]["values"][0] == pytest.approx(
            eval_data["stage1"]["pearson"], abs=1e-12)
        assert (Path(out) / "ablation.json").exists()
        assert (Path(out) / "ablation.txt").exists()

    def test_cells_share_heldout_set(self, tmp_path):
        out = tmp_path / "ablate2"
        cfg = tiny_config(out, seeds=(0,))
        compare_ablations(cfg)
        groups = json.loads((run_dirs(cfg, Path(out))[0] / "groups.json").read_text())
        assert len(groups["heldout"]) == 5


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs a stage sees: one runs its seeds inline, more fork workers."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return use


def files_under(root: Path) -> dict:
    return {path: (root / path).read_bytes() for path in all_artifacts(root)}


class TestWorkers:
    @pytest.mark.parametrize("seeds", [(0, 1, 2), (1, 1)])
    def test_pooled_runs_write_the_one_seed_bytes(self, tmp_path, cpus, seeds):
        cpus(2)
        cfg = tiny_config(tmp_path / "pooled", seeds=seeds)
        run_experiment(cfg)
        assert multiprocessing.active_children() == []
        for rd, seed in zip(run_dirs(cfg, tmp_path / "pooled"), seeds):
            alone = tiny_config(tmp_path / f"alone{seed}", seeds=(seed,))
            if not (tmp_path / f"alone{seed}").exists():
                run_experiment(alone)
            assert files_under(rd) == files_under(run_dirs(alone, tmp_path / f"alone{seed}")[0])

    def test_report_equals_one_cpu(self, tmp_path, cpus):
        cfg = tiny_config(tmp_path / "pooled")
        cpus(2)
        pooled = run_experiment(cfg)
        cpus(1)
        inline = run_experiment(replace(cfg, output_dir=str(tmp_path / "inline")))
        assert pooled == inline
        assert (tmp_path / "pooled" / "report.json").read_bytes() == \
            (tmp_path / "inline" / "report.json").read_bytes()

    def test_no_sched_getaffinity_runs_inline(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(multiprocessing, "get_context", lambda *args: pytest.fail("forked"))
        cfg = tiny_config(tmp_path / "inline")
        for stage in ("generate", "oracle"):
            run_stage(stage, cfg, tmp_path / "inline")

    @staticmethod
    def inline_then_pooled_error(cpus, stage, cfg, out) -> list[str]:
        texts = []
        for count in (1, 2):
            cpus(count)
            with pytest.raises(StageError) as err:
                run_stage(stage, cfg, out)
            assert multiprocessing.active_children() == []
            texts.append(str(err.value))
        return texts

    def test_stale_oracle_names_the_first_seed(self, tmp_path, cpus):
        out = tmp_path / "stale"
        cfg = tiny_config(out)
        for stage in STAGES[:-1]:
            run_stage(stage, cfg, out)
        stale = replace(cfg, train=replace(cfg.train, epochs=cfg.train.epochs + 1))
        inline, pooled = self.inline_then_pooled_error(cpus, "report", stale, out)
        assert pooled == inline
        assert pooled.startswith("stage report: oracle record of group ")
        assert str(run_dirs(cfg, out)[0]) in pooled

    def test_later_seed_failing_alone_is_raised(self, tmp_path, cpus):
        out = tmp_path / "missing"
        cfg = tiny_config(out)
        for stage in STAGES[:-1]:
            run_stage(stage, cfg, out)
        missing = run_dirs(cfg, out)[1] / "selection_B2.json"
        missing.unlink()
        inline, pooled = self.inline_then_pooled_error(cpus, "report", cfg, out)
        assert pooled == inline == f"stage report: missing upstream artifact {missing}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_oracle_names_the_first_seed(self, tmp_path, cpus):
        out = tmp_path / "diverge"
        cfg = tiny_config(out)
        run_stage("generate", cfg, out)
        diverging = replace(cfg, train=replace(cfg.train, learning_rate=1e4))
        inline, pooled = self.inline_then_pooled_error(cpus, "oracle", diverging, out)
        assert pooled == inline
        assert re.fullmatch(r"stage oracle: group \(0, 1\) failed: non-finite loss "
                            r"for task 0 at step \d+", pooled)
        # seed 1 alone fails on another group, so the text tells the seeds apart
        with pytest.raises(StageError, match=re.escape("group (0, 1, 2) failed")):
            run_stage("oracle", replace(diverging, seeds=(1,)), out)


class TestReferenceConfig:
    def test_reference_is_valid_and_overridable(self):
        cfg = reference_config(seeds=(0, 1, 2))
        assert cfg.suite.n_tasks == 6
        assert cfg.seeds == (0, 1, 2)
        alt = reference_config(mapping_kind="affine")
        assert alt.mapping_kind == "affine"
