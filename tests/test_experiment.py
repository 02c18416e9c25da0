import json
import math
import multiprocessing
import os
import pickle
import re
import shutil
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from mtlgrouping import engine
from mtlgrouping import gains as gn
from mtlgrouping import selector as sel
from mtlgrouping.artifacts import read_json, to_json
from mtlgrouping.engine import TrainConfig
from mtlgrouping.experiment import (
    PIPELINE,
    STAGES,
    ExperimentConfig,
    StageError,
    at,
    compare_ablations,
    config_from_dict,
    expand,
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


def declared(cfg, patterns) -> list[str]:
    """Every path under an output directory that ``patterns`` name for ``cfg``."""
    return [rel for pattern in patterns for rel in expand(pattern, cfg)]


def copy_files(src: Path, dst: Path, rels) -> None:
    for rel in rels:
        (dst / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src / rel, dst / rel)


def stage_entry(name: str):
    return PIPELINE[STAGES.index(name)]


class TestConfig:
    def test_dict_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path / "x", mapping_kind="affine", residual_enabled=False)
        assert config_from_dict(to_json(cfg)) == cfg

    def test_load_from_file(self, tmp_path):
        cfg = tiny_config(tmp_path / "x")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(to_json(cfg)))
        assert config_from_dict(read_json(path)) == cfg

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

    def test_too_few_training_pairs_rejected(self):
        # one training group of two tasks can never give fit three pairs; with
        # group_sizes = (2, 3) it depends on the seed, so the config allows it
        with pytest.raises(ValueError, match="^" + re.escape(
                "n_train_groups = 1 with group_sizes = [2, 2] leaves fit under three "
                "training pairs") + "$"):
            reference_config(n_train_groups=1, n_heldout_groups=5, group_sizes=(2, 2))
        assert reference_config(n_train_groups=1, n_heldout_groups=5,
                                group_sizes=(2, 3)).n_train_groups == 1
        assert reference_config(n_train_groups=2, n_heldout_groups=5,
                                group_sizes=(2, 2)).n_train_groups == 2

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="budgets"):
            tiny_config(tmp_path, budgets=())
        with pytest.raises(ValueError, match="mapping_kind"):
            tiny_config(tmp_path, mapping_kind="cubist")
        with pytest.raises(ValueError, match="size range"):
            tiny_config(tmp_path, group_sizes=(2, 9))

    @pytest.mark.parametrize("sizes", [(1, 0), (3, 2), (2, 9)])
    def test_bad_group_sizes_named_as_written(self, tmp_path, sizes):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"group_sizes = {list(sizes)} is not a valid size range for 4 tasks: "
                "need 2 <= lo <= hi <= 4, with hi = 0 meaning all tasks") + "$"):
            tiny_config(tmp_path, group_sizes=sizes)

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
        # a full run leaves exactly the files its stages declare they write
        cfg, out, _, _ = finished
        written = declared(cfg, [p for stage in PIPELINE for p in stage.writes])
        assert all_artifacts(out) == sorted(map(Path, written))

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
        # config.json embeds the toggle and the output directory
        upstream = [p for stage in PIPELINE[:STAGES.index("fit")] for p in stage.writes
                    if p != "config.json"]
        for rel in declared(cfg, upstream):
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        for rel in declared(cfg, stage_entry("fit").writes):
            assert (out / rel).read_bytes() != (out2 / rel).read_bytes(), rel


class TestStageTable:
    def test_reads_come_from_an_earlier_stage(self):
        writers = [(p, stage.name) for stage in PIPELINE for p in stage.writes]
        assert len({p for p, _ in writers}) == len(writers), "a file with two writers"
        for i, stage in enumerate(PIPELINE):
            for pattern in stage.reads:
                assert pattern in [p for s in PIPELINE[:i] for p in s.writes], (stage.name, pattern)

    @pytest.mark.parametrize("stage", STAGES)
    def test_stage_alone_writes_its_declared_files(self, finished, tmp_path, stage):
        # run in a directory holding only its declared reads, a stage writes
        # exactly its declared files, with the bytes of the full run
        cfg, out, _, _ = finished
        entry = stage_entry(stage)
        reads, writes = declared(cfg, entry.reads), declared(cfg, entry.writes)
        alone = tmp_path / "alone"
        copy_files(out, alone, reads)
        run_stage(stage, cfg, alone)
        assert all_artifacts(alone) == sorted(map(Path, reads + writes))
        for rel in reads + writes:
            assert (alone / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_formats_layout_lists_every_write(self):
        # FORMATS.md's layout block has one row per declared write, pattern then
        # writer, besides the rows of the ablation command
        text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
        block = re.search(r"^## Experiment layout\n\n```\n(.*?)^```$", text,
                          re.MULTILINE | re.DOTALL)
        assert block, "FORMATS.md has no code block right under '## Experiment layout'"
        rows = [line.split()[:2] for line in block.group(1).splitlines()[1:]]
        assert rows[-2:] == [["ablation.json", "ablate"], ["ablation.txt", "ablate"]]
        assert rows[:-2] == [[p, stage.name] for stage in PIPELINE for p in stage.writes]


class TestStageErrors:
    @pytest.mark.parametrize("stage", [stage.name for stage in PIPELINE if stage.reads])
    def test_missing_upstream_names_stage(self, finished, tmp_path, stage):
        # each declared read in turn is the one input missing: the error names
        # the stage that writes it, and the stage writes nothing
        cfg, out, _, _ = finished
        reads = declared(cfg, stage_entry(stage).reads)
        for i, missing in enumerate(reads):
            copy = tmp_path / str(i)
            present = [rel for rel in reads if rel != missing]
            copy_files(out, copy, present)
            (writer,) = [s.name for s in PIPELINE if missing in declared(cfg, s.writes)]
            with pytest.raises(StageError, match="^" + re.escape(
                    f"stage {stage}: missing {copy / missing}, written by {writer}; "
                    f"run {writer}") + "$"):
                run_stage(stage, cfg, copy)
            assert all_artifacts(copy) == sorted(map(Path, present))

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
        with pytest.raises(StageError, match=re.escape(
                f"stage {stage}: {path}: unsupported schema 'other/1', expected '{schema}'")):
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
        with pytest.raises(StageError, match=re.escape(f"stage {stage}: {path}: {message}")):
            run_stage(stage, cfg, copy)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data["assignment"].pop("3"),
         "{path} assigns 3 tasks, not the config's 4; rerun select"),
        (lambda data: data["assignment"].update({"4": None}),
         "{path} assigns 5 tasks, not the config's 4; rerun select"),
        (lambda data: data["assignment"].pop("1"),
         "{path}: assignment must map tasks 0..2, got tasks [0, 2, 3]"),
        (lambda data: data["assignment"].update({"0": [1, 2]}),
         "{path}: task 0 is assigned group [1, 2], which is not a chosen group holding it"),
    ], ids=["task-left-out", "extra-task", "task-gap", "foreign-group"])
    def test_selection_not_covering_the_tasks_rejected_at_report(self, finished, tmp_path,
                                                                  edit, message):
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[0] / "selection_B2.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(StageError, match="^stage report: "
                                             + re.escape(message.format(path=path)) + "$"):
            run_stage("report", cfg, copy)

    def test_selection_outside_the_universe_rejected_at_report(self, tmp_path):
        # the all-task group is measured for the naive baseline, but group_sizes
        # keeps it out of the selector's candidates
        out = tmp_path / "capped"
        cfg = tiny_config(out, seeds=(0,), group_sizes=(2, 3),
                          n_train_groups=4, n_heldout_groups=4)
        run_experiment(cfg)
        path = run_dirs(cfg, out)[0] / "selection_B2.json"
        path.write_text(json.dumps({"schema": "selection/1", "chosen": [[0, 1, 2, 3]],
                                    "objective": 1.0,
                                    "assignment": {str(t): [0, 1, 2, 3] for t in range(4)}}))
        with pytest.raises(StageError, match="^stage report: " + re.escape(
                f"{path} chooses [[0, 1, 2, 3]], which are not candidate groups of this "
                "config; rerun select") + "$"):
            run_stage("report", cfg, out)

    @pytest.mark.parametrize("stage", ["train-affinity", "oracle", "report"])
    def test_suite_from_other_spec_rejected(self, tmp_path, stage):
        out = tmp_path / "respec"
        cfg = tiny_config(out, seeds=(0,))
        for upstream in STAGES[:STAGES.index(stage)]:
            run_stage(upstream, cfg, out)
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

    @pytest.mark.parametrize("stage", ["fit", "evaluate", "report"])
    def test_overlapping_groups_rejected_at_fit(self, finished, tmp_path, stage):
        # every reader of groups.json rejects a held-out group that is also a training group
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        rd = run_dirs(cfg, copy)[0]
        groups = json.loads((rd / "groups.json").read_text())
        groups["heldout"][0] = groups["train"][0]
        (rd / "groups.json").write_text(json.dumps(groups))
        with pytest.raises(StageError, match="^" + re.escape(
                f"stage {stage}: {rd / 'groups.json'}: training and held-out groups "
                "overlap") + "$"):
            run_stage(stage, cfg, copy)

    @pytest.mark.parametrize("name, edit, message", [
        ("groups.json", lambda records: records[0]["train"][0].__setitem__(0, 1e300),
         "{path}: key 'train' must be int, got 1e+300"),
        ("gains_train.jsonl", lambda records: records[1].update(seed=1e300),
         "{path} line 2: key 'seed' must be int, got 1e+300"),
    ], ids=["groups", "gains"])
    def test_reading_error_names_the_file(self, finished, tmp_path, name, edit, message):
        # a typed-reader error names the file, and in a JSON-lines file the line
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[0] / name
        text = path.read_text()
        records = [json.loads(line) for line in text.splitlines()] \
            if name.endswith(".jsonl") else [json.loads(text)]
        edit(records)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(StageError, match="^" + re.escape(
                "stage fit: " + message.format(path=path)) + "$"):
            run_stage("fit", cfg, copy)

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
                f"stage fit: {path} line 1: group {record['group']} must be two or more "
                "strictly increasing")):
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
                f"stage fit: {path}: group {groups['train'][0]} must be two or more "
                "strictly increasing")):
            run_stage("fit", cfg, copy)

    @pytest.mark.parametrize("stage, split, other", [
        ("fit", "train", "heldout"), ("evaluate", "heldout", "train"),
        ("report", "heldout", "train"),
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

    @pytest.mark.parametrize("stage, split", [
        ("fit", "train"), ("evaluate", "heldout"), ("report", "train"),
    ])
    def test_record_of_another_seed_rejected(self, finished, tmp_path, stage, split):
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = run_dirs(cfg, copy)[1] / f"gains_{split}.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        assert record["seed"] == cfg.seeds[1]
        record["seed"] = 99
        path.write_text(json.dumps(record) + "\n" + "".join(rest))
        with pytest.raises(StageError, match="^" + re.escape(
                f"stage {stage}: {path} holds the record of group {record['group']} under "
                f"seed 99, not the run's seed {cfg.seeds[1]}; rerun oracle") + "$"):
            run_stage(stage, cfg, copy)

    @pytest.mark.parametrize("stage", ["evaluate", "select"])
    @pytest.mark.parametrize("key, value", [
        ("mapping_kind", "affine"), ("residual_enabled", False), ("n_tasks", 5),
    ])
    def test_predictor_of_another_config_rejected(self, finished, tmp_path, stage, key, value):
        # the stage must not score or select with a predictor that fit did not
        # fit under this config
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        if key == "n_tasks":
            other, stored = replace(cfg, suite=replace(cfg.suite, n_tasks=value)), cfg.suite.n_tasks
        else:
            other, stored = replace(cfg, **{key: value}), getattr(cfg, key)
        path = run_dirs(cfg, copy)[0] / "predictor.json"
        with pytest.raises(StageError, match="^" + re.escape(
                f"stage {stage}: {path} holds {key} = {stored!r} where the config has "
                f"{value!r}; rerun fit") + "$"):
            run_stage(stage, other, copy)

    def test_select_predicts_once_per_run(self, finished, tmp_path, monkeypatch):
        # two budgets select from one prediction of the candidates, and the
        # selections keep the bytes of one budget at a time
        cfg, out, _, _ = finished
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        both = replace(cfg, budgets=(1, 2))
        calls = []
        predict = sel.predict_from_matrix

        def counting_predict(*args, **kwargs):
            calls.append(1)
            return predict(*args, **kwargs)

        monkeypatch.setattr(sel, "predict_from_matrix", counting_predict)
        run_stage("select", both, copy)
        assert len(calls) == len(cfg.seeds)
        monkeypatch.undo()
        for budget in both.budgets:
            alone = tmp_path / f"alone{budget}"
            shutil.copytree(out, alone)
            run_stage("select", replace(cfg, budgets=(budget,)), alone)
            for rd, rd_alone in zip(run_dirs(cfg, copy), run_dirs(cfg, alone)):
                for suffix in ("json", "txt"):
                    name = f"selection_B{budget}.{suffix}"
                    assert (rd / name).read_bytes() == (rd_alone / name).read_bytes()

    def test_unknown_stage_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "unknown"
        with pytest.raises(ValueError, match="^" + re.escape(
                "unknown stage 'fitt'; the stages are generate, train-affinity, oracle, fit, "
                "evaluate, select, report") + "$"):
            run_stage("fitt", tiny_config(out, seeds=(0,)), out)
        assert not out.exists()

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


def numeric_leaves(node, path=()):
    """The key paths of every int or float leaf under ``node``; a bool is not a number."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


# json's tokens for non-finite floats, and Python's, as a CSV or table would print them
NON_FINITE_TOKEN = re.compile(r"\b(?:NaN|Infinity|nan|inf)\b")


def must_reject(rel: str, leaf: tuple, value: float) -> bool:
    """Edits that no stage may accept, whatever it goes on to write."""
    return (not math.isfinite(value) or Path(rel).name.startswith("gains_")
            or (leaf[-1], value) in (("mse", -1), ("r2", 1e300), ("pearson", 1e300)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a stage's numpy warnings, as in a run
def test_every_numeric_edit_rejected_or_finite(tmp_path):
    # every numeric leaf of every JSON artifact a stage reads, set in turn to each
    # value below: the stages from its first reader through report either raise
    # StageError or write no non-finite value
    out = tmp_path / "sweep"
    cfg = tiny_config(out, seeds=(0,))
    run_experiment(cfg)
    finished = {rel: (out / rel).read_bytes() for rel in all_artifacts(out)}
    read = dict.fromkeys(rel for stage in PIPELINE for rel in declared(cfg, stage.reads)
                         if rel.endswith((".json", ".jsonl")))
    assert sorted(Path(rel).name for rel in read) == [
        "affinity.json", "eval.json", "gains_heldout.jsonl", "gains_train.jsonl",
        "groups.json", "predictor.json", "selection_B2.json", "spec.json"]
    edits, accepted, wrong = 0, [], []
    for rel in read:
        first = next(i for i, stage in enumerate(PIPELINE) if rel in declared(cfg, stage.reads))
        rerun = [stage.name for stage in PIPELINE[first:]]
        written = declared(cfg, [p for stage in PIPELINE[first:] for p in stage.writes])
        text = finished[Path(rel)].decode()
        records = [json.loads(line) for line in text.splitlines()] \
            if rel.endswith(".jsonl") else [json.loads(text)]
        for i, record in enumerate(records):
            for leaf in numeric_leaves(record):
                for value in (math.nan, math.inf, -1, 1e300):
                    edits += 1
                    # a fresh copy of the finished run, then the edit
                    for name, data in finished.items():
                        (out / name).write_bytes(data)
                    edited = json.loads(json.dumps(records))
                    node = edited[i]
                    for key in leaf[:-1]:
                        node = node[key]
                    node[leaf[-1]] = value
                    (out / rel).write_text("".join(json.dumps(r) + "\n" for r in edited))
                    case = (rel, i, leaf, value)
                    try:
                        for stage in rerun:
                            run_stage(stage, cfg, out)
                    except StageError:
                        continue
                    if must_reject(rel, leaf, value):
                        accepted.append(case)
                    wrong += [case + (name,) for name in written
                              if NON_FINITE_TOKEN.search((out / name).read_text())]
    assert edits > 1000
    assert accepted == [], f"{len(accepted)} edits that must fail passed, first {accepted[:5]}"
    assert wrong == [], f"{len(wrong)} non-finite values written, first {wrong[:5]}"


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

    @pytest.mark.parametrize("key, edit, message", [
        ("eval", lambda data: data["final"].update(r2=math.nan),
         ": metrics must be finite, got r2 = nan"),
        ("selection", lambda data: data.update(
            chosen=[[0, 1, 2, 3]], assignment={str(t): [0, 1, 2, 3] for t in range(4)}),
         " chooses [[0, 1, 2, 3]], which are not candidate groups of this config; rerun select"),
    ], ids=["eval", "selection"])
    def test_bad_input_rejected_before_training(self, tmp_path, monkeypatch, key, edit, message):
        # group sizes capped at 3, so that the all-task group is no candidate
        out = tmp_path / "early"
        cfg = tiny_config(out, seeds=(0,), group_sizes=(2, 3),
                          n_train_groups=4, n_heldout_groups=4)
        for stage in STAGES[:-1]:
            run_stage(stage, cfg, out)
        path = at(run_dirs(cfg, out)[0], key, budget=2)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        calls = []
        train_stack = engine._train_stack

        def counting_train_stack(*args, **kwargs):
            calls.append(len(args[1]))
            return train_stack(*args, **kwargs)

        monkeypatch.setattr(engine, "_train_stack", counting_train_stack)
        with pytest.raises(StageError, match="^stage report: " + re.escape(f"{path}{message}")):
            run_stage("report", cfg, out)
        assert calls == []


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
        # a corrupt file, not a missing one, which run_stage would catch
        # before any worker starts
        out = tmp_path / "corrupt"
        cfg = tiny_config(out)
        for stage in STAGES[:-1]:
            run_stage(stage, cfg, out)
        path = run_dirs(cfg, out)[1] / "selection_B2.json"
        path.write_text(path.read_text().replace('"selection/1"', '"other/1"'))
        inline, pooled = self.inline_then_pooled_error(cpus, "report", cfg, out)
        assert pooled == inline == \
            f"stage report: {path}: unsupported schema 'other/1', expected 'selection/1'"

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
