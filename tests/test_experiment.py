import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from mtlgrouping import gains as gn
from mtlgrouping.engine import TrainConfig
from mtlgrouping.experiment import (
    STAGES,
    ExperimentConfig,
    StageError,
    compare_ablations,
    config_from_dict,
    config_to_dict,
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
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_load_from_file(self, tmp_path):
        cfg = tiny_config(tmp_path / "x")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
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
        data = config_to_dict(tiny_config(tmp_path / "x"))
        (data if section is None else data[section])[key] = 3
        dotted = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=f"unknown config key '{dotted}'"):
            config_from_dict(data)

    def test_schema_checked_when_present(self, tmp_path):
        cfg = tiny_config(tmp_path / "x")
        data = config_to_dict(cfg)
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


class TestStageErrors:
    def test_missing_upstream_names_stage(self, tmp_path):
        cfg = tiny_config(tmp_path / "x")
        with pytest.raises(StageError, match="stage train-affinity"):
            run_stage("train-affinity", cfg, resolve_output_dir(cfg))

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
        trained = []
        train_mtl = gn.train_mtl

        def counting_train_mtl(group, *args, **kwargs):
            trained.append(tuple(group))
            return train_mtl(group, *args, **kwargs)

        monkeypatch.setattr(gn, "train_mtl", counting_train_mtl)
        run_stage("report", cfg, out)
        monkeypatch.undo()
        rd = run_dirs(cfg, out)[0]
        groups = json.loads((rd / "groups.json").read_text())
        oracle = {tuple(g) for g in groups["train"] + groups["heldout"]}
        candidates = enumerate_candidate_groups(cfg.suite.n_tasks)
        assert sorted(trained) == sorted(set(candidates) - oracle)
        # reused and fresh records together equal measuring every candidate
        expected = tmp_path / "expected.jsonl"
        tc = replace(cfg.train, seed=cfg.seeds[0])
        gn.save_records(
            gn.measure_gains_batch(candidates, load_suite(out / "suite"), tc).records, expected)
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


class TestReferenceConfig:
    def test_reference_is_valid_and_overridable(self):
        cfg = reference_config(seeds=(0, 1, 2))
        assert cfg.suite.n_tasks == 6
        assert cfg.seeds == (0, 1, 2)
        alt = reference_config(mapping_kind="affine")
        assert alt.mapping_kind == "affine"
