import json

import pytest

from mtlgrouping.artifacts import to_json
from mtlgrouping.cli import main
from mtlgrouping.experiment import at, compare_ablations, run_dirs

from test_experiment import count_training, tiny_config


@pytest.fixture()
def config_file(tmp_path):
    cfg = tiny_config(tmp_path / "out", seeds=(0,))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(to_json(cfg), indent=2))
    return path, tmp_path / "out"


class TestSubcommands:
    def test_run_pipeline(self, config_file, capsys):
        path, out = config_file
        assert main(["run", "--config", str(path)]) == 0
        assert (out / "report.json").exists()
        assert capsys.readouterr().err == ""

    def test_stagewise_execution(self, config_file):
        path, out = config_file
        for stage in ("generate", "train-affinity", "oracle", "fit",
                      "evaluate", "select", "report"):
            assert main([stage, "--config", str(path)]) == 0, stage
        assert (out / "report.json").exists()

    def test_ablate(self, config_file):
        path, out = config_file
        assert main(["run", "--config", str(path)]) == 0
        assert main(["ablate", "--config", str(path)]) == 0
        assert (out / "ablation.json").exists()

    def test_ablate_after_run_trains_nothing(self, config_file, tmp_path, monkeypatch):
        path, out = config_file
        assert main(["run", "--config", str(path)]) == 0
        calls = count_training(monkeypatch)
        assert main(["ablate", "--config", str(path)]) == 0
        assert calls == []
        fresh = tmp_path / "fresh"
        compare_ablations(tiny_config(fresh, seeds=(0,)))
        for key in ("ablation", "ablation_txt"):
            assert at(out, key).read_bytes() == at(fresh, key).read_bytes(), key

    def test_ablate_checks_the_gain_records(self, config_file, capsys):
        # the run's record, not an oracle rerun, reaches ablate's reader
        path, out = config_file
        assert main(["run", "--config", str(path)]) == 0
        records = at(run_dirs(tiny_config(out, seeds=(0,)), out)[0], "gains_train")
        lines = records.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        task = next(iter(row["gains"]))
        row["gains"][task] += 0.5
        lines[1] = json.dumps(row) + "\n"
        records.write_text("".join(lines))
        capsys.readouterr()
        assert main(["ablate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage ablate: {records} line 2: gain {row['gains'][task]!r} "
                              f"of task {task} in group ")
        assert "is not relative_gain(" in err
        assert not at(out, "ablation").exists()

    def test_ablate_on_an_empty_directory_names_the_first_stage(self, config_file, capsys):
        path, out = config_file
        assert main(["ablate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"stage ablate: missing {out / 'runs' / '00_seed0' / 'affinity.json'}, written by "
            "train-affinity; run train-affinity\n")
        assert not out.exists()

    def test_missing_upstream_is_nonzero_with_stage_name(self, config_file, capsys):
        path, _ = config_file
        assert main(["fit", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "stage fit" in err

    def test_out_override(self, config_file, tmp_path):
        path, _ = config_file
        other = tmp_path / "elsewhere"
        assert main(["generate", "--config", str(path), "--out", str(other)]) == 0
        assert (other / "suite" / "spec.json").exists()

    def test_set_override(self, config_file, tmp_path):
        path, _ = config_file
        other = tmp_path / "override"
        assert main([
            "generate", "--config", str(path),
            "--set", f"output_dir={other}",
            "--set", "suite.seed=99",
        ]) == 0
        sidecar = json.loads((other / "suite" / "spec.json").read_text())
        assert sidecar["spec"]["seed"] == 99

    @pytest.mark.parametrize("override", ["train.epoch=100", "suite.sed=3"])
    def test_set_unknown_key_fails(self, config_file, capsys, override):
        path, out = config_file
        assert main(["generate", "--config", str(path), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage config: ")
        assert override.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("override, parent", [("suite.seed.x=1", "suite.seed"),
                                                  ("seeds.0=1", "seeds")])
    def test_set_below_a_non_object_names_the_parent(self, config_file, capsys,
                                                     override, parent):
        path, out = config_file
        assert main(["generate", "--config", str(path), "--set", override]) == 1
        key = override.split("=")[0]
        assert capsys.readouterr().err == (
            f"stage config: --set {key}: {parent} is not an object\n")
        assert not out.exists()

    # json reads NaN and Infinity as floats; the config check must refuse them
    @pytest.mark.parametrize("override, key", [("train.learning_rate=NaN", "learning_rate"),
                                               ("suite.label_noise_std=Infinity",
                                                "label_noise_std")])
    def test_set_non_finite_float_fails(self, config_file, capsys, override, key):
        path, out = config_file
        assert main(["generate", "--config", str(path), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage config: {key} must be ")
        assert err.rstrip().endswith("and finite")
        assert not out.exists()

    def test_set_bare_word_is_a_string_and_fails(self, config_file, capsys):
        path, out = config_file
        assert main(["generate", "--config", str(path), "--set", "residual_enabled=no"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage config: ")
        assert "'residual_enabled'" in err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("seeds=[0,0]", "seeds must be distinct"),
        ("train.seed=5", "train.seed must be 0, got 5: each run trains with its entry of seeds"),
    ])
    def test_set_config_check_fails(self, config_file, capsys, override, message):
        path, out = config_file
        assert main(["run", "--config", str(path), "--set", override]) == 1
        assert capsys.readouterr().err == f"stage config: {message}\n"
        assert not out.exists()

    def test_bad_config_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"nope\": 1}")
        assert main(["run", "--config", str(path)]) == 1
        assert "config" in capsys.readouterr().err

    def test_bad_set_flag(self, config_file, capsys):
        path, _ = config_file
        assert main(["generate", "--config", str(path), "--set", "oops"]) == 1
        assert "key=value" in capsys.readouterr().err
