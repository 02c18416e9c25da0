import json

import pytest

from mtlgrouping.artifacts import to_json
from mtlgrouping.cli import main

from test_experiment import tiny_config


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
        assert main(["ablate", "--config", str(path)]) == 0
        assert (out / "ablation.json").exists()

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

    def test_set_bare_word_is_a_string_and_fails(self, config_file, capsys):
        path, out = config_file
        assert main(["generate", "--config", str(path), "--set", "residual_enabled=no"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage config: ")
        assert "'residual_enabled'" in err
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
