"""Only a process that fits a predictor imports scipy.linalg.

Each CLI stage runs in its own process, and importing ``scipy.linalg`` takes
about half of a fresh process's start-up. Other tests import it in this
process, so each group of stages runs here in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mtlgrouping
from mtlgrouping.artifacts import save

from test_experiment import tiny_config

SRC = Path(mtlgrouping.__file__).resolve().parent.parent

# prints whether scipy.linalg is loaded after the import, then after each stage
PROBE = """
import json, sys
import mtlgrouping, mtlgrouping.cli
loaded = ["scipy.linalg" in sys.modules]
for stage in sys.argv[2:]:
    assert mtlgrouping.cli.main([stage, "--config", sys.argv[1]]) == 0, stage
    loaded.append("scipy.linalg" in sys.modules)
print(json.dumps(loaded))
"""


def loaded_after(config_path, *stages) -> list[bool]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", PROBE, str(config_path), *stages],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_fit_imports_scipy_linalg(tmp_path):
    config_path = tmp_path / "config.json"
    save(config_path, tiny_config(tmp_path / "out", seeds=(0,)))
    assert loaded_after(config_path, "generate", "train-affinity", "oracle") == [False] * 4
    assert loaded_after(config_path, "fit") == [False, True]
    assert loaded_after(config_path, "evaluate", "select", "report") == [False] * 4
