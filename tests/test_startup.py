"""Start-up stays small: no stage imports scipy, no one-seed stage imports a pool, and
only a stage that draws random numbers loads ``numpy.random``.

Each CLI stage runs in its own process, and importing ``scipy.linalg`` alone
would take about half of a fresh process's start-up. Oracle and report import
``concurrent.futures`` and ``multiprocessing`` only when they fork workers for
more than one seed. ``numpy.random`` loads ``secrets``, ``hashlib`` and
OpenSSL; ``seeding`` names it only in a string annotation, so evaluate and
select, which draw nothing, never load it. Other tests import these modules in
this process, so each group of stages runs here in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtlgrouping
from mtlgrouping.artifacts import save

from test_experiment import tiny_config

SRC = Path(mtlgrouping.__file__).resolve().parent.parent

# a watched name stands for the package and every module under it
WATCHED = ("scipy", "concurrent.futures", "multiprocessing")
RANDOM = "numpy.random"

# prints which watched packages are loaded after the import, then after each stage
PROBE = f"""
import json, sys
import mtlgrouping, mtlgrouping.cli
def loaded():
    return [name for name in {WATCHED + (RANDOM,)!r}
            if any(m == name or m.startswith(name + ".") for m in sys.modules)]
seen = [loaded()]
for stage in sys.argv[2:]:
    assert mtlgrouping.cli.main([stage, "--config", sys.argv[1]]) == 0, stage
    seen.append(loaded())
print(json.dumps(seen))
"""


def loaded_after(config_path, *stages) -> list[list[str]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", PROBE, str(config_path), *stages],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """Watched modules after the import and each one-seed stage, in three processes."""
    tmp_path = tmp_path_factory.mktemp("startup")
    config_path = tmp_path / "config.json"
    save(config_path, tiny_config(tmp_path / "out", seeds=(0,)))
    return (loaded_after(config_path, "generate", "train-affinity", "oracle"),
            loaded_after(config_path, "fit"),
            loaded_after(config_path, "evaluate", "select", "report"))


@pytest.fixture(scope="module")
def one_seed(probed):
    """``probed`` without ``numpy.random``."""
    return [[[name for name in seen if name != RANDOM] for seen in group] for group in probed]


def test_no_stage_imports_scipy(one_seed):
    assert [["scipy" in seen for seen in group] for group in one_seed] == [
        [False] * 4, [False] * 2, [False] * 4]


def test_one_seed_stages_import_no_pool(one_seed):
    upstream, fit, downstream = one_seed
    assert upstream == downstream == [[]] * 4
    assert fit == [[]] * 2


def test_only_stages_that_draw_load_numpy_random(probed):
    upstream, fit, downstream = [[RANDOM in seen for seen in group] for group in probed]
    assert upstream[:2] == [False, True]  # the import, then generate
    assert fit[0] is False
    assert downstream[:3] == [False, False, False]  # the import, evaluate, select
