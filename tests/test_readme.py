"""README's "Library use" block runs as written, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mtlgrouping

SRC = Path(mtlgrouping.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(tmp_path):
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert block, "README.md has no python block right under '## Library use'"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", block.group(1)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    predictions, chosen = done.stdout.splitlines()
    assert predictions.startswith("[{0: ") and chosen.startswith("((")
