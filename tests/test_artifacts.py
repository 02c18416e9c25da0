import re
from pathlib import Path

import numpy as np
import pytest

import mtlgrouping
from mtlgrouping.affinity import AffinityMatrix, load_matrix, matrix_to_dict
from mtlgrouping.artifacts import read_json, read_jsonl, write_json, write_jsonl
from mtlgrouping.selector import SelectionResult, result_from_dict, result_to_dict
from mtlgrouping.suite import TaskSuiteSpec, generate_suite, load_suite, save_suite

PACKAGE = Path(mtlgrouping.__file__).parent

# open(...) with a mode that can write, or a pathlib write helper
_WRITE_CALL = re.compile(
    r"""\bopen\([^)]*["'][rbt]*[wax+][rbtwax+]*["']|\.write_(text|bytes)\(""")


class TestWriting:
    def test_json_bytes(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": 1.5, "a": [1, 2]})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1.5\n}\n'
        assert read_json(path) == {"a": [1, 2], "b": 1.5}

    def test_jsonl_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, ({"i": i, "a": None} for i in range(3)))
        assert path.read_text().splitlines()[0] == '{"a": null, "i": 0}'
        path.write_text(path.read_text() + "\n")
        assert list(read_jsonl(path)) == [{"a": None, "i": i} for i in range(3)]


def _affinity(directory):
    matrix = AffinityMatrix(values=np.eye(2), steps_used=np.ones((2, 2), dtype=int))
    write_json(directory / "affinity.json", matrix_to_dict(matrix))
    return directory / "affinity.json", load_matrix


def _selection(directory):
    result = SelectionResult(chosen=((0, 1),), objective=0.5, assignment={0: (0, 1), 1: (0, 1)})
    write_json(directory / "selection.json", result_to_dict(result))
    return directory / "selection.json", lambda path: result_from_dict(read_json(path))


def _suite(directory):
    spec = TaskSuiteSpec(n_tasks=2, input_dim=2, n_clusters=1, within_cluster_similarity=0.5,
                         label_noise_std=0.1, samples_per_split=(4, 2, 4), seed=0)
    save_suite(generate_suite(spec), directory / "suite")
    return directory / "suite" / "spec.json", lambda path: load_suite(path.parent)


@pytest.mark.parametrize("make, schema", [
    (_affinity, "affinity/1"), (_selection, "selection/1"), (_suite, "suite/1"),
], ids=["affinity", "selection", "suite"])
@pytest.mark.parametrize("wrong", ["other/1", None])
def test_wrong_schema_rejected(tmp_path, make, schema, wrong):
    path, load = make(tmp_path)
    load(path)
    data = read_json(path)
    assert data["schema"] == schema
    if wrong is None:
        del data["schema"]
    else:
        data["schema"] = wrong
    write_json(path, data)
    with pytest.raises(ValueError, match=f"unsupported schema {wrong!r}, expected '{schema}'"):
        load(path)


def test_only_artifacts_module_writes_files():
    writers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "artifacts.py" and _WRITE_CALL.search(path.read_text()))
    assert writers == []


@pytest.mark.parametrize("line, writes", [
    ('with open(path, "w") as fh:', True),
    ("open(p, mode='a', newline='')", True),
    ('open(path, "rb+")', True),
    ('path.write_text("x")', True),
    ("with open(path) as fh:", False),
    ('with open(directory / f"task_{t}.csv", newline="") as fh:', False),
])
def test_write_pattern(line, writes):
    assert bool(_WRITE_CALL.search(line)) == writes
