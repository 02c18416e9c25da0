import ast
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import mtlgrouping
from mtlgrouping.affinity import AffinityMatrix, load_matrix, save_matrix
from mtlgrouping.artifacts import (
    from_dict,
    load,
    load_lines,
    read_json,
    save,
    to_json,
    write_json,
    write_jsonl,
)
from mtlgrouping.engine import Trace, _TraceLine, load_trace, save_trace
from mtlgrouping.ensemble import EnsemblePredictor, Stage1Model, load_predictor
from mtlgrouping.experiment import RunEval, RunGroups
from mtlgrouping.gains import GainRecord, load_records, relative_gain, save_records
from mtlgrouping.metrics import EvalReport
from mtlgrouping.ridge import RidgeModel
from mtlgrouping.selector import SelectionResult, result_from_dict
from mtlgrouping.splines import fit_knot_grid
from mtlgrouping.suite import TaskSuiteSpec, generate_suite, load_suite, save_suite

PACKAGE = Path(mtlgrouping.__file__).parent

# open(...) with a mode that can write, or a pathlib write helper
_WRITE_CALL = re.compile(
    r"""\bopen\([^)]*["'][rbt]*[wax+][rbtwax+]*["']|\.write_(text|bytes)\(""")


@dataclass(frozen=True)
class _Row:
    i: int
    a: int | None


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
        assert load_lines(path, _Row) == [_Row(i=i, a=None) for i in range(3)]

    def test_typed_lines_error_names_the_line(self, tmp_path):
        # blank lines count, so the number is the line an editor shows
        path, load = _gains(tmp_path)
        path.write_text("\n" + path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path} line 3: Expecting")):
            load(path)


def _affinity(directory):
    matrix = AffinityMatrix(values=np.eye(2), steps_used=np.ones((2, 2), dtype=int))
    save_matrix(matrix, directory / "affinity.json")
    return directory / "affinity.json", load_matrix


def _selection(directory):
    result = SelectionResult(chosen=((0, 1),), objective=0.5, assignment={0: (0, 1), 1: (0, 1)})
    save(directory / "selection.json", result)
    return directory / "selection.json", lambda path: result_from_dict(read_json(path))


def _groups(directory):
    save(directory / "groups.json", RunGroups(train=((0, 1), (1, 2, 3)), heldout=((0, 2),)))
    return directory / "groups.json", lambda path: load(path, RunGroups)


def _eval(directory):
    report = EvalReport(r2=0.5, pearson=0.75, mse=0.125, n_points=8)
    save(directory / "eval.json", RunEval(final=report, stage1=report))
    return directory / "eval.json", lambda path: load(path, RunEval)


def _suite(directory):
    spec = TaskSuiteSpec(n_tasks=2, input_dim=2, n_clusters=1, within_cluster_similarity=0.5,
                         label_noise_std=0.1, samples_per_split=(4, 2, 4), seed=0)
    save_suite(generate_suite(spec), directory / "suite")
    return directory / "suite" / "spec.json", lambda path: load_suite(path.parent)


def _predictor(directory):
    model = RidgeModel(coefficients=np.array([0.5, 2.0]), intercept=0.1, lam=0.1)
    stage1 = Stage1Model(mapping_kind="affine", model=model, spline=None, z_lo=-1.0, z_hi=1.0)
    predictor = EnsemblePredictor(stage1=stage1, residual_models={1: model},
                                  residual_enabled=True, n_tasks=2)
    save(directory / "predictor.json", predictor)
    return directory / "predictor.json", load_predictor


@pytest.mark.parametrize("make, schema", [
    (_affinity, "affinity/1"), (_selection, "selection/1"), (_suite, "suite/1"),
    (_groups, "groups/1"), (_eval, "eval/1"), (_predictor, "predictor/1"),
], ids=["affinity", "selection", "suite", "groups", "eval", "predictor"])
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


def _gains(directory):
    record = GainRecord(group=(0, 2), gains={0: 0.25, 2: -0.25}, stl_losses={0: 1.0, 2: 2.0},
                        mtl_losses={0: 0.75, 2: 2.5}, seed=3)
    save_records([record], directory / "gains.jsonl")
    return directory / "gains.jsonl", load_records


def _trace(directory):
    trace = Trace((0, 1), losses=np.array([[1.0, 2.0]]),
                  gradients=np.array([[[0.5, -0.5], [0.25, 0.0]]]),
                  velocity_in=np.array([[0.0, 0.1]]))
    save_trace(trace, directory / "trace.jsonl")
    return directory / "trace.jsonl", load_trace


def _set(data, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize("make, dotted, value, match", [
    (_selection, "chosen", [[0, 1.7]], "key 'chosen' must be int, got 1.7"),
    (_selection, "objective", "0.5", "key 'objective' must be float, got '0.5'"),
    (_selection, "assignment.0", [0, True], "key 'assignment.0' must be int, got True"),
    (_gains, "gains.0", "0.1", "key 'gains.0' must be float, got '0.1'"),
    (_gains, "seed", 3.0, "key 'seed' must be int, got 3.0"),
    (_gains, "gains", {"01": 0.1, "2": -0.05},
     "key 'gains.01' must be a decimal integer such as '0' or '10', got '01'"),
    (_gains, "mtl_losses", {"x": 0.9, "2": 2.1}, "key 'mtl_losses.x' must be a decimal integer"),
    (_trace, "velocity_in", [0.0, "0.1"], "key 'velocity_in' must be a list of numbers"),
    (_trace, "velocity_in", [True, 0.1], "key 'velocity_in' must be a list of numbers"),
    (_trace, "gradients.1", [[0.25], [0.0]], "key 'gradients.1' must be a list of numbers"),
    (_trace, "gradients.1", None, "key 'gradients.1' must be a list of numbers"),
    (_trace, "losses", {"0": 1.0, "-1": 2.0}, "key 'losses.-1' must be a decimal integer"),
    (_predictor, "stage1.model.lam", "0.1", "key 'stage1.model.lam' must be float, got '0.1'"),
    (_predictor, "residual_models.1.coefficients", [0.5, None],
     "key 'residual_models.1.coefficients' must be a list of numbers"),
    (_predictor, "n_tasks", 2.0, "key 'n_tasks' must be int, got 2.0"),
    (_predictor, "residual_enabled", 1, "key 'residual_enabled' must be bool, got 1"),
], ids=lambda v: v.__name__.strip("_") if callable(v) else None)
def test_wrong_type_rejected(tmp_path, make, dotted, value, match):
    path, load = make(tmp_path)
    load(path)
    if path.suffix == ".jsonl":
        data = json.loads(path.read_text())  # one record, so one line
        _set(data, dotted, value)
        write_jsonl(path, [data])
    else:
        data = read_json(path)
        _set(data, dotted, value)
        write_json(path, data)
    with pytest.raises(ValueError, match=re.escape(match)):
        load(path)


@pytest.mark.parametrize("make, dotted, value, match", [
    (_gains, "stl_losses.0", -2.0, "task 0 of group [0, 2] needs a positive finite stl_loss "
                                   "and a finite mtl_loss, got -2.0 and 0.75"),
    (_gains, "stl_losses.2", math.inf, "needs a positive finite stl_loss"),
    (_gains, "mtl_losses.2", math.nan, "and a finite mtl_loss, got 2.0 and nan"),
    (_gains, "gains.0", 0.3,
     "gain 0.3 of task 0 in group [0, 2] is not relative_gain(1.0, 0.75)"),
    (_gains, "mtl_losses.0", 0.5, "gain 0.25 of task 0 in group [0, 2] is not "
                                  "relative_gain(1.0, 0.5)"),
    (_eval, "final.r2", math.nan, "metrics must be finite, got r2 = nan"),
    (_eval, "stage1.mse", -math.inf, "metrics must be finite"),
    (_eval, "final.n_points", 1, "metrics need n_points >= 2, got 1"),
    (_predictor, "stage1.z_lo", 5.0, "stage-1 bounds must be finite with z_lo <= z_hi, "
                                     "got z_lo = 5.0, z_hi = 1.0"),
    (_predictor, "stage1.z_hi", math.inf, "stage-1 bounds must be finite"),
    (_predictor, "stage1.model.lam", -3.0, "ridge lam must be >= 0 and finite, got -3.0"),
    (_predictor, "residual_models.1.intercept", math.inf,
     "ridge coefficients and intercept must be finite"),
    (_predictor, "residual_models.1.coefficients", [0.5, math.nan],
     "ridge coefficients and intercept must be finite"),
    (_eval, "final.mse", -1.0, "metrics need mse >= 0 and r2 <= 1, got r2 = 0.5, mse = -1.0"),
    (_eval, "stage1.r2", 1e300, "metrics need mse >= 0 and r2 <= 1, got r2 = 1e+300"),
    (_selection, "objective", math.nan, "selection objective must be finite, got nan"),
    (_selection, "objective", -math.inf, "selection objective must be finite, got -inf"),
], ids=lambda v: v.__name__.strip("_") if callable(v) else None)
def test_meaningless_value_rejected(tmp_path, make, dotted, value, match):
    # written with json's NaN and Infinity tokens, which the package never writes
    path, load = make(tmp_path)
    data = json.loads(path.read_text())  # a JSON-lines file here holds one record
    _set(data, dotted, value)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(match)):
        load(path)


@pytest.mark.parametrize("write, payload", [
    (write_json, {"r2": math.nan}),
    (write_jsonl, [{"step": 0}, {"loss": [0.5, -math.inf]}]),
], ids=["json", "jsonl"])
def test_non_finite_float_not_written(tmp_path, write, payload):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"cannot write {path}: Out of range float values are not JSON compliant")):
        write(path, payload)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def _assert_same(got, want):
    """Equal values of equal types all the way down, with arrays as float64."""
    assert type(got) is type(want)
    if is_dataclass(want):
        for f in fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            _assert_same(got[k], want[k])
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    elif isinstance(want, np.ndarray):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    else:
        assert got == want


def _twelve_task_artifacts():
    rng = np.random.default_rng(12)
    tasks = range(12)
    (spline,) = fit_knot_grid(np.linspace(-1.0, 1.0, 30), (3,), (2,))
    stage1 = Stage1Model(
        mapping_kind="spline", spline=spline, z_lo=-1.0, z_hi=1.0,
        model=RidgeModel(rng.standard_normal(spline.basis_count), intercept=0.25, lam=0.1))
    return [
        GainRecord(group=(0, 2, 10, 11), gains={t: relative_gain(1.0 + t, 0.5 + t)
                                                for t in (0, 2, 10, 11)},
                   stl_losses={t: 1.0 + t for t in (0, 2, 10, 11)},
                   mtl_losses={t: 0.5 + t for t in (0, 2, 10, 11)}, seed=7),
        _TraceLine(step=239, losses={t: float(rng.random()) for t in tasks},
                   gradients={t: rng.standard_normal(9) for t in tasks},
                   velocity_in=rng.standard_normal(9)),
        EnsemblePredictor(stage1=stage1, residual_enabled=True, n_tasks=12, residual_models={
            t: RidgeModel(rng.standard_normal(12), intercept=-0.5, lam=1.0) for t in (0, 10, 11)}),
        SelectionResult(chosen=((0, 10), (2, 3, 11)), objective=1.5,
                        assignment={t: (0, 10) if t in (0, 10) else (2, 3, 11)
                                    if t in (2, 3, 11) else None for t in tasks}),
    ]


@pytest.mark.parametrize("value", _twelve_task_artifacts(), ids=lambda v: type(v).__name__)
def test_twelve_task_round_trip(value):
    data = json.loads(json.dumps(to_json(value), sort_keys=True))
    assert data == to_json(value)
    _assert_same(from_dict(type(value), data), value)


# a codec function; the artifact dataclasses go through to_json and from_dict instead
_CODEC_DEF = re.compile(r"^\s*def (\w+_(?:to|from)_dict)\(", re.MULTILINE)
_CODECS_KEPT = {"config_from_dict", "result_from_dict"}

# a schema constant, or a comparison with a schema value; a dataclass's SCHEMA is checked
# by from_dict alone
_SCHEMA_CHECK = re.compile(r"^\s*\w+_SCHEMA\s*[:=]|schema\W*[!=]=|[!=]=.*schema", re.IGNORECASE)


def test_no_hand_written_codecs():
    defined = sorted(
        f"{path.name}:{name}" for path in PACKAGE.glob("*.py")
        for name in _CODEC_DEF.findall(path.read_text()) if name not in _CODECS_KEPT)
    assert defined == []
    schema_checks = sorted(
        f"{path.name}:{line.strip()}" for path in PACKAGE.glob("*.py") if path.name != "artifacts.py"
        for line in path.read_text().splitlines() if _SCHEMA_CHECK.search(line))
    assert schema_checks == []


@pytest.mark.parametrize("line, checks", [
    ('SUITE_SCHEMA = "suite/1"', True),
    ("PREDICTOR_SCHEMA: str = 'predictor/1'", True),
    ('if data.get("schema") != SCHEMA:', True),
    ('if expected == data["schema"]:', True),
    ('SCHEMA: ClassVar[str] = "suite/1"', False),
    ('"schema": "realized/1",', False),
    ('return from_dict(ExperimentConfig, {"schema": ExperimentConfig.SCHEMA, **data})', False),
])
def test_schema_check_pattern(line, checks):
    assert bool(_SCHEMA_CHECK.search(line)) == checks


def test_only_artifacts_module_writes_files():
    writers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "artifacts.py" and _WRITE_CALL.search(path.read_text()))
    assert writers == []


def _docstrings(tree) -> set:
    """The docstring nodes of every module, class and function in ``tree``."""
    return {node.body[0].value for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


# an artifact file name, or the extension part of an f-string that builds one
_FILE_NAME = re.compile(r"\.(json|jsonl|csv|txt)\b")


def _file_name_texts(source: str) -> list[str]:
    """Each string constant or f-string part that names a file, outside docstrings and
    outside the value assigned to ``FILES``."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FILES"
                                                for t in node.targets):
            skip.update(ast.walk(node.value))
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node not in skip and _FILE_NAME.search(node.value)]


def test_artifact_names_spelt_once():
    # experiment.FILES spells every path under an output directory; suite.py
    # alone spells the two names inside the suite directory that it owns
    texts = sorted(f"{path.name}:{text}" for path in PACKAGE.glob("*.py")
                   for text in _file_name_texts(path.read_text()))
    assert texts == ["suite.py:.csv", "suite.py:spec.json"]


@pytest.mark.parametrize("source, texts", [
    ('path = rd / "eval.json"', ["eval.json"]),
    ('path = rd / f"gains_{split}.jsonl"', [".jsonl"]),
    ('write(out / "ablation.txt", rows)', ["ablation.txt"]),
    ('"""Writes ``eval.json``."""', []),
    ('def f():\n    """Reads eval.json."""\n    return 1', []),
    ('FILES = {"eval": "eval.json", "trace": _RUN + "trace.jsonl"}', []),
    ('OTHER = {"eval": "eval.json"}', ["eval.json"]),
    ('key, kind = "json", "a.jsonx"', []),
])
def test_file_name_scan(source, texts):
    assert _file_name_texts(source) == texts


# kept though nothing outside its own definition names it (none today)
_UNREFERENCED_KEPT: set[str] = set()


def _definitions(tree) -> list:
    """``(dotted name, node)`` of each module-level function and class, and of each
    public method of those classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{n.name}", n) for n in node.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not n.name.startswith("_")]
    return defs


def _mentions(tree, reexports: bool = True) -> Counter:
    """Each name that ``tree`` mentions as a ``Name``, an ``Attribute`` or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and reexports:
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def _unreferenced(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` of each definition in ``modules`` that nothing else mentions.

    Mentions count in ``modules`` (but not ``__init__.py``'s imports, which only
    re-export) and in the sources of ``users``.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    mentions = sum((_mentions(tree, name != "__init__.py") for name, tree in trees.items()),
                   Counter())
    for source in users:
        mentions += _mentions(ast.parse(source))
    return sorted(f"{name.removesuffix('.py')}.{dotted}" for name, tree in trees.items()
                  for dotted, node in _definitions(tree)
                  if mentions[node.name] <= _mentions(node)[node.name])


def test_every_definition_is_used():
    repo = PACKAGE.parent.parent
    users = [path.read_text() for path in sorted((repo / "perfbench").rglob("*.py"))]
    users.append((repo / "tests" / "test_acceptance.py").read_text())
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    flagged = _unreferenced(modules, users)
    assert [name for name in flagged if name not in _UNREFERENCED_KEPT] == []


@pytest.mark.parametrize("modules, users, flagged", [
    ({"a.py": "def f():\n    pass"}, [], ["a.f"]),
    ({"a.py": "def f():\n    pass", "b.py": "from .a import f"}, [], []),
    ({"a.py": "def f():\n    pass", "__init__.py": "from .a import f"}, [], ["a.f"]),
    ({"a.py": "def f():\n    pass"}, ["import m\nm.a.f()"], []),
    ({"a.py": "def f(n):\n    return f(n - 1)"}, [], ["a.f"]),
    ({"a.py": "class C:\n    def m(self):\n        pass\n    def _p(self):\n        pass\n"
              "C().x"}, [], ["a.C.m"]),
    ({"a.py": "class C:\n    @property\n    def n(self):\n        return 1\nC().n"}, [], []),
])
def test_unreferenced_scan(modules, users, flagged):
    assert _unreferenced(modules, users) == flagged


def _foreign_uses(name: str, source: str) -> list[str]:
    """What module ``name`` uses that only another may: ``numpy.random`` outside
    ``seeding.py``, the ``csv`` module anywhere, ``json`` outside ``artifacts.py`` and
    ``cli.py``."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            dotted = [f"{node.value.id}.{node.attr}"]
        else:
            dotted = []
        if name != "seeding.py" and any(re.match(r"(np|numpy)\.random\b", d) for d in dotted):
            uses.add("numpy.random")
        if any(re.match(r"csv\b", d) for d in dotted):
            uses.add("csv")
        if name not in ("artifacts.py", "cli.py") and any(re.match(r"json\b", d) for d in dotted):
            uses.add("json")
    return sorted(uses)


def test_owned_modules_and_readers_used_only_by_their_owner():
    # every random draw comes from seeding's streams, artifacts writes every
    # CSV without the csv module, and reads and writes all JSON but the CLI's
    # --set values
    uses = sorted(f"{path.name}:{use}" for path in PACKAGE.glob("*.py")
                  for use in _foreign_uses(path.name, path.read_text()))
    assert uses == []


@pytest.mark.parametrize("name, source, uses", [
    ("engine.py", "rng = np.random.default_rng(0)", ["numpy.random"]),
    ("engine.py", "from numpy import random", ["numpy.random"]),
    ("engine.py", "import numpy.random as npr", ["numpy.random"]),
    ("seeding.py", "def stream() -> np.random.Generator:\n    pass", []),
    ("engine.py", "x = np.linalg.norm(np.random_like)", []),
    ("artifacts.py", "import csv", ["csv"]),
    ("suite.py", "from csv import writer", ["csv"]),
    ("gains.py", "import json", ["json"]),
    ("engine.py", "from json import dumps", ["json"]),
    ("artifacts.py", "import json", []),
    ("cli.py", "value = json.loads(raw)", []),
    ("gains.py", "from .artifacts import load_lines, write_jsonl", []),
])
def test_foreign_use_scan(name, source, uses):
    assert _foreign_uses(name, source) == uses


def _stage_error_builders(source: str) -> list[str]:
    """The innermost function around each ``StageError(...)`` call; ``<module>`` outside any."""
    tree = ast.parse(source)
    owner = {}
    for func in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return [owner.get(node, "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "StageError" in
            (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_run_stage_names_the_failing_stage():
    # stage code raises plain errors; run_stage's read check and _tagged add the stage name
    builders = sorted({f"{path.name}:{name}" for path in PACKAGE.glob("*.py")
                       for name in _stage_error_builders(path.read_text())})
    assert builders == ["experiment.py:_tagged", "experiment.py:run_stage"]


@pytest.mark.parametrize("source, builders", [
    ('def f():\n    raise StageError("fit", "x")', ["f"]),
    ('def f():\n    def g():\n        raise exp.StageError("fit", "x")', ["g"]),
    ('err = StageError("fit", "x")', ["<module>"]),
    ('class StageError(RuntimeError):\n    pass', []),
    ('def f():\n    try:\n        g()\n    except StageError:\n        raise', []),
])
def test_stage_error_builder_scan(source, builders):
    assert _stage_error_builders(source) == builders


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


# a CSV or text-table reader; the CSVs the package writes are export-only
_TABLE_READ = re.compile(r"\bcsv\.(?:reader|DictReader)\(|\b(?:np|numpy)\.(?:loadtxt|genfromtxt)\(")


def test_no_module_reads_csv():
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py") if _TABLE_READ.search(path.read_text()))
    assert readers == []


@pytest.mark.parametrize("line, reads", [
    ("reader = csv.reader(fh)", True),
    ("for row in csv.DictReader(fh):", True),
    ("data = np.loadtxt(path, delimiter=',')", True),
    ("data = numpy.genfromtxt(path)", True),
    ("writer = csv.writer(fh)", False),
    ("write_csv(directory / f'task_{t}.csv', header, rows)", False),
    ("np.savetxt(path, data)", False),
])
def test_read_pattern(line, reads):
    assert bool(_TABLE_READ.search(line)) == reads


# a task group is normalized by affinity.task_group; engine keeps its one-task form
_GROUP_NORMALIZE = re.compile(r"\bsorted\(\s*set\(")


def test_groups_normalized_in_one_place():
    normalizers = sorted(
        path.name for path in PACKAGE.glob("*.py") if _GROUP_NORMALIZE.search(path.read_text()))
    assert normalizers == ["affinity.py", "engine.py"]


@pytest.mark.parametrize("line, normalizes", [
    ("group = tuple(sorted(set(int(t) for t in group)))", True),
    ("out = tuple(sorted(set(ids)))", True),
    ("missing = sorted( set(expected) - fired)", True),
    ("if sorted(gains.keys()) != list(group):", False),
    ("chosen=tuple(sorted(g for g, _ in chosen_candidates)),", False),
    ("interior_counts = set(sorted(counts))", False),
])
def test_group_normalize_pattern(line, normalizes):
    assert bool(_GROUP_NORMALIZE.search(line)) == normalizes
