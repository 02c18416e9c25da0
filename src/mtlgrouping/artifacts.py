"""Artifact files: the one module that writes them, and the one typed JSON codec.

A file is written to ``.<name>.<pid>.tmp`` beside its target and renamed over
it only once the write finished, so a failed or killed stage leaves the old
file or none, never a truncated one. There is no fsync: this guards against a
failing process, not against power loss. Keys are sorted, so equal data gives
equal bytes.

Dataclasses, config and artifacts alike, are written with ``to_json`` and read
back with ``from_dict``, which takes every key, default and type from the
dataclass and casts nothing. A dataclass with a ``SCHEMA`` class attribute is
written with a "schema" key holding it and read back only if that key equals
it; ``save`` and ``load`` are the file form of that pair, and ``load_lines``
reads a JSON-lines file of such records. A reading error names the file, and
in a JSON-lines file the line.
"""

from __future__ import annotations

import functools
import json
import os
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np


@contextmanager
def writing(path, newline=None):
    """Text file handle whose contents replace ``path`` when the block exits cleanly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dumps(path, value, indent=None) -> str:
    """``value`` as sorted-key JSON; NaN and infinities, which JSON lacks, fail naming ``path``."""
    try:
        return json.dumps(value, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload: dict) -> None:
    text = _dumps(path, payload, indent=2)
    with writing(path) as fh:
        fh.write(text + "\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_jsonl(path, rows) -> None:
    with writing(path) as fh:
        for row in rows:
            fh.write(_dumps(path, row) + "\n")


def _lines(path):
    """Yield ``(number, text)`` of each non-blank line, numbering from 1."""
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                yield n, line


def write_csv(path, header, rows) -> None:
    """Write the text fields of ``header`` and then of each row, one line each.

    Fields are joined by commas and every line ends in ``\\r\\n``, the bytes
    ``csv.writer`` writes. No field is quoted: none that the package writes (a
    ``repr`` float, an integer id, a ``+``-joined group, a column or split
    name) holds a comma, a quote or a line break.
    """
    text = "".join(",".join(row) + "\r\n" for row in [header, *rows])
    with writing(path, newline="") as fh:
        fh.write(text)


def save(path, obj) -> None:
    """Write dataclass ``obj`` as one JSON document."""
    write_json(path, to_json(obj))


def load(path, cls):
    """Read the JSON document at ``path`` as dataclass ``cls``; an error names ``path``."""
    try:
        return from_dict(cls, read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_lines(path, cls) -> list:
    """Read each non-blank line of ``path`` as dataclass ``cls``; an error names the line."""
    records = []
    for n, line in _lines(path):
        try:
            records.append(from_dict(cls, json.loads(line)))
        except ValueError as exc:
            raise ValueError(f"{path} line {n}: {exc}") from exc
    return records


def to_json(value):
    """``value`` as JSON data: dataclasses by field and schema, tuples and arrays as lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if is_dataclass(value):
        data = {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
        if hasattr(value, "SCHEMA"):
            data["schema"] = value.SCHEMA
        return data
    return value


def from_dict(cls, data: dict):
    """Build dataclass ``cls`` from JSON data, checking every key against its field.

    A key is required exactly when its field has no default. ``int``, ``bool``
    and ``str`` take exactly that JSON type, ``float`` also an integer, a
    tuple a list of its length, ``X | None`` also null, ``dict[int, X]`` an
    object keyed by decimals such as "0" or "10", ``np.ndarray`` a flat list
    of numbers (read as float64), a dataclass an object whose "schema" must
    equal the class's ``SCHEMA`` if it has one; nothing is cast. Errors name
    the dotted key as a "key", or as the ``NOUN`` of the nearest enclosing
    dataclass that sets one.
    """
    return _reader(cls, "key")(data, "")


@functools.cache
def _int_key(key: str) -> int | None:
    """The int a decimal key such as "0" or "10" names, else None; a trace repeats its keys."""
    return int(key) if key.isdecimal() and str(int(key)) == key else None


@functools.cache
def _reader(tp, noun: str):
    """``read(value, key)`` for annotation ``tp``, built once, so reading makes no typing calls."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    noun = getattr(tp, "NOUN", noun)  # config sections name theirs "config key"

    def fail(value, key, expected):
        raise ValueError(f"{noun} {key!r} must be {expected}, got {value!r}")

    if origin in (typing.Union, types.UnionType):  # X | None
        read_inner = _reader(next(a for a in args if a is not type(None)), noun)
        return lambda value, key: None if value is None else read_inner(value, key)
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        readers = [(f.name, _reader(hints[f.name], noun),
                    f.default is MISSING and f.default_factory is MISSING) for f in fields(tp)]
        schema = getattr(tp, "SCHEMA", None)
        names = {name for name, _, _ in readers} | ({"schema"} if schema else set())

        def read_object(value, key):
            if not isinstance(value, dict):
                fail(value, key, "an object")
            if schema is not None and value.get("schema") != schema:
                raise ValueError(f"unsupported schema {value.get('schema')!r}, expected {schema!r}")
            prefix = key + "." if key else ""
            extra = sorted(value.keys() - names)
            if extra:
                raise ValueError(f"unknown {noun} " + ", ".join(repr(prefix + k) for k in extra))
            values = {}
            for name, read, required in readers:
                if name in value:
                    values[name] = read(value[name], prefix + name)
                elif required:
                    raise ValueError(f"missing {noun} {prefix + name!r}")
            return tp(**values)
        return read_object
    if origin is tuple:
        variadic = args[1:] == (...,)
        readers = [_reader(a, noun) for a in args[:1 if variadic else None]]

        def read_tuple(value, key):
            if not isinstance(value, (list, tuple)):
                fail(value, key, "a list")
            items = readers * len(value) if variadic else readers
            if len(value) != len(items):
                fail(value, key, f"a list of {len(items)}")
            return tuple(read(v, key) for read, v in zip(items, value))
        return read_tuple
    if origin is dict:  # dict[int, X]
        read_item = _reader(args[1], noun)

        def read_dict(value, key):
            if not isinstance(value, dict):
                fail(value, key, "an object")
            out = {}
            for k, v in value.items():
                n = _int_key(k)
                if n is None:
                    fail(k, f"{key}.{k}", "a decimal integer such as '0' or '10'")
                out[n] = read_item(v, f"{key}.{k}")
            return out
        return read_dict
    if tp is np.ndarray:
        def read_array(value, key):
            # a type test per element: a dtype test lets np.array([True, 1.5]) through
            if type(value) is not list or not {int, float}.issuperset(map(type, value)):
                fail(value, key, "a list of numbers")
            return np.array(value, dtype=float)
        return read_array

    def read_scalar(value, key):
        if type(value) is tp:
            return value
        if tp is float and type(value) is int:
            return float(value)
        fail(value, key, tp.__name__)
    return read_scalar
