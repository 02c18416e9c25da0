"""Artifact files: the one module that writes them, and the typed config reader.

A file is written to ``.<name>.<pid>.tmp`` beside its target and renamed over
it only once the write finished, so a failed or killed stage leaves the old
file or none, never a truncated one. There is no fsync: this guards against a
failing process, not against power loss. Keys are sorted, so equal data gives
equal bytes.

Config dataclasses are written with ``dataclasses.asdict`` and read back with
``from_dict``, which takes every key, default and type from the dataclass.
"""

from __future__ import annotations

import csv
import json
import os
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path


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


def write_json(path, payload: dict) -> None:
    with writing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_jsonl(path, rows) -> None:
    with writing(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path):
    """Yield the object on each non-blank line."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def write_csv(path, header, rows) -> None:
    with writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def check_schema(data: dict, schema: str) -> None:
    if data.get("schema") != schema:
        raise ValueError(f"unsupported schema {data.get('schema')!r}, expected {schema!r}")


def from_dict(cls, data: dict, prefix: str = ""):
    """Build dataclass ``cls`` from JSON data; every key is checked against its field.

    A key is required exactly when its field has no default. ``int``, ``bool``
    and ``str`` fields take exactly that JSON type; ``float`` fields also take
    an integer. A tuple field takes a list of the right length, ``X | None``
    takes ``null`` and a nested dataclass is read by the same rules. Errors
    name the dotted key, starting with ``prefix``.
    """
    unknown = sorted(data.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config key " + ", ".join(repr(prefix + k) for k in unknown))
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        key = prefix + f.name
        if f.name in data:
            values[f.name] = _typed(hints[f.name], data[f.name], key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing config key {key!r}")
    return cls(**values)


def _typed(tp, value, key: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _typed(tp, value, key)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be an object, got {value!r}")
        return from_dict(tp, value, key + ".")
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
        items = args[:1] * len(value) if args[1:] == (...,) else args
        if len(value) != len(items):
            raise ValueError(f"config key {key!r} must be a list of {len(items)}, got {value!r}")
        return tuple(_typed(t, v, key) for t, v in zip(items, value))
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise ValueError(f"config key {key!r} must be {tp.__name__}, got {value!r}")
    return value
