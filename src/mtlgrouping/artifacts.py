"""Artifact files: the one module that writes them.

A file is written to ``.<name>.<pid>.tmp`` beside its target and renamed over
it only once the write finished, so a failed or killed stage leaves the old
file or none, never a truncated one. There is no fsync: this guards against a
failing process, not against power loss. Keys are sorted, so equal data gives
equal bytes.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
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
