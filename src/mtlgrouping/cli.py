"""Command-line front end for the experiment pipeline.

Each subcommand runs one pipeline stage against a JSON experiment config;
`run` executes every stage in order and `ablate` produces the mapping-kind
by residual-correction comparison table. Config fields can be overridden on
the command line with repeated --set key=value flags (dotted keys reach the
nested suite/train sections). Exit status is 0 on success and 1 on failure,
with the failing stage named on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .artifacts import read_json
from .experiment import (
    STAGES,
    StageError,
    compare_ablations,
    config_from_dict,
    resolve_output_dir,
    run_experiment,
    run_stage,
)


def _apply_override(data: dict, key: str, raw: str) -> None:
    parts = key.split(".")
    node = data
    for i, part in enumerate(parts[:-1], 1):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"--set {key}: {'.'.join(parts[:i])} is not an object")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[parts[-1]] = value


def _load_config(args):
    data = read_json(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply_override(data, key, raw)
    return config_from_dict(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlgroup",
        description="Predict multi-task learning gains from gradient affinity "
                    "and select budgeted task groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ("run", "ablate"):
        p = sub.add_parser(name, help=f"run the {name} stage" if name in STAGES else {
            "run": "run every stage in order",
            "ablate": "compare mapping kinds with and without residual correction",
        }[name])
        p.add_argument("--config", required=True, help="experiment config JSON file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted keys allowed)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        config = _load_config(args)
    except Exception as exc:
        print(f"stage config: {exc}", file=sys.stderr)
        return 1
    try:
        if command == "run":
            run_experiment(config, args.out)
        elif command == "ablate":
            compare_ablations(config, args.out)
        else:
            run_stage(command, config, resolve_output_dir(config, args.out))
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
