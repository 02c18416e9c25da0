"""Benchmark of the mtlgrouping pipeline.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop from a single process: one client, each
op starts when the previous one has finished, no thread pool and the
config's ``parallelism`` left at 1. Ops run until their summed time reaches
``--seconds``, but the fixed list that opens every run always runs in full.
Each op's outputs are checked after it, outside its timed interval.

Set-up runs several times, each in a fresh interpreter that imports the
package from this checkout's ``src/`` and prepares the workload's inputs;
``setup_s`` is the median. The ops then use the last set-up's artifacts.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` every op runs under the
tracer of ``tracing.py`` and the line carries the per-layer metrics. The line
before it stamps the result with the machine and library versions, the op
and set-up times and the quality values of the fixed ops.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

# set-up repeats at least this often and this long: a cheap set-up (the
# package import, about 0.5 s) then gets enough samples for a steady median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
# a set-up that runs longer than this is killed by its own alarm; the parent
# waits without a timeout, because waiting with one polls in 50 ms steps and
# would round every set-up time
SETUP_TIMEOUT_S = 120

# fixed-op quality values must match golden.json to this relative tolerance;
# exact values may move at ~1e-8 when the arithmetic of training is reordered
GOLDEN_REL_TOL = 1e-6


def _commit() -> str:
    """HEAD of the checkout's own .git, read as files; none outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(),
    }


def _import_package():
    """Import mtlgrouping from this checkout's src/, never from anywhere else."""
    if not (SRC / "mtlgrouping" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mtlgrouping package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mtlgrouping

    if Path(mtlgrouping.__file__).resolve().parent != (SRC / "mtlgrouping").resolve():
        raise SystemExit(f"perfbench: imported mtlgrouping from {mtlgrouping.__file__}")


def _time_setups(args, workdir: Path) -> tuple[list[float], Path]:
    """Set up repeatedly in fresh interpreters; keep the last artifacts."""
    times, target = [], None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        if target is not None:
            shutil.rmtree(target, ignore_errors=True)
        target = workdir / f"setup{len(times)}"
        command = [sys.executable, __file__, "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-into", str(target)]
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times, target


def _golden_problems(workload: str, label: str, quality: dict) -> list[str]:
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    expected = golden.get(workload, {}).get(label)
    if expected is None:
        return [f"no golden values for fixed op {label}"]
    return [
        f"{key} = {quality.get(key)!r}, recorded {value!r}"
        for key, value in expected.items()
        if not (key in quality
                and math.isclose(quality[key], value, rel_tol=GOLDEN_REL_TOL, abs_tol=1e-12))
    ]


def _written_bytes(before: dict, directory: Path) -> int:
    """Bytes of the files under a directory that are new or rewritten since ``before``."""
    after = _file_stamps(directory)
    return sum(size for path, (mtime, size) in after.items()
               if before.get(path, (None,))[0] != mtime)


def _file_stamps(directory: Path) -> dict:
    stamps = {}
    for path in directory.rglob("*"):
        if path.is_file():
            st = path.stat()
            stamps[path] = (st.st_mtime_ns, st.st_size)
    return stamps


@dataclass
class OpResult:
    op: object  # workloads.Op
    seconds: float
    problems: list
    quality: dict
    stats: object  # the op's tracing.OpStats, in a traced run


def _run_ops(args, workload, setup_dir: Path, workdir: Path):
    """Closed loop over the workload's ops; yields each op's result after its check."""
    from tracing import Tracer

    elapsed = 0.0
    for op in workload.ops(args.seed, setup_dir, workdir / "ops"):
        if not op.fixed and elapsed >= args.seconds:
            return
        tracer = Tracer() if args.trace else None
        before = _file_stamps(op.out) if args.trace else None
        start = time.perf_counter()
        try:
            with tracer or nullcontext():
                workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            problems, quality = [f"raised {type(exc).__name__}: {exc}"], {}
        else:
            problems = None
        seconds = time.perf_counter() - start
        elapsed += seconds
        if problems is None:
            try:
                problems, quality = workload.check(op)
            except Exception as exc:  # a check that cannot read the outputs fails the op
                problems, quality = [f"check raised {type(exc).__name__}: {exc}"], {}
        if op.fixed and not problems:
            problems = _golden_problems(args.workload, op.label, quality)
        if problems:
            print(f"perfbench: op {op.label} failed: {problems}", file=sys.stderr)
        stats = None
        if tracer is not None:
            stats = tracer.stats
            stats["experiment.artifact_bytes"] = _written_bytes(before, op.out)
        yield OpResult(op, seconds, problems, quality, stats)


def _mean_of(results: list[OpResult], key: str) -> float:
    """Mean over the ops whose check produced quality values; 0 if none did
    (the run is then reported as failed anyway)."""
    values = [r.quality[key] for r in results if r.quality]
    return statistics.fmean(values) if values else 0.0


def run(args) -> tuple[dict, dict, bool]:
    from tracing import per_op_metrics
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, setup_dir = _time_setups(args, workdir)
        results, fired = [], set()
        first = first_digest = None
        for result in _run_ops(args, workload, setup_dir, workdir):
            results.append(result)
            op = result.op
            if args.trace:
                fired.update(result.stats.fired)
                if first is None:
                    first, first_digest = op, digest(op.out)
            if op.out != setup_dir:
                shutil.rmtree(op.out, ignore_errors=True)

        times = [r.seconds for r in results]
        fixed = [r for r in results if r.op.fixed]
        failed = sum(1 for r in results if r.problems)
        correct = failed == 0
        report = {
            "stamp": stamp(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "op_s": times,
            # no percentile of a run's few ops has ten samples beyond it, so
            # the slowest op is recorded here and is no metric
            "op_s.slowest": max(times),
            "setup_s": setup_times,
            "fixed_ops": {r.op.label: r.quality for r in fixed},
        }
        if args.trace:
            metrics = per_op_metrics([r.stats for r in fixed], [r.seconds for r in fixed])
            metrics["traced_op_s.p50"] = statistics.median(times)
            # the same op once more without the tracer must write the same bytes
            rerun = workload.rerun(first)
            workload.run(rerun)
            identical = digest(rerun.out) == first_digest
            missing = sorted(set(workload.expected_spans) - fired)
            report.update(spans_fired=sorted(fired), spans_missing=missing,
                          traced_equals_untraced=identical)
            if missing or not identical:
                correct = False
                print(f"perfbench: spans missing {missing}, artifacts identical: {identical}",
                      file=sys.stderr)
        else:
            metrics = {
                "op_s.p50": statistics.median(times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ops": (len(times) - failed) / len(times),
                "heldout_pearson": _mean_of(fixed, "pearson"),
                "regret_loss": _mean_of(fixed, "regret"),
            }
        return report, {"attempted": len(times), "failed": failed, "metrics": metrics}, correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reference", "refit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path,
                        help="only set the workload up into this directory (used by set-up timing)")
    args = parser.parse_args(argv)
    if args.setup_into is not None:
        signal.alarm(SETUP_TIMEOUT_S)

    _import_package()
    if args.setup_into is not None:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].setup(args.setup_into)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    report, result, correct = run(args)
    metrics = result.pop("metrics")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        **result,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
