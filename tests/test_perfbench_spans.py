"""perfbench's traced pass must find its fixed op correct.

perfbench reports a traced run as incorrect when a span in a workload's
``expected_spans`` never fired, for example because a refactor stopped
calling a wrapped function through the name the tracer rebinds; when a
fixed op fails its check or its quality values leave ``golden.json``; and
when the op, run again without the tracer, writes other bytes. This runs
the first fixed op of every workload under ``tracing.Tracer`` and checks
all of that, so each shows up in the test suite. perfbench is imported as
it is, from its own directory.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_one_traced_op_of_each_workload_fires_every_expected_span(tmp_path):
    assert set(workloads.WORKLOADS) >= {"reference", "refit"}
    for name, workload in workloads.WORKLOADS.items():
        setup_dir = tmp_path / name / "setup"
        workload.setup(setup_dir)
        op = next(workload.ops(0, setup_dir, tmp_path / name / "ops"))
        with tracing.Tracer() as tracer:
            workload.run(op)
        missing = sorted(set(workload.expected_spans) - set(tracer.stats.fired))
        assert (name, missing) == (name, [])
        problems, quality = workload.check(op)
        assert (name, problems) == (name, [])
        assert op.fixed
        assert (name, run._golden_problems(name, op.label, quality)) == (name, [])
        traced = workloads.digest(op.out)
        rerun = workload.rerun(op)
        workload.run(rerun)
        assert workloads.digest(rerun.out) == traced
