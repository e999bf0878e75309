"""Self-tests for the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

# a few cheap cycle entries of each workload
COUNTS = {"doc_build": 3, "pool_query": 6, "rewrite_probe": 3, "cli_oneshot": 3}


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request):
    wl = workloads.WORKLOADS[request.param](3)
    wl.setup()
    yield wl
    wl.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    cls = workloads.WORKLOADS[name]
    blob = cls(7).blob().encode()
    assert cls(7).blob().encode() == blob
    assert cls(8).blob().encode() != blob
    assert cls(7, held_out=True).blob().encode() != blob


def _corrupt(name, out):
    if name == "doc_build":
        return out[0] + " ", out[1]
    if name == "pool_query":
        return out, "corrupt"
    if name == "rewrite_probe":
        s, f, report = out
        return s, f, dataclasses.replace(report, trials=report.trials + 1)
    return out[0], out[1] + b"x"


def test_checker_counts_corrupted_and_raised_answers(workload):
    count = COUNTS[workload.name]
    clean = harness.drive(workload, harness.NullTracer(), count=count)
    assert harness.failures(workload, clean) == []

    workload.build()  # forget answers kept from the clean pass
    honest = workload.run

    def run(idx, tracer):
        if idx == 2:
            raise RuntimeError("deliberate")
        out = honest(idx, tracer)
        return _corrupt(workload.name, out) if idx == 1 else out

    workload.run = run
    broken = harness.drive(workload, harness.NullTracer(), count=count)
    assert harness.failures(workload, broken) == [1, 2]


def test_traced_and_untraced_runs_issue_the_same_requests(workload):
    count = COUNTS[workload.name]
    plain = harness.drive(workload, harness.NullTracer(), count=count)
    tracer = harness.Tracer()
    traced = harness.drive(workload, tracer, count=count)
    assert plain.issued == traced.issued == list(range(count))
    assert plain.first == traced.first
    requests = [sp[4] for sp in tracer.spans if sp[0] == "request"]
    assert requests == list(range(count))


def test_checker_counts_repeats_that_differ_from_the_first_answer():
    class Reference:
        @staticmethod
        def expected(idx):
            return "right"

    run = harness.Pass()
    for idx, got in [(0, "right"), (1, "wrong"), (0, "right"), (0, "wrong"), (1, "wrong"), (1, "right")]:
        run.record(idx, 0.0, got)
    assert harness.failures(Reference(), run) == [0, 1, 1]
