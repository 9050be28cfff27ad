"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` drives the package through its public entry
points, so an API change that breaks it fails every benchmark run. This
constructs all four workloads and runs one session of each through the
workload's own check, which recomputes every result independently of the
package (for LD, its own decision rule on the counts).
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    yield workloads
    # perfbench's modules have generic names; leave none of them behind.
    for name in ("workloads", "checks", "inputs", "worker"):
        sys.modules.pop(name, None)


def test_every_workload_constructs(workloads):
    for factory, twin in workloads.WORKLOADS.values():
        factory()
        assert twin in workloads.WORKLOADS


@pytest.mark.parametrize("name", ["gc-ld", "gc-lr-tcp", "he-lr", "he-ld"])
def test_one_session_passes_its_check(workloads, name):
    factory, _ = workloads.WORKLOADS[name]
    workload = factory()
    session = workload.session(seed=1, worker=0, index=0)
    assert workload.check(session, workload.run(session))


@pytest.mark.parametrize("name, counts", [("gc-ld", (41610, 82)), ("gc-lr-tcp", (36214, 60))])
def test_worker_reads_the_circuit_counts(workloads, name, counts):
    """``--trace 1`` reports the AND count and AND depth of the garbled circuit."""
    import worker

    factory, _ = workloads.WORKLOADS[name]
    computation = factory().computation
    computation.circuit  # the worker reads only a circuit the session built
    assert worker.circuit_counts(computation) == counts
