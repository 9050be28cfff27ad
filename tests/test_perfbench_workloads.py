"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` drives the package through its public entry
points, so an API change that breaks it fails every benchmark run. This
constructs all four workloads and runs one session of each through the
workload's own check, which recomputes every result independently of the
package (for LD, its own decision rule on the counts).
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mpcmarket.he import bfv
from mpcmarket.protocol.computations import HePipeline

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


@pytest.mark.parametrize("name, counts", [("gc-ld", (33360, 80)), ("gc-lr-tcp", (36214, 60))])
def test_worker_reads_the_circuit_counts(workloads, name, counts):
    """``--trace 1`` reports the AND count and AND depth of the garbled circuit.

    gc-ld's counts were (41610, 82) before the LD products moved to column
    addition, a dedicated squarer and signed-digit constants."""
    import worker

    factory, _ = workloads.WORKLOADS[name]
    computation = factory().computation
    computation.circuit  # the worker reads only a circuit the session built
    assert worker.circuit_counts(computation) == counts


@pytest.mark.parametrize("name", ["he-ld", "he-lr"])
def test_worker_measures_every_switched_output(workloads, name, monkeypatch):
    """``--trace 1`` keeps ``he_finish``'s (args[1], args[-1]), the CSP's
    key and the entries it decrypts, and measures each entry's exact budget
    next to its estimate. Every output arrives under the plan's
    ``output_primes`` (he-ld switches 6 key primes to 2; he-lr's keys hold
    its 3 and it switches none), and its estimate is above 0 and at or
    below the exact budget."""
    import worker

    finished = []
    he_finish = HePipeline.he_finish

    def keep(*args):
        finished.append((args[1], args[2], args[-1]))
        return he_finish(*args)

    monkeypatch.setattr(HePipeline, "he_finish", keep)
    factory, _ = workloads.WORKLOADS[name]
    workload = factory()
    session = workload.session(seed=1, worker=0, index=0)
    assert workload.check(session, workload.run(session))
    ((sk, plan, entries),) = finished
    for entry in entries:
        ct = bfv.ciphertext_from_bytes(entry[1], sk.params)
        assert len(ct.primes) == plan.output_primes
        exact, estimate = worker.measure_budgets(SimpleNamespace(finished=[(sk, [entry])]))
        assert exact >= estimate > 0
