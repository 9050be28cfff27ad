"""The benchmark's instrumentation still finds what it wraps.

``perfbench/tracing.py`` wraps package functions by name and records a
name it cannot resolve as absent, so a rename shows up only as a missing
per-layer metric. This resolves every target the way ``Tracer.install``
does, without patching anything.
"""

import importlib
import inspect
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Absent since the circuit text left the wire and the LD planner was folded
# into the shared HE pipeline.
KNOWN_ABSENT = {
    "mpcmarket.protocol.parties.serialize_circuit",
    "mpcmarket.protocol.parties.parse_circuit_cached",
    "mpcmarket.analytics.ld.LdHePlan.create",
}


def test_every_wrap_target_resolves_except_the_known_absent():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    absent = set()
    for module, attr, _name, _hook in targets:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError):
            absent.add(f"{module}.{attr}")
    assert len(targets) == 48
    assert absent == KNOWN_ABSENT
