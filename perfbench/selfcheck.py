"""Fast self-check of the benchmark itself (about five seconds).

    python3 perfbench/selfcheck.py

Checks that the output checkers reject wrong results and agree with the
program's oracles, that the seeded LD inputs hold both decisions in every
session, that the per-layer self times of a traced session add up to no
more than its wall time (in-process and over TCP), that a missing wrap
target is reported by name instead of crashing, and that BENCHMARK.json
names exactly the metrics the traced run prints. Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def expect_reject(fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed:
        return
    raise SystemExit(f"FAIL {fn.__qualname__} accepted a wrong result")


def check_checkers() -> None:
    from mpcmarket.analytics.ld import HaplotypeCounts, ld_decide_plain
    from mpcmarket.analytics.lr import lr_predict_fixed
    from workloads import LrWorkload

    for seed in range(20):
        instances = inputs.ld_session(inputs.session_rng("ld", seed, 0, 0), 10)
        decisions = [checks.ld_decision(c) for c in instances]
        ensure(set(decisions) == {True, False}, f"LD seed {seed} lacks one decision")
        for kind, c, d in zip(inputs.LD_KINDS * 3, instances, decisions):
            ensure(d == (kind in ("above", "linked")), f"LD {kind} instance {c} decides {d}")
            oracle = ld_decide_plain(HaplotypeCounts(*c), 3841, 1000).decision
            ensure(oracle == d, f"LD rule and program oracle differ on {c}")
        checks.check_ld({"decisions": decisions}, instances)
        flipped = list(decisions)
        flipped[seed % 10] = not flipped[seed % 10]
        expect_reject(checks.check_ld, {"decisions": flipped}, instances)

    wl = LrWorkload("gc", "inproc")
    ref = wl.reference
    for row in wl.rows:
        p = ref.probability_fixed(row)
        oracle = lr_predict_fixed(wl.computation.model, row, wl.computation.table)
        ensure(p == oracle, f"LR reference {p} and program oracle {oracle} differ")
        ref.check({"probability_fixed": p, "probability": p / 2**31}, row)
        expect_reject(ref.check, {"probability_fixed": p + 1, "probability": (p + 1) / 2**31}, row)
    print(f"PASS checkers: 20 LD sessions and {len(wl.rows)} LR rows; flips rejected")


def check_self_times(tracer: tracing.Tracer) -> None:
    from workloads import LdWorkload, LrWorkload

    session = 0
    for name, wl in (("gc-lr-tcp", LrWorkload("gc", "tcp")), ("gc-ld", LdWorkload("gc"))):
        for index in range(2):
            s = wl.session(7, 0, index)
            tracer.active = True
            span = tracer.session_span(session)
            outcome = wl.run(s)
            tracer.close(span)
            tracer.active = False
            wl.check(s, outcome)
            wall = tracer.spans[span][2] - tracer.spans[span][1]
            total = sum(tracing.session_split(tracer)[session].values())
            ensure(total <= wall, f"{name}: self times {total} exceed wall {wall}")
            session += 1
        print(f"PASS self times <= wall on {name}: {total:.4f} s of {wall:.4f} s")


def check_absent(tracer: tracing.Tracer) -> None:
    before = len(tracer.absent)
    tracer.install([
        ("mpcmarket.garbling", "no_such_function", "garbling.garble", None),
        ("mpcmarket.no_such_module", "f", "he.ntt", None),
    ])
    want = [
        "garbling.garble_s (mpcmarket.garbling.no_such_function)",
        "he.ntt.self_s (mpcmarket.no_such_module.f)",
    ]
    ensure(tracer.absent[before:] == want, f"absent targets reported as {tracer.absent}")
    metrics = tracing.layer_metrics(tracer, [], {}, (0, 0), (0.0, 0.0))
    ensure(set(metrics) == set(tracing.PER_LAYER), "layer metrics incomplete")
    print("PASS absent wrap targets reported by name, metrics still complete")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    ensure(listed == tracing.PER_LAYER, f"per_layer differs: {set(listed) ^ set(tracing.PER_LAYER)}")
    names = [w["name"] for w in spec["workloads"]]
    ensure(names == ["gc-ld", "gc-lr-tcp", "he-ld", "he-lr"], f"workloads {names}")
    print(f"PASS BENCHMARK.json lists the {len(listed)} per-layer metrics the trace prints")


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    ensure(not tracer.absent, f"wrap targets missing: {tracer.absent}")
    check_checkers()
    check_self_times(tracer)
    check_absent(tracer)
    check_benchmark_json()
    return 0


if __name__ == "__main__":
    sys.exit(main())
