"""One workload process: imports, set-up and the first session, then measured
sessions until the time budget is spent. Prints one JSON line.

Run by run.py in a fresh interpreter, so the process has executed no
mpcmarket code before it starts and the package's caches fill here.
"""

from __future__ import annotations

import argparse
import glob
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def circuit_counts(computation) -> tuple[int, int]:
    """(AND gates, AND depth) of the GC circuit, if this process built it."""
    circuit = vars(computation).get("circuit")
    if circuit is None:
        return 0, 0
    from mpcmarket.circuits.ir import AND

    depth = [0] * circuit.n_wires
    ands = 0
    for kind, a, b, out in circuit.gates:
        d = max(depth[a], depth[b] if b >= 0 else 0)
        if kind == AND:
            ands += 1
            d += 1
        depth[out] = d
    return ands, max(depth, default=0)


def measure_budgets(tracer) -> tuple[float, float]:
    """Exact remaining noise budget (with the CSP's secret key) and the
    program's estimate, minimum over every ciphertext the CSP decrypted."""
    from mpcmarket.he import bfv

    exact, estimate = [], []
    for sk, entries in tracer.finished:
        for _tag, blob in entries:
            ct = bfv.ciphertext_from_bytes(blob, sk.params)
            exact.append(bfv.noise_budget(sk, ct))
            estimate.append(ct.budget_estimate)
    return (min(exact), min(estimate)) if exact else (0.0, 0.0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import mpcmarket

    if Path(mpcmarket.__file__).resolve().parent != ROOT / "src" / "mpcmarket":
        print(f"mpcmarket imported from {mpcmarket.__file__}, not this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    from checks import CheckFailed, check_cross
    from workloads import WORKLOADS

    factory, twin = WORKLOADS[args.workload]
    wl = factory()

    sessions = []  # dicts, in order; the first is the set-up session
    transcripts: dict[int, list[tuple[str, int]]] = {}

    def one(index: int) -> dict:
        s = wl.session(args.seed, args.worker, index)
        rec = {"index": index, "ok": False, "wrong": False, "keys": {}}
        if tracer:
            tracer.active = True
            span = tracer.session_span(index)
        t0 = time.perf_counter()
        try:
            outcome = wl.run(s)
        except Exception:  # noqa: BLE001 - a raising session counts as failed
            outcome = None
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
            tracer.active = False
        if outcome is not None:
            try:
                rec["keys"] = wl.check(s, outcome)
                rec["ok"] = True
                rec["results"] = s.results
            except Exception as exc:  # noqa: BLE001 - any checker error is a wrong result
                rec["wrong"] = True
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["bytes"] = outcome.transcript.total_bytes()
            transcripts[index] = [(e.type_name, e.n_bytes) for e in outcome.transcript.entries]
        if "error" in rec:
            print(f"session {index} failed: {rec['error']}", file=sys.stderr)
        sessions.append(rec)
        return rec

    one(0)
    first_result_at = time.monotonic()
    start = time.monotonic()
    index = 1
    while time.monotonic() - start < args.budget:
        one(index)
        index += 1
    measured_s = time.monotonic() - start

    # Same inputs on the other backend must give the same results.
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.family}-s{args.seed}"
    partner: dict[str, object] = {}
    for path in glob.glob(str(OUT / f"cross-{stem}-{twin}-w*.json")):
        partner.update(json.loads(Path(path).read_text()))
    mine: dict[str, object] = {}
    compared = 0
    for rec in sessions:
        try:
            compared += check_cross(rec["keys"], partner)
        except CheckFailed as exc:
            rec["ok"], rec["wrong"] = False, True
            print(f"session {rec['index']}: {exc}", file=sys.stderr)
        mine.update(rec["keys"])
    print(f"worker {args.worker}: {compared} results equal to {twin}'s", file=sys.stderr)
    (OUT / f"cross-{stem}-{args.workload}-w{args.worker}.json").write_text(json.dumps(mine))

    warm = [r for r in sessions[1:] if r["ok"]]
    report = {
        "first_result_at": first_result_at,
        "attempted": len(sessions),
        "failed": sum(not r["ok"] for r in sessions),
        "wrong": sum(r["wrong"] for r in sessions),
        "session_s": [r["seconds"] for r in warm],
        "comm_bytes": [r["bytes"] for r in warm],
        "results": sum(r["results"] for r in warm),
        "measured_s": measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        measured = [r["index"] for r in warm]
        report["layers"] = layer_metrics(
            tracer, measured, transcripts, circuit_counts(wl.computation), measure_budgets(tracer)
        )
        report["absent"] = tracer.absent
        dump = {
            "spans": tracer.spans,
            "counters": [[s, k, v] for (s, k), v in tracer.counters.items()],
            "absent": tracer.absent,
            "sessions": [{k: r[k] for k in ("index", "seconds", "ok")} for r in sessions],
        }
        name = f"trace-{args.workload}-s{args.seed}-w{args.worker}.json"
        (OUT / name).write_text(json.dumps(dump))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
