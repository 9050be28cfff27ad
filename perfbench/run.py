"""Session benchmark for mpcmarket: both protocols on LD and LR.

    python3 perfbench/run.py --workload gc-ld --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It compiles the package's bytecode, then
starts the workload's worker processes one after another; each is a fresh
interpreter that sets up, runs its first session (its set-up time ends with
that first verified result) and then runs measured sessions for its share of
``--seconds``. The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Worker processes per run. Each pays one cold start, so setup_s is the
# median of several set-ups; he-ld sessions take ~12 s, so it has two.
WORKERS = {"gc-ld": 3, "gc-lr-tcp": 3, "he-ld": 2, "he-lr": 3}
DEADLINE_S = 170


def run_worker(args, worker: int, budget: float, deadline: float) -> tuple[dict, float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--worker", str(worker), "--budget", str(budget),
        "--trace", str(args.trace),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {worker} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker {worker} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "mpcmarket" / "__init__.py").is_file():
        print(f"no mpcmarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("mpcmarket sources do not compile", file=sys.stderr)
        return 2

    k = WORKERS[args.workload]
    reports, setups = [], []
    for worker in range(k):
        report, spawned = run_worker(args, worker, args.seconds / k, deadline)
        reports.append(report)
        setups.append(report["first_result_at"] - spawned)

    session_s = [t for r in reports for t in r["session_s"]]
    if not session_s:
        print("no measured session succeeded", file=sys.stderr)
        return 1
    if args.trace:
        from tracing import PER_LAYER

        for name in sorted({a for r in reports for a in r["absent"]}):
            print(f"absent metric: {name} not found, reads 0")
        print(f"traced session_s median {statistics.median(session_s):.6f} s")
        metrics = {
            name: (statistics.median(r["layers"][name] for r in reports), unit)
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            "session_s": (statistics.median(session_s), "s"),
            "results_per_s": (
                sum(r["results"] for r in reports) / sum(r["measured_s"] for r in reports), "1/s"
            ),
            "comm_bytes": (statistics.median(b for r in reports for b in r["comm_bytes"]), "B"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        }
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
