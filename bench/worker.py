"""One workload run in a fresh interpreter; bench/run.py starts it.

    python3 bench/worker.py --workload W --seed N --seconds S --out FILE
                            [--passes P] [--trace] [--setup-only]

Builds the inputs and prints "ready" once the first op can start.  Then one
client runs the op list back to back (a closed loop), pass after pass: a
new pass starts while it is expected to end the run nearer to S seconds
than stopping would, or exactly P passes run.  Each op's latency, status
and exact result go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import bunkbed
import numpy

from tracer import Tracer
from workloads import WORKLOADS, OpTimeout

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR / "_work"
# ops stop being started this long after the first one, so a run that has
# become very slow still ends well inside the run's time limit
OPS_DEADLINE_S = 120.0


def run_passes(workload, first_ops, seed: int, seconds: float, passes: int | None):
    records = []
    pass_walls = []
    ops = first_ops
    start = time.perf_counter()
    deadline = start + OPS_DEADLINE_S
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            budget = min(workload.budget_s, deadline - time.perf_counter())
            if budget <= 0:
                return records, pass_walls
            status, error, result = "ok", None, None
            t0 = time.perf_counter()
            try:
                value = workload.execute(op, budget)
            except OpTimeout as exc:
                status, error = "timeout", str(exc)
            except Exception as exc:  # any failure of the program is a failed op
                status, error = "error", f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if status == "ok":
                try:
                    result = op.render(value)
                except Exception as exc:
                    status, error = "error", f"unreadable result: {type(exc).__name__}: {exc}"
            records.append({
                "case": op.case, "pool": op.pool, "pass": len(pass_walls),
                "latency_s": latency, "budget_s": budget,
                "status": status, "result": result, "error": error,
            })
        pass_walls.append(time.perf_counter() - pass_start)
        if passes is not None:
            if len(pass_walls) >= passes:
                break
        elif time.perf_counter() - start + statistics.mean(pass_walls) / 2 > seconds:
            break  # one more pass would end the run further from `seconds`
        ops = workload.ops(seed, len(pass_walls))
    return records, pass_walls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out")
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        tracer = Tracer() if args.trace else None
        workload = WORKLOADS[args.workload](workdir, tracer)
        first_ops = workload.ops(args.seed, 0)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if tracer is not None:
            tracer.install()
        records, pass_walls = run_passes(workload, first_ops, args.seed, args.seconds, args.passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "passes": len(pass_walls),
        "ops_wall_s": sum(pass_walls),
        "ops": records,
        "peak_rss_mb": max(own, children) / 1024,  # ru_maxrss is in KiB on Linux
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bunkbed_file": bunkbed.__file__,
        "cli_child_cpu_s": getattr(workload, "child_cpu_s", 0.0),
        "cli_child_wall_s": getattr(workload, "child_wall_s", 0.0),
        "trace": None if tracer is None else tracer.snapshot(),
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
