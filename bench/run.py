"""Benchmark of the bunkbed toolkit.

    python3 bench/run.py --workload {query,sweep,brute,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Each workload run happens in a fresh interpreter (bench/worker.py), so
import cost, cold caches and peak memory are paid as a user pays them.
Every op's exact result is compared with bench/expected.json; a mismatch,
an exception, a wrong exit code or an overrun of the op's time budget is a
failed op.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json.  With --trace 1 they are the per-layer
ones: one pass of the op list runs traced, and one more untraced for the
tracing overhead.  The line before it is a record of the run: commit,
versions, nproc, seed, sample counts and the first failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = BENCH_DIR / "_work"
WORKLOADS = ("query", "sweep", "brute", "cli")
SETUP_REPS = 6  # set-up-only interpreters per run, besides the measured run's own
IMPORT_REPS = 3
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The run could not produce a result at all (not an op failure)."""


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, *, timeout: float, trace=False, passes=None, setup_only=False):
    """Run bench/worker.py; return (seconds until it was ready, its result)."""
    WORK_ROOT.mkdir(exist_ok=True)
    out = WORK_ROOT / f"result-{uuid.uuid4().hex}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if passes is not None:
        cmd += ["--passes", str(passes)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    try:
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"worker for {args.workload} exited with {code} (killed after {timeout:.0f} s if -9)")
        return ready_s, (None if setup_only else json.loads(out.read_text()))
    finally:
        out.unlink(missing_ok=True)


def load_expected(workload: str) -> dict[str, list[str]]:
    return json.loads((BENCH_DIR / "expected.json").read_text())[workload]


def check_results(expected: dict[str, list[str]], ops: list[dict]) -> None:
    """Mark every op whose result differs from the pinned one as failed."""
    for op in ops:
        if op["status"] != "ok":
            continue
        pool = expected.get(op["case"], [])
        want = pool[op["pool"]] if op["pool"] < len(pool) else None
        if op["result"] != want:
            op["status"] = "mismatch"
            op["error"] = f"expected {want!r}, got {op['result']!r}"


def summary(ops: list[dict], metrics: dict) -> dict:
    """The result line: an op counts as failed unless its status is ok."""
    failed = sum(1 for op in ops if op["status"] != "ok")
    return {"correct": bool(ops) and not failed, "attempted": len(ops), "failed": failed, "metrics": metrics}


def metric(value, unit: str, reason: str | None = None) -> dict:
    if reason is not None:
        return {"value": None, "unit": unit, "reason": reason}
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    """num/den, and 0 when nothing was measured."""
    return num / den if den else 0.0


def case_latencies(ops: list[dict]) -> list[float]:
    """One latency per op: the median latency of the op's case in this run,
    a failed op counting as its whole time budget.  Percentiles over these
    keep the run's mix of cases but not one op's jitter, which on a shared
    machine would otherwise decide a percentile that falls between two
    cases."""
    by_case: dict[str, list[float]] = {}
    for op in ops:
        took = op["latency_s"] if op["status"] == "ok" else max(op["latency_s"], op["budget_s"])
        by_case.setdefault(op["case"], []).append(took)
    typical = {case: statistics.median(times) for case, times in by_case.items()}
    return [typical[op["case"]] for op in ops]


def end_to_end(run: dict, setups: list[float]) -> dict:
    ops = run["ops"]
    ok = sum(1 for op in ops if op["status"] == "ok")
    latencies = case_latencies(ops)
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(ok / sum(op["latency_s"] for op in ops), "1/s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_p90_s": metric(p90, "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }


def import_seconds() -> float:
    """Median wall time of `python -c "import bunkbed.cli"`."""
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bunkbed.cli"], cwd=ROOT, env=program_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(traced: dict, plain: dict, import_s: float) -> dict:
    snap = traced["trace"]
    layers, counters, cache, missing = snap["layers"], snap["counters"], snap["cache"], snap["missing"]
    total_self = sum(stats["self_s"] for stats in layers.values())
    out = {}
    for name in LAYERS:
        stats = layers[name]
        out[f"{name}.calls"] = metric(stats["calls"], "count")
        out[f"{name}.self_s"] = metric(stats["self_s"], "s")
        out[f"{name}.share"] = metric(ratio(stats["self_s"], total_self), "ratio")
    busy = layers["percolation"]["span_s"]
    lookups = cache["hits"] + cache["misses"]
    out.update({
        "percolation.busy_s": metric(busy, "s"),
        "percolation.atoms": metric(counters["atoms"], "count"),
        "percolation.atoms_per_s": metric(ratio(counters["atoms"], busy), "1/s"),
        "percolation.max_edges": metric(counters["max_edges"], "count"),
        "percolation.slots": metric(counters["slots"], "count"),
        "percolation.bigint_atom_share": metric(ratio(counters["bigint_atoms"], counters["atoms"]), "ratio"),
        "percolation.pool_calls": metric(counters["pool_calls"], "count"),
        "reduction.atoms_reported": metric(counters["atoms_reported"], "count"),
        "reduction.cache_hit_ratio": metric(ratio(cache["hits"], lookups), "ratio"),
        "checker.deltas": metric(counters["deltas"], "count"),
        "cli.import_s": metric(import_s, "s"),
        "cli.child_cpu_s": metric(plain["cli_child_cpu_s"], "s"),
        "cli.cpu_per_wall": metric(ratio(plain["cli_child_cpu_s"], plain["cli_child_wall_s"]), "ratio"),
        "trace.overhead_s": metric(traced["ops_wall_s"] - plain["ops_wall_s"], "s"),
    })
    for name, reason in missing.items():
        out[name] = metric(None, out[name]["unit"], reason)
    return out


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the program's sources, which names the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bunkbed toolkit.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bunkbed" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'bunkbed'} is missing", file=sys.stderr)
        return 2

    try:
        if args.trace:
            import_s = import_seconds()
            _, run = start_worker(args, timeout=WORKER_TIMEOUT_S / 2, trace=True, passes=1)
            _, plain = start_worker(args, timeout=WORKER_TIMEOUT_S / 2, passes=run["passes"])
            check_results(load_expected(args.workload), run["ops"])
            metrics = per_layer(run, plain, import_s)
            setups = []
        else:
            # set-up samples before and after the run, so that they see the
            # same spell of machine load as the ops do
            setups = [start_worker(args, timeout=60, setup_only=True)[0] for _ in range(SETUP_REPS // 2)]
            ready_s, run = start_worker(args, timeout=WORKER_TIMEOUT_S)
            setups.append(ready_s)
            setups += [start_worker(args, timeout=60, setup_only=True)[0] for _ in range(SETUP_REPS - SETUP_REPS // 2)]
            check_results(load_expected(args.workload), run["ops"])
            metrics = end_to_end(run, setups)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not Path(run["bunkbed_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: measured {run['bunkbed_file']}, not this checkout's src/", file=sys.stderr)
        return 1

    ops = run["ops"]
    failed = [op for op in ops if op["status"] != "ok"]
    record = {
        "commit": commit(),
        "src_sha256": src_digest(),
        "python": run["python"],
        "numpy": run["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": run["passes"],
        "op_samples": len(ops),
        "setup_samples": setups,
        "fail_ratio": len(failed) / len(ops) if ops else 1.0,
        "failures": [{k: op[k] for k in ("case", "pool", "pass", "status", "error")} for op in failed[:5]],
    }
    print(json.dumps({"record": record}))
    print(json.dumps(summary(ops, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
