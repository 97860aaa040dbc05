"""Tests of the benchmark itself: seeded inputs, exact-result checks, time
budgets and the shape of its result lines.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Traced runs happen in subprocesses only: the tracer rewires the bunkbed
modules of the process it is installed in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make(name: str, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return wl.WORKLOADS[name](workdir, None)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_ops_and_expected_values(name, tmp_path):
    expected = run.load_expected(name)
    first, again = make(name, tmp_path / "a"), make(name, tmp_path / "b")

    def listing(workload, seed):
        return [
            (op.case, op.pool, expected[op.case][op.pool])
            for p in range(3) for op in workload.ops(seed, p)
        ]

    assert listing(first, 11) == listing(again, 11)
    assert listing(first, 11) != listing(first, 12)


@pytest.mark.parametrize("name", ["query", "brute"])
def test_no_op_reuses_the_weights_of_an_earlier_one(name, tmp_path):
    # a repeat would be served from the engine's cache of distributions
    workload = make(name, tmp_path)
    ops = [(op.case, op.pool) for p in range(4) for op in workload.ops(7, p)]
    assert len(set(ops)) == len(ops)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_expected_table_covers_every_case_and_variant(name, tmp_path):
    workload = make(name, tmp_path)
    expected = run.load_expected(name)
    assert sorted(expected) == sorted(workload.cases())
    assert all(len(results) == workload.pool_size for results in expected.values())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_another_seed_has_no_failed_op(name):
    # in a worker process, so that this process's caches and heap stay small
    args = argparse.Namespace(workload=name, seed=987_654, seconds=0)
    _, result = run.start_worker(args, timeout=150, passes=1)
    run.check_results(run.load_expected(name), result["ops"])
    assert result["passes"] == 1
    assert [op for op in result["ops"] if op["status"] != "ok"] == []


def test_wrong_expected_value_is_a_failed_op(tmp_path):
    workload = make("brute", tmp_path)
    records, _ = worker.run_passes(workload, workload.ops(3, 0)[:1], 3, seconds=0, passes=1)
    tampered = {case: list(results) for case, results in run.load_expected("brute").items()}
    op = records[0]
    tampered[op["case"]][op["pool"]] = "1/3"
    run.check_results(tampered, records)
    line = run.summary(records, {})
    assert records[0]["status"] == "mismatch"
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 1, 1)


class _Stuck(wl.Workload):
    name = "stuck"
    budget_s = 0.2

    def cases(self):
        return ["sleeps", "answers"]

    def op(self, case, pool):
        if case == "sleeps":
            return wl.Op(case, pool, lambda: time.sleep(5), str)
        return wl.Op(case, pool, lambda: 42, str)


def test_overrun_is_a_failed_op_and_the_run_goes_on():
    workload = _Stuck()
    t0 = time.perf_counter()
    records, _ = worker.run_passes(workload, workload.ops(0, 0), 0, seconds=0, passes=1)
    assert time.perf_counter() - t0 < 2
    assert [op["status"] for op in records] == ["timeout", "ok"]
    assert records[1]["result"] == "42"


def bench(*args: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def test_end_to_end_run_prints_every_metric():
    record, result = bench("--workload", "sweep", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 554
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]] == {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        assert result["metrics"][m["name"]]["value"] > 0
    assert record["seed"] == 5 and record["nproc"] >= 1 and record["numpy"]
    assert len(record["setup_samples"]) == run.SETUP_REPS + 1


def test_traced_run_prints_every_layer_metric():
    _, result = bench("--workload", "sweep", "--seed", "5", "--seconds", "1", "--trace", "1")
    metrics = result["metrics"]
    assert result["correct"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert metrics["checker.calls"]["value"] == 554
    assert metrics["checker.deltas"]["value"] == 554 * wl.Sweep.WEIGHTS_PER_OP
    assert metrics["percolation.share"]["value"] < 0.5
    assert metrics["percolation.pool_calls"]["value"] == 0
    assert metrics["reduction.cache_hit_ratio"]["value"] > 0


def test_missing_hook_gives_null_metric():
    script = (
        "import bunkbed.reduction as r, tracer\n"
        "del r._cached_distribution\n"
        "print(tracer.Tracer().install().missing)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=BENCH_DIR, env=run.program_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert "reduction.cache_hit_ratio" in done.stdout
    snapshot = tracer.Tracer().snapshot()
    snapshot["missing"] = {"reduction.cache_hit_ratio": "LRU not found"}
    traced = {"trace": snapshot, "ops_wall_s": 1.0}
    plain = {"ops_wall_s": 1.0, "cli_child_cpu_s": 0.0, "cli_child_wall_s": 0.0}
    metrics = run.per_layer(traced, plain, 0.3)
    assert metrics["reduction.cache_hit_ratio"] == {"value": None, "unit": "ratio", "reason": "LRU not found"}


def test_without_the_program_the_run_fails(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
