"""Pin the exact result of every op the benchmark can issue.

    PYTHONPATH=src python3 bench/make_expected.py [WORKLOAD ...]

Runs every (case, weight variant) of the named workloads (default: all)
once through the same code path as the benchmark and writes their entries
of bench/expected.json.  Each value is
cross-checked by brute-force enumeration where the bunkbed has at most 20
edges; the rest (the P9, P11 and P13 endpoints and K4-chain x2) are pinned
from the engine as it stands.  Any disagreement stops the script before
anything is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import bunkbed as bb
from bunkbed import ConnectivitySpec, WeightSource

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "expected.json"


def brute_text(w, a: int, b: int) -> str:
    """P(a ~ b) under plain weight w, by exhaustive enumeration."""
    return wl.fraction_text(bb.event_probability(w, ConnectivitySpec.connected(a, b)).value)


def pin(workload) -> dict[str, list[str]]:
    table = {}
    for case in workload.cases():
        results = []
        for pool in range(workload.pool_size):
            op = workload.op(case, pool)
            results.append(op.render(workload.execute(op, 600.0)))
        table[case] = results
    return table


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"brute-force cross-check failed: {what}")


def check_query(query, table) -> int:
    checked = 0
    for case in ("K4", "C6"):
        base, a, b = query.CASES[case]
        for pool, value in enumerate(table[case]):
            sw = wl.random_symmetric(base, 64, f"query:{case}:{pool}")
            check(brute_text(sw.to_weight(), a, b) == value, f"query {case} pool {pool}")
            checked += 1
    return checked


def worst_pair_text(dists, x: int, y: int, n: int) -> str:
    """What sweep_result reports for one pair, from brute-force
    distributions of the bunkbed under each weight of one source."""
    worst = None
    for dist in dists:
        same = dist.connection(x, y)
        cross = dist.connection(x, y + n)
        if worst is None or same - cross < worst[0] - worst[1]:
            worst = (same, cross)
    violations = sum(1 for d in dists if d.connection(x, y) < d.connection(x, y + n))
    return f"{wl.fraction_text(worst[0])} {wl.fraction_text(worst[1])} {violations} 0"


def check_sweep(sweep, table) -> int:
    checked = 0
    for gid, g in sweep.graphs.items():
        bunk = bb.bunkbed(g)
        weights = [
            [sw.to_weight() for sw in WeightSource.random(sweep.WEIGHTS_PER_OP, denominator=4, seed=pool).iter_weights(bunk)]
            for pool in range(sweep.pool_size)
        ]
        flat = [w for ws in weights for w in ws]
        dists = bb.connectivity_distributions(bunk.total, flat)
        k = sweep.WEIGHTS_PER_OP
        for pool in range(sweep.pool_size):
            pool_dists = dists[pool * k:(pool + 1) * k]
            for x, y in sweep.pairs(g):
                case = f"{gid}:{x},{y}"
                want = worst_pair_text(pool_dists, x, y, g.vertex_count)
                check(table[case][pool] == want, f"sweep {case} pool {pool}")
                checked += 1
    return checked


def _brute_pair(args) -> str:
    w, a, b = args
    return brute_text(w, a, b)


def check_brute(brute, table) -> int:
    checked = 0
    for case, (base, a, b) in wl.Brute.EVENTS.items():
        for pool, value in enumerate(table[case]):
            sw = wl.random_symmetric(base, 64, f"brute:{case}:{pool}")
            engine = bb.two_point_probability(base, sw, a, b).value
            check(wl.fraction_text(engine) == value, f"brute {case} pool {pool} against the engine")
            checked += 1
    # the shared sweep against event_probability, two pairs per weight
    n = wl.C6.vertex_count
    jobs, reads = [], []
    for pool in range(brute.pool_size):
        weights = brute.dist_weights(pool)
        dists = bb.connectivity_distributions(weights[0].graph, weights)
        for w, dist in zip(weights, dists):
            for a, b in ((0, 3), (0, 3 + n)):
                jobs.append((w, a, b))
                reads.append(wl.fraction_text(dist.connection(a, b)))
    with ProcessPoolExecutor(max_workers=2) as pool:
        for i, value in enumerate(pool.map(_brute_pair, jobs, chunksize=4)):
            check(value == reads[i], f"brute C6dist job {i}")
            checked += 1
    return checked


def check_cli(cli, table) -> int:
    checked = 0
    for pool in range(cli.pool_size):
        k2 = wl.random_symmetric(wl.K2, 64, f"cli:k2:{pool}").to_weight()
        for case, target in (("K2 0-,1-", 1), ("K2 0-,1+", 3)):
            code, out = table[case][pool].split("\n", 1)
            check(code == "0" and out.split()[0] == brute_text(k2, 0, target), f"cli {case} pool {pool}")
            checked += 1
        c6 = wl.random_symmetric(wl.C6, 64, f"cli:c6:{pool}")
        engine = wl.fraction_text(bb.two_point_probability(wl.C6, c6, 0, 3 + 6).value)
        for case in ("C6 brute t2", "C6 brute t1"):
            code, out = table[case][pool].split("\n", 1)
            check(code == "0" and out.split()[0] == engine, f"cli {case} pool {pool} against the engine")
            checked += 1
        code, out = table["T5 check"][pool].split("\n", 1)
        report = json.loads(out)
        bunk = bb.bunkbed(wl.TREE5)
        weights = [sw.to_weight() for sw in WeightSource.random(20, seed=pool).iter_weights(bunk)]
        dists = bb.connectivity_distributions(bunk.total, weights)
        for entry in report["pairs"]:
            same, cross, _, _ = worst_pair_text(dists, entry["x"], entry["y"], wl.TREE5.vertex_count).split()
            check((entry["same_layer"], entry["cross_layer"]) == (same, cross), f"cli T5 check pool {pool}")
            checked += 1
    return checked


CHECKS = {"query": check_query, "sweep": check_sweep, "brute": check_brute, "cli": check_cli}


def main() -> int:
    names = sys.argv[1:] or list(wl.WORKLOADS)
    expected = json.loads(OUT.read_text()) if OUT.exists() else {}
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH_DIR / "_work"))
    try:
        for name in names:
            cls = wl.WORKLOADS[name]
            t0 = time.perf_counter()
            workload = cls(work, None)
            expected[name] = table = pin(workload)
            t1 = time.perf_counter()
            checked = CHECKS[name](workload, table)
            print(f"{name}: pinned {sum(map(len, table.values()))} results in {t1 - t0:.0f} s, "
                  f"{checked} brute-force checks in {time.perf_counter() - t1:.0f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
