"""The benchmark's four workloads: op lists made from a seed, inputs built
through the program's public API, and each op's exact result as a string.

Every op is one case (a fixed graph and question) with weights taken from
a small pool of pinned variants of that case; the run's seed picks the
variant of each op.  So the inputs are a function of the seed, and
expected.json can hold the exact answer of every op any seed can issue.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

# Ops call the library through the package namespace, so that the
# functions the tracer wraps after set-up are the ones called.
import bunkbed as bb
from bunkbed import ConnectivitySpec, Graph, SymmetricWeight, WeightSource

BENCH_DIR = Path(__file__).resolve().parent


class OpTimeout(BaseException):
    """An op ran past its time budget.  A BaseException, so that no
    `except Exception` inside the program can swallow it."""


@contextmanager
def alarm(budget: float):
    """Raise OpTimeout in the main thread once `budget` seconds have passed."""
    armed = [True]

    def fire(signum, frame):
        if armed[0]:
            raise OpTimeout(f"over its {budget:.0f} s budget")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Op:
    """One timed call.  `call` does the work; `render` turns its return
    value into the exact result string, outside the timed region."""

    case: str
    pool: int
    call: Callable[[], Any]
    render: Callable[[Any], str]


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def path(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


K2 = path(2)
C6 = cycle(6)
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
K4_CHAIN2 = Graph(7, K4.edges + tuple((u + 3, v + 3) for u, v in K4.edges))  # blocks share vertex 3
GRID_2X3 = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)))
TREE5 = Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))


def random_symmetric(base: Graph, denominator: int, key: str) -> SymmetricWeight:
    """Seeded random symmetric weight with values k/denominator, k odd.

    For a power-of-two denominator no value reduces, so every weight of a
    case has the same common denominator, and no value is 0 or 1: the cost
    of an op depends on its case, not on which variant was drawn."""
    rng = random.Random(key)
    half = denominator // 2
    values = [Fraction(2 * rng.randrange(half) + 1, denominator)
              for _ in range(base.edge_count + base.vertex_count)]
    return SymmetricWeight(bb.bunkbed(base), tuple(values[:base.edge_count]), tuple(values[base.edge_count:]))


class Workload:
    """A list of cases run pass after pass.  The seed picks the weight
    variant each case starts from, and each further op of the case in the
    run moves on to the next variant, so that runs on any seed see an even
    mix of variants and no two ops of a case share weights until its pool
    is used up."""

    name = ""
    pool_size = 8  # pinned weight variants per case
    budget_s = 40.0  # time budget of one op

    def __init__(self, workdir: Path | None = None, tracer=None):
        """`workdir` holds input files; `tracer` follows ops run in other processes."""

    def cases(self) -> list[str]:
        """Every case, once."""
        raise NotImplementedError

    def pass_cases(self) -> list[str]:
        """The cases of one pass, in order."""
        return self.cases()

    def op(self, case: str, pool: int) -> Op:
        raise NotImplementedError

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        order = self.pass_cases()
        per_pass = Counter(order)
        start: dict[str, int] = {}
        done: Counter = Counter()
        out = []
        for case in order:
            if case not in start:
                start[case] = rng.randrange(self.pool_size)
            pool = (start[case] + pass_index * per_pass[case] + done[case]) % self.pool_size
            done[case] += 1
            out.append(self.op(case, pool))
        return out

    def execute(self, op: Op, budget: float):
        with alarm(budget):
            return op.call()


class Query(Workload):
    """Hard single two-point queries through the decomposition engine.

    C6 comes four times a pass and every other case once, so the run's
    median op is C6, measured on 8 ops spread over a 30 s run, and its
    90th percentile is P13; with one of each, the median would be the mean
    of two cases measured on 3 ops each, which one slow spell of a shared
    machine moves."""

    name = "query"
    pool_size = 16  # C6 uses 4 variants a pass
    # case -> (base graph, bunkbed vertex a, bunkbed vertex b)
    CASES = {
        "P9": (path(9), 0, 8),
        "P11": (path(11), 0, 10),
        "P13": (path(13), 0, 12),
        "C6": (C6, 0, 3 + 6),
        "K4": (K4, 0, 1 + 4),
        "K4x2": (K4_CHAIN2, 0, 6),
    }

    def cases(self) -> list[str]:
        return list(self.CASES)

    def pass_cases(self) -> list[str]:
        return ["P9", "C6", "P11", "C6", "P13", "C6", "K4", "C6", "K4x2"]

    def op(self, case: str, pool: int) -> Op:
        base, a, b = self.CASES[case]
        sw = random_symmetric(base, 64, f"query:{case}:{pool}")
        return Op(
            case, pool,
            lambda: bb.two_point_probability(base, sw, a, b, threads=1),
            lambda report: fraction_text(report.value),
        )


class Sweep(Workload):
    """Inequality checking over a graph family, one (graph, pair) per op.

    All pairs of one graph share the weight variant drawn for the graph in
    that pass, as in a real check of the graph."""

    name = "sweep"
    pool_size = 4  # fewer than elsewhere: 554 cases
    budget_s = 10.0
    WEIGHTS_PER_OP = 3

    def __init__(self, workdir: Path | None = None, tracer=None):
        self.graphs = {}
        for n in range(2, 8):
            for i, tree in enumerate(bb.enumerate_trees(n)):
                self.graphs[f"T{n}.{i}"] = tree
        self.graphs["C4"] = cycle(4)
        self.graphs["C3+P2"] = Graph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4)))
        self.graphs["C4+P2"] = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)))

    @staticmethod
    def pairs(g: Graph) -> list[tuple[int, int]]:
        return [(x, y) for x in range(g.vertex_count) for y in range(x, g.vertex_count)]

    def cases(self) -> list[str]:
        return [f"{gid}:{x},{y}" for gid, g in self.graphs.items() for x, y in self.pairs(g)]

    def op(self, case: str, pool: int) -> Op:
        gid, pair_text = case.split(":")
        pair = tuple(int(v) for v in pair_text.split(","))
        g = self.graphs[gid]
        source = WeightSource.random(self.WEIGHTS_PER_OP, denominator=4, seed=pool)
        return Op(
            case, pool,
            lambda: bb.check_graph(g, source, pairs=[pair]),
            lambda report: sweep_result(report, pair),
        )

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for gid, g in self.graphs.items():
            pool = (rng.randrange(self.pool_size) + pass_index) % self.pool_size
            out += [self.op(f"{gid}:{x},{y}", pool) for x, y in self.pairs(g)]
        return out


def sweep_result(report, pair) -> str:
    """Worst same- and cross-layer values of the pair, then the numbers of
    violations and errors."""
    worst = report.worst_by_pair.get(pair)
    values = "-" if worst is None else f"{fraction_text(worst.same_layer)} {fraction_text(worst.cross_layer)}"
    return f"{values} {len(report.violations)} {len(report.errors)}"


def canonical_partition(labels) -> tuple[int, ...]:
    """Component labels renumbered in order of first appearance."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(r, len(names)) for r in labels)


def distribution_digest(dists) -> str:
    """sha256 of each distribution as {partition: probability}: partitions
    labelled canonically, zero-mass ones dropped, over the least common
    denominator.  So the digest depends neither on slot order, component
    representatives nor the denominator an implementation carries."""
    digest = hashlib.sha256()
    layouts = {}  # id(labels) -> (partition index of each slot, partition texts); dists may share labels
    for dist in dists:
        layout = layouts.get(id(dist.labels))
        if layout is None:
            parts = [canonical_partition(labels) for labels in dist.labels]
            unique = sorted(set(parts))
            index = {part: i for i, part in enumerate(unique)}
            layout = layouts[id(dist.labels)] = ([index[p] for p in parts], [repr(p) for p in unique])
        part_of_slot, texts = layout
        mass = [0] * len(texts)
        for i, num in zip(part_of_slot, dist.numerators):
            mass[i] += num
        g = math.gcd(dist.denominator, *mass)
        keep = [i for i, m in enumerate(mass) if m]
        digest.update(",".join(texts[i] for i in keep).encode())
        digest.update(repr([dist.denominator // g] + [mass[i] // g for i in keep]).encode())
    return "sha256:" + digest.hexdigest()[:24]


class Brute(Workload):
    """The reference enumeration: event_probability, and a
    connectivity_distributions sweep shared by 20 weights.

    The C6 event comes three times a pass and every other case once, so
    the run's median op is the C6 event, measured on 9 or more ops spread
    over the run, rather than the mean of two cases measured on 3 ops each;
    the 90th percentile is the 2x3 grid."""

    name = "brute"
    pool_size = 16  # the C6 event uses 3 variants a pass
    EVENTS = {
        "K4": (K4, 0, 1 + 4),
        "C6": (C6, 0, 3 + 6),
        "G2x3": (GRID_2X3, 0, 5 + 6),
    }
    DIST_CASE = "C6dist"
    DIST_WEIGHTS = 20

    def cases(self) -> list[str]:
        return [*self.EVENTS, self.DIST_CASE]

    def pass_cases(self) -> list[str]:
        return ["K4", "C6", self.DIST_CASE, "C6", "G2x3", "C6"]

    @classmethod
    def dist_weights(cls, pool: int):
        return [
            random_symmetric(C6, 8, f"brute:{cls.DIST_CASE}:{pool}:{i}").to_weight()
            for i in range(cls.DIST_WEIGHTS)
        ]

    def op(self, case: str, pool: int) -> Op:
        if case == self.DIST_CASE:
            weights = self.dist_weights(pool)
            return Op(
                case, pool,
                lambda: bb.connectivity_distributions(weights[0].graph, weights),
                distribution_digest,
            )
        base, a, b = self.EVENTS[case]
        w = random_symmetric(base, 64, f"brute:{case}:{pool}").to_weight()
        spec = ConnectivitySpec.connected(a, b)
        return Op(
            case, pool,
            lambda: bb.event_probability(w, spec, threads=1),
            lambda report: fraction_text(report.value),
        )


def graph_file(g: Graph) -> str:
    return f"vertices {g.vertex_count}\n" + "".join(f"edge {u} {v}\n" for u, v in g.edges)


def weight_file(sw: SymmetricWeight) -> str:
    base = sw.bunkbed.base
    lines = [f"w {u} {v} {fraction_text(p)}" for (u, v), p in zip(base.edges, sw.base_values)]
    lines += [f"post {x} {fraction_text(p)}" for x, p in enumerate(sw.post_values)]
    return "\n".join(lines) + "\n"


def cli_result(returncode: int, stdout: str) -> str:
    """Exit code, then stdout; a JSON report loses its elapsed_ms."""
    text = stdout
    if stdout.lstrip().startswith("{"):
        report = json.loads(stdout)
        report.pop("elapsed_ms", None)
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return f"{returncode}\n{text}"


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Cli(Workload):
    """The command as users run it: one `python -m bunkbed.cli` process per
    op, which never starts more than 2 pool workers."""

    name = "cli"
    K2_QUERIES = 15
    ARGS = {
        "K2 0-,1-": "prob k2.txt k2_w{pool}.txt 0- 1- --bunkbed --threads 1",
        "K2 0-,1+": "prob k2.txt k2_w{pool}.txt 0- 1+ --bunkbed --threads 1",
        "C6 brute t2": "prob c6.txt c6_w{pool}.txt 0- 3+ --bunkbed --method brute --threads 2",
        "C6 brute t1": "prob c6.txt c6_w{pool}.txt 0- 3+ --bunkbed --method brute --threads 1",
        "T5 check": "check tree5.txt --weights random:20 --seed {pool} --threads 1",
    }

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.child_cpu_s = 0.0  # CLI processes and their pool workers
        self.child_wall_s = 0.0
        self._runs = 0
        # the CLI runs the same bunkbed that this process imported
        self.env = {**os.environ, "PYTHONPATH": str(Path(bb.__file__).resolve().parent.parent)}
        (workdir / "tree5.txt").write_text(graph_file(TREE5))
        for name, g in (("k2", K2), ("c6", C6)):
            (workdir / f"{name}.txt").write_text(graph_file(g))
            for pool in range(self.pool_size):
                sw = random_symmetric(g, 64, f"cli:{name}:{pool}")
                (workdir / f"{name}_w{pool}.txt").write_text(weight_file(sw))

    def cases(self) -> list[str]:
        return list(self.ARGS)

    def pass_cases(self) -> list[str]:
        k2 = [case for case in self.ARGS if case.startswith("K2")]
        queries = [k2[i % 2] for i in range(self.K2_QUERIES)]
        return queries + [case for case in self.ARGS if not case.startswith("K2")]

    def op(self, case: str, pool: int) -> Op:
        # `call` yields the command line; execute() runs it under its budget
        args = self.ARGS[case].format(pool=pool).split()
        return Op(case, pool, lambda: args, lambda res: cli_result(*res))

    def execute(self, op: Op, budget: float) -> tuple[int, str]:
        args = op.call()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bunkbed.cli", *args]
        else:
            self._runs += 1
            trace_file = self.workdir / f"trace_{self._runs}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(trace_file), *args]
        cpu0, wall0 = _cpu_s(resource.RUSAGE_CHILDREN), time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI and any pool workers
            proc.communicate()
            raise OpTimeout(f"over its {budget:.0f} s budget") from None
        finally:
            self.child_wall_s += time.perf_counter() - wall0
            self.child_cpu_s += _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
        if self.tracer is not None:
            self.tracer.merge(json.loads(trace_file.read_text()))
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
        return proc.returncode, stdout


WORKLOADS = {w.name: w for w in (Query, Sweep, Brute, Cli)}
