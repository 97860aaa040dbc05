"""Bunkbed inequality checking over weight grids, random weights, and graph
families, plus the counterexample search loop.

For a base graph G with a symmetric weight on its bunkbed, the quantity of
interest for a vertex pair (x, y) is
delta = P(x- ~ y-) - P(x- ~ y+),
conjectured nonnegative for every graph, pair, and symmetric weight.  A
grid or random sweep over weights is an explicit under-approximation of
that quantifier; every report records what was actually checked.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from typing import Iterable, Iterator

from .graphs import (
    BunkbedGraph,
    Graph,
    GraphParseError,
    bunkbed,
    format_graph,
    parse_graph,
    two_connected,
)
from .percolation import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    SymmetricWeight,
    WeightParseError,
    format_rational,
    format_symmetric_weight,
    parse_rational,
    parse_symmetric_weight_file,
)
from .reduction import layer_probabilities


class BoundExceededError(ValueError):
    """Raised when a family enumeration request exceeds its configured bound."""


@dataclass(frozen=True)
class BunkbedDelta:
    """Same-layer minus cross-layer connection probability for one pair."""

    base: Graph
    weight: SymmetricWeight
    x: int
    y: int
    same_layer: Fraction
    cross_layer: Fraction
    delta: Fraction

    def __post_init__(self):
        if self.delta != self.same_layer - self.cross_layer:
            raise ValueError("delta must equal same_layer - cross_layer")

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "same_layer": format_rational(self.same_layer),
            "cross_layer": format_rational(self.cross_layer),
            "delta": format_rational(self.delta),
            "graph": format_graph(self.base),
            "weights": format_symmetric_weight(self.weight),
        }


@dataclass
class CheckReport:
    """Outcome of sweeping one graph over a weight source.

    weight_source records what was actually swept; any grid or random
    source is an explicit under-approximation of the all-weights
    quantifier.
    """

    graph_id: str
    graph: Graph
    pairs_checked: int
    weights_checked: int
    min_delta: Fraction | None
    worst_by_pair: dict[tuple[int, int], BunkbedDelta]
    violations: list[BunkbedDelta]
    errors: list[str]
    method: str
    seed: int | None
    weight_source: str
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        pairs = []
        for (x, y), d in sorted(self.worst_by_pair.items()):
            pairs.append(
                {
                    "x": x,
                    "y": y,
                    "same_layer": format_rational(d.same_layer),
                    "cross_layer": format_rational(d.cross_layer),
                    "delta": format_rational(d.delta),
                }
            )
        return {
            "graph": self.graph_id,
            "pairs": pairs,
            "min_delta": None if self.min_delta is None else format_rational(self.min_delta),
            "violations": [d.to_json() for d in self.violations],
            "errors": list(self.errors),
            "seed": self.seed,
            "method": self.method,
            "weight_source": self.weight_source,
            "elapsed_ms": int(self.elapsed * 1000),
        }


DEFAULT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def read_input(path, parse, *args):
    """parse(text of the file at path, *args), with an error that names the
    file: an OSError for text that is not UTF-8, as for any file that cannot
    be read, and the parser's own error type for text that does not parse."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return parse(text, *args)
    except (GraphParseError, WeightParseError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class WeightSource:
    """Where the symmetric weights of a check come from.

    grid: the full product grid of the given values over every symmetric
    dimension (one per base edge plus one per base vertex).  random: seeded
    values num/denominator with num uniform in [0, denominator].  explicit:
    a single weight read from a file.
    """

    kind: str
    values: tuple[Fraction, ...] = ()
    count: int = 0
    denominator: int = 64
    seed: int | None = None
    path: str | None = None

    @classmethod
    def grid(cls, values=DEFAULT_GRID) -> "WeightSource":
        vals = tuple(Fraction(v) for v in values)
        for v in vals:
            if not 0 <= v <= 1:
                raise ValueError(f"grid value {v} outside [0, 1]")
        if not vals:
            raise ValueError("grid needs at least one value")
        return cls(kind="grid", values=vals)

    @classmethod
    def random(cls, count: int, denominator: int = 64, seed: int = 0) -> "WeightSource":
        if count < 0:
            raise ValueError("count must be nonnegative")
        if denominator < 1:
            raise ValueError("denominator must be positive")
        return cls(kind="random", count=count, denominator=denominator, seed=seed)

    @classmethod
    def explicit(cls, path) -> "WeightSource":
        return cls(kind="explicit", path=str(path))

    def iter_weights(self, bb: BunkbedGraph) -> Iterator[SymmetricWeight]:
        ne = bb.base.edge_count
        nv = bb.base.vertex_count
        if self.kind == "grid":
            for combo in itertools.product(self.values, repeat=ne + nv):
                yield SymmetricWeight(bb, combo[:ne], combo[ne:])
        elif self.kind == "random":
            rng = random.Random(self.seed)
            d = self.denominator
            for _ in range(self.count):
                base_vals = tuple(Fraction(rng.randint(0, d), d) for _ in range(ne))
                post_vals = tuple(Fraction(rng.randint(0, d), d) for _ in range(nv))
                yield SymmetricWeight(bb, base_vals, post_vals)
        elif self.kind == "explicit":
            yield read_input(self.path, parse_symmetric_weight_file, bb)
        else:
            raise ValueError(f"unknown weight source kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "grid":
            return "grid{" + ",".join(format_rational(v) for v in self.values) + "}"
        if self.kind == "random":
            return f"random(count={self.count}, denominator={self.denominator}, seed={self.seed})"
        return f"file:{self.path}"


def bunkbed_delta(
    base: Graph,
    w: SymmetricWeight,
    x: int,
    y: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BunkbedDelta:
    """Both layer probabilities for one pair, read off one solve of the
    decomposition engine for the pair and weight."""
    same, cross = layer_probabilities(base, w, x, y, cap=cap)
    return BunkbedDelta(
        base=base, weight=w, x=x, y=y,
        same_layer=same, cross_layer=cross, delta=same - cross,
    )


def check_graph(
    base: Graph,
    source: WeightSource,
    *,
    pairs: Iterable[tuple[int, int]] | None = None,
    graph_id: str | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CheckReport:
    """Evaluate the bunkbed delta for every pair and every weight of the
    source.  Violations are collected, never discarded; per-pair cap errors
    are recorded and do not abort the sweep."""
    t0 = time.perf_counter()
    bb = bunkbed(base)
    if pairs is None:
        pair_list = [
            (x, y) for x in range(base.vertex_count) for y in range(x, base.vertex_count)
        ]
    else:
        pair_list = list(pairs)
    worst: dict[tuple[int, int], BunkbedDelta] = {}
    violations: list[BunkbedDelta] = []
    errors: list[str] = []
    min_delta: Fraction | None = None
    weights_checked = 0
    for wi, w in enumerate(source.iter_weights(bb)):
        weights_checked += 1
        for x, y in pair_list:
            try:
                d = bunkbed_delta(base, w, x, y, cap=cap)
            except EnumerationCapError as exc:
                errors.append(f"pair ({x}, {y}) weight {wi}: {exc}")
                continue
            if min_delta is None or d.delta < min_delta:
                min_delta = d.delta
            prev = worst.get((x, y))
            if prev is None or d.delta < prev.delta:
                worst[(x, y)] = d
            if d.delta < 0:
                violations.append(d)
    return CheckReport(
        graph_id=graph_id or f"graph(n={base.vertex_count}, m={base.edge_count})",
        graph=base,
        pairs_checked=len(pair_list),
        weights_checked=weights_checked,
        min_delta=min_delta,
        worst_by_pair=worst,
        violations=violations,
        errors=errors,
        method="decomposition",
        seed=source.seed,
        weight_source=source.describe(),
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Unlabeled tree enumeration
# ---------------------------------------------------------------------------

DEFAULT_TREE_BOUND = 8


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _tree_centers(n: int, adj: list[list[int]]) -> list[int]:
    if n == 1:
        return [0]
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    removed = 0
    alive = [True] * n
    while n - removed > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            removed += 1
            for w in adj[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return [v for v in range(n) if alive[v]]


def _rooted_encoding(adj: list[list[int]], root: int) -> str:
    def rec(u: int, parent: int) -> str:
        return "(" + "".join(sorted(rec(w, u) for w in adj[u] if w != parent)) + ")"

    return rec(root, -1)


def _canonical_from_adjacency(n: int, adj: list[list[int]]) -> str:
    centers = _tree_centers(n, adj)
    return min(_rooted_encoding(adj, c) for c in centers)


def tree_canonical_form(g: Graph) -> str:
    """Center-rooted canonical encoding; equal strings iff isomorphic trees."""
    n = g.vertex_count
    adj = [[w for w, _ in g.adjacency[v]] for v in range(n)]
    return _canonical_from_adjacency(n, adj)


def _free_tree_count(n: int) -> int:
    """Number of unlabeled trees on n vertices, by Otter's formula
    t(n) = r(n) - (sum_{i+j=n} r(i) r(j) - r(n/2)) / 2, where r counts
    rooted trees and r(n/2) is 0 for odd n."""
    r = [0, 1]  # r[k]: rooted trees on k vertices
    s = [0, 1]  # s[j]: sum of d * r[d] over the divisors d of j
    for k in range(1, n):
        r.append(sum(s[j] * r[k + 1 - j] for j in range(1, k + 1)) // k)
        s.append(sum(d * r[d] for d in range(1, k + 2) if (k + 1) % d == 0))
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


def enumerate_trees(n: int, *, bound: int = DEFAULT_TREE_BOUND) -> list[Graph]:
    """All unlabeled trees on n vertices, one representative per
    isomorphism class: the first labeled tree of each class in
    lexicographic Pruefer order, deduplicated by canonical form.  The scan
    stops once Otter's count of classes is reached: after 2% of the n^(n-2)
    sequences at n = 8 (0.2 s) and 1.6% at n = 9 (3 s)."""
    if n < 1:
        raise ValueError(f"tree order must be at least 1, got {n}")
    if n > bound:
        raise BoundExceededError(f"tree order {n} outside [1, {bound}]")
    if n == 1:
        return [Graph(1, ())]
    classes = _free_tree_count(n)
    seen: set[str] = set()
    out: list[Graph] = []
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_edges(seq, n)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        key = _canonical_from_adjacency(n, adj)
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, tuple(edges)))
            if len(out) == classes:
                break
    return out


# ---------------------------------------------------------------------------
# Search and violation persistence
# ---------------------------------------------------------------------------


def violation_filename(delta: BunkbedDelta) -> str:
    digest = sha256(json.dumps(delta.to_json(), sort_keys=True).encode()).hexdigest()[:12]
    return f"violation_{delta.x}_{delta.y}_{digest}.json"


def save_violation(delta: BunkbedDelta, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / violation_filename(delta)
    path.write_text(json.dumps(delta.to_json(), indent=2, sort_keys=True))
    return path


def load_violation(path) -> BunkbedDelta:
    payload = json.loads(Path(path).read_text())
    base = parse_graph(payload["graph"])
    bb = bunkbed(base)
    weight = parse_symmetric_weight_file(payload["weights"], bb)
    return BunkbedDelta(
        base=base,
        weight=weight,
        x=payload["x"],
        y=payload["y"],
        same_layer=parse_rational(payload["same_layer"]),
        cross_layer=parse_rational(payload["cross_layer"]),
        delta=parse_rational(payload["delta"]),
    )


def recheck_violation(
    path, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[BunkbedDelta, BunkbedDelta]:
    """Load a persisted violation and recompute it; returns (recorded,
    recomputed).  Determinism demands the two agree exactly."""
    recorded = load_violation(path)
    recomputed = bunkbed_delta(recorded.base, recorded.weight, recorded.x, recorded.y, cap=cap)
    return recorded, recomputed


def search_candidates(
    graphs: Iterable[Graph],
    source: WeightSource,
    *,
    require_two_connected: bool = False,
    persist_dir=None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[CheckReport]:
    """Stream check reports over a graph generator.

    With require_two_connected, candidates that are not 2-connected are
    skipped (a minimal counterexample must be 2-connected).  Any violation
    is persisted immediately, before the stream continues.
    """
    for i, g in enumerate(graphs):
        gid = f"candidate-{i}(n={g.vertex_count}, m={g.edge_count})"
        if require_two_connected and not two_connected(g):
            yield CheckReport(
                graph_id=gid, graph=g, pairs_checked=0, weights_checked=0,
                min_delta=None, worst_by_pair={}, violations=[], errors=[],
                method="skipped", seed=source.seed,
                weight_source=source.describe(), elapsed=0.0,
            )
            continue
        report = check_graph(g, source, graph_id=gid, cap=cap)
        if report.violations and persist_dir is not None:
            for d in report.violations:
                save_violation(d, persist_dir)
        yield report
