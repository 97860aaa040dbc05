"""Exact edge-percolation probability space.

Every edge e is independently open with probability mu(e); an atom is one
subset K of the edge set and has probability
prod_{e in K} mu(e) * prod_{e not in K} (1 - mu(e)).
All weights are rationals and all arithmetic is exact: event probabilities
are sums of atom probabilities, computed as integer numerator sums over the
product of the per-edge denominators.

One kernel, _partition_numerators, does every enumeration: it walks the
edges once, keeping one integer numerator per weight for each partition of
the live vertices into open components, so atoms that leave the same
partition share all later work.  The walk forgets each non-terminal vertex
right after its last edge, so the table holds partitions of the sweep front
plus the terminals, not of every vertex; what comes out is the exact
distribution over partitions of the terminal set.  The order is the
narrower of two candidates (greedy and, on a bunkbed's layout, the same
greedy with both copies of each base vertex together), judged by the width
of its front before any walk.  Reordering only permutes the factors of
integer products, so every result is the same Fraction whatever the order.
A level of the table past STATE_CAP partitions raises EnumerationCapError;
the guard counts partitions, not bytes.  Edges outside a spec's
restriction mask never enter the enumeration; their factors sum to 1 and
are marginalized analytically.

Which entry flows into which depends on the graph, the terminals, the order
and which branches some weight can take, never on the weights themselves.
So a walk is compiled once into flat index arrays and cached, and each
weight replays it as integer multiply-adds over plain lists: a repeated
walk, or one over many weights, does the partition bookkeeping once.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import NamedTuple, Sequence

from .graphs import BunkbedGraph, Graph, has_bunkbed_layout

DEFAULT_ENUMERATION_CAP = 30

# the most partitions one level of the kernel's table may hold; it counts
# entries, not bytes: each entry's key has one character per vertex and its
# numerators, one per weight, grow with the edges walked
STATE_CAP = 1 << 21

# every enumeration runs in one process: no atom count reaches a pool; the
# name stays because bench/tracer.py reads it to count pool calls
PARALLEL_MIN_ATOMS = float("inf")

ZERO = Fraction(0)
ONE = Fraction(1)


class EnumerationCapError(RuntimeError):
    """Raised when an exact enumeration would exceed its cap: the configured
    number of edges, or STATE_CAP partitions in one level of the kernel."""

    def __init__(self, needed: int, cap: int, context: str = "", unit: str = "edges"):
        self.needed = needed
        self.cap = cap
        self.context = context
        self.unit = unit
        where = f" ({context})" if context else ""
        super().__init__(
            f"enumeration over {needed} {unit} exceeds the cap of {cap}{where}"
        )


class WeightParseError(ValueError):
    """Raised when a weight file cannot be parsed or does not cover the graph."""


def _check_probability(value: Fraction, what: str) -> Fraction:
    if not ZERO <= value <= ONE:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")
    return value


def _unit_fractions(values, what: str) -> tuple[Fraction, ...]:
    """The values as Fractions, each checked to lie in [0, 1]."""
    vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    for i, v in enumerate(vals):
        # a Fraction's denominator is positive, so integer bounds suffice
        if not 0 <= v.numerator <= v.denominator:
            raise ValueError(f"{what} {i} must lie in [0, 1], got {v}")
    return vals


@dataclass(frozen=True)
class Weight:
    """A per-edge rational open probability on a fixed graph."""

    graph: Graph
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.graph.edge_count:
            raise ValueError(
                f"need {self.graph.edge_count} edge values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", _unit_fractions(self.values, "weight of edge"))

    @classmethod
    def uniform(cls, graph: Graph, p) -> "Weight":
        return cls(graph, (Fraction(p),) * graph.edge_count)

    def replace(self, edge: int, value) -> "Weight":
        vals = list(self.values)
        vals[edge] = Fraction(value)
        return Weight(self.graph, tuple(vals))


@dataclass(frozen=True)
class SymmetricWeight:
    """A weight on a bunkbed whose two copies of each base edge are equal.

    The symmetry is structural: only one value per base edge is stored, so
    unequal copies cannot be represented.  Post edges are unconstrained.
    """

    bunkbed: BunkbedGraph
    base_values: tuple[Fraction, ...]
    post_values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.base_values) != self.bunkbed.base.edge_count:
            raise ValueError("one value per base edge required")
        if len(self.post_values) != self.bunkbed.base.vertex_count:
            raise ValueError("one value per base vertex required")
        bv = _unit_fractions(self.base_values, "weight of base edge")
        object.__setattr__(self, "base_values", bv)
        object.__setattr__(self, "post_values", _unit_fractions(self.post_values, "weight of post"))

    @classmethod
    def uniform(cls, bb: BunkbedGraph, p) -> "SymmetricWeight":
        f = Fraction(p)
        return cls(bb, (f,) * bb.base.edge_count, (f,) * bb.base.vertex_count)

    def to_weight(self) -> Weight:
        """The induced weight on the bunkbed's total graph."""
        values = [ZERO] * self.bunkbed.total.edge_count
        for e, v in enumerate(self.base_values):
            values[self.bunkbed.minus_edge(e)] = v
            values[self.bunkbed.plus_edge(e)] = v
        for x, v in enumerate(self.post_values):
            values[self.bunkbed.post_edge(x)] = v
        return Weight(self.bunkbed.total, tuple(values))


@dataclass(frozen=True)
class ConnectivitySpec:
    """A conjunction of pairwise connectivity constraints.

    positive pairs must be connected, negative pairs must not be.  With a
    restriction, connectivity is read from K intersected with the given
    edge-index mask and only masked edges are enumerated; the event must
    not depend on edges outside the mask.
    """

    positive: tuple[tuple[int, int], ...] = ()
    negative: tuple[tuple[int, int], ...] = ()
    restriction: frozenset[int] | None = None

    @classmethod
    def connected(cls, x: int, y: int, restriction=None) -> "ConnectivitySpec":
        r = None if restriction is None else frozenset(restriction)
        return cls(positive=((x, y),), restriction=r)

    def validate(self, graph: Graph) -> None:
        for x, y in self.positive + self.negative:
            if not (0 <= x < graph.vertex_count and 0 <= y < graph.vertex_count):
                raise ValueError(f"pair ({x}, {y}) out of range")
        if self.restriction is not None:
            for e in self.restriction:
                if not 0 <= e < graph.edge_count:
                    raise ValueError(f"restriction edge {e} out of range")


@dataclass(frozen=True)
class ProbabilityReport:
    """An exact probability plus how it was obtained.

    atoms_evaluated is the total size of the enumerated atom spaces; it is
    a deterministic function of the inputs, independent of internal result
    caching.
    """

    value: Fraction
    method: str  # 'brute_force' or 'decomposition'
    atoms_evaluated: int
    elapsed: float

    def __post_init__(self):
        _check_probability(self.value, "probability")


def atom_probability(w: Weight, edge_subset) -> Fraction:
    """Probability of the single atom K = edge_subset."""
    k = set(edge_subset)
    p = ONE
    for i, v in enumerate(w.values):
        p *= v if i in k else ONE - v
    return p


# ---------------------------------------------------------------------------
# Enumeration core
# ---------------------------------------------------------------------------


class _Schedule(NamedTuple):
    """How the kernel walks one edge set for one terminal set.

    order lists positions into the enumerated edges; forget[k] holds the
    non-terminal vertices whose last edge is the k-th one walked; width is
    the most vertices live at once (met by a walked edge, not yet forgotten).
    """

    order: tuple[int, ...]
    forget: tuple[tuple[int, ...], ...]
    width: int


@lru_cache(maxsize=256)
def _edge_schedule(
    n: int, edges: tuple[tuple[int, int], ...], terminals: tuple[int, ...]
) -> _Schedule:
    """The candidate order with the narrowest front.  A tie keeps the
    earlier candidate, so greedy stays wherever it is already as narrow."""
    return min(
        (_walk(edges, terminals, order) for order in _candidate_orders(n, edges, terminals)),
        key=lambda s: s.width,
    )


def _candidate_orders(
    n: int, edges: Sequence[tuple[int, int]], terminals: tuple[int, ...]
) -> list[list[int]]:
    """Edge orders that place the vertices one at a time, each walking its
    edges to placed ones as it is placed.  Both start at the smallest
    terminal with an edge:

    1. greedy: place, each time, the vertex with the most edges to placed
       ones (ties: lower degree, then lower index);
    2. only for the layout graphs.bunkbed produces (see
       graphs.has_bunkbed_layout): the same greedy over base vertices,
       placing both copies of each base vertex together, so that a cycle is
       swept as a ladder, not one whole layer before the other.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        adjacency[u].append((v, k))
        adjacency[v].append((u, k))
    start = min((t for t in terminals if adjacency[t]), default=None)
    neighbours = [[y for y, _ in a] for a in adjacency]
    greedy = _greedy(neighbours, {x for x in range(n) if adjacency[x]}, start)
    orders = [_placed_edges(adjacency, greedy)]
    if has_bunkbed_layout(n, edges):
        h = n // 2
        base = [[y % h for y in neighbours[x] + neighbours[x + h] if y % h != x] for x in range(h)]
        paired = _greedy(base, set(range(h)), None if start is None else start % h)
        orders.append(_placed_edges(adjacency, [z for x in paired for z in (x, x + h)]))
    return orders


def _greedy(neighbours: list[list[int]], unplaced: set[int], start: int | None) -> list[int]:
    """Place `start`, then, each time, the unplaced vertex with the most edges
    to placed ones (ties: lower degree, then lower index)."""
    links = [0] * len(neighbours)  # edges to placed vertices
    order = []
    while unplaced:
        x = start if start is not None else min(
            unplaced, key=lambda y: (-links[y], len(neighbours[y]), y)
        )
        start = None
        unplaced.discard(x)
        order.append(x)
        for y in neighbours[x]:
            if y in unplaced:
                links[y] += 1
    return order


def _placed_edges(adjacency: list[list[tuple[int, int]]], vertices: list[int]) -> list[int]:
    """The edge order that walks each vertex's edges to placed ones, by
    index, as the vertex is placed."""
    placed = set()
    order = []
    for x in vertices:
        order.extend(k for y, k in adjacency[x] if y in placed)
        placed.add(x)
    return order


def _walk(
    edges: Sequence[tuple[int, int]], terminals: tuple[int, ...], order: Sequence[int]
) -> _Schedule:
    """The schedule that walks `edges` in `order`, any order of them."""
    keep = set(terminals)
    last = {}
    for step, k in enumerate(order):
        for x in edges[k]:
            last[x] = step
    forget: list[list[int]] = [[] for _ in order]
    for x, step in last.items():
        if x not in keep:
            forget[step].append(x)
    width = live = 0
    met = set()
    for step, k in enumerate(order):
        for x in edges[k]:
            if x not in met:
                met.add(x)
                live += 1
        width = max(width, live)
        live -= len(forget[step])
    return _Schedule(tuple(order), tuple(map(tuple, forget)), width)


class _Plan(NamedTuple):
    """A compiled walk: each edge walked is one step, and each step reads
    the next stretch of `indices`, the lengths of six runs and then the
    runs.  The runs index the table before the step, and the table after it
    lists, in order:

    1. the entries the edge lies inside one component of, times its whole
       denominator;
    2. the entries it closes, times its closed numerator;
    3. the entries it opens into a partition not yet listed, times its open
       numerator;

    and then (4) pairs (i, j): entry i opened adds into entry j.  When the
    edge is the last of some vertices, forgetting them merges that table:
    (5) lists the entries that start the merged table, and (6) pairs (i, j)
    add entry i into the merged entry j; otherwise both runs are empty.  A
    pair counts once in its run's length.  labels are the final table's terminal labels, states its peak
    number of entries.
    """

    indices: array
    labels: tuple[tuple[int, ...], ...]
    states: int


class _Unretained(Exception):
    """Carries a plan too large for the plan cache out of it: lru_cache keeps
    no result of a call that raises."""


def _compile(
    n: int,
    edges: tuple[tuple[int, int], ...],
    terminals: tuple[int, ...],
    schedule: _Schedule,
    pattern: tuple[tuple[bool, bool], ...],
) -> _Plan:
    """Walk the partitions once, recording each step as runs of indices.

    pattern[k] tells whether edge k may open and whether it may close under
    some weight; a branch no weight can take is never listed.  Raises
    EnumerationCapError once a level's table passes STATE_CAP entries.
    """
    # character x of a label names the smallest live vertex of x's
    # component, so merging two components is one str.replace; a forgotten
    # vertex holds `gone`, which names no component
    gone = chr(n)
    table = {"".join(map(chr, range(n))): 0}  # label -> index in the table
    states = 1
    indices = array("I")
    for k, dropped in zip(schedule.order, schedule.forget):
        u, v = edges[k]
        can_open, can_close = pattern[k]
        runs = whole, closed, opened, adds, first, merges = [array("I") for _ in range(6)]
        nxt: dict[str, int] = {}
        for lab, i in table.items():
            if lab[u] == lab[v]:
                nxt[lab] = len(nxt)
                whole.append(i)
        if can_close:
            for lab, i in table.items():
                if lab[u] != lab[v]:
                    nxt[lab] = len(nxt)
                    closed.append(i)
        if can_open:
            get = nxt.get
            for lab, i in table.items():
                a, b = lab[u], lab[v]
                if a == b:
                    continue
                key = lab.replace(b, a) if a < b else lab.replace(a, b)
                j = get(key)
                if j is None:
                    nxt[key] = len(nxt)
                    opened.append(i)
                else:
                    adds.extend((i, j))
        states = max(states, len(nxt))
        if states > STATE_CAP:
            raise EnumerationCapError(states, STATE_CAP, unit="states")
        if dropped:
            table = {}
            for i, lab in enumerate(nxt):
                for x in dropped:
                    c = lab[x]
                    if c == chr(x):  # x names its component: pass the name on
                        y = lab.find(c, x + 1)
                        if y >= 0:
                            lab = lab.replace(c, chr(y))
                    lab = lab[:x] + gone + lab[x + 1:]
                j = table.get(lab)
                if j is None:
                    table[lab] = len(table)
                    first.append(i)
                else:
                    merges.extend((i, j))
        else:
            table = nxt
        header = len(whole), len(closed), len(opened), len(adds) // 2, len(first), len(merges) // 2
        indices.extend(header)
        for run in runs:
            indices.extend(run)
    labels = tuple(tuple(ord(lab[t]) for t in terminals) for lab in table)
    return _Plan(indices, labels, states)


@lru_cache(maxsize=256)
def _cached_plan(
    n: int,
    edges: tuple[tuple[int, int], ...],
    terminals: tuple[int, ...],
    schedule: _Schedule,
    pattern: tuple[tuple[bool, bool], ...],
) -> _Plan:
    """The compiled walk, kept while it holds at most STATE_CAP indices
    (4 bytes each); a larger one leaves in _Unretained."""
    plan = _compile(n, edges, terminals, schedule, pattern)
    if len(plan.indices) > STATE_CAP:
        raise _Unretained(plan)
    return plan


def _replay(plan: _Plan, factors: list[tuple[int, int]]) -> list[int]:
    """The numerators of a compiled walk's final table under one weight,
    factors[s] holding the open and the closed numerator of step s's edge."""
    run = iter(plan.indices)
    pairs = zip(run, run)  # consecutive indices (i, j)
    nums = [1]
    for o, c in factors:
        whole, closed, opened, adds, first, merges = islice(run, 6)
        w = o + c
        nxt = [nums[i] * w for i in islice(run, whole)]
        nxt += [nums[i] * c for i in islice(run, closed)]
        nxt += [nums[i] * o for i in islice(run, opened)]
        for i, j in islice(pairs, adds):
            nxt[j] += nums[i] * o
        if first:
            nums = [nxt[i] for i in islice(run, first)]
            for i, j in islice(pairs, merges):
                nums[j] += nxt[i]
        else:
            nums = nxt
    return nums


def _partition_numerators(
    n: int,
    edges: tuple[tuple[int, int], ...],
    factors: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    count: int,
    terminals: tuple[int, ...],
    schedule: _Schedule,
) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """The exact integer numerator of every partition of the terminals into
    open components.

    The one enumeration of the package.  An atom opens or closes each of
    the m `edges`; factors[i] holds the open and the closed numerator of
    edge i under each of `count` weights.  Returns the partitions, each as
    the smallest terminal of every terminal's component, one column of
    numerators per weight, and the peak number of table entries.  Raises
    EnumerationCapError when a level's table passes STATE_CAP entries: while
    the walk is compiled, and by its peak on every replay of a cached plan.

    The edges are walked in the schedule's order, keeping one entry per
    partition of the live vertices: all atoms whose edges so far leave the
    same components share it and its numerator per weight.  An edge inside
    one component multiplies the entry by the edge's whole denominator; an
    edge between two components splits it into a closed and a merged entry.
    A branch whose factor is 0 under every weight is dropped.  Right after
    a non-terminal vertex's last edge it is forgotten: its component is
    renamed by its smallest remaining vertex, and entries that become equal
    are merged.

    Which entries go where depends on the graph, the terminals, the
    schedule and which branches some weight can take, not on the weights:
    that bookkeeping is compiled once into an index array (_compile) and
    cached, and each weight replays it as integer multiply-adds (_replay).
    """
    pattern = tuple((any(opens), any(closeds)) for opens, closeds in factors)
    try:
        plan = _cached_plan(n, edges, terminals, schedule, pattern)
    except _Unretained as big:
        plan = big.args[0]
    if plan.states > STATE_CAP:
        raise EnumerationCapError(plan.states, STATE_CAP, unit="states")
    walked = [factors[k] for k in schedule.order]
    columns = [
        _replay(plan, [(opens[c], closeds[c]) for opens, closeds in walked])
        for c in range(count)
    ]
    if columns and 0 not in columns[0]:
        return list(plan.labels), columns, plan.states
    # drop the partitions no weight can reach
    live = [i for i, nums in enumerate(zip(*columns)) if any(nums)]
    labels = [plan.labels[i] for i in live]
    return labels, [[col[i] for i in live] for col in columns], plan.states


def _enumerated_edges(graph: Graph, restriction, cap: int) -> list[int]:
    """The edge indices an enumeration walks, within the cap."""
    edges = list(range(graph.edge_count)) if restriction is None else sorted(restriction)
    if len(edges) > cap:
        raise EnumerationCapError(len(edges), cap)
    return edges


def _distributions(
    graph: Graph,
    weights: Sequence[Weight],
    edges: list[int],
    restriction: tuple[int, ...] | None,
    terminals: tuple[int, ...],
) -> list[ConnectivityDistribution]:
    """Run the kernel over `edges` for every weight at once."""
    factors = []
    denominators = [1] * len(weights)
    for e in edges:
        values = [w.values[e] for w in weights]
        factors.append((
            tuple(p.numerator for p in values),
            tuple(p.denominator - p.numerator for p in values),
        ))
        denominators = [d * p.denominator for d, p in zip(denominators, values)]
    pairs = tuple(graph.edges[e] for e in edges)
    schedule = _edge_schedule(graph.vertex_count, pairs, terminals)
    labels, columns, states = _partition_numerators(
        graph.vertex_count, pairs, factors, len(weights), terminals, schedule
    )
    return [
        ConnectivityDistribution(
            graph, restriction, labels, nums, d, terminals, schedule.width, states
        )
        for nums, d in zip(columns, denominators)
    ]


def event_probability(
    w: Weight,
    spec: ConnectivitySpec,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> ProbabilityReport:
    """Exact probability of the event by exhaustive enumeration.

    Sums the measure of every edge subset satisfying all positive and
    negative constraints.  With a restriction only masked edges are
    enumerated (2^|mask| atoms); unmasked edges marginalize to 1.  The
    kernel keeps only the spec's own vertices as terminals.  `threads` is
    accepted for compatibility; the kernel runs in one process.
    """
    t0 = time.perf_counter()
    spec.validate(w.graph)
    edges = _enumerated_edges(w.graph, spec.restriction, cap)
    terminals = tuple(sorted({x for pair in spec.positive + spec.negative for x in pair}))
    value = _distributions(w.graph, [w], edges, None, terminals)[0].probability(spec)
    return ProbabilityReport(
        value=value,
        method="brute_force",
        atoms_evaluated=1 << len(edges),
        elapsed=time.perf_counter() - t0,
    )


def connection_probability(
    w: Weight,
    x: int,
    y: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    restriction=None,
) -> Fraction:
    """Probability that x and y end up in one open component; 1 when x == y."""
    if x == y:
        if not 0 <= x < w.graph.vertex_count:
            raise ValueError(f"vertex {x} out of range")
        return ONE
    spec = ConnectivitySpec.connected(x, y, restriction=restriction)
    return event_probability(w, spec, cap=cap).value


def sum_over_all_atoms(w: Weight, *, cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Sum of all atom probabilities; must be exactly 1 (normalization self-test)."""
    dist = _distributions(w.graph, [w], _enumerated_edges(w.graph, None, cap), None, ())[0]
    return Fraction(sum(dist.numerators), dist.denominator)


# ---------------------------------------------------------------------------
# Aggregated enumeration: the full measure grouped by connectivity partition
# ---------------------------------------------------------------------------


@dataclass
class ConnectivityDistribution:
    """The exact measure of one enumeration, grouped by the partition of a
    terminal set into open components.

    labels[i][k] is the smallest terminal in the component of terminals[k],
    so every partition has one slot; numerators[i] is the total atom
    numerator landing on that partition, over `denominator`.  Any
    conjunction of connectivity constraints between terminals, measurable
    over the enumerated edges, can be read off exactly.  width is the most
    vertices the kernel held live at once, states its peak table size.
    """

    graph: Graph
    restriction: tuple[int, ...] | None
    labels: list[tuple[int, ...]]
    numerators: list[int]
    denominator: int
    terminals: tuple[int, ...]
    width: int
    states: int
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {t: k for k, t in enumerate(self.terminals)}

    def _positions(self, pairs) -> list[tuple[int, int]]:
        try:
            return [(self._index[x], self._index[y]) for x, y in pairs]
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]} is not a terminal of this distribution") from None

    def probability(self, spec: ConnectivitySpec) -> Fraction:
        spec.validate(self.graph)
        pos = self._positions(spec.positive)
        neg = self._positions(spec.negative)
        total = 0
        for lab, num in zip(self.labels, self.numerators):
            ok = True
            for x, y in pos:
                if lab[x] != lab[y]:
                    ok = False
                    break
            if ok:
                for x, y in neg:
                    if lab[x] == lab[y]:
                        ok = False
                        break
            if ok:
                total += num
        return Fraction(total, self.denominator)

    def connection(self, x: int, y: int) -> Fraction:
        return ONE if x == y else self.probability(ConnectivitySpec.connected(x, y))


def connectivity_distributions(
    graph: Graph,
    weights: Sequence[Weight],
    *,
    restriction=None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    terminals=None,
) -> list[ConnectivityDistribution]:
    """One enumeration shared by several weights on the same graph.

    The partitions the kernel walks are the same for every weight, so
    checking many weights against one graph costs one walk of the
    partitions, compiled once and cached per graph, terminals and branches
    the weights can take, plus one multiply-add per weight per table entry
    and edge.  The partitions are
    those of `terminals` (default: every vertex); fewer terminals mean fewer
    partitions.
    """
    for w in weights:
        if w.graph is not graph and w.graph != graph:
            raise ValueError("all weights must live on the given graph")
    if terminals is None:
        terminals = range(graph.vertex_count)
    terminals = tuple(sorted(set(terminals)))
    for t in terminals:
        if not 0 <= t < graph.vertex_count:
            raise ValueError(f"terminal {t} out of range")
    edges = _enumerated_edges(graph, restriction, cap)
    return _distributions(
        graph, weights, edges, None if restriction is None else tuple(edges), terminals
    )


def connectivity_distribution(
    w: Weight, *, restriction=None, cap: int = DEFAULT_ENUMERATION_CAP, terminals=None
) -> ConnectivityDistribution:
    return connectivity_distributions(
        w.graph, [w], restriction=restriction, cap=cap, terminals=terminals
    )[0]


# ---------------------------------------------------------------------------
# Weight file format
# ---------------------------------------------------------------------------


def parse_rational(token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise WeightParseError(f"bad rational {token!r}") from exc


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_weight_lines(text: str):
    default = None
    edge_lines: dict[tuple[int, int], Fraction] = {}
    post_lines: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "default" and len(parts) == 2:
                if default is not None:
                    raise WeightParseError(f"line {lineno}: repeated default")
                default = parse_rational(parts[1])
            elif parts[0] == "w" and len(parts) == 4:
                u, v = int(parts[1]), int(parts[2])
                key = (u, v) if u < v else (v, u)
                if key in edge_lines:
                    raise WeightParseError(f"line {lineno}: duplicate weight for edge {key}")
                edge_lines[key] = parse_rational(parts[3])
            elif parts[0] == "post" and len(parts) == 3:
                x = int(parts[1])
                if x in post_lines:
                    raise WeightParseError(f"line {lineno}: duplicate post weight for {x}")
                post_lines[x] = parse_rational(parts[2])
            else:
                raise WeightParseError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError as exc:
            if isinstance(exc, WeightParseError):
                raise
            raise WeightParseError(f"line {lineno}: {exc}") from exc
    return default, edge_lines, post_lines


def parse_weight_file(text: str, graph: Graph) -> Weight:
    """Parse a plain weight file for `graph` (w lines keyed by endpoints)."""
    default, edge_lines, post_lines = _parse_weight_lines(text)
    if post_lines:
        raise WeightParseError("post lines are only valid for symmetric bunkbed weights")
    values = []
    for e in graph.edges:
        if e in edge_lines:
            values.append(edge_lines.pop(e))
        elif default is not None:
            values.append(default)
        else:
            raise WeightParseError(f"no weight for edge {e} and no default")
    if edge_lines:
        raise WeightParseError(f"weights given for unknown edges: {sorted(edge_lines)}")
    try:
        return Weight(graph, tuple(values))
    except ValueError as exc:
        raise WeightParseError(str(exc)) from exc


def parse_symmetric_weight_file(text: str, bb: BunkbedGraph) -> SymmetricWeight:
    """Parse a symmetric weight file: w lines keyed by base edge endpoints,
    post lines keyed by base vertex."""
    default, edge_lines, post_lines = _parse_weight_lines(text)
    base_values = []
    for e in bb.base.edges:
        if e in edge_lines:
            base_values.append(edge_lines.pop(e))
        elif default is not None:
            base_values.append(default)
        else:
            raise WeightParseError(f"no weight for base edge {e} and no default")
    if edge_lines:
        raise WeightParseError(f"weights given for unknown base edges: {sorted(edge_lines)}")
    post_values = []
    for x in range(bb.base.vertex_count):
        if x in post_lines:
            post_values.append(post_lines.pop(x))
        elif default is not None:
            post_values.append(default)
        else:
            raise WeightParseError(f"no weight for post {x} and no default")
    if post_lines:
        raise WeightParseError(f"posts given for unknown vertices: {sorted(post_lines)}")
    try:
        return SymmetricWeight(bb, tuple(base_values), tuple(post_values))
    except ValueError as exc:
        raise WeightParseError(str(exc)) from exc


def format_weight(w: Weight) -> str:
    """Render a plain weight with one explicit line per edge."""
    lines = [f"w {u} {v} {format_rational(val)}" for (u, v), val in zip(w.graph.edges, w.values)]
    return "\n".join(lines) + "\n"


def format_symmetric_weight(sw: SymmetricWeight) -> str:
    lines = [
        f"w {u} {v} {format_rational(val)}"
        for (u, v), val in zip(sw.bunkbed.base.edges, sw.base_values)
    ]
    lines += [f"post {x} {format_rational(val)}" for x, val in enumerate(sw.post_values)]
    return "\n".join(lines) + "\n"
