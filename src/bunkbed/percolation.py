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
So a walk is compiled once into a plan and cached: per edge, the entries
that start the next table under the whole, the closed and the open factor,
then the entries that add into one already started, with forgetting folded
into the same step.  Each weight's integer factors are read in one pass
over its values, and the weight replays the plan step by step as integer
multiply-adds over plain lists: a repeated walk, or one over many weights,
does the partition bookkeeping once.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import itemgetter
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
    # a Fraction's denominator is positive, so integer bounds suffice
    if not 0 <= value.numerator <= value.denominator:
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
    """A compiled walk, read step by step by _replay.

    `steps` holds seven integers per edge walked: the position of the
    edge's open numerator in a weight's factor list (its closed numerator
    follows it), then the lengths of six runs that follow each other in
    `indices`.  The runs index the table before the step, and the table
    after it lists, in order, one entry started by each of:

    1. the entries the edge's branches leave in one partition, times its
       whole denominator: u and v already share a component, or forgetting
       makes the closed and the opened outcome equal;
    2. the entries it closes, times its closed numerator;
    3. the entries it opens, times its open numerator.

    Then three runs of pairs (i, j), one per factor in the same order, add
    entry i times that factor into entry j.  Forgetting is folded into the
    step: an entry's label is read after the vertices whose last edge this
    is are forgotten.  A run of pairs counts each pair once in `steps`.

    `labels` are the final table's terminal labels, `states` its peak
    number of entries before any forgetting, `width` the schedule's.
    """

    steps: array
    indices: array
    labels: tuple[tuple[int, ...], ...]
    states: int
    width: int


class _Unretained(Exception):
    """Carries a plan too large for the plan cache out of it: lru_cache keeps
    no result of a call that raises."""


def _forget(lab: str, dropped: tuple[int, ...], gone: str) -> str:
    """The label with the `dropped` vertices forgotten: a dropped vertex
    that names its component passes the name on to the next live one."""
    for x in dropped:
        c = lab[x]
        if c == chr(x):
            y = lab.find(c, x + 1)
            if y >= 0:
                lab = lab.replace(c, chr(y))
        lab = lab[:x] + gone + lab[x + 1:]
    return lab


def _compile(
    n: int,
    edges: tuple[tuple[int, int], ...],
    terminals: tuple[int, ...],
    schedule: _Schedule,
    pattern: bytes,
) -> _Plan:
    """Walk the partitions once, recording each step as runs of indices.

    pattern[2k] and pattern[2k + 1] tell whether edge k may open and
    whether it may close under some weight; a branch no weight can take is
    never listed.  Raises EnumerationCapError once a level's table passes
    STATE_CAP entries.
    """
    # character x of a label names the smallest live vertex of x's
    # component, so merging two components is one str.replace; a forgotten
    # vertex holds `gone`, which names no component
    gone = chr(n)
    table = {"".join(map(chr, range(n))): 0}  # label -> index in the table
    states = 1
    steps = array("I")
    indices = array("I")
    for k, dropped in zip(schedule.order, schedule.forget):
        table, size, runs = _compile_step(
            table, edges[k], dropped, gone, pattern[2 * k], pattern[2 * k + 1]
        )
        states = max(states, size)
        if states > STATE_CAP:
            raise EnumerationCapError(states, STATE_CAP, unit="states")
        starts, adds = runs[:3], runs[3:]
        steps.extend((2 * k, *map(len, starts), *(len(run) // 2 for run in adds)))
        for run in runs:
            indices.extend(run)
    # one terminal: itemgetter picks a one-character str
    pick = itemgetter(*terminals) if terminals else lambda lab: ""
    labels = []
    while table:  # emptied as it is read: the labels replace it, not add to it
        labels.append(tuple(map(ord, pick(table.popitem()[0]))))
    labels.reverse()
    return _Plan(steps, indices, tuple(labels), states, schedule.width)


def _compile_step(
    table: dict[str, int],
    edge: tuple[int, int],
    dropped: tuple[int, ...],
    gone: str,
    can_open: int,
    can_close: int,
) -> tuple[dict[str, int], int, tuple[array, ...]]:
    """One step of _compile: the next table, its number of entries before
    forgetting, and the step's six runs (see _Plan)."""
    u, v = edge
    whole, closed, opened, add_whole, add_closed, add_opened = runs = tuple(
        array("I") for _ in range(6)
    )
    nxt: dict[str, int] = {}  # label after forgetting -> index
    joined = {}  # when forgetting: label u and v share, before -> after
    shut = 0  # entries closed
    # forgetting u (or v) while it is alone leaves one label whether the
    # edge opens or closes: such an entry takes the whole factor
    alone_u = can_open and can_close and u in dropped
    alone_v = can_open and can_close and v in dropped
    for lab, i in table.items():
        a, b = lab[u], lab[v]
        if a == b:
            key = lab
            if dropped:
                joined[lab] = key = _forget(lab, dropped, gone)
        elif alone_u and lab.count(a) == 1 or alone_v and lab.count(b) == 1:
            shut += 1
            key = _forget(lab, dropped, gone)
            joined.setdefault(lab.replace(b, a) if a < b else lab.replace(a, b), key)
        else:
            continue
        j = nxt.get(key)
        if j is None:
            nxt[key] = len(nxt)
            whole.append(i)
        else:
            add_whole.extend((i, j))
    if can_close:
        for lab, i in table.items():
            a, b = lab[u], lab[v]
            if a == b or alone_u and lab.count(a) == 1 or alone_v and lab.count(b) == 1:
                continue
            shut += 1
            key = _forget(lab, dropped, gone) if dropped else lab
            j = nxt.get(key)
            if j is None:
                nxt[key] = len(nxt)
                closed.append(i)
            else:
                add_closed.extend((i, j))
    if can_open:
        for lab, i in table.items():
            a, b = lab[u], lab[v]
            if a == b or alone_u and lab.count(a) == 1 or alone_v and lab.count(b) == 1:
                continue
            key = lab.replace(b, a) if a < b else lab.replace(a, b)
            if dropped:
                after = joined.get(key)
                if after is None:
                    joined[key] = after = _forget(key, dropped, gone)
                key = after
            j = nxt.get(key)
            if j is None:
                nxt[key] = len(nxt)
                opened.append(i)
            else:
                add_opened.extend((i, j))
    # before forgetting, the table held the joined labels and the closed ones
    return nxt, len(joined) + shut if dropped else len(nxt), runs


@lru_cache(maxsize=1024)
def _cached_plan(
    n: int,
    edges: tuple[tuple[int, int], ...],
    terminals: tuple[int, ...],
    pattern: bytes,
) -> _Plan:
    """The compiled walk in the schedule's order, kept while it holds at
    most STATE_CAP // 4 indices (2 MB); a larger one leaves in _Unretained."""
    plan = _compile(n, edges, terminals, _edge_schedule(n, edges, terminals), pattern)
    if len(plan.indices) > STATE_CAP // 4:
        raise _Unretained(plan)
    return plan


def _replay(plan: _Plan, factors: list[int]) -> list[int]:
    """The numerators of a compiled walk's final table under one weight,
    factors[2k] and factors[2k + 1] holding the open and the closed
    numerator of edge k."""
    run = iter(plan.indices)
    pairs = zip(run, run)  # consecutive indices (i, j)
    step = iter(plan.steps)
    nums = [1]
    for k, whole, closed, opened, add_whole, add_closed, add_opened in zip(
        step, step, step, step, step, step, step
    ):
        o = factors[k]
        c = factors[k + 1]
        w = o + c
        nxt = [nums[i] * w for i in islice(run, whole)]
        if closed:
            nxt += [nums[i] * c for i in islice(run, closed)]
        if opened:
            nxt += [nums[i] * o for i in islice(run, opened)]
        if add_whole:
            for i, j in islice(pairs, add_whole):
                nxt[j] += nums[i] * w
        if add_closed:
            for i, j in islice(pairs, add_closed):
                nxt[j] += nums[i] * c
        if add_opened:
            for i, j in islice(pairs, add_opened):
                nxt[j] += nums[i] * o
        nums = nxt
    return nums


def _partition_numerators(
    n: int,
    edges: tuple[tuple[int, int], ...],
    factors: list[list[int]],
    terminals: tuple[int, ...],
) -> tuple[list[tuple[int, ...]], list[list[int]], _Plan]:
    """The exact integer numerator of every partition of the terminals into
    open components.

    The one enumeration of the package.  An atom opens or closes each of
    the m `edges`; factors[c] holds weight c's open and closed numerators
    of edge k at 2k and 2k + 1.  Returns the partitions, each as the
    smallest terminal of every terminal's component, one column of
    numerators per weight, and the plan, which carries the peak number of
    table entries and the width.  Raises EnumerationCapError when a level's
    table passes STATE_CAP entries: while the walk is compiled, and by its
    peak on every replay of a cached plan.

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
    that bookkeeping is compiled once into index arrays (_compile) and
    cached, and each weight replays it as integer multiply-adds (_replay).
    """
    pattern = bytes(map(any, zip(*factors)))
    try:
        plan = _cached_plan(n, edges, terminals, pattern)
    except _Unretained as big:
        plan = big.args[0]
    if plan.states > STATE_CAP:
        raise EnumerationCapError(plan.states, STATE_CAP, unit="states")
    columns = [_replay(plan, col) for col in factors]
    # one weight takes only branches whose factors are positive, so every
    # entry is; in a batch, an entry reached through the branches of
    # different weights can be 0 under all of them: drop it
    if len(columns) > 1 and 0 in columns[0]:
        live = [i for i, nums in enumerate(zip(*columns)) if any(nums)]
        labels = [plan.labels[i] for i in live]
        return labels, [[col[i] for i in live] for col in columns], plan
    return list(plan.labels), columns, plan


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
    factors = []  # per weight: open and closed numerator of each edge
    denominators = []
    for w in weights:
        col = []
        d = 1
        for p in map(w.values.__getitem__, edges):
            a, b = p.as_integer_ratio()
            col += a, b - a
            d *= b
        factors.append(col)
        denominators.append(d)
    if not factors:
        return []
    pairs = tuple(map(graph.edges.__getitem__, edges))
    labels, columns, plan = _partition_numerators(graph.vertex_count, pairs, factors, terminals)
    return [
        ConnectivityDistribution(
            graph, restriction, labels, nums, d, terminals, plan.width, plan.states
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
