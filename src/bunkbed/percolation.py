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
So a walk is compiled once into a plan and cached, one record per step:
the entries that start the next table under each of the step's factors
(for one edge: whole, closed and open), then the entries that add into
one already started, with forgetting folded into the same step.  Each
weight's integer factors are read in one pass over its values, and the
weight replays the plan step by step as integer multiply-adds over plain
lists: a repeated walk, or one over many weights, does the partition
bookkeeping once.

When swapping the layers (x -> x ± n/2) maps the walk to itself, as on a
bunkbed whose weight gives both copies of each edge the same value and
whose terminals come in both layers, the table keeps one representative
partition per orbit of the swap, which halves it.  Such a walk takes each
edge together with its image in one pair step, one record of the plan
with six factors, and a post on its own.  A step runs the ordinary walk's
edge routine twice, over each orbit's representative through the step's
edges and over its image through their images, and keeps the smaller
label of each outcome and its image.  Each orbit's numerator is then
given to both its partitions, so callers see the same distribution over
partitions of the terminals.  It walks so only where its front, which
the swap maps to itself, is no wider than the ordinary order's; there
STATE_CAP counts orbits.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from operator import eq, itemgetter
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
        _unit_fractions((self.value,), "probability")


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


class _Walks(NamedTuple):
    """The schedules the kernel may walk one edge set in for one terminal
    set.  `ordinary` is the candidate order with the narrowest front.
    `swap` walks over orbits of the layer swap x -> x ± n/2 (see
    _partition_numerators), and `mirror` is an itemgetter that reads a
    factor list at each edge's image; both are None where no such walk
    exists or where its front is wider than the ordinary one."""

    ordinary: _Schedule
    swap: _Schedule | None
    mirror: itemgetter | None


@lru_cache(maxsize=256)
def _walks(n: int, edges: tuple[tuple[int, int], ...], terminals: tuple[int, ...]) -> _Walks:
    """Both schedules, from one list of candidate orders.

    A tie of widths keeps the earlier candidate, so greedy stays wherever
    it is already as narrow.  The orbit walk needs the layer-paired
    candidate, edges closed under the swap and swap-closed terminals; its
    order is that candidate with each edge's image moved up right behind
    it.  A front the swap maps to itself can need a vertex more, and a
    vertex more can cost more than the halving saves: a wider orbit walk
    is not taken.
    """
    orders = _candidate_orders(n, edges, terminals)
    ordinary = min((_walk(edges, terminals, order) for order in orders), key=lambda s: s.width)
    none = _Walks(ordinary, None, None)
    h = n // 2
    # a second candidate exists only on graphs.bunkbed's layout
    if not n or len(orders) < 2 or terminals != tuple(sorted((t + h) % n for t in terminals)):
        return none
    index = {e: k for k, e in enumerate(edges)}
    images = []
    for u, v in edges:
        a, b = (u + h) % n, (v + h) % n
        k = index.get((a, b) if a < b else (b, a))
        if k is None:
            return none
        images.append(k)
    order = []
    for k in orders[1]:
        if k not in order:
            order += (k,) if images[k] == k else (k, images[k])
    swap = _walk(edges, terminals, order)
    if swap.width > ordinary.width:
        return none
    return _Walks(ordinary, swap, itemgetter(*(p for k in images for p in (2 * k, 2 * k + 1))))


class _Plan(NamedTuple):
    """A compiled walk, read step by step by _replay.

    `steps` holds one record per step: a head, then the lengths of the
    step's start runs and of its add runs, one of each per factor, which
    follow each other in `indices`.  A step over edge k alone has head 2k
    and three factors, w, c and o: the edge's whole denominator, closed
    and open numerator (a weight's factor list holds o at 2k and c after
    it).  A step over edge k and its image under the layer swap has head
    2k + 1 and six factors, w², wc, wo, c², co and o²: both edges have the
    same factors.  The runs index the table before the step.  The table
    after it lists, in order, one entry started by each index of the start
    runs, times the run's factor; then each add run's pairs (i, j) add
    entry i times the run's factor into entry j.  A run of pairs counts
    each pair once in `steps`.

    An outcome takes the factor w for an edge whose branches leave one
    partition (u and v already share a component, or forgetting makes the
    closed and the opened outcome equal), c or o where it closes or opens
    the edge.  Forgetting is folded into the step: an entry's label is
    read after the vertices whose last edge this is are forgotten.

    On a walk over orbits of the layer swap each entry stands for one
    orbit, and `expand` lists, for every partition of the terminals, the
    entry of its orbit; an ordinary walk's `expand` is empty.  `labels`
    are the final partitions' terminal labels, `states` the peak number of
    entries (on an ordinary walk, before any forgetting), `width` the
    schedule's.
    """

    steps: array
    indices: array
    expand: array
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


# a step's factor, by the factor so far (row) and an edge's outcome (0
# whole, 1 closed, 2 opened): row 0 gives an edge's own factor, and over an
# edge and its image 0 w², 1 wc, 2 wo, 3 c², 4 co, 5 o²
_JOINT = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _compile(
    n: int,
    edges: tuple[tuple[int, int], ...],
    terminals: tuple[int, ...],
    schedule: _Schedule,
    pattern: bytes,
    swap: int = 0,
) -> _Plan:
    """Walk the partitions once, recording each step as runs of indices.

    pattern[2k] and pattern[2k + 1] tell whether edge k may open and
    whether it may close under some weight; a branch no weight can take is
    never listed.  Raises EnumerationCapError once a level's table passes
    STATE_CAP entries.

    swap is h for a walk over orbits of the layer swap x -> (x + h) mod n
    (see _partition_numerators), whose schedule lists every edge but a post
    (x, x + h) right before its image; 0 is the identity, the ordinary
    walk, where every orbit is one partition and every edge a step.
    """
    # character x of a label names the smallest live vertex of x's
    # component, so merging two components is one str.replace; a forgotten
    # vertex holds `gone`, which names no component
    gone = chr(n)
    start = "".join(map(chr, range(n)))
    table = {start: 0}  # label -> index in the table
    mirrors = {start: start} if swap else None  # label in the table -> its image
    states = 1
    steps = array("I")
    indices = array("I")
    order, forget = schedule.order, schedule.forget
    at = 0
    while at < len(order):
        k = order[at]
        u, v = edges[k]
        # a step walks one edge, or on a swap walk an edge and its image
        span = order[at: at + (2 if swap and v - u != swap else 1)]
        table, mirrors, size, starts, adds = _compile_step(
            table, mirrors, tuple(map(edges.__getitem__, span)), forget[at: at + len(span)],
            gone, pattern[2 * k], pattern[2 * k + 1],
        )
        at += len(span)
        states = max(states, size)
        if states > STATE_CAP:
            raise EnumerationCapError(states, STATE_CAP, unit="states")
        steps.extend((2 * k + len(span) - 1, *map(len, starts), *(len(run) // 2 for run in adds)))
        for run in starts + adds:
            indices.extend(run)
    # one terminal: itemgetter picks a one-character str
    pick = itemgetter(*terminals) if terminals else lambda lab: ""
    labels = []
    expand = array("I")
    while table:  # emptied as it is read: the labels replace it, not add to it
        lab, i = table.popitem()
        if swap and mirrors[lab] != lab:
            labels.append(tuple(map(ord, pick(mirrors[lab]))))
            expand.append(i)
        labels.append(tuple(map(ord, pick(lab))))
        if swap:
            expand.append(i)
    labels.reverse()
    expand.reverse()
    return _Plan(steps, indices, expand, tuple(labels), states, schedule.width)


def _compile_step(
    table: dict[str, int],
    mirrors: dict[str, str] | None,
    step: tuple[tuple[int, int], ...],
    drops: tuple[tuple[int, ...], ...],
    gone: str,
    can_open: int,
    can_close: int,
) -> tuple[dict[str, int], dict[str, str] | None, int, list[array], list[array]]:
    """One step of _compile, over one edge or over an edge and its image,
    each followed by forgetting the vertices in `drops` beside it: the next
    table, on a swap walk each of its labels' image, its number of entries
    (on an ordinary walk, before forgetting), and the step's start runs
    and add runs, one of each per factor (see _Plan).

    One routine, `walk`, takes a stream of labels through one edge and the
    forgetting after it, and gives each outcome its kind: whole, closed or
    opened, joined over a pair step's two edges into one of its six
    factors (_JOINT).  An ordinary step runs it once over the table.  On a
    swap walk (`mirrors` given) each entry stands for the orbit of its
    label R and R's image S, and it runs over both: R through the step's
    edges and S through their images, which are the same edges in the other
    order, so the two streams keep in step and each outcome of S is the
    image of R's outcome beside it, under the same factor.  Of an outcome
    and its image the smaller label represents their orbit.  An orbit of
    two adds into it once, or twice when the outcome is its own image; an
    orbit of one adds only the outcomes that are representatives themselves.
    """
    forgotten = {dropped: {} for dropped in drops}  # label before -> after

    def forget(lab, dropped):
        after = forgotten[dropped]
        key = after.get(lab)
        if key is None:
            key = after[lab] = _forget(lab, dropped, gone)
        return key

    def walk(entries, u, v, dropped):
        # (tag, kind, label) for each outcome of each (tag, kind, label) of
        # `entries` through edge (u, v) and forgetting `dropped`; the edge
        # whole (0), closed (1) or opened (2) joins the kind as in _JOINT
        for tag, k, lab in entries:
            a, b = lab[u], lab[v]
            if a == b:
                yield tag, k, forget(lab, dropped) if dropped else lab
                continue
            joined = lab.replace(b, a) if a < b else lab.replace(a, b)
            if dropped:
                lab = forget(lab, dropped) if can_close else None
                joined = forget(joined, dropped) if can_open else None
                if lab == joined:  # forgetting a lone end leaves one partition
                    yield tag, k, lab
                    continue
            if can_close:
                yield tag, _JOINT[k][1], lab
            if can_open:
                yield tag, _JOINT[k][2], joined

    def through(tags, labels, edges, drops):
        # (tag, kind, label) for each outcome of the labels, each with its
        # tag, through `edges`, forgetting drops[k] after edges[k]
        entries = zip(tags, repeat(0), labels)
        for (u, v), dropped in zip(edges, drops):
            entries = walk(entries, u, v, dropped)
        return entries

    flows = [[] for _ in range(3 * len(step))]  # per kind: (entry, label it flows into)
    if mirrors is None:  # an ordinary step over one edge
        for i, kind, key in through(table.values(), table, step, drops):
            flows[kind].append((i, key))
        images = None
    else:
        image = mirrors.__getitem__
        images = {}  # representative -> its image
        for (i, kind, key), (own, _, twin) in zip(
            through(table.values(), table, step, drops),
            # S through the images of the step's edges, which are the same
            # edges in the other order (a post is its own image), tagged
            # with whether the orbit is R alone (S == R)
            through(map(eq, table, map(image, table)), map(image, table), step[::-1], drops[::-1]),
        ):
            if twin < key:
                if own:
                    continue  # R's swapped outcome reaches the representative
                key, twin = twin, key
            elif key == twin and not own:
                # a partition that is its own image: R and S both reach it
                flows[kind].append((i, key))
            images[key] = twin
            flows[kind].append((i, key))
    nxt: dict[str, int] = {}  # label after forgetting -> index
    starts = [array("I") for _ in flows]
    adds = [array("I") for _ in flows]
    for flow, start, add in zip(flows, starts, adds):
        for i, key in flow:
            j = nxt.get(key)
            if j is None:
                nxt[key] = len(nxt)
                start.append(i)
            else:
                add.append(i)
                add.append(j)
    if images is None and drops[0]:
        # before forgetting, the table held the labels forgotten
        return nxt, images, len(forgotten[drops[0]]), starts, adds
    return nxt, images, len(nxt), starts, adds


@lru_cache(maxsize=1024)
def _cached_plan(
    n: int,
    edges: tuple[tuple[int, int], ...],
    terminals: tuple[int, ...],
    pattern: bytes,
    swap: int,
) -> _Plan:
    """The compiled walk in the schedule's order, over orbits of the layer
    swap when `swap` is nonzero, kept while it holds at most
    STATE_CAP // 4 indices (2 MB); a larger one leaves in _Unretained."""
    walks = _walks(n, edges, terminals)
    plan = _compile(n, edges, terminals, walks.swap if swap else walks.ordinary, pattern, swap)
    if len(plan.indices) > STATE_CAP // 4:
        raise _Unretained(plan)
    return plan


def _replay(plan: _Plan, factors: list[int]) -> list[int]:
    """The numerators of a compiled walk's final table under one weight,
    one per partition of the terminals; factors[2k] and factors[2k + 1]
    hold the open and the closed numerator of edge k."""
    run = iter(plan.indices)
    pairs = zip(run, run)  # consecutive indices (i, j)
    step = iter(plan.steps)
    nums = [1]
    for head in step:
        o = factors[head & -2]
        c = factors[head | 1]
        w = o + c
        scale = (w * w, w * c, w * o, c * c, c * o, o * o) if head & 1 else (w, c, o)
        # each zip reads one length from `step` per factor: the starts,
        # then the adds
        nxt = [nums[i] * f for f, size in zip(scale, step) for i in islice(run, size)]
        for f, size in zip(scale, step):
            if size:
                for i, j in islice(pairs, size):
                    nxt[j] += nums[i] * f
        nums = nxt
    if plan.expand:
        # both members of an orbit share one int
        return [nums[i] for i in plan.expand]
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

    When _walks has an orbit walk, so the layer swap x -> x ± n/2 maps the
    edges and the terminals to themselves, and every weight's factor
    column equals its mirror, an entry stands for an orbit of the swap:
    the walk takes an edge and its image in one step, one record of the
    plan, multiplies by w², wc, wo, c², co and o², and keeps one partition
    of each orbit, so the table holds about half the entries.  The final
    orbits are expanded to every partition of the terminals.
    """
    pattern = bytes(map(any, zip(*factors)))
    walks = _walks(n, edges, terminals)
    swap = 0
    if walks.swap and all(list(walks.mirror(col)) == col for col in factors):
        swap = n // 2
    try:
        plan = _cached_plan(n, edges, terminals, pattern, swap)
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
    graph: Graph, weights: Sequence[Weight], edges: list[int], terminals: tuple[int, ...]
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
        ConnectivityDistribution(graph, labels, nums, d, terminals, plan.width, plan.states)
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
    value = _distributions(w.graph, [w], edges, terminals)[0].probability(spec)
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
    dist = _distributions(w.graph, [w], _enumerated_edges(w.graph, None, cap), ())[0]
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
        spec = ConnectivitySpec.connected(x, y)
        if x != y:
            return self.probability(spec)
        spec.validate(self.graph)  # a vertex this table knows nothing of is refused
        self._positions(spec.positive)
        return ONE


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
    and edge.  The partitions are those of `terminals` (default: every
    vertex); fewer terminals mean fewer partitions.  On a bunkbed whose
    terminals and every weight are symmetric under swapping the layers, the
    walk keeps one partition of each swapped pair, about half the table;
    the distributions returned are the same.
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
    return _distributions(graph, weights, edges, terminals)


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
