"""Cut-vertex reductions for bunkbed percolation.

One split step does all the gluing at a cut vertex v.  Side G of the split
is solved first.  When v is G's only port, G's own v- to v+ connection
probability becomes the post weight of v in side H (a collapse), which
preserves every connection probability between vertices of H.  When v
separates two ports, H's post at v is closed, since G's table already
holds it, and the tables of the two sides, with v among the ports of
each, are joined by a union over the six slots of the two ports and v.
collapse_side exposes the collapse as a transform.

two_point_probability and layer_probabilities run one recursion, _solve,
over pieces with at most two port base vertices.  Each piece returns the
exact distribution over partitions of both layers of its ports, so one
solve of a pair gives every connection between x-, x+, y- and y+:
two_point_probability reads one of them, layer_probabilities reads
P(x- ~ y-) and P(x- ~ y+) together.  Each step splits at the most
balanced cut vertex, so the recursion is shallow on long chains of
blocks.  A piece with no cut vertex, one block, is a leaf: one kernel
call with both layers of its ports as terminals, so it costs the
partitions of a narrow sweep front rather than of the whole piece.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import BunkbedGraph, Graph, SplitAtCutVertex, bunkbed, cut_vertices, split_at
from .percolation import (
    DEFAULT_ENUMERATION_CAP,
    ONE,
    ZERO,
    EnumerationCapError,
    ProbabilityReport,
    SymmetricWeight,
    Weight,
    connectivity_distribution,
)


@dataclass(frozen=True)
class BunkbedSplit:
    """Bunkbeds of the two sides of a split, with their edge and vertex
    images inside the bunkbed of the whole graph.

    h0 is the H-side bunkbed minus the shared post edge at the cut vertex,
    so the G and H0 edge images partition the whole bunkbed's edges.
    """

    split: SplitAtCutVertex
    f: BunkbedGraph
    g: BunkbedGraph
    h: BunkbedGraph
    h0: Graph
    g_edge_to_whole: tuple[int, ...]
    h_edge_to_whole: tuple[int, ...]
    h0_edge_to_h: tuple[int, ...]

    def g_vertex_to_whole(self, gv: int) -> int:
        ng = self.g.base.vertex_count
        return self.split.g_vertices[gv % ng] + (gv // ng) * self.f.base.vertex_count

    def h_vertex_to_whole(self, hv: int) -> int:
        nh = self.h.base.vertex_count
        return self.split.h_vertices[hv % nh] + (hv // nh) * self.f.base.vertex_count


def _edge_images(base: Graph, vertex_emb, edge_emb) -> list[int]:
    """The total edges of bunkbed(base) that a side's bunkbed total edges
    are, in the side's order, for a side embedded in base by vertex_emb
    and edge_emb; both bunkbeds follow the fixed layout."""
    posts = 2 * base.edge_count
    return [t for e in edge_emb for t in (2 * e, 2 * e + 1)] + [posts + x for x in vertex_emb]


def bunkbed_split(split: SplitAtCutVertex) -> BunkbedSplit:
    """Lift a base-graph split to the bunkbed level."""
    h = bunkbed(split.side_h)
    shared_post = h.post_edge(split.cut_in_h)
    h0_edge_to_h = tuple(i for i in range(h.total.edge_count) if i != shared_post)
    return BunkbedSplit(
        split=split,
        f=bunkbed(split.whole),
        g=bunkbed(split.side_g),
        h=h,
        h0=Graph(
            h.total.vertex_count, tuple(h.total.edges[i] for i in h0_edge_to_h), h.total.labels
        ),
        g_edge_to_whole=tuple(_edge_images(split.whole, split.g_vertices, split.g_edges)),
        h_edge_to_whole=tuple(_edge_images(split.whole, split.h_vertices, split.h_edges)),
        h0_edge_to_h=h0_edge_to_h,
    )


@dataclass(frozen=True)
class CollapsedSide:
    """Result of collapsing the G side of a split into a post-edge weight.

    reduced_weight agrees with the original weight on every kept edge and
    assigns the computed connection probability to the post edge at the cut
    vertex; every same-side connection probability is unchanged.
    """

    reduced_bunkbed: BunkbedGraph
    reduced_weight: Weight
    collapsed_post_value: Fraction
    split: SplitAtCutVertex

    @property
    def reduced_graph(self) -> Graph:
        return self.reduced_bunkbed.total

    def map_vertex(self, whole_total_vertex: int) -> int:
        """Map a vertex of the whole bunkbed into the reduced bunkbed."""
        n = self.split.whole.vertex_count
        vbar, layer = whole_total_vertex % n, whole_total_vertex // n
        idx = self.split.h_vertex_index.get(vbar)
        if idx is None:
            raise ValueError(f"vertex {whole_total_vertex} is not on the kept side")
        return idx + layer * self.split.side_h.vertex_count


def collapse_side(
    f: BunkbedGraph,
    mu: Weight,
    split: SplitAtCutVertex,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CollapsedSide:
    """Collapse the G side of the split, preserving all H-side connection
    probabilities.  Works for arbitrary (not necessarily symmetric) weights.

    The collapsed post value is G's P(v- ~ v+), solved by the decomposition
    engine on the component of G holding v, so the cap applies to each
    block of that component, not to G's whole bunkbed.
    """
    if split.whole != f.base:
        raise ValueError("split does not belong to the given bunkbed's base graph")
    if mu.graph != f.total:
        raise ValueError("weight does not live on the bunkbed's total graph")
    _, h_vals = _split_step(
        f.base, mu.values, split, (split.cut_vertex,), range(f.base.vertex_count), _Stats(), cap
    )
    h = bunkbed(split.side_h)
    return CollapsedSide(
        reduced_bunkbed=h,
        reduced_weight=Weight(h.total, tuple(h_vals)),
        collapsed_post_value=h_vals[h.post_edge(split.cut_in_h)],
        split=split,
    )


def zero_post_weight(h: BunkbedGraph, mu: Weight, v: int) -> Weight:
    """The weight equal to mu except that the post edge of base vertex v is 0.

    Closing that post makes the bunkbed behave exactly like the graph with
    the post edge deleted: every connection probability not reading the
    post is unchanged, and the post itself can never be open.
    """
    if mu.graph != h.total:
        raise ValueError("weight does not live on the bunkbed's total graph")
    if not 0 <= v < h.base.vertex_count:
        raise ValueError(f"base vertex {v} out of range")
    return mu.replace(h.post_edge(v), ZERO)


# ---------------------------------------------------------------------------
# Recursive decomposition engine
# ---------------------------------------------------------------------------
#
# A piece is a connected base graph, a weight on its bunkbed and at most two
# distinct port base vertices.  Solving it gives a table: the exact
# distribution over partitions of the port slots, slot 2i the lower and
# slot 2i + 1 the upper copy of port i, each partition keyed by the first
# slot in the block of every slot, as integer numerators over one
# denominator.


class _Stats:
    __slots__ = ("atoms",)

    def __init__(self):
        self.atoms = 0


# an entry is a table over at most four slots, so at most 15 partitions: a
# deep cache stays small
@lru_cache(maxsize=256)
def _cached_distribution(graph: Graph, values: tuple, terminals: tuple, cap: int):
    """The kernel's table for one (graph, weight, terminals), the terminals
    listed in slot order; shared by every query that meets the same piece."""
    dist = connectivity_distribution(Weight(graph, values), cap=cap, terminals=terminals)
    index = {t: k for k, t in enumerate(dist.terminals)}
    table = {}
    for lab, num in zip(dist.labels, dist.numerators):
        blocks = [lab[index[t]] for t in terminals]
        table[tuple(map(blocks.index, blocks))] = num
    return table, dist.denominator


def _join(g_table, h_table):
    """Glue G's table over ports (x, v) to H's over (v, y) at v: the union of
    each pair of partitions over the six slots x-, x+, v-, v+, y-, y+, read
    off on x and y.  The two sides share no edge, so the numerators
    multiply."""
    g_nums, g_den = g_table
    h_nums, h_den = h_table
    out: dict[tuple[int, ...], int] = {}
    for kg, ng in g_nums.items():
        for kh, nh in h_nums.items():
            root = list(kg) + [4, 5]  # G's key is already a forest
            for s, t in enumerate(kh, 2):
                a, b = root[s], root[t + 2]
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                if a != b:
                    root[max(a, b)] = min(a, b)
            ends = []
            for s in (0, 1, 4, 5):
                while root[s] != s:
                    s = root[s]
                ends.append(s)
            key = tuple(map(ends.index, ends))
            out[key] = out.get(key, 0) + ng * nh
    return out, g_den * h_den


def _split_step(base, values, split, g_ports, origin, stats, cap):
    """Solve side G of `split` for the base vertices `g_ports`, which
    include the cut vertex v, and give G's table and the values of side H's
    bunkbed.  H's post at v carries G's P(v- ~ v+) when v is G's only port
    (a collapse), and is closed otherwise, since G's table holds it (a
    join)."""
    g_ports = [split.g_vertex_index[p] for p in g_ports]
    g_table = _pair_table(
        split.side_g,
        [values[t] for t in _edge_images(base, split.g_vertices, split.g_edges)],
        g_ports[0], g_ports[-1], [origin[w] for w in split.g_vertices], stats, cap,
    )
    h_vals = [values[t] for t in _edge_images(base, split.h_vertices, split.h_edges)]
    nums, den = g_table
    post = Fraction(nums.get((0, 0), 0), den) if len(g_ports) == 1 else ZERO
    h_vals[bunkbed(split.side_h).post_edge(split.cut_in_h)] = post
    return g_table, h_vals


def _solve(base, values, ports, origin, stats, cap):
    """The table of bunkbed(base) under `values` for `ports`.

    base is connected: every piece reaches here through _pair_table, which
    keeps the component holding the ports, so a leaf is one block.
    `origin` maps current base vertices to vertices of the original query
    graph, for error reporting only.
    """
    # One rule at every cut vertex v: join when v separates the two ports,
    # G being every component of base - v but the one holding the second
    # port, so G holds the first port and owns the post at v; otherwise
    # collapse the components holding no port, the first half of them when
    # v is the only port.  Split at the v whose larger side has the fewest
    # vertices, ties to the first v in sorted order, so a chain of blocks
    # recurses to a depth logarithmic in its length.
    n = base.vertex_count
    best = None
    for v in sorted(cut_vertices(base)):
        comps = base.components(skip=v)
        free = [i for i, c in enumerate(comps) if not any(p in c for p in ports)]
        join = len(comps) - len(free) == 2
        if join:
            chosen = [i for i, c in enumerate(comps) if ports[1] not in c]
        else:
            chosen = free if len(free) < len(comps) else free[: len(free) // 2]
        g = 1 + sum(len(comps[i]) for i in chosen)
        larger = max(g, n + 1 - g)
        if best is None or larger < best[0]:
            best = (larger, v, chosen, join)

    if best is not None:
        _, v, chosen, join = best
        split = split_at(base, v, chosen)
        g_table, h_vals = _split_step(
            base, values, split, (ports[0], v) if join else (v,), origin, stats, cap
        )
        h_table = _solve(
            split.side_h, h_vals,
            tuple(split.h_vertex_index[p] for p in ((v, ports[1]) if join else ports)),
            tuple(origin[w] for w in split.h_vertices), stats, cap,
        )
        return _join(g_table, h_table) if join else h_table

    # No cut vertex: one kernel call on this block's bunkbed.
    total = bunkbed(base).total
    terminals = tuple(t for p in ports for t in (p, p + n))
    try:
        table = _cached_distribution(total, tuple(values), terminals, cap)
    except EnumerationCapError as exc:
        raise EnumerationCapError(
            exc.needed, exc.cap,
            context=f"block on base vertices {sorted(origin)}", unit=exc.unit,
        ) from exc
    stats.atoms += 1 << total.edge_count
    return table


def _weight_values(base: Graph, weight: Weight | SymmetricWeight) -> list:
    """The values of a weight on bunkbed(base).total, checked to live there."""
    if isinstance(weight, SymmetricWeight):
        if weight.bunkbed.base != base:
            raise ValueError("symmetric weight belongs to a different base graph")
        return list(weight.to_weight().values)
    bb = bunkbed(base)
    if (weight.graph.vertex_count, weight.graph.edges) != (bb.total.vertex_count, bb.total.edges):
        raise ValueError("weight does not live on the bunkbed of the given base graph")
    return list(weight.values)


def _pair_table(base, values, abar, bbar, origin, stats, cap):
    """The table over both layers of the ports (abar,) or (abar, bbar),
    solved on the component holding them; None when they lie in two.
    `origin` maps base vertices to vertices of the query graph."""
    comp = next(c for c in base.components() if abar in c)
    if bbar not in comp:
        return None
    if len(comp) < base.vertex_count:
        sub, vemb, eemb = base.induced(comp)
        values = [values[t] for t in _edge_images(base, vemb, eemb)]
        base, abar, bbar = sub, comp.index(abar), comp.index(bbar)
    ports = (abar,) if abar == bbar else (abar, bbar)
    return _solve(base, values, ports, tuple(origin[w] for w in comp), stats, cap)


def two_point_probability(
    base: Graph,
    weight: Weight | SymmetricWeight,
    a: int,
    b: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> ProbabilityReport:
    """Exact connection probability between two bunkbed vertices of base.

    Keeps the component holding both base vertices (0 if they lie in two),
    then solves it once for the table over both layers of the pair: collapse
    strips every side away from the ports into a post value, a cut vertex
    separating the ports joins the tables of its two sides, and a piece
    with no cut vertex is one kernel call.  P(a ~ b) is read off that
    table.  Accepts an arbitrary weight on bunkbed(base).total or a
    SymmetricWeight; collapsed weights are generally not symmetric, so all
    internal work is on arbitrary weights.  `threads` is accepted for
    compatibility; the kernel runs in one process.
    """
    t0 = time.perf_counter()
    values = _weight_values(base, weight)
    n = base.vertex_count
    for t in (a, b):
        if not 0 <= t < 2 * n:
            raise ValueError(f"bunkbed vertex {t} out of range")
    stats = _Stats()
    abar, bbar = a % n, b % n
    table = None if a == b else _pair_table(base, values, abar, bbar, range(n), stats, cap)
    if table is None:
        value = ONE if a == b else ZERO
    else:
        nums, den = table
        sa, sb = a // n, (0 if abar == bbar else 2) + b // n
        value = Fraction(sum(num for key, num in nums.items() if key[sa] == key[sb]), den)
    return ProbabilityReport(
        value=value,
        method="decomposition",
        atoms_evaluated=stats.atoms,
        elapsed=time.perf_counter() - t0,
    )


def layer_probabilities(
    base: Graph,
    weight: Weight | SymmetricWeight,
    x: int,
    y: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Fraction, Fraction]:
    """(P(x- ~ y-), P(x- ~ y+)) for base vertices x and y, from one solve.

    Both values lie in the one table over both layers of the ports that
    two_point_probability reads a single entry of; a pair in two components
    gives (0, 0).  Accepts the same weights as two_point_probability.
    """
    values = _weight_values(base, weight)
    for t in (x, y):
        if not 0 <= t < base.vertex_count:
            raise ValueError(f"base vertex {t} out of range")
    table = _pair_table(base, values, x, y, range(base.vertex_count), _Stats(), cap)
    if table is None:
        return ZERO, ZERO
    nums, den = table
    # the slots of y- and y+: with x == y the one port's own two slots
    lower, upper = (0, 1) if x == y else (2, 3)
    same = sum(num for key, num in nums.items() if key[0] == key[lower])
    cross = sum(num for key, num in nums.items() if key[0] == key[upper])
    return Fraction(same, den), Fraction(cross, den)
